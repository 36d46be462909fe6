//! IOC parsing, validation and feature extraction for TRAIL.
//!
//! This crate owns the network-IOC domain model the paper studies:
//!
//! * [`defang`] — refanging of `hxxp://` / `[.]`-style defensive
//!   obfuscation used in threat reports.
//! * [`ip`], [`domain`], [`url`] — from-scratch parsers and the lexical
//!   features (entropy, digit ratios, label structure) of Section IV-B.
//! * [`types`] — the [`types::Ioc`] sum type with auto-detection.
//! * [`report`] — the raw incident report the pipeline ingests (an
//!   in-memory struct shaped like an OTX pulse).
//! * [`analysis`] — the data model of enrichment results (what passive
//!   DNS / geo-IP / cURL probing returns).
//! * [`features`] — fixed-layout one-hot encoders producing exactly the
//!   paper's 1,517-dim URL / 507-dim IP / 115-dim domain vectors, with
//!   human-readable names for every slot (used by the Fig. 9 SHAP view).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod defang;
pub mod domain;
pub mod features;
pub mod hash;
pub mod ip;
pub mod key;
pub mod report;
pub mod types;
pub mod url;
pub mod vocab;

pub use analysis::{Analysis, DomainAnalysis, IpAnalysis, UrlAnalysis};
pub use hash::{fnv1a, Fnv1a};
pub use key::{IocKey, IocKeyRef};
pub use types::{Ioc, IocKind};

/// Errors raised while parsing IOC text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IocError {
    /// The text is not a valid value of the expected kind.
    Invalid {
        /// What we tried to parse it as.
        kind: &'static str,
        /// The offending input (possibly truncated).
        input: String,
        /// Why it failed.
        reason: &'static str,
    },
}

impl IocError {
    pub(crate) fn invalid(kind: &'static str, input: &str, reason: &'static str) -> Self {
        let mut input = input.to_owned();
        input.truncate(120);
        IocError::Invalid {
            kind,
            input,
            reason,
        }
    }
}

impl std::fmt::Display for IocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IocError::Invalid {
                kind,
                input,
                reason,
            } => {
                write!(f, "invalid {kind} {input:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for IocError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IocError>;

/// Shannon entropy in bits of the byte distribution of `s`.
/// The paper's key lexical feature (Fig. 9: URL entropy is the top
/// APT28 signal).
pub fn shannon_entropy(s: &str) -> f32 {
    if s.is_empty() {
        return 0.0;
    }
    let mut counts = [0u32; 256];
    for b in s.bytes() {
        counts[b as usize] += 1;
    }
    let n = s.len() as f32;
    let mut h = 0.0;
    for &c in counts.iter().filter(|&&c| c > 0) {
        let p = c as f32 / n;
        h -= p * p.log2();
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_edges() {
        assert_eq!(shannon_entropy(""), 0.0);
        assert_eq!(shannon_entropy("aaaa"), 0.0);
        assert!((shannon_entropy("ab") - 1.0).abs() < 1e-6);
        // Random-looking strings have higher entropy than words.
        assert!(shannon_entropy("q7x9zk2m") > shannon_entropy("download"));
    }
}
