//! Domain-name IOCs: validation and the paper's lexical features.

use crate::defang::refang;
use crate::{shannon_entropy, IocError, Result};

/// A validated, lowercased domain name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DomainIoc {
    /// Canonical (lowercase, no trailing dot) text.
    pub text: String,
}

/// The four lexical features the paper tracks for domains: length,
/// digit ratio, label (period) count and character entropy. Together
/// these fingerprint domain-generation algorithms (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainLexical {
    /// Total length in characters.
    pub length: f32,
    /// Fraction of characters that are digits.
    pub digit_ratio: f32,
    /// Number of `.`-separated labels minus one (period count).
    pub periods: f32,
    /// Shannon entropy (bits) of the name.
    pub entropy: f32,
}

impl DomainIoc {
    /// Parse (possibly defanged) text as a domain name.
    ///
    /// Accepts letters, digits and hyphens in labels (LDH rule), at
    /// least two labels, an alphabetic TLD, and at most 253 chars.
    pub fn parse(raw: &str) -> Result<Self> {
        let s = refang(raw).to_ascii_lowercase();
        let s = s.strip_suffix('.').unwrap_or(&s).to_owned();
        if s.len() > 253 || s.is_empty() {
            return Err(IocError::invalid("domain", raw, "bad length"));
        }
        let labels: Vec<&str> = s.split('.').collect();
        if labels.len() < 2 {
            return Err(IocError::invalid(
                "domain",
                raw,
                "needs at least two labels",
            ));
        }
        for label in &labels {
            if label.is_empty() || label.len() > 63 {
                return Err(IocError::invalid("domain", raw, "bad label length"));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-')
            {
                return Err(IocError::invalid("domain", raw, "non-LDH character"));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(IocError::invalid(
                    "domain",
                    raw,
                    "label starts/ends with hyphen",
                ));
            }
        }
        let tld = labels.last().expect("checked non-empty");
        if !tld.bytes().all(|b| b.is_ascii_alphabetic()) {
            return Err(IocError::invalid(
                "domain",
                raw,
                "numeric TLD (looks like an IP?)",
            ));
        }
        Ok(Self { text: s })
    }

    /// The top-level domain (final label).
    pub fn tld(&self) -> &str {
        self.text.rsplit('.').next().expect("validated")
    }

    /// Number of subdomain labels in front of the registrable part
    /// (the last two labels, approximated without a public suffix
    /// list, as the paper's lexical pipeline does).
    pub fn subdomain_depth(&self) -> usize {
        self.text.split('.').count().saturating_sub(2)
    }

    /// Extract the four lexical features.
    pub fn lexical(&self) -> DomainLexical {
        let len = self.text.len() as f32;
        let digits = self.text.bytes().filter(u8::is_ascii_digit).count() as f32;
        DomainLexical {
            length: len,
            digit_ratio: if len > 0.0 { digits / len } else { 0.0 },
            periods: self.text.matches('.').count() as f32,
            entropy: shannon_entropy(&self.text),
        }
    }
}

impl std::fmt::Display for DomainIoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalises() {
        let d = DomainIoc::parse("ThreeBody[.]CN.").unwrap();
        assert_eq!(d.text, "threebody.cn");
        assert_eq!(d.tld(), "cn");
    }

    #[test]
    fn rejects_invalid() {
        for bad in [
            "",
            "nolabel",
            ".leading",
            "trailing..dots",
            "-bad.example",
            "bad-.example",
            "1.2.3.4",
            "a_b.example",
            &"x".repeat(300),
        ] {
            assert!(DomainIoc::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn subdomain_depth_counts_labels_before_the_last_two() {
        let d = DomainIoc::parse("v5y7s3.l2twn2.club").unwrap();
        assert_eq!(d.subdomain_depth(), 1);
        let flat = DomainIoc::parse("example.com").unwrap();
        assert_eq!(flat.subdomain_depth(), 0);
    }

    #[test]
    fn lexical_features() {
        let d = DomainIoc::parse("abc123.example").unwrap();
        let l = d.lexical();
        assert_eq!(l.length, 14.0);
        assert!((l.digit_ratio - 3.0 / 14.0).abs() < 1e-6);
        assert_eq!(l.periods, 1.0);
        assert!(l.entropy > 0.0);
    }

    #[test]
    fn dga_style_domains_have_higher_entropy() {
        let dga = DomainIoc::parse("q7x9zk2mf4tq.club").unwrap();
        let plain = DomainIoc::parse("downloads.example").unwrap();
        assert!(dga.lexical().entropy > plain.lexical().entropy);
    }
}
