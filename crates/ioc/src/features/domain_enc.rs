//! The 115-dimension domain feature encoder.
//!
//! Layout: `0..100` TLD · `100..109` passive-DNS record-type counts ·
//! `109` NXDOMAIN flag · `110..114` lexical · `114` active period
//! (the engineered feature from the paper's preprocessing).

use crate::analysis::{DomainAnalysis, DNS_RECORD_TYPES};
use crate::domain::DomainIoc;
use crate::vocab::Vocab;

use super::*;

const TLD: (usize, usize) = (0, 100);
const RECORDS: (usize, usize) = (100, 9);
const NXDOMAIN: usize = 109;
const LEXICAL: (usize, usize) = (110, 4);
const ACTIVE_PERIOD: usize = 114;

/// Names of the four lexical slots.
pub const LEXICAL_NAMES: [&str; 4] = ["length", "digit_ratio", "periods", "entropy"];

/// Encoder for domain IOCs. Construct once and reuse.
#[derive(Debug, Clone)]
pub struct DomainEncoder {
    tld: Vocab,
}

impl Default for DomainEncoder {
    fn default() -> Self {
        Self {
            tld: Vocab::new("tld", TLD.1, COMMON_TLDS),
        }
    }
}

impl DomainEncoder {
    /// Encode a domain and its enrichment analysis into a feature vector.
    pub fn encode(&self, d: &DomainIoc, a: &DomainAnalysis) -> Vec<f32> {
        let mut out = vec![0.0f32; DOMAIN_DIMS];
        out[TLD.0 + self.tld.slot(d.tld())] = 1.0;
        for (i, &c) in a.record_counts.iter().enumerate() {
            out[RECORDS.0 + i] = (c as f32).ln_1p();
        }
        out[NXDOMAIN] = if a.nxdomain { 1.0 } else { 0.0 };
        let lex = d.lexical();
        out[LEXICAL.0] = lex.length;
        out[LEXICAL.0 + 1] = lex.digit_ratio;
        out[LEXICAL.0 + 2] = lex.periods;
        out[LEXICAL.0 + 3] = lex.entropy;
        out[ACTIVE_PERIOD] = a.active_period().ln_1p();
        out
    }

    /// Human-readable name of feature slot `idx`.
    pub fn feature_name(&self, idx: usize) -> String {
        debug_assert!(idx < DOMAIN_DIMS);
        if idx < TLD.1 {
            self.tld.slot_name(idx)
        } else if idx < RECORDS.0 + RECORDS.1 {
            format!(
                "dns_{}_count",
                DNS_RECORD_TYPES[idx - RECORDS.0].to_lowercase()
            )
        } else if idx == NXDOMAIN {
            "nxdomain".to_owned()
        } else if idx < LEXICAL.0 + LEXICAL.1 {
            LEXICAL_NAMES[idx - LEXICAL.0].to_owned()
        } else {
            "active_period".to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_sums_to_total() {
        assert_eq!(TLD.1 + RECORDS.1 + 1 + LEXICAL.1 + 1, DOMAIN_DIMS);
        assert_eq!(ACTIVE_PERIOD, DOMAIN_DIMS - 1);
    }

    #[test]
    fn encode_basic() {
        let enc = DomainEncoder::default();
        let d = DomainIoc::parse("v5y7s3.l2twn2.club").unwrap();
        let a = DomainAnalysis {
            record_counts: [1, 0, 0, 0, 2, 0, 0, 0, 0],
            nxdomain: true,
            first_seen_days: 50.0,
            last_seen_days: 10.0,
            ..Default::default()
        };
        let v = enc.encode(&d, &a);
        assert_eq!(v.len(), DOMAIN_DIMS);
        // "club" is curated TLD index 7.
        assert_eq!(v[7], 1.0);
        assert!((v[RECORDS.0] - 2.0f32.ln()).abs() < 1e-6); // ln(1+1)
        assert!((v[RECORDS.0 + 4] - 3.0f32.ln()).abs() < 1e-6); // NS count 2
        assert_eq!(v[NXDOMAIN], 1.0);
        assert_eq!(v[LEXICAL.0], 18.0); // length
        assert!((v[ACTIVE_PERIOD] - 41.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn feature_names_cover_all_slots() {
        let enc = DomainEncoder::default();
        assert_eq!(enc.feature_name(0), "tld=com");
        assert_eq!(enc.feature_name(RECORDS.0), "dns_a_count");
        assert_eq!(enc.feature_name(NXDOMAIN), "nxdomain");
        assert_eq!(enc.feature_name(LEXICAL.0 + 3), "entropy");
        assert_eq!(enc.feature_name(ACTIVE_PERIOD), "active_period");
        for i in 0..DOMAIN_DIMS {
            assert!(!enc.feature_name(i).is_empty());
        }
    }
}
