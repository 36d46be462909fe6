//! The 507-dimension IP feature encoder.
//!
//! Layout: `0..249` country · `249..499` issuer · `499..507` misc
//! numeric (lat, lon, log-record counts, ASN presence/size, ages).

use crate::analysis::IpAnalysis;
use crate::ip::IpIoc;
use crate::vocab::Vocab;

use super::*;

const COUNTRY: (usize, usize) = (0, 249);
const ISSUER: (usize, usize) = (249, 250);
const MISC: (usize, usize) = (499, 8);

/// Names of the eight misc numeric slots.
pub const MISC_NAMES: [&str; 8] = [
    "latitude_norm",
    "longitude_norm",
    "log_a_records",
    "log_resolving_domains",
    "has_asn",
    "asn_size_log",
    "log_first_seen_days",
    "log_last_seen_days",
];

/// Encoder for IP IOCs. Construct once and reuse.
#[derive(Debug, Clone)]
pub struct IpEncoder {
    country: Vocab,
    issuer: Vocab,
}

impl Default for IpEncoder {
    fn default() -> Self {
        Self {
            country: Vocab::new("country", COUNTRY.1, COMMON_COUNTRIES),
            issuer: Vocab::new("issuer", ISSUER.1, COMMON_ISSUERS),
        }
    }
}

impl IpEncoder {
    /// Encode an IP and its enrichment analysis into a feature vector.
    /// The `_ip` itself contributes no slots — the paper notes IPs have
    /// "a dearth of features on their own"; everything comes from
    /// enrichment.
    pub fn encode(&self, _ip: &IpIoc, a: &IpAnalysis) -> Vec<f32> {
        let mut out = vec![0.0f32; IP_DIMS];
        if let Some(c) = &a.country {
            out[COUNTRY.0 + self.country.slot(c)] = 1.0;
        }
        if let Some(i) = &a.issuer {
            out[ISSUER.0 + self.issuer.slot(i)] = 1.0;
        }
        let m = MISC.0;
        out[m] = a.latitude / 90.0;
        out[m + 1] = a.longitude / 180.0;
        out[m + 2] = (a.a_record_count as f32).ln_1p();
        out[m + 3] = (a.resolving_domain_count as f32).ln_1p();
        out[m + 4] = if a.asn.is_some() { 1.0 } else { 0.0 };
        out[m + 5] = a.asn_size_log;
        out[m + 6] = a.first_seen_days.max(0.0).ln_1p();
        out[m + 7] = a.last_seen_days.max(0.0).ln_1p();
        out
    }

    /// Human-readable name of feature slot `idx`.
    pub fn feature_name(&self, idx: usize) -> String {
        debug_assert!(idx < IP_DIMS);
        if idx < COUNTRY.1 {
            self.country.slot_name(idx)
        } else if idx < ISSUER.0 + ISSUER.1 {
            self.issuer.slot_name(idx - ISSUER.0)
        } else {
            MISC_NAMES[idx - MISC.0].to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_sums_to_total() {
        assert_eq!(COUNTRY.1 + ISSUER.1 + MISC.1, IP_DIMS);
        assert_eq!(ISSUER.0, COUNTRY.1);
        assert_eq!(MISC.0, ISSUER.0 + ISSUER.1);
    }

    #[test]
    fn encode_full_analysis() {
        let enc = IpEncoder::default();
        let ip = IpIoc::parse("198.51.100.7").unwrap();
        let a = IpAnalysis {
            country: Some("lv".into()),
            issuer: Some("ripe".into()),
            latitude: 45.0,
            longitude: -90.0,
            a_record_count: 3,
            resolving_domain_count: 2,
            asn: Some(12345),
            asn_size_log: 14.0,
            first_seen_days: 100.0,
            last_seen_days: 1.0,
            historic_domains: vec![],
        };
        let v = enc.encode(&ip, &a);
        assert_eq!(v.len(), IP_DIMS);
        // "lv" is curated at index 14; "ripe" at issuer slot 1.
        assert_eq!(v[14], 1.0);
        assert_eq!(v[ISSUER.0 + 1], 1.0);
        assert_eq!(v[MISC.0], 0.5);
        assert_eq!(v[MISC.0 + 1], -0.5);
        assert_eq!(v[MISC.0 + 4], 1.0);
        assert!((v[MISC.0 + 2] - 4.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn missing_analysis_is_all_zero_but_valid() {
        let enc = IpEncoder::default();
        let ip = IpIoc::parse("8.8.8.8").unwrap();
        let v = enc.encode(&ip, &IpAnalysis::default());
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn feature_names_cover_all_slots() {
        let enc = IpEncoder::default();
        assert_eq!(enc.feature_name(0), "country=us");
        assert_eq!(enc.feature_name(ISSUER.0), "issuer=arin");
        assert_eq!(enc.feature_name(IP_DIMS - 1), "log_last_seen_days");
        for i in 0..IP_DIMS {
            assert!(!enc.feature_name(i).is_empty());
        }
    }
}
