//! Data model of enrichment results — what the OSINT analysis of an IOC
//! returns (Section IV-A/B: passive DNS, dig, geo-IP, cURL header probe).
//!
//! The `trail-osint` crate produces these from its synthetic world; the
//! [`crate::features`] encoders turn them into fixed-layout vectors.

/// The nine passive-DNS record types whose counts are domain features.
pub const DNS_RECORD_TYPES: [&str; 9] =
    ["A", "AAAA", "CNAME", "MX", "NS", "TXT", "SOA", "PTR", "SRV"];

/// The analysis of one IOC, whichever its kind: what one OSINT query
/// returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// A URL's analysis.
    Url(UrlAnalysis),
    /// A domain's analysis.
    Domain(DomainAnalysis),
    /// An IP's analysis.
    Ip(IpAnalysis),
}

/// Result of analysing a URL (cached cURL response + lookups).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UrlAnalysis {
    /// Whether the URL still responded when probed.
    pub alive: bool,
    /// MIME type of the file hosted at the address (106-way one-hot).
    pub file_type: Option<String>,
    /// Coarse class of that file (21-way one-hot), e.g. `html`, `pe`.
    pub file_class: Option<String>,
    /// HTTP response code (68-way one-hot).
    pub http_code: Option<u16>,
    /// Content encoding (12-way one-hot), e.g. `gzip`.
    pub encoding: Option<String>,
    /// Server header value (944-way one-hot), e.g. `nginx/1.18`.
    pub server: Option<String>,
    /// Operating system fingerprint of the server (50-way one-hot).
    pub server_os: Option<String>,
    /// Services detected on the host (183-way multi-hot).
    pub services: Vec<String>,
    /// Miscellaneous header flags (23-way multi-hot), e.g. `hsts`.
    pub header_flags: Vec<String>,
    /// IPs this URL resolved to (relational, not a feature).
    pub resolved_ips: Vec<String>,
}

/// Result of analysing an IP (geo-IP + passive DNS + whois).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IpAnalysis {
    /// ISO country code (249-way one-hot).
    pub country: Option<String>,
    /// Issuer / registry that granted the address (250-way one-hot).
    pub issuer: Option<String>,
    /// Estimated latitude, degrees.
    pub latitude: f32,
    /// Estimated longitude, degrees.
    pub longitude: f32,
    /// Count of historic A records pointing at this IP.
    pub a_record_count: u32,
    /// Count of distinct domains that ever resolved here.
    pub resolving_domain_count: u32,
    /// ASN the address belongs to, if known.
    pub asn: Option<u32>,
    /// log2-size of the ASN's address pool (0 when unknown).
    pub asn_size_log: f32,
    /// Days since the IP was first seen in passive DNS.
    pub first_seen_days: f32,
    /// Days since it was last seen.
    pub last_seen_days: f32,
    /// Domains historically linked to this IP (relational).
    pub historic_domains: Vec<String>,
}

/// Result of analysing a domain (passive DNS).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DomainAnalysis {
    /// Count of unique records per type, in [`DNS_RECORD_TYPES`] order.
    pub record_counts: [u32; 9],
    /// True when the domain has been deactivated (NXDOMAIN) since report.
    pub nxdomain: bool,
    /// Days since first seen in passive DNS.
    pub first_seen_days: f32,
    /// Days since last seen.
    pub last_seen_days: f32,
    /// IPs from A/AAAA records (relational).
    pub resolved_ips: Vec<String>,
    /// CNAME targets (relational).
    pub cname_targets: Vec<String>,
    /// URLs observed hosted on this domain (the OTX `url_list`
    /// endpoint; relational — the source of secondary URL nodes).
    pub hosted_urls: Vec<String>,
}

impl DomainAnalysis {
    /// The engineered `active_period` feature the paper adds during
    /// preprocessing: last-seen minus first-seen.
    pub fn active_period(&self) -> f32 {
        (self.first_seen_days - self.last_seen_days).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_period_is_nonnegative() {
        let mut d = DomainAnalysis {
            first_seen_days: 100.0,
            last_seen_days: 10.0,
            ..Default::default()
        };
        assert_eq!(d.active_period(), 90.0);
        d.last_seen_days = 200.0; // inconsistent data must not go negative
        assert_eq!(d.active_period(), 0.0);
    }

    #[test]
    fn defaults_are_empty() {
        let u = UrlAnalysis::default();
        assert!(!u.alive && u.server.is_none() && u.services.is_empty());
        let i = IpAnalysis::default();
        assert!(i.country.is_none() && i.asn.is_none());
    }
}
