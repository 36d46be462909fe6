//! The raw incident report the pipeline ingests.
//!
//! [`RawReport`] mirrors the shape of an OTX "pulse": an id, a creation
//! date, a set of APT tags, and a list of typed indicators. It is an
//! in-memory struct, not a wire format: the synthetic world hands
//! reports to the collector as values, and the write-ahead log stores
//! them in its own framed binary record. The TRAIL collector
//! (Section IV-A) filters reports whose tags map to more than one APT
//! and parses the rest.

use crate::types::{Ioc, IocKind};

/// One indicator entry in a raw report.
#[derive(Debug, Clone, PartialEq)]
pub struct RawIndicator {
    /// Declared type: `"IPv4"`, `"IPv6"`, `"URL"`, `"domain"`,
    /// `"hostname"` (OTX vocabulary; case-insensitive).
    pub indicator_type: String,
    /// The indicator text, possibly defanged.
    pub indicator: String,
}

/// A raw incident report as fetched from the intelligence exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct RawReport {
    /// Provider-assigned report id.
    pub id: String,
    /// Day index the report was created (days since epoch of the feed).
    pub created_day: u32,
    /// Free-form APT tags attached by the reporting analyst.
    pub tags: Vec<String>,
    /// The indicators listed in the report.
    pub indicators: Vec<RawIndicator>,
}

/// A parsed report: validated IOCs plus parse failures kept for audit.
#[derive(Debug, Clone)]
pub struct ParsedReport {
    /// Report id.
    pub id: String,
    /// Creation day index.
    pub created_day: u32,
    /// APT tags (unresolved; alias mapping happens in the collector).
    pub tags: Vec<String>,
    /// Successfully parsed IOCs, deduplicated, in first-seen order.
    pub iocs: Vec<Ioc>,
    /// Indicators that failed validation (the paper's "junk URLs").
    pub rejected: Vec<(String, String)>,
}

impl RawReport {
    /// Validate and deduplicate every indicator.
    pub fn parse(&self) -> ParsedReport {
        let mut iocs = Vec::with_capacity(self.indicators.len());
        let mut seen = std::collections::HashSet::new();
        let mut rejected = Vec::new();
        for ind in &self.indicators {
            let kind = match declared_kind(&ind.indicator_type) {
                Some(k) => k,
                None => {
                    rejected.push((
                        ind.indicator.clone(),
                        format!("unknown type {:?}", ind.indicator_type),
                    ));
                    continue;
                }
            };
            match Ioc::parse_as(kind, &ind.indicator) {
                Ok(ioc) => {
                    if seen.insert((ioc.kind(), ioc.text().to_owned())) {
                        iocs.push(ioc);
                    }
                }
                Err(e) => rejected.push((ind.indicator.clone(), e.to_string())),
            }
        }
        ParsedReport {
            id: self.id.clone(),
            created_day: self.created_day,
            tags: self.tags.clone(),
            iocs,
            rejected,
        }
    }
}

/// Map an OTX-style indicator type string to an IOC kind.
pub fn declared_kind(s: &str) -> Option<IocKind> {
    match s.to_ascii_lowercase().as_str() {
        "ipv4" | "ipv6" | "ip" => Some(IocKind::Ip),
        "url" | "uri" => Some(IocKind::Url),
        "domain" | "hostname" => Some(IocKind::Domain),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RawReport {
        let ind = |t: &str, i: &str| RawIndicator {
            indicator_type: t.to_owned(),
            indicator: i.to_owned(),
        };
        RawReport {
            id: "pulse-001".to_owned(),
            created_day: 2900,
            tags: vec!["APT28".to_owned(), "sofacy".to_owned()],
            indicators: vec![
                ind("IPv4", "1.0.36[.]127"),
                ind("domain", "v5y7s3[.]l2twn2[.]club"),
                ind("URL", "hxxp://sfj54f7[.]17ti3sk[.]club/?H3%2540ba&d"),
                ind("URL", "javascript:void(0)"),
                ind("FileHash-SHA256", "deadbeef"),
                ind("IPv4", "1.0.36.127"),
            ],
        }
    }

    #[test]
    fn parses_and_filters_sample() {
        let parsed = sample().parse();
        assert_eq!(parsed.id, "pulse-001");
        // 4 valid entries but the duplicate IP collapses to 3.
        assert_eq!(parsed.iocs.len(), 3);
        // The javascript snippet and the file hash are rejected.
        assert_eq!(parsed.rejected.len(), 2);
        assert_eq!(parsed.iocs[0].text(), "1.0.36.127");
    }

    #[test]
    fn declared_kind_vocabulary() {
        assert_eq!(declared_kind("IPv4"), Some(IocKind::Ip));
        assert_eq!(declared_kind("hostname"), Some(IocKind::Domain));
        assert_eq!(declared_kind("URI"), Some(IocKind::Url));
        assert_eq!(declared_kind("FileHash-MD5"), None);
    }
}
