//! The raw incident-report format the pipeline ingests.
//!
//! This mirrors the shape of an OTX "pulse": an id, a creation date, a
//! set of APT tags, and a list of typed indicators. The TRAIL collector
//! (Section IV-A) filters reports whose tags map to more than one APT
//! and parses the rest.

use crate::json::{self, JsonValue};
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

fn required_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn string_array(v: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(items) => items
            .as_array()
            .ok_or_else(|| format!("field {key:?} is not an array"))?
            .iter()
            .map(|t| {
                t.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("non-string in {key:?}"))
            })
            .collect(),
    }
}

impl RawReport {
    /// Parse from JSON text (self-contained parser — works without any
    /// external JSON crate).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("bad report JSON: {e}"))?;
        let id = required_str(&doc, "id")?;
        let created_day = doc
            .get("created_day")
            .and_then(JsonValue::as_u32)
            .ok_or("missing or non-numeric field \"created_day\"")?;
        let tags = string_array(&doc, "tags")?;
        let mut indicators = Vec::new();
        if let Some(items) = doc.get("indicators") {
            let items = items
                .as_array()
                .ok_or("field \"indicators\" is not an array")?;
            for item in items {
                indicators.push(RawIndicator {
                    indicator_type: required_str(item, "type")?,
                    indicator: required_str(item, "indicator")?,
                });
            }
        }
        Ok(Self {
            id,
            created_day,
            tags,
            indicators,
        })
    }

    /// Serialise to compact JSON text ([`Self::from_json`]'s inverse).
    pub fn to_json(&self) -> String {
        let indicators = self
            .indicators
            .iter()
            .map(|i| {
                JsonValue::Object(vec![
                    (
                        "type".to_owned(),
                        JsonValue::String(i.indicator_type.clone()),
                    ),
                    (
                        "indicator".to_owned(),
                        JsonValue::String(i.indicator.clone()),
                    ),
                ])
            })
            .collect();
        let tags = self.tags.iter().cloned().map(JsonValue::String).collect();
        json::to_string(&JsonValue::Object(vec![
            ("id".to_owned(), JsonValue::String(self.id.clone())),
            (
                "created_day".to_owned(),
                JsonValue::Number(self.created_day as f64),
            ),
            ("tags".to_owned(), JsonValue::Array(tags)),
            ("indicators".to_owned(), JsonValue::Array(indicators)),
        ]))
    }

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

    const SAMPLE: &str = r#"{
        "id": "pulse-001",
        "created_day": 2900,
        "tags": ["APT28", "sofacy"],
        "indicators": [
            {"type": "IPv4", "indicator": "1.0.36[.]127"},
            {"type": "domain", "indicator": "v5y7s3[.]l2twn2[.]club"},
            {"type": "URL", "indicator": "hxxp://sfj54f7[.]17ti3sk[.]club/?H3%2540ba&d"},
            {"type": "URL", "indicator": "javascript:void(0)"},
            {"type": "FileHash-SHA256", "indicator": "deadbeef"},
            {"type": "IPv4", "indicator": "1.0.36.127"}
        ]
    }"#;

    #[test]
    fn parses_and_filters_sample() {
        let raw = RawReport::from_json(SAMPLE).unwrap();
        let parsed = raw.parse();
        assert_eq!(parsed.id, "pulse-001");
        // 4 valid entries but the duplicate IP collapses to 3.
        assert_eq!(parsed.iocs.len(), 3);
        // The javascript snippet and the file hash are rejected.
        assert_eq!(parsed.rejected.len(), 2);
        assert_eq!(parsed.iocs[0].text(), "1.0.36.127");
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(RawReport::from_json("{not json").is_err());
    }

    #[test]
    fn declared_kind_vocabulary() {
        assert_eq!(declared_kind("IPv4"), Some(IocKind::Ip));
        assert_eq!(declared_kind("hostname"), Some(IocKind::Domain));
        assert_eq!(declared_kind("URI"), Some(IocKind::Url));
        assert_eq!(declared_kind("FileHash-MD5"), None);
    }

    #[test]
    fn json_roundtrip() {
        let raw = RawReport::from_json(SAMPLE).unwrap();
        let encoded = raw.to_json();
        let again = RawReport::from_json(&encoded).unwrap();
        assert_eq!(raw, again);
    }
}
