//! IP address IOCs: a from-scratch IPv4 parser plus IPv6 validation.

use crate::defang::refang;
use crate::{IocError, Result};

/// A validated IP-address IOC in canonical text form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IpIoc {
    /// Canonical text (dotted quad for v4, lowercased compressed for v6).
    pub text: String,
    /// True for IPv6.
    pub v6: bool,
}

impl IpIoc {
    /// Parse (possibly defanged) text as an IP address.
    pub fn parse(raw: &str) -> Result<Self> {
        let s = refang(raw);
        if let Some(octets) = parse_ipv4(&s) {
            return Ok(Self {
                text: format!("{}.{}.{}.{}", octets[0], octets[1], octets[2], octets[3]),
                v6: false,
            });
        }
        if s.contains(':') {
            if let Ok(v6) = s.parse::<std::net::Ipv6Addr>() {
                return Ok(Self {
                    text: v6.to_string(),
                    v6: true,
                });
            }
        }
        Err(IocError::invalid("ip", raw, "not an IPv4/IPv6 address"))
    }

    /// The four octets of an IPv4 address, if this is one.
    pub fn v4_octets(&self) -> Option<[u8; 4]> {
        if self.v6 {
            None
        } else {
            parse_ipv4(&self.text)
        }
    }
}

impl std::fmt::Display for IpIoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Strict dotted-quad parser: four decimal octets 0–255, no leading
/// zeros (to avoid octal ambiguity), no surrounding junk.
fn parse_ipv4(s: &str) -> Option<[u8; 4]> {
    let mut octets = [0u8; 4];
    let mut parts = s.split('.');
    for slot in &mut octets {
        let part = parts.next()?;
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        if part.len() > 1 && part.starts_with('0') {
            return None;
        }
        *slot = part.parse::<u16>().ok().filter(|&v| v <= 255)? as u8;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(octets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_defanged() {
        assert_eq!(IpIoc::parse("198.51.100.7").unwrap().text, "198.51.100.7");
        assert_eq!(IpIoc::parse("1.0.36[.]127").unwrap().text, "1.0.36.127");
    }

    #[test]
    fn rejects_out_of_range_and_junk() {
        for bad in [
            "256.1.1.1",
            "1.2.3",
            "1.2.3.4.5",
            "a.b.c.d",
            "1.2.3.04",
            "",
            "1.2.3.4 x",
        ] {
            assert!(IpIoc::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_ipv6() {
        let ip = IpIoc::parse("2001:db8::1").unwrap();
        assert!(ip.v6);
        assert_eq!(ip.text, "2001:db8::1");
    }

    #[test]
    fn octets_roundtrip() {
        assert_eq!(
            IpIoc::parse("1.2.3.4").unwrap().v4_octets(),
            Some([1, 2, 3, 4])
        );
        assert_eq!(IpIoc::parse("2001:db8::1").unwrap().v4_octets(), None);
    }
}
