//! The IOC sum type and kind auto-detection.

use crate::domain::DomainIoc;
use crate::ip::IpIoc;
use crate::url::UrlIoc;
use crate::{IocError, Result};

/// The three network-IOC kinds the paper studies (plus ASN, which only
/// appears as a derived node, never as a reported IOC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IocKind {
    /// IP address.
    Ip,
    /// Full URL.
    Url,
    /// Domain name.
    Domain,
}

impl IocKind {
    /// All reportable kinds.
    pub const ALL: [IocKind; 3] = [IocKind::Ip, IocKind::Url, IocKind::Domain];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IocKind::Ip => "IP",
            IocKind::Url => "URL",
            IocKind::Domain => "Domain",
        }
    }
}

/// A validated network IOC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ioc {
    /// IP address.
    Ip(IpIoc),
    /// URL.
    Url(UrlIoc),
    /// Domain.
    Domain(DomainIoc),
}

impl Ioc {
    /// Parse text with a declared kind (as incident reports provide).
    pub fn parse_as(kind: IocKind, raw: &str) -> Result<Self> {
        match kind {
            IocKind::Ip => IpIoc::parse(raw).map(Ioc::Ip),
            IocKind::Url => UrlIoc::parse(raw).map(Ioc::Url),
            IocKind::Domain => DomainIoc::parse(raw).map(Ioc::Domain),
        }
    }

    /// Auto-detect the kind: URL if it has a scheme, IP if it parses as
    /// one, else domain.
    pub fn detect(raw: &str) -> Result<Self> {
        let refanged = crate::defang::refang(raw);
        if refanged.contains("://") {
            return UrlIoc::parse(raw).map(Ioc::Url);
        }
        if let Ok(ip) = IpIoc::parse(raw) {
            return Ok(Ioc::Ip(ip));
        }
        if let Ok(d) = DomainIoc::parse(raw) {
            return Ok(Ioc::Domain(d));
        }
        Err(IocError::invalid("ioc", raw, "matches no known IOC kind"))
    }

    /// The kind of this IOC.
    pub fn kind(&self) -> IocKind {
        match self {
            Ioc::Ip(_) => IocKind::Ip,
            Ioc::Url(_) => IocKind::Url,
            Ioc::Domain(_) => IocKind::Domain,
        }
    }

    /// Canonical text.
    pub fn text(&self) -> &str {
        match self {
            Ioc::Ip(x) => &x.text,
            Ioc::Url(x) => &x.text,
            Ioc::Domain(x) => &x.text,
        }
    }

    /// The canonical identity of this IOC (see [`crate::key::IocKey`]).
    pub fn key(&self) -> crate::key::IocKey {
        crate::key::IocKey::of(self)
    }

    /// The zero-copy identity of this IOC — no allocation, same
    /// canonical-by-construction guarantee as [`Self::key`].
    pub fn key_ref(&self) -> crate::key::IocKeyRef<'_> {
        crate::key::IocKeyRef::new(self.kind(), self.text())
    }
}

impl std::fmt::Display for Ioc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_kinds() {
        assert_eq!(Ioc::detect("1.2.3.4").unwrap().kind(), IocKind::Ip);
        assert_eq!(
            Ioc::detect("hxxp://a[.]example/x").unwrap().kind(),
            IocKind::Url
        );
        assert_eq!(Ioc::detect("a.example").unwrap().kind(), IocKind::Domain);
        assert!(Ioc::detect("???").is_err());
    }

    #[test]
    fn parse_as_enforces_kind() {
        assert!(Ioc::parse_as(IocKind::Ip, "a.example").is_err());
        assert!(Ioc::parse_as(IocKind::Domain, "a.example").is_ok());
    }

    #[test]
    fn url_detection_wins_over_domain() {
        // A scheme means URL even though the host alone is a valid domain.
        let ioc = Ioc::detect("http://a.example").unwrap();
        assert_eq!(ioc.kind(), IocKind::Url);
        assert_eq!(ioc.text(), "http://a.example/");
    }
}
