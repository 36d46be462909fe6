//! Canonical IOC identity.
//!
//! Every layer of the pipeline used to round-trip raw strings: the
//! world indices, the OSINT client queries, the graph upserts and the
//! depth-2 lookups. Real feeds serve the *same* indicator in many
//! spellings — mixed case, trailing dots, `hxxp`/`[.]` defanging — and
//! any layer comparing raw text silently fails to join what another
//! layer stored canonically. [`IocKey`] is the one identity all layers
//! agree on: the IOC kind plus the canonical text produced by the
//! parsers in [`crate::ip`], [`crate::domain`] and [`crate::url`].
//!
//! Construction always goes through a parser, so a key in hand is a
//! proof the text is canonical; the fields are private to keep it that
//! way.

use crate::types::{Ioc, IocKind};
use crate::Result;

/// The canonical identity of a network IOC: kind + canonical text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IocKey {
    kind: IocKind,
    text: String,
}

/// The borrowed (zero-copy) form of [`IocKey`]: same identity, no
/// owned text. Only constructible from an [`IocKey`] or a parsed
/// [`Ioc`], so — like the owned form — holding one is a proof the text
/// is canonical. The enrichment and OSINT query hot paths pass this
/// around instead of cloning canonical strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IocKeyRef<'a> {
    kind: IocKind,
    text: &'a str,
}

impl<'a> IocKeyRef<'a> {
    /// Crate-internal constructor — callers outside the crate must go
    /// through [`IocKey::as_ref`] or [`Ioc::key_ref`] so canonicality
    /// stays guaranteed by construction.
    pub(crate) fn new(kind: IocKind, text: &'a str) -> Self {
        Self { kind, text }
    }

    /// The IOC kind.
    pub fn kind(self) -> IocKind {
        self.kind
    }

    /// The canonical text.
    pub fn text(self) -> &'a str {
        self.text
    }
}

impl<'a> From<&'a IocKey> for IocKeyRef<'a> {
    fn from(key: &'a IocKey) -> Self {
        key.as_ref()
    }
}

impl std::fmt::Display for IocKeyRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind.name(), self.text)
    }
}

impl IocKey {
    /// The identity of an already-parsed IOC (infallible — parsed IOCs
    /// carry canonical text by construction).
    pub fn of(ioc: &Ioc) -> Self {
        Self {
            kind: ioc.kind(),
            text: ioc.text().to_owned(),
        }
    }

    /// Parse raw (possibly defanged / mixed-case / trailing-dot) text
    /// with a declared kind and canonicalise it.
    pub fn parse(kind: IocKind, raw: &str) -> Result<Self> {
        Ioc::parse_as(kind, raw).map(|ioc| Self::of(&ioc))
    }

    /// Auto-detect the kind of raw text and canonicalise it.
    pub fn detect(raw: &str) -> Result<Self> {
        Ioc::detect(raw).map(|ioc| Self::of(&ioc))
    }

    /// The IOC kind.
    pub fn kind(&self) -> IocKind {
        self.kind
    }

    /// The canonical text — the one spelling every index and graph
    /// lookup uses.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Borrow this key as the zero-copy [`IocKeyRef`] form.
    pub fn as_ref(&self) -> IocKeyRef<'_> {
        IocKeyRef {
            kind: self.kind,
            text: &self.text,
        }
    }
}

impl From<&Ioc> for IocKey {
    fn from(ioc: &Ioc) -> Self {
        Self::of(ioc)
    }
}

impl std::fmt::Display for IocKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind.name(), self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_variants_share_one_key() {
        let canonical = IocKey::parse(IocKind::Domain, "threebody.cn").unwrap();
        for raw in [
            "ThreeBody.CN",
            "threebody.cn.",
            "threebody[.]cn",
            " THREEBODY[.]CN. ",
        ] {
            assert_eq!(
                IocKey::parse(IocKind::Domain, raw).unwrap(),
                canonical,
                "{raw:?}"
            );
        }
        assert_eq!(canonical.text(), "threebody.cn");
    }

    #[test]
    fn ip_and_url_keys_canonicalise() {
        let ip = IocKey::parse(IocKind::Ip, "1.0.36[.]127").unwrap();
        assert_eq!(ip.text(), "1.0.36.127");
        let url = IocKey::parse(IocKind::Url, "hxxp://ThreeBody[.]cn/trisolaris.php").unwrap();
        assert_eq!(url.text(), "http://threebody.cn/trisolaris.php");
        assert_eq!(url.kind(), IocKind::Url);
    }

    #[test]
    fn detect_routes_by_shape() {
        assert_eq!(IocKey::detect("198.51.100.7").unwrap().kind(), IocKind::Ip);
        assert_eq!(
            IocKey::detect("hxxp://a[.]example/x").unwrap().kind(),
            IocKind::Url
        );
        assert_eq!(
            IocKey::detect("A.Example.").unwrap().kind(),
            IocKind::Domain
        );
        assert!(IocKey::detect("???").is_err());
    }

    #[test]
    fn same_text_different_kind_is_a_different_key() {
        // A domain key and a URL key never collide even if a raw string
        // could be read as either.
        let d = IocKey::parse(IocKind::Domain, "a.example").unwrap();
        let u = IocKey::parse(IocKind::Url, "http://a.example/").unwrap();
        assert_ne!(d, u);
    }

    #[test]
    fn key_of_parsed_ioc_matches_parse() {
        let ioc = Ioc::detect("EvIl[.]ExAmPlE.").unwrap();
        assert_eq!(
            IocKey::of(&ioc),
            IocKey::parse(IocKind::Domain, "evil.example").unwrap()
        );
        assert_eq!(IocKey::from(&ioc).text(), "evil.example");
    }

    #[test]
    fn borrowed_form_shares_the_owned_identity() {
        let key = IocKey::parse(IocKind::Domain, "ThreeBody[.]CN.").unwrap();
        let r = key.as_ref();
        assert_eq!(r.kind(), key.kind());
        assert_eq!(r.text(), key.text());
        assert_eq!(IocKeyRef::from(&key), r);
        assert_eq!(r.to_string(), key.to_string());
        // An Ioc's borrow agrees with its owned key.
        let ioc = Ioc::detect("threebody.cn").unwrap();
        assert_eq!(IocKeyRef::from(&ioc.key()), ioc.key_ref());
        assert_eq!(ioc.key_ref().text(), "threebody.cn");
    }
}
