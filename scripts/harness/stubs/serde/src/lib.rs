//! Offline stand-in for `serde`.
//!
//! The workspace derives `Serialize`/`Deserialize` on ~50 types but never
//! serializes them generically — all JSON output goes through
//! `serde_json::Value` built by hand, and all binary persistence uses the
//! repo's own TKG2/TSB1/TWL1 framing. So the traits here are empty markers with
//! blanket impls, and the derive macros (re-exported from the stub
//! `serde_derive`) expand to nothing.

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// Mirror of serde's `de` module for `use serde::de::...` paths.
pub mod de {
    pub use super::Deserialize;
    pub trait DeserializeOwned {}
    impl<T: ?Sized> DeserializeOwned for T {}
}

pub use serde_derive::{Deserialize, Serialize};
