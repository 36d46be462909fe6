//! Synthetic OSINT substrate for the TRAIL reproduction.
//!
//! The paper collects 4,512 attributed incident reports from AlienVault
//! OTX and enriches their IOCs through passive DNS, geo-IP and header
//! probes. That feed is unavailable offline, so this crate implements a
//! *generative ground-truth world* with the same observable surface:
//!
//! * [`profile::AptProfile`] — 22 APT behavioural profiles with
//!   distinct-but-overlapping preferences (TLDs, registrars, server
//!   stacks, countries, DGA styles) and campaign structure.
//! * [`world::World`] — the ground-truth registries: ASNs, IP geo/issuer
//!   data, DNS resolution history, URL server configurations, and the
//!   generated timeline of attributed events.
//! * [`client::OsintClient`] — the OTX-like API the TRAIL pipeline
//!   consumes: event search plus per-IOC analysis endpoints, with
//!   realistic noise (missing records, NXDOMAINs, junk indicators).
//!
//! The generator is parameterised ([`config::WorldConfig`]) so the three
//! phenomena the paper's results rest on are reproduced and tunable:
//! weak per-IOC feature signal, heavy intra-APT infrastructure reuse,
//! and enrichment-only (secondary) connectivity.

#![forbid(unsafe_code)]

pub mod breaker;
pub mod client;
pub mod config;
pub mod naming;
pub mod profile;
pub mod world;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{OsintClient, OsintError};
pub use config::WorldConfig;
pub use profile::AptProfile;
pub use world::{mix64, ChaosPlan, GeneratedEvent, World};

/// Days per month in the synthetic timeline (the paper's longitudinal
/// study is monthly; a fixed 30-day month keeps arithmetic simple).
pub const DAYS_PER_MONTH: u32 = 30;
