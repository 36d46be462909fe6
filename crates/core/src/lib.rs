//! # TRAIL — knowledge-graph APT attribution
//!
//! A from-scratch reproduction of *"TRAIL: A Knowledge Graph-based
//! Approach for Attributing Advanced Persistent Threats"* (ICDE 2025).
//!
//! The system ingests attributed incident reports from an OSINT
//! exchange, validates and enriches their network IOCs (passive DNS,
//! geo-IP, header probes), and merges everything into the TRAIL
//! Knowledge Graph (TKG). Three analysis families then attribute
//! events to APTs: per-IOC classical ML, label propagation over the
//! graph, and a GraphSAGE GNN combining features with topology.
//!
//! ```no_run
//! use std::sync::Arc;
//! use trail::system::TrailSystem;
//! use trail_osint::{OsintClient, World, WorldConfig};
//!
//! let world = Arc::new(World::generate(WorldConfig::default()));
//! let client = OsintClient::new(world);
//! let cutoff = client.world().config.cutoff_day;
//! let system = TrailSystem::build(client, cutoff);
//! println!("{}", system.tkg.stats_table());
//! ```
//!
//! Module map (paper section in parentheses):
//! * [`collector`] — report search + APT alias resolution (§IV-A).
//! * [`enrich`] — two-hop IOC enrichment (§IV-A/B).
//! * [`tkg`] — the knowledge graph + feature store (§IV-C, §V).
//! * [`sparse`] — sparse feature vectors backing the store.
//! * [`attribute`] — Table III / Table IV attribution pipelines (§VI–VII).
//! * [`embed`] — autoencoder projection + GNN input assembly (§VI-C).
//! * [`report`] — dataset statistics, reuse histograms (§V, Fig. 4).
//! * [`longitudinal`] — the months-long study (§VII-C, Figs. 7–8).
//! * [`stream`] — event-at-a-time ingestion, bitwise-equal to batch.
//! * [`system`] — the end-to-end orchestrator.

#![forbid(unsafe_code)]

pub mod attribute;
pub mod collector;
pub mod embed;
pub mod enrich;
pub mod freeze;
pub mod longitudinal;
pub mod report;
pub mod sparse;
pub mod stream;
pub mod system;
pub mod tkg;

pub use system::TrailSystem;
pub use tkg::Tkg;
