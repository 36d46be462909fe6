//! Shard-parallel TKG construction.
//!
//! The sequential build walks every collected event in canonical
//! `(created_day, id)` order and, per event, issues the two-hop
//! analysis queries inline. At paper scale the queries dominate the
//! wall clock, and they are *pure*: every outcome — analysis content,
//! permanent gaps, the transient-fault schedule, retry costs — is a
//! deterministic function of the canonical key and the attempt number,
//! never of graph state (see the `enrich` module docs).
//!
//! That purity is the whole parallelisation strategy:
//!
//! 1. **Phase A (parallel).** Events are assigned to shards by an
//!    FNV-1a hash of their report id. Each shard worker replays *its
//!    own* events against a scratch TKG in recording mode, memoising
//!    one `QueryRecord` per canonical key it queries, whatever the
//!    key's IOC kind (one query, record and apply serve every kind; see
//!    [`crate::enrich`]). The scratch graph is discarded; only the
//!    per-shard query map survives.
//! 2. **Phase B (sequential merge).** A fresh TKG ingests *all* events
//!    in the original canonical order, serving every analysis from the
//!    owning shard's map through the same apply code the sequential
//!    path runs. No query map iteration order is ever observed — maps
//!    are only probed by key — so thread scheduling cannot leak into
//!    the result.
//!
//! **Coverage argument** (why replay never needs a live query): a
//! shard worker queries every first-order IOC of its events, plus every
//! secondary IOC that is *new to its scratch graph*. The scratch graph
//! holds a subset of the merge-time graph's history, so any IOC that is
//! new at merge time was also new in the scratch walk — the shard map
//! is a superset of what the merge needs. A map miss would still be
//! harmless (the replay mode falls back to an identical live query),
//! it just cannot happen.
//!
//! **Equivalence argument** (why the result is bitwise-identical to
//! the sequential build, at any shard count and thread count): the
//! merge executes the same mutations as the sequential path, in the
//! same order, driven by the same per-key query results; and per-event
//! [`IngestStats`] are sums of per-query costs, which replay charges
//! identically. The only observable difference is plumbing telemetry
//! (`osint.queries` counts drop because shard workers deduplicate
//! repeat keys).
//!
//! The shard path refuses order-dependent enrichment: a circuit
//! breaker makes query outcomes depend on the global query *sequence*,
//! so `build_tkg_sharded` callers must fall back to the sequential
//! walk (see `TrailSystem::build_with_shards`).

use trail_ioc::fnv1a;
use trail_osint::OsintClient;

use crate::collector::{AptRegistry, CollectedEvent};
use crate::enrich::{Enricher, IngestStats, QueryLog, QueryMap};
use crate::tkg::Tkg;

/// Shard owning a report id: FNV-1a over the id, mod the shard count.
pub fn shard_of(report_id: &str, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0);
    (fnv1a(report_id) % n_shards as u64) as usize
}

/// Phase A: compute each shard's query map on the shared worker pool.
fn shard_query_maps(
    client: &OsintClient,
    until_day: u32,
    events: &[CollectedEvent],
    n_shards: usize,
    threads: usize,
) -> Vec<QueryMap> {
    let _span = trail_obs::span("shard.query_phase");
    let n_apts = client.world().config.n_apts;
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for (i, e) in events.iter().enumerate() {
        shards[shard_of(&e.report.id, n_shards)].push(i);
    }
    trail_linalg::pool::parallel_map_limit(threads.max(1), n_shards, |s| {
        let mut map = QueryMap::default();
        let mut scratch = Tkg::new(AptRegistry::new(n_apts));
        let enricher = Enricher::new(client, until_day);
        let mut log = QueryLog::Record(&mut map);
        for &i in &shards[s] {
            enricher.ingest_logged(&mut scratch, &events[i], &mut log);
        }
        map
    })
}

/// Build a TKG from `events` with shard-parallel enrichment: Phase A
/// computes per-shard query maps in parallel, Phase B merges every
/// event sequentially in the given (canonical) order, replaying the
/// memoised queries. Bitwise-identical to ingesting the same events
/// sequentially with [`Enricher::ingest`] — at any `n_shards >= 1` and
/// any `threads >= 1`.
///
/// Callers must not pass a breaker-guarded client (order-dependent;
/// see the module docs).
pub(crate) fn build_tkg_sharded(
    client: &OsintClient,
    until_day: u32,
    events: &[CollectedEvent],
    n_shards: usize,
    threads: usize,
) -> (Tkg, IngestStats) {
    let n_shards = n_shards.max(1);
    let maps = shard_query_maps(client, until_day, events, n_shards, threads);
    let _span = trail_obs::span("shard.merge_phase");
    let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
    let mut stats = IngestStats::default();
    let enricher = Enricher::new(client, until_day);
    for event in events {
        let mut log = QueryLog::Replay(&maps[shard_of(&event.report.id, n_shards)]);
        stats.absorb(&enricher.ingest_logged(&mut tkg, event, &mut log));
    }
    (tkg, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::collect_iter;
    use std::sync::Arc;
    use trail_osint::{World, WorldConfig};

    fn setup(fault_prob: f32) -> (OsintClient, Vec<CollectedEvent>) {
        let mut cfg = WorldConfig::tiny(47);
        cfg.transient_fault_prob = fault_prob;
        let client = OsintClient::new(Arc::new(World::generate(cfg)));
        let registry = AptRegistry::new(client.world().config.n_apts);
        let (events, _) = collect_iter(
            client.reports_before(client.world().config.cutoff_day),
            &registry,
        );
        (client, events)
    }

    fn sequential(client: &OsintClient, events: &[CollectedEvent], day: u32) -> (Tkg, IngestStats) {
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(client, day);
        let mut stats = IngestStats::default();
        for e in events {
            stats.absorb(&enricher.ingest(&mut tkg, e));
        }
        (tkg, stats)
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 8, 13] {
            for id in ["r-0", "r-1", "some-longer-report-id", ""] {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, shard_of(id, n), "unstable shard for {id:?}");
            }
        }
    }

    #[test]
    fn sharded_build_is_bitwise_identical_to_sequential() {
        let (client, events) = setup(0.2);
        let day = client.world().config.cutoff_day;
        let (seq_tkg, seq_stats) = sequential(&client, &events, day);
        let seq_bytes = trail_graph::persist::to_bytes(&seq_tkg.graph);
        for (n_shards, threads) in [(1, 1), (2, 2), (5, 2), (8, 8)] {
            let (tkg, stats) = build_tkg_sharded(&client, day, &events, n_shards, threads);
            assert_eq!(stats, seq_stats, "stats diverged at {n_shards} shards");
            assert_eq!(
                trail_graph::persist::to_bytes(&tkg.graph),
                seq_bytes,
                "graph snapshot diverged at {n_shards} shards / {threads} threads"
            );
            assert_eq!(tkg.events.len(), seq_tkg.events.len());
        }
    }

    #[test]
    fn sharded_features_match_sequential() {
        let (client, events) = setup(0.0);
        let day = client.world().config.cutoff_day;
        let (seq_tkg, _) = sequential(&client, &events, day);
        let (tkg, _) = build_tkg_sharded(&client, day, &events, 4, 2);
        for kind in [
            trail_ioc::IocKind::Url,
            trail_ioc::IocKind::Ip,
            trail_ioc::IocKind::Domain,
        ] {
            let a = seq_tkg.featured_nodes(kind);
            let b = tkg.featured_nodes(kind);
            assert_eq!(a.len(), b.len(), "featured count diverged for {kind:?}");
            for ((na, fa), (nb, fb)) in a.iter().zip(&b) {
                assert_eq!(na, nb);
                assert_eq!(
                    fa.fingerprint(),
                    fb.fingerprint(),
                    "features diverged at {na:?}"
                );
            }
        }
    }
}
