//! Golden-fingerprint regression test for TKG construction.
//!
//! Builds the TKG from [`trail_osint::World::fixture`] — a hand-written
//! world with no RNG anywhere in its construction — and pins the
//! resulting graph shape as committed constants: node count, edge
//! count, and an fnv1a hash of the sorted degree sequence. Any change
//! to collection, canonicalisation, enrichment or graph upserts that
//! alters the constructed graph trips this test *before* it surfaces
//! as an accuracy drift in the paper tables.
//!
//! A second set of constants pins the enrichment output bit for bit:
//! an FNV-1a hash of the graph snapshot (`persist::to_bytes`, which
//! sees node and edge order), a hash over the stored feature rows in
//! write order, and the full [`IngestStats`] taxonomy — once on the
//! fixture as it is, and once with transient faults injected (the fault
//! schedule is a hash of key and attempt, so no RNG is involved).
//!
//! If a change intentionally reshapes the graph (new edge kinds, a
//! deeper enrichment pass), re-derive the constants from the printed
//! values in the assertion message and say why in the commit.

use std::sync::Arc;

use trail::enrich::IngestStats;
use trail::system::TrailSystem;
use trail_ioc::{fnv1a, Fnv1a};
use trail_osint::{OsintClient, World};

const GOLDEN_NODES: usize = 22;
const GOLDEN_EDGES: usize = 43;
const GOLDEN_DEGREE_HASH: u64 = 0x1dd0_c32f_a8d2_9157;

/// Enrichment output of the fixture build: graph snapshot hash,
/// feature-row hash and the ingest taxonomy.
struct Enriched {
    graph_hash: u64,
    feature_hash: u64,
    stats: IngestStats,
}

const CLEAN: Enriched = Enriched {
    graph_hash: 0x7fd1_8b23_ca82_7128,
    feature_hash: 0x3eae_3e36_33c4_3ae3,
    stats: IngestStats {
        first_order: 17,
        secondary: 3,
        edges: 43,
        linked: 4,
        missed_permanent: 1,
        missed_transient: 0,
        retried: 0,
        breaker_rejected: 0,
        dropped_unparseable: 0,
        backoff_ms: 0,
    },
};

/// Faults only add retries: every faulted query recovers within the
/// default three attempts, so the graph and features equal `CLEAN`'s.
const FAULTY: Enriched = Enriched {
    graph_hash: 0x7fd1_8b23_ca82_7128,
    feature_hash: 0x3eae_3e36_33c4_3ae3,
    stats: IngestStats {
        first_order: 17,
        secondary: 3,
        edges: 43,
        linked: 4,
        missed_permanent: 1,
        missed_transient: 0,
        retried: 4,
        breaker_rejected: 0,
        dropped_unparseable: 0,
        backoff_ms: 250,
    },
};

fn build() -> TrailSystem {
    build_with_faults(0.0)
}

fn build_with_faults(transient_fault_prob: f32) -> TrailSystem {
    let mut world = World::fixture();
    world.config.transient_fault_prob = transient_fault_prob;
    let client = OsintClient::new(Arc::new(world));
    let cutoff = client.world().config.cutoff_day;
    TrailSystem::build(client, cutoff)
}

fn enriched(sys: &TrailSystem) -> Enriched {
    let mut features = Fnv1a::new();
    for (node, row) in sys.tkg.features_since(0) {
        features.write(&(node.index() as u64).to_le_bytes());
        features.write(&row.fingerprint().to_le_bytes());
    }
    Enriched {
        graph_hash: fnv1a(&trail_graph::persist::to_bytes(&sys.tkg.graph)),
        feature_hash: features.finish(),
        stats: sys.ingest_stats.clone(),
    }
}

fn assert_enriched(transient_fault_prob: f32, want: &Enriched) {
    let got = enriched(&build_with_faults(transient_fault_prob));
    assert_eq!(
        (got.graph_hash, got.feature_hash, &got.stats),
        (want.graph_hash, want.feature_hash, &want.stats),
        "enrichment drifted at transient_fault_prob={transient_fault_prob}: \
         graph_hash={:#018x} feature_hash={:#018x} stats={:?}",
        got.graph_hash,
        got.feature_hash,
        got.stats
    );
}

fn fingerprint(sys: &TrailSystem) -> (usize, usize, u64) {
    let mut degrees: Vec<usize> = sys
        .tkg
        .graph
        .iter_nodes()
        .map(|(id, _)| sys.tkg.graph.degree(id))
        .collect();
    degrees.sort_unstable();
    let joined = degrees
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    (
        sys.tkg.graph.node_count(),
        sys.tkg.graph.edge_count(),
        fnv1a(&joined),
    )
}

#[test]
fn fixture_tkg_matches_committed_fingerprint() {
    let sys = build();
    let (nodes, edges, degree_hash) = fingerprint(&sys);
    assert_eq!(
        (nodes, edges, degree_hash),
        (GOLDEN_NODES, GOLDEN_EDGES, GOLDEN_DEGREE_HASH),
        "TKG fingerprint drifted: nodes={nodes} edges={edges} degree_hash={degree_hash:#018x} \
         (committed: nodes={GOLDEN_NODES} edges={GOLDEN_EDGES} hash={GOLDEN_DEGREE_HASH:#018x})"
    );
}

#[test]
fn fixture_enrichment_matches_committed_bits() {
    assert_enriched(0.0, &CLEAN);
}

#[test]
fn faulty_fixture_enrichment_matches_committed_bits() {
    assert_enriched(0.3, &FAULTY);
}

#[test]
fn fixture_build_is_reproducible() {
    let a = fingerprint(&build());
    let b = fingerprint(&build());
    assert_eq!(a, b, "two builds of the fixture world disagree");
}

#[test]
fn fixture_events_all_collect() {
    let sys = build();
    // All six fixture reports resolve (tags are canonical names or
    // known aliases) and survive collection; the one junk indicator is
    // rejected without dropping its event.
    assert_eq!(sys.tkg.events.len(), 6);
    assert_eq!(sys.collect_stats.kept, 6);
    assert!(
        sys.collect_stats.rejected_indicators >= 1,
        "junk indicator was accepted"
    );
    // Cross-event reuse in the fixture keeps the graph connected
    // beyond per-event stars.
    assert!(
        sys.ingest_stats.linked > 0,
        "no depth-2 links in the fixture world"
    );
}
