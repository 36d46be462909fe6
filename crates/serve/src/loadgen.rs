//! Deterministic seeded load generation and the per-batch outcome
//! ledger for replaying it.
//!
//! The generator samples a fixed query mix — known IOCs drawn from the
//! bundle's graph, unknown (unattributable) IOCs, and optional poison
//! requests for breaker drills — entirely from a seeded RNG, so the
//! same `(bundle, mix)` always produces the same query list. Replaying
//! that list at several concurrency levels and fingerprinting the
//! responses is how `tests/serve_test.rs` proves rankings are
//! independent of the worker count; `perfbench/` draws its serving
//! load from the same generator and times it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trail_graph::NodeKind;
use trail_ioc::{fnv1a, IocKey, IocKind};

use crate::runtime::{Outcome, Query, Response, ServeRuntime};

/// Parameters of the seeded query mix.
#[derive(Debug, Clone)]
pub struct LoadMix {
    /// Total queries to generate.
    pub queries: usize,
    /// IOCs per query.
    pub iocs_per_query: usize,
    /// Probability a sampled IOC is synthetic (absent from the graph).
    pub unknown_fraction: f32,
    /// Probability a query is a poison request (fault drill).
    pub poison_fraction: f32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for LoadMix {
    fn default() -> Self {
        Self {
            queries: 256,
            iocs_per_query: 8,
            unknown_fraction: 0.2,
            poison_fraction: 0.0,
            seed: 0x005e_12e5,
        }
    }
}

/// Collect the bundle graph's IOC identities, in node order.
fn known_iocs(runtime: &ServeRuntime) -> Vec<IocKey> {
    let bundle = runtime.bundle();
    let graph = bundle.graph();
    let mut keys = Vec::new();
    for kind in IocKind::ALL {
        let nk = match kind {
            IocKind::Ip => NodeKind::Ip,
            IocKind::Url => NodeKind::Url,
            IocKind::Domain => NodeKind::Domain,
        };
        for id in graph.nodes_of_kind(nk) {
            if let Ok(key) = IocKey::parse(kind, graph.key(id)) {
                keys.push(key);
            }
        }
    }
    keys
}

/// Generate the seeded query mix against a runtime's bundle.
pub fn generate(runtime: &ServeRuntime, mix: &LoadMix) -> Vec<Query> {
    let known = known_iocs(runtime);
    assert!(!known.is_empty(), "bundle has no IOC nodes to query");
    let mut rng = StdRng::seed_from_u64(mix.seed);
    let mut out = Vec::with_capacity(mix.queries);
    for _ in 0..mix.queries {
        if rng.gen::<f32>() < mix.poison_fraction {
            out.push(Query::poison());
            continue;
        }
        let mut iocs = Vec::with_capacity(mix.iocs_per_query);
        for _ in 0..mix.iocs_per_query.max(1) {
            if rng.gen::<f32>() < mix.unknown_fraction {
                // TEST-NET-3 addresses: syntactically valid, never in
                // the synthetic world's address plan.
                let raw = format!("203.0.113.{}", rng.gen_range(0u16..256));
                iocs.push(IocKey::parse(IocKind::Ip, &raw).expect("valid synthetic IP"));
            } else {
                iocs.push(known[rng.gen_range(0..known.len())].clone());
            }
        }
        out.push(Query::new(iocs));
    }
    out
}

/// The outcome totals and response fingerprint of one replayed batch.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests past the breaker.
    pub admitted: u64,
    /// Requests shed by the breaker.
    pub rejected: u64,
    /// Admitted requests that returned a ranking.
    pub completed: u64,
    /// Admitted requests that faulted.
    pub failed: u64,
    /// FNV-1a over every response's outcome in issue order — equal
    /// fingerprints across levels mean bitwise-identical rankings.
    pub fingerprint: u64,
    /// Whether the `trail-obs` counter deltas reconciled exactly with
    /// the totals observed in the responses.
    pub counters_reconciled: bool,
}

/// Fingerprint a response vector: outcome tags plus, for rankings,
/// every `(class, score-bits)` pair in rank order.
pub fn fingerprint(responses: &[Response]) -> u64 {
    let mut bytes = Vec::with_capacity(responses.len() * 16);
    for r in responses {
        match &r.outcome {
            Outcome::Rejected => bytes.push(1),
            Outcome::Failed(_) => bytes.push(2),
            Outcome::Ranked(a) => {
                bytes.push(0);
                bytes.extend_from_slice(&(a.matched as u32).to_le_bytes());
                bytes.extend_from_slice(&(a.members as u32).to_le_bytes());
                bytes.extend_from_slice(&(a.events as u32).to_le_bytes());
                for &(class, score) in &a.ranked {
                    bytes.extend_from_slice(&class.to_le_bytes());
                    bytes.extend_from_slice(&score.to_bits().to_le_bytes());
                }
            }
        }
    }
    fnv1a(&bytes)
}

/// Replay `queries` at one concurrency level and total the outcomes,
/// including the obs-counter reconciliation.
pub fn run_level(runtime: &ServeRuntime, queries: &[Query], concurrency: usize) -> LevelReport {
    let before = [
        trail_obs::counter_value("serve.issued"),
        trail_obs::counter_value("serve.admitted"),
        trail_obs::counter_value("serve.rejected"),
        trail_obs::counter_value("serve.completed"),
        trail_obs::counter_value("serve.failed"),
    ];
    let responses = runtime.run_batch(queries, concurrency);

    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut failed = 0u64;
    for r in &responses {
        match r.outcome {
            Outcome::Ranked(_) => completed += 1,
            Outcome::Rejected => rejected += 1,
            Outcome::Failed(_) => failed += 1,
        }
    }
    let issued = responses.len() as u64;
    let admitted = completed + failed;

    let after = [
        trail_obs::counter_value("serve.issued"),
        trail_obs::counter_value("serve.admitted"),
        trail_obs::counter_value("serve.rejected"),
        trail_obs::counter_value("serve.completed"),
        trail_obs::counter_value("serve.failed"),
    ];
    let deltas: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    let counters_reconciled = deltas == [issued, admitted, rejected, completed, failed];

    LevelReport {
        issued,
        admitted,
        rejected,
        completed,
        failed,
        fingerprint: fingerprint(&responses),
        counters_reconciled,
    }
}
