//! End-to-end serving integration: freeze a trained bundle from a
//! tiny world, replay one seeded query mix from 1 and 8 worker
//! threads against one shared `ServeBundle`, and require bitwise
//! identical rankings plus exact `trail-obs` counter reconciliation —
//! including through a poison-query breaker drill — and rankings
//! equal to the committed `SERVE_FINGERPRINT`.
//!
//! Everything that issues requests lives in one `#[test]` because the
//! serve counters are process-global: concurrent tests issuing requests
//! would tear each other's reconciliation windows. The radius check
//! calls the bundle directly, which bumps no counter.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use trail::attribute::GnnEvalConfig;
use trail::freeze;
use trail::system::TrailSystem;
use trail_graph::algo::bfs::k_hop;
use trail_graph::{Csr, NodeId};
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::{BreakerConfig, CircuitBreaker, OsintClient, World, WorldConfig};
use trail_serve::{loadgen, LoadMix, QueryLimits, RuntimeConfig, ServeBundle, ServeRuntime};

/// `loadgen::fingerprint` of the concurrent test's 1-thread responses:
/// every ranking of the seeded mix, bit for bit. The world and the
/// model are drawn through the in-repo `rand` stand-in (xoshiro256++
/// seeded through splitmix64), so these are that generator's bits.
/// Re-pin only for a change that means to move rankings.
const SERVE_FINGERPRINT: u64 = 0x82b6_c815_01b8_d221;

fn build(seed: u64) -> TrailSystem {
    let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(seed))));
    let cutoff = client.world().config.cutoff_day;
    TrailSystem::build(client, cutoff)
}

/// Train a `layers`-deep model on `sys` and freeze it into a bundle.
fn train_bundle(sys: &TrailSystem, seed: u64, layers: usize) -> ServeBundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let ae = AutoencoderConfig {
        hidden: 32,
        code: 8,
        epochs: 1,
        batch_size: 64,
        lr: 1e-3,
    };
    let gnn = GnnEvalConfig {
        hidden: 16,
        train: trail_gnn::TrainConfig {
            lr: 0.02,
            epochs: 15,
            patience: 0,
        },
        val_fraction: 0.1,
        l2_normalize: true,
        label_visible_fraction: 0.7,
        sampled_neighbor_cap: None,
    };
    let frozen = freeze::train_frozen(&mut rng, &sys.tkg, &ae, &gnn, layers);
    ServeBundle::freeze(&sys.tkg, &frozen).expect("freeze")
}

/// Full `repro` runs train 3-layer models while `QueryLimits` defaults
/// to 2 hops. The roots' logits read every member within the model's
/// depth, so serve walks at least that far: the default limits answer
/// exactly as a 3-hop radius does, and some balls reach past 2 hops.
#[test]
fn default_limits_walk_the_model_depth() {
    let sys = build(911);
    let bundle = Arc::new(train_bundle(&sys, 10, 3));
    let rt = ServeRuntime::new(
        Arc::clone(&bundle),
        Arc::new(CircuitBreaker::new(BreakerConfig::default())),
        RuntimeConfig::default(),
    );
    let mix = LoadMix {
        queries: 32,
        iocs_per_query: 4,
        unknown_fraction: 0.25,
        poison_fraction: 0.0,
        seed: 0xdee9,
    };
    let defaults = QueryLimits::default();
    let three_hops = QueryLimits {
        radius: 3,
        ..defaults
    };
    let csr = Csr::from_store(bundle.graph());
    let mut model = bundle.instantiate_model();
    let mut deeper = 0;
    for q in loadgen::generate(&rt, &mix) {
        let a = bundle.attribute(&mut model, &q.iocs, &defaults);
        assert_eq!(a, bundle.attribute(&mut model, &q.iocs, &three_hops));
        let roots: Vec<NodeId> = q.iocs.iter().filter_map(|k| bundle.find_ioc(k)).collect();
        let two_hop = k_hop(&csr, &roots, defaults.radius)
            .len()
            .min(defaults.max_members);
        deeper += usize::from(a.members > two_hop);
    }
    assert!(
        deeper > 0,
        "no query's ball reached past {} hops",
        defaults.radius
    );
}

#[test]
fn concurrent_serving_is_deterministic_and_counters_reconcile() {
    let sys = build(910);
    let bundle = train_bundle(&sys, 9, 2);

    // Serve from the disk-loaded copy, proving the benched path
    // (save → load → serve) preserves the frozen state bit for bit.
    let dir = std::env::temp_dir().join(format!("trail-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bundle.tsb");
    bundle.save(&path).expect("save");
    let loaded = ServeBundle::load(&path).expect("load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        bundle.to_bytes(),
        loaded.to_bytes(),
        "disk round-trip must be bitwise"
    );

    let shared = Arc::new(loaded);
    let runtime = ServeRuntime::new(
        Arc::clone(&shared),
        Arc::new(CircuitBreaker::new(BreakerConfig::default())),
        RuntimeConfig {
            replicas: 8,
            limits: QueryLimits::default(),
        },
    );
    let mix = LoadMix {
        queries: 48,
        iocs_per_query: 6,
        unknown_fraction: 0.25,
        poison_fraction: 0.0,
        seed: 0xfeed,
    };
    let queries = loadgen::generate(&runtime, &mix);

    // N identical queries from 1 thread vs 8 threads, same bundle:
    // identical rankings, and the obs counters match the issued/
    // admitted/rejected totals exactly at both widths.
    let single = loadgen::run_level(&runtime, &queries, 1);
    let wide = loadgen::run_level(&runtime, &queries, 8);
    assert!(
        single.counters_reconciled,
        "1-thread counters must reconcile"
    );
    assert!(wide.counters_reconciled, "8-thread counters must reconcile");
    assert_eq!(
        single.fingerprint, wide.fingerprint,
        "rankings depend on worker count"
    );
    assert_eq!(single.completed, queries.len() as u64);
    assert_eq!(wide.rejected, 0, "healthy runtime must not shed");

    // Response-by-response, not just the digest.
    let r1 = runtime.run_batch(&queries, 1);
    let r8 = runtime.run_batch(&queries, 8);
    assert_eq!(r1.len(), r8.len());
    for (a, b) in r1.iter().zip(&r8) {
        assert_eq!(a.outcome, b.outcome);
    }

    // Breaker drill: hair-trigger breaker plus poison queries. The
    // rejection pattern is scheduling-dependent, but the counter tree
    // must still reconcile exactly for any interleaving.
    let drill_rt = ServeRuntime::new(
        shared,
        Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_rejections: 2,
            half_open_successes: 1,
        })),
        RuntimeConfig {
            replicas: 8,
            limits: QueryLimits::default(),
        },
    );
    let drill_mix = LoadMix {
        queries: 40,
        poison_fraction: 0.25,
        seed: 0xdead,
        ..mix
    };
    let drill_queries = loadgen::generate(&drill_rt, &drill_mix);
    let drill = loadgen::run_level(&drill_rt, &drill_queries, 8);
    assert!(drill.counters_reconciled, "drill counters must reconcile");
    assert!(drill.failed > 0, "poison queries must fault");
    assert!(drill.rejected > 0, "tripped breaker must shed load");
    assert!(drill.completed > 0, "breaker must recover and serve again");
    assert_eq!(drill.issued, drill.admitted + drill.rejected);
    assert_eq!(drill.admitted, drill.completed + drill.failed);

    // Last, so that moved rankings still show every check above held.
    assert_eq!(
        single.fingerprint, SERVE_FINGERPRINT,
        "rankings moved: {:#018x}",
        single.fingerprint
    );
}
