//! Live re-freeze + zero-downtime hot swap under concurrent load —
//! the serving half of the PR 9 acceptance gate.
//!
//! One growing [`StreamRuntime`] is frozen twice at different points
//! (`ServeBundle::refreeze`), producing two genuinely different
//! bundles. A [`ServeRuntime`] starts on the first, and two installs
//! of the second land *while worker threads are handling queries*.
//! The drill then proves the three swap invariants:
//!
//! * **pinning** — every response is stamped with exactly one
//!   generation, and its ranking is bitwise what a fresh runtime over
//!   that generation's bundle produces for the same query: the ranking
//!   is a pure function of `(generation, query)`, never a blend of
//!   old graph and new weights;
//! * **zero downtime** — a free-running thread hammers the runtime
//!   across both swap boundaries without ever seeing a failure or a
//!   generation it can't explain;
//! * **accounting** — the serve counter tree
//!   (`issued == admitted + rejected`, `admitted == completed +
//!   failed`) and the per-generation completion ledger
//!   (`Σ generation_stats == completed`) reconcile *exactly* across
//!   ≥ 2 swaps, including completions on retired generations.
//!
//! The drill lives in one `#[test]` because the serve counters are
//! process-global; every test here holds `obs_lock`. The other tests
//! pin what one publish (`refreeze`) holds: a bundle equal to its own
//! byte round trip, codes equal to a full encode of the grown graph, a
//! graph copy that later pushes leave alone, and a feature write order
//! that names exactly what enrichment featured since the last publish.

mod common;

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use common::obs_lock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use trail::attribute::GnnEvalConfig;
use trail::embed::{compute_codes_with, train_autoencoders_with_scalers, SparseScaler};
use trail::longitudinal::StudyConfig;
use trail::stream::{AsofPolicy, StreamConfig, StreamRuntime};
use trail::system::TrailSystem;
use trail_gnn::{FineTune, TrainConfig};
use trail_graph::persist;
use trail_ioc::report::RawReport;
use trail_ioc::types::IocKind;
use trail_linalg::Matrix;
use trail_ml::nn::autoencoder::{Autoencoder, AutoencoderConfig};
use trail_osint::{CircuitBreaker, OsintClient, World, WorldConfig, DAYS_PER_MONTH};
use trail_serve::{
    loadgen, LoadMix, Outcome, Query, QueryLimits, RuntimeConfig, ServeBundle, ServeRuntime,
};

const WORLD_SEED: u64 = 123;
const RNG_SEED: u64 = 7;
const WORKERS: usize = 4;
const PHASES: usize = 3;
const PER_PHASE: usize = 32;

fn study_cfg() -> StudyConfig {
    StudyConfig {
        months: 2,
        gnn_layers: 2,
        gnn: GnnEvalConfig {
            hidden: 12,
            train: TrainConfig {
                lr: 0.02,
                epochs: 15,
                patience: 0,
            },
            val_fraction: 0.0,
            l2_normalize: true,
            label_visible_fraction: 0.5,
            sampled_neighbor_cap: None,
        },
        ae: AutoencoderConfig {
            hidden: 16,
            code: 6,
            epochs: 1,
            batch_size: 64,
            lr: 1e-3,
        },
        fine_tune: FineTune {
            lr: 0.01,
            epochs: 3,
        },
    }
}

/// The base system over the tiny world plus its report schedule.
fn base_system() -> (TrailSystem, Vec<RawReport>) {
    let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(WORLD_SEED))));
    let cutoff = client.world().config.cutoff_day;
    let horizon = client.world().config.horizon_day();
    let schedule = client.stream_reports(cutoff, horizon);
    (TrailSystem::build(client, cutoff), schedule)
}

/// A streaming runtime over the tiny world plus its report schedule.
fn stream_runtime() -> (StreamRuntime, Vec<RawReport>) {
    let (sys, schedule) = base_system();
    let cutoff = sys.asof_day;
    let cfg = StreamConfig {
        study: study_cfg(),
        asof: AsofPolicy::WindowEnd {
            origin: cutoff,
            stride: DAYS_PER_MONTH,
        },
        tick_every: Some(4),
        budget_us: u64::MAX,
    };
    (
        StreamRuntime::new(StdRng::seed_from_u64(RNG_SEED), sys, cfg),
        schedule,
    )
}

fn serve_runtime(bundle: &Arc<ServeBundle>) -> ServeRuntime {
    ServeRuntime::new(
        Arc::clone(bundle),
        Arc::new(CircuitBreaker::default()),
        RuntimeConfig {
            replicas: 8,
            limits: QueryLimits::default(),
        },
    )
}

/// The bitwise-expected outcome of every query against one bundle,
/// computed sequentially on a throwaway runtime.
fn expected_outcomes(bundle: &Arc<ServeBundle>, queries: &[Query]) -> Vec<Outcome> {
    let rt = serve_runtime(bundle);
    queries.iter().map(|q| rt.handle(q).outcome).collect()
}

#[test]
fn hot_swap_under_concurrent_load_is_pinned_deterministic_and_reconciled() {
    let _g = obs_lock();

    // Grow one stream, freezing it mid-flight and again at the end —
    // the live refreeze path, not a from-scratch retrain.
    let (mut rt, schedule) = stream_runtime();
    let half = schedule.len() / 2;
    rt.push_batch(&schedule[..half]);
    let bundle_a = Arc::new(ServeBundle::refreeze(&mut rt).expect("refreeze A"));
    rt.push_batch(&schedule[half..]);
    rt.finish();
    let bundle_b = ServeBundle::refreeze(&mut rt).expect("refreeze B");
    assert_ne!(
        bundle_a.to_bytes(),
        bundle_b.to_bytes(),
        "the stream grew between freezes; the bundles must differ"
    );
    // The refrozen bundle survives the wire format bit for bit, so the
    // install path can serve a disk-loaded copy.
    let bundle_b = Arc::new(ServeBundle::from_bytes(&bundle_b.to_bytes()).expect("round-trip"));

    // Query mix drawn from bundle A's graph: every IOC is known to A,
    // and the stream only ever grows the TKG, so known to B too. No
    // unknowns/poison — any Failed or Rejected below is a real bug.
    let runtime = serve_runtime(&bundle_a);
    let mix = LoadMix {
        queries: PHASES * PER_PHASE,
        iocs_per_query: 4,
        unknown_fraction: 0.0,
        poison_fraction: 0.0,
        seed: 0x005e_12e5,
    };
    let queries = loadgen::generate(&runtime, &mix);
    assert_eq!(queries.len(), PHASES * PER_PHASE);

    // Ground truth per bundle, before the counter snapshot so the
    // throwaway runtimes stay out of the reconciliation below.
    let expected_a = expected_outcomes(&bundle_a, &queries);
    let expected_b = expected_outcomes(&bundle_b, &queries);
    assert_ne!(
        expected_a, expected_b,
        "different bundles must rank differently somewhere"
    );
    let expect_for = |generation: u64, idx: usize| -> &Outcome {
        if generation == 0 {
            &expected_a[idx]
        } else {
            &expected_b[idx]
        }
    };

    let before = trail_obs::snapshot();

    // Phase barriers make generation coverage deterministic: phase 0
    // runs wholly on gen 0, a swap lands, phase 1 wholly on gen 1,
    // another swap, phase 2 on gen 2. A free-running thread (no
    // barriers) additionally drives traffic *through* both swap
    // boundaries.
    let ready = Barrier::new(WORKERS + 1);
    let resume = Barrier::new(WORKERS + 1);
    let mut phased: Vec<(usize, trail_serve::Response)> = Vec::new();
    let mut free: Vec<(usize, trail_serve::Response)> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let runtime = &runtime;
            let queries = &queries;
            let ready = &ready;
            let resume = &resume;
            handles.push(s.spawn(move || {
                let mut out = Vec::new();
                let per_worker = PER_PHASE / WORKERS;
                for p in 0..PHASES {
                    let lo = p * PER_PHASE + w * per_worker;
                    for (idx, query) in queries.iter().enumerate().skip(lo).take(per_worker) {
                        out.push((idx, runtime.handle(query)));
                    }
                    ready.wait();
                    resume.wait();
                }
                out
            }));
        }
        let free_handle = s.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..2 {
                for (idx, q) in queries.iter().enumerate() {
                    out.push((idx, runtime.handle(q)));
                }
            }
            out
        });
        for p in 0..PHASES {
            ready.wait();
            if p + 1 < PHASES {
                let gen = runtime.install(Arc::clone(&bundle_b));
                assert_eq!(gen, p as u64 + 1, "installs are numbered monotonically");
            }
            resume.wait();
        }
        for h in handles {
            phased.extend(h.join().expect("worker"));
        }
        free.extend(free_handle.join().expect("free-runner"));
    });

    // Pinning + purity: each phased response ran wholly inside one
    // swap epoch, so its generation is known a priori...
    assert_eq!(phased.len(), PHASES * PER_PHASE);
    for (idx, resp) in &phased {
        let phase = idx / PER_PHASE;
        let want_gen = if phase == 0 { 0 } else { phase as u64 };
        assert_eq!(resp.generation, want_gen, "query {idx} of phase {phase}");
        assert_eq!(
            &resp.outcome,
            expect_for(resp.generation, *idx),
            "query {idx}"
        );
    }
    // ...while the free-runner's epoch is whatever the race produced —
    // but the stamped generation must fully explain the ranking.
    for (idx, resp) in &free {
        assert!(
            resp.generation <= 2,
            "impossible generation {}",
            resp.generation
        );
        assert_eq!(
            &resp.outcome,
            expect_for(resp.generation, *idx),
            "free-running query {idx} on generation {}: ranking is not a pure \
             function of (generation, query)",
            resp.generation
        );
    }

    // Accounting: the counter tree reconciles exactly across both
    // swaps, with zero losses — nothing was shed or failed while the
    // bundle slot flipped under live traffic.
    let total = (phased.len() + free.len()) as u64;
    let d = trail_obs::snapshot().delta_since(&before);
    assert_eq!(d.counter("serve.issued"), total);
    assert_eq!(d.counter("serve.rejected"), 0, "swap must not shed traffic");
    assert_eq!(d.counter("serve.failed"), 0);
    assert_eq!(
        d.counter("serve.issued"),
        d.counter("serve.admitted") + d.counter("serve.rejected")
    );
    assert_eq!(
        d.counter("serve.admitted"),
        d.counter("serve.completed") + d.counter("serve.failed")
    );
    assert_eq!(d.counter("serve.swaps"), 2);
    assert_eq!(runtime.generation(), 2);

    // Per-generation ledger: retired generation 0 keeps its count, and
    // the splits sum to the global completion counter exactly.
    let stats = runtime.generation_stats();
    assert_eq!(
        stats.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    let per_gen: u64 = stats.iter().map(|(_, n)| *n).sum();
    assert_eq!(per_gen, d.counter("serve.completed"));
    assert!(
        stats[0].1 >= PER_PHASE as u64,
        "phase 0 completed on generation 0"
    );
    assert!(
        stats[2].1 >= PER_PHASE as u64,
        "phase 2 completed on generation 2"
    );

    // And the slot now serves B: a fresh pin sees the new bundle.
    assert_eq!(runtime.bundle().to_bytes(), bundle_b.to_bytes());
}

/// `ServeBundle::freeze` clones the live graph instead of round-tripping
/// it through TKG2. At several points of a stream grown over many ticks,
/// the frozen bundle must still encode to the bytes of its own decoded
/// copy, and the two must answer every query identically.
#[test]
fn frozen_bundle_equals_its_byte_round_trip() {
    let _g = obs_lock();
    let (mut rt, schedule) = stream_runtime();
    let mut ticks_before = 0;
    for part in schedule.chunks(schedule.len().div_ceil(3)) {
        rt.push_batch(part);
        assert!(rt.ticks_fired() > ticks_before, "each part spans ticks");
        ticks_before = rt.ticks_fired();
        let frozen = ServeBundle::refreeze(&mut rt).expect("refreeze");
        let bytes = frozen.to_bytes();
        let loaded = Arc::new(ServeBundle::from_bytes(&bytes).expect("round-trip"));
        assert_eq!(
            loaded.to_bytes(),
            bytes,
            "freeze == from_bytes(to_bytes(freeze))"
        );

        let mix = LoadMix {
            queries: 48,
            iocs_per_query: 3,
            unknown_fraction: 0.1,
            poison_fraction: 0.0,
            seed: 0x0b0b,
        };
        let queries = loadgen::generate(&serve_runtime(&loaded), &mix);
        let mut models = (frozen.instantiate_model(), loaded.instantiate_model());
        let limits = QueryLimits::default();
        let bits = |r: &[(u16, f32)]| r.iter().map(|&(c, s)| (c, s.to_bits())).collect::<Vec<_>>();
        for q in &queries {
            let a = frozen.attribute(&mut models.0, &q.iocs, &limits);
            let b = loaded.attribute(&mut models.1, &q.iocs, &limits);
            assert_eq!(bits(&a.ranked), bits(&b.ranked), "query {:?}", q.iocs);
            assert_eq!(a, b);
        }
    }
}

/// The encoders and base scalers a runtime from `stream_runtime` trains
/// first from its RNG, retrained on an equal base system.
fn base_encoders() -> (Vec<Autoencoder>, Vec<SparseScaler>) {
    let (sys, _) = base_system();
    let mut rng = StdRng::seed_from_u64(RNG_SEED);
    let (_, encoders, scalers) =
        train_autoencoders_with_scalers(&mut rng, &sys.tkg, &study_cfg().ae);
    (encoders, scalers)
}

/// A publish encodes only what the stream added since the last one, and
/// the codes it freezes are still bitwise those of a full encode of the
/// grown graph, at every publish.
#[test]
fn published_codes_equal_a_full_encode_at_every_publish() {
    let _g = obs_lock();
    let (mut rt, schedule) = stream_runtime();
    let (encoders, scalers) = base_encoders();
    let batch = study_cfg().ae.batch_size;
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for part in schedule.chunks(schedule.len().div_ceil(4)) {
        rt.push_batch(part);
        let frozen = rt.freeze_fresh();
        let full = compute_codes_with(&rt.system().tkg, &encoders, &scalers, batch);
        assert_eq!(frozen.codes.shape(), full.codes.shape());
        assert_eq!(bits(&frozen.codes), bits(&full.codes));
    }
}

/// Publishing twice with nothing pushed between gives the same bundle:
/// the second catch-up has nothing to fold in.
#[test]
fn back_to_back_publishes_give_the_same_bundle() {
    let _g = obs_lock();
    let (mut rt, schedule) = stream_runtime();
    rt.push_batch(&schedule[..schedule.len() / 2]);
    let first = ServeBundle::refreeze(&mut rt).expect("refreeze");
    let second = ServeBundle::refreeze(&mut rt).expect("refreeze");
    assert_eq!(first.to_bytes(), second.to_bytes());
}

/// A frozen bundle holds a copy of the graph as it was: what the stream
/// ingests after the freeze changes neither its graph nor its bytes.
#[test]
fn frozen_bundle_is_unchanged_by_later_pushes() {
    let _g = obs_lock();
    let (mut rt, schedule) = stream_runtime();
    let half = schedule.len() / 2;
    rt.push_batch(&schedule[..half]);
    let frozen = rt.freeze_fresh();
    let bundle = ServeBundle::freeze(&rt.system().tkg, &frozen).expect("freeze");
    assert_eq!(
        persist::to_bytes(bundle.graph()),
        persist::to_bytes(&rt.system().tkg.graph),
        "the bundle holds the live graph"
    );
    let bytes = bundle.to_bytes();
    rt.push_batch(&schedule[half..]);
    assert!(rt.system().tkg.graph.node_count() > bundle.graph().node_count());
    assert_eq!(bundle.to_bytes(), bytes);
}

/// The feature write order names every featured node exactly once, and
/// the writes since a point are exactly the nodes enrichment featured
/// since, whenever their nodes were created.
#[test]
fn feature_write_order_follows_enrichment() {
    let _g = obs_lock();
    let featured = |tkg: &trail::tkg::Tkg| -> BTreeSet<usize> {
        IocKind::ALL
            .iter()
            .flat_map(|&k| tkg.featured_nodes(k))
            .map(|(id, _)| id.index())
            .collect()
    };
    let written = |tkg: &trail::tkg::Tkg, from: usize| -> Vec<usize> {
        tkg.features_since(from).map(|(id, _)| id.index()).collect()
    };
    let (mut rt, schedule) = stream_runtime();
    for part in schedule.chunks(schedule.len().div_ceil(3)) {
        let tkg = &rt.system().tkg;
        let (before, writes, nodes) =
            (featured(tkg), written(tkg, 0).len(), tkg.graph.node_count());
        assert_eq!(writes, before.len(), "one write per featured node");
        rt.push_batch(part);
        let tkg = &rt.system().tkg;
        let since = written(tkg, writes);
        let new: BTreeSet<usize> = since.iter().copied().collect();
        assert_eq!(new.len(), since.len(), "no node is written twice");
        let after = featured(tkg);
        assert_eq!(new, &after - &before);
        assert!(
            new.iter().any(|&n| n >= nodes),
            "the part featured new nodes"
        );
    }
}
