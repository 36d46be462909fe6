//! Differential tests proving the streaming runtime equivalent to
//! batch ingestion — the acceptance gate of the streaming subsystem.
//!
//! Every test here compares two (or more) executions that consume the
//! same reports through different schedules and asserts *bitwise*
//! agreement: TKG fingerprints, CSR bytes (via `PartialEq`), model
//! weight fingerprints, per-tick result series, and `StudyOutput`s.
//! The comparisons are exact — no tolerances — because the streaming
//! design claims determinism, not approximation:
//!
//! * stream == stream across micro-batch partitions {1, 7, 64},
//!   hand-called ticks and arbitrary random partitions (proptest),
//!   all on the whole-batch bits pinned in `WHOLE_BATCH_BITS`;
//! * stream == the batch system path (`TrailSystem::ingest_window`);
//! * monthly-ticked stream == the full-rebuild study oracle
//!   (`tests/common/study_oracle.rs`), output for output;
//! * crash mid-stream + replay == uninterrupted run, under the PR 4
//!   chaos harness (breaker-armed client, 55 % transient faults);
//! * the latency-budget ledger reconciles exactly with the obs
//!   counters for any partition and budget (proptest).
//!
//! Every runtime bumps the process-global `stream.*` counters, so
//! every test here holds `obs_lock` for its whole run.

mod common;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use common::study_oracle::oracle_study;
use common::{chaos_client, obs_lock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use trail::attribute::GnnEvalConfig;
use trail::longitudinal::StudyConfig;
use trail::stream::{tkg_fingerprint, AsofPolicy, StreamConfig, StreamRuntime};
use trail::system::TrailSystem;
use trail_gnn::{FineTune, TrainConfig};
use trail_ioc::report::RawReport;
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::{ChaosPlan, OsintClient, World, WorldConfig, DAYS_PER_MONTH};

const WORLD_SEED: u64 = 123;
const RNG_SEED: u64 = 7;

/// The whole-batch baseline's TKG fingerprint, model fingerprint and
/// tick count. The world and the models are drawn through the in-repo
/// `rand` stand-in (xoshiro256++ seeded through splitmix64), so these
/// are that generator's bits. Re-pin only for a change that means to
/// move the graph or the model.
const WHOLE_BATCH_BITS: (u64, u64, usize) = (0x7d2f_72f5_78a5_5e6f, 0x462c_98ea_bf5e_bbb7, 3);

fn tiny_client(world_seed: u64) -> OsintClient {
    OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(world_seed))))
}

/// The same hyper-parameters the incremental-study suite pins, so the
/// stream-vs-study comparison runs against a known-good batch config.
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

fn stream_cfg(cutoff: u32, tick_every: Option<usize>, budget_us: u64) -> StreamConfig {
    StreamConfig {
        study: study_cfg(),
        asof: AsofPolicy::WindowEnd {
            origin: cutoff,
            stride: DAYS_PER_MONTH,
        },
        tick_every,
        budget_us,
    }
}

/// Build a runtime over `client`'s world plus the full post-cutoff
/// report schedule in canonical arrival order.
fn runtime_and_schedule(
    client: OsintClient,
    tick_every: Option<usize>,
    budget_us: u64,
) -> (StreamRuntime, Vec<RawReport>, u32) {
    let cutoff = client.world().config.cutoff_day;
    let horizon = client.world().config.horizon_day();
    let schedule = client.stream_reports(cutoff, horizon);
    let sys = TrailSystem::build(client, cutoff);
    let cfg = stream_cfg(cutoff, tick_every, budget_us);
    (
        StreamRuntime::new(StdRng::seed_from_u64(RNG_SEED), sys, cfg),
        schedule,
        cutoff,
    )
}

/// Push `schedule` split into contiguous chunks drawn cyclically from
/// `sizes`, then drain with a final tick.
fn run_partitioned(rt: &mut StreamRuntime, schedule: &[RawReport], sizes: &[usize]) {
    let mut i = 0;
    let mut s = 0;
    while i < schedule.len() {
        let k = sizes[s % sizes.len()].max(1).min(schedule.len() - i);
        rt.push_batch(&schedule[i..i + k]);
        i += k;
        s += 1;
    }
    rt.finish();
}

/// The everything-at-once baseline every partition must match. Cached:
/// proptest cases and the micro-batch test compare against one run.
fn whole_batch_baseline() -> &'static (u64, u64, usize) {
    static BASELINE: OnceLock<(u64, u64, usize)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (mut rt, schedule, _) =
            runtime_and_schedule(tiny_client(WORLD_SEED), Some(5), u64::MAX);
        rt.push_batch(&schedule);
        rt.finish();
        (
            rt.tkg_fingerprint(),
            rt.model_fingerprint(),
            rt.tick_reports().len(),
        )
    })
}

/// Acceptance criterion: streaming at micro-batch sizes 1, 7 and 64
/// produces a TKG, model state, tick series and ledger bitwise-equal
/// to pushing the whole schedule as one batch — with an automatic
/// every-5-events tick cadence, so several delta-merge/fine-tune
/// cycles happen mid-stream. One more input has no cadence: events
/// are pushed one at a time and `tick()` is called by hand every 5
/// pending events, which must fire the same ticks as the automatic
/// trigger. Last, the whole-batch baseline is held to
/// `WHOLE_BATCH_BITS`.
#[test]
fn stream_equals_batch_at_micro_batch_sizes_1_7_64() {
    let _g = obs_lock();
    let (mut base, schedule, _) = runtime_and_schedule(tiny_client(WORLD_SEED), Some(5), u64::MAX);
    assert!(
        schedule.len() >= 10,
        "world too small to exercise partitioning"
    );
    base.push_batch(&schedule);
    base.finish();

    for k in [Some(1usize), Some(7), Some(64), None] {
        let tick_every = k.map(|_| 5);
        let (mut rt, schedule_k, _) =
            runtime_and_schedule(tiny_client(WORLD_SEED), tick_every, u64::MAX);
        assert_eq!(
            schedule_k, schedule,
            "same world must emit the same schedule"
        );
        match k {
            Some(k) => run_partitioned(&mut rt, &schedule_k, &[k]),
            None => {
                for r in &schedule_k {
                    rt.push(r);
                    if rt.pending_events() >= 5 {
                        rt.tick();
                    }
                }
                rt.finish();
            }
        }
        let k = k.map_or_else(
            || "manual ticks".to_owned(),
            |k| format!("micro-batch size {k}"),
        );

        assert_eq!(
            rt.tkg_fingerprint(),
            base.tkg_fingerprint(),
            "TKG fingerprint diverged at {k}"
        );
        assert_eq!(
            rt.model_fingerprint(),
            base.model_fingerprint(),
            "model state diverged at {k}"
        );
        assert_eq!(
            rt.tick_reports(),
            base.tick_reports(),
            "tick series diverged at {k}"
        );
        assert_eq!(rt.ledger(), base.ledger(), "ledger diverged at {k}");
        assert_eq!(rt.collect_stats(), base.collect_stats());
        assert_eq!(rt.ingest_stats(), base.ingest_stats());
        // CSR bytes, not just fingerprints: the frozen delta-merged CSR
        // must equal the baseline's *and* a from-scratch rebuild.
        assert_eq!(
            rt.frozen_csr(),
            base.frozen_csr(),
            "frozen CSR diverged at {k}"
        );
        assert_eq!(
            *rt.frozen_csr(),
            rt.system().tkg.csr(),
            "delta-merged CSR differs from a full rebuild at {k}"
        );
    }
    // Last, so that moved bits still show every comparison above held.
    let bits = *whole_batch_baseline();
    assert_eq!(
        bits, WHOLE_BATCH_BITS,
        "whole-batch bits moved: ({:#018x}, {:#018x}, {})",
        bits.0, bits.1, bits.2
    );
}

/// The streamed TKG equals the batch system path: driving
/// `TrailSystem::ingest_window` month by month builds byte-for-byte
/// the same graph as pushing each month's reports one at a time with
/// the window-end as-of policy.
#[test]
fn streamed_tkg_matches_batch_ingest_window() {
    let _g = obs_lock();
    let client = tiny_client(WORLD_SEED);
    let cutoff = client.world().config.cutoff_day;
    let months = client.world().config.study_months;
    let mut batch_sys = TrailSystem::build(client, cutoff);
    for m in 0..months {
        let lo = cutoff + m * DAYS_PER_MONTH;
        batch_sys.ingest_window(lo, lo + DAYS_PER_MONTH);
    }

    let (mut rt, _, _) = runtime_and_schedule(tiny_client(WORLD_SEED), None, u64::MAX);
    for m in 0..months {
        let lo = cutoff + m * DAYS_PER_MONTH;
        let window = rt.system().client.stream_reports(lo, lo + DAYS_PER_MONTH);
        for r in &window {
            rt.push(r);
        }
        rt.tick();
    }

    let streamed = &rt.system().tkg;
    assert_eq!(
        streamed.graph.node_count(),
        batch_sys.tkg.graph.node_count()
    );
    assert_eq!(
        streamed.graph.edge_count(),
        batch_sys.tkg.graph.edge_count()
    );
    assert_eq!(
        streamed.csr(),
        batch_sys.tkg.csr(),
        "streamed CSR != batch CSR"
    );
    assert_eq!(tkg_fingerprint(streamed), tkg_fingerprint(&batch_sys.tkg));
    assert_eq!(
        *rt.frozen_csr(),
        batch_sys.tkg.csr(),
        "frozen merge chain != batch rebuild"
    );
    assert_eq!(&rt.system().ingest_stats, &batch_sys.ingest_stats);
    assert_eq!(rt.system().asof_day, batch_sys.asof_day);
}

/// Deep batch equivalence: a stream ticked at month boundaries
/// converts into a `StudyOutput` bitwise-identical to the full-rebuild
/// study oracle over the same world, config and RNG seed — accuracies,
/// confusion matrix, ingest taxonomy, everything.
#[test]
fn monthly_ticked_stream_reproduces_study_output_bitwise() {
    let _g = obs_lock();
    let cfg = study_cfg();
    let client = tiny_client(WORLD_SEED);
    let cutoff = client.world().config.cutoff_day;
    let sys = TrailSystem::build(client, cutoff);
    let batch = oracle_study(StdRng::seed_from_u64(RNG_SEED), sys, &cfg);

    let (mut rt, _, _) = runtime_and_schedule(tiny_client(WORLD_SEED), None, u64::MAX);
    for m in 0..cfg.months {
        let lo = cutoff + m * DAYS_PER_MONTH;
        let window = rt.system().client.stream_reports(lo, lo + DAYS_PER_MONTH);
        rt.push_batch(&window);
        rt.tick();
    }
    let streamed = rt.into_study_output();

    assert_eq!(
        streamed, batch,
        "streamed study output != batch study output"
    );
}

/// Kill-and-resume drill on the streaming path, under the chaos
/// harness (seed 1: survivable feed, 55 % transient faults, breaker
/// armed). The stream's recovery model is event-sourced replay — the
/// feed is the durable log — so "resume" is: fresh runtime, same seed,
/// replay the full schedule. The drill kills mid-stream at each of the
/// plan's kill points and checks the replayed run is bitwise-identical
/// to one that never crashed.
#[test]
fn kill_and_resume_replay_under_chaos_is_bitwise_identical() {
    let _g = obs_lock();
    let plan = ChaosPlan::from_seed(1);
    assert!(!plan.feed_dead, "drill needs a survivable feed");

    let run_full = || {
        let (mut rt, schedule, _) =
            runtime_and_schedule(chaos_client(&plan, WORLD_SEED), Some(4), u64::MAX);
        run_partitioned(&mut rt, &schedule, &[3]);
        rt
    };
    let uninterrupted = run_full();

    for &kill_at in &plan.kill_windows {
        // Crash: push only a prefix, then abandon the runtime (drop =
        // power loss; no checkpoint exists for the stream by design).
        {
            let (mut rt, schedule, _) =
                runtime_and_schedule(chaos_client(&plan, WORLD_SEED), Some(4), u64::MAX);
            let cut = (kill_at as usize + 1).min(schedule.len());
            rt.push_batch(&schedule[..cut]);
            // dropped here, mid-stream, ticks possibly half-consumed
        }
        // Resume: replay the whole feed from scratch.
        let replayed = run_full();
        assert_eq!(
            replayed.tkg_fingerprint(),
            uninterrupted.tkg_fingerprint(),
            "replay after kill point {kill_at} diverged (TKG)"
        );
        assert_eq!(
            replayed.model_fingerprint(),
            uninterrupted.model_fingerprint(),
            "replay after kill point {kill_at} diverged (model)"
        );
        assert_eq!(replayed.tick_reports(), uninterrupted.tick_reports());
        assert_eq!(replayed.ledger(), uninterrupted.ledger());
    }
}

/// Latency-budget enforcement is surfacing, not shedding: a zero
/// budget flags every event as exceeded, yet the graph, model and tick
/// series stay bitwise-identical to an unlimited-budget run.
#[test]
fn budget_pressure_never_changes_the_graph_or_model() {
    let _g = obs_lock();
    let (mut relaxed, schedule, _) =
        runtime_and_schedule(tiny_client(WORLD_SEED), Some(5), u64::MAX);
    run_partitioned(&mut relaxed, &schedule, &[2]);

    let (mut strained, schedule2, _) = runtime_and_schedule(tiny_client(WORLD_SEED), Some(5), 0);
    run_partitioned(&mut strained, &schedule2, &[2]);

    let l = strained.ledger();
    assert_eq!(l.exceeded, l.issued, "zero budget must flag every event");
    assert_eq!(l.within_budget, 0);
    assert!(l.reconciles());
    assert_eq!(strained.tkg_fingerprint(), relaxed.tkg_fingerprint());
    assert_eq!(strained.model_fingerprint(), relaxed.model_fingerprint());
    assert_eq!(strained.tick_reports(), relaxed.tick_reports());
    assert_eq!(l.attributed, relaxed.ledger().attributed);
    assert_eq!(l.dropped, relaxed.ledger().dropped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any partition of the stream into contiguous micro-batches of
    /// arbitrary sizes converges to the whole-batch TKG and model
    /// fingerprints and the same tick count.
    #[test]
    fn arbitrary_partitions_converge(sizes in proptest::collection::vec(1usize..10, 1..8)) {
        let _g = obs_lock();
        let &(tkg_fp, model_fp, n_ticks) = whole_batch_baseline();
        let (mut rt, schedule, _) =
            runtime_and_schedule(tiny_client(WORLD_SEED), Some(5), u64::MAX);
        run_partitioned(&mut rt, &schedule, &sizes);
        prop_assert_eq!(rt.tkg_fingerprint(), tkg_fp, "partition {:?} diverged (TKG)", &sizes);
        prop_assert_eq!(rt.model_fingerprint(), model_fp, "partition {:?} diverged (model)", &sizes);
        prop_assert_eq!(rt.tick_reports().len(), n_ticks);
        prop_assert!(rt.ledger().reconciles());
    }

    /// Reordering arrivals *within* a micro-batch changes nothing:
    /// `push_batch` heals each batch into canonical order, so any
    /// rotation or reversal of any batch converges to the same state.
    #[test]
    fn within_batch_reordering_is_healed(
        k in 2usize..9,
        rot in 1usize..7,
        rev in any::<bool>(),
    ) {
        let _g = obs_lock();
        let &(tkg_fp, model_fp, _) = whole_batch_baseline();
        let (mut rt, schedule, _) =
            runtime_and_schedule(tiny_client(WORLD_SEED), Some(5), u64::MAX);
        let mut i = 0;
        while i < schedule.len() {
            let end = (i + k).min(schedule.len());
            let mut batch: Vec<RawReport> = schedule[i..end].to_vec();
            let len = batch.len();
            batch.rotate_left(rot % len);
            if rev {
                batch.reverse();
            }
            rt.push_batch(&batch);
            i = end;
        }
        rt.finish();
        prop_assert_eq!(rt.tkg_fingerprint(), tkg_fp, "k={} rot={} rev={}", k, rot, rev);
        prop_assert_eq!(rt.model_fingerprint(), model_fp, "k={} rot={} rev={}", k, rot, rev);
    }

    /// Under any chaos plan's transient-fault schedule, every partition
    /// of the stream converges to the same TKG fingerprint (faults are
    /// deterministic per key and attempt, so the fault schedule is part
    /// of the replayable history, not a source of divergence).
    #[test]
    fn fault_schedules_converge_across_partitions(
        plan_seed in 0u64..8,
        chunk in 1usize..8,
    ) {
        let _g = obs_lock();
        static BASELINES: OnceLock<Mutex<HashMap<u64, (u64, u64)>>> = OnceLock::new();
        let plan = ChaosPlan::from_seed(plan_seed);
        let run = |sizes: &[usize]| {
            let (mut rt, schedule, _) =
                runtime_and_schedule(chaos_client(&plan, WORLD_SEED), Some(5), u64::MAX);
            run_partitioned(&mut rt, &schedule, sizes);
            (rt.tkg_fingerprint(), rt.model_fingerprint())
        };
        let expected = {
            let mut map = BASELINES.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap();
            *map.entry(plan_seed).or_insert_with(|| run(&[usize::MAX]))
        };
        prop_assert_eq!(
            run(&[chunk]),
            expected,
            "plan {} chunk {} diverged from whole-batch run",
            plan_seed,
            chunk
        );
    }

    /// PR 3-style exact reconciliation: for any partition and any
    /// budget, `issued == within_budget + exceeded`,
    /// `issued == attributed + dropped`, and the obs counters agree
    /// with the ledger number for number.
    #[test]
    fn budget_ledger_reconciles_with_obs_counters(
        sizes in proptest::collection::vec(1usize..9, 1..6),
        budget_pick in 0usize..3,
    ) {
        let _g = obs_lock();
        let budget = [0u64, 50_000, u64::MAX][budget_pick];
        let (mut rt, schedule, _) =
            runtime_and_schedule(tiny_client(WORLD_SEED), Some(4), budget);
        run_partitioned(&mut rt, &schedule, &sizes);

        let l = rt.ledger();
        prop_assert!(l.reconciles(), "ledger does not reconcile: {:?}", l);
        prop_assert_eq!(l.issued as usize, schedule.len());
        prop_assert_eq!(trail_obs::counter_value("stream.events.issued"), l.issued);
        prop_assert_eq!(trail_obs::counter_value("stream.events.within_budget"), l.within_budget);
        prop_assert_eq!(trail_obs::counter_value("stream.events.exceeded"), l.exceeded);
        prop_assert_eq!(trail_obs::counter_value("stream.events.dropped"), l.dropped);
        prop_assert_eq!(trail_obs::counter_value("stream.ticks"), rt.tick_reports().len() as u64);
        // Every tick here covers events, so each one extracts one ball.
        let balls = trail_obs::snapshot().histogram("stream.tick_ball_nodes").map_or(0, |h| h.total());
        prop_assert_eq!(balls, u64::from(rt.ticks_fired()), "one ball per fired tick");
        // Attribution accounting closes against the TKG itself: every
        // attributed event is an event node ingested after the cutoff.
        prop_assert_eq!(
            l.attributed as usize + rt.pending_events(),
            l.attributed as usize,
            "finish() left events pending"
        );
    }
}
