//! Deterministic chaos drills over the fault-tolerance runtime.
//!
//! Each test derives its faults from a fixed [`ChaosPlan`] seed, so
//! failures replay exactly. This file is the one checker of the
//! crash-safe study's contracts. Three seeds cover the plan space:
//!
//! * seed 1 — survivable feed (55% transient faults), kills at windows
//!   0 and 2: the kill-and-resume equivalence drill, which then hands
//!   the resume the killed study's log with a byte flipped at each of
//!   the plan's corruption offsets.
//! * seed 4 — fully dead feed: the degradation-invariant drill.
//!
//! The invariants asserted here: a dead feed degrades the TKG but
//! never wedges or corrupts the pipeline; crash-resume is
//! bitwise-exact; a damaged log is refused or recovered to the same
//! study, never resumed into another one.

mod common;

use common::{chaos_client, obs_lock, temp_dir};
use trail::attribute::GnnEvalConfig;
use trail::longitudinal::{run_resumable_study, StudyConfig};
use trail::system::TrailSystem;
use trail_gnn::{FineTune, LabelPropagation, TrainConfig};
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::ChaosPlan;

/// Study configuration small enough for an integration test while
/// still exercising every resumable stage (autoencoder, both SAGE
/// models, monthly fine-tunes). Three months so the plan's latest
/// kill window (2) is a real mid-study crash.
fn tiny_study() -> StudyConfig {
    StudyConfig {
        months: 3,
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

#[test]
fn chaos_plans_are_deterministic_and_well_formed() {
    for seed in 0..32 {
        let plan = ChaosPlan::from_seed(seed);
        assert_eq!(
            plan,
            ChaosPlan::from_seed(seed),
            "plan for seed {seed} is not a pure function"
        );
        assert!(!plan.kill_windows.is_empty());
        assert!(
            plan.kill_windows.windows(2).all(|w| w[0] < w[1]),
            "kill windows not strictly increasing for seed {seed}: {:?}",
            plan.kill_windows
        );
        assert_eq!(plan.corrupt_offsets.len(), 4);
        assert!((0.30..=1.0).contains(&plan.transient_fault_prob));
        assert!((0.05..=0.25).contains(&plan.analysis_miss_prob));
        if plan.feed_dead {
            assert_eq!(
                plan.transient_fault_prob, 1.0,
                "a dead feed faults every attempt"
            );
        }
    }
    // The specific plans the drills below rely on.
    assert!(ChaosPlan::from_seed(4).feed_dead);
    assert!(!ChaosPlan::from_seed(1).feed_dead);
    assert_eq!(ChaosPlan::from_seed(1).kill_windows, vec![0, 2]);
}

/// Degradation invariant (chaos seed 4): with a fully dead feed the
/// pipeline still completes, attribution runs on the partial TKG, and
/// the obs counters reconcile exactly with the ingest taxonomy —
/// `faults == retried + missed_transient + breaker_rejected`.
#[test]
fn dead_feed_degrades_without_wedging() {
    let _g = obs_lock();
    let plan = ChaosPlan::from_seed(4);
    assert!(plan.feed_dead);
    let client = chaos_client(&plan, 123);
    let cutoff = client.world().config.cutoff_day;
    let sys = TrailSystem::build(client, cutoff);
    let stats = &sys.ingest_stats;
    let snap = trail_obs::snapshot();

    // The pipeline completed: every report became an event node even
    // though no enrichment ever answered.
    assert!(!sys.tkg.events.is_empty(), "dead feed prevented ingestion");
    assert_eq!(
        stats.linked, 0,
        "a dead feed linked an indicator: {stats:?}"
    );
    assert_eq!(
        stats.missed_permanent, 0,
        "rejections/faults misfiled as permanent: {stats:?}"
    );
    assert!(
        stats.breaker_rejected > 0,
        "breaker never opened on a dead feed: {stats:?}"
    );

    // Exact reconciliation between the metrics registry and the
    // pipeline's own accounting.
    assert_eq!(
        snap.counter("osint.faults"),
        (stats.retried + stats.missed_transient + stats.breaker_rejected) as u64,
        "fault counter disagrees with the taxonomy: {stats:?}"
    );
    assert_eq!(
        snap.counter("osint.breaker.rejected"),
        stats.breaker_rejected as u64
    );
    assert!(snap.counter("osint.breaker.opened") >= 1);

    // Every analysis ended transient-or-rejected, so degradation is
    // exactly total.
    assert!(
        (sys.degradation() - 1.0).abs() < 1e-12,
        "degradation {}",
        sys.degradation()
    );

    // Attribution still proceeds over the partial graph.
    let csr = sys.tkg.csr();
    let lp = LabelPropagation::new(&csr, sys.tkg.n_classes());
    let mut seeds = vec![None; sys.tkg.graph.node_count()];
    for e in &sys.tkg.events {
        seeds[e.node.index()] = Some(e.apt);
    }
    let scores = lp.propagate(&seeds, 2);
    assert_eq!(
        scores.len(),
        sys.tkg.graph.node_count() * sys.tkg.n_classes()
    );
}

/// Kill-and-resume equivalence (chaos seed 1): killing the study at
/// every window boundary the plan names and resuming from its
/// write-ahead log yields a `StudyOutput` bitwise-identical to the
/// uninterrupted run — under a breaker-armed, 55%-faulty feed. A
/// resume from the killed study's log with one byte flipped at each of
/// the plan's corruption offsets returns `Err` or that same output,
/// never another study: a flip in the last segment reads as a torn
/// tail, so the resume replays the prefix before it and runs the rest.
#[test]
fn kill_and_resume_under_chaos_is_bitwise_identical() {
    let _g = obs_lock();
    let plan = ChaosPlan::from_seed(1);
    let cfg = tiny_study();
    let seed = 77;
    let cutoff = chaos_client(&plan, 123).world().config.cutoff_day;
    let resume = |dir: &std::path::Path, kill: Option<u32>| {
        run_resumable_study(chaos_client(&plan, 123), cutoff, &cfg, seed, dir, kill)
    };

    let dir_full = temp_dir("full");
    let full = resume(&dir_full, None)
        .expect("uninterrupted run")
        .expect("ran to completion");

    let dir_killed = temp_dir("killed");
    for &k in &plan.kill_windows {
        let run = resume(&dir_killed, Some(k)).expect("killed run");
        assert!(run.is_none(), "kill point {k} not taken");
    }
    // The killed study's log, kept before the resume appends to it. It
    // fits one segment, so a flip anywhere in it reads as a torn tail.
    const SEGMENT: &str = "wal-00000000.twl";
    let killed_log = std::fs::read(dir_killed.join(SEGMENT)).expect("the killed study's log");
    assert!(!killed_log.is_empty(), "the killed study logged nothing");
    assert!(!dir_killed.join("wal-00000001.twl").exists());
    let resumed = resume(&dir_killed, None)
        .expect("resumed run")
        .expect("ran to completion");

    assert_eq!(
        resumed, full,
        "resumed study diverged from the uninterrupted run"
    );

    for &off in &plan.corrupt_offsets {
        let dir = temp_dir("flipped");
        std::fs::create_dir_all(&dir).expect("create flipped dir");
        let mut bytes = killed_log.clone();
        bytes[(off % killed_log.len() as u64) as usize] ^= 0x20;
        std::fs::write(dir.join(SEGMENT), &bytes).expect("write flipped log");
        match resume(&dir, None) {
            Err(_) => {}
            Ok(out) => assert_eq!(
                out.as_ref(),
                Some(&full),
                "a log flipped at offset {off:#x} resumed into another study"
            ),
        }
        std::fs::remove_dir_all(dir).ok();
    }
    for d in [dir_full, dir_killed] {
        std::fs::remove_dir_all(d).ok();
    }
}
