//! Deterministic chaos drills over the fault-tolerance runtime.
//!
//! Each test derives its faults from a fixed [`ChaosPlan`] seed, so
//! failures replay exactly. This file is the one checker of the
//! crash-safe study's contracts. Three seeds cover the plan space:
//!
//! * seed 1 — survivable feed (55% transient faults), kills at windows
//!   0 and 2: the kill-and-resume equivalence drill, which then hands
//!   the resume a bit-flipped and a garbage checkpoint.
//! * seed 4 — fully dead feed: the degradation-invariant drill.
//! * seed 6 — survivable feed, late kill points: plan shape checks and
//!   the snapshot-corruption drill share it with the other two.
//!
//! The invariants asserted here: a dead feed degrades the TKG but
//! never wedges or corrupts the pipeline; crash-resume is
//! bitwise-exact; damaged snapshots are rejected, never loaded.

mod common;

use common::{chaos_client, obs_lock, temp_dir};
use trail::attribute::GnnEvalConfig;
use trail::checkpoint::StudyCheckpoint;
use trail::enrich::IngestStats;
use trail::longitudinal::{run_resumable_study, MonthResult, StudyConfig};
use trail::system::TrailSystem;
use trail_gnn::{FineTune, LabelPropagation, SageConfig, TrainConfig};
use trail_linalg::Matrix;
use trail_ml::metrics::ConfusionMatrix;
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
/// every window boundary the plan names and resuming from the
/// checkpoint yields a `StudyOutput` bitwise-identical to the
/// uninterrupted run — under a breaker-armed, 55%-faulty feed. A
/// resume from a damaged checkpoint then fails with `Err`.
#[test]
fn kill_and_resume_under_chaos_is_bitwise_identical() {
    let _g = obs_lock();
    let plan = ChaosPlan::from_seed(1);
    let cfg = tiny_study();
    let seed = 77;
    let cutoff = chaos_client(&plan, 123).world().config.cutoff_day;

    let dir_full = temp_dir("full");
    let full = run_resumable_study(
        chaos_client(&plan, 123),
        cutoff,
        &cfg,
        seed,
        &dir_full,
        None,
    )
    .expect("uninterrupted run")
    .expect("ran to completion");

    let dir_killed = temp_dir("killed");
    for &k in &plan.kill_windows {
        let run = run_resumable_study(
            chaos_client(&plan, 123),
            cutoff,
            &cfg,
            seed,
            &dir_killed,
            Some(k),
        )
        .expect("killed run");
        assert!(run.is_none(), "kill point {k} not taken");
    }
    let resumed = run_resumable_study(
        chaos_client(&plan, 123),
        cutoff,
        &cfg,
        seed,
        &dir_killed,
        None,
    )
    .expect("resumed run")
    .expect("ran to completion");

    assert_eq!(
        resumed, full,
        "resumed study diverged from the uninterrupted run"
    );

    // A damaged checkpoint is refused with a typed error, never a panic
    // and never a study: (a) the real checkpoint with one payload byte
    // flipped, which only the checksum can catch; (b) garbage behind
    // the TSC1 magic, which the header refuses.
    let ckpt = dir_killed.join("study.ckpt");
    let mut bytes = std::fs::read(&ckpt).expect("checkpoint written");
    bytes[100] ^= 0x40;
    std::fs::write(&ckpt, &bytes).expect("write flipped checkpoint");
    let dir_garbage = temp_dir("garbage");
    std::fs::create_dir_all(&dir_garbage).expect("create garbage dir");
    std::fs::write(
        dir_garbage.join("study.ckpt"),
        b"TSC1 this is not a valid checkpoint payload",
    )
    .expect("write garbage checkpoint");
    for (dir, case) in [(&dir_killed, "payload-flipped"), (&dir_garbage, "garbage")] {
        let run = run_resumable_study(chaos_client(&plan, 123), cutoff, &cfg, seed, dir, None);
        assert!(run.is_err(), "a {case} checkpoint was accepted: {run:?}");
    }
    for d in [dir_full, dir_killed, dir_garbage] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Snapshot-corruption drill: for every chaos seed's corruption
/// offsets, a single flipped byte — and any truncation — makes the
/// checkpoint loader return `Err`, never a panic or a silently wrong
/// study state.
#[test]
fn corruption_drill_rejects_every_damaged_snapshot() {
    let m = |r, c, v: f32| Matrix::from_vec(r, c, vec![v; r * c]).expect("test matrix");
    let ckpt = StudyCheckpoint {
        seed: 9,
        fingerprint: 0xfeed,
        next_month: 1,
        months: vec![MonthResult {
            month: 0,
            n_events: 4,
            stale_acc: 0.5,
            stale_bacc: 0.5,
            fresh_acc: 0.75,
            fresh_bacc: 0.75,
        }],
        confusion: Some(ConfusionMatrix::from_counts(vec![vec![1, 0], vec![1, 2]])),
        window_ingest: IngestStats {
            first_order: 7,
            missed_transient: 2,
            ..Default::default()
        },
        base_pairs: vec![(0, 0), (1, 1)],
        fresh_visible: vec![(0, 0), (1, 1), (2, 0)],
        sage_cfg: SageConfig::new(3, 4, 1, 2),
        stale: vec![(m(3, 2, 0.1), m(3, 2, 0.2), m(1, 2, 0.0))],
        fresh: vec![(m(3, 2, 0.3), m(3, 2, 0.4), m(1, 2, 0.5))],
        encoders: vec![vec![
            (m(3, 4, 0.1), m(1, 4, 0.0)),
            (m(4, 2, 0.1), m(1, 2, 0.0)),
            (m(2, 4, 0.1), m(1, 4, 0.0)),
            (m(4, 3, 0.1), m(1, 3, 0.0)),
        ]],
    };
    let bytes = ckpt.to_bytes();
    // The undamaged snapshot must load — otherwise the drill below
    // would pass vacuously.
    assert_eq!(
        StudyCheckpoint::from_bytes(&bytes).expect("pristine snapshot loads"),
        ckpt
    );

    for seed in [1u64, 4, 6] {
        for &off in &ChaosPlan::from_seed(seed).corrupt_offsets {
            let mut damaged = bytes.clone();
            let i = (off % damaged.len() as u64) as usize;
            damaged[i] ^= 0x20;
            assert!(
                StudyCheckpoint::from_bytes(&damaged).is_err(),
                "flipped byte {i} (seed {seed}) loaded successfully"
            );
        }
    }
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            StudyCheckpoint::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes loaded successfully"
        );
    }
}
