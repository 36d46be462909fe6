//! The months-long study (paper Section VII-C, Figs. 7–8) and the
//! APT38 case study.
//!
//! Every month after the TKG build cutoff, new attributed reports
//! arrive. We evaluate two GNNs on each month's events: a *stale* model
//! frozen at the cutoff whose label view never grows, and a *fresh*
//! model that sees previous months' labels and is fine-tuned on them.
//! The paper observes the gap between the two growing ≈3.5 % per month.
//!
//! Both study entry points are thin loops over
//! [`crate::stream::StreamRuntime`], the one monthly-window engine, and
//! share its one RNG policy: the stale model is the one base model and
//! the fresh model starts as a clone of it, so the monthly gap between
//! them is paired. [`run_resumable_study`] also logs every push and
//! tick to a write-ahead log and replays it on resume; for one seed
//! both entry points produce the same [`StudyOutput`].

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trail_gnn::train::predict_events;
use trail_gnn::FineTune;
use trail_ioc::report::RawReport;
use trail_ml::metrics::ConfusionMatrix;
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::{mix64, OsintClient, DAYS_PER_MONTH};

use crate::attribute::{train_event_gnn, GnnEvalConfig};
use crate::embed::{assemble_gnn_input, compute_codes, train_autoencoders};
use crate::enrich::IngestStats;
use crate::stream::wal::{self, DurableStream, FsyncPolicy, WalConfig, WalError};
use crate::stream::{AsofPolicy, StreamConfig, StreamRuntime};
use crate::system::TrailSystem;

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Months to run.
    pub months: u32,
    /// GNN depth.
    pub gnn_layers: usize,
    /// GNN width/training parameters.
    pub gnn: GnnEvalConfig,
    /// Autoencoder parameters for the base embedding.
    pub ae: AutoencoderConfig,
    /// Fine-tuning parameters for the fresh model.
    pub fine_tune: FineTune,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            months: 6,
            gnn_layers: 3,
            gnn: GnnEvalConfig::default(),
            ae: AutoencoderConfig {
                epochs: 6,
                ..Default::default()
            },
            fine_tune: FineTune::default(),
        }
    }
}

/// One month's evaluation (a point on each Fig. 8 series).
#[derive(Debug, Clone, PartialEq)]
pub struct MonthResult {
    /// Month index (0 = first month after cutoff).
    pub month: u32,
    /// Events evaluated.
    pub n_events: usize,
    /// Stale-model accuracy.
    pub stale_acc: f64,
    /// Stale-model balanced accuracy.
    pub stale_bacc: f64,
    /// Fresh (updated + fine-tuned) model accuracy.
    pub fresh_acc: f64,
    /// Fresh-model balanced accuracy.
    pub fresh_bacc: f64,
}

/// Full study output.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOutput {
    /// Per-month series.
    pub months: Vec<MonthResult>,
    /// Fig. 7: confusion matrix of the stale model on the first month.
    pub first_month_confusion: ConfusionMatrix,
    /// Class names for rendering the confusion matrix.
    pub class_names: Vec<String>,
    /// Aggregate enrichment taxonomy over the study's window ingests
    /// (the monthly updates, not the base build).
    pub ingest: IngestStats,
    /// [`crate::stream::model_fingerprint`] of the fresh model after the
    /// last window's fine-tune, so equal outputs mean equal weights and
    /// not only equal argmaxes.
    pub model_fingerprint: u64,
}

/// Run the monthly study. Consumes the system (the TKG grows month by
/// month).
///
/// A thin loop over [`StreamRuntime`], the one monthly-window engine,
/// built from `StdRng::seed_from_u64(seed)`: each month's reports are
/// pushed in canonical arrival order, analysed as of the window's end,
/// and closed by one tick that evaluates both models on the month's
/// events and fine-tunes the fresh one. The scalers fitted on the base
/// TKG stay frozen for the whole study, so an existing node's code
/// never changes as the graph grows.
pub fn run_monthly_study(seed: u64, sys: TrailSystem, cfg: &StudyConfig) -> StudyOutput {
    let cutoff = sys.asof_day;
    let rng = StdRng::seed_from_u64(seed);
    let mut rt = StreamRuntime::new(rng, sys, study_stream_config(cfg, cutoff));
    for month in 0..cfg.months {
        rt.push_batch(&window_reports(&rt.system().client, cutoff, month));
        rt.tick();
    }
    rt.into_study_output()
}

/// The stream configuration of a study: no automatic ticks, no latency
/// budget, analyses as of the end of the month they fall in.
fn study_stream_config(cfg: &StudyConfig, cutoff: u32) -> StreamConfig {
    StreamConfig {
        study: cfg.clone(),
        asof: AsofPolicy::WindowEnd {
            origin: cutoff,
            stride: DAYS_PER_MONTH,
        },
        tick_every: None,
        budget_us: u64::MAX,
    }
}

/// Window `month`'s reports in canonical arrival order. The caller
/// pushes them and closes the window with one tick; an empty window
/// still consumes its tick (and month index).
fn window_reports(client: &OsintClient, cutoff: u32, month: u32) -> Vec<RawReport> {
    let lo = cutoff + month * DAYS_PER_MONTH;
    client.stream_reports(lo, lo + DAYS_PER_MONTH)
}

// ---------------------------------------------------------------------------
// Crash-safe resumable study
// ---------------------------------------------------------------------------

/// The generator for one stage keyed by `seed`: tick `m` of a
/// [`StreamRuntime`] fine-tunes from `stage_rng(tick_key, m)`, so a
/// resumed study reconstructs exactly the generator an uninterrupted
/// run would use at that point, with no generator state on disk. The
/// splitmix64 finalizer decorrelates the per-stage seeds so stage 0 of
/// seed 1 and stage 1 of seed 0 don't collide.
pub fn stage_rng(seed: u64, stage: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ stage.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Run the monthly study as a durable stream, resuming from the
/// write-ahead log in `dir` when one is already there.
///
/// The same [`StreamRuntime`] loop as [`run_monthly_study`], built
/// from the same `StdRng::seed_from_u64(seed)`, wrapped in a
/// [`DurableStream`] over `dir` (`OnTick` fsync, default segments):
/// every report is logged before it is pushed, and every window's tick
/// is logged, and synced, before it fires. Old files in `dir` that are
/// not log segments (a `study.ckpt` from an earlier version) are
/// ignored.
///
/// Determinism contract: for a fixed `(client world, cutoff, cfg,
/// seed)`, any sequence of kills and resumes produces a `StudyOutput`
/// bitwise-identical to an uninterrupted run, and to
/// [`run_monthly_study`] over the same base system. A resume stores
/// no trained state: it retrains the base models from the seed,
/// replays the log (pushes and ticks in log order, so every completed
/// window is ingested, evaluated and fine-tuned again), pushes the
/// rest of the current window and carries on. A resume with other
/// hyper-parameters or another seed therefore equals an uninterrupted
/// run with those. A log that is not a prefix of this study's own
/// record sequence (another world or cutoff, or more windows than
/// `cfg.months`) is refused with [`WalError::Foreign`] before anything
/// is trained.
///
/// `kill_after_window: Some(m)` simulates a crash: the run stops right
/// after window `m`'s tick record is durable and its tick has run,
/// and returns `Ok(None)`. The chaos drills (`tests/chaos_test.rs`)
/// drive this from [`trail_osint::ChaosPlan::kill_windows`].
pub fn run_resumable_study(
    client: OsintClient,
    cutoff: u32,
    cfg: &StudyConfig,
    seed: u64,
    dir: &Path,
    kill_after_window: Option<u32>,
) -> Result<Option<StudyOutput>, WalError> {
    let windows: Vec<Vec<RawReport>> = (0..cfg.months)
        .map(|m| window_reports(&client, cutoff, m))
        .collect();
    std::fs::create_dir_all(dir)?;
    check_prefix(dir, &windows)?;

    let sys = TrailSystem::build(client, cutoff);
    let rng = StdRng::seed_from_u64(seed);
    let rt = StreamRuntime::new(rng, sys, study_stream_config(cfg, cutoff));
    let wal_cfg = WalConfig {
        fsync: FsyncPolicy::OnTick,
        ..WalConfig::new(dir)
    };
    let (mut stream, _) = DurableStream::recover(wal_cfg, rt)?;

    // Reports of the current window that the log already holds.
    let done = stream.runtime().ticks_fired() as usize;
    let mut skip =
        stream.wal().records() as usize - windows[..done].iter().map(Vec::len).sum::<usize>();
    for (month, window) in (0..).zip(&windows).skip(done) {
        for report in &window[skip..] {
            stream.push(report)?;
        }
        skip = 0;
        stream.tick()?;
        if kill_after_window == Some(month) {
            return Ok(None);
        }
    }
    Ok(Some(stream.into_runtime().into_study_output()))
}

/// Refuse the log in `dir` unless it is a prefix of the study's record
/// sequence: each window's reports in arrival order, then its tick.
fn check_prefix(dir: &Path, windows: &[Vec<RawReport>]) -> Result<(), WalError> {
    let (reports, rep) = wal::scan(dir)?;
    let mut expected = windows
        .iter()
        .flat_map(|w| w.iter().map(Some).chain([None]));
    let first_foreign =
        wal::log_order(&reports, &rep.ticks).position(|got| expected.next() != Some(got));
    match first_foreign {
        Some(record) => Err(WalError::Foreign {
            record: record as u64,
        }),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Case study (Section VII-C, Figs. 5–6)
// ---------------------------------------------------------------------------

/// The case-study report on a single fresh event.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Report id of the studied event.
    pub report_id: String,
    /// Ground-truth APT name.
    pub true_apt: String,
    /// IOCs listed in the raw report.
    pub reported_iocs: usize,
    /// Total IOCs after enrichment (2-hop neighbourhood size).
    pub neighborhood_iocs: usize,
    /// Attributed events exactly 2 hops away.
    pub events_2hop: usize,
    /// Attributed events within 3 hops.
    pub events_3hop: usize,
    /// Label-propagation attribution (APT name), if reachable.
    pub lp_prediction: Option<String>,
    /// GNN prediction with neighbour labels masked: `(APT, confidence)`.
    pub gnn_masked: (String, f32),
    /// GNN prediction with neighbour labels visible.
    pub gnn_visible: (String, f32),
}

/// Run the case study: ingest one post-cutoff event, inspect its
/// neighbourhood, attribute it with LP and the GNN with/without
/// neighbour labels.
pub fn case_study<R: Rng + ?Sized>(
    rng: &mut R,
    mut sys: TrailSystem,
    cfg: &StudyConfig,
    preferred_apt: &str,
) -> Option<CaseStudy> {
    let cutoff = sys.asof_day;
    let horizon = sys.client.world().config.horizon_day();
    // Train the base model first.
    let (_, encoders) = train_autoencoders(rng, &sys.tkg, &cfg.ae);
    let base_pairs = sys.tkg.event_pairs();

    // Find and ingest exactly one new event (preferring the requested
    // APT, mirroring the paper's APT38 pick).
    let candidates = sys.client.events_between(cutoff, horizon);
    let registry = sys.tkg.registry.clone();
    let preferred_label = registry.resolve(preferred_apt);
    let pick = candidates
        .iter()
        .find(|r| {
            r.tags
                .iter()
                .filter_map(|t| registry.resolve(t))
                .any(|l| Some(l) == preferred_label)
        })
        .or_else(|| candidates.first())?
        .clone();
    let (collected, _) = crate::collector::collect(std::slice::from_ref(&pick), &registry);
    let event = collected.into_iter().next()?;
    let reported_iocs = event.report.iocs.len();
    let enricher = crate::enrich::Enricher::new(&sys.client, horizon);
    enricher.ingest(&mut sys.tkg, &event);
    let info = sys.tkg.event_by_report(&event.report.id)?.clone();

    let csr = sys.tkg.csr();
    // One 3-hop ball serves all three counts.
    let ball = trail_graph::algo::Ball::new(&csr, &[info.node], 3);
    let (mut neighborhood_iocs, mut events_2hop, mut events_3hop) = (0, 0, 0);
    for (&n, &hop) in ball.members().iter().zip(ball.hops()) {
        let event = sys.tkg.graph.node(n).kind == trail_graph::NodeKind::Event;
        if !event && hop <= 2 {
            neighborhood_iocs += 1;
        }
        if event && hop > 0 {
            events_3hop += 1;
            if hop <= 2 {
                events_2hop += 1;
            }
        }
    }

    // Label propagation with all base labels as seeds.
    let lp = trail_gnn::LabelPropagation::new(&csr, sys.tkg.n_classes());
    let mut seeds = vec![None; sys.tkg.graph.node_count()];
    for &(n, c) in &base_pairs {
        seeds[n.index()] = Some(c);
    }
    let lp_prediction = lp.predict(&seeds, 4, &[info.node])[0].map(|c| registry.name(c).to_owned());

    // GNN trained on the base TKG.
    let emb = compute_codes(&sys.tkg, &encoders, cfg.ae.batch_size);
    let x_masked = assemble_gnn_input(&sys.tkg, &emb, &[]);
    let (mut model, x_train) = train_event_gnn(
        rng,
        &sys.tkg,
        &emb,
        &base_pairs,
        &[],
        cfg.gnn_layers,
        &cfg.gnn,
    );

    let masked = predict_events(&mut model, &csr, &x_masked, &[info.node])[0];
    let visible = predict_events(&mut model, &csr, &x_train, &[info.node])[0];

    Some(CaseStudy {
        report_id: info.report_id.clone(),
        true_apt: registry.name(info.apt).to_owned(),
        reported_iocs,
        neighborhood_iocs,
        events_2hop,
        events_3hop,
        lp_prediction,
        gnn_masked: (registry.name(masked.0).to_owned(), masked.1),
        gnn_visible: (registry.name(visible.0).to_owned(), visible.1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;
    use trail_osint::{OsintClient, World, WorldConfig};

    fn tiny_sys() -> TrailSystem {
        let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(123))));
        let cutoff = client.world().config.cutoff_day;
        TrailSystem::build(client, cutoff)
    }

    fn tiny_cfg() -> StudyConfig {
        StudyConfig {
            months: 2,
            gnn_layers: 2,
            gnn: GnnEvalConfig {
                hidden: 12,
                train: trail_gnn::TrainConfig {
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
    fn monthly_study_produces_series() {
        let out = run_monthly_study(9, tiny_sys(), &tiny_cfg());
        assert!(!out.months.is_empty());
        for m in &out.months {
            assert!(m.n_events > 0);
            assert!((0.0..=1.0).contains(&m.stale_acc));
            assert!((0.0..=1.0).contains(&m.fresh_acc));
        }
        assert_eq!(out.class_names.len(), 4);
        assert!(out.ingest.first_order > 0, "study windows ingested no IOCs");
        // The confusion matrix covers the first month's events.
        let total: usize = (0..4)
            .flat_map(|t| (0..4).map(move |p| (t, p)))
            .map(|(t, p)| out.first_month_confusion.get(t, p))
            .sum();
        assert_eq!(total, out.months[0].n_events);
    }

    fn temp_study_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("trail-study-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_client() -> OsintClient {
        OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(123))))
    }

    #[test]
    fn kill_and_resume_is_bitwise_identical_to_uninterrupted() {
        let cfg = tiny_cfg();
        let cutoff = tiny_client().world().config.cutoff_day;
        let seed = 77;

        let dir_full = temp_study_dir("full");
        let full = run_resumable_study(tiny_client(), cutoff, &cfg, seed, &dir_full, None)
            .expect("uninterrupted run")
            .expect("ran to completion");

        // Two kill points: after window 0 and (resumed) after window 1.
        let dir_kill = temp_study_dir("kill");
        for kill in [0u32, 1] {
            let out = run_resumable_study(tiny_client(), cutoff, &cfg, seed, &dir_kill, Some(kill))
                .expect("killed run");
            assert!(
                out.is_none(),
                "kill after window {kill} should stop the run"
            );
        }
        let resumed = run_resumable_study(tiny_client(), cutoff, &cfg, seed, &dir_kill, None)
            .expect("final resume")
            .expect("ran to completion");

        assert_eq!(
            resumed, full,
            "resumed study diverged from uninterrupted run"
        );
        assert!(!full.months.is_empty());

        std::fs::remove_dir_all(&dir_full).ok();
        std::fs::remove_dir_all(&dir_kill).ok();
    }

    /// No trained state is stored, so a resume under another seed or
    /// another fine-tune rate cannot blend two runs: it equals an
    /// uninterrupted run with the new parameters.
    #[test]
    fn resume_with_different_parameters_equals_a_fresh_run_with_them() {
        let cfg = tiny_cfg();
        let cutoff = tiny_client().world().config.cutoff_day;
        let mut other_lr = cfg.clone();
        other_lr.fine_tune.lr *= 2.0;
        for (tag, resume_cfg, resume_seed) in [("seed", &cfg, 6), ("lr", &other_lr, 5)] {
            let dir = temp_study_dir(&format!("changed-{tag}"));
            run_resumable_study(tiny_client(), cutoff, &cfg, 5, &dir, Some(0)).expect("killed run");
            let resumed =
                run_resumable_study(tiny_client(), cutoff, resume_cfg, resume_seed, &dir, None)
                    .expect("resume")
                    .expect("ran to completion");
            let fresh = run_monthly_study(resume_seed, tiny_sys(), resume_cfg);
            assert_eq!(resumed, fresh, "resume with another {tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A log written by a study over another world is not a prefix of
    /// this study's records: refused before anything is trained.
    #[test]
    fn resume_from_another_worlds_log_is_rejected() {
        let cfg = tiny_cfg();
        let other = || OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(124))));
        let cutoff = tiny_client().world().config.cutoff_day;
        assert_eq!(other().world().config.cutoff_day, cutoff);
        let dir = temp_study_dir("foreign");
        run_resumable_study(other(), cutoff, &cfg, 5, &dir, Some(0)).expect("killed run");
        match run_resumable_study(tiny_client(), cutoff, &cfg, 5, &dir, None) {
            Err(WalError::Foreign { record: 0 }) => {}
            other => panic!("expected a foreign-log error at record 0, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_rngs_are_decorrelated() {
        let mut a = stage_rng(1, 0);
        let mut b = stage_rng(1, 1);
        let mut c = stage_rng(2, 0);
        let (x, y, z) = (a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>());
        assert_ne!(x, y);
        assert_ne!(x, z);
        // Same (seed, stage) reproduces the stream.
        assert_eq!(stage_rng(1, 0).gen::<u64>(), x);
    }

    #[test]
    fn case_study_reports_enrichment_and_neighbors() {
        let mut rng = StdRng::seed_from_u64(10);
        let cs = case_study(&mut rng, tiny_sys(), &tiny_cfg(), "APT38")
            .expect("study window has events");
        assert!(cs.reported_iocs > 0);
        assert!(cs.neighborhood_iocs >= cs.reported_iocs);
        assert!(cs.events_3hop >= cs.events_2hop);
        assert!((0.0..=1.0).contains(&cs.gnn_masked.1));
        assert!((0.0..=1.0).contains(&cs.gnn_visible.1));
        // The GNN's confidences, bit for bit (the in-repo `rand`
        // stand-in's draws). This event has no attributed event within
        // 3 hops, so hiding neighbour labels changes nothing.
        assert_eq!(cs.gnn_masked.1.to_bits(), 0x3ecb_a5a8);
        assert_eq!(cs.gnn_visible.1.to_bits(), 0x3ecb_a5a8);
    }

    /// The case study's GNN trains under the configured label mask:
    /// two studies that differ only in `label_visible_fraction` train
    /// different models.
    #[test]
    fn case_study_honours_the_label_visible_fraction() {
        let confidences = |fraction: f32| {
            let mut cfg = tiny_cfg();
            cfg.gnn.label_visible_fraction = fraction;
            let cs = case_study(&mut StdRng::seed_from_u64(10), tiny_sys(), &cfg, "APT38")
                .expect("study window has events");
            (cs.gnn_masked.1, cs.gnn_visible.1)
        };
        let (half, most) = (confidences(0.5), confidences(0.9));
        assert_ne!(
            half.0.to_bits(),
            most.0.to_bits(),
            "masked: {half:?} vs {most:?}"
        );
        assert_ne!(
            half.1.to_bits(),
            most.1.to_bits(),
            "visible: {half:?} vs {most:?}"
        );
    }
}
