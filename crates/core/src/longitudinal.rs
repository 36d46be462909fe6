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
//! them is paired. [`run_resumable_study`] also checkpoints at every
//! tick boundary; for one seed both entry points produce the same
//! [`StudyOutput`].

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trail_gnn::train::predict_events;
use trail_gnn::{FineTune, SageConfig, SageModel};
use trail_graph::NodeId;
use trail_ioc::{fnv1a, IocKind};
use trail_linalg::Matrix;
use trail_ml::metrics::ConfusionMatrix;
use trail_ml::nn::autoencoder::{Autoencoder, AutoencoderConfig};
use trail_osint::{mix64, OsintClient, DAYS_PER_MONTH};

use crate::attribute::GnnEvalConfig;
use crate::checkpoint::{self, CheckpointError, StudyCheckpoint};
use crate::embed::{assemble_gnn_input, compute_codes, train_autoencoders, SparseScaler};
use crate::enrich::IngestStats;
use crate::freeze::instantiate;
use crate::stream::{tick_key, AsofPolicy, StreamConfig, StreamRuntime};
use crate::system::TrailSystem;
use crate::tkg::Tkg;

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
        push_window(&mut rt, cutoff, month);
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

/// Push window `month`'s reports into the runtime. The caller then
/// closes the window with one tick; an empty window still consumes its
/// tick (and month index).
fn push_window(rt: &mut StreamRuntime, cutoff: u32, month: u32) {
    let lo = cutoff + month * DAYS_PER_MONTH;
    let reports = rt.system().client.stream_reports(lo, lo + DAYS_PER_MONTH);
    rt.push_batch(&reports);
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

/// Fingerprint of everything that shapes a study run: the world seed,
/// the build cutoff and every study hyper-parameter. A checkpoint with
/// a different fingerprint is rejected instead of silently blended
/// into a differently-configured run.
fn study_fingerprint(cfg: &StudyConfig, world_seed: u64, cutoff: u32) -> u64 {
    let mut b = Vec::with_capacity(96);
    b.extend_from_slice(&world_seed.to_le_bytes());
    b.extend_from_slice(&cutoff.to_le_bytes());
    b.extend_from_slice(&cfg.months.to_le_bytes());
    b.extend_from_slice(&(cfg.gnn_layers as u64).to_le_bytes());
    b.extend_from_slice(&(cfg.gnn.hidden as u64).to_le_bytes());
    b.extend_from_slice(&cfg.gnn.train.lr.to_bits().to_le_bytes());
    b.extend_from_slice(&(cfg.gnn.train.epochs as u64).to_le_bytes());
    b.extend_from_slice(&(cfg.gnn.train.patience as u64).to_le_bytes());
    b.extend_from_slice(&cfg.gnn.val_fraction.to_bits().to_le_bytes());
    b.push(cfg.gnn.l2_normalize as u8);
    b.extend_from_slice(&cfg.gnn.label_visible_fraction.to_bits().to_le_bytes());
    // `sampled_neighbor_cap` can only be `None` now. Its `0` byte
    // stays, so checkpoints written before (all `None`) still resume.
    b.push(0);
    b.extend_from_slice(&(cfg.ae.hidden as u64).to_le_bytes());
    b.extend_from_slice(&(cfg.ae.code as u64).to_le_bytes());
    b.extend_from_slice(&cfg.ae.lr.to_bits().to_le_bytes());
    b.extend_from_slice(&(cfg.ae.epochs as u64).to_le_bytes());
    b.extend_from_slice(&(cfg.ae.batch_size as u64).to_le_bytes());
    b.extend_from_slice(&cfg.fine_tune.lr.to_bits().to_le_bytes());
    b.extend_from_slice(&(cfg.fine_tune.epochs as u64).to_le_bytes());
    fnv1a(&b)
}

fn encode_pairs(pairs: &[(NodeId, u16)]) -> Vec<(u32, u16)> {
    pairs.iter().map(|&(n, c)| (n.index() as u32, c)).collect()
}

fn decode_pairs(pairs: &[(u32, u16)]) -> Vec<(NodeId, u16)> {
    pairs
        .iter()
        .map(|&(n, c)| (NodeId::from(n as usize), c))
        .collect()
}

fn clone_sage_layers(model: &SageModel) -> Vec<(Matrix, Matrix, Matrix)> {
    model
        .weights()
        .into_iter()
        .map(|(wr, wn, b)| (wr.clone(), wn.clone(), b.clone()))
        .collect()
}

fn clone_encoder_layers(encoders: &[Autoencoder]) -> Vec<Vec<(Matrix, Matrix)>> {
    encoders
        .iter()
        .map(|ae| {
            ae.layer_params()
                .into_iter()
                .map(|(w, b)| (w.clone(), b.clone()))
                .collect()
        })
        .collect()
}

fn restore_autoencoder(layers: &[(Matrix, Matrix)]) -> checkpoint::Result<Autoencoder> {
    if layers.len() != 4 {
        return Err(CheckpointError::Mismatch {
            what: "autoencoder layer count",
        });
    }
    // Recover the architecture from the weight shapes: enc1 is
    // (d_in × hidden), enc2 is (hidden × code).
    let d_in = layers[0].0.rows();
    let cfg = AutoencoderConfig {
        hidden: layers[0].0.cols(),
        code: layers[1].0.cols(),
        ..Default::default()
    };
    let mut ae = Autoencoder::new(&mut StdRng::seed_from_u64(0), d_in, &cfg);
    for (l, (w, b)) in layers.iter().enumerate() {
        ae.set_layer_params(l, w.clone(), b.clone());
    }
    Ok(ae)
}

/// Snapshot the runtime's study state at a tick boundary.
fn checkpoint_of(
    rt: &StreamRuntime,
    seed: u64,
    fingerprint: u64,
    base_pairs: &[(u32, u16)],
    months: &[MonthResult],
) -> StudyCheckpoint {
    StudyCheckpoint {
        seed,
        fingerprint,
        next_month: rt.ticks_fired(),
        months: months.to_vec(),
        confusion: rt.confusion.clone(),
        window_ingest: rt.window_ingest.clone(),
        base_pairs: base_pairs.to_vec(),
        fresh_visible: encode_pairs(&rt.fresh_visible),
        sage_cfg: *rt.stale_model.config(),
        stale: clone_sage_layers(&rt.stale_model),
        fresh: clone_sage_layers(&rt.fresh_model),
        encoders: clone_encoder_layers(&rt.encoders),
    }
}

/// Run the monthly study with a crash-safe checkpoint after every
/// window, resuming from `dir` when a checkpoint is already there.
///
/// The same [`StreamRuntime`] loop as [`run_monthly_study`], built
/// from the same `StdRng::seed_from_u64(seed)`, with the checkpoint
/// written at every tick boundary, empty windows included.
///
/// Determinism contract: for a fixed `(client world, cutoff, cfg,
/// seed)`, any sequence of kills and resumes produces a `StudyOutput`
/// bitwise-identical to an uninterrupted run, and to
/// [`run_monthly_study`] over the same base system. On resume nothing
/// is trained: the tick key is re-derived from the seed, the scalers
/// are refitted on the base TKG, the completed windows' reports are
/// pushed again (the world's faults and gaps are deterministic per
/// query, so the replayed graph is exact), and the models, visible
/// labels and statistics come from the checkpoint; the CSR, code cache
/// and input matrix are rebuilt from the replayed graph.
///
/// `kill_after_window: Some(m)` simulates a crash: the run stops right
/// after window `m`'s checkpoint is durably on disk and returns
/// `Ok(None)`. The chaos drills (`tests/chaos_test.rs`) drive this
/// from [`trail_osint::ChaosPlan::kill_windows`].
pub fn run_resumable_study(
    client: OsintClient,
    cutoff: u32,
    cfg: &StudyConfig,
    seed: u64,
    dir: &Path,
    kill_after_window: Option<u32>,
) -> checkpoint::Result<Option<StudyOutput>> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CheckpointError::Persist(trail_graph::PersistError::Io(e)))?;
    let ckpt_path = dir.join("study.ckpt");
    let fingerprint = study_fingerprint(cfg, client.world().config.seed, cutoff);

    let prior = if ckpt_path.exists() {
        Some(StudyCheckpoint::load(&ckpt_path)?)
    } else {
        None
    };

    // The base build is deterministic, so fresh and resumed runs start
    // from the identical TKG.
    let sys = TrailSystem::build(client, cutoff);
    let base_pairs: Vec<(u32, u16)> = sys
        .tkg
        .events
        .iter()
        .map(|e| (e.node.index() as u32, e.apt))
        .collect();
    let stream_cfg = study_stream_config(cfg, cutoff);
    let rng = StdRng::seed_from_u64(seed);

    let (mut rt, mut months) = match prior {
        Some(ck) => {
            if ck.fingerprint != fingerprint {
                return Err(CheckpointError::Mismatch {
                    what: "run fingerprint",
                });
            }
            if ck.seed != seed {
                return Err(CheckpointError::Mismatch { what: "study seed" });
            }
            if ck.base_pairs != base_pairs {
                return Err(CheckpointError::Mismatch {
                    what: "base event labels",
                });
            }
            // Scalers are fitted on the base TKG and frozen for every
            // window. Refitting them here, before any replay,
            // reproduces them exactly, so they are never checkpointed.
            let scalers: Vec<SparseScaler> = IocKind::ALL
                .iter()
                .map(|&k| SparseScaler::fit(&sys.tkg.featured_nodes(k), Tkg::dims_of(k)))
                .collect();
            let encoders = ck
                .encoders
                .iter()
                .map(|l| restore_autoencoder(l))
                .collect::<checkpoint::Result<_>>()?;
            let mut rt = StreamRuntime::from_trained(
                tick_key(&rng),
                sys,
                stream_cfg,
                encoders,
                scalers,
                instantiate(ck.sage_cfg, &ck.stale),
                instantiate(ck.sage_cfg, &ck.fresh),
            );
            for m in 0..ck.next_month {
                push_window(&mut rt, cutoff, m);
            }
            rt.restore_windows(
                ck.next_month,
                decode_pairs(&ck.fresh_visible),
                ck.confusion,
                ck.window_ingest,
            );
            (rt, ck.months)
        }
        None => {
            let rt = StreamRuntime::new(rng, sys, stream_cfg);
            // Checkpoint the trained base state so a crash before the
            // first window completes doesn't redo the training.
            checkpoint_of(&rt, seed, fingerprint, &base_pairs, &[]).save(&ckpt_path)?;
            (rt, Vec::new())
        }
    };

    for month in rt.ticks_fired()..cfg.months {
        push_window(&mut rt, cutoff, month);
        if let Some(tick) = rt.tick() {
            months.push(tick.result);
        }
        checkpoint_of(&rt, seed, fingerprint, &base_pairs, &months).save(&ckpt_path)?;
        if kill_after_window == Some(month) {
            return Ok(None);
        }
    }

    // The runtime only holds this process's ticks; `months` also has
    // the ones restored from the checkpoint.
    Ok(Some(StudyOutput {
        months,
        ..rt.into_study_output()
    }))
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
    let base_pairs: Vec<(NodeId, u16)> = sys.tkg.events.iter().map(|e| (e.node, e.apt)).collect();

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
    let sage_cfg = SageConfig {
        input_dim: x_masked.cols(),
        hidden: cfg.gnn.hidden,
        layers: cfg.gnn_layers,
        n_classes: sys.tkg.n_classes(),
        l2_normalize: cfg.gnn.l2_normalize,
    };
    let mut x_train = assemble_gnn_input(&sys.tkg, &emb, &base_pairs);
    let masking = trail_gnn::LabelMasking {
        offset: emb.code_dim + 5,
        visible_fraction: cfg.gnn.label_visible_fraction,
    };
    let (mut model, _) = trail_gnn::train_sage_masked(
        rng,
        &csr,
        &mut x_train,
        sage_cfg,
        &base_pairs,
        &[],
        &cfg.gnn.train,
        masking,
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

    #[test]
    fn resume_with_different_parameters_is_rejected() {
        let cfg = tiny_cfg();
        let cutoff = tiny_client().world().config.cutoff_day;
        let dir = temp_study_dir("mismatch");
        run_resumable_study(tiny_client(), cutoff, &cfg, 5, &dir, Some(0)).expect("killed run");

        // Different study seed: refuse.
        match run_resumable_study(tiny_client(), cutoff, &cfg, 6, &dir, None) {
            Err(CheckpointError::Mismatch { what }) => assert_eq!(what, "study seed"),
            other => panic!("expected seed mismatch, got {other:?}"),
        }
        // Different hyper-parameters: refuse.
        let mut other_lr = cfg.clone();
        other_lr.fine_tune.lr *= 2.0;
        match run_resumable_study(tiny_client(), cutoff, &other_lr, 5, &dir, None) {
            Err(CheckpointError::Mismatch { what }) => assert_eq!(what, "run fingerprint"),
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Checkpoints written before `sampled_neighbor_cap` lost its
    /// values (all `None`) must still resume: the fingerprint of a
    /// fixed config keeps its value.
    #[test]
    fn study_fingerprint_is_pinned() {
        assert_eq!(
            study_fingerprint(&tiny_cfg(), 77, 400),
            0x1abf_f84e_7951_4ade
        );
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
