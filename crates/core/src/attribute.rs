//! Attribution pipelines (paper Sections VI–VII).
//!
//! * Individual-IOC attribution (Table III): per-kind XGB / NN / RF
//!   classifiers over first-order, single-label IOCs, with standard
//!   scaling and SMOTE, under stratified k-fold CV.
//! * Event attribution (Table IV): per-IOC classifiers + mode voting,
//!   label propagation at 2/3/4 layers, and GraphSAGE at 2/3/4 layers
//!   under the masked-fold protocol.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use trail_graph::NodeId;
use trail_ioc::IocKind;
use trail_linalg::Matrix;
use trail_ml::dataset::{Dataset, StratifiedKFold};
use trail_ml::forest::ForestConfig;
use trail_ml::gbt::GbtConfig;
use trail_ml::metrics::{accuracy, balanced_accuracy};
use trail_ml::nn::{Mlp, MlpConfig};
use trail_ml::smote::{smote, SmoteConfig};
use trail_ml::{Classifier, GradientBoostedTrees, RandomForest, StandardScaler};

use crate::embed::{assemble_gnn_input, NodeEmbeddings};
use crate::sparse::{densify, SparseRef};
use crate::tkg::Tkg;

/// Which classical model family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Gradient-boosted trees (the paper's XGB).
    Xgb,
    /// Multilayer perceptron.
    Nn,
    /// Random forest.
    Rf,
}

impl ModelKind {
    /// All model families in Table III/IV order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Xgb, ModelKind::Nn, ModelKind::Rf];

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Xgb => "XGB",
            ModelKind::Nn => "NN",
            ModelKind::Rf => "RF",
        }
    }
}

/// Hyper-parameters for the classical models, sized for the default
/// reproduction scale (the paper's full-width NN is available via
/// [`MlpConfig::paper`]).
#[derive(Debug, Clone)]
pub struct IocModelSettings {
    /// XGB parameters.
    pub gbt: GbtConfig,
    /// Random-forest parameters.
    pub forest: ForestConfig,
    /// MLP parameters.
    pub mlp: MlpConfig,
    /// Apply SMOTE oversampling to the training fold.
    pub smote: bool,
    /// Subsample cap per IOC dataset (0 = unlimited).
    pub max_samples: usize,
}

impl Default for IocModelSettings {
    fn default() -> Self {
        Self {
            gbt: GbtConfig {
                n_rounds: 10,
                max_depth: 5,
                colsample: 0.15,
                subsample: 0.8,
                ..Default::default()
            },
            forest: ForestConfig {
                n_trees: 25,
                ..Default::default()
            },
            mlp: MlpConfig {
                hidden: vec![128, 64],
                dropout: 0.5,
                dropout_layers: 2,
                lr: 1e-3,
                epochs: 8,
                batch_size: 128,
            },
            smote: true,
            max_samples: 6_000,
        }
    }
}

impl IocModelSettings {
    /// Fast settings for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            gbt: GbtConfig {
                n_rounds: 4,
                max_depth: 4,
                colsample: 0.2,
                ..Default::default()
            },
            forest: ForestConfig {
                n_trees: 8,
                ..Default::default()
            },
            mlp: MlpConfig {
                hidden: vec![32],
                dropout: 0.1,
                dropout_layers: 1,
                lr: 3e-3,
                epochs: 4,
                batch_size: 64,
            },
            smote: true,
            max_samples: 1_500,
        }
    }
}

/// A trained classical model of any family.
pub enum IocModel {
    /// Gradient-boosted trees.
    Xgb(GradientBoostedTrees),
    /// MLP.
    Nn(Mlp),
    /// Random forest.
    Rf(RandomForest),
}

impl IocModel {
    /// Train the requested family.
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        kind: ModelKind,
        x: &Matrix,
        y: &[u16],
        n_classes: usize,
        settings: &IocModelSettings,
    ) -> Self {
        match kind {
            ModelKind::Xgb => IocModel::Xgb(GradientBoostedTrees::fit(
                rng,
                x,
                y,
                n_classes,
                &settings.gbt,
            )),
            ModelKind::Nn => IocModel::Nn(Mlp::fit(rng, x, y, n_classes, &settings.mlp)),
            ModelKind::Rf => {
                IocModel::Rf(RandomForest::fit(rng, x, y, n_classes, &settings.forest))
            }
        }
    }

    /// Hard predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<u16> {
        match self {
            IocModel::Xgb(m) => m.predict(x),
            IocModel::Nn(m) => m.predict(x),
            IocModel::Rf(m) => m.predict(x),
        }
    }
}

/// A per-kind IOC dataset extracted from the TKG.
pub struct IocDataset {
    /// IOC kind.
    pub kind: IocKind,
    /// Dense features + labels.
    pub data: Dataset,
    /// Graph node of each sample row.
    pub nodes: Vec<NodeId>,
}

/// Extract the Table III datasets: first-order IOCs linked to exactly
/// one APT, with stored features. Subsampled to `max_samples` per kind
/// when set (stratification by shuffle-truncate).
pub fn ioc_datasets<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    max_samples: usize,
) -> Vec<IocDataset> {
    IocKind::ALL
        .iter()
        .map(|&kind| {
            let mut samples: Vec<(NodeId, u16)> = tkg
                .featured_nodes(kind)
                .into_iter()
                .filter(|&(id, _)| tkg.graph.node(id).first_order())
                .filter_map(|(id, _)| match tkg.reporting_apts(id).as_slice() {
                    [one] => Some((id, *one)),
                    _ => None,
                })
                .collect();
            samples.shuffle(rng);
            if max_samples > 0 {
                samples.truncate(max_samples);
            }
            let dims = Tkg::dims_of(kind);
            let rows: Vec<SparseRef<'_>> = samples
                .iter()
                .map(|&(id, _)| tkg.features(id).expect("featured"))
                .collect();
            let x = densify(&rows, dims);
            let y: Vec<u16> = samples.iter().map(|&(_, apt)| apt).collect();
            IocDataset {
                kind,
                data: Dataset::new(x, y, tkg.n_classes()),
                nodes: samples.into_iter().map(|(id, _)| id).collect(),
            }
        })
        .collect()
}

/// Per-fold accuracy scores.
#[derive(Debug, Clone, Default)]
pub struct FoldScores {
    /// Plain accuracy per fold.
    pub acc: Vec<f64>,
    /// Balanced accuracy per fold.
    pub bacc: Vec<f64>,
}

impl FoldScores {
    /// `(mean, std)` of plain accuracy.
    pub fn acc_mean_std(&self) -> (f64, f64) {
        trail_ml::metrics::mean_std(&self.acc)
    }

    /// `(mean, std)` of balanced accuracy.
    pub fn bacc_mean_std(&self) -> (f64, f64) {
        trail_ml::metrics::mean_std(&self.bacc)
    }
}

/// Preprocess a training fold: fit scaler, scale, optionally SMOTE.
fn preprocess_fold<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    train_idx: &[usize],
    do_smote: bool,
) -> (StandardScaler, Dataset) {
    let train = data.subset(train_idx);
    let (scaler, x_scaled) = StandardScaler::fit_transform(&train.x);
    let mut scaled = Dataset::new(x_scaled, train.y.clone(), train.n_classes);
    if do_smote {
        scaled = smote(rng, &scaled, SmoteConfig::default());
    }
    (scaler, scaled)
}

/// Tune XGB or RF hyper-parameters with TPE (paper Section VI-A:
/// "the hyperparameters were optimized using the Tree of Parzen
/// Estimators (TPE) method provided by Hyperopt").
///
/// The objective is negative mean CV accuracy on a *tuning* split;
/// returns the best settings found (other fields copied from `base`).
pub fn tune_with_tpe<R: Rng + ?Sized>(
    rng: &mut R,
    ds: &IocDataset,
    model: ModelKind,
    base: &IocModelSettings,
    n_trials: usize,
) -> IocModelSettings {
    use trail_ml::hyperopt::{ParamSpec, Tpe};
    let mut tuned = base.clone();
    match model {
        ModelKind::Xgb => {
            let mut tpe = Tpe::new(vec![
                ("n_rounds".into(), ParamSpec::Int(4, 24)),
                ("max_depth".into(), ParamSpec::Int(3, 8)),
                ("learning_rate".into(), ParamSpec::LogUniform(0.05, 0.6)),
                ("colsample".into(), ParamSpec::Uniform(0.05, 0.5)),
            ]);
            let best = {
                let mut eval_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
                tpe.run(rng, n_trials, |v| {
                    let mut settings = base.clone();
                    settings.gbt.n_rounds = v[0] as usize;
                    settings.gbt.max_depth = v[1] as usize;
                    settings.gbt.learning_rate = v[2];
                    settings.gbt.colsample = v[3];
                    let scores = crossval_ioc(&mut eval_rng, ds, ModelKind::Xgb, &settings, 2);
                    -scores.acc_mean_std().0
                })
            };
            tuned.gbt.n_rounds = best.values[0] as usize;
            tuned.gbt.max_depth = best.values[1] as usize;
            tuned.gbt.learning_rate = best.values[2];
            tuned.gbt.colsample = best.values[3];
        }
        ModelKind::Rf => {
            let mut tpe = Tpe::new(vec![
                ("n_trees".into(), ParamSpec::Int(8, 64)),
                ("max_depth".into(), ParamSpec::Int(6, 24)),
                ("min_samples_leaf".into(), ParamSpec::Int(1, 8)),
            ]);
            let best = {
                let mut eval_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
                tpe.run(rng, n_trials, |v| {
                    let mut settings = base.clone();
                    settings.forest.n_trees = v[0] as usize;
                    settings.forest.tree.max_depth = v[1] as usize;
                    settings.forest.tree.min_samples_leaf = v[2] as usize;
                    let scores = crossval_ioc(&mut eval_rng, ds, ModelKind::Rf, &settings, 2);
                    -scores.acc_mean_std().0
                })
            };
            tuned.forest.n_trees = best.values[0] as usize;
            tuned.forest.tree.max_depth = best.values[1] as usize;
            tuned.forest.tree.min_samples_leaf = best.values[2] as usize;
        }
        ModelKind::Nn => {
            let mut tpe = Tpe::new(vec![
                ("lr".into(), ParamSpec::LogUniform(1e-4, 1e-2)),
                ("epochs".into(), ParamSpec::Int(4, 20)),
            ]);
            let best = {
                let mut eval_rng = rand::rngs::StdRng::seed_from_u64(rng.gen());
                tpe.run(rng, n_trials, |v| {
                    let mut settings = base.clone();
                    settings.mlp.lr = v[0];
                    settings.mlp.epochs = v[1] as usize;
                    let scores = crossval_ioc(&mut eval_rng, ds, ModelKind::Nn, &settings, 2);
                    -scores.acc_mean_std().0
                })
            };
            tuned.mlp.lr = best.values[0];
            tuned.mlp.epochs = best.values[1] as usize;
        }
    }
    tuned
}

/// Cross-validate one model family on one IOC dataset (Table III cell).
pub fn crossval_ioc<R: Rng + ?Sized>(
    rng: &mut R,
    ds: &IocDataset,
    model: ModelKind,
    settings: &IocModelSettings,
    k: usize,
) -> FoldScores {
    let mut scores = FoldScores::default();
    let kf = StratifiedKFold::new(rng, &ds.data.y, ds.data.n_classes, k);
    for (train_idx, test_idx) in kf.splits() {
        let (scaler, train) = preprocess_fold(rng, &ds.data, &train_idx, settings.smote);
        let clf = IocModel::fit(rng, model, &train.x, &train.y, ds.data.n_classes, settings);
        let test = ds.data.subset(&test_idx);
        let x_test = scaler.transform(&test.x);
        let pred = clf.predict(&x_test);
        scores.acc.push(accuracy(&test.y, &pred));
        scores
            .bacc
            .push(balanced_accuracy(&test.y, &pred, ds.data.n_classes));
    }
    scores
}

// ---------------------------------------------------------------------------
// Event attribution (Table IV)
// ---------------------------------------------------------------------------

/// Stratified folds over the TKG's events, returned as index lists into
/// `tkg.events`.
pub fn event_folds<R: Rng + ?Sized>(rng: &mut R, tkg: &Tkg, k: usize) -> StratifiedKFold {
    let y: Vec<u16> = tkg.events.iter().map(|e| e.apt).collect();
    StratifiedKFold::new(rng, &y, tkg.n_classes(), k)
}

/// Classify each test event by majority vote over per-IOC predictions
/// from per-kind models trained on the train fold's IOCs (Table IV rows
/// XGB/NN/RF).
pub fn eval_event_ml<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    model: ModelKind,
    settings: &IocModelSettings,
    k: usize,
) -> FoldScores {
    let mut scores = FoldScores::default();
    let kf = event_folds(rng, tkg, k);
    for (train_ev, test_ev) in kf.splits() {
        let train_events: std::collections::HashSet<NodeId> =
            train_ev.iter().map(|&i| tkg.events[i].node).collect();
        // Per-kind training data: first-order IOCs reported exclusively
        // by train-fold events, labelled by their (single) APT.
        let mut models: Vec<Option<(StandardScaler, IocModel)>> = Vec::new();
        for kind in IocKind::ALL {
            let mut samples: Vec<(NodeId, u16)> = Vec::new();
            for (id, _) in tkg.featured_nodes(kind) {
                if !tkg.graph.node(id).first_order() {
                    continue;
                }
                let reporters: Vec<NodeId> = tkg
                    .graph
                    .in_neighbors(id)
                    .filter(|(_, ek)| *ek == trail_graph::EdgeKind::InReport)
                    .map(|(src, _)| src)
                    .collect();
                if !reporters.iter().all(|r| train_events.contains(r)) {
                    continue;
                }
                if let [one] = tkg.reporting_apts(id).as_slice() {
                    samples.push((id, *one));
                }
            }
            samples.shuffle(rng);
            if settings.max_samples > 0 {
                samples.truncate(settings.max_samples);
            }
            if samples.len() < tkg.n_classes() {
                models.push(None);
                continue;
            }
            let dims = Tkg::dims_of(kind);
            let rows: Vec<SparseRef<'_>> = samples
                .iter()
                .map(|&(id, _)| tkg.features(id).expect("featured"))
                .collect();
            let x = densify(&rows, dims);
            let y: Vec<u16> = samples.iter().map(|&(_, apt)| apt).collect();
            let data = Dataset::new(x, y, tkg.n_classes());
            let all: Vec<usize> = (0..data.len()).collect();
            let (scaler, train) = preprocess_fold(rng, &data, &all, settings.smote);
            let clf = IocModel::fit(rng, model, &train.x, &train.y, tkg.n_classes(), settings);
            models.push(Some((scaler, clf)));
        }
        // Majority class of the train fold, the fallback for events with
        // no usable IOC predictions.
        let majority = {
            let mut counts = vec![0usize; tkg.n_classes()];
            for &i in &train_ev {
                counts[tkg.events[i].apt as usize] += 1;
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(c, _)| c as u16)
                .unwrap_or(0)
        };
        // Vote per test event.
        let mut truth = Vec::with_capacity(test_ev.len());
        let mut pred = Vec::with_capacity(test_ev.len());
        for &ei in &test_ev {
            let info = &tkg.events[ei];
            let mut votes = vec![0usize; tkg.n_classes()];
            let mut any = false;
            for kind in IocKind::ALL {
                let Some((scaler, clf)) = &models[kind_slot(kind)] else {
                    continue;
                };
                let iocs: Vec<NodeId> = tkg
                    .graph
                    .out_neighbors(info.node)
                    .filter(|&(dst, ek)| {
                        ek == trail_graph::EdgeKind::InReport
                            && tkg.graph.node(dst).kind == Tkg::node_kind(kind)
                            && tkg.has_features(dst)
                    })
                    .map(|(dst, _)| dst)
                    .collect();
                if iocs.is_empty() {
                    continue;
                }
                let rows: Vec<SparseRef<'_>> = iocs
                    .iter()
                    .map(|&id| tkg.features(id).expect("featured"))
                    .collect();
                let x = scaler.transform(&densify(&rows, Tkg::dims_of(kind)));
                for p in clf.predict(&x) {
                    votes[p as usize] += 1;
                    any = true;
                }
            }
            let p = if any {
                votes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, c)| *c)
                    .map(|(c, _)| c as u16)
                    .unwrap()
            } else {
                majority
            };
            truth.push(info.apt);
            pred.push(p);
        }
        scores.acc.push(accuracy(&truth, &pred));
        scores
            .bacc
            .push(balanced_accuracy(&truth, &pred, tkg.n_classes()));
    }
    scores
}

fn kind_slot(kind: IocKind) -> usize {
    match kind {
        IocKind::Ip => 0,
        IocKind::Url => 1,
        IocKind::Domain => 2,
    }
}

/// Label propagation at `layers` iterations (Table IV rows LP 2L/3L/4L).
/// Unreachable test events count as misclassified.
pub fn eval_event_lp<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    layers: usize,
    k: usize,
) -> FoldScores {
    let csr = tkg.csr();
    let lp = trail_gnn::LabelPropagation::new(&csr, tkg.n_classes());
    let mut scores = FoldScores::default();
    let kf = event_folds(rng, tkg, k);
    for (train_ev, test_ev) in kf.splits() {
        let mut seeds = vec![None; tkg.graph.node_count()];
        for &i in &train_ev {
            seeds[tkg.events[i].node.index()] = Some(tkg.events[i].apt);
        }
        let targets: Vec<NodeId> = test_ev.iter().map(|&i| tkg.events[i].node).collect();
        let preds = lp.predict(&seeds, layers, &targets);
        let truth: Vec<u16> = test_ev.iter().map(|&i| tkg.events[i].apt).collect();
        let pred: Vec<u16> = preds
            .iter()
            .map(|p| p.unwrap_or(u16::MAX)) // unattributed = wrong
            .collect();
        scores.acc.push(accuracy(&truth, &pred));
        scores.bacc.push(balanced_accuracy_with_sentinel(
            &truth,
            &pred,
            tkg.n_classes(),
        ));
    }
    scores
}

/// Balanced accuracy tolerant of the `u16::MAX` "unattributed" sentinel.
fn balanced_accuracy_with_sentinel(truth: &[u16], pred: &[u16], n_classes: usize) -> f64 {
    let clean: Vec<u16> = pred
        .iter()
        .map(|&p| if p == u16::MAX { n_classes as u16 } else { p })
        .collect();
    balanced_accuracy(truth, &clean, n_classes + 1)
}

/// GNN training/evaluation parameters for Table IV.
#[derive(Debug, Clone, Copy)]
pub struct GnnEvalConfig {
    /// Hidden width of the SAGE layers.
    pub hidden: usize,
    /// Training parameters.
    pub train: trail_gnn::TrainConfig,
    /// Fraction of the train fold held out as validation.
    pub val_fraction: f32,
    /// Per-layer L2 normalisation (paper Eq. 4); exposed for the
    /// DESIGN.md ablation.
    pub l2_normalize: bool,
    /// Fraction of train-event labels visible per masked-training
    /// epoch (the rest are that epoch's prediction targets).
    pub label_visible_fraction: f32,
    /// Always `None`: `Infallible` admits no `Some`. Nothing reads it;
    /// it stays while the benchmark harness names it in a struct
    /// literal, and the study fingerprint hashes it as `None`'s `0`.
    pub sampled_neighbor_cap: Option<std::convert::Infallible>,
}

impl Default for GnnEvalConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            train: trail_gnn::TrainConfig {
                lr: 2e-2,
                epochs: 200,
                patience: 0,
            },
            val_fraction: 0.0,
            l2_normalize: false,
            label_visible_fraction: 0.7,
            sampled_neighbor_cap: None,
        }
    }
}

/// GraphSAGE at `layers` (Table IV rows GNN 2L/3L/4L).
pub fn eval_event_gnn<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    embeddings: &NodeEmbeddings,
    layers: usize,
    cfg: &GnnEvalConfig,
    k: usize,
) -> FoldScores {
    let csr = tkg.csr();
    let mut scores = FoldScores::default();
    let kf = event_folds(rng, tkg, k);
    for (mut train_ev, test_ev) in kf.splits() {
        // Carve a validation subset out of the train fold.
        train_ev.shuffle(rng);
        let n_val = ((train_ev.len() as f32) * cfg.val_fraction).round() as usize;
        let val_ev: Vec<usize> = train_ev.split_off(train_ev.len().saturating_sub(n_val));

        let pairs = |idx: &[usize]| -> Vec<(NodeId, u16)> {
            idx.iter()
                .map(|&i| (tkg.events[i].node, tkg.events[i].apt))
                .collect()
        };
        let train_pairs = pairs(&train_ev);
        let val_pairs = pairs(&val_ev);
        let test_pairs = pairs(&test_ev);

        // Training input: only train labels visible; per-epoch masking
        // prevents the self-label shortcut (see train_sage_masked).
        let mut x_train = assemble_gnn_input(tkg, embeddings, &train_pairs);
        let sage_cfg = trail_gnn::SageConfig {
            input_dim: x_train.cols(),
            hidden: cfg.hidden,
            layers,
            n_classes: tkg.n_classes(),
            l2_normalize: cfg.l2_normalize,
        };
        let masking = trail_gnn::LabelMasking {
            offset: embeddings.code_dim + 5,
            visible_fraction: cfg.label_visible_fraction,
        };
        let (mut model, _) = trail_gnn::train_sage_masked(
            rng,
            &csr,
            &mut x_train,
            sage_cfg,
            &train_pairs,
            &val_pairs,
            &cfg.train,
            masking,
        );

        // Test input: train + val labels visible, test masked.
        let visible: Vec<(NodeId, u16)> = train_pairs.iter().chain(&val_pairs).copied().collect();
        let x_test = assemble_gnn_input(tkg, embeddings, &visible);
        let targets: Vec<NodeId> = test_pairs.iter().map(|&(n, _)| n).collect();
        let preds = trail_gnn::train::predict_events(&mut model, &csr, &x_test, &targets);
        let truth: Vec<u16> = test_pairs.iter().map(|&(_, c)| c).collect();
        let pred: Vec<u16> = preds.iter().map(|&(c, _)| c).collect();
        scores.acc.push(accuracy(&truth, &pred));
        scores
            .bacc
            .push(balanced_accuracy(&truth, &pred, tkg.n_classes()));
    }
    scores
}

/// GraphSAGE with confidence thresholding (the paper's Section IX
/// future-work direction): events whose top-class probability falls
/// below `threshold` are left unattributed. Returns
/// `(precision on attributed events, coverage)` averaged over folds.
#[allow(clippy::too_many_arguments)]
pub fn eval_event_gnn_thresholded<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    embeddings: &NodeEmbeddings,
    layers: usize,
    cfg: &GnnEvalConfig,
    k: usize,
    threshold: f32,
) -> (f64, f64) {
    let csr = tkg.csr();
    let kf = event_folds(rng, tkg, k);
    let mut precisions = Vec::new();
    let mut coverages = Vec::new();
    for (train_ev, test_ev) in kf.splits() {
        let train_pairs: Vec<(NodeId, u16)> = train_ev
            .iter()
            .map(|&i| (tkg.events[i].node, tkg.events[i].apt))
            .collect();
        let mut x = assemble_gnn_input(tkg, embeddings, &train_pairs);
        let sage_cfg = trail_gnn::SageConfig {
            input_dim: x.cols(),
            hidden: cfg.hidden,
            layers,
            n_classes: tkg.n_classes(),
            l2_normalize: cfg.l2_normalize,
        };
        let masking = trail_gnn::LabelMasking {
            offset: embeddings.code_dim + 5,
            visible_fraction: cfg.label_visible_fraction,
        };
        let (mut model, _) = trail_gnn::train_sage_masked(
            rng,
            &csr,
            &mut x,
            sage_cfg,
            &train_pairs,
            &[],
            &cfg.train,
            masking,
        );
        let targets: Vec<NodeId> = test_ev.iter().map(|&i| tkg.events[i].node).collect();
        let preds = trail_gnn::train::predict_events(&mut model, &csr, &x, &targets);
        let mut attributed = 0usize;
        let mut correct = 0usize;
        for (&ei, &(pred, conf)) in test_ev.iter().zip(&preds) {
            if conf >= threshold {
                attributed += 1;
                if pred == tkg.events[ei].apt {
                    correct += 1;
                }
            }
        }
        coverages.push(attributed as f64 / test_ev.len().max(1) as f64);
        precisions.push(if attributed > 0 {
            correct as f64 / attributed as f64
        } else {
            0.0
        });
    }
    (
        precisions.iter().sum::<f64>() / precisions.len().max(1) as f64,
        coverages.iter().sum::<f64>() / coverages.len().max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TrailSystem;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;
    use trail_osint::{OsintClient, World, WorldConfig};

    fn tiny_system() -> TrailSystem {
        let world = Arc::new(World::generate(WorldConfig::tiny(77)));
        let client = OsintClient::new(world);
        let cutoff = client.world().config.cutoff_day;
        TrailSystem::build(client, cutoff)
    }

    #[test]
    fn ioc_datasets_are_single_label_and_first_order() {
        let sys = tiny_system();
        let mut rng = StdRng::seed_from_u64(1);
        let datasets = ioc_datasets(&mut rng, &sys.tkg, 0);
        assert_eq!(datasets.len(), 3);
        for ds in &datasets {
            for (row, &node) in ds.nodes.iter().enumerate() {
                let rec = sys.tkg.graph.node(node);
                assert!(rec.first_order());
                let apts = sys.tkg.reporting_apts(node);
                assert_eq!(apts.len(), 1);
                assert_eq!(apts[0], ds.data.y[row]);
            }
        }
        // The generated world must yield usable training data.
        assert!(datasets.iter().any(|d| d.data.len() > 20));
    }

    #[test]
    fn crossval_ioc_beats_random_for_xgb() {
        let sys = tiny_system();
        let mut rng = StdRng::seed_from_u64(2);
        let datasets = ioc_datasets(&mut rng, &sys.tkg, 400);
        let ds = datasets.iter().max_by_key(|d| d.data.len()).unwrap();
        let scores = crossval_ioc(&mut rng, ds, ModelKind::Xgb, &IocModelSettings::fast(), 3);
        let (acc, _) = scores.acc_mean_std();
        let random = 1.0 / sys.tkg.n_classes() as f64;
        assert!(acc > random, "acc {acc} <= random {random}");
    }

    #[test]
    fn tpe_tuning_returns_valid_settings() {
        let sys = tiny_system();
        let mut rng = StdRng::seed_from_u64(6);
        let mut base = IocModelSettings::fast();
        base.max_samples = 300;
        let datasets = ioc_datasets(&mut rng, &sys.tkg, base.max_samples);
        let ds = datasets.iter().max_by_key(|d| d.data.len()).unwrap();
        let tuned = tune_with_tpe(&mut rng, ds, ModelKind::Rf, &base, 3);
        assert!((8..=64).contains(&tuned.forest.n_trees));
        assert!((6..=24).contains(&tuned.forest.tree.max_depth));
        assert!((1..=8).contains(&tuned.forest.tree.min_samples_leaf));
        // Non-forest fields untouched.
        assert_eq!(tuned.gbt.n_rounds, base.gbt.n_rounds);
    }

    #[test]
    fn lp_eval_produces_reasonable_scores() {
        let sys = tiny_system();
        let mut rng = StdRng::seed_from_u64(3);
        let s2 = eval_event_lp(&mut rng, &sys.tkg, 2, 3);
        let s4 = eval_event_lp(&mut rng, &sys.tkg, 4, 3);
        let (a2, _) = s2.acc_mean_std();
        let (a4, _) = s4.acc_mean_std();
        let random = 1.0 / sys.tkg.n_classes() as f64;
        assert!(a2 > random, "LP2 {a2}");
        assert!(a4 > random, "LP4 {a4}");
    }

    #[test]
    fn event_ml_eval_runs_and_beats_random() {
        let sys = tiny_system();
        let mut rng = StdRng::seed_from_u64(4);
        let scores = eval_event_ml(
            &mut rng,
            &sys.tkg,
            ModelKind::Rf,
            &IocModelSettings::fast(),
            3,
        );
        let (acc, _) = scores.acc_mean_std();
        assert!(acc > 1.0 / sys.tkg.n_classes() as f64, "{acc}");
    }

    #[test]
    fn gnn_eval_runs_on_tiny_world() {
        let sys = tiny_system();
        let mut rng = StdRng::seed_from_u64(5);
        let ae_cfg = trail_ml::nn::autoencoder::AutoencoderConfig {
            hidden: 32,
            code: 8,
            epochs: 2,
            batch_size: 64,
            lr: 1e-3,
        };
        let (emb, _) = crate::embed::train_autoencoders(&mut rng, &sys.tkg, &ae_cfg);
        let cfg = GnnEvalConfig {
            hidden: 16,
            train: trail_gnn::TrainConfig {
                lr: 0.02,
                epochs: 120,
                patience: 0,
            },
            val_fraction: 0.1,
            l2_normalize: true,
            label_visible_fraction: 0.5,
            sampled_neighbor_cap: None,
        };
        let scores = eval_event_gnn(&mut rng, &sys.tkg, &emb, 2, &cfg, 3);
        let (acc, _) = scores.acc_mean_std();
        assert!(acc > 1.0 / sys.tkg.n_classes() as f64, "{acc}");
    }
}
