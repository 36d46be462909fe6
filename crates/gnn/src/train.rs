//! The masked training protocol of Section VII-B.
//!
//! Event labels in the training fold are visible as input features
//! ("during validation, the event nodes in the training set are given
//! labels, and the validation nodes' labels are masked"); the model is
//! optimised with cross-entropy on train-fold event logits, early-
//! stopped on validation accuracy, then evaluated on the test fold with
//! all non-train labels hidden. Fine-tuning (a few epochs from the
//! previous month's weights) drives the Fig. 8 retraining study.
//!
//! Every entry point builds its [`LayerRows`] once per call from its
//! own roots (the supervised events, the validation events or the
//! prediction targets), so each epoch and prediction computes only the
//! rows its loss or answers read — bitwise the full-graph pass
//! (DESIGN.md §10).

use rand::Rng;
use trail_graph::{Csr, NodeId};
use trail_linalg::Matrix;
use trail_ml::nn::loss::softmax_cross_entropy_into;
use trail_ml::nn::Adam;

use crate::sage::{ensure_shape, LayerRows, SageConfig, SageModel};

/// Training parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Adam learning rate (paper: 1e-4; scaled up at our reduced width).
    pub lr: f32,
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stop patience on validation accuracy (0 disables).
    pub patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 5e-3,
            epochs: 120,
            patience: 15,
        }
    }
}

/// Fine-tuning parameters (paper: "<10 epochs before convergence").
#[derive(Debug, Clone, Copy)]
pub struct FineTune {
    /// Learning rate for the continuation.
    pub lr: f32,
    /// Epochs.
    pub epochs: usize,
}

impl Default for FineTune {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            epochs: 8,
        }
    }
}

/// Reusable buffers for the per-epoch training round trip. Sized
/// lazily on first use; after that an epoch's loss/gradient assembly
/// performs no heap allocation (the computation itself runs in the
/// model's layer buffers).
struct EpochWorkspace {
    rows: Vec<usize>,
    y: Vec<u16>,
    pred: Vec<u16>,
    sub: Matrix,
    d_sub: Matrix,
    d_logits: Matrix,
}

impl EpochWorkspace {
    fn new() -> Self {
        Self {
            rows: Vec::new(),
            y: Vec::new(),
            pred: Vec::new(),
            sub: Matrix::zeros(0, 0),
            d_sub: Matrix::zeros(0, 0),
            d_logits: Matrix::zeros(0, 0),
        }
    }

    /// Cross-entropy over the labelled nodes' logits, whose rows `rows`
    /// locates; the gradient lands in `self.d_logits` (zero on every
    /// other row). Returns `(loss, accuracy_on_rows)`.
    fn masked_loss_into(
        &mut self,
        logits: &Matrix,
        labelled: &[(NodeId, u16)],
        rows: &LayerRows,
    ) -> (f32, f64) {
        self.rows.clear();
        self.rows
            .extend(labelled.iter().map(|&(id, _)| rows.root_row(id)));
        self.y.clear();
        self.y.extend(labelled.iter().map(|&(_, c)| c));
        ensure_shape(&mut self.sub, labelled.len(), logits.cols());
        logits
            .gather_rows_into(&self.rows, &mut self.sub)
            .expect("gather rows");
        self.pred.clear();
        self.pred.extend(
            self.sub
                .rows_iter()
                .map(|r| trail_linalg::vector::argmax(r).unwrap_or(0) as u16),
        );
        let acc = trail_ml::metrics::accuracy(&self.y, &self.pred);
        ensure_shape(&mut self.d_sub, labelled.len(), logits.cols());
        let loss = softmax_cross_entropy_into(&self.sub, &self.y, &mut self.d_sub);
        ensure_shape(&mut self.d_logits, logits.rows(), logits.cols());
        self.d_logits.as_mut_slice().fill(0.0);
        for (i, &r) in self.rows.iter().enumerate() {
            self.d_logits.row_mut(r).copy_from_slice(self.d_sub.row(i));
        }
        (loss, acc)
    }
}

/// One masked-label training epoch: shuffle, hide target labels,
/// forward, masked loss, backward, step, restore labels. The passes
/// compute the row sets `rows` of every `train` node; the targets are
/// among them. Every intermediate lives in `ws`, `targets` or the
/// model's layer buffers, so the steady state (shapes unchanged since
/// the previous epoch) allocates nothing.
#[allow(clippy::too_many_arguments)]
fn masked_epoch<R: Rng + ?Sized>(
    rng: &mut R,
    model: &mut SageModel,
    csr: &Csr,
    x: &mut Matrix,
    train: &[(NodeId, u16)],
    rows: &LayerRows,
    order: &mut [usize],
    targets: &mut Vec<(NodeId, u16)>,
    n_targets: usize,
    masking: LabelMasking,
    adam: &mut Adam,
    ws: &mut EpochWorkspace,
) -> f32 {
    use rand::seq::SliceRandom;
    let _span = trail_obs::span("gnn.sage_epoch");
    order.shuffle(rng);
    targets.clear();
    targets.extend(order[..n_targets].iter().map(|&i| train[i]));
    // Hide target labels.
    for &(node, label) in targets.iter() {
        x[(node.index(), masking.offset + label as usize)] = 0.0;
    }
    let logits = model.forward_rows(csr, x, Some(rows), None, true);
    let (loss, _) = ws.masked_loss_into(logits, targets, rows);
    model.backward_rows(csr, &ws.d_logits, Some(rows), None);
    model.step(adam);
    // Restore target labels.
    for &(node, label) in targets.iter() {
        x[(node.index(), masking.offset + label as usize)] = 1.0;
    }
    loss
}

/// Label-as-feature masking parameters for [`train_sage_masked`].
#[derive(Debug, Clone, Copy)]
pub struct LabelMasking {
    /// Column offset of the one-hot label block in the input matrix.
    pub offset: usize,
    /// Fraction of train events whose labels stay visible per epoch;
    /// the rest have their label features zeroed and serve as targets.
    pub visible_fraction: f32,
}

/// Train GraphSAGE with masked-label supervision.
///
/// With labels embedded as input features, naive training lets the
/// model read each event's own label through the self term of the mean
/// aggregation and memorise the training set. Following the
/// masked-label-prediction recipe (Shi et al., UniMP), every epoch
/// splits the train events into a visible-context part and a target
/// part whose label features are zeroed — the model can only predict a
/// target from its neighbourhood, which is the test-time condition.
///
/// `x` must carry the label features of every *train* event (and only
/// those); target labels are masked/restored in place per epoch.
#[allow(clippy::too_many_arguments)]
pub fn train_sage_masked<R: Rng + ?Sized>(
    rng: &mut R,
    csr: &Csr,
    x: &mut Matrix,
    sage_cfg: SageConfig,
    train: &[(NodeId, u16)],
    val: &[(NodeId, u16)],
    cfg: &TrainConfig,
    masking: LabelMasking,
) -> (SageModel, Vec<f32>) {
    assert!(!train.is_empty());
    let mut model = SageModel::new(rng, sage_cfg);
    let mut adam = Adam::new(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut best_val = f64::NEG_INFINITY;
    let mut since_best = 0usize;
    let mut best_snap = None;
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut targets = Vec::with_capacity(train.len());
    let mut ws = EpochWorkspace::new();
    let n_targets = ((train.len() as f32) * (1.0 - masking.visible_fraction))
        .round()
        .max(1.0) as usize;
    let rows = LayerRows::new(csr, &nodes_of(train), sage_cfg.layers);
    let early_stop = cfg.patience > 0 && !val.is_empty();
    let val_rows = early_stop.then(|| LayerRows::new(csr, &nodes_of(val), sage_cfg.layers));
    let mut val_ws = EpochWorkspace::new();
    for _epoch in 0..cfg.epochs {
        let loss = masked_epoch(
            rng,
            &mut model,
            csr,
            x,
            train,
            &rows,
            &mut order,
            &mut targets,
            n_targets,
            masking,
            &mut adam,
            &mut ws,
        );
        losses.push(loss);
        if let Some(val_rows) = &val_rows {
            let val_logits = model.forward_rows(csr, x, Some(val_rows), None, false);
            let (_, val_acc) = val_ws.masked_loss_into(val_logits, val, val_rows);
            if val_acc > best_val + 1e-9 {
                best_val = val_acc;
                since_best = 0;
                best_snap = Some(model.snapshot_params());
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    break;
                }
            }
        }
    }
    // Early stopping returns the weights of the best validation epoch,
    // not whatever the last `patience` epochs drifted to.
    if let Some(snap) = &best_snap {
        model.restore_params(snap);
    }
    (model, losses)
}

/// Continue training an existing model on new labelled events with
/// per-epoch label masking (the monthly fine-tune of Fig. 8).
/// `x` must carry the label features of all visible events including
/// the new ones; targets' labels are hidden while they are predicted.
pub fn fine_tune_masked<R: Rng + ?Sized>(
    rng: &mut R,
    model: &mut SageModel,
    csr: &Csr,
    x: &mut Matrix,
    train: &[(NodeId, u16)],
    ft: &FineTune,
    masking: LabelMasking,
) -> Vec<f32> {
    assert!(!train.is_empty());
    let mut adam = Adam::new(ft.lr);
    model.reset_optimizer_state();
    let mut losses = Vec::with_capacity(ft.epochs);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut targets = Vec::with_capacity(train.len());
    let mut ws = EpochWorkspace::new();
    let n_targets = ((train.len() as f32) * (1.0 - masking.visible_fraction))
        .round()
        .max(1.0) as usize;
    let rows = LayerRows::new(csr, &nodes_of(train), model.config().layers);
    for _ in 0..ft.epochs {
        let loss = masked_epoch(
            rng,
            model,
            csr,
            x,
            train,
            &rows,
            &mut order,
            &mut targets,
            n_targets,
            masking,
            &mut adam,
            &mut ws,
        );
        losses.push(loss);
    }
    losses
}

/// The nodes of `(node, label)` pairs.
fn nodes_of(pairs: &[(NodeId, u16)]) -> Vec<NodeId> {
    pairs.iter().map(|&(n, _)| n).collect()
}

/// Evaluate: predicted class and confidence for each target event.
/// Computes only the rows the targets' logits depend on.
pub fn predict_events(
    model: &mut SageModel,
    csr: &Csr,
    x: &Matrix,
    targets: &[NodeId],
) -> Vec<(u16, f32)> {
    let rows = LayerRows::new(csr, targets, model.config().layers);
    let proba = model.proba_rows(csr, x, Some(&rows));
    targets
        .iter()
        .map(|&t| {
            let row = proba.row(rows.root_row(t));
            let c = trail_linalg::vector::argmax(row).unwrap_or(0);
            (c as u16, row[c])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use trail_graph::{EdgeKind, GraphStore, NodeKind};

    /// Two clusters of events: class-0 events share IP a, class-1 share
    /// IP b; features carry a weak class signal.
    fn clustered(n_per: usize) -> (GraphStore, Vec<(NodeId, u16)>) {
        let mut g = GraphStore::new();
        let ip_a = g.upsert_node(NodeKind::Ip, "10.0.0.1");
        let ip_b = g.upsert_node(NodeKind::Ip, "10.0.0.2");
        let mut events = Vec::new();
        for i in 0..n_per * 2 {
            let class = (i % 2) as u16;
            let e = g.upsert_node(NodeKind::Event, &format!("e{i}"));
            g.add_edge(e, if class == 0 { ip_a } else { ip_b }, EdgeKind::InReport)
                .unwrap();
            events.push((e, class));
        }
        (g, events)
    }

    fn features(g: &GraphStore, events: &[(NodeId, u16)], visible: usize) -> Matrix {
        // 3 features: [is_event, label0_visible, label1_visible].
        let mut x = Matrix::zeros(g.node_count(), 3);
        for (i, &(id, class)) in events.iter().enumerate() {
            x[(id.index(), 0)] = 1.0;
            if i < visible {
                x[(id.index(), 1 + class as usize)] = 1.0;
            }
        }
        x
    }

    const MASKING: LabelMasking = LabelMasking {
        offset: 1,
        visible_fraction: 0.5,
    };

    /// Validation accuracy of `model` on `val`.
    fn val_accuracy(model: &mut SageModel, csr: &Csr, x: &Matrix, val: &[(NodeId, u16)]) -> f64 {
        let targets = nodes_of(val);
        let preds = predict_events(model, csr, x, &targets);
        let hits = preds
            .iter()
            .zip(val)
            .filter(|((p, _), (_, t))| p == t)
            .count();
        hits as f64 / val.len() as f64
    }

    #[test]
    fn learns_clustered_events() {
        let (g, events) = clustered(8);
        let csr = Csr::from_store(&g);
        let mut x = features(&g, &events, 8); // first 8 labels visible
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SageConfig::new(3, 16, 2, 2);
        let train: Vec<_> = events[..8].to_vec();
        let val: Vec<_> = events[8..12].to_vec();
        let (mut model, losses) = train_sage_masked(
            &mut rng,
            &csr,
            &mut x,
            cfg,
            &train,
            &val,
            &TrainConfig {
                lr: 0.03,
                epochs: 80,
                patience: 20,
            },
            MASKING,
        );
        assert!(losses.last().unwrap() < &losses[0]);
        assert!(val_accuracy(&mut model, &csr, &x, &events[8..]) > 0.8);
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let (g, events) = clustered(6);
        let csr = Csr::from_store(&g);
        let mut x = features(&g, &events, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SageConfig::new(3, 8, 2, 2);
        let train: Vec<_> = events[..6].to_vec();
        let val: Vec<_> = events[6..9].to_vec();
        let (_, losses) = train_sage_masked(
            &mut rng,
            &csr,
            &mut x,
            cfg,
            &train,
            &val,
            &TrainConfig {
                lr: 0.05,
                epochs: 500,
                patience: 5,
            },
            MASKING,
        );
        assert!(losses.len() < 500, "never early-stopped");
    }

    #[test]
    fn early_stopping_returns_best_validation_weights() {
        // The validation passes draw no randomness, so two runs from the
        // same seed follow bitwise-identical parameter trajectories.
        // Train once with patience to get the stop epoch, then replay
        // exactly that many epochs with patience 0 to materialise the
        // *last-epoch* model, and check the early-stop return is at
        // least as good on validation.
        let (g, events) = clustered(6);
        let csr = Csr::from_store(&g);
        let mut x = features(&g, &events, 6);
        let cfg = SageConfig::new(3, 8, 2, 2);
        let train: Vec<_> = events[..6].to_vec();
        let val: Vec<_> = events[6..9].to_vec();
        let seed = 2;
        let (mut stopped, losses) = train_sage_masked(
            &mut StdRng::seed_from_u64(seed),
            &csr,
            &mut x,
            cfg,
            &train,
            &val,
            &TrainConfig {
                lr: 0.05,
                epochs: 500,
                patience: 5,
            },
            MASKING,
        );
        assert!(losses.len() < 500, "never early-stopped");
        let (mut last_epoch, replay) = train_sage_masked(
            &mut StdRng::seed_from_u64(seed),
            &csr,
            &mut x,
            cfg,
            &train,
            &val,
            &TrainConfig {
                lr: 0.05,
                epochs: losses.len(),
                patience: 0,
            },
            MASKING,
        );
        assert_eq!(
            replay, losses,
            "replay diverged; epochs are not deterministic"
        );
        let stopped_acc = val_accuracy(&mut stopped, &csr, &x, &val);
        let last_acc = val_accuracy(&mut last_epoch, &csr, &x, &val);
        assert!(
            stopped_acc >= last_acc,
            "early-stop model ({stopped_acc}) scores worse on val than last epoch ({last_acc})"
        );
    }

    /// A model trained with early stopping on the first eight events.
    fn trained_on_first_eight(g: &GraphStore, events: &[(NodeId, u16)], seed: u64) -> SageModel {
        let csr = Csr::from_store(g);
        let mut x = features(g, events, 8);
        let train: Vec<_> = events[..8].to_vec();
        let val: Vec<_> = events[8..12].to_vec();
        let tc = TrainConfig {
            lr: 0.03,
            epochs: 40,
            patience: 10,
        };
        let cfg = SageConfig::new(3, 16, 2, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        train_sage_masked(&mut rng, &csr, &mut x, cfg, &train, &val, &tc, MASKING).0
    }

    #[test]
    fn fine_tuning_reduces_loss_on_new_data() {
        let (g, events) = clustered(8);
        let csr = Csr::from_store(&g);
        let mut model = trained_on_first_eight(&g, &events, 3);
        // Fine-tune on the remaining events as "new month" data.
        let new_data: Vec<_> = events[8..].to_vec();
        let mut x = features(&g, &events, events.len());
        let ft = FineTune {
            lr: 0.01,
            epochs: 8,
        };
        let mut rng = StdRng::seed_from_u64(8);
        let losses = fine_tune_masked(&mut rng, &mut model, &csr, &mut x, &new_data, &ft, MASKING);
        assert_eq!(losses.len(), 8);
        assert!(losses.last().unwrap() <= &losses[0]);
    }

    /// A model rebuilt from saved weights alone must fine-tune along
    /// the exact trajectory of the original — i.e. optimiser moments
    /// from earlier training must not leak into the next fine-tune
    /// pass. This is what makes a weight-only checkpoint sufficient
    /// for bitwise crash recovery.
    #[test]
    fn fine_tuning_a_weight_restored_model_is_bitwise_identical() {
        let (g, events) = clustered(8);
        let csr = Csr::from_store(&g);
        let cfg = SageConfig::new(3, 16, 2, 2);
        let mut original = trained_on_first_eight(&g, &events, 4);
        // Rebuild from weight values only, as checkpoint restore does.
        let mut restored = SageModel::new(&mut StdRng::seed_from_u64(999), cfg);
        for (l, (w_root, w_nbr, b)) in original.weights().into_iter().enumerate() {
            let (w_root, w_nbr, b) = (w_root.clone(), w_nbr.clone(), b.clone());
            restored.set_layer_weights(l, w_root, w_nbr, b);
        }
        let new_data: Vec<_> = events[8..].to_vec();
        let masking = MASKING;
        let ft = FineTune {
            lr: 0.01,
            epochs: 6,
        };
        let mut x_a = features(&g, &events, events.len());
        let mut x_b = x_a.clone();
        let losses_a = fine_tune_masked(
            &mut StdRng::seed_from_u64(7),
            &mut original,
            &csr,
            &mut x_a,
            &new_data,
            &ft,
            masking,
        );
        let losses_b = fine_tune_masked(
            &mut StdRng::seed_from_u64(7),
            &mut restored,
            &csr,
            &mut x_b,
            &new_data,
            &ft,
            masking,
        );
        assert_eq!(losses_a, losses_b, "loss trajectories diverged");
        for (la, lb) in original.weights().into_iter().zip(restored.weights()) {
            assert_eq!(la, lb, "fine-tuned weights diverged after restore");
        }
    }
}
