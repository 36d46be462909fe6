//! GNNExplainer (Ying et al., NeurIPS 2019) — paper Section VII-D,
//! Fig. 10.
//!
//! Learns a soft mask over the half-edges an `L`-layer model reads for
//! the target — the rows of the members within `L−1` hops of its
//! `L`-hop [`Ball`] — that keeps the model's prediction while being
//! sparse and near-binary: minimise
//! `-log p(class | masked graph) + λ₁·Σσ(θ) + λ₂·Σ H(σ(θ))`.
//! The mask weights the model's own neighbour mean, `Σ m·h / Σ m`, in
//! its own row-set forward and backward (DESIGN.md §10); the root term
//! is unmasked, since the node itself is always present. With every
//! entry at 1 the masked forward is the model's forward, so
//! [`Explanation::base_probability`] is the model's prediction bit for
//! bit.

use trail_graph::algo::Ball;
use trail_graph::{Csr, NodeId};
use trail_linalg::Matrix;

use crate::sage::{EdgeGrad, LayerRows, SageModel};

/// Explainer hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExplainerConfig {
    /// Gradient-descent steps.
    pub steps: usize,
    /// Learning rate on the mask logits.
    pub lr: f32,
    /// Sparsity penalty (λ₁).
    pub sparsity: f32,
    /// Mask-entropy penalty (λ₂).
    pub entropy: f32,
}

impl Default for ExplainerConfig {
    fn default() -> Self {
        Self {
            steps: 120,
            lr: 0.1,
            sparsity: 0.02,
            entropy: 0.05,
        }
    }
}

/// An explanation of one node's prediction, in global node ids.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explained node.
    pub target: NodeId,
    /// The target's `L`-hop ball (`L` = model depth), ascending id.
    pub members: Vec<NodeId>,
    /// The masked half-edges `(v, u)`, meaning `v`'s mean reads `u`:
    /// every half-edge the model reads, row by row in CSR order. A
    /// parallel edge or a self-loop has an entry of its own.
    pub edges: Vec<(NodeId, NodeId)>,
    /// The learned mask per edge, in `[0,1]`.
    pub edge_importance: Vec<f32>,
    /// Per member: the sum of the importances of the masked half-edges
    /// it starts or ends.
    pub node_importance: Vec<f32>,
    /// The model's probability of the explained class with every mask
    /// entry at 1: its own prediction, bit for bit.
    pub base_probability: f32,
}

impl Explanation {
    /// The `k` most important members other than the target, most
    /// important first (ties in ascending id).
    pub fn top_nodes(&self, k: usize) -> Vec<(NodeId, f32)> {
        let mut order: Vec<(NodeId, f32)> = self
            .members
            .iter()
            .copied()
            .zip(self.node_importance.iter().copied())
            .filter(|&(v, _)| v != self.target)
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1));
        order.truncate(k);
        order
    }
}

/// Run GNNExplainer for the model's prediction of `class` at `target`,
/// on the full graph `csr` with model input `x` (one row per node).
/// The model is not changed: the explainer runs a copy of it.
pub fn explain(
    model: &SageModel,
    csr: &Csr,
    x: &Matrix,
    target: NodeId,
    class: usize,
    cfg: &ExplainerConfig,
) -> Explanation {
    let _span = trail_obs::span("gnn.explain");
    let depth = model.config().layers;
    let n_classes = model.config().n_classes;
    let ball = Ball::new(csr, &[target], depth as u32);
    let rows: Vec<usize> = ball.members().iter().map(|m| m.index()).collect();
    let x_ball = x.gather_rows(&rows);
    let sub = &ball.induced(csr);
    let root = ball.local(target).expect("the target is in its ball");
    let layer_rows = LayerRows::new(sub, &[root], depth);
    // The model reads the rows of the members within `depth − 1` hops:
    // one mask entry per slot of those rows.
    let mut slots = Vec::new();
    let mut local_edges = Vec::new();
    for (i, &hop) in ball.hops().iter().enumerate() {
        if hop as usize >= depth {
            continue;
        }
        let v = NodeId::from(i);
        for (s, &u) in sub.slots(v).zip(sub.neighbors(v)) {
            slots.push(s);
            local_edges.push((i, u.index()));
        }
    }

    let mut model = model.clone();
    let mut weights = vec![1.0f32; sub.half_edge_count()];
    let mut proba = vec![0.0f32; n_classes];
    let forward = |model: &mut SageModel, weights: &[f32], proba: &mut [f32]| {
        let logits = model.forward_rows(sub, &x_ball, Some(&layer_rows), Some(weights), true);
        proba.copy_from_slice(logits.row(0));
        trail_linalg::vector::softmax_inplace(proba);
    };
    forward(&mut model, &weights, &mut proba);
    let base_probability = proba[class];

    // Mask logits start around sigmoid(2) ~ 0.88 with a deterministic
    // per-entry jitter to break symmetry.
    let mut theta: Vec<f32> = (0..slots.len())
        .map(|e| 2.0 + 0.01 * ((e * 2654435761) % 100) as f32 / 100.0)
        .collect();
    let mut m_adam = vec![(0.0f32, 0.0f32); slots.len()];
    let mut grad = vec![0.0f32; weights.len()];
    let mut d_logits = Matrix::zeros(1, n_classes);
    for step in 1..=cfg.steps {
        for (&s, &t) in slots.iter().zip(&theta) {
            weights[s] = sigmoid(t);
        }
        forward(&mut model, &weights, &mut proba);
        // d(-log p_class)/d logits = softmax - onehot.
        for (c, (d, &p)) in d_logits.row_mut(0).iter_mut().zip(&proba).enumerate() {
            *d = p - if c == class { 1.0 } else { 0.0 };
        }
        grad.fill(0.0);
        let edge = EdgeGrad {
            x: &x_ball,
            weights: &weights,
            grad: &mut grad,
        };
        model.backward_rows(sub, &d_logits, Some(&layer_rows), Some(edge));
        // Regularisers.
        for (e, &s) in slots.iter().enumerate() {
            let m = weights[s];
            let mut g = grad[s] + cfg.sparsity;
            // d/dm of H(m) = -ln(m/(1-m)).
            if m > 1e-6 && m < 1.0 - 1e-6 {
                g += cfg.entropy * (-(m / (1.0 - m)).ln());
            }
            // Chain through the sigmoid.
            let g_theta = g * m * (1.0 - m);
            // Adam-lite per-entry update.
            let (ref mut mom, ref mut vel) = m_adam[e];
            *mom = 0.9 * *mom + 0.1 * g_theta;
            *vel = 0.999 * *vel + 0.001 * g_theta * g_theta;
            let mh = *mom / (1.0 - 0.9f32.powi(step as i32));
            let vh = *vel / (1.0 - 0.999f32.powi(step as i32));
            theta[e] -= cfg.lr * mh / (vh.sqrt() + 1e-8);
        }
    }
    let edge_importance: Vec<f32> = theta.iter().map(|&t| sigmoid(t)).collect();
    let mut node_importance = vec![0.0f32; ball.len()];
    for (&(v, u), &m) in local_edges.iter().zip(&edge_importance) {
        node_importance[v] += m;
        node_importance[u] += m;
    }
    let members = ball.members();
    Explanation {
        target,
        members: members.to_vec(),
        edges: local_edges
            .iter()
            .map(|&(v, u)| (members[v], members[u]))
            .collect(),
        edge_importance,
        node_importance,
        base_probability,
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sage::SageConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use trail_graph::{EdgeKind, GraphStore, NodeKind};

    /// Event with two IOC neighbours: one carries the class-0 signal,
    /// one pushes class 1. A hand-built one-layer model with known
    /// weights makes the ground-truth edge ranking unambiguous:
    /// `logit_c = agg[c] * 4`, signal node = [1,0], noise node = [0,1].
    fn setup() -> (SageModel, Csr, Matrix) {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let signal = g.upsert_node(NodeKind::Ip, "1.1.1.1");
        let noise = g.upsert_node(NodeKind::Ip, "2.2.2.2");
        g.add_edge(e, signal, EdgeKind::InReport).unwrap();
        g.add_edge(e, noise, EdgeKind::InReport).unwrap();
        let csr = Csr::from_store(&g);

        // Features: event = [0,0], signal = [1,0], noise = [0,1].
        let x = Matrix::from_vec(3, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0]).unwrap();

        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SageConfig::new(2, 8, 1, 2);
        let mut model = SageModel::new(&mut rng, cfg);
        let w_nbr = Matrix::from_vec(2, 2, vec![4.0, 0.0, 0.0, 4.0]).unwrap();
        model.set_layer_weights(0, Matrix::zeros(2, 2), w_nbr, Matrix::zeros(1, 2));
        (model, csr, x)
    }

    const EVENT: NodeId = NodeId(0);

    #[test]
    fn importances_are_probabilities() {
        let (model, csr, x) = setup();
        let expl = explain(&model, &csr, &x, EVENT, 0, &ExplainerConfig::default());
        // A one-layer model reads the event's row only.
        assert_eq!(expl.edges, vec![(EVENT, NodeId(1)), (EVENT, NodeId(2))]);
        assert_eq!(expl.edge_importance.len(), expl.edges.len());
        assert!(expl
            .edge_importance
            .iter()
            .all(|&m| (0.0..=1.0).contains(&m)));
        // With all edges on, the two classes balance out exactly.
        assert_eq!(expl.base_probability, 0.5);
    }

    #[test]
    fn signal_edge_outranks_noise_edge() {
        let (model, csr, x) = setup();
        let expl = explain(&model, &csr, &x, EVENT, 0, &ExplainerConfig::default());
        let importance = |v: NodeId| expl.node_importance[v.index()];
        assert!(
            importance(NodeId(1)) >= importance(NodeId(2)),
            "signal {} vs noise {}",
            importance(NodeId(1)),
            importance(NodeId(2))
        );
        assert_eq!(expl.top_nodes(1)[0].0, NodeId(1));
    }

    #[test]
    fn sparsity_pressure_lowers_mean_mask() {
        let (model, csr, x) = setup();
        let run = |sparsity: f32| {
            let cfg = ExplainerConfig {
                sparsity,
                entropy: 0.0,
                ..Default::default()
            };
            explain(&model, &csr, &x, EVENT, 0, &cfg).edge_importance
        };
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(mean(&run(1.0)) < mean(&run(0.0)));
    }

    /// `base_probability` is the model's own prediction bit for bit, at
    /// every node of a multigraph with parallel edges, a self-loop and
    /// an isolate, for 2- and 3-layer models with L2 on and off.
    #[test]
    fn base_probability_is_the_models_prediction_bitwise() {
        let pairs = [
            (0, 1),
            (0, 1),
            (1, 2),
            (2, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 1),
        ];
        let edges: Vec<(NodeId, NodeId, EdgeKind)> = pairs
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b), EdgeKind::InReport))
            .collect();
        // Node 6 is the isolate.
        let csr = Csr::from_edge_list(7, &edges);
        let mut rng = StdRng::seed_from_u64(11);
        let x = Matrix::from_fn(7, 4, |_, _| rng.gen_range(-1.0f32..1.0));
        let steps = ExplainerConfig {
            steps: 3,
            ..Default::default()
        };
        for layers in [2, 3] {
            for l2_normalize in [false, true] {
                let cfg = SageConfig {
                    l2_normalize,
                    ..SageConfig::new(4, 5, layers, 3)
                };
                let mut model = SageModel::new(&mut StdRng::seed_from_u64(layers as u64), cfg);
                let proba = model.predict_proba(&csr, &x);
                for v in 0..csr.node_count() {
                    let class = v % 3;
                    let expl = explain(&model, &csr, &x, NodeId::from(v), class, &steps);
                    assert_eq!(
                        expl.base_probability.to_bits(),
                        proba[(v, class)].to_bits(),
                        "node {v}, {layers} layers, L2 {l2_normalize}"
                    );
                }
            }
        }
    }
}
