//! CART classification trees (Gini impurity), the base learner of the
//! Random Forest.

use rand::seq::SliceRandom;
use rand::Rng;
use trail_linalg::Matrix;

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSampling {
    /// Consider every feature (single-tree CART).
    All,
    /// `sqrt(n_features)` — the Random Forest default.
    Sqrt,
}

impl FeatureSampling {
    fn count(self, n_features: usize) -> usize {
        match self {
            FeatureSampling::All => n_features,
            FeatureSampling::Sqrt => (n_features as f32).sqrt().ceil() as usize,
        }
        .max(1)
    }
}

/// Tree growth parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Feature subsampling per split.
    pub feature_sampling: FeatureSampling,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            feature_sampling: FeatureSampling::All,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Terminal node.
    Leaf {
        /// Class distribution of training samples reaching this node.
        proba: Vec<f32>,
    },
    /// Internal split: `row[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: u32,
        /// Split threshold.
        threshold: f32,
        /// Left child node index.
        left: u32,
        /// Right child node index.
        right: u32,
    },
}

/// A fitted CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Fit on the rows of `x` selected by `indices` (duplicates allowed —
    /// that is how the forest passes bootstrap samples).
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        x: &Matrix,
        y: &[u16],
        indices: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
    ) -> Self {
        assert_eq!(x.rows(), y.len());
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = Self {
            nodes: Vec::new(),
            n_classes,
        };
        let mut work = indices.to_vec();
        let features: Vec<u32> = (0..x.cols() as u32).collect();
        tree.grow(rng, x, y, &mut work, 0, cfg, &features);
        tree
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Class probabilities for one feature row.
    pub fn predict_proba_row(&self, row: &[f32]) -> &[f32] {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { proba } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    at = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    // The recursion's own state; bundling it would only rename it.
    #[allow(clippy::too_many_arguments)]
    fn grow<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        x: &Matrix,
        y: &[u16],
        indices: &mut [usize],
        depth: usize,
        cfg: &TreeConfig,
        features: &[u32],
    ) -> u32 {
        let proba = class_distribution(y, indices, self.n_classes);
        let node_id = self.nodes.len() as u32;
        let pure = proba.iter().any(|&p| p >= 1.0 - 1e-6);
        if depth >= cfg.max_depth || indices.len() < cfg.min_samples_split || pure {
            self.nodes.push(Node::Leaf { proba });
            return node_id;
        }
        // Sample candidate features without replacement.
        let k = cfg.feature_sampling.count(features.len());
        let candidates: Vec<u32> = if k >= features.len() {
            features.to_vec()
        } else {
            let mut f = features.to_vec();
            f.partial_shuffle(rng, k);
            f.truncate(k);
            f
        };
        let Some((feature, threshold)) = best_gini_split(
            x,
            y,
            indices,
            &candidates,
            self.n_classes,
            cfg.min_samples_leaf,
        ) else {
            self.nodes.push(Node::Leaf { proba });
            return node_id;
        };
        // Partition in place.
        let mid = partition(x, indices, feature, threshold);
        if mid == 0 || mid == indices.len() {
            // Degenerate split (can only arise from floating-point edge
            // cases in the threshold): growing further would recurse
            // forever, so close the node out as a leaf.
            self.nodes.push(Node::Leaf { proba });
            return node_id;
        }
        // Reserve the split slot, then grow children.
        self.nodes.push(Node::Leaf { proba: Vec::new() }); // placeholder
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        let left = self.grow(rng, x, y, left_idx, depth + 1, cfg, features);
        let right = self.grow(rng, x, y, right_idx, depth + 1, cfg, features);
        self.nodes[node_id as usize] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }
}

impl crate::Classifier for DecisionTree {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for (r, row) in x.rows_iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.predict_proba_row(row));
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

fn class_distribution(y: &[u16], indices: &[usize], n_classes: usize) -> Vec<f32> {
    let mut counts = vec![0f32; n_classes];
    for &i in indices {
        counts[y[i] as usize] += 1.0;
    }
    let total: f32 = counts.iter().sum();
    if total > 0.0 {
        for c in &mut counts {
            *c /= total;
        }
    }
    counts
}

/// Stable in-place partition of `indices` by the split predicate;
/// returns the boundary. Order within halves is irrelevant to growth.
fn partition(x: &Matrix, indices: &mut [usize], feature: u32, threshold: f32) -> usize {
    let mut lo = 0usize;
    let mut hi = indices.len();
    while lo < hi {
        if x[(indices[lo], feature as usize)] <= threshold {
            lo += 1;
        } else {
            hi -= 1;
            indices.swap(lo, hi);
        }
    }
    lo
}

/// Exhaustive best Gini split over the candidate features.
fn best_gini_split(
    x: &Matrix,
    y: &[u16],
    indices: &[usize],
    candidates: &[u32],
    n_classes: usize,
    min_leaf: usize,
) -> Option<(u32, f32)> {
    let n = indices.len();
    let mut total_counts = vec![0f32; n_classes];
    for &i in indices {
        total_counts[y[i] as usize] += 1.0;
    }
    let parent_gini = gini(&total_counts, n as f32);

    let mut best: Option<(u32, f32, f32)> = None; // (feature, threshold, gain)
    let mut sorted: Vec<(f32, u16)> = Vec::with_capacity(n);
    for &f in candidates {
        sorted.clear();
        sorted.extend(indices.iter().map(|&i| (x[(i, f as usize)], y[i])));
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        if sorted[0].0 == sorted[n - 1].0 {
            continue; // constant feature
        }
        let mut left_counts = vec![0f32; n_classes];
        for split_at in 1..n {
            left_counts[sorted[split_at - 1].1 as usize] += 1.0;
            // Only split between distinct values.
            if sorted[split_at].0 == sorted[split_at - 1].0 {
                continue;
            }
            if split_at < min_leaf || n - split_at < min_leaf {
                continue;
            }
            let nl = split_at as f32;
            let nr = (n - split_at) as f32;
            let right_counts: Vec<f32> = total_counts
                .iter()
                .zip(&left_counts)
                .map(|(&t, &l)| t - l)
                .collect();
            let child = (nl / n as f32) * gini(&left_counts, nl)
                + (nr / n as f32) * gini(&right_counts, nr);
            let gain = parent_gini - child;
            if gain > 1e-9 && best.is_none_or(|(_, _, g)| gain > g) {
                // The midpoint of two adjacent f32 values can round up
                // to the upper value, which would send the upper rows
                // left under the `<=` partition and empty the right
                // child. Clamp to the lower value in that case — the
                // `<=` predicate still realises the same split.
                let (lo, hi) = (sorted[split_at - 1].0, sorted[split_at].0);
                let mid_t = 0.5 * (lo + hi);
                let threshold = if mid_t < hi { mid_t } else { lo };
                best = Some((f, threshold, gain));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

#[inline]
fn gini(counts: &[f32], total: f32) -> f32 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum_sq = 0.0;
    for &c in counts {
        let p = c / total;
        sum_sq += p * p;
    }
    1.0 - sum_sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Classifier;
    use rand::{rngs::StdRng, SeedableRng};

    fn xor_data() -> (Matrix, Vec<u16>) {
        // XOR with slight jitter: not linearly separable, easy for a tree.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let a = (i % 2) as f32;
            let b = ((i / 2) % 2) as f32;
            let jitter = (i as f32 * 0.001) % 0.05;
            rows.extend_from_slice(&[a + jitter, b - jitter]);
            y.push((a as u16) ^ (b as u16));
        }
        (Matrix::from_vec(40, 2, rows).unwrap(), y)
    }

    #[test]
    fn learns_xor_exactly() {
        let (x, y) = xor_data();
        let mut rng = StdRng::seed_from_u64(1);
        let idx: Vec<usize> = (0..x.rows()).collect();
        let tree = DecisionTree::fit(&mut rng, &x, &y, &idx, 2, &TreeConfig::default());
        let pred = tree.predict(&x);
        assert_eq!(pred, y);
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = xor_data();
        let mut rng = StdRng::seed_from_u64(1);
        let idx: Vec<usize> = (0..x.rows()).collect();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let stump = DecisionTree::fit(&mut rng, &x, &y, &idx, 2, &cfg);
        assert_eq!(stump.node_count(), 1);
        // Depth-0 tree outputs the prior everywhere.
        let proba = stump.predict_proba(&x);
        assert!((proba[(0, 0)] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn adjacent_float_values_split_without_panicking() {
        // Two adjacent f32 values whose naive midpoint `0.5*(a+b)`
        // rounds (ties-to-even in the sum) up to `b`, which used to
        // produce a one-sided partition and a debug_assert panic
        // during growth.
        let a = f32::from_bits(1.0f32.to_bits() + 1);
        let b = f32::from_bits(1.0f32.to_bits() + 2);
        assert_eq!(0.5 * (a + b), b, "test premise: midpoint rounds up");
        let x = Matrix::from_vec(4, 1, vec![a, a, b, b]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut rng = StdRng::seed_from_u64(7);
        let tree = DecisionTree::fit(&mut rng, &x, &y, &[0, 1, 2, 3], 2, &TreeConfig::default());
        // The clamped threshold must still separate the two classes.
        assert_eq!(tree.predict(&x), y);
    }

    #[test]
    fn pure_nodes_stop_growing() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let y = vec![0, 0, 0, 0];
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&mut rng, &x, &y, &[0, 1, 2, 3], 2, &TreeConfig::default());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x = Matrix::from_vec(10, 1, (0..10).map(|i| i as f32).collect()).unwrap();
        let y: Vec<u16> = (0..10).map(|i| (i >= 9) as u16).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let idx: Vec<usize> = (0..10).collect();
        let tree = DecisionTree::fit(&mut rng, &x, &y, &idx, 2, &cfg);
        // The only useful split (9 vs 1) violates min_leaf -> no split at
        // the boundary; any splits made leave >=3 samples per side.
        fn check(nodes: &[Node], at: usize, x: &Matrix, idx: &[usize]) {
            if let Node::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } = &nodes[at]
            {
                let l: Vec<usize> = idx
                    .iter()
                    .copied()
                    .filter(|&i| x[(i, *feature as usize)] <= *threshold)
                    .collect();
                let r: Vec<usize> = idx
                    .iter()
                    .copied()
                    .filter(|&i| x[(i, *feature as usize)] > *threshold)
                    .collect();
                assert!(l.len() >= 3 && r.len() >= 3);
                check(nodes, *left as usize, x, &l);
                check(nodes, *right as usize, x, &r);
            }
        }
        check(&tree.nodes, 0, &x, &idx);
    }

    #[test]
    fn bootstrap_duplicates_are_fine() {
        let (x, y) = xor_data();
        let mut rng = StdRng::seed_from_u64(1);
        let idx = vec![0usize; 10]; // degenerate bootstrap: one sample
        let tree = DecisionTree::fit(&mut rng, &x, &y, &idx, 2, &TreeConfig::default());
        assert_eq!(tree.node_count(), 1);
    }
}
