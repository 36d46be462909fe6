//! Gradient-boosted trees with the multiclass soft-probability
//! objective — the "XGB" of the paper's Tables III/IV.
//!
//! Faithful to the XGBoost formulation (Chen & Guestrin 2016): one
//! second-order regression tree per class per round, split gain
//! `½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`, Newton leaf
//! weights `−G/(H+λ)`, shrinkage, row and column subsampling — and,
//! like XGBoost's `hist` mode, quantile-binned split finding: features
//! are quantised to ≤32 bins once per fit, so a node split costs
//! O(rows × features) instead of O(rows log rows × features). The
//! per-round class trees are independent given the margins and train
//! in parallel.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use trail_linalg::Matrix;

use crate::Classifier;

/// Maximum histogram bins per feature.
const MAX_BINS: usize = 32;
/// Shrinkage (XGBoost's `eta`).
const LEARNING_RATE: f32 = 0.3;
/// L2 regularisation on leaf weights (XGBoost's `lambda`).
const LAMBDA: f32 = 1.0;
/// Minimum gain to split (XGBoost's `gamma`).
const GAMMA: f32 = 0.0;
/// Minimum hessian sum per child (XGBoost's `min_child_weight`).
const MIN_CHILD_WEIGHT: f32 = 1.0;

/// Boosting hyper-parameters. Shrinkage, the leaf-weight L2 term, the
/// split-gain floor and the child hessian floor are XGBoost's defaults
/// (0.3, 1, 0, 1) and fixed: no experiment varies them.
#[derive(Debug, Clone, Copy)]
pub struct GbtConfig {
    /// Boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Row subsample fraction per round.
    pub subsample: f32,
    /// Column subsample fraction per tree.
    pub colsample: f32,
}

impl Default for GbtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 40,
            max_depth: 6,
            subsample: 0.9,
            colsample: 0.8,
        }
    }
}

/// Quantile-binned view of a feature matrix.
struct BinnedMatrix {
    /// Bin index per (row, feature), row-major.
    bins: Vec<u8>,
    n_features: usize,
    /// Per feature: ascending candidate thresholds; bin `b` holds values
    /// in `(edges[b-1], edges[b]]`-ish (upper bound search).
    edges: Vec<Vec<f32>>,
}

impl BinnedMatrix {
    fn quantize(x: &Matrix) -> Self {
        let n = x.rows();
        let f = x.cols();
        let sample_cap = 4096.min(n);
        let stride = (n / sample_cap).max(1);
        let mut edges = Vec::with_capacity(f);
        let mut col_sample: Vec<f32> = Vec::with_capacity(sample_cap + 1);
        for c in 0..f {
            col_sample.clear();
            let mut r = 0;
            while r < n {
                col_sample.push(x[(r, c)]);
                r += stride;
            }
            col_sample.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            col_sample.dedup();
            let cuts: Vec<f32> = if col_sample.len() <= MAX_BINS {
                // Midpoints between consecutive distinct values.
                col_sample.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
            } else {
                let k = MAX_BINS - 1;
                (1..=k)
                    .map(|i| {
                        let lo = col_sample[(i * (col_sample.len() - 1)) / (k + 1)];
                        let hi = col_sample[((i * (col_sample.len() - 1)) / (k + 1) + 1)
                            .min(col_sample.len() - 1)];
                        0.5 * (lo + hi)
                    })
                    .collect::<Vec<f32>>()
            };
            let mut cuts = cuts;
            cuts.dedup();
            edges.push(cuts);
        }
        let mut bins = vec![0u8; n * f];
        for r in 0..n {
            let row = x.row(r);
            let dst = &mut bins[r * f..(r + 1) * f];
            for c in 0..f {
                dst[c] = bin_of(&edges[c], row[c]);
            }
        }
        Self {
            bins,
            n_features: f,
            edges,
        }
    }

    #[inline]
    fn bin(&self, row: usize, feature: usize) -> usize {
        self.bins[row * self.n_features + feature] as usize
    }
}

/// Upper-bound bin search: number of edges `< v` ... values equal to an
/// edge land in the lower bin (split predicate is `<= threshold`).
#[inline]
fn bin_of(edges: &[f32], v: f32) -> u8 {
    let mut lo = 0usize;
    let mut hi = edges.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if v <= edges[mid] {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as u8
}

/// A node of a second-order regression tree. Internal nodes also store
/// the Newton value their sample set would take as a leaf — this is
/// what lets prediction paths be decomposed into per-feature margin
/// contributions (the Saabas/SHAP-style view of Fig. 9).
#[derive(Debug, Clone)]
enum RegNode {
    Leaf {
        weight: f32,
    },
    Split {
        feature: u32,
        threshold: f32,
        left: u32,
        right: u32,
        value: f32,
    },
}

impl RegNode {
    fn value(&self) -> f32 {
        match self {
            RegNode::Leaf { weight } => *weight,
            RegNode::Split { value, .. } => *value,
        }
    }
}

/// One regression tree over (gradient, hessian) targets.
#[derive(Debug, Clone)]
pub struct RegTree {
    nodes: Vec<RegNode>,
}

struct GrowCtx<'a> {
    binned: &'a BinnedMatrix,
    grad: &'a [f32],
    hess: &'a [f32],
    features: &'a [u32],
    cfg: &'a GbtConfig,
}

impl RegTree {
    /// Margin contribution for one row of raw features.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                RegNode::Leaf { weight } => return *weight,
                RegNode::Split {
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

    fn fit(ctx: &GrowCtx<'_>, indices: &mut [usize]) -> Self {
        let mut tree = Self { nodes: Vec::new() };
        tree.grow(ctx, indices, 0);
        tree
    }

    fn grow(&mut self, ctx: &GrowCtx<'_>, indices: &mut [usize], depth: usize) -> u32 {
        let g: f32 = indices.iter().map(|&i| ctx.grad[i]).sum();
        let h: f32 = indices.iter().map(|&i| ctx.hess[i]).sum();
        let node_id = self.nodes.len() as u32;
        let leaf_weight = -LEARNING_RATE * g / (h + LAMBDA);
        if depth >= ctx.cfg.max_depth || indices.len() < 2 {
            self.nodes.push(RegNode::Leaf {
                weight: leaf_weight,
            });
            return node_id;
        }
        let Some((feature, threshold)) = best_split_hist(ctx, indices, g, h) else {
            self.nodes.push(RegNode::Leaf {
                weight: leaf_weight,
            });
            return node_id;
        };
        let bin_cut = bin_of(&ctx.binned.edges[feature as usize], threshold) as usize;
        // Partition by bin: values with bin <= bin_cut go left (matches
        // the `<= threshold` predicate since threshold is an edge).
        let mut lo = 0usize;
        let mut hi = indices.len();
        while lo < hi {
            if ctx.binned.bin(indices[lo], feature as usize) <= bin_cut {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        let mid = lo;
        if mid == 0 || mid == indices.len() {
            self.nodes.push(RegNode::Leaf {
                weight: leaf_weight,
            });
            return node_id;
        }
        self.nodes.push(RegNode::Leaf {
            weight: leaf_weight,
        }); // placeholder
        let (l, r) = indices.split_at_mut(mid);
        let left = self.grow(ctx, l, depth + 1);
        let right = self.grow(ctx, r, depth + 1);
        self.nodes[node_id as usize] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
            value: leaf_weight,
        };
        node_id
    }

    /// Decompose this tree's margin for `row` into `(bias, per-feature
    /// deltas)`: walking the path, the change in node value across each
    /// split is attributed to that split's feature.
    pub fn path_contributions(&self, row: &[f32], out: &mut [f32]) -> f32 {
        let bias = self.nodes[0].value();
        let mut at = 0usize;
        let mut current = bias;
        loop {
            match &self.nodes[at] {
                RegNode::Leaf { .. } => return bias,
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let next = if row[*feature as usize] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                    let next_value = self.nodes[next as usize].value();
                    out[*feature as usize] += next_value - current;
                    current = next_value;
                    at = next as usize;
                }
            }
        }
    }
}

/// Histogram split search. All candidate feature histograms are built
/// in a single row-major pass over the node's rows (cache-friendly:
/// the histograms for a few hundred candidates fit in L2), then each
/// is scanned left-to-right.
fn best_split_hist(
    ctx: &GrowCtx<'_>,
    indices: &[usize],
    g_total: f32,
    h_total: f32,
) -> Option<(u32, f32)> {
    let parent_score = g_total * g_total / (h_total + LAMBDA);
    let k = ctx.features.len();
    // Interleaved (g, h) histograms: feature-major, bin-minor.
    let mut hists = vec![0.0f32; k * MAX_BINS * 2];
    let n_features = ctx.binned.n_features;
    for &i in indices {
        let g = ctx.grad[i];
        let h = ctx.hess[i];
        let row_bins = &ctx.binned.bins[i * n_features..(i + 1) * n_features];
        for (j, &f) in ctx.features.iter().enumerate() {
            let b = row_bins[f as usize] as usize;
            let slot = (j * MAX_BINS + b) * 2;
            hists[slot] += g;
            hists[slot + 1] += h;
        }
    }
    let mut best: Option<(u32, f32, f32)> = None;
    for (j, &f) in ctx.features.iter().enumerate() {
        let edges = &ctx.binned.edges[f as usize];
        if edges.is_empty() {
            continue; // constant feature
        }
        let hist = &hists[j * MAX_BINS * 2..(j + 1) * MAX_BINS * 2];
        let mut gl = 0.0f32;
        let mut hl = 0.0f32;
        // A split after bin b uses threshold edges[b].
        for b in 0..edges.len() {
            gl += hist[b * 2];
            hl += hist[b * 2 + 1];
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < MIN_CHILD_WEIGHT || hr < MIN_CHILD_WEIGHT {
                continue;
            }
            let gain =
                0.5 * (gl * gl / (hl + LAMBDA) + gr * gr / (hr + LAMBDA) - parent_score) - GAMMA;
            if gain > 1e-7 && best.is_none_or(|(_, _, bg)| gain > bg) {
                best = Some((f, edges[b], gain));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

/// A fitted multiclass gradient-boosted ensemble.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    /// `rounds x n_classes` trees, flattened round-major.
    trees: Vec<RegTree>,
    n_classes: usize,
    base_score: Vec<f32>,
}

impl GradientBoostedTrees {
    /// Fit with the multiclass softprob objective. Class trees within a
    /// round train in parallel (deterministically — all randomness is
    /// drawn before the parallel section).
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        x: &Matrix,
        y: &[u16],
        n_classes: usize,
        cfg: &GbtConfig,
    ) -> Self {
        let _span = trail_obs::span("ml.gbt_fit");
        assert_eq!(x.rows(), y.len());
        let n = x.rows();
        let k = n_classes;
        let binned = BinnedMatrix::quantize(x);
        // Base score: log prior per class.
        let mut prior = vec![1e-6f32; k];
        for &l in y {
            prior[l as usize] += 1.0;
        }
        let total: f32 = prior.iter().sum();
        let base_score: Vec<f32> = prior.iter().map(|p| (p / total).ln()).collect();

        let mut margins = Matrix::zeros(n, k);
        for r in 0..n {
            margins.row_mut(r).copy_from_slice(&base_score);
        }
        let mut trees: Vec<RegTree> = Vec::with_capacity(cfg.n_rounds * k);
        let all_features: Vec<u32> = (0..x.cols() as u32).collect();
        let n_cols = ((x.cols() as f32 * cfg.colsample).ceil() as usize).clamp(1, x.cols());
        let n_rows_sub = ((n as f32 * cfg.subsample).ceil() as usize).clamp(2.min(n), n);

        let mut proba = vec![0.0f32; k];
        let mut grad = vec![vec![0.0f32; n]; k];
        let mut hess = vec![vec![0.0f32; n]; k];
        for _round in 0..cfg.n_rounds {
            for r in 0..n {
                proba.copy_from_slice(margins.row(r));
                trail_linalg::vector::softmax_inplace(&mut proba);
                for c in 0..k {
                    let p = proba[c];
                    let target = if y[r] as usize == c { 1.0 } else { 0.0 };
                    grad[c][r] = p - target;
                    hess[c][r] = (p * (1.0 - p)).max(1e-6);
                }
            }
            // Shared row subsample for the round; per-class column draws
            // happen up front so parallel training stays deterministic.
            let mut rows: Vec<usize> = (0..n).collect();
            rows.partial_shuffle(rng, n_rows_sub);
            rows.truncate(n_rows_sub);
            let col_draws: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    let mut cols = all_features.clone();
                    let mut col_rng = StdRng::seed_from_u64(rng.gen());
                    cols.partial_shuffle(&mut col_rng, n_cols);
                    cols.truncate(n_cols);
                    cols
                })
                .collect();

            // Per-class trees are independent given the margins; they
            // fan out across the shared worker pool with column draws
            // fixed up front, so boosting is identical for every
            // thread count.
            let round_trees: Vec<RegTree> = trail_linalg::pool::parallel_map(k, |c| {
                let ctx = GrowCtx {
                    binned: &binned,
                    grad: &grad[c],
                    hess: &hess[c],
                    features: &col_draws[c],
                    cfg,
                };
                let mut rows_c = rows.clone();
                RegTree::fit(&ctx, &mut rows_c)
            });
            for (c, tree) in round_trees.into_iter().enumerate() {
                for r in 0..n {
                    margins[(r, c)] += tree.predict_row(x.row(r));
                }
                trees.push(tree);
            }
        }
        Self {
            trees,
            n_classes: k,
            base_score,
        }
    }

    /// Raw (pre-softmax) margins for one row.
    pub fn margins_row(&self, row: &[f32]) -> Vec<f32> {
        let mut m = self.base_score.clone();
        for (i, tree) in self.trees.iter().enumerate() {
            m[i % self.n_classes] += tree.predict_row(row);
        }
        m
    }

    /// Per-feature additive contributions to class `class`'s margin for
    /// one row (Saabas decomposition over every tree of that class).
    /// Returns `(bias, contributions)`; `bias + sum(contributions)`
    /// equals the class margin up to float noise.
    pub fn margin_contributions(&self, row: &[f32], class: usize) -> (f32, Vec<f32>) {
        assert!(class < self.n_classes);
        let mut contrib = vec![0.0f32; row.len()];
        let mut bias = self.base_score[class];
        for (i, tree) in self.trees.iter().enumerate() {
            if i % self.n_classes == class {
                bias += tree.path_contributions(row, &mut contrib);
            }
        }
        (bias, contrib)
    }
}

impl Classifier for GradientBoostedTrees {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for (r, row) in x.rows_iter().enumerate() {
            let mut m = self.margins_row(row);
            trail_linalg::vector::softmax_inplace(&mut m);
            out.row_mut(r).copy_from_slice(&m);
        }
        out
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn blobs(n_per: usize) -> (Matrix, Vec<u16>) {
        let mut rng = StdRng::seed_from_u64(7);
        let centers = [(0.0f32, 0.0f32), (4.0, 4.0), (0.0, 4.0)];
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(cx + rng.gen_range(-1.0..1.0));
                rows.push(cy + rng.gen_range(-1.0..1.0));
                y.push(c as u16);
            }
        }
        (Matrix::from_vec(3 * n_per, 2, rows).unwrap(), y)
    }

    #[test]
    fn learns_blobs() {
        let (x, y) = blobs(30);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GbtConfig {
            n_rounds: 15,
            ..Default::default()
        };
        let gbt = GradientBoostedTrees::fit(&mut rng, &x, &y, 3, &cfg);
        let acc = crate::metrics::accuracy(&y, &gbt.predict(&x));
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn probabilities_normalised() {
        let (x, y) = blobs(10);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GbtConfig {
            n_rounds: 5,
            ..Default::default()
        };
        let gbt = GradientBoostedTrees::fit(&mut rng, &x, &y, 3, &cfg);
        for row in gbt.predict_proba(&x).rows_iter() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_rounds_predicts_prior() {
        let (x, y) = blobs(5);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GbtConfig {
            n_rounds: 0,
            ..Default::default()
        };
        let gbt = GradientBoostedTrees::fit(&mut rng, &x, &y, 3, &cfg);
        let proba = gbt.predict_proba(&x);
        for row in proba.rows_iter() {
            for &p in row {
                assert!((p - 1.0 / 3.0).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let (x, y) = blobs(20);
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        let few = GradientBoostedTrees::fit(
            &mut r1,
            &x,
            &y,
            3,
            &GbtConfig {
                n_rounds: 2,
                ..Default::default()
            },
        );
        let many = GradientBoostedTrees::fit(
            &mut r2,
            &x,
            &y,
            3,
            &GbtConfig {
                n_rounds: 20,
                ..Default::default()
            },
        );
        let acc_few = crate::metrics::accuracy(&y, &few.predict(&x));
        let acc_many = crate::metrics::accuracy(&y, &many.predict(&x));
        assert!(acc_many >= acc_few);
    }

    #[test]
    fn imbalanced_base_score_matches_prior() {
        let x = Matrix::from_vec(4, 1, vec![0.0, 0.1, 0.2, 5.0]).unwrap();
        let y = vec![0, 0, 0, 1];
        let mut rng = StdRng::seed_from_u64(5);
        let gbt = GradientBoostedTrees::fit(
            &mut rng,
            &x,
            &y,
            2,
            &GbtConfig {
                n_rounds: 0,
                ..Default::default()
            },
        );
        let p = gbt.predict_proba(&x);
        assert!((p[(0, 0)] - 0.75).abs() < 1e-3);
    }

    #[test]
    fn deterministic_despite_parallel_class_training() {
        let (x, y) = blobs(20);
        let cfg = GbtConfig {
            n_rounds: 6,
            subsample: 0.8,
            colsample: 0.9,
            ..Default::default()
        };
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = GradientBoostedTrees::fit(&mut r1, &x, &y, 3, &cfg);
        let b = GradientBoostedTrees::fit(&mut r2, &x, &y, 3, &cfg);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn binning_separates_binary_features() {
        // One-hot style data must still be splittable after binning.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let on = (i % 2) as f32;
            rows.extend_from_slice(&[on, 1.0 - on]);
            y.push((i % 2) as u16);
        }
        let x = Matrix::from_vec(60, 2, rows).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let gbt = GradientBoostedTrees::fit(
            &mut rng,
            &x,
            &y,
            2,
            &GbtConfig {
                n_rounds: 3,
                ..Default::default()
            },
        );
        assert_eq!(crate::metrics::accuracy(&y, &gbt.predict(&x)), 1.0);
    }

    #[test]
    fn wide_sparse_data_is_fast_enough() {
        // 400 x 600 one-hot-ish matrix: trains in well under a second.
        let mut rng = StdRng::seed_from_u64(12);
        let n = 400;
        let f = 600;
        let mut x = Matrix::zeros(n, f);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let class = (r % 4) as u16;
            // informative slot per class plus noise slots
            x[(r, class as usize * 7)] = 1.0;
            for _ in 0..10 {
                let c = rng.gen_range(0..f);
                x[(r, c)] = 1.0;
            }
            y.push(class);
        }
        let t = std::time::Instant::now();
        let gbt = GradientBoostedTrees::fit(
            &mut rng,
            &x,
            &y,
            4,
            &GbtConfig {
                n_rounds: 5,
                colsample: 0.5,
                ..Default::default()
            },
        );
        assert!(t.elapsed().as_secs() < 20, "too slow: {:?}", t.elapsed());
        let acc = crate::metrics::accuracy(&y, &gbt.predict(&x));
        assert!(acc > 0.9, "{acc}");
    }
}
