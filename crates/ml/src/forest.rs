//! Random Forest (Breiman 2001): bagged CART trees with per-split
//! feature subsampling, probability-averaged voting.
//!
//! Trees train in parallel across threads — each tree's bootstrap RNG
//! is seeded independently so results do not depend on thread timing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trail_linalg::Matrix;

use crate::tree::{DecisionTree, FeatureSampling, TreeConfig};
use crate::Classifier;

/// Per-tree growth parameters: deep trees, `sqrt(n_features)`
/// candidates per split.
const TREE: TreeConfig = TreeConfig {
    max_depth: 18,
    min_samples_split: 4,
    min_samples_leaf: 2,
    feature_sampling: FeatureSampling::Sqrt,
};
/// Bootstrap sample size as a fraction of the training set.
const BOOTSTRAP_FRACTION: f32 = 1.0;

/// Random Forest hyper-parameters. The tree shape and the bootstrap
/// size are fixed (`TREE`, a full-size bootstrap): no experiment
/// varies them.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self { n_trees: 100 }
    }
}

/// A fitted Random Forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Fit `cfg.n_trees` bootstrapped trees.
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        x: &Matrix,
        y: &[u16],
        n_classes: usize,
        cfg: &ForestConfig,
    ) -> Self {
        let _span = trail_obs::span("ml.forest_fit");
        assert!(x.rows() > 0, "empty training set");
        let n = x.rows();
        let boot_n = ((n as f32) * BOOTSTRAP_FRACTION).round().max(1.0) as usize;
        let seeds: Vec<u64> = (0..cfg.n_trees).map(|_| rng.gen()).collect();

        // Trees fan out across the shared worker pool; each is grown
        // from its own pre-drawn seed, so the forest is identical for
        // every thread count.
        let trees: Vec<DecisionTree> = trail_linalg::pool::parallel_map(seeds.len(), |i| {
            fit_one(seeds[i], x, y, n_classes, boot_n)
        });
        Self { trees, n_classes }
    }
}

fn fit_one(seed: u64, x: &Matrix, y: &[u16], n_classes: usize, boot_n: usize) -> DecisionTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = x.rows();
    let indices: Vec<usize> = (0..boot_n).map(|_| rng.gen_range(0..n)).collect();
    DecisionTree::fit(&mut rng, x, y, &indices, n_classes, &TREE)
}

impl Classifier for RandomForest {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for (r, row) in x.rows_iter().enumerate() {
            let acc = out.row_mut(r);
            for tree in &self.trees {
                for (a, &p) in acc.iter_mut().zip(tree.predict_proba_row(row)) {
                    *a += p;
                }
            }
            let k = 1.0 / self.trees.len().max(1) as f32;
            for a in acc.iter_mut() {
                *a *= k;
            }
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
        let mut rng = StdRng::seed_from_u64(99);
        let centers = [(0.0f32, 0.0f32), (5.0, 5.0), (0.0, 5.0)];
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
    fn separable_blobs_are_learned() {
        let (x, y) = blobs(30);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ForestConfig { n_trees: 15 };
        let rf = RandomForest::fit(&mut rng, &x, &y, 3, &cfg);
        let acc = crate::metrics::accuracy(&y, &rf.predict(&x));
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = blobs(10);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ForestConfig { n_trees: 7 };
        let rf = RandomForest::fit(&mut rng, &x, &y, 3, &cfg);
        let proba = rf.predict_proba(&x);
        for row in proba.rows_iter() {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn deterministic_given_seed_despite_threads() {
        let (x, y) = blobs(15);
        let cfg = ForestConfig { n_trees: 9 };
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let f1 = RandomForest::fit(&mut r1, &x, &y, 3, &cfg);
        let f2 = RandomForest::fit(&mut r2, &x, &y, 3, &cfg);
        assert_eq!(f1.predict_proba(&x), f2.predict_proba(&x));
    }

    #[test]
    fn n_trees_respected() {
        let (x, y) = blobs(5);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ForestConfig { n_trees: 3 };
        let rf = RandomForest::fit(&mut rng, &x, &y, 3, &cfg);
        assert_eq!(rf.trees.len(), 3);
    }
}
