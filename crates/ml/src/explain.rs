//! Model explanations (paper Section VII-D, Fig. 9).
//!
//! The paper uses SHAP beeswarm plots over its XGB URL classifier. We
//! build the same artefact from additive path decompositions (Saabas):
//! every boosted tree's prediction path is walked and the change in
//! margin across each split is attributed to the split feature. Summed
//! over the ensemble this yields per-sample, per-feature signed
//! contributions — exactly what a beeswarm plots.

use trail_linalg::Matrix;

use crate::gbt::GradientBoostedTrees;

/// One beeswarm point: a sample's value of a feature and that feature's
/// signed contribution to the explained class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeeswarmPoint {
    /// Feature index.
    pub feature: usize,
    /// Raw feature value of the sample.
    pub value: f32,
    /// Signed contribution to the class score.
    pub contribution: f32,
}

/// Beeswarm data for one class: the top-k features by mean absolute
/// contribution, with every sample's point for each.
#[derive(Debug, Clone)]
pub struct Beeswarm {
    /// Explained class.
    pub class: usize,
    /// `(feature index, mean |contribution|)`, descending.
    pub top_features: Vec<(usize, f32)>,
    /// All points, grouped feature-major in `top_features` order.
    pub points: Vec<BeeswarmPoint>,
}

/// Build beeswarm data for `class` from GBT margin contributions over
/// the sample rows of `x`.
pub fn gbt_beeswarm(
    gbt: &GradientBoostedTrees,
    x: &Matrix,
    class: usize,
    top_k: usize,
) -> Beeswarm {
    let n_features = x.cols();
    let mut mean_abs = vec![0.0f32; n_features];
    let mut all: Vec<Vec<f32>> = Vec::with_capacity(x.rows());
    for row in x.rows_iter() {
        let (_, c) = gbt.margin_contributions(row, class);
        for (m, &v) in mean_abs.iter_mut().zip(&c) {
            *m += v.abs();
        }
        all.push(c);
    }
    let n = x.rows().max(1) as f32;
    for m in &mut mean_abs {
        *m /= n;
    }
    let mut ranked: Vec<(usize, f32)> = mean_abs.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked.truncate(top_k);
    let mut points = Vec::with_capacity(ranked.len() * x.rows());
    for &(f, _) in &ranked {
        for (r, contribs) in all.iter().enumerate() {
            points.push(BeeswarmPoint {
                feature: f,
                value: x[(r, f)],
                contribution: contribs[f],
            });
        }
    }
    Beeswarm {
        class,
        top_features: ranked,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbt::GbtConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Class depends only on feature 0; feature 1 is noise.
    fn one_informative(n: usize) -> (Matrix, Vec<u16>) {
        let mut rng = StdRng::seed_from_u64(21);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            rows.extend_from_slice(&[a, b]);
            y.push((a > 0.0) as u16);
        }
        (Matrix::from_vec(n, 2, rows).unwrap(), y)
    }

    #[test]
    fn gbt_contributions_reconstruct_margin() {
        let (x, y) = one_informative(150);
        let mut rng = StdRng::seed_from_u64(3);
        let gbt = GradientBoostedTrees::fit(
            &mut rng,
            &x,
            &y,
            2,
            &GbtConfig {
                n_rounds: 8,
                ..Default::default()
            },
        );
        for r in 0..5 {
            let row = x.row(r);
            let (bias, contrib) = gbt.margin_contributions(row, 1);
            let total = bias + contrib.iter().sum::<f32>();
            let margin = gbt.margins_row(row)[1];
            assert!((total - margin).abs() < 1e-3, "{total} vs {margin}");
        }
    }

    #[test]
    fn beeswarm_ranks_informative_feature_first() {
        let (x, y) = one_informative(150);
        let mut rng = StdRng::seed_from_u64(4);
        let gbt = GradientBoostedTrees::fit(
            &mut rng,
            &x,
            &y,
            2,
            &GbtConfig {
                n_rounds: 8,
                ..Default::default()
            },
        );
        let bs = gbt_beeswarm(&gbt, &x, 1, 2);
        assert_eq!(bs.top_features[0].0, 0);
        assert_eq!(bs.points.len(), 2 * x.rows());
        // Positive feature values push toward class 1.
        let pos_corr: f32 = bs
            .points
            .iter()
            .filter(|p| p.feature == 0)
            .map(|p| p.value.signum() * p.contribution.signum())
            .sum();
        assert!(pos_corr > 0.0);
    }
}
