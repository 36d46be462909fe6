//! SMOTE: Synthetic Minority Over-sampling TEchnique (Chawla et al.,
//! JAIR 2002), the resampling step of the paper's preprocessing.
//!
//! For each minority sample, synthetic points are interpolated between
//! the sample and one of its k nearest same-class neighbours.

use rand::Rng;
use trail_linalg::vector::sq_dist;
use trail_linalg::Matrix;

use crate::dataset::Dataset;

/// Number of same-class nearest neighbours to interpolate with.
const K: usize = 5;
/// Candidate pool size for the neighbour search. Exact k-NN is
/// O(n² d) per class, which dominates on wide feature spaces; each
/// sample's neighbours are found among at most this many randomly
/// chosen same-class candidates instead.
const NEIGHBOR_CANDIDATES: usize = 150;

/// SMOTE configuration. The neighbour count (`K` = 5, Chawla et al.'s
/// default) and the candidate pool (`NEIGHBOR_CANDIDATES` = 150) are
/// fixed: no experiment varies them.
#[derive(Debug, Clone, Copy)]
pub struct SmoteConfig {
    /// Cap on the oversampling ratio: a class is never grown beyond
    /// `max_ratio * its original size` (guards runaway blowup when one
    /// class is tiny).
    pub max_ratio: f32,
}

impl Default for SmoteConfig {
    fn default() -> Self {
        Self { max_ratio: 6.0 }
    }
}

/// Oversample every minority class towards the majority count.
/// Returns a new dataset with the original rows first.
pub fn smote<R: Rng + ?Sized>(rng: &mut R, data: &Dataset, cfg: SmoteConfig) -> Dataset {
    let counts = data.class_counts();
    let target = counts.iter().copied().max().unwrap_or(0);
    let mut new_rows: Vec<Vec<f32>> = Vec::new();
    let mut new_labels: Vec<u16> = Vec::new();

    for class in 0..data.n_classes {
        let members: Vec<usize> = (0..data.len())
            .filter(|&i| data.y[i] as usize == class)
            .collect();
        let n = members.len();
        if n < 2 || n >= target {
            continue;
        }
        let capped_target = target.min((n as f32 * cfg.max_ratio) as usize);
        let needed = capped_target.saturating_sub(n);
        if needed == 0 {
            continue;
        }
        // Precompute k nearest same-class neighbours per member, over a
        // capped random candidate pool when the class is large.
        let k = K.min(n - 1).max(1);
        let neighbours: Vec<Vec<usize>> = members
            .iter()
            .map(|&i| {
                let candidates: Vec<usize> = if n - 1 > NEIGHBOR_CANDIDATES {
                    (0..NEIGHBOR_CANDIDATES)
                        .map(|_| loop {
                            let j = members[rng.gen_range(0..n)];
                            if j != i {
                                break j;
                            }
                        })
                        .collect()
                } else {
                    members.iter().copied().filter(|&j| j != i).collect()
                };
                let mut dists: Vec<(usize, f32)> = candidates
                    .iter()
                    .map(|&j| (j, sq_dist(data.x.row(i), data.x.row(j))))
                    .collect();
                dists.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                dists.truncate(k);
                dists.into_iter().map(|(j, _)| j).collect()
            })
            .collect();
        for s in 0..needed {
            let m = s % n;
            let base = members[m];
            let nbrs = &neighbours[m];
            let other = nbrs[rng.gen_range(0..nbrs.len())];
            let t: f32 = rng.gen();
            let row: Vec<f32> = data
                .x
                .row(base)
                .iter()
                .zip(data.x.row(other))
                .map(|(&a, &b)| a + t * (b - a))
                .collect();
            new_rows.push(row);
            new_labels.push(class as u16);
        }
    }

    // Assemble: original + synthetic.
    let total = data.len() + new_rows.len();
    let cols = data.x.cols();
    let mut buf = Vec::with_capacity(total * cols);
    buf.extend_from_slice(data.x.as_slice());
    for r in &new_rows {
        buf.extend_from_slice(r);
    }
    let mut y = data.y.clone();
    y.extend(new_labels);
    Dataset::new(
        Matrix::from_vec(total, cols, buf).expect("consistent dims"),
        y,
        data.n_classes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn imbalanced() -> Dataset {
        // 8 samples of class 0 around (0,0); 3 of class 1 around (10,10).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            rows.extend_from_slice(&[i as f32 * 0.1, i as f32 * 0.1]);
            y.push(0);
        }
        for i in 0..3 {
            rows.extend_from_slice(&[10.0 + i as f32 * 0.1, 10.0 + i as f32 * 0.1]);
            y.push(1);
        }
        Dataset::new(Matrix::from_vec(11, 2, rows).unwrap(), y, 2)
    }

    #[test]
    fn balances_class_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = smote(&mut rng, &imbalanced(), SmoteConfig::default());
        assert_eq!(out.class_counts(), vec![8, 8]);
    }

    #[test]
    fn synthetic_points_interpolate_within_class_hull() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = imbalanced();
        let out = smote(&mut rng, &data, SmoteConfig::default());
        // Synthetic class-1 points stay in the class-1 region.
        for i in data.len()..out.len() {
            assert_eq!(out.y[i], 1);
            let r = out.x.row(i);
            assert!(r[0] >= 10.0 - 1e-5 && r[0] <= 10.2 + 1e-5, "{:?}", r);
        }
    }

    #[test]
    fn max_ratio_caps_blowup() {
        let mut rng = StdRng::seed_from_u64(3);
        // Class 1 has 2 members vs 100 of class 0; ratio cap 3x.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            rows.extend_from_slice(&[i as f32, 0.0]);
            y.push(0);
        }
        rows.extend_from_slice(&[0.0, 5.0, 0.0, 6.0]);
        y.extend_from_slice(&[1, 1]);
        let data = Dataset::new(Matrix::from_vec(102, 2, rows).unwrap(), y, 2);
        let out = smote(&mut rng, &data, SmoteConfig { max_ratio: 3.0 });
        assert_eq!(out.class_counts()[1], 6);
    }

    #[test]
    fn singleton_class_is_left_alone() {
        let data = Dataset::new(
            Matrix::from_vec(3, 1, vec![0.0, 1.0, 9.0]).unwrap(),
            vec![0, 0, 1],
            2,
        );
        let mut rng = StdRng::seed_from_u64(4);
        let out = smote(&mut rng, &data, SmoteConfig::default());
        // Cannot interpolate a 1-member class: unchanged.
        assert_eq!(out.len(), 3);
    }
}
