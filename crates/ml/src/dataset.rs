//! Feature/label containers and cross-validation splits.

use rand::seq::SliceRandom;
use rand::Rng;
use trail_linalg::Matrix;

/// A labelled dataset: one feature row per sample.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature matrix, `n_samples x n_features`.
    pub x: Matrix,
    /// Class label per sample.
    pub y: Vec<u16>,
    /// Number of classes (labels are `0..n_classes`).
    pub n_classes: usize,
}

impl Dataset {
    /// Build a dataset; panics if lengths disagree (construction bug).
    pub fn new(x: Matrix, y: Vec<u16>, n_classes: usize) -> Self {
        assert_eq!(x.rows(), y.len(), "feature rows != labels");
        debug_assert!(y.iter().all(|&l| (l as usize) < n_classes));
        Self { x, y, n_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes];
        for &l in &self.y {
            counts[l as usize] += 1;
        }
        counts
    }

    /// Gather a row subset into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Self {
        Self {
            x: self.x.gather_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
        }
    }
}

/// Stratified k-fold cross-validation: every fold preserves class
/// proportions (the paper uses stratified 5-fold throughout).
#[derive(Debug, Clone)]
pub struct StratifiedKFold {
    folds: Vec<Vec<usize>>,
}

impl StratifiedKFold {
    /// Split sample indices into `k` stratified folds, shuffled by `rng`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, y: &[u16], n_classes: usize, k: usize) -> Self {
        assert!(k >= 2, "k-fold needs k >= 2");
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
        for (i, &l) in y.iter().enumerate() {
            by_class[l as usize].push(i);
        }
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for class_indices in &mut by_class {
            class_indices.shuffle(rng);
            for (j, &i) in class_indices.iter().enumerate() {
                folds[j % k].push(i);
            }
        }
        Self { folds }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.folds.len()
    }

    /// `(train_indices, test_indices)` for fold `f`.
    pub fn split(&self, f: usize) -> (Vec<usize>, Vec<usize>) {
        let test = self.folds[f].clone();
        let train = self
            .folds
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != f)
            .flat_map(|(_, fold)| fold.iter().copied())
            .collect();
        (train, test)
    }

    /// Iterate all `(train, test)` splits.
    pub fn splits(&self) -> impl Iterator<Item = (Vec<usize>, Vec<usize>)> + '_ {
        (0..self.k()).map(|f| self.split(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy() -> Dataset {
        let x = Matrix::from_fn(10, 2, |r, c| (r * 2 + c) as f32);
        let y = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1];
        Dataset::new(x, y, 2)
    }

    #[test]
    fn class_counts_and_subset() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![6, 4]);
        let s = d.subset(&[0, 6]);
        assert_eq!(s.y, vec![0, 1]);
        assert_eq!(s.x.row(1), &[12.0, 13.0]);
    }

    #[test]
    fn stratified_folds_preserve_proportions() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let kf = StratifiedKFold::new(&mut rng, &d.y, 2, 2);
        for (train, test) in kf.splits() {
            assert_eq!(train.len() + test.len(), d.len());
            // Each fold has 3 of class 0 and 2 of class 1.
            let c0 = test.iter().filter(|&&i| d.y[i] == 0).count();
            let c1 = test.iter().filter(|&&i| d.y[i] == 1).count();
            assert_eq!((c0, c1), (3, 2));
            // Disjoint.
            let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), d.len());
        }
    }

    #[test]
    fn folds_cover_every_sample_exactly_once() {
        let mut rng = StdRng::seed_from_u64(2);
        let y: Vec<u16> = (0..100).map(|i| (i % 5) as u16).collect();
        let kf = StratifiedKFold::new(&mut rng, &y, 5, 5);
        let mut seen = vec![0; 100];
        for f in 0..kf.k() {
            for &i in &kf.split(f).1 {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
