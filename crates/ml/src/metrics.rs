//! Evaluation metrics: accuracy, balanced accuracy, confusion matrix.
//!
//! The paper reports accuracy and balanced accuracy everywhere, "the
//! latter being especially relevant given the imbalanced nature of our
//! dataset" (Section VII-A), plus the Fig. 7 confusion matrix.

/// Fraction of predictions equal to the truth.
pub fn accuracy(truth: &[u16], pred: &[u16]) -> f64 {
    assert_eq!(truth.len(), pred.len());
    if truth.is_empty() {
        return 0.0;
    }
    let hits = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
    hits as f64 / truth.len() as f64
}

/// Macro-averaged recall: mean over classes (with support) of the
/// per-class recall. Robust to imbalance.
pub fn balanced_accuracy(truth: &[u16], pred: &[u16], n_classes: usize) -> f64 {
    assert_eq!(truth.len(), pred.len());
    let mut support = vec![0usize; n_classes];
    let mut hits = vec![0usize; n_classes];
    for (&t, &p) in truth.iter().zip(pred) {
        support[t as usize] += 1;
        if t == p {
            hits[t as usize] += 1;
        }
    }
    let mut sum = 0.0;
    let mut classes = 0;
    for c in 0..n_classes {
        if support[c] > 0 {
            sum += hits[c] as f64 / support[c] as f64;
            classes += 1;
        }
    }
    if classes == 0 {
        0.0
    } else {
        sum / classes as f64
    }
}

/// Mean and (population) standard deviation of a set of fold scores,
/// for the `acc ± std` cells of Tables III/IV.
pub fn mean_std(scores: &[f64]) -> (f64, f64) {
    if scores.is_empty() {
        return (0.0, 0.0);
    }
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// A confusion matrix: `counts[truth][pred]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Build from parallel truth/prediction slices.
    pub fn from_predictions(truth: &[u16], pred: &[u16], n_classes: usize) -> Self {
        assert_eq!(truth.len(), pred.len());
        let mut counts = vec![vec![0usize; n_classes]; n_classes];
        for (&t, &p) in truth.iter().zip(pred) {
            counts[t as usize][p as usize] += 1;
        }
        Self { counts }
    }

    /// Count at `(truth, pred)`.
    pub fn get(&self, truth: usize, pred: usize) -> usize {
        self.counts[truth][pred]
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// Render as an aligned text table restricted to classes with
    /// support, using the provided class names.
    pub fn render(&self, names: &[&str]) -> String {
        let active: Vec<usize> = (0..self.n_classes())
            .filter(|&c| {
                self.counts[c].iter().sum::<usize>() > 0 || self.counts.iter().any(|r| r[c] > 0)
            })
            .collect();
        let mut out = String::new();
        out.push_str(&format!("{:>10} |", "truth\\pred"));
        for &c in &active {
            out.push_str(&format!("{:>9}", names.get(c).copied().unwrap_or("?")));
        }
        out.push('\n');
        for &t in &active {
            if self.counts[t].iter().sum::<usize>() == 0 {
                continue;
            }
            out.push_str(&format!("{:>10} |", names.get(t).copied().unwrap_or("?")));
            for &p in &active {
                out.push_str(&format!("{:>9}", self.counts[t][p]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn balanced_accuracy_ignores_imbalance() {
        // 9 of class 0 (all right), 1 of class 1 (wrong):
        // plain acc = 0.9, balanced = (1.0 + 0.0)/2 = 0.5.
        let truth = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let pred = [0; 10];
        assert!((accuracy(&truth, &pred) - 0.9).abs() < 1e-12);
        assert!((balanced_accuracy(&truth, &pred, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn balanced_accuracy_skips_absent_classes() {
        let truth = [0, 0, 1, 1];
        let pred = [0, 0, 1, 0];
        // Class 2 absent: average over classes 0 and 1 only.
        assert!((balanced_accuracy(&truth, &pred, 3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrix_counts_and_renders() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0, 1, 1, 1], &[0, 1, 1, 1, 0], 2);
        assert_eq!(cm.get(0, 0), 1);
        assert_eq!(cm.get(0, 1), 1);
        assert_eq!(cm.get(1, 0), 1);
        assert_eq!(cm.get(1, 1), 2);
        let rendered = cm.render(&["A", "B"]);
        assert!(rendered.contains('A') && rendered.contains('B'));
    }

    #[test]
    fn render_skips_classes_without_any_mass() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0], &[0, 2], 4);
        let rendered = cm.render(&["A", "B", "C", "D"]);
        // Class B (no truth, no predictions) is filtered; C appears as a
        // prediction column target.
        assert!(rendered.contains('A') && rendered.contains('C'));
        assert!(!rendered.contains('B'));
        assert!(!rendered.contains('D'));
    }

    #[test]
    fn mean_std_of_folds() {
        let (m, s) = mean_std(&[0.8, 0.9]);
        assert!((m - 0.85).abs() < 1e-12);
        assert!((s - 0.05).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
