//! Classical machine-learning substrate for the TRAIL reproduction.
//!
//! Implements, from scratch over [`trail_linalg`], the models and
//! tooling of the paper's Section VI-A pipeline. Its Hyperopt search is
//! not among them: Table III runs fixed settings.
//!
//! * [`dataset`] — feature/label containers, stratified k-fold CV.
//! * [`scaler`] — standard scaling fitted on the training split.
//! * [`smote`] — SMOTE minority oversampling (Chawla et al.).
//! * [`metrics`] — accuracy, balanced accuracy, confusion matrices.
//! * [`tree`] / [`forest`] — CART decision trees and Random Forests.
//! * [`gbt`] — XGBoost-style second-order gradient-boosted trees with
//!   the multiclass soft-probability objective.
//! * [`nn`] — the paper's MLP (2048→1024→512→128→64 with batch-norm,
//!   ReLU and dropout), Adam, cross-entropy, plus the autoencoders the
//!   GNN uses for per-type input projection.
//! * [`explain`] — additive per-feature attributions over the boosted
//!   trees (the SHAP-beeswarm substitute for Fig. 9).

#![forbid(unsafe_code)]

pub mod dataset;
pub mod explain;
pub mod forest;
pub mod gbt;
pub mod metrics;
pub mod nn;
pub mod scaler;
pub mod smote;
pub mod tree;

pub use dataset::Dataset;
pub use forest::RandomForest;
pub use gbt::GradientBoostedTrees;
pub use metrics::ConfusionMatrix;
pub use scaler::StandardScaler;

use trail_linalg::Matrix;

/// A trained multiclass classifier.
pub trait Classifier {
    /// Per-class probabilities, one row per input row.
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// Hard class predictions (argmax of probabilities).
    fn predict(&self, x: &Matrix) -> Vec<u16> {
        let proba = self.predict_proba(x);
        proba
            .rows_iter()
            .map(|row| trail_linalg::vector::argmax(row).unwrap_or(0) as u16)
            .collect()
    }

    /// Number of classes.
    fn n_classes(&self) -> usize;
}
