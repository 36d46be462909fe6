//! Graph learning over the TRAIL knowledge graph.
//!
//! Implements the paper's Section VI-B/C analysis stack:
//!
//! * [`labelprop`] — label propagation per Eq. 1 (symmetric-normalised
//!   adjacency power iteration from one-hot event labels).
//! * [`sage`] — GraphSAGE (Eq. 3) with mean aggregation including the
//!   self node, per-layer L2 normalisation (Eq. 4), trained with
//!   cross-entropy on labelled event nodes over the rows those nodes'
//!   logits depend on.
//! * [`train`] — the masked-fold training protocol of Section VII-B,
//!   including the fine-tuning path the longitudinal study uses.
//! * [`explain`] — GNNExplainer (Ying et al. 2019): a learned edge mask
//!   over the half-edges the model reads in the event's L-hop ball,
//!   applied inside the model's own forward, identifying the most
//!   influential IOCs (Fig. 10).

pub mod explain;
pub mod labelprop;
pub mod sage;
pub mod train;

pub use labelprop::LabelPropagation;
pub use sage::{SageConfig, SageModel};
pub use train::{
    fine_tune_masked, predict_events, train_sage_masked, FineTune, LabelMasking, TrainConfig,
};
