//! Dense `f32` linear-algebra kernels backing the TRAIL reproduction.
//!
//! The TRAIL paper trains multilayer perceptrons, autoencoders and
//! GraphSAGE networks over feature matrices with up to 1,517 columns.
//! No external BLAS is available in this environment, so this crate
//! provides the small set of dense kernels those models need:
//!
//! * [`Matrix`] — row-major `f32` matrix with blocked, optionally
//!   multi-threaded multiplication (plain / transposed variants).
//! * [`pool`] — the workspace-wide persistent worker pool behind every
//!   parallel kernel (matmul, CSR aggregation, tree ensembles), with
//!   the `TRAIL_THREADS` thread-count policy.
//! * [`vector`] — slice-level primitives (dot, softmax, argmax).
//! * [`stats`] — column statistics used by the standard scaler.
//! * [`init`] — Xavier/He random initialisers for network weights.
//!
//! Everything is deterministic given a seeded RNG; parallel kernels
//! partition work by output row so results do not depend on the
//! thread count.

pub mod init;
pub mod kernels;
pub mod matrix;
pub mod pool;
pub mod quant;
pub mod reference;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;

/// Error type for shape mismatches in matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub what: String,
}

impl ShapeError {
    /// Build a shape error from anything displayable.
    pub fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape error: {}", self.what)
    }
}

impl std::error::Error for ShapeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ShapeError>;
