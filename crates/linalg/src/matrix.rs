//! Row-major dense `f32` matrix with blocked, threaded multiplication.

use crate::{Result, ShapeError};

/// Minimum work (rows * inner dim) before `matmul` spreads across threads.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// A dense row-major `f32` matrix.
///
/// Rows are contiguous, which makes per-sample access (the dominant
/// pattern in minibatch training) a single slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Make `self` a `rows x cols` matrix of zeros, reusing its buffer:
    /// the same value as [`Self::zeros`], allocating only when the
    /// buffer's capacity is too small.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Resize to `rows` rows, keeping the leading rows and zero-filling
    /// new ones. The buffer grows by amortised capacity, so a matrix
    /// grown a few rows at a time is copied O(log n) times in all, not
    /// once per call.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing buffer. Errors if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "buffer of len {} cannot be a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copy the given rows into a new matrix (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out)
            .expect("freshly sized");
        out
    }

    /// [`Self::gather_rows`] into a caller-owned matrix of shape
    /// `(indices.len(), cols)` — the allocation-free variant for hot
    /// loops with a reusable workspace.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Self) -> Result<()> {
        if out.shape() != (indices.len(), self.cols) {
            return Err(ShapeError::new(format!(
                "gather of {} rows x {} cols into {:?}",
                indices.len(),
                self.cols,
                out.shape()
            )));
        }
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(())
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        self.zip_inplace(other, |a, b| a + b)
    }

    /// `self -= other` (same shape).
    pub fn sub_assign(&mut self, other: &Self) -> Result<()> {
        self.zip_inplace(other, |a, b| a - b)
    }

    fn zip_inplace(&mut self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(format!(
                "element-wise op on {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// Multiply every element by a scalar.
    pub fn scale(&mut self, k: f32) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Add a row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(ShapeError::new("broadcast length != cols"));
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
        Ok(())
    }

    /// Sum over rows into a length-`cols` vector (bias gradient).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        out
    }

    /// `self @ other` — the classic product.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        self.matmul_with_threads(other, crate::pool::num_threads())
    }

    /// [`Self::matmul`] pinned to at most `threads` pool participants
    /// (1 ⇒ fully sequential). Rows are computed independently, so the
    /// result is bitwise identical for every thread count; exposed for
    /// the equivalence tests and sequential-baseline benches.
    pub fn matmul_with_threads(&self, other: &Self, threads: usize) -> Result<Self> {
        if self.cols != other.rows {
            return Err(ShapeError::new(format!(
                "matmul {:?} x {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let mut out = Self::zeros(self.rows, other.cols);
        matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            threads,
        );
        Ok(out)
    }

    /// `self @ other` into a caller-owned output matrix of shape
    /// `(self.rows, other.cols)`. The output is zeroed first, then the
    /// same kernel as [`Self::matmul`] runs — bitwise identical to the
    /// allocating form, without the allocation.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) -> Result<()> {
        if self.cols != other.rows || out.shape() != (self.rows, other.cols) {
            return Err(ShapeError::new(format!(
                "matmul {:?} x {:?} into {:?}",
                self.shape(),
                other.shape(),
                out.shape()
            )));
        }
        out.data.fill(0.0);
        matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            crate::pool::num_threads(),
        );
        Ok(())
    }

    /// `selfᵀ @ other` without materialising the transpose.
    ///
    /// Used for weight gradients: `dW = Xᵀ @ dY`.
    pub fn t_matmul(&self, other: &Self) -> Result<Self> {
        let mut out = Self::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out)?;
        Ok(out)
    }

    /// `out += selfᵀ @ other` into a caller-owned accumulator of shape
    /// `(self.cols, other.cols)`.
    ///
    /// The kernel adds into `out` in the same k-outermost order the
    /// allocating [`Self::t_matmul`] uses over a zero matrix, so
    /// accumulating into an already-zero target (an optimiser-zeroed
    /// gradient) is bitwise identical to `out += t_matmul(other)` —
    /// with neither the product nor the temporary allocated.
    pub fn t_matmul_acc(&self, other: &Self, out: &mut Self) -> Result<()> {
        if self.rows != other.rows || out.shape() != (self.cols, other.cols) {
            return Err(ShapeError::new(format!(
                "t_matmul {:?} x {:?} into {:?}",
                self.shape(),
                other.shape(),
                out.shape()
            )));
        }
        // out[i][j] += sum_k self[k][i] * other[k][j]; the blocked
        // kernel walks k in ascending tiles, so each element sees the
        // same increasing-k product order as the old k-outermost loop.
        crate::kernels::t_matmul_rows(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        Ok(())
    }

    /// `self @ otherᵀ` without materialising the transpose.
    ///
    /// Used for input gradients: `dX = dY @ Wᵀ`.
    pub fn matmul_t(&self, other: &Self) -> Result<Self> {
        let mut out = Self::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Self::matmul_t`] into a caller-owned output of shape
    /// `(self.rows, other.rows)`.
    ///
    /// `other` (a weight matrix in every workspace call site, so small)
    /// is transposed into a thread-local scratch buffer, then the
    /// blocked `matmul` kernel runs over the copy. Each output element
    /// is a fresh sum over ascending `k` — exactly the order the old
    /// per-element `dot(..)` used — so the result is bitwise identical
    /// to the allocating form and to the previous implementation, while
    /// the inner loop vectorises instead of serialising on one
    /// accumulator. The scratch is reused across calls; steady-state
    /// backward passes stay allocation-free.
    pub fn matmul_t_into(&self, other: &Self, out: &mut Self) -> Result<()> {
        if self.cols != other.cols || out.shape() != (self.rows, other.rows) {
            return Err(ShapeError::new(format!(
                "matmul_t {:?} x {:?} into {:?}",
                self.shape(),
                other.shape(),
                out.shape()
            )));
        }
        let inner = self.cols;
        let work = self.rows * inner;
        let min_rows = if work < PARALLEL_THRESHOLD {
            self.rows.max(1) // below threshold: one band, no pool trip
        } else {
            (PARALLEL_THRESHOLD / 8 / inner.max(1)).max(1)
        };
        BT_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let n = other.rows * other.cols;
            if scratch.len() < n {
                scratch.resize(n, 0.0);
            }
            let bt = &mut scratch[..n];
            for (r, row) in other.data.chunks_exact(other.cols.max(1)).enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    bt[c * other.rows + r] = v;
                }
            }
            crate::pool::parallel_for_rows(&mut out.data, other.rows, min_rows, |row0, band| {
                let band_rows = band.len() / other.rows;
                let a_band = &self.data[row0 * inner..(row0 + band_rows) * inner];
                band.fill(0.0);
                crate::kernels::matmul_rows(a_band, inner, bt, other.rows, band);
            });
        });
        Ok(())
    }

    /// `self @ other` into `out` with the legacy `av == 0.0` fast path:
    /// a zero entry in `self` skips its whole B-row term. On **finite**
    /// inputs this is bitwise identical to [`Self::matmul_into`] — an
    /// accumulator that starts at `+0.0` can never become `-0.0`, so
    /// adding the skipped `±0.0` products never changes a bit — but a
    /// zero in `self` shields NaN/Inf in the corresponding row of
    /// `other` from propagating. Use it only where both inputs are
    /// known finite and `self` is meaningfully sparse (one-hot feature
    /// blocks, post-ReLU activations); dense callers should prefer
    /// [`Self::matmul_into`], whose blocked kernel wins on dense data
    /// and keeps IEEE propagation intact.
    pub fn matmul_sparse_into(&self, other: &Self, out: &mut Self) -> Result<()> {
        if self.cols != other.rows || out.shape() != (self.rows, other.cols) {
            return Err(ShapeError::new(format!(
                "matmul_sparse {:?} x {:?} into {:?}",
                self.shape(),
                other.shape(),
                out.shape()
            )));
        }
        out.data.fill(0.0);
        let work = self.rows * self.cols;
        if work < PARALLEL_THRESHOLD || crate::pool::num_threads() < 2 || self.rows < 2 {
            crate::reference::matmul_rows_skip(
                &self.data,
                self.cols,
                &other.data,
                other.cols,
                &mut out.data,
            );
            return Ok(());
        }
        let a = &self.data;
        let a_cols = self.cols;
        let b_cols = other.cols;
        crate::pool::parallel_for_rows(&mut out.data, b_cols, 1, |row0, c_band| {
            let band_rows = c_band.len() / b_cols;
            let a_band = &a[row0 * a_cols..(row0 + band_rows) * a_cols];
            crate::reference::matmul_rows_skip(a_band, a_cols, &other.data, b_cols, c_band);
        });
        Ok(())
    }
}

std::thread_local! {
    /// Transposed-RHS scratch for [`Matrix::matmul_t_into`]; grown on
    /// first use per shape, then reused (capacity is never shrunk), so
    /// repeated backward passes allocate nothing.
    static BT_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Blocked `C += A @ B` kernel over raw buffers; submits row bands to
/// the shared worker pool when the problem is large enough. Each
/// output row is produced by exactly one thread with an unchanged
/// inner-loop order, so the product is bitwise identical for every
/// thread count.
fn matmul_into(
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    b: &[f32],
    b_cols: usize,
    c: &mut [f32],
    threads: usize,
) {
    let work = a_rows * a_cols;
    if work < PARALLEL_THRESHOLD || threads < 2 || a_rows < 2 {
        crate::kernels::matmul_rows(a, a_cols, b, b_cols, c);
        return;
    }
    crate::pool::parallel_for_rows_limit(threads, c, b_cols, 1, |row0, c_band| {
        let band_rows = c_band.len() / b_cols;
        let a_band = &a[row0 * a_cols..(row0 + band_rows) * a_cols];
        crate::kernels::matmul_rows(a_band, a_cols, b, b_cols, c_band);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn resize_rows_keeps_leading_rows_and_zero_fills() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.resize_rows(3);
        assert_eq!(a, m(3, 2, &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0]));
        a.resize_rows(1);
        assert_eq!(a, m(1, 2, &[1.0, 2.0]));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &[1.0; 12]);
        let fast = a.matmul_t(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Big enough to trip the parallel path.
        let n = 300;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let c = a.matmul(&b).unwrap();
        // Check a handful of entries against a direct computation.
        for &(r, col) in &[(0, 0), (1, 7), (299, 299), (150, 42)] {
            let expect: f32 = (0..n).map(|k| a[(r, k)] * b[(k, col)]).sum();
            assert!((c[(r, col)] - expect).abs() < 1e-3, "entry ({r},{col})");
        }
    }

    #[test]
    fn matmul_identical_across_thread_counts() {
        // Row-banded parallelism must be bitwise equal to sequential.
        let n = 192;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f32 / 7.0 - 0.9);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 11) as f32 / 5.0 - 1.1);
        let seq = a.matmul_with_threads(&b, 1).unwrap();
        for threads in [2usize, 8] {
            assert_eq!(
                a.matmul_with_threads(&b, threads).unwrap(),
                seq,
                "threads={threads}"
            );
        }
        assert_eq!(a.matmul(&b).unwrap(), seq);
    }

    #[test]
    fn into_variants_match_allocating_forms_bitwise() {
        let n = 64;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f32 / 7.0 - 0.9);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 11) as f32 / 5.0 - 1.1);

        let mut out = Matrix::from_fn(n, n, |_, _| 42.0); // stale garbage
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());

        let mut out = Matrix::from_fn(n, n, |_, _| -3.0);
        a.matmul_t_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul_t(&b).unwrap());

        // t_matmul_acc accumulates: from zero it is bitwise equal to
        // t_matmul (the property gradient accumulation relies on). A
        // second call doubles the result only up to f32 rounding —
        // interleaving k-terms with a non-zero start reorders the
        // summation.
        let mut acc = Matrix::zeros(n, n);
        a.t_matmul_acc(&b, &mut acc).unwrap();
        let product = a.t_matmul(&b).unwrap();
        assert_eq!(acc, product);
        a.t_matmul_acc(&b, &mut acc).unwrap();
        for (&x, &y) in acc.as_slice().iter().zip(product.as_slice()) {
            assert!(
                (x - 2.0 * y).abs() <= 1e-3 * y.abs().max(1.0),
                "{x} vs 2*{y}"
            );
        }

        let mut sub = Matrix::zeros(2, n);
        a.gather_rows_into(&[5, 9], &mut sub).unwrap();
        assert_eq!(sub, a.gather_rows(&[5, 9]));

        // Shape mismatches are rejected.
        let mut wrong = Matrix::zeros(n + 1, n);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
        assert!(a.matmul_t_into(&b, &mut wrong).is_err());
        assert!(a.t_matmul_acc(&b, &mut wrong).is_err());
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]).unwrap();
        assert_eq!(a.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn gather_rows_copies() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[20.0, 21.0, 0.0, 1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        a.sub_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
