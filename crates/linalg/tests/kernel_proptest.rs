//! Property tests for the blocked kernels' bitwise contract.
//!
//! The cache-blocked kernels in `trail_linalg::kernels` claim to be
//! *bitwise identical* to the loops they replaced (DESIGN.md §11):
//! same per-element products, same increasing-k accumulation order,
//! only the register/memory residency of partial sums changes. These
//! tests check that claim across randomized shapes — including the
//! degenerate 0-row / 0-col / 1-row / 1-col edges where the tiling
//! logic has tails everywhere — against both the naive branch-free
//! loop and the legacy zero-skipping reference (equal on finite
//! inputs, because adding `±0.0` products to a `+0.0`-started
//! accumulator can never flip it to `-0.0`).
//!
//! The i8 path makes a weaker promise: per element,
//! `|f32 − quant| ≤ K · s_a[i] · s_b[j] · 127.25` (each of the K
//! products errs by at most `s_a·s_b·(127/2 + 127/2 + 1/4)`; the i32
//! accumulation itself is exact). That bound is asserted exactly.

use proptest::prelude::*;
use trail_linalg::quant::{matmul_quant_into, QuantizedMatrix, QuantizedWeights};
use trail_linalg::{kernels, reference, Matrix};

/// Deterministic fill: varied magnitudes with exact zeros mixed in so
/// the zero-skip comparison actually exercises the skipped branch.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((s >> 33) as i32 % 1000) as f32 / 97.0;
            if (s >> 20).is_multiple_of(5) {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn naive_matmul(a: &[f32], a_cols: usize, b: &[f32], b_cols: usize, c: &mut [f32]) {
    // An empty k or n sums no products: `c` keeps its zeros (and
    // `chunks_exact(0)` would panic).
    if a_cols == 0 || b_cols == 0 {
        return;
    }
    for (a_row, c_row) in a.chunks_exact(a_cols).zip(c.chunks_exact_mut(b_cols)) {
        for (k, &av) in a_row.iter().enumerate() {
            let b_row = &b[k * b_cols..(k + 1) * b_cols];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

fn assert_bitwise(label: &str, m: usize, k: usize, n: usize, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len());
    for (idx, (x, y)) in want.iter().zip(got).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label} ({m},{k},{n}) diverged at {idx}: {x} vs {y}"
        );
    }
}

/// `k = 0` at fixed shapes, so the empty-product edge does not depend
/// on which shapes the seeded property below happens to draw.
#[test]
fn matmul_with_empty_k_leaves_c_at_zero() {
    for (m, n) in [(0, 0), (1, 1), (3, 17), (5, 69), (39, 16), (4, 0)] {
        let zeros = vec![0.0f32; m * n];
        let mut naive = zeros.clone();
        let mut skip = zeros.clone();
        let mut blocked = zeros.clone();
        naive_matmul(&[], 0, &[], n, &mut naive);
        reference::matmul_rows_skip(&[], 0, &[], n, &mut skip);
        kernels::matmul_rows(&[], 0, &[], n, &mut blocked);
        assert_bitwise("naive vs zeros", m, 0, n, &zeros, &naive);
        assert_bitwise("matmul vs zeros", m, 0, n, &zeros, &blocked);
        assert_bitwise("matmul vs zero-skip", m, 0, n, &skip, &blocked);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked `matmul_rows` is bitwise-equal to the naive ikj loop and
    /// (on finite inputs) to the legacy zero-skipping kernel, for any
    /// shape including empty and single-row/column matrices.
    #[test]
    fn matmul_blocked_is_bitwise_exact(
        m in 0usize..40,
        k in 0usize..70,
        n in 0usize..70,
        seed in 0u64..1 << 48,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0x9e3779b97f4a7c15, k * n);
        let mut naive = vec![0.0f32; m * n];
        let mut skip = naive.clone();
        let mut blocked = naive.clone();
        naive_matmul(&a, k, &b, n, &mut naive);
        reference::matmul_rows_skip(&a, k, &b, n, &mut skip);
        kernels::matmul_rows(&a, k, &b, n, &mut blocked);
        assert_bitwise("matmul vs naive", m, k, n, &naive, &blocked);
        assert_bitwise("matmul vs zero-skip", m, k, n, &skip, &blocked);
    }

    /// Blocked `t_matmul_rows` (`out += Aᵀ·B`) matches the k-outermost
    /// naive loop and the zero-skipping reference bitwise, accumulating
    /// onto a non-zero starting buffer.
    #[test]
    fn t_matmul_blocked_is_bitwise_exact(
        rows in 0usize..60,
        d_in in 0usize..40,
        d_out in 0usize..40,
        seed in 0u64..1 << 48,
    ) {
        let a = fill(seed, rows * d_in);
        let b = fill(seed ^ 0xda942042e4dd58b5, rows * d_out);
        let start = fill(seed ^ 0x2545f4914f6cdd1d, d_in * d_out);
        let mut naive = start.clone();
        let mut skip = start.clone();
        let mut blocked = start.clone();
        for k in 0..rows {
            for i in 0..d_in {
                let av = a[k * d_in + i];
                for j in 0..d_out {
                    naive[i * d_out + j] += av * b[k * d_out + j];
                }
            }
        }
        reference::t_matmul_rows_skip(&a, rows, d_in, &b, d_out, &mut skip);
        kernels::t_matmul_rows(&a, rows, d_in, &b, d_out, &mut blocked);
        assert_bitwise("t_matmul vs naive", rows, d_in, d_out, &naive, &blocked);
        assert_bitwise("t_matmul vs zero-skip", rows, d_in, d_out, &skip, &blocked);
    }

    /// `Matrix::matmul_t_into` (now transpose-then-blocked-matmul) is
    /// bitwise-equal to the per-element dot-product loop it replaced.
    #[test]
    fn matmul_t_matches_dot_reference_bitwise(
        m in 1usize..32,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1 << 48,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xa0761d6478bd642f, n * k);
        let mut want = vec![0.0f32; m * n];
        reference::matmul_t_rows_dot(&a, k, &b, n, &mut want);
        let am = Matrix::from_vec(m, k, a).unwrap();
        let bm = Matrix::from_vec(n, k, b).unwrap();
        let mut out = Matrix::zeros(m, n);
        am.matmul_t_into(&bm, &mut out).unwrap();
        assert_bitwise("matmul_t vs dot", m, k, n, &want, out.as_slice());
    }

    /// The i8 product honours its analytic error bound against the f32
    /// product: per element, at most `K · s_a[i] · s_b[j] · 127.25`.
    #[test]
    fn quant_matmul_error_is_bounded(
        m in 1usize..24,
        k in 1usize..64,
        n in 1usize..24,
        seed in 0u64..1 << 48,
    ) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xe7037ed1a0b428db, k * n);
        let am = Matrix::from_vec(m, k, a.clone()).unwrap();
        let bm = Matrix::from_vec(k, n, b.clone()).unwrap();
        let mut exact = vec![0.0f32; m * n];
        naive_matmul(&a, k, &b, n, &mut exact);
        let qa = QuantizedMatrix::quantize_rows(&am);
        let qbt = QuantizedWeights::from_cols(&bm);
        let mut got = Matrix::zeros(m, n);
        matmul_quant_into(&qa, &qbt, &mut got).unwrap();
        for i in 0..m {
            for j in 0..n {
                let bound = k as f32 * qa.scales()[i] * qbt.scales()[j] * 127.25 + 1e-4;
                let err = (exact[i * n + j] - got.as_slice()[i * n + j]).abs();
                prop_assert!(
                    err <= bound,
                    "({m},{k},{n}) at ({i},{j}): err {err} > bound {bound}"
                );
            }
        }
    }
}
