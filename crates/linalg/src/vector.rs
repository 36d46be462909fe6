//! Slice-level numeric primitives shared by the ML and GNN crates.
//!
//! These keep the strictly sequential accumulation order the repo's
//! bitwise gates pin (a lane-split `dot` would reassociate the sum),
//! so they are deliberately *not* manually unrolled. Hot
//! matrix-shaped products no longer run through `dot` at all — they
//! go through the cache-blocked kernels in [`crate::kernels`], which
//! reach SIMD throughput without reordering any element's sum (see
//! DESIGN.md §11).

/// Dot product of two equal-length slices, accumulated left to right.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Numerically stable softmax in place.
pub fn softmax_inplace(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let max = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in a.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in a.iter_mut() {
            *x /= sum;
        }
    }
}

/// Index of the maximum element (first on ties); `None` when empty.
pub fn argmax(a: &[f32]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in a.iter().enumerate().skip(1) {
        if x > a[best] {
            best = i;
        }
    }
    Some(best)
}

/// Mean of a slice; 0 when empty.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_a_vector_with_itself() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(dot(&a, &a), 14.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut a = [1000.0, 1001.0, 999.0];
        softmax_inplace(&mut a);
        let sum: f32 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(a[1] > a[0] && a[0] > a[2]);
    }

    #[test]
    fn softmax_handles_empty_and_uniform() {
        let mut e: [f32; 0] = [];
        softmax_inplace(&mut e);
        let mut u = [0.0, 0.0];
        softmax_inplace(&mut u);
        assert_eq!(u, [0.5, 0.5]);
    }

    #[test]
    fn argmax_prefers_first_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
