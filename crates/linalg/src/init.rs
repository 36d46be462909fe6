//! Random weight initialisers for the neural layers.

use rand::Rng;

use crate::Matrix;

/// He/Kaiming uniform initialisation for ReLU networks:
/// U(-a, a) with `a = sqrt(6 / fan_in)`.
pub fn he_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / fan_in.max(1) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..=a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn he_has_wider_bound_than_xavier_for_equal_fans() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = he_uniform(&mut rng, 10, 10);
        let bound = (6.0f32 / 10.0).sqrt();
        assert!(w.as_slice().iter().all(|x| x.abs() <= bound + 1e-6));
        // Non-degenerate: some mass away from zero.
        assert!(w.as_slice().iter().any(|x| x.abs() > bound / 4.0));
    }
}
