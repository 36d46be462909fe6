//! Differentiable layers: linear, ReLU, batch-norm, dropout — exactly
//! the blocks of the paper's MLP (Section VI-A).

use rand::Rng;
use trail_linalg::{init, Matrix};

/// A trainable parameter with its gradient accumulator and Adam state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Gradient of the last backward pass.
    pub grad: Matrix,
    /// Adam first-moment state.
    pub m: Matrix,
    /// Adam second-moment state.
    pub v: Matrix,
}

impl Param {
    /// Wrap an initial value with zeroed gradient and optimiser state.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }
}

/// A differentiable layer.
pub trait Layer {
    /// Forward pass. `train` toggles batch statistics and dropout.
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix;

    /// Inference-only forward pass: no caches, no batch statistics,
    /// dropout disabled. Usable from `&self`.
    fn forward_eval(&self, x: &Matrix) -> Matrix;

    /// Backward pass: consume `d_out`, accumulate parameter gradients,
    /// return the gradient w.r.t. the input. Must follow a `forward`
    /// with `train = true`.
    fn backward(&mut self, d_out: &Matrix) -> Matrix;

    /// Visit every trainable parameter (optimiser hook).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer: `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `in x out`.
    pub w: Param,
    /// Bias, `1 x out`.
    pub b: Param,
    cache_x: Option<Matrix>,
}

impl Linear {
    /// He-initialised linear layer (suits the ReLU stacks used here).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Self {
        Self {
            w: Param::new(init::he_uniform(rng, fan_in, fan_out)),
            b: Param::new(Matrix::zeros(1, fan_out)),
            cache_x: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if train {
            self.cache_x = Some(x.clone());
        }
        self.forward_eval(x)
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value).expect("linear shape");
        y.add_row_broadcast(self.b.value.as_slice())
            .expect("bias shape");
        y
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("backward before forward");
        let dw = x.t_matmul(d_out).expect("dw shape");
        self.w.grad.add_assign(&dw).expect("dw accum");
        let db = d_out.col_sums();
        for (g, d) in self.b.grad.as_mut_slice().iter_mut().zip(db) {
            *g += d;
        }
        d_out.matmul_t(&self.w.value).expect("dx shape")
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Rectified linear activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Layer for Relu {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if train {
            self.mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
        }
        x.map(|v| v.max(0.0))
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        assert_eq!(
            d_out.as_slice().len(),
            self.mask.len(),
            "backward before forward"
        );
        let mut dx = d_out.clone();
        for (g, &keep) in dx.as_mut_slice().iter_mut().zip(&self.mask) {
            if !keep {
                *g = 0.0;
            }
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

// ---------------------------------------------------------------------------
// BatchNorm1d
// ---------------------------------------------------------------------------

/// Batch normalisation over the batch dimension with learnable scale
/// and shift; running statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    /// Scale (gamma), `1 x d`.
    pub gamma: Param,
    /// Shift (beta), `1 x d`.
    pub beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Matrix,
    inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// New batch-norm over `d` features.
    pub fn new(d: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::from_fn(1, d, |_, _| 1.0)),
            beta: Param::new(Matrix::zeros(1, d)),
            running_mean: vec![0.0; d],
            running_var: vec![1.0; d],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let d = x.cols();
        assert_eq!(d, self.running_mean.len());
        let (mean, var) = if train {
            let mean = trail_linalg::stats::col_means(x);
            let var = trail_linalg::stats::col_vars(x, &mean);
            for i in 0..d {
                self.running_mean[i] =
                    (1.0 - self.momentum) * self.running_mean[i] + self.momentum * mean[i];
                self.running_var[i] =
                    (1.0 - self.momentum) * self.running_var[i] + self.momentum * var[i];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = x.clone();
        for row in x_hat.as_mut_slice().chunks_exact_mut(d) {
            for ((v, &mu), &is) in row.iter_mut().zip(&mean).zip(&inv_std) {
                *v = (*v - mu) * is;
            }
        }
        let mut y = x_hat.clone();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        for row in y.as_mut_slice().chunks_exact_mut(d) {
            for ((v, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
                *v = *v * g + b;
            }
        }
        if train {
            self.cache = Some(BnCache { x_hat, inv_std });
        }
        y
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let d = x.cols();
        let inv_std: Vec<f32> = self
            .running_var
            .iter()
            .map(|&v| 1.0 / (v + self.eps).sqrt())
            .collect();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        let mut y = x.clone();
        for row in y.as_mut_slice().chunks_exact_mut(d) {
            for i in 0..d {
                row[i] = (row[i] - self.running_mean[i]) * inv_std[i] * gamma[i] + beta[i];
            }
        }
        y
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward before forward");
        let n = d_out.rows() as f32;
        let d = d_out.cols();
        // d_gamma = sum(d_out * x_hat), d_beta = sum(d_out)
        let mut d_gamma = vec![0.0f32; d];
        let mut d_beta = vec![0.0f32; d];
        for (dr, xr) in d_out.rows_iter().zip(cache.x_hat.rows_iter()) {
            for i in 0..d {
                d_gamma[i] += dr[i] * xr[i];
                d_beta[i] += dr[i];
            }
        }
        for (g, v) in self.gamma.grad.as_mut_slice().iter_mut().zip(&d_gamma) {
            *g += v;
        }
        for (g, v) in self.beta.grad.as_mut_slice().iter_mut().zip(&d_beta) {
            *g += v;
        }
        // dx = gamma*inv_std/n * (n*d_out - d_beta - x_hat*d_gamma)
        let gamma = self.gamma.value.as_slice();
        let mut dx = Matrix::zeros(d_out.rows(), d);
        for r in 0..d_out.rows() {
            let dr = d_out.row(r);
            let xr = cache.x_hat.row(r);
            let out = dx.row_mut(r);
            for i in 0..d {
                out[i] =
                    gamma[i] * cache.inv_std[i] / n * (n * dr[i] - d_beta[i] - xr[i] * d_gamma[i]);
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: active during training only.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    mask: Vec<f32>,
    seed: u64,
    step: u64,
}

impl Dropout {
    /// Dropout with the given drop probability. `seed` keeps the layer
    /// deterministic without threading an RNG through `forward`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate));
        Self {
            rate,
            mask: Vec::new(),
            seed,
            step: 0,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if !train || self.rate == 0.0 {
            return x.clone();
        }
        use rand::{rngs::StdRng, SeedableRng};
        self.step += 1;
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.step.wrapping_mul(0x9e3779b97f4a7c15));
        let keep = 1.0 - self.rate;
        self.mask = x
            .as_slice()
            .iter()
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = x.clone();
        for (v, &m) in y.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        y
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        x.clone()
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        if self.mask.is_empty() {
            return d_out.clone();
        }
        let mut dx = d_out.clone();
        for (v, &m) in dx.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn numeric_grad(
        layer: &mut dyn Layer,
        x: &Matrix,
        d_out_fn: impl Fn(&Matrix) -> f32,
        at: (usize, usize),
    ) -> f32 {
        let eps = 1e-3;
        let mut xp = x.clone();
        xp[(at.0, at.1)] += eps;
        let mut xm = x.clone();
        xm[(at.0, at.1)] -= eps;
        let fp = d_out_fn(&layer.forward(&xp, false));
        let fm = d_out_fn(&layer.forward(&xm, false));
        (fp - fm) / (2.0 * eps)
    }

    #[test]
    fn linear_forward_and_grad_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(&mut rng, 3, 2);
        let x = Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]).unwrap();
        // Loss = sum of outputs; then d_out = ones.
        let y = lin.forward(&x, true);
        let d_out = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        let dx = lin.backward(&d_out);
        // Analytic dx vs numeric.
        let numeric = numeric_grad(&mut lin, &x, |y| y.as_slice().iter().sum(), (0, 1));
        assert!(
            (dx[(0, 1)] - numeric).abs() < 1e-2,
            "{} vs {numeric}",
            dx[(0, 1)]
        );
        // dW = Xᵀ @ ones: check one entry.
        assert!((lin.w.grad[(0, 0)] - (0.5 + 1.5)).abs() < 1e-5);
        // db = column sums of ones = batch size.
        assert!((lin.b.grad[(0, 0)] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut relu = Relu::default();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = relu.backward(&Matrix::from_fn(1, 4, |_, _| 1.0));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn batchnorm_normalises_in_train_mode() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_vec(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]).unwrap();
        let y = bn.forward(&x, true);
        let mean = trail_linalg::stats::col_means(&y);
        let var = trail_linalg::stats::col_vars(&y, &mean);
        assert!(mean.iter().all(|m| m.abs() < 1e-4));
        assert!(var.iter().all(|v| (v - 1.0).abs() < 1e-2));
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Matrix::from_vec(4, 1, vec![5.0, 5.0, 5.0, 5.0]).unwrap();
        for _ in 0..200 {
            bn.forward(&x, true);
        }
        // After many identical batches, running mean ~ 5 and var ~ 0:
        // eval of the same input is ~0.
        let y = bn.forward(&x, false);
        assert!(
            y.as_slice().iter().all(|v| v.abs() < 0.2),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    fn batchnorm_backward_grad_flows() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        bn.forward(&x, true);
        let d = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let dx = bn.backward(&d);
        assert_eq!(dx.shape(), (3, 2));
        assert!(dx.as_slice().iter().all(|v| v.is_finite()));
        // Sum of dx over the batch per column is ~0 (a batchnorm identity).
        let sums = dx.col_sums();
        assert!(sums.iter().all(|s| s.abs() < 1e-4), "{sums:?}");
    }

    #[test]
    fn dropout_scales_and_is_identity_at_eval() {
        let mut dp = Dropout::new(0.5, 42);
        let x = Matrix::from_fn(10, 10, |_, _| 1.0);
        let eval = dp.forward(&x, false);
        assert_eq!(eval, x);
        let train = dp.forward(&x, true);
        // Inverted dropout: surviving entries are scaled by 2.
        let kinds: std::collections::HashSet<u32> =
            train.as_slice().iter().map(|&v| v as u32).collect();
        assert!(kinds.contains(&0) && kinds.contains(&2));
        // Expected mean stays ~1.
        let mean: f32 = train.as_slice().iter().sum::<f32>() / 100.0;
        assert!((mean - 1.0).abs() < 0.35, "{mean}");
    }
}
