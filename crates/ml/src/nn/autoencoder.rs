//! Autoencoders for IOC feature projection (paper Section VI-C, Eq. 5).
//!
//! URLs, IPs and domains have different dimensionalities (1,517 / 507 /
//! 115). The paper trains one encoder/decoder pair per type — two-layer
//! feed-forward networks with 512 hidden units and a 64-dim code — and
//! feeds the codes into GraphSAGE while keeping a reconstruction loss
//! so information survives the projection.

use rand::Rng;
use trail_linalg::Matrix;

use super::layers::{Layer, Linear, Relu};
use super::loss::mse;
use super::optim::Adam;

/// Autoencoder hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AutoencoderConfig {
    /// Hidden width of both encoder and decoder (paper: 512).
    pub hidden: usize,
    /// Code width (paper: 64).
    pub code: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        Self {
            hidden: 512,
            code: 64,
            lr: 1e-3,
            epochs: 15,
            batch_size: 256,
        }
    }
}

/// A two-layer encoder / two-layer decoder pair.
pub struct Autoencoder {
    enc1: Linear,
    enc_act: Relu,
    enc2: Linear,
    dec1: Linear,
    dec_act: Relu,
    dec2: Linear,
    code_dim: usize,
}

impl Autoencoder {
    /// Build untrained.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, d_in: usize, cfg: &AutoencoderConfig) -> Self {
        Self {
            enc1: Linear::new(rng, d_in, cfg.hidden),
            enc_act: Relu::default(),
            enc2: Linear::new(rng, cfg.hidden, cfg.code),
            dec1: Linear::new(rng, cfg.code, cfg.hidden),
            dec_act: Relu::default(),
            dec2: Linear::new(rng, cfg.hidden, d_in),
            code_dim: cfg.code,
        }
    }

    /// Code dimensionality.
    pub fn code_dim(&self) -> usize {
        self.code_dim
    }

    /// Encode a batch into code space (inference mode).
    pub fn encode(&self, x: &Matrix) -> Matrix {
        let h = self.enc1.forward_eval(x);
        let h = self.enc_act.forward_eval(&h);
        self.enc2.forward_eval(&h)
    }

    /// One training step on a batch; returns the reconstruction loss.
    pub fn train_batch(&mut self, x: &Matrix, adam: &mut Adam) -> f32 {
        // Forward with caches.
        let h1 = self.enc1.forward(x, true);
        let a1 = self.enc_act.forward(&h1, true);
        let code = self.enc2.forward(&a1, true);
        let h2 = self.dec1.forward(&code, true);
        let a2 = self.dec_act.forward(&h2, true);
        let recon = self.dec2.forward(&a2, true);
        let (loss, d_recon) = mse(&recon, x);
        // Backward.
        let g = self.dec2.backward(&d_recon);
        let g = self.dec_act.backward(&g);
        let g = self.dec1.backward(&g);
        let g = self.enc2.backward(&g);
        let g = self.enc_act.backward(&g);
        let _ = self.enc1.backward(&g);
        // Step.
        adam.tick();
        for layer in [
            &mut self.enc1,
            &mut self.enc2,
            &mut self.dec1,
            &mut self.dec2,
        ] {
            layer.visit_params(&mut |p| adam.step(p));
        }
        loss
    }

    /// Full training loop; returns per-epoch mean loss.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        x: &Matrix,
        cfg: &AutoencoderConfig,
    ) -> Vec<f32> {
        use rand::seq::SliceRandom;
        let mut adam = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            order.shuffle(rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let xb = x.gather_rows(chunk);
                total += self.train_batch(&xb, &mut adam);
                batches += 1;
            }
            losses.push(if batches > 0 {
                total / batches as f32
            } else {
                0.0
            });
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Low-rank data: rows live on a 2-D subspace of R^8; a 4-dim code
    /// reconstructs it well.
    fn low_rank(n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(11);
        Matrix::from_fn(n, 8, |r, c| {
            let _ = r;
            let a: f32 = ((r * 31) % 17) as f32 / 17.0 - 0.5;
            let b: f32 = ((r * 7) % 13) as f32 / 13.0 - 0.5;
            let noise = rng.gen_range(-0.01..0.01);
            a * (c as f32 + 1.0) * 0.3 + b * ((8 - c) as f32) * 0.2 + noise
        })
    }

    #[test]
    fn reconstruction_improves_with_training() {
        let x = low_rank(128);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = AutoencoderConfig {
            hidden: 16,
            code: 4,
            lr: 1e-2,
            epochs: 40,
            batch_size: 32,
        };
        let mut ae = Autoencoder::new(&mut rng, 8, &cfg);
        let losses = ae.train(&mut rng, &x, &cfg);
        assert!(losses.last().unwrap() < &(losses[0] * 0.2), "{losses:?}");
    }

    #[test]
    fn code_has_requested_dim() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = AutoencoderConfig {
            hidden: 8,
            code: 3,
            ..Default::default()
        };
        let ae = Autoencoder::new(&mut rng, 10, &cfg);
        let x = Matrix::zeros(5, 10);
        assert_eq!(ae.encode(&x).shape(), (5, 3));
        assert_eq!(ae.code_dim(), 3);
    }

    #[test]
    fn encode_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = AutoencoderConfig {
            hidden: 8,
            code: 3,
            ..Default::default()
        };
        let ae = Autoencoder::new(&mut rng, 6, &cfg);
        let x = Matrix::from_fn(4, 6, |r, c| (r + c) as f32);
        assert_eq!(ae.encode(&x), ae.encode(&x));
    }
}
