//! Train-and-freeze: produce the immutable artefacts `trail-serve`
//! packages into a `ServeBundle`.
//!
//! Serving attributes *fresh* incidents against the full historical
//! TKG, so — unlike the Table IV folds — the model here trains on
//! every ingested event (the Fig. 10 protocol: all labels are
//! history, nothing is held out). The output is deliberately plain
//! data: the per-node codes, the shared SAGE architecture and its
//! trained parameters. `trail-serve` owns the bundle format and this
//! module the training recipe, so the two evolve independently. The one
//! piece of encoding here is the model section of TSB1 bundles:
//! matrices, the [`SageConfig`] and the per-layer weight list.

use rand::Rng;
use trail_gnn::{SageConfig, SageModel};
use trail_graph::frame::{put_u32, put_u64, Cursor};
use trail_graph::PersistError;
use trail_linalg::Matrix;
use trail_ml::nn::autoencoder::AutoencoderConfig;

use crate::attribute::{train_event_gnn, GnnEvalConfig};
use crate::embed;
use crate::tkg::Tkg;

/// Everything the serving layer needs to score queries, frozen after
/// training. Parameters are extracted as plain matrices so the bundle
/// format never depends on `SageModel`'s internals.
pub struct FrozenModel {
    /// Per-node autoencoder codes (zero rows for unfeatured nodes).
    pub codes: Matrix,
    /// Code width.
    pub code_dim: usize,
    /// The SAGE architecture the weights belong to.
    pub sage_cfg: SageConfig,
    /// Trained parameters, per layer `(W_root, W_nbr, b)`.
    pub layers: Vec<(Matrix, Matrix, Matrix)>,
}

impl FrozenModel {
    /// Reconstruct a runnable model from the frozen parameters.
    ///
    /// The skeleton is seeded deterministically and then overwritten
    /// layer by layer, so every call yields a bitwise-identical model —
    /// the property the serving runtime's per-worker replicas rely on.
    pub fn instantiate(&self) -> SageModel {
        instantiate(self.sage_cfg, &self.layers)
    }
}

/// Build a [`SageModel`] carrying exactly `layers` as parameters.
pub fn instantiate(cfg: SageConfig, layers: &[(Matrix, Matrix, Matrix)]) -> SageModel {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = SageModel::new(&mut rng, cfg);
    for (l, (w_root, w_nbr, b)) in layers.iter().enumerate() {
        model.set_layer_weights(l, w_root.clone(), w_nbr.clone(), b.clone());
    }
    model
}

// --- model section codec (TSB1) --------------------------------------------

/// Append `rows:u64, cols:u64`, then the entries' f32 bits row-major.
pub fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    for &v in m.as_slice() {
        put_u32(out, v.to_bits());
    }
}

/// Read a matrix written by [`put_matrix`].
pub fn read_matrix(c: &mut Cursor<'_>, what: &'static str) -> Result<Matrix, PersistError> {
    let (rows, cols) = (c.u64(what)?, c.u64(what)?);
    let n = c.bound(rows.saturating_mul(cols), 4, what)?;
    let shape = usize::try_from(rows).ok().zip(usize::try_from(cols).ok());
    let (rows, cols) = shape.ok_or_else(|| c.err(what))?;
    let data = c
        .take(4 * n, what)?
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect();
    Matrix::from_vec(rows, cols, data).map_err(|_| c.err(what))
}

/// Append the architecture: four `u64` sizes, then `l2_normalize` as
/// one 0/1 byte.
pub fn put_sage_config(out: &mut Vec<u8>, cfg: &SageConfig) {
    for v in [cfg.input_dim, cfg.hidden, cfg.layers, cfg.n_classes] {
        put_u64(out, v as u64);
    }
    out.push(cfg.l2_normalize as u8);
}

/// Read an architecture written by [`put_sage_config`].
pub fn read_sage_config(c: &mut Cursor<'_>) -> Result<SageConfig, PersistError> {
    Ok(SageConfig {
        input_dim: c.u64("sage.input_dim")? as usize,
        hidden: c.u64("sage.hidden")? as usize,
        layers: c.u64("sage.layers")? as usize,
        n_classes: c.u64("sage.n_classes")? as usize,
        l2_normalize: c.bool("sage.l2_normalize")?,
    })
}

/// Append a `u64` layer count, then `(W_root, W_nbr, b)` per layer.
pub fn put_layers(out: &mut Vec<u8>, layers: &[(Matrix, Matrix, Matrix)]) {
    put_u64(out, layers.len() as u64);
    for (w_root, w_nbr, b) in layers {
        put_matrix(out, w_root);
        put_matrix(out, w_nbr);
        put_matrix(out, b);
    }
}

/// Read a layer list written by [`put_layers`] and [`check_layers`] it
/// against `cfg`.
pub fn read_layers(
    c: &mut Cursor<'_>,
    cfg: &SageConfig,
) -> Result<Vec<(Matrix, Matrix, Matrix)>, PersistError> {
    // Three 16-byte matrix headers per layer.
    let n = c.count_u64(48, "layer count")?;
    let layers = (0..n)
        .map(|_| {
            Ok((
                read_matrix(c, "W_root")?,
                read_matrix(c, "W_nbr")?,
                read_matrix(c, "b")?,
            ))
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    check_layers(cfg, &layers)?;
    Ok(layers)
}

/// Check that `layers` fit `cfg`: one entry per layer, each shaped as
/// [`SageModel::new`] builds it, so [`instantiate`] cannot panic on
/// them. The error offset is the index of the first bad layer.
pub fn check_layers(
    cfg: &SageConfig,
    layers: &[(Matrix, Matrix, Matrix)],
) -> Result<(), PersistError> {
    if cfg.layers == 0 || cfg.layers != layers.len() {
        return Err(PersistError::Malformed {
            offset: 0,
            what: "layer count vs architecture",
        });
    }
    let mut d_in = cfg.input_dim;
    for (l, (w_root, w_nbr, b)) in layers.iter().enumerate() {
        let d_out = if l + 1 == cfg.layers {
            cfg.n_classes
        } else {
            cfg.hidden
        };
        if w_root.shape() != (d_in, d_out)
            || w_nbr.shape() != (d_in, d_out)
            || b.shape() != (1, d_out)
        {
            return Err(PersistError::Malformed {
                offset: l,
                what: "layer weight shape",
            });
        }
        d_in = d_out;
    }
    Ok(())
}

/// Train the full stack (autoencoders, then GraphSAGE on **all**
/// events) and freeze it for serving.
pub fn train_frozen<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    ae_cfg: &AutoencoderConfig,
    gnn_cfg: &GnnEvalConfig,
    layers: usize,
) -> FrozenModel {
    let _span = trail_obs::span("freeze.train");
    let (emb, _) = embed::train_autoencoders(rng, tkg, ae_cfg);
    train_frozen_from(rng, tkg, emb, gnn_cfg, layers)
}

/// [`train_frozen`] reusing already-trained embeddings: every event
/// trains [`train_event_gnn`]'s model, which is frozen. The stream's
/// base model trains here.
pub fn train_frozen_from<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    emb: embed::NodeEmbeddings,
    gnn_cfg: &GnnEvalConfig,
    layers: usize,
) -> FrozenModel {
    let (model, _) = train_event_gnn(rng, tkg, &emb, &tkg.event_pairs(), &[], layers, gnn_cfg);
    let sage_cfg = *model.config();
    let layers = model
        .weights()
        .iter()
        .map(|(r, n, b)| ((*r).clone(), (*n).clone(), (*b).clone()))
        .collect();
    FrozenModel {
        codes: emb.codes,
        code_dim: emb.code_dim,
        sage_cfg,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn instantiate_is_deterministic_and_carries_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let cfg = SageConfig::new(4, 8, 2, 3);
        let trained = SageModel::new(&mut rng, cfg);
        let layers: Vec<(Matrix, Matrix, Matrix)> = trained
            .weights()
            .iter()
            .map(|(r, n, b)| ((*r).clone(), (*n).clone(), (*b).clone()))
            .collect();
        let a = instantiate(cfg, &layers);
        let b = instantiate(cfg, &layers);
        for ((ra, na, ba), (rb, nb, bb)) in a.weights().iter().zip(b.weights().iter()) {
            assert_eq!(ra, rb);
            assert_eq!(na, nb);
            assert_eq!(ba, bb);
        }
        for ((ra, na, ba), (rt, nt, bt)) in a.weights().iter().zip(trained.weights().iter()) {
            assert_eq!(ra, rt);
            assert_eq!(na, nt);
            assert_eq!(ba, bt);
        }
    }
}
