//! Autoencoder projection and GNN input assembly (paper Section VI-C).
//!
//! URLs, IPs and domains have different widths (1,517 / 507 / 115), so
//! one autoencoder per type projects them into a common 64-dim code
//! space (Eq. 5). The GNN's per-node input is then
//! `[code | node-kind one-hot | visible-label one-hot]`, implementing
//! the paper's protocol where train-fold event labels are visible
//! features and evaluation-fold labels are masked.

use rand::Rng;
use trail_graph::{NodeId, NodeKind};
use trail_ioc::IocKind;
use trail_linalg::Matrix;
use trail_ml::nn::autoencoder::{Autoencoder, AutoencoderConfig};
use trail_ml::nn::Adam;

use crate::sparse::{densify, SparseRef};
use crate::tkg::Tkg;

/// Per-node code vectors for every featured IOC node.
#[derive(Clone)]
pub struct NodeEmbeddings {
    /// Code per graph node (zero rows for nodes without features).
    pub codes: Matrix,
    /// Code width.
    pub code_dim: usize,
}

/// Per-kind feature standardisation fitted directly on the sparse
/// store (zeros included, as densification would produce). Without
/// this, wide-range lexical columns (URL length, ages) dominate the
/// autoencoder's MSE and the codes under-represent the one-hot
/// behavioural blocks.
pub struct SparseScaler {
    means: Vec<f32>,
    inv_stds: Vec<f32>,
}

/// Running moments for [`SparseScaler`] fitting, accumulated row by
/// row. `extend`-ing stats with rows `A` and then rows `B` performs the
/// exact f64 additions of a single [`SparseScaler::fit`] over `A ++ B`,
/// so a scaler finalised from incrementally-extended stats is bitwise
/// identical to one refit from scratch — the property the incremental
/// study leans on when new nodes only ever append to the featured set.
pub struct ScalerStats {
    count: u64,
    sums: Vec<f64>,
    sumsq: Vec<f64>,
}

impl ScalerStats {
    /// Empty stats over `dims` columns.
    pub fn new(dims: usize) -> Self {
        Self {
            count: 0,
            sums: vec![0.0; dims],
            sumsq: vec![0.0; dims],
        }
    }

    /// Rows accumulated so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Accumulate featured rows in the given order.
    pub fn extend(&mut self, featured: &[(NodeId, SparseRef<'_>)]) {
        for (_, sv) in featured {
            for &(i, v) in sv.entries {
                self.sums[i as usize] += v as f64;
                self.sumsq[i as usize] += (v as f64) * (v as f64);
            }
        }
        self.count += featured.len() as u64;
    }

    /// Finalise into a scaler with [`SparseScaler::fit`]'s arithmetic.
    pub fn finalize(&self) -> SparseScaler {
        let n = self.count.max(1) as f64;
        let means: Vec<f32> = self.sums.iter().map(|&s| (s / n) as f32).collect();
        let inv_stds: Vec<f32> = self
            .sumsq
            .iter()
            .zip(&means)
            .map(|(&sq, &m)| {
                let var = (sq / n) as f32 - m * m;
                if var > 1e-8 {
                    1.0 / var.sqrt()
                } else {
                    1.0
                }
            })
            .collect();
        SparseScaler { means, inv_stds }
    }
}

impl SparseScaler {
    /// Fit over the featured rows of one kind.
    pub fn fit(featured: &[(NodeId, SparseRef<'_>)], dims: usize) -> Self {
        let mut stats = ScalerStats::new(dims);
        stats.extend(featured);
        stats.finalize()
    }

    /// Fingerprint of the fitted transform. Two scalers with the same
    /// fingerprint standardise every input identically; the code cache
    /// keys rows on it so a changed transform invalidates everything.
    pub fn fingerprint(&self) -> u64 {
        let mut b = Vec::with_capacity((self.means.len() + self.inv_stds.len()) * 4);
        for &m in &self.means {
            b.extend_from_slice(&m.to_bits().to_le_bytes());
        }
        for &s in &self.inv_stds {
            b.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        trail_ioc::fnv1a(&b)
    }

    /// Standardise a densified batch in place (row-parallel over the
    /// shared pool; per-row arithmetic is unchanged).
    pub fn transform_inplace(&self, x: &mut Matrix) {
        let d = x.cols();
        assert_eq!(d, self.means.len());
        let (means, inv_stds) = (&self.means, &self.inv_stds);
        trail_linalg::pool::parallel_for_rows(x.as_mut_slice(), d, 64, |_, band| {
            for row in band.chunks_exact_mut(d) {
                for ((v, &m), &is) in row.iter_mut().zip(means).zip(inv_stds) {
                    *v = (*v - m) * is;
                }
            }
        });
    }
}

/// Train the three per-type autoencoders and produce node codes.
///
/// Minibatches are densified from the sparse store, so peak memory is
/// `batch x dims` rather than `n x dims`.
pub fn train_autoencoders<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    cfg: &AutoencoderConfig,
) -> (NodeEmbeddings, Vec<Autoencoder>) {
    let (emb, encoders, _) = train_autoencoders_with_scalers(rng, tkg, cfg);
    (emb, encoders)
}

/// [`train_autoencoders`], additionally returning the per-kind scalers
/// fitted on the training snapshot. The longitudinal study freezes
/// these so later windows standardise (and therefore encode) existing
/// nodes identically, which is what lets cached code rows be reused.
pub fn train_autoencoders_with_scalers<R: Rng + ?Sized>(
    rng: &mut R,
    tkg: &Tkg,
    cfg: &AutoencoderConfig,
) -> (NodeEmbeddings, Vec<Autoencoder>, Vec<SparseScaler>) {
    let mut encoders = Vec::with_capacity(3);
    let mut scalers = Vec::with_capacity(3);
    for kind in IocKind::ALL {
        let dims = Tkg::dims_of(kind);
        let featured = tkg.featured_nodes(kind);
        let scaler = SparseScaler::fit(&featured, dims);
        let mut ae = Autoencoder::new(rng, dims, cfg);
        if !featured.is_empty() {
            train_on_sparse(rng, &mut ae, &scaler, &featured, dims, cfg);
        }
        encoders.push(ae);
        scalers.push(scaler);
    }
    let embeddings = compute_codes_with(tkg, &encoders, &scalers, cfg.batch_size);
    (embeddings, encoders, scalers)
}

/// [`compute_codes`] with explicit (typically frozen) scalers.
pub fn compute_codes_with(
    tkg: &Tkg,
    encoders: &[Autoencoder],
    scalers: &[SparseScaler],
    batch_size: usize,
) -> NodeEmbeddings {
    let code_dim = encoders.first().map_or(0, |ae| ae.code_dim());
    let mut codes = Matrix::zeros(tkg.graph.node_count(), code_dim);
    for ((&kind, ae), scaler) in IocKind::ALL.iter().zip(encoders).zip(scalers) {
        let featured = tkg.featured_nodes(kind);
        encode_rows(&featured, kind, ae, scaler, batch_size, &mut codes);
    }
    NodeEmbeddings { codes, code_dim }
}

/// Densify, standardise and encode `rows` (all of IOC kind `kind`),
/// writing each code into its node's row of `codes`. Batches are
/// independent at inference time, so the pipeline fans out across the
/// pool; only the write-back stays sequential. Every step is row-local,
/// so a row's code does not depend on which rows share its batch.
fn encode_rows(
    rows: &[(NodeId, SparseRef<'_>)],
    kind: IocKind,
    ae: &Autoencoder,
    scaler: &SparseScaler,
    batch_size: usize,
    codes: &mut Matrix,
) {
    let dims = Tkg::dims_of(kind);
    let chunks: Vec<&[(NodeId, SparseRef<'_>)]> = rows.chunks(batch_size.max(1)).collect();
    let encoded: Vec<Matrix> = trail_linalg::pool::parallel_map(chunks.len(), |ci| {
        let batch: Vec<SparseRef<'_>> = chunks[ci].iter().map(|&(_, sv)| sv).collect();
        let mut dense = densify(&batch, dims);
        scaler.transform_inplace(&mut dense);
        ae.encode(&dense)
    });
    for (chunk, enc) in chunks.iter().zip(&encoded) {
        for (i, &(node, _)) in chunk.iter().enumerate() {
            codes.row_mut(node.index()).copy_from_slice(enc.row(i));
        }
    }
}

/// Encode every featured node with already-trained encoders. Re-run
/// after the TKG grows (monthly updates): new nodes get codes without
/// retraining the autoencoders.
pub fn compute_codes(tkg: &Tkg, encoders: &[Autoencoder], batch_size: usize) -> NodeEmbeddings {
    // Refit the scalers on the current feature store (cheap: one sparse
    // pass) so codes stay consistent as the TKG grows.
    let scalers: Vec<SparseScaler> = IocKind::ALL
        .iter()
        .map(|&kind| SparseScaler::fit(&tkg.featured_nodes(kind), Tkg::dims_of(kind)))
        .collect();
    compute_codes_with(tkg, encoders, &scalers, batch_size)
}

/// Incrementally maintained node codes over the insert-only feature
/// store.
///
/// Feature writes are first-write-wins and the study freezes the base
/// scalers, so a node's code is immutable once computed: each refresh
/// encodes only the feature rows written since the last one, the tail
/// of the store's write order ([`Tkg::features_since`]). The range is
/// keyed on that order, not on node ids: enrichment re-queries IOCs
/// that lack features, so a node created months ago can get its
/// features now. The code matrix grows by amortised capacity. Anything
/// the cache cannot absorb — a different code width, a different scaler
/// transform, a store that does not descend from the last one seen
/// (fewer nodes or feature writes, or the last seen write now owned by
/// another node) — triggers a transparent full rebuild, so a refresh is
/// always bitwise-identical to [`compute_codes_with`] on the same
/// inputs.
pub struct CodeCache {
    codes: Matrix,
    code_dim: usize,
    scaler_fp: u64,
    /// Feature writes folded in so far, and the owner of the last one.
    seen_writes: usize,
    last_owner: Option<NodeId>,
    /// Featured rows encoded since the last full rebuild.
    encoded: u64,
    /// Times the cache threw everything away and rebuilt.
    pub full_rebuilds: u64,
    /// Featured rows kept without re-encoding, summed over refreshes.
    pub rows_reused: u64,
    /// Featured rows (re-)encoded across all refreshes.
    pub rows_recomputed: u64,
}

impl Default for CodeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeCache {
    /// An empty cache; the first refresh performs a full build.
    pub fn new() -> Self {
        Self {
            codes: Matrix::zeros(0, 0),
            code_dim: 0,
            scaler_fp: 0,
            seen_writes: 0,
            last_owner: None,
            encoded: 0,
            full_rebuilds: 0,
            rows_reused: 0,
            rows_recomputed: 0,
        }
    }

    /// The cached per-node code matrix (one row per graph node).
    pub fn codes(&self) -> &Matrix {
        &self.codes
    }

    /// Code width.
    pub fn code_dim(&self) -> usize {
        self.code_dim
    }

    /// Bring the cache up to date with the TKG. After this returns,
    /// `codes()` equals `compute_codes_with(tkg, encoders, scalers,
    /// batch_size).codes` bit for bit. Returns the row indices written
    /// this refresh so callers maintaining derived matrices know which
    /// rows to resync.
    pub fn refresh(
        &mut self,
        tkg: &Tkg,
        encoders: &[Autoencoder],
        scalers: &[SparseScaler],
        batch_size: usize,
    ) -> Vec<usize> {
        let code_dim = encoders.first().map_or(0, |ae| ae.code_dim());
        let n = tkg.graph.node_count();
        let mut scaler_fp = 0xcbf2_9ce4_8422_2325u64;
        for s in scalers {
            scaler_fp ^= s.fingerprint();
            scaler_fp = scaler_fp.wrapping_mul(0x0100_0000_01b3);
        }
        let last_seen = self.seen_writes.checked_sub(1);
        let last_owner = last_seen.and_then(|i| tkg.features_since(i).next().map(|(node, _)| node));
        let descendant = n >= self.codes.rows() && last_owner == self.last_owner;
        if code_dim != self.code_dim || scaler_fp != self.scaler_fp || !descendant {
            self.codes.reset_zeros(n, code_dim);
            self.code_dim = code_dim;
            self.scaler_fp = scaler_fp;
            self.seen_writes = 0;
            self.last_owner = None;
            self.encoded = 0;
            self.full_rebuilds += 1;
        }
        self.codes.resize_rows(n);
        self.rows_reused += self.encoded;

        let mut dirty: [Vec<(NodeId, SparseRef<'_>)>; 3] = Default::default();
        for (node, sv) in tkg.features_since(self.seen_writes) {
            self.seen_writes += 1;
            self.last_owner = Some(node);
            let kind = tkg.graph.node(node).kind;
            if let Some(k) = IocKind::ALL.iter().position(|&k| Tkg::node_kind(k) == kind) {
                dirty[k].push((node, sv));
            }
        }
        let mut written = Vec::new();
        let kinds = IocKind::ALL.iter().zip(encoders).zip(scalers).zip(&dirty);
        for (((&kind, ae), scaler), rows) in kinds {
            encode_rows(rows, kind, ae, scaler, batch_size, &mut self.codes);
            written.extend(rows.iter().map(|&(node, _)| node.index()));
        }
        self.encoded += written.len() as u64;
        self.rows_recomputed += written.len() as u64;
        written
    }
}

/// Minibatch SGD over the sparse store. Batches update shared weights
/// and therefore run in sequence, but the per-batch forward/backward
/// is pool-parallel throughout: `densify`, the scaler, and every
/// matmul inside `train_batch` submit row bands to the shared pool.
fn train_on_sparse<R: Rng + ?Sized>(
    rng: &mut R,
    ae: &mut Autoencoder,
    scaler: &SparseScaler,
    featured: &[(NodeId, SparseRef<'_>)],
    dims: usize,
    cfg: &AutoencoderConfig,
) {
    use rand::seq::SliceRandom;
    let mut adam = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..featured.len()).collect();
    for _ in 0..cfg.epochs {
        order.shuffle(rng);
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let rows: Vec<SparseRef<'_>> = chunk.iter().map(|&i| featured[i].1).collect();
            let mut dense = densify(&rows, dims);
            scaler.transform_inplace(&mut dense);
            ae.train_batch(&dense, &mut adam);
        }
    }
}

/// First column of the visible-label one-hot in a GNN input row. A row
/// is the node's `code_dim` code columns, its node-kind one-hot
/// (`NodeKind::ALL.len()` columns), then the label one-hot.
pub fn label_offset(code_dim: usize) -> usize {
    code_dim + NodeKind::ALL.len()
}

/// Width of the assembled GNN input: [`label_offset`] plus one column
/// per class.
pub fn gnn_input_dim(code_dim: usize, n_classes: usize) -> usize {
    label_offset(code_dim) + n_classes
}

/// Assemble the GNN input matrix.
///
/// `visible` lists the event nodes whose labels the model may see
/// (train-fold events per the paper's protocol).
pub fn assemble_gnn_input(
    tkg: &Tkg,
    embeddings: &NodeEmbeddings,
    visible: &[(NodeId, u16)],
) -> Matrix {
    assemble_gnn_input_from(tkg, &embeddings.codes, embeddings.code_dim, visible)
}

/// [`assemble_gnn_input`] over a borrowed code matrix (the incremental
/// study assembles from its [`CodeCache`] without cloning the codes).
pub fn assemble_gnn_input_from(
    tkg: &Tkg,
    codes: &Matrix,
    code: usize,
    visible: &[(NodeId, u16)],
) -> Matrix {
    let n = tkg.graph.node_count();
    let k = tkg.n_classes();
    let mut x = Matrix::zeros(n, gnn_input_dim(code, k));
    for (id, rec) in tkg.graph.iter_nodes() {
        write_gnn_input_row(x.row_mut(id.index()), codes.row(id.index()), rec.kind, None);
    }
    for &(node, label) in visible {
        debug_assert_eq!(tkg.graph.node(node).kind, NodeKind::Event);
        x[(node.index(), label_offset(code) + label as usize)] = 1.0;
    }
    x
}

/// Write one node's GNN input row into the zeroed `row`: its code, its
/// node-kind one-hot and, when `label` is visible, its label one-hot —
/// the layout of [`assemble_gnn_input`], for callers that assemble only
/// some nodes' rows.
pub fn write_gnn_input_row(row: &mut [f32], code: &[f32], kind: NodeKind, label: Option<u16>) {
    let c = code.len();
    row[..c].copy_from_slice(code);
    row[c + kind.index()] = 1.0;
    if let Some(label) = label {
        row[label_offset(c) + label as usize] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::AptRegistry;
    use crate::sparse::SparseVec;
    use trail_graph::EdgeKind;

    fn tkg_with_features() -> Tkg {
        let mut tkg = Tkg::new(AptRegistry::new(3));
        let e = tkg.graph.upsert_node(NodeKind::Event, "r0");
        let ip = tkg.graph.upsert_node(NodeKind::Ip, "1.1.1.1");
        tkg.graph.add_edge(e, ip, EdgeKind::InReport).unwrap();
        tkg.add_event(e, "r0", 1, 2);
        // Two IPs with *different* features: standardisation maps a
        // lone sample to the zero vector, so variety is required for a
        // non-trivial code.
        let ip2 = tkg.graph.upsert_node(NodeKind::Ip, "2.2.2.2");
        for (node, slot, v) in [(ip, 0usize, 1.0f32), (ip2, 3, 4.0)] {
            let mut dense = vec![0.0f32; Tkg::dims_of(IocKind::Ip)];
            dense[slot] = v;
            dense[506] = 2.5 + v;
            tkg.set_features(node, SparseVec::from_dense(&dense));
        }
        tkg
    }

    #[test]
    fn scaler_stats_extend_matches_one_shot_fit() {
        let tkg = tkg_with_features();
        let featured = tkg.featured_nodes(IocKind::Ip);
        let dims = Tkg::dims_of(IocKind::Ip);
        assert_eq!(featured.len(), 2);
        let full = SparseScaler::fit(&featured, dims);
        let mut stats = ScalerStats::new(dims);
        stats.extend(&featured[..1]);
        stats.extend(&featured[1..]);
        assert_eq!(stats.count(), 2);
        let incremental = stats.finalize();
        assert_eq!(full.fingerprint(), incremental.fingerprint());
        assert_eq!(full.means, incremental.means);
        assert_eq!(full.inv_stds, incremental.inv_stds);
    }

    #[test]
    fn code_cache_refresh_matches_full_compute() {
        let mut tkg = tkg_with_features();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let cfg = AutoencoderConfig {
            hidden: 8,
            code: 4,
            epochs: 2,
            batch_size: 4,
            lr: 1e-3,
        };
        let (_, encoders, scalers) = train_autoencoders_with_scalers(&mut rng, &tkg, &cfg);

        let mut cache = CodeCache::new();
        cache.refresh(&tkg, &encoders, &scalers, cfg.batch_size);
        let full = compute_codes_with(&tkg, &encoders, &scalers, cfg.batch_size);
        assert_eq!(cache.codes().as_slice(), full.codes.as_slice());
        assert_eq!(cache.full_rebuilds, 1);

        // Grow the graph: a new featured IP appears. Only that row may
        // be encoded; existing rows come from cache, and the result
        // still matches a from-scratch build bit for bit.
        let ip3 = tkg.graph.upsert_node(NodeKind::Ip, "3.3.3.3");
        let mut dense = vec![0.0f32; Tkg::dims_of(IocKind::Ip)];
        dense[7] = 2.0;
        dense[506] = 9.5;
        tkg.set_features(ip3, SparseVec::from_dense(&dense));
        let reused_before = cache.rows_reused;
        cache.refresh(&tkg, &encoders, &scalers, cfg.batch_size);
        let full2 = compute_codes_with(&tkg, &encoders, &scalers, cfg.batch_size);
        assert_eq!(cache.codes().as_slice(), full2.codes.as_slice());
        assert_eq!(cache.full_rebuilds, 1, "growth must not trigger a rebuild");
        assert!(cache.rows_reused > reused_before);

        // A different scaler transform invalidates everything.
        let refit: Vec<SparseScaler> = IocKind::ALL
            .iter()
            .map(|&k| SparseScaler::fit(&tkg.featured_nodes(k), Tkg::dims_of(k)))
            .collect();
        cache.refresh(&tkg, &encoders, &refit, cfg.batch_size);
        let full3 = compute_codes_with(&tkg, &encoders, &refit, cfg.batch_size);
        assert_eq!(cache.codes().as_slice(), full3.codes.as_slice());
        assert_eq!(cache.full_rebuilds, 2);
    }

    #[test]
    fn autoencoders_produce_codes_for_featured_nodes() {
        let tkg = tkg_with_features();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let cfg = AutoencoderConfig {
            hidden: 8,
            code: 4,
            epochs: 2,
            batch_size: 4,
            lr: 1e-3,
        };
        let (emb, encoders) = train_autoencoders(&mut rng, &tkg, &cfg);
        assert_eq!(encoders.len(), 3);
        assert_eq!(emb.codes.shape(), (3, 4));
        // The event node (no features) stays zero; the IP node does not.
        let ip = tkg.graph.find_node(NodeKind::Ip, "1.1.1.1").unwrap();
        let e = tkg.graph.find_node(NodeKind::Event, "r0").unwrap();
        assert!(emb.codes.row(e.index()).iter().all(|&v| v == 0.0));
        assert!(emb.codes.row(ip.index()).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gnn_input_layout() {
        let tkg = tkg_with_features();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let cfg = AutoencoderConfig {
            hidden: 8,
            code: 4,
            epochs: 1,
            batch_size: 4,
            lr: 1e-3,
        };
        let (emb, _) = train_autoencoders(&mut rng, &tkg, &cfg);
        let e = tkg.graph.find_node(NodeKind::Event, "r0").unwrap();
        let x = assemble_gnn_input(&tkg, &emb, &[(e, 2)]);
        // The label block follows the kind block and ends the row.
        assert_eq!(label_offset(4), 4 + NodeKind::ALL.len());
        assert_eq!(gnn_input_dim(4, 3), label_offset(4) + 3);
        assert_eq!(x.cols(), gnn_input_dim(4, 3));
        // Past the code: kind one-hot (event = index 0), then label 2.
        let row = x.row(e.index());
        assert_eq!(row[4..], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(row[label_offset(4) + 2], 1.0);
        // The training mask hides and restores that same block.
        let gnn = crate::attribute::GnnEvalConfig::default();
        assert_eq!(
            crate::attribute::label_masking(4, &gnn).offset,
            label_offset(4)
        );
        // Masked variant: label block all zero.
        let x_masked = assemble_gnn_input(&tkg, &emb, &[]);
        assert_eq!(
            x_masked.row(e.index())[4..],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
    }
}
