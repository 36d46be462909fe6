//! GraphSAGE (Hamilton et al. 2017) as the paper specifies it:
//! mean aggregation over the neighbourhood (Eq. 3) with a separate
//! root-weight term for the node's own representation (the standard
//! GraphSAGE-mean formulation), per-layer L2 normalisation (Eq. 4),
//! and a final layer emitting one logit per APT class.
//!
//! At reproduction scale the whole graph fits in memory, so layers run
//! over the full graph's CSR: a mean-aggregation sweep followed by two
//! dense linear maps. Backward passes mirror each step by hand. A pass
//! asked about a root set computes, at layer `l` of `L`, only the nodes
//! within `L−1−l` hops of the roots (`LayerRows`, read from the roots'
//! `trail_graph::algo::Ball`) — the rows the roots' outputs and the
//! weight gradients depend on — and produces the all-rows pass's bits
//! on them (DESIGN.md §10).
//!
//! Every layer owns its activation, cache and gradient buffers and the
//! forward/backward passes write into them via the `_into` kernels, so
//! once buffer shapes stabilise (after the first epoch) a full
//! forward + backward + step round trip performs zero heap
//! allocations. The buffered kernels zero their destinations before
//! accumulating (or accumulate into optimiser-zeroed gradients), which
//! keeps every f32 summation order identical to the allocating
//! formulation — outputs are bitwise unchanged.

use rand::Rng;
use trail_graph::algo::ball::{Ball, NOT_A_MEMBER};
use trail_graph::{Csr, NodeId};
use trail_linalg::quant::{matmul_quant_acc, matmul_quant_into, QuantizedMatrix, QuantizedWeights};
use trail_linalg::{init, Matrix};
use trail_ml::nn::{Adam, Param};

/// GraphSAGE architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SageConfig {
    /// Node-feature input width.
    pub input_dim: usize,
    /// Hidden width (paper: 512; default reduced for laptop scale —
    /// see DESIGN.md).
    pub hidden: usize,
    /// Number of SAGE layers (the paper evaluates 2, 3 and 4).
    pub layers: usize,
    /// Output classes.
    pub n_classes: usize,
    /// Apply the paper's per-layer L2 normalisation (Eq. 4). Exposed
    /// as an ablation (DESIGN.md): normalisation equalises every
    /// node's hidden magnitude, which discards the label-mass
    /// confidence that plain label propagation exploits.
    pub l2_normalize: bool,
}

impl SageConfig {
    /// Default-shaped config with L2 normalisation on (the paper's
    /// description).
    pub fn new(input_dim: usize, hidden: usize, layers: usize, n_classes: usize) -> Self {
        Self {
            input_dim,
            hidden,
            layers,
            n_classes,
            l2_normalize: true,
        }
    }
}

/// Resize `m` to `rows × cols`, touching it only when the shape
/// actually changes. The contents after a call are unspecified (zeroed
/// on a shape change, stale otherwise) — callers overwrite them. A
/// shape change reuses the buffer's capacity, so a model whose inputs
/// vary in size (serve queries, tick balls) stops allocating once it
/// has seen its largest input.
pub(crate) fn ensure_shape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        m.reset_zeros(rows, cols);
    }
}

/// The rows each layer of an `L`-layer model computes for a root set:
/// layer `l` computes the nodes within `L−1−l` hops of the roots, so
/// the last layer computes the roots themselves and layer 0 the
/// `L−1`-hop ball. Every value the roots' outputs and the weight
/// gradients depend on lies in these sets (DESIGN.md §10).
///
/// Each set lists node ids in ascending order. The weight gradients
/// sum over a layer's rows in row order, so only the full pass's order
/// with its zero terms left out keeps their bits; a BFS order would not.
///
/// Label propagation reads the same sets: iteration `i` of `layers`
/// computes set `i + 1` of the `layers + 1` sets around its targets.
pub(crate) struct LayerRows {
    /// `nodes[l]`: layer `l`'s nodes, ascending.
    pub(crate) nodes: Vec<Vec<u32>>,
    /// `pos[l][v]`: the row of node `v` in layer `l`'s output,
    /// [`NOT_A_MEMBER`] outside its set.
    pub(crate) pos: Vec<Vec<u32>>,
    /// `gather[l]`: the input row of each of layer `l`'s nodes — its
    /// row in layer `l−1`'s output, or its node id in the model input
    /// at layer 0.
    pub(crate) gather: Vec<Vec<usize>>,
}

impl LayerRows {
    /// The row sets of a `layers`-deep model around `roots` (duplicates
    /// count once), from the [`Ball`] of radius `layers − 1`: its
    /// members are layer 0's set and its global→local table layer 0's
    /// position map.
    pub(crate) fn new(csr: &Csr, roots: &[NodeId], layers: usize) -> Self {
        assert!(layers >= 1, "a model has at least one layer");
        let (members, hops, table) = Ball::new(csr, roots, (layers - 1) as u32).into_parts();
        let mut nodes = vec![members.iter().map(|v| v.0).collect::<Vec<u32>>()];
        let mut gather = vec![members.iter().map(|v| v.index()).collect()];
        let mut pos = vec![table];
        for l in 1..layers {
            let reach = (layers - 1 - l) as u32;
            let set: Vec<u32> = members
                .iter()
                .zip(&hops)
                .filter(|&(_, &hop)| hop <= reach)
                .map(|(v, _)| v.0)
                .collect();
            let prev = &pos[l - 1];
            gather.push(set.iter().map(|&v| prev[v as usize] as usize).collect());
            let mut at = vec![NOT_A_MEMBER; csr.node_count()];
            for (i, &v) in set.iter().enumerate() {
                at[v as usize] = i as u32;
            }
            nodes.push(set);
            pos.push(at);
        }
        Self { nodes, pos, gather }
    }

    /// The row of `node` in the last layer's output.
    ///
    /// # Panics
    /// If `node` is not a root.
    pub(crate) fn root_row(&self, node: NodeId) -> usize {
        let r = self.pos.last().expect("at least one layer")[node.index()];
        assert_ne!(r, NOT_A_MEMBER, "node {node:?} is not a root of these rows");
        r as usize
    }
}

/// One SAGE layer:
/// `y = h W_root + mean(N(v)) W_nbr + b`, then ReLU + L2 unless final.
///
/// All intermediates live in owned buffers sized lazily on first use;
/// steady-state forward/backward rounds are allocation-free.
#[derive(Clone)]
struct SageLayer {
    w_root: Param,
    w_nbr: Param,
    b: Param,
    last: bool,
    l2_normalize: bool,
    /// The layer input rows of the computed nodes (the root term's
    /// operand), from the last forward.
    cache_input: Matrix,
    /// Neighbour-mean aggregation of the last forward (train or not —
    /// the matrix doubles as the forward scratch buffer).
    cache_agg: Matrix,
    cache_mask: Vec<bool>,
    /// Post-normalisation activations of the last train-mode forward.
    cache_act: Matrix,
    cache_norms: Vec<f32>,
    /// Whether a train-mode forward has populated the caches.
    has_cache: bool,
    /// Layer output; the next layer reads it as its input.
    buf_out: Matrix,
    /// Scratch for `agg · W_nbr` — kept separate from `buf_out` so the
    /// two matmuls accumulate exactly as the allocating form did.
    buf_lin: Matrix,
    /// Working copy of the upstream gradient.
    buf_d_pre: Matrix,
    /// Gradient w.r.t. the layer input over the previous layer's rows;
    /// the previous layer reads it as its upstream gradient.
    buf_d_h: Matrix,
    buf_d_agg: Matrix,
    /// The root term's share of the input gradient, over this layer's
    /// rows.
    buf_d_root: Matrix,
}

impl SageLayer {
    fn new<R: Rng + ?Sized>(
        rng: &mut R,
        d_in: usize,
        d_out: usize,
        last: bool,
        l2_normalize: bool,
    ) -> Self {
        Self {
            w_root: Param::new(init::he_uniform(rng, d_in, d_out)),
            w_nbr: Param::new(init::he_uniform(rng, d_in, d_out)),
            b: Param::new(Matrix::zeros(1, d_out)),
            last,
            l2_normalize,
            cache_input: Matrix::zeros(0, 0),
            cache_agg: Matrix::zeros(0, 0),
            cache_mask: Vec::new(),
            cache_act: Matrix::zeros(0, 0),
            cache_norms: Vec::new(),
            has_cache: false,
            buf_out: Matrix::zeros(0, 0),
            buf_lin: Matrix::zeros(0, 0),
            buf_d_pre: Matrix::zeros(0, 0),
            buf_d_h: Matrix::zeros(0, 0),
            buf_d_agg: Matrix::zeros(0, 0),
            buf_d_root: Matrix::zeros(0, 0),
        }
    }

    /// Forward pass of layer `l` into `self.buf_out`: every node
    /// (`rows` is `None`, `h` holds one row per node) or the nodes
    /// `rows` names for layer `l` (`h` is layer `l−1`'s output over its
    /// own rows, or the full input at layer 0). `edge_weights` weights
    /// the neighbour mean per CSR slot ([`neighbor_mean_sweep_into`]).
    fn forward_into(
        &mut self,
        csr: &Csr,
        h: &Matrix,
        rows: Option<&LayerRows>,
        edge_weights: Option<&[f32]>,
        l: usize,
        train: bool,
    ) {
        let threads = trail_linalg::pool::num_threads();
        let (nodes, src_pos, gather) = match rows {
            Some(r) => {
                let src_pos = l.checked_sub(1).map(|p| &r.pos[p][..]);
                (Some(&r.nodes[l][..]), src_pos, Some(&r.gather[l][..]))
            }
            None => {
                assert_eq!(h.rows(), csr.node_count(), "one input row per node");
                (None, None, None)
            }
        };
        let n = nodes.map_or(csr.node_count(), <[u32]>::len);
        let d_in = h.cols();
        let d_out = self.w_root.value.cols();
        ensure_shape(&mut self.cache_agg, n, d_in);
        neighbor_mean_sweep_into(
            csr,
            h,
            SweepWeight::MeanOfNeighbors,
            edge_weights,
            nodes,
            src_pos,
            threads,
            &mut self.cache_agg,
        );
        ensure_shape(&mut self.cache_input, n, d_in);
        match gather {
            Some(g) => h
                .gather_rows_into(g, &mut self.cache_input)
                .expect("root rows"),
            None => self
                .cache_input
                .as_mut_slice()
                .copy_from_slice(h.as_slice()),
        }
        ensure_shape(&mut self.buf_out, n, d_out);
        // The layer input is finite by construction (autoencoder codes,
        // structural features and one-hot labels at layer 0; ReLU + L2
        // outputs after) and meaningfully sparse (label one-hots,
        // post-ReLU zeros), so the root term takes the sparse-aware
        // entry point — bitwise identical to the dense kernel on
        // finite data. The aggregation term stays dense: neighbour
        // means smear the zeros out.
        self.cache_input
            .matmul_sparse_into(&self.w_root.value, &mut self.buf_out)
            .expect("root shape");
        ensure_shape(&mut self.buf_lin, n, d_out);
        self.cache_agg
            .matmul_into(&self.w_nbr.value, &mut self.buf_lin)
            .expect("nbr shape");
        self.buf_out.add_assign(&self.buf_lin).expect("same shape");
        self.buf_out
            .add_row_broadcast(self.b.value.as_slice())
            .expect("bias");
        if train {
            self.has_cache = true;
        }
        if self.last {
            return;
        }
        if train {
            self.cache_mask.clear();
            self.cache_mask
                .extend(self.buf_out.as_slice().iter().map(|&v| v > 0.0));
        }
        self.buf_out.map_inplace(|v| v.max(0.0));
        if self.l2_normalize {
            // Row-wise L2 normalisation (Eq. 4).
            let Self {
                buf_out,
                cache_norms,
                ..
            } = self;
            let cols = buf_out.cols();
            cache_norms.clear();
            for row in buf_out.as_mut_slice().chunks_exact_mut(cols) {
                let nrm = trail_linalg::vector::norm2(row).max(1e-12);
                for v in row.iter_mut() {
                    *v /= nrm;
                }
                cache_norms.push(nrm);
            }
            if train {
                ensure_shape(&mut self.cache_act, n, d_out);
                self.cache_act
                    .as_mut_slice()
                    .copy_from_slice(self.buf_out.as_slice());
            }
        } else if train {
            self.cache_norms.clear();
        }
    }

    /// Backward pass of layer `l` over the rows of its last forward.
    /// Accumulates the weight gradients and, above layer 0, writes the
    /// gradient w.r.t. the layer input into `self.buf_d_h` over layer
    /// `l−1`'s rows. Layer 0 writes none: nothing reads the gradient
    /// w.r.t. the model input. Must follow a train-mode
    /// [`Self::forward_into`] with the same `rows` and no intervening
    /// forward — the caches are also the forward scratch buffers.
    ///
    /// After a weighted forward, `edge` carries the layer input `h` that
    /// forward read, its edge weights and the `∂L/∂w` accumulator; then
    /// every layer, layer 0 included, adds its share of `∂L/∂w`.
    fn backward_into(
        &mut self,
        csr: &Csr,
        d_out: &Matrix,
        rows: Option<&LayerRows>,
        l: usize,
        edge: Option<(&Matrix, &[f32], &mut [f32])>,
    ) {
        assert!(self.has_cache, "forward(train) first");
        let threads = trail_linalg::pool::num_threads();
        let n = d_out.rows();
        let d_o = d_out.cols();
        assert_eq!(n, self.cache_input.rows(), "upstream gradient rows");
        ensure_shape(&mut self.buf_d_pre, n, d_o);
        self.buf_d_pre
            .as_mut_slice()
            .copy_from_slice(d_out.as_slice());
        if !self.last {
            if self.l2_normalize {
                // L2-norm backward: dx = (dy - y (dy·y)) / ||x||.
                let Self {
                    buf_d_pre,
                    cache_act,
                    cache_norms,
                    ..
                } = self;
                let cols = buf_d_pre.cols();
                for (r, norm) in cache_norms.iter().enumerate() {
                    let dot = trail_linalg::vector::dot(buf_d_pre.row(r), cache_act.row(r));
                    let y_row = cache_act.row(r);
                    let d_row = buf_d_pre.row_mut(r);
                    for c in 0..cols {
                        d_row[c] = (d_row[c] - y_row[c] * dot) / norm;
                    }
                }
            }
            // ReLU backward.
            for (g, &keep) in self
                .buf_d_pre
                .as_mut_slice()
                .iter_mut()
                .zip(&self.cache_mask)
            {
                if !keep {
                    *g = 0.0;
                }
            }
        }
        // Accumulate straight into the optimiser-zeroed grad buffers:
        // summing into zeros in the same k-order is bitwise identical
        // to materialising `t_matmul` and `add_assign`ing it. Rows
        // outside this layer's set would add only ±0 terms to these
        // +0-started sums (DESIGN.md §10), so skipping them changes no
        // bit as long as the kept rows keep their ascending order.
        self.cache_input
            .t_matmul_acc(&self.buf_d_pre, &mut self.w_root.grad)
            .expect("dw_root");
        self.cache_agg
            .t_matmul_acc(&self.buf_d_pre, &mut self.w_nbr.grad)
            .expect("dw_nbr");
        {
            let Self { b, buf_d_pre, .. } = self;
            let bg = b.grad.as_mut_slice();
            for row in buf_d_pre.rows_iter() {
                for (g, &d) in bg.iter_mut().zip(row) {
                    *g += d;
                }
            }
        }
        if l == 0 && edge.is_none() {
            return;
        }
        let d_in = self.w_root.value.rows();
        ensure_shape(&mut self.buf_d_agg, n, d_in);
        self.buf_d_pre
            .matmul_t_into(&self.w_nbr.value, &mut self.buf_d_agg)
            .expect("d_agg");
        if l > 0 {
            let n_prev = rows.map_or(csr.node_count(), |r| r.nodes[l - 1].len());
            ensure_shape(&mut self.buf_d_h, n_prev, d_in);
        }
        match edge {
            Some((h, weights, grad)) => {
                let (nodes, src_pos) = match rows {
                    Some(r) => (
                        Some(&r.nodes[l][..]),
                        l.checked_sub(1).map(|p| &r.pos[p][..]),
                    ),
                    None => (None, None),
                };
                let d_h = (l > 0).then(|| {
                    self.buf_d_h.as_mut_slice().fill(0.0);
                    &mut self.buf_d_h
                });
                weighted_mean_adjoint(
                    csr,
                    nodes,
                    src_pos,
                    h,
                    &self.cache_agg,
                    &self.buf_d_agg,
                    weights,
                    grad,
                    d_h,
                );
                if l == 0 {
                    return;
                }
            }
            None => {
                // The adjoint sweep over the previous layer's rows;
                // neighbours outside this layer's rows carry an
                // exactly-zero gradient and are skipped.
                let (prev_nodes, pos) = match rows {
                    Some(r) => (Some(&r.nodes[l - 1][..]), Some(&r.pos[l][..])),
                    None => (None, None),
                };
                neighbor_mean_sweep_into(
                    csr,
                    &self.buf_d_agg,
                    SweepWeight::TransposeMean,
                    None,
                    prev_nodes,
                    pos,
                    threads,
                    &mut self.buf_d_h,
                );
            }
        }
        let gather = rows.map(|r| &r.gather[l][..]);
        ensure_shape(&mut self.buf_d_root, n, d_in);
        self.buf_d_pre
            .matmul_t_into(&self.w_root.value, &mut self.buf_d_root)
            .expect("d_h root");
        // `scatter + root` is bitwise `root + scatter` (IEEE addition
        // commutes), and a previous-layer row outside this layer's rows
        // has a ±0 root term, which leaves its sweep sum unchanged.
        let Self {
            buf_d_h,
            buf_d_root,
            ..
        } = self;
        match gather {
            Some(g) => {
                for (i, &r) in g.iter().enumerate() {
                    for (a, &b) in buf_d_h.row_mut(r).iter_mut().zip(buf_d_root.row(i)) {
                        *a += b;
                    }
                }
            }
            None => buf_d_h.add_assign(buf_d_root).expect("same shape"),
        }
    }

    /// Allocating convenience wrapper for tests.
    #[cfg(test)]
    fn forward(&mut self, csr: &Csr, h: &Matrix, train: bool) -> Matrix {
        self.forward_into(csr, h, None, None, 0, train);
        self.buf_out.clone()
    }
}

/// Weighting of the shared forward/backward neighbour-sweep kernel.
///
/// Both the forward mean aggregation and its backward adjoint are the
/// same gather: `out[v] = Σ_{u ∈ N(v)} w · src[u]` over the symmetric
/// CSR. Only the weight differs — `1/deg(v)` (the mean) forward,
/// `1/deg(u)` (the transposed mean) backward.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SweepWeight {
    /// `w = 1/deg(v)`: mean over the output row's neighbourhood.
    MeanOfNeighbors,
    /// `w = 1/deg(u)`: adjoint of the mean (gradient scatter, written
    /// as a gather so output rows stay disjoint).
    TransposeMean,
}

/// Row-parallel neighbour sweep over the CSR, written into a
/// caller-owned matrix (zeroed here first, so the accumulation order
/// matches the allocating form exactly). Every output row is produced
/// by exactly one thread and sums its neighbours in CSR order, so the
/// result is bitwise identical for every thread count.
///
/// `edge_weights` (forward mean only) scales the neighbour in CSR slot
/// `s` by `w[s]`: `acc = Σ w·x`, then `acc *= 1/Σw`. All-ones weights
/// give the unweighted mean bit for bit (`1.0·x == x`, and `Σ 1.0` is
/// the degree exactly); a row whose weights sum to 0 aggregates to
/// zero, as an isolate does. The branch is taken once per sweep, so the
/// unweighted loops are untouched.
///
/// Output row `i` is node `nodes[i]`, or node `i` when `nodes` is
/// `None` — then `out` may cover only a prefix of the CSR's nodes, each
/// row computed exactly as in a full sweep. Neighbour `u` reads row
/// `src_pos[u]` of `src`, or row `u` when `src_pos` is `None`. A
/// forward (mean) sweep must find every neighbour's row: reading a
/// missing one panics on [`Matrix::row`]'s bounds instead of returning
/// a wrong value. The adjoint sweep skips neighbours marked
/// [`NOT_A_MEMBER`]: their upstream gradient is exactly zero, and adding
/// ±0 terms to a sum started at +0 changes no bit.
#[allow(clippy::too_many_arguments)] // one kernel, every caller's knobs
fn neighbor_mean_sweep_into(
    csr: &Csr,
    src: &Matrix,
    weight: SweepWeight,
    edge_weights: Option<&[f32]>,
    nodes: Option<&[u32]>,
    src_pos: Option<&[u32]>,
    threads: usize,
    out: &mut Matrix,
) {
    let n = out.rows();
    let d = src.cols();
    assert!(n <= csr.node_count(), "sweep rows beyond the CSR");
    if let Some(nodes) = nodes {
        assert_eq!(nodes.len(), n, "one node per sweep row");
    }
    assert_eq!(out.cols(), d, "sweep output width");
    out.as_mut_slice().fill(0.0);
    if n == 0 || d == 0 {
        return;
    }
    let src_row = |u: NodeId| -> Option<&[f32]> {
        let r = match src_pos {
            None => u.index(),
            Some(pos) => match pos[u.index()] {
                NOT_A_MEMBER => return None,
                r => r as usize,
            },
        };
        Some(src.row(r))
    };
    if let Some(w) = edge_weights {
        assert!(
            weight == SweepWeight::MeanOfNeighbors,
            "edge weights scale the forward mean only"
        );
        assert_eq!(w.len(), csr.half_edge_count(), "one weight per half-edge");
        trail_linalg::pool::parallel_for_rows_limit(
            threads,
            out.as_mut_slice(),
            d,
            16,
            |row0, band| {
                for (i, acc) in band.chunks_exact_mut(d).enumerate() {
                    let v = NodeId::from(nodes.map_or(row0 + i, |s| s[row0 + i] as usize));
                    let mut sum = 0.0f32;
                    for (&u, &m) in csr.neighbors(v).iter().zip(&w[csr.slots(v)]) {
                        let x = src_row(u).expect("neighbour outside the previous layer's rows");
                        for (a, &x) in acc.iter_mut().zip(x) {
                            *a += m * x;
                        }
                        sum += m;
                    }
                    if sum == 0.0 {
                        acc.fill(0.0);
                        continue;
                    }
                    let inv = 1.0 / sum;
                    for a in acc.iter_mut() {
                        *a *= inv;
                    }
                }
            },
        );
        return;
    }
    trail_linalg::pool::parallel_for_rows_limit(
        threads,
        out.as_mut_slice(),
        d,
        16,
        |row0, band| {
            for (i, acc) in band.chunks_exact_mut(d).enumerate() {
                let v = nodes.map_or(row0 + i, |s| s[row0 + i] as usize);
                let neighbors = csr.neighbors(NodeId::from(v));
                if neighbors.is_empty() {
                    continue;
                }
                match weight {
                    SweepWeight::MeanOfNeighbors => {
                        for &u in neighbors {
                            let x =
                                src_row(u).expect("neighbour outside the previous layer's rows");
                            for (a, &x) in acc.iter_mut().zip(x) {
                                *a += x;
                            }
                        }
                        let inv = 1.0 / neighbors.len() as f32;
                        for a in acc.iter_mut() {
                            *a *= inv;
                        }
                    }
                    SweepWeight::TransposeMean => {
                        for &u in neighbors {
                            let Some(x) = src_row(u) else { continue };
                            let w = 1.0 / csr.degree(u) as f32;
                            for (a, &x) in acc.iter_mut().zip(x) {
                                *a += w * x;
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Allocating form of the neighbour sweep.
fn neighbor_mean_sweep(csr: &Csr, src: &Matrix, weight: SweepWeight, threads: usize) -> Matrix {
    assert_eq!(src.rows(), csr.node_count());
    let mut out = Matrix::zeros(csr.node_count(), src.cols());
    neighbor_mean_sweep_into(csr, src, weight, None, None, None, threads, &mut out);
    out
}

/// Adjoint of the weighted neighbour mean `agg_v = Σ w_s·h_u / S_v`
/// (`S_v = Σ w_s` over `v`'s row), given the sweep's source `h`, output
/// `agg` and `d_agg = ∂L/∂agg`: adds `⟨d_agg_v, h_u − agg_v⟩ / S_v` to
/// `d_weights[s]` and, when `d_h` is given, `w_s / S_v · d_agg_v` to
/// `d_h`'s row of `u`. Rows and neighbours are addressed as in
/// [`neighbor_mean_sweep_into`]. A plain sequential scatter: no
/// all-rows pass has to be matched bit for bit here.
#[allow(clippy::too_many_arguments)] // the sweep's operands and both adjoints
fn weighted_mean_adjoint(
    csr: &Csr,
    nodes: Option<&[u32]>,
    src_pos: Option<&[u32]>,
    h: &Matrix,
    agg: &Matrix,
    d_agg: &Matrix,
    weights: &[f32],
    d_weights: &mut [f32],
    mut d_h: Option<&mut Matrix>,
) {
    assert_eq!(d_weights.len(), weights.len(), "one gradient per weight");
    for (i, (agg, g)) in agg.rows_iter().zip(d_agg.rows_iter()).enumerate() {
        let v = NodeId::from(nodes.map_or(i, |s| s[i] as usize));
        let slots = csr.slots(v);
        let sum: f32 = weights[slots.clone()].iter().sum();
        if sum == 0.0 {
            continue;
        }
        let inv = 1.0 / sum;
        for (s, &u) in slots.zip(csr.neighbors(v)) {
            let r = src_pos.map_or(u.index(), |p| p[u.index()] as usize);
            let dot: f32 = g
                .iter()
                .zip(h.row(r))
                .zip(agg)
                .map(|((&g, &x), &a)| g * (x - a))
                .sum();
            d_weights[s] += inv * dot;
            if let Some(d_h) = d_h.as_deref_mut() {
                let scale = weights[s] * inv;
                for (o, &g) in d_h.row_mut(r).iter_mut().zip(g) {
                    *o += scale * g;
                }
            }
        }
    }
}

/// Mean aggregation over `N(v)` (neighbours only; zero for isolates).
pub fn aggregate_mean(csr: &Csr, h: &Matrix) -> Matrix {
    aggregate_mean_with_threads(csr, h, trail_linalg::pool::num_threads())
}

/// [`aggregate_mean`] pinned to at most `threads` pool participants
/// (1 ⇒ sequential reference). Exposed for equivalence tests and the
/// sequential-baseline benches.
pub fn aggregate_mean_with_threads(csr: &Csr, h: &Matrix, threads: usize) -> Matrix {
    neighbor_mean_sweep(csr, h, SweepWeight::MeanOfNeighbors, threads)
}

/// Transpose of [`aggregate_mean`]: route `d_agg` back to the inputs.
/// Written as a gather over the symmetric CSR (`out[v] = Σ_{u∈N(v)}
/// d_agg[u]/deg(u)`) so it parallelises by output row like the
/// forward pass.
#[cfg(test)]
fn scatter_mean_grad(csr: &Csr, d_agg: &Matrix) -> Matrix {
    scatter_mean_grad_with_threads(csr, d_agg, trail_linalg::pool::num_threads())
}

/// Backward adjoint of the mean aggregation with an explicit thread
/// cap, for tests and benches.
#[doc(hidden)]
pub fn scatter_mean_grad_with_threads(csr: &Csr, d_agg: &Matrix, threads: usize) -> Matrix {
    neighbor_mean_sweep(csr, d_agg, SweepWeight::TransposeMean, threads)
}

/// i8 snapshots of one layer's weight matrices, column-quantized and
/// packed (see [`QuantizedWeights::from_cols`]).
#[derive(Clone)]
struct QuantLayerWeights {
    qw_root: QuantizedWeights,
    qw_nbr: QuantizedWeights,
}

/// Weight cache and scratch buffers for the quantized inference path.
/// Entirely separate from the training buffers: a quantized forward
/// never perturbs caches the f32 path depends on.
#[derive(Clone)]
struct QuantState {
    /// `weights_version` the cached layer snapshots were taken at;
    /// `None` until the first quantized forward.
    built_at: Option<u64>,
    layers: Vec<QuantLayerWeights>,
    /// Ping-pong activation buffers (`h` holds the current layer
    /// input after the swap) plus the aggregation scratch.
    h: Matrix,
    out: Matrix,
    agg: Matrix,
    qh: QuantizedMatrix,
    qagg: QuantizedMatrix,
}

impl QuantState {
    fn new() -> Self {
        Self {
            built_at: None,
            layers: Vec::new(),
            h: Matrix::zeros(0, 0),
            out: Matrix::zeros(0, 0),
            agg: Matrix::zeros(0, 0),
            qh: QuantizedMatrix::new(),
            qagg: QuantizedMatrix::new(),
        }
    }
}

/// A full GraphSAGE model. A clone is exact: parameters, optimiser
/// state and buffers.
#[derive(Clone)]
pub struct SageModel {
    layers: Vec<SageLayer>,
    cfg: SageConfig,
    /// Bumped on every parameter mutation; the quantized-weight cache
    /// is invalidated by comparing against it.
    weights_version: u64,
    quant: QuantState,
}

/// The edge weights of a weighted [`SageModel::forward_rows`] and where
/// [`SageModel::backward_rows`] accumulates their gradient.
pub(crate) struct EdgeGrad<'a> {
    /// The model input the forward read.
    pub(crate) x: &'a Matrix,
    /// The forward's edge weights, one per CSR slot.
    pub(crate) weights: &'a [f32],
    /// `∂L/∂w`, one per CSR slot: added to, not overwritten.
    pub(crate) grad: &'a mut [f32],
}

/// One layer's parameters as borrowed matrices:
/// `(W_root, W_nbr, bias)`.
pub type LayerWeights<'a> = (&'a Matrix, &'a Matrix, &'a Matrix);

impl SageModel {
    /// Build untrained.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, cfg: SageConfig) -> Self {
        assert!(cfg.layers >= 1);
        let mut layers = Vec::with_capacity(cfg.layers);
        let mut d_in = cfg.input_dim;
        for l in 0..cfg.layers {
            let last = l == cfg.layers - 1;
            let d_out = if last { cfg.n_classes } else { cfg.hidden };
            layers.push(SageLayer::new(rng, d_in, d_out, last, cfg.l2_normalize));
            d_in = d_out;
        }
        Self {
            layers,
            cfg,
            weights_version: 0,
            quant: QuantState::new(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &SageConfig {
        &self.cfg
    }

    /// Full-graph forward pass producing per-node logits, borrowed
    /// from the last layer's output buffer. Allocation-free once
    /// buffer shapes stabilise; the borrow ends before
    /// [`Self::backward`] needs the model mutably.
    ///
    /// This is the all-rows call of the row-set forward the trainers
    /// and [`crate::predict_events`] run (DESIGN.md §10).
    pub fn forward_cached(&mut self, csr: &Csr, x: &Matrix, train: bool) -> &Matrix {
        self.forward_rows(csr, x, None, None, train)
    }

    /// Forward pass computing, at layer `l`, every node (`rows` is
    /// `None`) or only layer `l`'s set of `rows`. The result has one
    /// row per node, or one per root in ascending id
    /// ([`LayerRows::root_row`]); each computed row is bitwise the
    /// all-rows pass's row of that node. `x` always holds one row per
    /// node. `edge_weights`, one per CSR slot, weights every layer's
    /// neighbour mean (GNNExplainer's edge mask); all ones is bitwise
    /// the unweighted pass.
    pub(crate) fn forward_rows(
        &mut self,
        csr: &Csr,
        x: &Matrix,
        rows: Option<&LayerRows>,
        edge_weights: Option<&[f32]>,
        train: bool,
    ) -> &Matrix {
        let n_layers = self.layers.len();
        if let Some(r) = rows {
            assert_eq!(r.nodes.len(), n_layers, "one row set per layer");
        }
        for l in 0..n_layers {
            let (prev, rest) = self.layers.split_at_mut(l);
            let h: &Matrix = match prev.last() {
                Some(p) => &p.buf_out,
                None => x,
            };
            rest[0].forward_into(csr, h, rows, edge_weights, l, train);
        }
        let computed = rows.map_or(n_layers * csr.node_count(), |r| {
            r.nodes.iter().map(Vec::len).sum()
        });
        trail_obs::observe(
            "gnn.rows_computed",
            trail_obs::bounds::GNN_ROWS_COMPUTED,
            computed as u64,
        );
        &self.layers[n_layers - 1].buf_out
    }

    /// Full-graph forward pass producing owned per-node logits.
    pub fn forward(&mut self, csr: &Csr, x: &Matrix, train: bool) -> Matrix {
        self.forward_cached(csr, x, train).clone()
    }

    /// Backward pass from per-node logit gradients. Must follow a
    /// train-mode forward with no intervening forward pass (the layer
    /// caches double as the forward scratch buffers).
    pub fn backward(&mut self, csr: &Csr, d_logits: &Matrix) {
        self.backward_rows(csr, d_logits, None, None);
    }

    /// Backward pass over the rows of the preceding train-mode
    /// [`Self::forward_rows`], which must have used the same `rows`;
    /// `d_logits` has one row per row of that forward's result. After a
    /// weighted forward, `edge` accumulates `∂L/∂w` as well.
    pub(crate) fn backward_rows(
        &mut self,
        csr: &Csr,
        d_logits: &Matrix,
        rows: Option<&LayerRows>,
        mut edge: Option<EdgeGrad<'_>>,
    ) {
        for l in (0..self.layers.len()).rev() {
            let (head, tail) = self.layers.split_at_mut(l + 1);
            let (below, at) = head.split_at_mut(l);
            let g: &Matrix = match tail.first() {
                Some(next) => &next.buf_d_h,
                None => d_logits,
            };
            // Layer `l` read the layer below's output, intact until the
            // next forward, or the model input.
            let edge = edge.as_mut().map(|e| {
                let h = below.last().map_or(e.x, |p| &p.buf_out);
                (h, e.weights, &mut *e.grad)
            });
            at[0].backward_into(csr, g, rows, l, edge);
        }
    }

    /// Optimiser step over all parameters.
    pub fn step(&mut self, adam: &mut Adam) {
        adam.tick();
        for layer in &mut self.layers {
            adam.step(&mut layer.w_root);
            adam.step(&mut layer.w_nbr);
            adam.step(&mut layer.b);
        }
        self.weights_version += 1;
    }

    /// Per-node class probabilities (inference).
    pub fn predict_proba(&mut self, csr: &Csr, x: &Matrix) -> Matrix {
        self.proba_rows(csr, x, None)
    }

    /// Class probabilities of the rows [`Self::forward_rows`] returns.
    pub(crate) fn proba_rows(&mut self, csr: &Csr, x: &Matrix, rows: Option<&LayerRows>) -> Matrix {
        let mut logits = self.forward_rows(csr, x, rows, None, false).clone();
        let k = self.cfg.n_classes;
        for row in logits.as_mut_slice().chunks_exact_mut(k) {
            trail_linalg::vector::softmax_inplace(row);
        }
        logits
    }

    /// Logits of `roots` (ascending id, duplicates once) from the
    /// row-set forward, with every neighbour mean weighted per CSR slot
    /// when `edge_weights` is given. All-ones weights give the
    /// unweighted logits bit for bit (DESIGN.md §10).
    pub fn logits_at(
        &mut self,
        csr: &Csr,
        x: &Matrix,
        roots: &[NodeId],
        edge_weights: Option<&[f32]>,
    ) -> Matrix {
        let rows = LayerRows::new(csr, roots, self.layers.len());
        self.forward_rows(csr, x, Some(&rows), edge_weights, false)
            .clone()
    }

    /// Layer weights `(W_root, W_nbr, b)`, borrowed.
    pub fn weights(&self) -> Vec<LayerWeights<'_>> {
        self.layers
            .iter()
            .map(|l| (&l.w_root.value, &l.w_nbr.value, &l.b.value))
            .collect()
    }

    /// Clone of every layer's parameter values `(W_root, W_nbr, b)`.
    /// The trainers capture this at the best-validation epoch so early
    /// stopping can return those weights instead of the last epoch's.
    pub(crate) fn snapshot_params(&self) -> Vec<(Matrix, Matrix, Matrix)> {
        self.layers
            .iter()
            .map(|l| {
                (
                    l.w_root.value.clone(),
                    l.w_nbr.value.clone(),
                    l.b.value.clone(),
                )
            })
            .collect()
    }

    /// Restore parameter values captured by [`Self::snapshot_params`].
    /// Optimiser moments are left as-is — restoration only happens when
    /// training is about to stop.
    pub(crate) fn restore_params(&mut self, snap: &[(Matrix, Matrix, Matrix)]) {
        assert_eq!(snap.len(), self.layers.len(), "snapshot layer count");
        for (layer, (w_root, w_nbr, b)) in self.layers.iter_mut().zip(snap) {
            layer.w_root.value = w_root.clone();
            layer.w_nbr.value = w_nbr.clone();
            layer.b.value = b.clone();
        }
        self.weights_version += 1;
        // Belt and braces: the version bump already invalidates the
        // quantized weight cache, but restores are rare and correctness
        // here is what keeps a restored model's i8 path bitwise equal
        // to quantizing from scratch — drop the cache outright so no
        // counter coincidence can ever resurrect stale i8 weights.
        self.quant.built_at = None;
    }

    /// Zero every parameter's Adam moments.
    ///
    /// Each training pass owns a fresh [`Adam`] whose bias-correction
    /// timestep starts at zero, so moments from an earlier pass are
    /// stale under the new timestep. They are also invisible to the
    /// weight-only bundle format: letting them leak across passes
    /// would make a model's trajectory depend on optimiser history a
    /// model rebuilt from its weights cannot reproduce.
    pub fn reset_optimizer_state(&mut self) {
        for layer in &mut self.layers {
            for p in [&mut layer.w_root, &mut layer.w_nbr, &mut layer.b] {
                p.m.as_mut_slice().fill(0.0);
                p.v.as_mut_slice().fill(0.0);
            }
        }
    }

    /// Replace layer `l`'s parameters (shape-checked). Used for loading
    /// saved weights and for constructing reference models in tests.
    pub fn set_layer_weights(&mut self, l: usize, w_root: Matrix, w_nbr: Matrix, b: Matrix) {
        assert_eq!(
            w_root.shape(),
            self.layers[l].w_root.value.shape(),
            "W_root shape"
        );
        assert_eq!(
            w_nbr.shape(),
            self.layers[l].w_nbr.value.shape(),
            "W_nbr shape"
        );
        assert_eq!(b.shape(), self.layers[l].b.value.shape(), "b shape");
        self.layers[l].w_root = Param::new(w_root);
        self.layers[l].w_nbr = Param::new(w_nbr);
        self.layers[l].b = Param::new(b);
        self.weights_version += 1;
        // Same defensive invalidation as `restore_params`: loading
        // saved weights must never serve a stale i8 snapshot.
        self.quant.built_at = None;
    }

    /// Rebuild the i8 weight snapshots if any parameter changed since
    /// the cache was last built.
    fn ensure_quant_cache(&mut self) {
        if self.quant.built_at == Some(self.weights_version) {
            return;
        }
        self.quant.layers.clear();
        for layer in &self.layers {
            self.quant.layers.push(QuantLayerWeights {
                qw_root: QuantizedWeights::from_cols(&layer.w_root.value),
                qw_nbr: QuantizedWeights::from_cols(&layer.w_nbr.value),
            });
        }
        self.quant.built_at = Some(self.weights_version);
    }

    /// Full-graph forward pass over i8-quantized weights and
    /// activations — the quantized **inference** path.
    ///
    /// Structure mirrors the f32 forward exactly: CSR mean-aggregation
    /// sweep, two linear maps (here `i32`-accumulated i8 matmuls,
    /// dequantized per element), bias add, then ReLU + row L2
    /// normalisation on hidden layers. Aggregation, bias, activation
    /// and normalisation all stay in f32, so the only deviation from
    /// [`Self::forward`] is the two quantizations per layer, each
    /// bounded by the epsilon contract in `trail_linalg::quant`.
    ///
    /// Weight snapshots are cached and invalidated automatically when
    /// parameters change ([`Self::step`], [`Self::set_layer_weights`]). Training state is untouched: interleaving
    /// quantized forwards with f32 inference is safe, and the f32
    /// training trajectory stays bitwise-deterministic.
    ///
    /// This is [`Self::forward_quantized_prefix`] with every layer
    /// computing every row.
    pub fn forward_quantized(&mut self, csr: &Csr, x: &Matrix) -> Matrix {
        let keep = vec![x.rows(); self.layers.len()];
        self.forward_quantized_prefix(csr, x, &keep)
    }

    /// [`Self::forward_quantized`] computing only a row prefix per
    /// layer: layer `l` produces rows `0..keep[l]`, and the result holds
    /// the last layer's `keep[L−1]` rows.
    ///
    /// Every step is row-local — the neighbour sweep, the per-row
    /// activation quantization, the exact i32 matmul, bias, ReLU and
    /// L2 — so each computed row is bitwise the full pass's row,
    /// provided every neighbour of a row below `keep[l]` lies below
    /// `keep[l−1]` (below `x.rows()` at layer 0). A BFS-ordered ball
    /// meets this with `keep[l]` = the members within `L−1−l` hops of
    /// the roots (DESIGN.md §12). A row whose neighbour lies beyond the
    /// previous layer's prefix panics on [`Matrix::row`]'s bounds; it
    /// never yields a wrong value.
    ///
    /// # Panics
    /// If `keep.len()` is not the depth, or `keep` is not
    /// non-increasing within `x.rows()` and the CSR's node count.
    pub fn forward_quantized_prefix(&mut self, csr: &Csr, x: &Matrix, keep: &[usize]) -> Matrix {
        assert_eq!(keep.len(), self.layers.len(), "one row count per layer");
        self.ensure_quant_cache();
        let threads = trail_linalg::pool::num_threads();
        let QuantState {
            layers: qweights,
            h,
            out,
            agg,
            qh,
            qagg,
            ..
        } = &mut self.quant;
        let mut prev = x.rows();
        for (l, layer) in self.layers.iter().enumerate() {
            let input: &Matrix = if l == 0 { x } else { h };
            let n = keep[l];
            assert!(n <= prev, "row prefixes must not grow with depth");
            let d_in = input.cols();
            let d_out = layer.w_root.value.cols();
            ensure_shape(agg, n, d_in);
            let weight = SweepWeight::MeanOfNeighbors;
            neighbor_mean_sweep_into(csr, input, weight, None, None, None, threads, agg);
            qh.quantize_prefix_into(input, n);
            qagg.quantize_rows_into(agg);
            ensure_shape(out, n, d_out);
            let qw = &qweights[l];
            matmul_quant_into(qh, &qw.qw_root, out).expect("root shape");
            matmul_quant_acc(qagg, &qw.qw_nbr, out).expect("nbr shape");
            out.add_row_broadcast(layer.b.value.as_slice())
                .expect("bias");
            if !layer.last {
                out.map_inplace(|v| v.max(0.0));
                if layer.l2_normalize {
                    let cols = out.cols();
                    for row in out.as_mut_slice().chunks_exact_mut(cols.max(1)) {
                        let nrm = trail_linalg::vector::norm2(row).max(1e-12);
                        for v in row.iter_mut() {
                            *v /= nrm;
                        }
                    }
                }
            }
            std::mem::swap(h, out);
            prev = n;
        }
        h.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use trail_graph::{EdgeKind, GraphStore, NodeKind};
    use trail_ml::nn::loss::softmax_cross_entropy;

    fn line_graph() -> (GraphStore, Vec<NodeId>) {
        let mut g = GraphStore::new();
        let e0 = g.upsert_node(NodeKind::Event, "e0");
        let ip = g.upsert_node(NodeKind::Ip, "1.1.1.1");
        let e1 = g.upsert_node(NodeKind::Event, "e1");
        g.add_edge(e0, ip, EdgeKind::InReport).unwrap();
        g.add_edge(e1, ip, EdgeKind::InReport).unwrap();
        (g, vec![e0, ip, e1])
    }

    #[test]
    fn aggregation_means_neighbors_only() {
        let (g, n) = line_graph();
        let csr = Csr::from_store(&g);
        let h = Matrix::from_vec(3, 1, vec![3.0, 6.0, 9.0]).unwrap();
        let agg = aggregate_mean(&csr, &h);
        // e0: mean{ip}=6 ; ip: mean{e0,e1}=6 ; e1: mean{ip}=6.
        assert_eq!(agg.as_slice(), &[6.0, 6.0, 6.0]);
        let _ = n;
    }

    #[test]
    fn isolated_node_aggregates_to_zero() {
        let mut g = GraphStore::new();
        g.upsert_node(NodeKind::Asn, "AS1");
        let csr = Csr::from_store(&g);
        let h = Matrix::from_vec(1, 2, vec![5.0, -1.0]).unwrap();
        let agg = aggregate_mean(&csr, &h);
        assert_eq!(agg.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_is_transpose_of_aggregate() {
        // <aggregate(h), d> must equal <h, scatter(d)> for all h, d.
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let h = Matrix::from_vec(3, 2, vec![1.0, 2.0, -1.0, 0.5, 3.0, -2.0]).unwrap();
        let d = Matrix::from_vec(3, 2, vec![0.2, -0.7, 1.0, 0.3, -0.4, 0.9]).unwrap();
        let lhs: f32 = aggregate_mean(&csr, &h)
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = h
            .as_slice()
            .iter()
            .zip(scatter_mean_grad(&csr, &d).as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-5, "{lhs} vs {rhs}");
    }

    /// `∂L/∂w` of the weighted backward against central differences of
    /// the weighted forward, for `L = ⟨d, logits of the root⟩` of a
    /// 2-layer model on a multigraph with a parallel edge, a self-loop
    /// and an isolate, with L2 off and on.
    #[test]
    fn edge_weight_gradient_matches_finite_differences() {
        let pairs = [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 0)];
        let edges: Vec<(NodeId, NodeId, EdgeKind)> = pairs
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b), EdgeKind::InReport))
            .collect();
        let csr = Csr::from_edge_list(5, &edges);
        let mut rng = StdRng::seed_from_u64(21);
        let x = Matrix::from_fn(5, 3, |_, _| rng.gen_range(-1.0f32..1.0));
        let d = Matrix::from_fn(1, 3, |_, _| rng.gen_range(-1.0f32..1.0));
        let w: Vec<f32> = (0..csr.half_edge_count())
            .map(|_| rng.gen_range(0.3f32..1.0))
            .collect();
        let rows = LayerRows::new(&csr, &[NodeId(1)], 2);
        for l2_normalize in [false, true] {
            let cfg = SageConfig {
                l2_normalize,
                ..SageConfig::new(3, 6, 2, 3)
            };
            let mut model = SageModel::new(&mut StdRng::seed_from_u64(22), cfg);
            let mut loss = |w: &[f32]| -> f64 {
                let out = model.forward_rows(&csr, &x, Some(&rows), Some(w), false);
                out.row(0)
                    .iter()
                    .zip(d.row(0))
                    .map(|(&o, &d)| (o * d) as f64)
                    .sum()
            };
            let step = 5e-3f32;
            let fd: Vec<f64> = (0..w.len())
                .map(|s| {
                    let (mut up, mut down) = (w.clone(), w.clone());
                    up[s] += step;
                    down[s] -= step;
                    (loss(&up) - loss(&down)) / (2.0 * step as f64)
                })
                .collect();
            let mut grad = vec![0.0f32; w.len()];
            let _ = model.forward_rows(&csr, &x, Some(&rows), Some(&w), true);
            let edge = EdgeGrad {
                x: &x,
                weights: &w,
                grad: &mut grad,
            };
            model.backward_rows(&csr, &d, Some(&rows), Some(edge));
            assert!(
                grad.iter().any(|&g| g != 0.0),
                "no gradient reached the weights"
            );
            for (s, (&g, &f)) in grad.iter().zip(&fd).enumerate() {
                assert!(
                    (g as f64 - f).abs() <= 1e-3 + 1e-2 * f.abs(),
                    "slot {s}, L2 {l2_normalize}: backward {g} vs finite difference {f}"
                );
            }
        }
    }

    #[test]
    fn output_shape_matches_classes() {
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SageConfig::new(4, 8, 3, 5);
        let mut model = SageModel::new(&mut rng, cfg);
        let x = Matrix::zeros(3, 4);
        let out = model.forward(&csr, &x, false);
        assert_eq!(out.shape(), (3, 5));
    }

    #[test]
    fn training_fits_a_labelled_pair() {
        // Two events share an IP; labels differ; distinct input features
        // let the model separate them.
        let (g, n) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SageConfig::new(2, 16, 2, 2);
        let mut model = SageModel::new(&mut rng, cfg);
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, 0.5, 0.0, 1.0]).unwrap();
        let labels = [(n[0], 0u16), (n[2], 1u16)];
        let mut adam = Adam::new(0.05);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let logits = model.forward(&csr, &x, true);
            let rows: Vec<usize> = labels.iter().map(|(id, _)| id.index()).collect();
            let sub = logits.gather_rows(&rows);
            let y: Vec<u16> = labels.iter().map(|&(_, c)| c).collect();
            let (loss, d_sub) = softmax_cross_entropy(&sub, &y);
            let mut d_logits = Matrix::zeros(3, 2);
            for (i, &r) in rows.iter().enumerate() {
                d_logits.row_mut(r).copy_from_slice(d_sub.row(i));
            }
            model.backward(&csr, &d_logits);
            model.step(&mut adam);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "{first_loss:?} -> {last_loss}"
        );
        let proba = model.predict_proba(&csr, &x);
        assert!(proba[(n[0].index(), 0)] > 0.5);
        assert!(proba[(n[2].index(), 1)] > 0.5);
    }

    #[test]
    fn hidden_layers_are_unit_norm() {
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SageConfig::new(3, 6, 2, 2);
        let mut model = SageModel::new(&mut rng, cfg);
        let x = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 + 0.5);
        let h = model.layers[0].forward(&csr, &x, false);
        for row in h.rows_iter() {
            let n = trail_linalg::vector::norm2(row);
            if n > 1e-9 {
                assert!((n - 1.0).abs() < 1e-4, "norm {n}");
            }
        }
    }

    #[test]
    fn root_weight_preserves_self_identity() {
        // With W_nbr = 0 and W_root = I, the layer is the identity map
        // (pre-normalisation): self features pass through undiluted.
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SageConfig::new(2, 4, 1, 2);
        let mut model = SageModel::new(&mut rng, cfg);
        model.set_layer_weights(
            0,
            Matrix::identity(2),
            Matrix::zeros(2, 2),
            Matrix::zeros(1, 2),
        );
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = model.forward(&csr, &x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn repeated_forward_reuses_buffers_bitwise() {
        // Buffer reuse across calls must not leak state between passes:
        // the same input yields the exact same output every time, and a
        // different input in between does not perturb it.
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SageConfig::new(3, 8, 2, 4);
        let mut model = SageModel::new(&mut rng, cfg);
        let x = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
        let first = model.forward(&csr, &x, false);
        let other = Matrix::from_fn(3, 3, |r, c| (r + c) as f32 * -0.5);
        let _ = model.forward(&csr, &other, true);
        let again = model.forward(&csr, &x, false);
        assert_eq!(first, again);
    }

    #[test]
    fn clone_carries_weights_and_optimiser_state() {
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let mut model = SageModel::new(&mut StdRng::seed_from_u64(6), SageConfig::new(3, 8, 2, 4));
        let x = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
        let d = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1 - 0.2);
        let mut adam = Adam::new(0.05);
        let train_step = |m: &mut SageModel, adam: &mut Adam| {
            let _ = m.forward(&csr, &x, true);
            m.backward(&csr, &d);
            m.step(adam);
        };
        train_step(&mut model, &mut adam);
        let mut twin = model.clone();
        let mut twin_adam = adam.clone();
        train_step(&mut model, &mut adam);
        train_step(&mut twin, &mut twin_adam);
        assert_eq!(
            model.forward(&csr, &x, false),
            twin.forward(&csr, &x, false)
        );
    }

    /// Train the labelled-pair fixture (seeded RNG, so the whole run is
    /// deterministic), then require the quantized forward to agree with
    /// f32: max-abs logit error within 1e-2 and identical argmax on
    /// every node.
    #[test]
    fn quantized_forward_tracks_f32_on_trained_fixture() {
        let (g, n) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SageConfig::new(2, 16, 2, 2);
        let mut model = SageModel::new(&mut rng, cfg);
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, 0.5, 0.0, 1.0]).unwrap();
        let labels = [(n[0], 0u16), (n[2], 1u16)];
        let mut adam = Adam::new(0.05);
        for _ in 0..60 {
            let logits = model.forward(&csr, &x, true);
            let rows: Vec<usize> = labels.iter().map(|(id, _)| id.index()).collect();
            let sub = logits.gather_rows(&rows);
            let y: Vec<u16> = labels.iter().map(|&(_, c)| c).collect();
            let (_, d_sub) = softmax_cross_entropy(&sub, &y);
            let mut d_logits = Matrix::zeros(3, 2);
            for (i, &r) in rows.iter().enumerate() {
                d_logits.row_mut(r).copy_from_slice(d_sub.row(i));
            }
            model.backward(&csr, &d_logits);
            model.step(&mut adam);
        }
        let exact = model.forward(&csr, &x, false);
        let quant = model.forward_quantized(&csr, &x);
        assert_eq!(exact.shape(), quant.shape());
        let mut max_err = 0.0f32;
        for (e, q) in exact.as_slice().iter().zip(quant.as_slice()) {
            max_err = max_err.max((e - q).abs());
        }
        assert!(max_err <= 1e-2, "max-abs logit error {max_err}");
        for r in 0..exact.rows() {
            let am = |row: &[f32]| trail_linalg::vector::argmax(row);
            assert_eq!(
                am(exact.row(r)),
                am(quant.row(r)),
                "argmax disagrees on row {r}"
            );
        }
        // The f32 path must be untouched by the quantized pass.
        let exact_again = model.forward(&csr, &x, false);
        assert_eq!(exact, exact_again);
    }

    /// Restore-then-quantized-predict must match quantize-from-scratch
    /// bitwise: a model whose quant cache was built under *other*
    /// weights, then had a trained snapshot restored into it, serves
    /// exactly the i8 path a fresh model loaded with those weights
    /// serves — no stale cached i8 snapshot can survive the restore.
    #[test]
    fn restored_weights_requantize_bitwise_identical_to_scratch() {
        let (g, n) = line_graph();
        let csr = Csr::from_store(&g);
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, 0.5, 0.0, 1.0]).unwrap();
        let cfg = SageConfig::new(2, 16, 2, 2);

        // Train a reference model to get non-trivial weights.
        let mut rng = StdRng::seed_from_u64(2);
        let mut trained = SageModel::new(&mut rng, cfg);
        let labels = [(n[0], 0u16), (n[2], 1u16)];
        let mut adam = Adam::new(0.05);
        for _ in 0..30 {
            let logits = trained.forward(&csr, &x, true);
            let rows: Vec<usize> = labels.iter().map(|(id, _)| id.index()).collect();
            let sub = logits.gather_rows(&rows);
            let y: Vec<u16> = labels.iter().map(|&(_, c)| c).collect();
            let (_, d_sub) = softmax_cross_entropy(&sub, &y);
            let mut d_logits = Matrix::zeros(3, 2);
            for (i, &r) in rows.iter().enumerate() {
                d_logits.row_mut(r).copy_from_slice(d_sub.row(i));
            }
            trained.backward(&csr, &d_logits);
            trained.step(&mut adam);
        }
        let snap = trained.snapshot_params();

        // Model with a *warm* quant cache built under different weights,
        // then the trained snapshot restored via both restore paths.
        let mut via_restore = SageModel::new(&mut StdRng::seed_from_u64(99), cfg);
        let _ = via_restore.forward_quantized(&csr, &x); // warm stale cache
        via_restore.restore_params(&snap);

        let mut via_set = SageModel::new(&mut StdRng::seed_from_u64(99), cfg);
        let _ = via_set.forward_quantized(&csr, &x); // warm stale cache
        for (l, (w_root, w_nbr, b)) in snap.iter().enumerate() {
            via_set.set_layer_weights(l, w_root.clone(), w_nbr.clone(), b.clone());
        }

        // Quantize-from-scratch reference: never quantized before.
        let mut scratch = SageModel::new(&mut StdRng::seed_from_u64(99), cfg);
        scratch.restore_params(&snap);

        let want = scratch.forward_quantized(&csr, &x);
        assert_eq!(via_restore.forward_quantized(&csr, &x), want);
        assert_eq!(via_set.forward_quantized(&csr, &x), want);
        // And both agree with the trained model's own quantized path.
        assert_eq!(trained.forward_quantized(&csr, &x), want);
    }

    #[test]
    fn quantized_weight_cache_invalidates_on_param_change() {
        let (g, _) = line_graph();
        let csr = Csr::from_store(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = SageConfig::new(2, 4, 1, 2);
        let mut model = SageModel::new(&mut rng, cfg);
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let before = model.forward_quantized(&csr, &x);
        model.set_layer_weights(
            0,
            Matrix::identity(2),
            Matrix::zeros(2, 2),
            Matrix::zeros(1, 2),
        );
        let after = model.forward_quantized(&csr, &x);
        // Identity weights reproduce x exactly (scales are exact for
        // these inputs is not required — just that the cache refreshed).
        assert_ne!(before, after);
        let exact = model.forward(&csr, &x, false);
        for (e, q) in exact.as_slice().iter().zip(after.as_slice()) {
            assert!((e - q).abs() <= 0.05, "{e} vs {q}");
        }
    }

    /// The row sets as `LayerRows::new` built them before it read a
    /// `Ball`: one `k_hop` of radius `layers − 1`, sorted by id, and
    /// per layer the nodes with hop ≤ `layers − 1 − l`.
    fn k_hop_row_sets(csr: &Csr, roots: &[NodeId], layers: usize) -> Vec<Vec<u32>> {
        let mut hood = trail_graph::algo::k_hop(csr, roots, (layers - 1) as u32);
        hood.sort_unstable_by_key(|&(id, _)| id);
        (0..layers)
            .map(|l| {
                let reach = (layers - 1 - l) as u32;
                hood.iter()
                    .filter(|&&(_, hop)| hop <= reach)
                    .map(|&(id, _)| id.0)
                    .collect()
            })
            .collect()
    }

    /// Every layer's set is exactly the ascending nodes within
    /// `L−1−l` hops of the roots, and the position maps and gathers
    /// agree with the sets, at depths 1–4 and at the `layers + 1`
    /// depths label propagation builds (up to 5), on multigraphs with
    /// self-loops, parallel edges, isolates and repeated roots.
    #[test]
    fn row_sets_equal_the_k_hop_filter() {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as usize) % bound
        };
        for _ in 0..60 {
            let n = 1 + next(30);
            // The top quarter of the ids stays edge-free: isolates.
            let span = (n * 3 / 4).max(1);
            let edges: Vec<(NodeId, NodeId, EdgeKind)> = (0..next(3 * n))
                .map(|_| {
                    let (a, b) = (next(span), next(span));
                    (NodeId::from(a), NodeId::from(b), EdgeKind::InReport)
                })
                .collect();
            let csr = Csr::from_edge_list(n, &edges);
            let roots: Vec<NodeId> = (0..1 + next(4)).map(|_| NodeId::from(next(n))).collect();
            for layers in 1..=5 {
                let rows = LayerRows::new(&csr, &roots, layers);
                assert_eq!(
                    rows.nodes,
                    k_hop_row_sets(&csr, &roots, layers),
                    "depth {layers}"
                );
                for (l, set) in rows.nodes.iter().enumerate() {
                    let mut at = vec![NOT_A_MEMBER; n];
                    for (i, &v) in set.iter().enumerate() {
                        at[v as usize] = i as u32;
                    }
                    assert_eq!(rows.pos[l], at, "position map of layer {l}");
                    let gather: Vec<usize> = match l {
                        0 => set.iter().map(|&v| v as usize).collect(),
                        _ => set
                            .iter()
                            .map(|&v| rows.pos[l - 1][v as usize] as usize)
                            .collect(),
                    };
                    assert_eq!(rows.gather[l], gather, "gather of layer {l}");
                }
                for &r in &roots {
                    assert_eq!(rows.nodes[layers - 1][rows.root_row(r)], r.0);
                }
            }
        }
    }
}
