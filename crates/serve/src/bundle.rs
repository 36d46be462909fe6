//! TSB1 — the immutable serve-bundle frame, and the pure query-scoring
//! path that runs against it.
//!
//! A [`ServeBundle`] freezes everything attribution needs at serve
//! time: the historical TKG (embedded as a nested TKG2 blob), the
//! attributed-event table, the APT label space, the per-node
//! autoencoder codes and the trained GraphSAGE parameters. Once
//! constructed (or loaded) it is never mutated — every query method
//! takes `&self`, which is what makes the runtime's lock-free sharing
//! across worker threads sound.
//!
//! The file is the TSB1 format: magic `"TSB1"`, version 1, in the
//! shared envelope of [`trail_graph::frame`] (DESIGN.md §9). The model
//! section's codec lives in [`trail::freeze`], next to the recipe that
//! produces the model.
//! Loading checks the envelope and bounds every field read, then
//! cross-validates the decoded pieces against each other (code rows vs
//! node count, layer shapes vs architecture, event ids vs graph).
//! Corrupt input yields a typed [`PersistError`], never a panic.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;

use trail::embed::{gnn_input_dim, write_gnn_input_row};
use trail::freeze::{
    self, check_layers, put_layers, put_matrix, put_sage_config, read_layers, read_matrix,
    read_sage_config, FrozenModel,
};
use trail::Tkg;
use trail_gnn::{SageConfig, SageModel};
use trail_graph::frame::{self, put_str, put_u16, put_u32, put_u64, Cursor};
use trail_graph::persist::write_atomic;
use trail_graph::{persist, Csr, EdgeKind, GraphStore, NodeId, NodeKind, PersistError};
use trail_ioc::IocKey;
use trail_linalg::Matrix;

/// Magic bytes: Trail Serve Bundle.
const MAGIC: [u8; 4] = *b"TSB1";
/// Format version.
const VERSION: u32 = 1;

/// Bundle result alias.
pub type Result<T> = std::result::Result<T, PersistError>;

fn malformed(offset: usize, what: &'static str) -> PersistError {
    PersistError::Malformed { offset, what }
}

/// One attributed historical event, as frozen into the bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleEvent {
    /// The event's node in the embedded graph.
    pub node: NodeId,
    /// Resolved APT label.
    pub apt: u16,
    /// Source report id (diagnostics only).
    pub report_id: String,
}

/// One induced edge `(lower local id, higher local id, kind)`, as
/// [`Csr::from_edge_list`] takes it.
type InducedEdge = (NodeId, NodeId, EdgeKind);

/// Per-query traversal limits.
#[derive(Debug, Clone, Copy)]
pub struct QueryLimits {
    /// Ego-subgraph radius around the queried IOCs (hops). The walk
    /// goes at least as deep as the bundle's model
    /// (`max(radius, layers)`): the roots' logits read every member
    /// within that many hops, so a smaller radius would silently change
    /// the answer.
    pub radius: u32,
    /// Hard cap on subgraph size; BFS order is truncated
    /// deterministically, so a hub IOC cannot stall the runtime.
    pub max_members: usize,
}

impl Default for QueryLimits {
    fn default() -> Self {
        Self {
            radius: 2,
            max_members: 2048,
        }
    }
}

/// Result of scoring one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// `(class, score)` over the full label space, best first; scores
    /// are mean softmax probabilities over the matched IOC nodes and
    /// sum to 1. Empty when no queried IOC exists in the graph.
    pub ranked: Vec<(u16, f32)>,
    /// Queried IOCs found in the graph.
    pub matched: usize,
    /// Ego-subgraph size (after the `max_members` cut). The forward
    /// computes only the part the matched nodes' logits read.
    pub members: usize,
    /// Historical attributed events inside the subgraph.
    pub events: usize,
}

/// The frozen, immutable serving artefact.
pub struct ServeBundle {
    graph: GraphStore,
    csr: Csr,
    class_names: Vec<String>,
    events: Vec<BundleEvent>,
    /// Per node: its kind and its label (`None` for non-event nodes) —
    /// the serving analogue of the "visible labels" block: all history
    /// is visible. One compact entry per node, so assembling a query's
    /// input rows reads one small array besides the codes.
    node_inputs: Vec<(NodeKind, Option<u16>)>,
    code_dim: usize,
    codes: Matrix,
    sage_cfg: SageConfig,
    layers: Vec<(Matrix, Matrix, Matrix)>,
}

impl ServeBundle {
    /// Freeze a trained system into an immutable bundle.
    ///
    /// The graph is cloned. A graph decoded from its TKG2 encoding
    /// equals the live one, so a freshly frozen bundle and one reloaded
    /// from disk hold the same state and encode to the same bytes
    /// (`frozen_bundle_equals_its_byte_round_trip` pins this).
    pub fn freeze(tkg: &Tkg, frozen: &FrozenModel) -> Result<Self> {
        let _span = trail_obs::span("serve.freeze");
        check_layers(&frozen.sage_cfg, &frozen.layers)?;
        let events = tkg
            .events
            .iter()
            .map(|e| BundleEvent {
                node: e.node,
                apt: e.apt,
                report_id: e.report_id.clone(),
            })
            .collect();
        Self::assemble(
            tkg.graph.clone(),
            tkg.registry.names().to_vec(),
            events,
            frozen.code_dim,
            frozen.codes.clone(),
            frozen.sage_cfg,
            frozen.layers.clone(),
        )
    }

    /// Re-freeze a live stream's current state into a bundle — the
    /// packaging half of zero-downtime hot swap (the producer half is
    /// [`StreamRuntime::freeze_fresh`](trail::stream::StreamRuntime::freeze_fresh)).
    /// The result passes the same cross-validation as any other bundle
    /// and is ready for [`crate::ServeRuntime::install`]; the stream
    /// keeps running.
    pub fn refreeze(rt: &mut trail::stream::StreamRuntime) -> Result<Self> {
        let frozen = rt.freeze_fresh();
        Self::freeze(&rt.system().tkg, &frozen)
    }

    /// Construct from parts whose layers already passed
    /// [`check_layers`], cross-validating the sections against each
    /// other.
    fn assemble(
        graph: GraphStore,
        class_names: Vec<String>,
        events: Vec<BundleEvent>,
        code_dim: usize,
        codes: Matrix,
        sage_cfg: SageConfig,
        layers: Vec<(Matrix, Matrix, Matrix)>,
    ) -> Result<Self> {
        let n = graph.node_count();
        let k = class_names.len();
        if codes.shape() != (n, code_dim) {
            return Err(malformed(0, "codes shape vs graph"));
        }
        if sage_cfg.n_classes != k {
            return Err(malformed(0, "n_classes vs class names"));
        }
        if sage_cfg.input_dim != gnn_input_dim(code_dim, k) {
            return Err(malformed(0, "input_dim vs code layout"));
        }
        let mut node_inputs: Vec<(NodeKind, Option<u16>)> = graph
            .iter_nodes()
            .map(|(_, rec)| (rec.kind, None))
            .collect();
        for e in &events {
            if e.node.index() >= n {
                return Err(malformed(e.node.index(), "event node out of range"));
            }
            if graph.node(e.node).kind != NodeKind::Event {
                return Err(malformed(e.node.index(), "event node kind"));
            }
            if e.apt as usize >= k {
                return Err(malformed(e.apt as usize, "event label out of range"));
            }
            node_inputs[e.node.index()].1 = Some(e.apt);
        }
        let csr = Csr::from_store(&graph);
        Ok(Self {
            graph,
            csr,
            class_names,
            events,
            node_inputs,
            code_dim,
            codes,
            sage_cfg,
            layers,
        })
    }

    // --- frame -------------------------------------------------------------

    /// Serialise to the framed, checksummed binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(1 << 16);
        let graph_blob = persist::to_bytes(&self.graph);
        put_u64(&mut p, graph_blob.len() as u64);
        p.extend_from_slice(&graph_blob);

        put_u16(&mut p, self.class_names.len() as u16);
        for name in &self.class_names {
            put_str(&mut p, name);
        }

        put_u64(&mut p, self.events.len() as u64);
        for e in &self.events {
            put_u32(&mut p, e.node.index() as u32);
            put_u16(&mut p, e.apt);
            put_str(&mut p, &e.report_id);
        }

        put_u64(&mut p, self.code_dim as u64);
        put_matrix(&mut p, &self.codes);
        put_sage_config(&mut p, &self.sage_cfg);
        put_layers(&mut p, &self.layers);
        frame::encode(&MAGIC, VERSION, &p)
    }

    /// Decode and fully validate a bundle frame.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let _span = trail_obs::span("serve.bundle_load");
        let mut c = Cursor::new(frame::decode(&MAGIC, VERSION, data)?);
        let graph_len = c.count_u64(1, "graph blob")?;
        let graph = persist::from_bytes(c.take(graph_len, "graph blob")?).map_err(graph_err)?;

        let n_classes = c.u16("class count")?;
        let n_classes = c.bound(n_classes.into(), 4, "class count")?;
        let mut class_names = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            class_names.push(c.str("class name")?.to_owned());
        }

        let n_events = c.count_u64(10, "event count")?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let node = NodeId::from(c.u32("event node")? as usize);
            let apt = c.u16("event label")?;
            let report_id = c.str("event report id")?.to_owned();
            events.push(BundleEvent {
                node,
                apt,
                report_id,
            });
        }

        let code_dim = c.u64("code dim")? as usize;
        let codes = read_matrix(&mut c, "codes")?;
        let sage_cfg = read_sage_config(&mut c)?;
        let layers = read_layers(&mut c, &sage_cfg)?;
        c.finish("trailing bytes")?;

        Self::assemble(
            graph,
            class_names,
            events,
            code_dim,
            codes,
            sage_cfg,
            layers,
        )
    }

    /// Write atomically (temp file + fsync + rename), like TKG2.
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.to_bytes())
    }

    /// Load and validate a bundle from disk.
    pub fn load(path: &Path) -> Result<Self> {
        let data = std::fs::read(path).map_err(PersistError::Io)?;
        Self::from_bytes(&data)
    }

    // --- accessors ---------------------------------------------------------

    /// The embedded historical graph (read-only).
    pub fn graph(&self) -> &GraphStore {
        &self.graph
    }

    /// The frozen attributed events.
    pub fn events(&self) -> &[BundleEvent] {
        &self.events
    }

    /// Number of APT classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// The frozen SAGE architecture.
    pub fn sage_config(&self) -> SageConfig {
        self.sage_cfg
    }

    /// Build a runnable model replica carrying the frozen weights.
    /// Every call yields a bitwise-identical model (see
    /// [`trail::freeze::instantiate`]), so rankings never depend on
    /// *which* replica served a request.
    pub fn instantiate_model(&self) -> SageModel {
        freeze::instantiate(self.sage_cfg, &self.layers)
    }

    // --- query path (pure, read-only) --------------------------------------

    /// Resolve a canonical IOC identity to its node, if present.
    pub fn find_ioc(&self, key: &IocKey) -> Option<NodeId> {
        self.graph.find_node(Tkg::node_kind(key.kind()), key.text())
    }

    /// Score one query: the queried IOCs' ego-subgraph is extracted,
    /// re-indexed locally, and pushed through the quantized forward
    /// pass; the ranking aggregates the softmax distributions of the
    /// matched IOC nodes themselves (historical event labels are
    /// visible input features, exactly as in training).
    ///
    /// The forward computes only the rows the roots' logits read
    /// (DESIGN.md §12): the walk lists members in BFS order, so the
    /// members within `h` hops are a prefix of the list, even after the
    /// `max_members` cut. Layer `l` of an `L`-layer model runs on the
    /// members within `L−1−l` hops, the input is assembled for those
    /// within `L`, and only the neighbour lists of members within `L−1`
    /// hops are scanned. Every step is row-local, so the answer is
    /// bitwise that of the full forward over the whole ball.
    ///
    /// Strictly read-only against the bundle; the only mutable state is
    /// the caller-provided model replica's scratch buffers.
    pub fn attribute(
        &self,
        model: &mut SageModel,
        iocs: &[IocKey],
        limits: &QueryLimits,
    ) -> Attribution {
        let _span = trail_obs::span("serve.attribute");
        let roots: Vec<NodeId> = iocs.iter().filter_map(|k| self.find_ioc(k)).collect();
        let matched = roots.len();
        if roots.is_empty() {
            return Attribution {
                ranked: Vec::new(),
                matched: 0,
                members: 0,
                events: 0,
            };
        }

        let depth = self.sage_cfg.layers;
        let radius = limits.radius.max(depth as u32);
        let (members, edges) = self.walk(&roots, radius, limits.max_members.max(1), depth);
        let within = |h: usize| members.partition_point(|&(_, hop)| hop as usize <= h);
        let keep: Vec<usize> = (0..depth).map(|l| within(depth - 1 - l)).collect();
        let rows = within(depth);
        let sub = Csr::from_edge_list(rows, &edges);

        let mut x = Matrix::zeros(rows, self.sage_cfg.input_dim);
        for (i, &(id, _)) in members[..rows].iter().enumerate() {
            let (kind, label) = self.node_inputs[id.index()];
            write_gnn_input_row(x.row_mut(i), self.codes.row(id.index()), kind, label);
        }
        let n_events = members
            .iter()
            .filter(|&&(id, _)| self.node_inputs[id.index()].1.is_some())
            .count();

        trail_obs::observe(
            "serve.forward_rows",
            trail_obs::bounds::SERVE_FORWARD_ROWS,
            keep.iter().sum::<usize>() as u64,
        );
        // One logit row per hop-0 member, in member order.
        let logits = model.forward_quantized_prefix(&sub, &x, &keep);
        let k = self.n_classes();
        let mut scores = vec![0.0f32; k];
        for i in 0..logits.rows() {
            let mut proba = logits.row(i).to_vec();
            trail_linalg::vector::softmax_inplace(&mut proba);
            for (s, p) in scores.iter_mut().zip(&proba) {
                *s += p;
            }
        }
        let norm = matched as f32;
        let mut ranked: Vec<(u16, f32)> = scores
            .iter()
            .enumerate()
            .map(|(c, &s)| (c as u16, s / norm))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        Attribution {
            ranked,
            matched,
            members: members.len(),
            events: n_events,
        }
    }

    /// Breadth-first walk of `radius` hops from `roots`, cut at `cap`
    /// members: the members `k_hop` lists, in its order, truncated to
    /// `cap` — found in one pass and without a graph-sized distance
    /// array, so a query touches memory in proportion to its ball.
    ///
    /// Also returns the edges induced on the members, one per
    /// undirected (possibly parallel) edge, from the neighbour lists of
    /// the members within `edge_hops − 1` hops only. The symmetrised
    /// CSR lists each edge from both endpoints, so emitting only from
    /// the lower local index keeps exactly one. Members are expanded in
    /// list order, so the edges come out in the order of a scan over
    /// the members; an edge touching a member within `edge_hops − 1`
    /// hops has its lower endpoint there too, so those members' rows
    /// of the induced CSR are whole and in order.
    fn walk(
        &self,
        roots: &[NodeId],
        radius: u32,
        cap: usize,
        edge_hops: usize,
    ) -> (Vec<(NodeId, u32)>, Vec<InducedEdge>) {
        let presize = cap.min(WALK_PRESIZE);
        let mut local: HashMap<NodeId, usize, BuildHasherDefault<NodeIdHasher>> =
            HashMap::with_capacity_and_hasher(presize, Default::default());
        let mut members: Vec<(NodeId, u32)> = Vec::with_capacity(presize);
        let mut visit =
            |id: NodeId, hop: u32, members: &mut Vec<(NodeId, u32)>| match local.entry(id) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) if members.len() < cap => {
                    e.insert(members.len());
                    members.push((id, hop));
                    Some(members.len() - 1)
                }
                Entry::Vacant(_) => None,
            };
        for &r in roots {
            visit(r, 0, &mut members);
        }
        let mut edges = Vec::new();
        let mut i = 0;
        while i < members.len() && members[i].1 < radius {
            let (id, hop) = members[i];
            for (nbr, kind) in self.csr.neighbors_with_kinds(id) {
                match visit(nbr, hop + 1, &mut members) {
                    Some(j) if (hop as usize) < edge_hops && i < j => {
                        edges.push((NodeId::from(i), NodeId::from(j), kind));
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        (members, edges)
    }
}

/// Members [`ServeBundle::walk`] reserves room for up front (fewer if
/// the cap is lower): a typical ball is found without growing its map
/// or list, and a larger one grows from there.
const WALK_PRESIZE: usize = 512;

/// Hasher of the walk's `NodeId → local index` map: one multiply by
/// the 64-bit golden ratio, its high half folded into the low bits the
/// table indexes by. The walk's keys are ids of the bundle's own graph,
/// not caller-chosen values, so it needs no SipHash. Member order comes
/// from the member list, never from the map, so the hasher moves no
/// bit of an answer.
#[derive(Default)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, v: u32) {
        let h = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn graph_err(e: trail_graph::GraphError) -> PersistError {
    match e {
        trail_graph::GraphError::Persist(p) => p,
        _ => PersistError::Malformed {
            offset: 0,
            what: "embedded graph",
        },
    }
}
