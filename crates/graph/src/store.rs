//! The mutable, deduplicating property-graph store.

use std::collections::{HashMap, HashSet};

use crate::ids::{LabelId, NodeId};
use crate::schema::{EdgeKind, NodeKind};
use crate::sym::{Interner, Sym};
use crate::{GraphError, Result};

/// A single node: its kind, interned natural key, optional class label
/// and whether it was reported directly in an event ("first order") or
/// only discovered during enrichment ("secondary", 75 % of the paper's
/// graph). Resolve `key` to its text via [`GraphStore::key`].
///
/// The label and first-order flag are packed into one `u32` behind
/// [`NodeRecord::label`] / [`NodeRecord::first_order`]: a padded
/// `Option<LabelId>` plus a `bool` cost 6 bytes (and alignment padding)
/// per node, which at the paper's 2.1 M nodes is pure waste for two
/// bits and 16 label bits. Snapshots (`crate::persist`) write the
/// label and the flag through these accessors, never the packed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// Node kind per the Figure 2 schema.
    pub kind: NodeKind,
    /// Interned natural key — the IOC text (e.g. `"198.51.100.7"`).
    pub key: Sym,
    /// Bits 0..16: label value; bit 16: label present; bit 17: first
    /// order. Always mutate through the methods below.
    meta: u32,
}

const META_LABEL_MASK: u32 = 0xFFFF;
const META_HAS_LABEL: u32 = 1 << 16;
const META_FIRST_ORDER: u32 = 1 << 17;

impl NodeRecord {
    /// A fresh record: no label, not first-order.
    #[inline]
    pub fn new(kind: NodeKind, key: Sym) -> Self {
        Self { kind, key, meta: 0 }
    }

    /// APT label; only ever set on [`NodeKind::Event`] nodes.
    #[inline]
    pub fn label(&self) -> Option<LabelId> {
        (self.meta & META_HAS_LABEL != 0).then_some(LabelId((self.meta & META_LABEL_MASK) as u16))
    }

    /// True when the node appeared directly in some incident report.
    #[inline]
    pub fn first_order(&self) -> bool {
        self.meta & META_FIRST_ORDER != 0
    }

    #[inline]
    fn set_label(&mut self, label: LabelId) {
        self.meta =
            (self.meta & !(META_LABEL_MASK | META_HAS_LABEL)) | u32::from(label.0) | META_HAS_LABEL;
    }

    #[inline]
    fn mark_first_order(&mut self) {
        self.meta |= META_FIRST_ORDER;
    }
}

/// A directed, typed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Relation type per Table I.
    pub kind: EdgeKind,
}

/// Index of the out-list in a node's [`Lists`] and an edge's links.
const OUT: usize = 0;
/// Index of the in-list.
const IN: usize = 1;

/// One adjacency list of one node, threaded through the edge array:
/// its first and last edge (indices into `edges`) and its length. The
/// ends are meaningless while `len` is 0.
#[derive(Debug, Clone, Copy, Default)]
struct List {
    first: u32,
    last: u32,
    len: u32,
}

/// A node's out-list and in-list, indexed by [`OUT`] and [`IN`].
type Lists = [List; 2];

/// Mutable TKG store with key-deduplication and Table I schema checks.
///
/// Parallel edges of the same kind are rejected (idempotent insert), so
/// repeated enrichment of overlapping reports converges — the property
/// the paper relies on when merging 4,512 event subgraphs.
///
/// Every field is a flat array of `Copy` values (or a hash table of
/// them), so `clone` and `drop` cost a fixed number of allocations
/// however large the graph is: a publish copies the graph in a few
/// `memcpy`s. Adjacency is a linked list per node threaded through the
/// edge array: each node holds the ends of its out- and in-list, each
/// edge the next edge of its source's out-list and of its
/// destination's in-list. Appending an edge is O(1) and the lists keep
/// insertion order.
#[derive(Debug, Clone, Default)]
pub struct GraphStore {
    nodes: Vec<NodeRecord>,
    edges: Vec<Edge>,
    /// Key-text storage. Serialized as its string table only; the probe
    /// buckets are rebuilt by [`Self::rebuild_indices`].
    syms: Interner,
    key_index: HashMap<(NodeKind, Sym), NodeId>,
    edge_set: HashSet<(u32, u32, u8)>,
    /// Per node: the ends of its out- and in-list.
    lists: Vec<Lists>,
    /// Per edge: the next edge of its out-list and of its in-list
    /// (read only while the list's length says one follows).
    next: Vec<[u32; 2]>,
}

/// The neighbours of one node along one direction, in edge insertion
/// order: `(neighbour, edge kind)` pairs. Returned by
/// [`GraphStore::out_neighbors`] and [`GraphStore::in_neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    edges: &'a [Edge],
    next: &'a [[u32; 2]],
    dir: usize,
    at: u32,
    left: u32,
}

impl Iterator for Neighbors<'_> {
    type Item = (NodeId, EdgeKind);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let i = self.at as usize;
        let e = self.edges[i];
        self.left -= 1;
        if self.left > 0 {
            self.at = self.next[i][self.dir];
        }
        Some((if self.dir == OUT { e.dst } else { e.src }, e.kind))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl std::iter::FusedIterator for Neighbors<'_> {}

impl GraphStore {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with node capacity reserved.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            syms: Interner::with_capacity(nodes),
            key_index: HashMap::with_capacity(nodes),
            edge_set: HashSet::with_capacity(edges),
            lists: Vec::with_capacity(nodes),
            next: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (directed, deduplicated) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Insert the node if its `(kind, key)` is new, otherwise return the
    /// existing id. Never downgrades `first_order` (see [`Self::mark_first_order`]).
    pub fn upsert_node(&mut self, kind: NodeKind, key: &str) -> NodeId {
        self.upsert_node_full(kind, key).0
    }

    /// Like [`Self::upsert_node`], also reporting whether the node is
    /// new. The key text is interned at most once and the `Copy` symbol
    /// shared between the node record and the dedup index; lookups of
    /// known keys never allocate.
    pub fn upsert_node_full(&mut self, kind: NodeKind, key: &str) -> (NodeId, bool) {
        let sym = self.syms.intern(key);
        if let Some(&id) = self.key_index.get(&(kind, sym)) {
            return (id, false);
        }
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(NodeRecord::new(kind, sym));
        self.key_index.insert((kind, sym), id);
        self.lists.push(Lists::default());
        (id, true)
    }

    /// Look up a node id by kind and key text. Allocation-free: the key
    /// is probed through the interner as a borrow.
    pub fn find_node(&self, kind: NodeKind, key: &str) -> Option<NodeId> {
        let sym = self.syms.lookup(key)?;
        self.key_index.get(&(kind, sym)).copied()
    }

    /// Borrow a node record.
    pub fn node(&self, id: NodeId) -> &NodeRecord {
        &self.nodes[id.index()]
    }

    /// The key text of a node.
    #[inline]
    pub fn key(&self, id: NodeId) -> &str {
        self.syms.resolve(self.nodes[id.index()].key)
    }

    /// The text of an interned key symbol.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.syms.resolve(sym)
    }

    /// Set the APT label of an event node.
    pub fn set_label(&mut self, id: NodeId, label: LabelId) -> Result<()> {
        let rec = self
            .nodes
            .get_mut(id.index())
            .ok_or(GraphError::UnknownNode(id))?;
        rec.set_label(label);
        Ok(())
    }

    /// Mark a node as first-order (directly reported in an event).
    pub fn mark_first_order(&mut self, id: NodeId) {
        if let Some(rec) = self.nodes.get_mut(id.index()) {
            rec.mark_first_order();
        }
    }

    /// Add a typed edge; returns `Ok(false)` when the identical edge
    /// already exists. Rejects pairs Table I forbids.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> Result<bool> {
        let (sk, dk) = (
            self.nodes
                .get(src.index())
                .ok_or(GraphError::UnknownNode(src))?
                .kind,
            self.nodes
                .get(dst.index())
                .ok_or(GraphError::UnknownNode(dst))?
                .kind,
        );
        if !kind.allows(sk, dk) {
            return Err(GraphError::SchemaViolation {
                edge: kind,
                src: sk,
                dst: dk,
            });
        }
        if !self.edge_set.insert((src.0, dst.0, kind.index() as u8)) {
            return Ok(false);
        }
        self.edges.push(Edge { src, dst, kind });
        self.next.push([0; 2]);
        self.link(self.edges.len() - 1);
        Ok(true)
    }

    /// Append edge `e` to its source's out-list and its destination's
    /// in-list.
    fn link(&mut self, e: usize) {
        let Edge { src, dst, .. } = self.edges[e];
        let e = u32::try_from(e).expect("edge index overflows u32");
        for (dir, node) in [(OUT, src), (IN, dst)] {
            let list = &mut self.lists[node.index()][dir];
            if list.len == 0 {
                list.first = e;
            } else {
                self.next[list.last as usize][dir] = e;
            }
            list.last = e;
            list.len += 1;
        }
    }

    fn neighbors(&self, id: NodeId, dir: usize) -> Neighbors<'_> {
        let list = self.lists[id.index()][dir];
        Neighbors {
            edges: &self.edges,
            next: &self.next,
            dir,
            at: list.first,
            left: list.len,
        }
    }

    /// Out-neighbours of a node with edge kinds, in edge insertion
    /// order.
    pub fn out_neighbors(&self, id: NodeId) -> Neighbors<'_> {
        self.neighbors(id, OUT)
    }

    /// In-neighbours of a node with edge kinds, in edge insertion
    /// order.
    pub fn in_neighbors(&self, id: NodeId) -> Neighbors<'_> {
        self.neighbors(id, IN)
    }

    /// Undirected degree (in + out).
    pub fn degree(&self, id: NodeId) -> usize {
        let [out, inn] = self.lists[id.index()];
        out.len as usize + inn.len as usize
    }

    /// All node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == kind)
            .map(|(i, _)| NodeId::from(i))
            .collect()
    }

    /// Count of nodes per kind, indexed by [`NodeKind::index`].
    pub fn node_counts_by_kind(&self) -> [usize; 5] {
        let mut counts = [0; 5];
        for n in &self.nodes {
            counts[n.kind.index()] += 1;
        }
        counts
    }

    /// Count of edge endpoints touching each node kind (the per-kind
    /// "Edges" column of Table II counts an edge once per endpoint kind).
    pub fn edge_endpoint_counts_by_kind(&self) -> [usize; 5] {
        let mut counts = [0; 5];
        for e in &self.edges {
            counts[self.nodes[e.src.index()].kind.index()] += 1;
            counts[self.nodes[e.dst.index()].kind.index()] += 1;
        }
        counts
    }

    /// Iterate all edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterate all node records with ids.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &NodeRecord)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from(i), n))
    }

    /// Induced subgraph over `keep`. Returns the new graph and, for each
    /// old node id, its new id (or `None` if dropped). Used for the
    /// paper's first-order-only analysis (Section V).
    pub fn subgraph(
        &self,
        keep: impl Fn(NodeId, &NodeRecord) -> bool,
    ) -> (Self, Vec<Option<NodeId>>) {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut sub = GraphStore::new();
        for (id, rec) in self.iter_nodes() {
            if keep(id, rec) {
                let new_id = sub.upsert_node(rec.kind, self.syms.resolve(rec.key));
                if let Some(l) = rec.label() {
                    sub.set_label(new_id, l).expect("fresh node");
                }
                if rec.first_order() {
                    sub.mark_first_order(new_id);
                }
                mapping[id.index()] = Some(new_id);
            }
        }
        for e in &self.edges {
            if let (Some(s), Some(d)) = (mapping[e.src.index()], mapping[e.dst.index()]) {
                sub.add_edge(s, d, e.kind).expect("kinds preserved");
            }
        }
        (sub, mapping)
    }

    /// Rebuild the lookup indices and relink the adjacency lists in one
    /// pass over the edges (the indices are skipped in the snapshot to
    /// halve its size).
    pub fn rebuild_indices(&mut self) {
        self.syms.rebuild();
        self.key_index = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| ((n.kind, n.key), NodeId::from(i)))
            .collect();
        self.edge_set = self
            .edges
            .iter()
            .map(|e| (e.src.0, e.dst.0, e.kind.index() as u8))
            .collect();
        self.lists.clear();
        self.lists.resize(self.nodes.len(), Lists::default());
        self.next.clear();
        self.next.resize(self.edges.len(), [0; 2]);
        for e in 0..self.edges.len() {
            self.link(e);
        }
    }
}

pub use crate::ids::LabelId as Label;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (GraphStore, NodeId, NodeId, NodeId) {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "evt-1");
        let ip = g.upsert_node(NodeKind::Ip, "198.51.100.7");
        let d = g.upsert_node(NodeKind::Domain, "evil.example");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(ip, d, EdgeKind::ARecord).unwrap();
        (g, e, ip, d)
    }

    #[test]
    fn upsert_is_idempotent() {
        let mut g = GraphStore::new();
        let a = g.upsert_node(NodeKind::Ip, "198.51.100.7");
        let b = g.upsert_node(NodeKind::Ip, "198.51.100.7");
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        // Same key under a different kind is a different node sharing
        // one interned symbol.
        let c = g.upsert_node(NodeKind::Domain, "198.51.100.7");
        assert_ne!(a, c);
        assert_eq!(g.node(a).key, g.node(c).key);
        assert_eq!(g.key(a), "198.51.100.7");
        assert_eq!(g.key(c), "198.51.100.7");
    }

    #[test]
    fn upsert_full_reports_novelty() {
        let mut g = GraphStore::new();
        let (a, new_a) = g.upsert_node_full(NodeKind::Ip, "198.51.100.7");
        assert!(new_a);
        let (b, new_b) = g.upsert_node_full(NodeKind::Ip, "198.51.100.7");
        assert!(!new_b);
        assert_eq!(a, b);
        assert!(g.upsert_node_full(NodeKind::Domain, "198.51.100.7").1);
    }

    #[test]
    fn duplicate_edge_rejected_quietly() {
        let (mut g, e, ip, _) = tiny();
        assert!(!g.add_edge(e, ip, EdgeKind::InReport).unwrap());
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn schema_violation_is_an_error() {
        let (mut g, e, ip, _) = tiny();
        // IP -> Event is never allowed.
        let err = g.add_edge(ip, e, EdgeKind::InReport).unwrap_err();
        assert!(matches!(err, GraphError::SchemaViolation { .. }));
    }

    #[test]
    fn neighbors_and_degree() {
        let (g, e, ip, d) = tiny();
        assert_eq!(g.out_neighbors(e).len(), 2);
        assert_eq!(g.in_neighbors(d).len(), 2);
        assert_eq!(g.degree(ip), 2);
    }

    #[test]
    fn labels_and_first_order() {
        let (mut g, e, ip, _) = tiny();
        g.set_label(e, LabelId(3)).unwrap();
        g.mark_first_order(ip);
        assert_eq!(g.node(e).label(), Some(LabelId(3)));
        assert!(g.node(ip).first_order());
        // first_order survives label churn (independent meta bits).
        g.mark_first_order(e);
        g.set_label(e, LabelId(0xFFFF)).unwrap();
        assert_eq!(g.node(e).label(), Some(LabelId(0xFFFF)));
        assert!(g.node(e).first_order());

        // The packed word over the whole label domain, including the
        // max label value: label and flag read back independently.
        for label in [None, Some(LabelId(0)), Some(LabelId(0xFFFF))] {
            for first in [false, true] {
                let mut rec = NodeRecord::new(NodeKind::Event, g.node(e).key);
                if let Some(l) = label {
                    rec.set_label(l);
                }
                if first {
                    rec.mark_first_order();
                }
                assert_eq!(rec.label(), label);
                assert_eq!(rec.first_order(), first);
            }
        }
    }

    #[test]
    fn subgraph_drops_edges_to_removed_nodes() {
        let (g, _, ip, d) = tiny();
        let (sub, mapping) = g.subgraph(|_, n| n.kind != NodeKind::Event);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1); // only ip -> domain survives
        let new_ip = mapping[ip.index()].unwrap();
        let new_d = mapping[d.index()].unwrap();
        assert_eq!(
            sub.out_neighbors(new_ip).collect::<Vec<_>>(),
            [(new_d, EdgeKind::ARecord)]
        );
    }

    #[test]
    fn counts_by_kind() {
        let (g, ..) = tiny();
        let nodes = g.node_counts_by_kind();
        assert_eq!(nodes[NodeKind::Event.index()], 1);
        assert_eq!(nodes[NodeKind::Ip.index()], 1);
        assert_eq!(nodes[NodeKind::Domain.index()], 1);
    }

    #[test]
    fn rebuild_indices_restores_lookup() {
        let (mut g, _, ip, _) = tiny();
        g.rebuild_indices();
        assert_eq!(g.find_node(NodeKind::Ip, "198.51.100.7"), Some(ip));
        // Dedup still works post-rebuild.
        let before = g.edge_count();
        let e = g.find_node(NodeKind::Event, "evt-1").unwrap();
        assert!(!g.add_edge(e, ip, EdgeKind::InReport).unwrap());
        assert_eq!(g.edge_count(), before);
    }
}
