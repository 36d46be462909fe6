//! Frozen undirected CSR view for fast traversal and message passing.

use crate::ids::NodeId;
use crate::schema::EdgeKind;
use crate::store::GraphStore;

/// Narrow a u64-domain half-edge offset into the compact u32 layout.
///
/// Every degree/offset accumulation below runs in u64 and funnels
/// through this single checked cast, so a graph past the u32 ceiling
/// fails loudly at freeze/merge time instead of silently wrapping.
/// 2^32-1 half-edges ≈ 2.1 G undirected edges — two orders of
/// magnitude above the paper's full-scale TKG (7.9 M edges).
#[inline]
fn narrow_offset(acc: u64) -> u32 {
    u32::try_from(acc)
        .unwrap_or_else(|_| panic!("CSR half-edge count {acc} overflows the u32 offset domain"))
}

/// Compressed-sparse-row adjacency treating every edge as undirected,
/// which is how the paper traverses the TKG (label propagation and
/// GraphSAGE both use the symmetrised adjacency).
///
/// Offsets are `u32` — half the pointer-width layout this replaced
/// (see [`WideCsr`], kept as the measurement baseline). With 4-byte
/// `NodeId` targets the adjacency costs `4(n+1) + 5h` bytes instead
/// of `8(n+1) + 9h`, which is what makes freezing a paper-scale graph
/// (2.1 M nodes / 15.8 M half-edges) routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    kinds: Vec<EdgeKind>,
}

impl Csr {
    /// Build from a [`GraphStore`], symmetrising all edges.
    pub fn from_store(g: &GraphStore) -> Self {
        let _span = trail_obs::span("graph.csr_freeze");
        let n = g.node_count();
        let mut degrees = vec![0u64; n];
        for e in g.edges() {
            degrees[e.src.index()] += 1;
            degrees[e.dst.index()] += 1;
        }
        let (offsets, total) = prefix_offsets(&degrees);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); total];
        let mut kinds = vec![EdgeKind::InReport; total];
        for e in g.edges() {
            let s = e.src.index();
            let d = e.dst.index();
            targets[cursor[s] as usize] = e.dst;
            kinds[cursor[s] as usize] = e.kind;
            cursor[s] += 1;
            targets[cursor[d] as usize] = e.src;
            kinds[cursor[d] as usize] = e.kind;
            cursor[d] += 1;
        }
        Self {
            offsets,
            targets,
            kinds,
        }
    }

    /// Extend a frozen CSR with the edges appended to `g` since this
    /// CSR was built from it. The store only ever appends edges (and
    /// nodes), so `self`'s per-node runs are prefixes of the rebuilt
    /// adjacency: copying each frozen run and appending the delta
    /// half-edges in edge order reproduces [`Csr::from_store`]'s fill
    /// order — the result is **identical** to a full rebuild, at the
    /// cost of only the delta plus one memcpy.
    pub fn merge_appended(&self, g: &GraphStore) -> Self {
        let _span = trail_obs::span("graph.csr_merge");
        let old_n = self.node_count();
        let n = g.node_count();
        // The append-only contract this merge rests on: the store must
        // be a descendant of the store this CSR froze — at least as
        // many nodes, at least as many edges, and the frozen edges an
        // exact prefix. A store that shrank (or was swapped for an
        // unrelated one) would otherwise slice out of range or silently
        // interleave half-edges out of order; fail loudly instead.
        assert!(
            n >= old_n,
            "merge_appended: store has {n} nodes but the frozen CSR has {old_n} — \
             stores only grow, this store is not a descendant of the frozen one"
        );
        let old_edges = self.half_edge_count() / 2;
        assert!(
            old_edges <= g.edges().len(),
            "merge_appended: frozen CSR froze {old_edges} edges but the store holds only {} — \
             stores only append, this store is not a descendant of the frozen one",
            g.edges().len()
        );
        let delta = &g.edges()[old_edges..];
        let mut degrees = vec![0u64; n];
        for (v, d) in degrees.iter_mut().enumerate().take(old_n) {
            *d = u64::from(self.offsets[v + 1] - self.offsets[v]);
        }
        for e in delta {
            degrees[e.src.index()] += 1;
            degrees[e.dst.index()] += 1;
        }
        let (offsets, total) = prefix_offsets(&degrees);
        let mut targets = vec![NodeId(0); total];
        let mut kinds = vec![EdgeKind::InReport; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (v, cur) in cursor[..old_n].iter_mut().enumerate() {
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            let at = *cur as usize;
            targets[at..at + (hi - lo)].copy_from_slice(&self.targets[lo..hi]);
            kinds[at..at + (hi - lo)].copy_from_slice(&self.kinds[lo..hi]);
            *cur = narrow_offset((at + (hi - lo)) as u64);
        }
        for e in delta {
            let s = e.src.index();
            let d = e.dst.index();
            targets[cursor[s] as usize] = e.dst;
            kinds[cursor[s] as usize] = e.kind;
            cursor[s] += 1;
            targets[cursor[d] as usize] = e.src;
            kinds[cursor[d] as usize] = e.kind;
            cursor[d] += 1;
        }
        Self {
            offsets,
            targets,
            kinds,
        }
    }

    /// Build from an explicit undirected edge list over `n` nodes,
    /// symmetrising exactly like [`Csr::from_store`] (each edge yields
    /// two half-edges in edge order). The serving layer uses this to
    /// freeze an induced ego-subgraph — a handful of locally re-indexed
    /// nodes — without materialising a whole `GraphStore` per query.
    pub fn from_edge_list(n: usize, edges: &[(NodeId, NodeId, EdgeKind)]) -> Self {
        let mut degrees = vec![0u64; n];
        for &(src, dst, _) in edges {
            degrees[src.index()] += 1;
            degrees[dst.index()] += 1;
        }
        let (offsets, total) = prefix_offsets(&degrees);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NodeId(0); total];
        let mut kinds = vec![EdgeKind::InReport; total];
        for &(src, dst, kind) in edges {
            let s = src.index();
            let d = dst.index();
            targets[cursor[s] as usize] = dst;
            kinds[cursor[s] as usize] = kind;
            cursor[s] += 1;
            targets[cursor[d] as usize] = src;
            kinds[cursor[d] as usize] = kind;
            cursor[d] += 1;
        }
        Self {
            offsets,
            targets,
            kinds,
        }
    }

    /// The subgraph induced by `members`, re-indexed so that member `i`
    /// is local node `i`; `local[g]` is global node `g`'s local id, or
    /// `u32::MAX` when `g` is not a member. Each local row is the
    /// member's full row with non-members dropped, **in this CSR's
    /// neighbour order** — unlike [`Csr::from_edge_list`], which refills
    /// rows in edge-list order. Keeping the order keeps every mean over
    /// a complete row bitwise equal to the full graph's.
    pub fn induced(&self, members: &[NodeId], local: &[u32]) -> Self {
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut targets = Vec::new();
        let mut kinds = Vec::new();
        offsets.push(0u32);
        for &g in members {
            for (v, kind) in self.neighbors_with_kinds(g) {
                let l = local[v.index()];
                if l != u32::MAX {
                    targets.push(NodeId(l));
                    kinds.push(kind);
                }
            }
            offsets.push(narrow_offset(targets.len() as u64));
        }
        Self {
            offsets,
            targets,
            kinds,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed half-edges (2x the undirected edge count).
    #[inline]
    pub fn half_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Undirected degree of a node.
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        (self.offsets[id.index() + 1] - self.offsets[id.index()]) as usize
    }

    /// Neighbours of a node.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.targets[self.slots(id)]
    }

    /// The half-edge slots of a node's row: `neighbors(id)[i]` is slot
    /// `slots(id).start + i`, in `0..half_edge_count()`. Per-half-edge
    /// data (edge weights, edge masks) is indexed by slot.
    #[inline]
    pub fn slots(&self, id: NodeId) -> std::ops::Range<usize> {
        self.offsets[id.index()] as usize..self.offsets[id.index() + 1] as usize
    }

    /// Neighbours of a node with the edge kind of each incident edge.
    pub fn neighbors_with_kinds(
        &self,
        id: NodeId,
    ) -> impl Iterator<Item = (NodeId, EdgeKind)> + '_ {
        let r = self.slots(id);
        self.targets[r.clone()]
            .iter()
            .copied()
            .zip(self.kinds[r].iter().copied())
    }

    /// Heap bytes held by the adjacency arrays (offsets + targets +
    /// kinds) — the number the `scale-bench` bytes/node gate measures.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.kinds.len() * std::mem::size_of::<EdgeKind>()
    }
}

/// Prefix-sum `degrees` (u64 domain) into u32 offsets, returning the
/// offsets and the checked total half-edge count.
fn prefix_offsets(degrees: &[u64]) -> (Vec<u32>, usize) {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0u64;
    offsets.push(0u32);
    for d in degrees {
        acc += d;
        offsets.push(narrow_offset(acc));
    }
    (offsets, acc as usize)
}

/// The pointer-width CSR layout the compact [`Csr`] replaced: `usize`
/// offsets *and* `usize` targets. Kept for two jobs — the measured
/// bytes/node baseline the `scale-bench` ≥40% memory claim is gated
/// against, and the oracle of the compact-CSR equivalence suite
/// (identical fill order, so the two layouts must agree element for
/// element on every graph and every merge chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideCsr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
    kinds: Vec<EdgeKind>,
}

impl WideCsr {
    /// Build from a [`GraphStore`], mirroring [`Csr::from_store`]'s
    /// fill order exactly.
    pub fn from_store(g: &GraphStore) -> Self {
        let n = g.node_count();
        let mut degrees = vec![0usize; n];
        for e in g.edges() {
            degrees[e.src.index()] += 1;
            degrees[e.dst.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; acc];
        let mut kinds = vec![EdgeKind::InReport; acc];
        for e in g.edges() {
            let s = e.src.index();
            let d = e.dst.index();
            targets[cursor[s]] = e.dst.index();
            kinds[cursor[s]] = e.kind;
            cursor[s] += 1;
            targets[cursor[d]] = e.src.index();
            kinds[cursor[d]] = e.kind;
            cursor[d] += 1;
        }
        Self {
            offsets,
            targets,
            kinds,
        }
    }

    /// Mirror of [`Csr::merge_appended`] on the wide layout, for
    /// chain-equivalence tests.
    pub fn merge_appended(&self, g: &GraphStore) -> Self {
        let old_n = self.node_count();
        let n = g.node_count();
        assert!(
            n >= old_n,
            "merge_appended: store is not a descendant of the frozen one"
        );
        let old_edges = self.targets.len() / 2;
        assert!(
            old_edges <= g.edges().len(),
            "merge_appended: store is not a descendant of the frozen one"
        );
        let delta = &g.edges()[old_edges..];
        let mut degrees = vec![0usize; n];
        for (v, d) in degrees.iter_mut().enumerate().take(old_n) {
            *d = self.offsets[v + 1] - self.offsets[v];
        }
        for e in delta {
            degrees[e.src.index()] += 1;
            degrees[e.dst.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![0usize; acc];
        let mut kinds = vec![EdgeKind::InReport; acc];
        let mut cursor = offsets[..n].to_vec();
        for (v, cur) in cursor[..old_n].iter_mut().enumerate() {
            let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
            let at = *cur;
            targets[at..at + (hi - lo)].copy_from_slice(&self.targets[lo..hi]);
            kinds[at..at + (hi - lo)].copy_from_slice(&self.kinds[lo..hi]);
            *cur = at + (hi - lo);
        }
        for e in delta {
            let s = e.src.index();
            let d = e.dst.index();
            targets[cursor[s]] = e.dst.index();
            kinds[cursor[s]] = e.kind;
            cursor[s] += 1;
            targets[cursor[d]] = e.src.index();
            kinds[cursor[d]] = e.kind;
            cursor[d] += 1;
        }
        Self {
            offsets,
            targets,
            kinds,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed half-edges.
    #[inline]
    pub fn half_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Undirected degree of a node.
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        self.offsets[id.index() + 1] - self.offsets[id.index()]
    }

    /// Neighbours of a node.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.targets[self.offsets[id.index()]..self.offsets[id.index() + 1]]
            .iter()
            .map(|&t| NodeId::from(t))
    }

    /// Heap bytes held by the adjacency arrays.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<usize>()
            + self.kinds.len() * std::mem::size_of::<EdgeKind>()
    }

    /// Element-for-element structural agreement with the compact
    /// layout: identical offsets, targets and kinds.
    pub fn agrees_with(&self, compact: &Csr) -> bool {
        self.node_count() == compact.node_count()
            && self.half_edge_count() == compact.half_edge_count()
            && (0..self.node_count()).map(NodeId::from).all(|v| {
                self.neighbors(v).eq(compact.neighbors(v).iter().copied())
                    && self.offsets[v.index()] == compact.offsets[v.index()] as usize
                    && compact
                        .neighbors_with_kinds(v)
                        .map(|(_, k)| k)
                        .eq(
                            self.kinds[self.offsets[v.index()]..self.offsets[v.index() + 1]]
                                .iter()
                                .copied(),
                        )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::NodeKind;

    #[test]
    fn csr_matches_store_adjacency() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        let d = g.upsert_node(NodeKind::Domain, "d");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(ip, d, EdgeKind::ARecord).unwrap();

        let csr = Csr::from_store(&g);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.half_edge_count(), 6);
        assert_eq!(csr.degree(e), 2);
        assert_eq!(csr.degree(d), 2);
        let mut n: Vec<_> = csr.neighbors(d).to_vec();
        n.sort();
        assert_eq!(n, vec![e, ip]);
        let kinds: Vec<_> = csr.neighbors_with_kinds(ip).collect();
        assert!(kinds.contains(&(e, EdgeKind::InReport)));
        assert!(kinds.contains(&(d, EdgeKind::ARecord)));
    }

    #[test]
    fn merge_appended_equals_full_rebuild() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let frozen = Csr::from_store(&g);

        // Grow the store: new nodes (one isolated), edges touching both
        // old and new nodes.
        let d = g.upsert_node(NodeKind::Domain, "d");
        let _lonely = g.upsert_node(NodeKind::Asn, "AS7");
        let e2 = g.upsert_node(NodeKind::Event, "e2");
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(ip, d, EdgeKind::ARecord).unwrap();
        g.add_edge(e2, d, EdgeKind::InReport).unwrap();

        assert_eq!(frozen.merge_appended(&g), Csr::from_store(&g));
    }

    #[test]
    fn merge_appended_with_no_delta_is_identity() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let frozen = Csr::from_store(&g);
        assert_eq!(frozen.merge_appended(&g), frozen);
    }

    #[test]
    fn chained_merges_track_a_growing_store() {
        let mut g = GraphStore::new();
        let mut csr = Csr::from_store(&g);
        let hub = {
            let id = g.upsert_node(NodeKind::Ip, "hub");
            csr = csr.merge_appended(&g);
            id
        };
        for step in 0..5 {
            let e = g.upsert_node(NodeKind::Event, &format!("e{step}"));
            g.add_edge(e, hub, EdgeKind::InReport).unwrap();
            csr = csr.merge_appended(&g);
            assert_eq!(csr, Csr::from_store(&g), "diverged at step {step}");
        }
        assert_eq!(csr.degree(hub), 5);
    }

    // --- merge_appended audit: adversarial delta shapes -------------------
    //
    // The streaming runtime delta-merges after *every* tick, so the
    // merge must stay byte-identical to a full rebuild for every delta
    // shape ingestion can produce — especially deltas that only
    // re-touch existing nodes, where a fill-order slip would reorder
    // half-edges without changing any degree.

    #[test]
    fn delta_touching_only_existing_nodes_matches_rebuild() {
        // No new nodes at all: the delta densifies the frozen graph.
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        let d = g.upsert_node(NodeKind::Domain, "d");
        let u = g.upsert_node(NodeKind::Url, "http://a.example/x");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let frozen = Csr::from_store(&g);

        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(d, ip, EdgeKind::DomainResolvesTo).unwrap();
        g.add_edge(u, d, EdgeKind::HostedOn).unwrap();
        g.add_edge(u, ip, EdgeKind::UrlResolvesTo).unwrap();
        assert_eq!(g.node_count(), frozen.node_count(), "delta added no nodes");
        assert_eq!(frozen.merge_appended(&g), Csr::from_store(&g));
    }

    #[test]
    fn duplicate_edge_is_suppressed_and_degrees_do_not_drift() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let frozen = Csr::from_store(&g);

        // Re-adding the identical directed edge is suppressed by the
        // store, so the merged CSR must be the frozen identity.
        assert!(!g.add_edge(e, ip, EdgeKind::InReport).unwrap());
        let merged = frozen.merge_appended(&g);
        assert_eq!(merged, frozen);
        assert_eq!(merged.degree(e), 1);
        assert_eq!(merged.degree(ip), 1);
    }

    #[test]
    fn duplicate_undirected_edges_are_structurally_excluded() {
        // Audit result: a duplicate *undirected* edge would need either
        // (a) the same directed (src, dst, kind) twice — suppressed by
        // the store's edge set — or (b) the reversed pair (dst, src,
        // kind) — but every Table I row has distinct endpoint kinds, so
        // the reversal is a schema violation. Between them, no delta
        // can ever inflate an undirected degree with a duplicate, which
        // is the precondition the streaming runtime's repeated merges
        // rely on.
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let frozen = Csr::from_store(&g);

        assert!(
            g.add_edge(ip, e, EdgeKind::InReport).is_err(),
            "reversed InReport should be a schema violation, not a second edge"
        );
        let merged = frozen.merge_appended(&g);
        assert_eq!(
            merged, frozen,
            "rejected duplicate must leave the CSR untouched"
        );
        assert_eq!(merged.degree(e), 1);
        assert_eq!(merged.degree(ip), 1);
    }

    #[test]
    fn hub_retouched_across_chained_merges_keeps_run_order() {
        // A hub re-touched by every delta: its adjacency run must grow
        // strictly in edge order across merges (frozen prefix + delta
        // suffix), which `PartialEq` against the rebuild pins including
        // half-edge order, not just the degree multiset.
        let mut g = GraphStore::new();
        let hub = g.upsert_node(NodeKind::Ip, "hub");
        let first = g.upsert_node(NodeKind::Event, "e0");
        g.add_edge(first, hub, EdgeKind::InReport).unwrap();
        let mut csr = Csr::from_store(&g);
        for step in 0..6 {
            // Each delta interleaves: one brand-new event -> hub edge,
            // one old-old densification edge every other step.
            let e = g.upsert_node(NodeKind::Event, &format!("n{step}"));
            g.add_edge(e, hub, EdgeKind::InReport).unwrap();
            if step % 2 == 1 {
                let d = g.upsert_node(NodeKind::Domain, &format!("d{step}"));
                g.add_edge(d, hub, EdgeKind::DomainResolvesTo).unwrap();
                g.add_edge(e, d, EdgeKind::InReport).unwrap();
            }
            csr = csr.merge_appended(&g);
            let rebuilt = Csr::from_store(&g);
            assert_eq!(
                csr, rebuilt,
                "merged CSR diverged from rebuild at step {step}"
            );
            assert_eq!(csr.degree(hub), rebuilt.degree(hub), "hub degree drifted");
        }
    }

    #[test]
    fn node_only_then_edge_only_deltas_merge_exactly() {
        // Deltas that add nodes but no edges (isolated enrichment
        // results) followed by deltas that add edges but no nodes.
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let mut csr = Csr::from_store(&g);

        let d = g.upsert_node(NodeKind::Domain, "d");
        let _asn = g.upsert_node(NodeKind::Asn, "AS1");
        csr = csr.merge_appended(&g);
        assert_eq!(csr, Csr::from_store(&g), "node-only delta diverged");

        g.add_edge(d, ip, EdgeKind::DomainResolvesTo).unwrap();
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        csr = csr.merge_appended(&g);
        assert_eq!(csr, Csr::from_store(&g), "edge-only delta diverged");
    }

    #[test]
    fn randomized_growth_soak_matches_rebuild_at_every_snapshot() {
        // Deterministic LCG-driven growth: random mixture of new nodes,
        // new-old edges, old-old edges and parallel kinds, merged after
        // every step and compared byte-for-byte against a rebuild.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let mut g = GraphStore::new();
        let e0 = g.upsert_node(NodeKind::Event, "seed-event");
        let i0 = g.upsert_node(NodeKind::Ip, "seed-ip");
        let d0 = g.upsert_node(NodeKind::Domain, "seed-domain");
        g.add_edge(e0, i0, EdgeKind::InReport).unwrap();
        let mut events = vec![e0];
        let mut ips = vec![i0];
        let mut domains = vec![d0];
        let mut csr = Csr::from_store(&g);
        for step in 0..48 {
            match next(5) {
                0 => events.push(g.upsert_node(NodeKind::Event, &format!("ev{step}"))),
                1 => ips.push(g.upsert_node(NodeKind::Ip, &format!("ip{step}"))),
                2 => domains.push(g.upsert_node(NodeKind::Domain, &format!("dm{step}"))),
                3 => {
                    let e = events[next(events.len())];
                    let i = ips[next(ips.len())];
                    // Duplicate attempts return Ok(false); both paths fine.
                    g.add_edge(e, i, EdgeKind::InReport).unwrap();
                }
                _ => {
                    let d = domains[next(domains.len())];
                    let i = ips[next(ips.len())];
                    g.add_edge(d, i, EdgeKind::DomainResolvesTo).unwrap();
                }
            }
            csr = csr.merge_appended(&g);
            assert_eq!(csr, Csr::from_store(&g), "soak diverged at step {step}");
        }
        assert!(
            g.edge_count() > 10,
            "soak grew too few edges to be meaningful"
        );
    }

    #[test]
    #[should_panic(expected = "not a descendant")]
    fn merging_against_a_shrunk_store_fails_loudly() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let frozen = Csr::from_store(&g);
        // A fresh, unrelated (smaller) store is not a descendant.
        let other = GraphStore::new();
        let _ = frozen.merge_appended(&other);
    }

    #[test]
    fn from_edge_list_matches_from_store() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        let d = g.upsert_node(NodeKind::Domain, "d");
        let _lonely = g.upsert_node(NodeKind::Asn, "AS7");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(ip, d, EdgeKind::ARecord).unwrap();
        let edges: Vec<_> = g.edges().iter().map(|e| (e.src, e.dst, e.kind)).collect();
        assert_eq!(
            Csr::from_edge_list(g.node_count(), &edges),
            Csr::from_store(&g)
        );
    }

    #[test]
    fn from_edge_list_empty_and_isolated() {
        let csr = Csr::from_edge_list(3, &[]);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.half_edge_count(), 0);
        assert!(csr.neighbors(NodeId(1)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_store(&GraphStore::new());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.half_edge_count(), 0);
    }

    #[test]
    fn isolated_node_has_empty_neighbor_slice() {
        let mut g = GraphStore::new();
        let a = g.upsert_node(NodeKind::Asn, "AS1");
        let csr = Csr::from_store(&g);
        assert_eq!(csr.degree(a), 0);
        assert!(csr.neighbors(a).is_empty());
        assert_eq!(csr.neighbors_with_kinds(a).count(), 0);
    }

    #[test]
    fn parallel_edges_of_different_kinds_both_appear() {
        let mut g = GraphStore::new();
        let u = g.upsert_node(NodeKind::Url, "http://a.example/x");
        let ip = g.upsert_node(NodeKind::Ip, "1.1.1.1");
        let d = g.upsert_node(NodeKind::Domain, "a.example");
        g.add_edge(u, ip, EdgeKind::UrlResolvesTo).unwrap();
        g.add_edge(u, d, EdgeKind::HostedOn).unwrap();
        g.add_edge(d, ip, EdgeKind::DomainResolvesTo).unwrap();
        let csr = Csr::from_store(&g);
        let kinds: Vec<EdgeKind> = csr.neighbors_with_kinds(u).map(|(_, k)| k).collect();
        assert!(kinds.contains(&EdgeKind::UrlResolvesTo));
        assert!(kinds.contains(&EdgeKind::HostedOn));
    }

    // --- u32-domain discipline (satellite: usize-truncation audit) --------

    #[test]
    fn offset_narrowing_admits_the_full_u32_domain() {
        // The exact boundary value must pass; one past it must not.
        assert_eq!(narrow_offset(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(narrow_offset(0), 0);
    }

    #[test]
    #[should_panic(expected = "overflows the u32 offset domain")]
    fn offset_narrowing_panics_one_past_the_u32_boundary() {
        let _ = narrow_offset(u64::from(u32::MAX) + 1);
    }

    #[test]
    fn prefix_offsets_accumulate_in_u64_before_the_cast() {
        // Degrees that individually fit u32 but whose running sum must
        // be carried in u64 to reach the checked cast (rather than
        // wrapping silently mid-sum).
        let half = u64::from(u32::MAX / 2);
        let (offsets, total) = prefix_offsets(&[half, half, 1]);
        assert_eq!(offsets, vec![0, half as u32, (2 * half) as u32, u32::MAX]);
        assert_eq!(total as u64, u64::from(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 offset domain")]
    fn prefix_offsets_reject_totals_past_u32() {
        let half = u64::from(u32::MAX / 2);
        let _ = prefix_offsets(&[half, half, 2]);
    }

    #[test]
    fn wide_csr_agrees_with_compact_on_build_and_merge_chain() {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "i");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        let mut compact = Csr::from_store(&g);
        let mut wide = WideCsr::from_store(&g);
        assert!(wide.agrees_with(&compact));
        for step in 0..4 {
            let d = g.upsert_node(NodeKind::Domain, &format!("d{step}"));
            g.add_edge(d, ip, EdgeKind::DomainResolvesTo).unwrap();
            g.add_edge(e, d, EdgeKind::InReport).unwrap();
            compact = compact.merge_appended(&g);
            wide = wide.merge_appended(&g);
            assert!(
                wide.agrees_with(&compact),
                "layouts diverged at step {step}"
            );
        }
        assert!(
            wide.heap_bytes() > compact.heap_bytes(),
            "compact layout must be smaller"
        );
    }
}
