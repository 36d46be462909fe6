//! The k-hop ball around a root set: the one extractor of a
//! neighbourhood in the workspace.
//!
//! An L-layer mean-aggregation GraphSAGE reads nothing beyond the L-hop
//! ball of the nodes it is asked about: every member closer than L hops
//! keeps all of its neighbours, so its mean and its degree are the
//! full graph's. [`Ball`] lists that ball's members in ascending global
//! id with their hops and a global→local table; [`Ball::induced`]
//! builds the subgraph with every row in full-graph neighbour order, so
//! a model run on it reproduces the full-graph pass at the roots bit
//! for bit (DESIGN.md §10). The ego-nets of Fig. 3, the case study's
//! neighbourhood counts and the SAGE and label-propagation row sets
//! read the same ball.

use crate::csr::Csr;
use crate::ids::NodeId;

/// Local id of a node outside the ball in its global→local table
/// ([`Ball::into_parts`]).
pub const NOT_A_MEMBER: u32 = u32::MAX;

/// Every node within `k` hops of a root set.
#[derive(Debug, Clone)]
pub struct Ball {
    members: Vec<NodeId>,
    hops: Vec<u32>,
    /// Global id → local id, [`NOT_A_MEMBER`] outside the ball.
    local: Vec<u32>,
}

impl Ball {
    /// The `k`-hop ball of `roots` in `csr`. Duplicate roots count
    /// once; no roots give an empty ball.
    ///
    /// One BFS keeps each visited node's hop in the global→local table
    /// itself, so the table is the only graph-sized allocation; one
    /// scan of it then lists the members in ascending id and turns
    /// their hops into local ids.
    pub fn new(csr: &Csr, roots: &[NodeId], k: u32) -> Self {
        let _span = trail_obs::span("graph.ball");
        let mut local = vec![NOT_A_MEMBER; csr.node_count()];
        let mut queue: Vec<NodeId> = Vec::new();
        for &r in roots {
            if local[r.index()] == NOT_A_MEMBER {
                local[r.index()] = 0;
                queue.push(r);
            }
        }
        // Hops never decrease along the queue.
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            let hop = local[u.index()];
            if hop == k {
                break;
            }
            head += 1;
            for &v in csr.neighbors(u) {
                if local[v.index()] == NOT_A_MEMBER {
                    local[v.index()] = hop + 1;
                    queue.push(v);
                }
            }
        }
        let mut members = Vec::with_capacity(queue.len());
        let mut hops = Vec::with_capacity(queue.len());
        for (v, slot) in local.iter_mut().enumerate() {
            if *slot != NOT_A_MEMBER {
                hops.push(*slot);
                *slot = members.len() as u32;
                members.push(NodeId::from(v));
            }
        }
        Self {
            members,
            hops,
            local,
        }
    }

    /// Members in ascending global id; member `i` is local node `i`.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Each member's hop: its BFS distance to the nearest root.
    pub fn hops(&self) -> &[u32] {
        &self.hops
    }

    /// Take the ball apart into its members, their hops and its
    /// global→local table (one entry per node of the graph the ball was
    /// taken from).
    pub fn into_parts(self) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
        (self.members, self.hops, self.local)
    }

    /// The subgraph the members induce in `csr` (the graph the ball was
    /// taken from), over local ids: each member's row in full-graph
    /// neighbour order with non-members dropped (see [`Csr::induced`]).
    pub fn induced(&self, csr: &Csr) -> Csr {
        csr.induced(&self.members, &self.local)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ball has no members (no roots were given).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The local id of global node `id`, or `None` outside the ball.
    pub fn local(&self, id: NodeId) -> Option<NodeId> {
        match self.local.get(id.index()) {
            Some(&l) if l != NOT_A_MEMBER => Some(NodeId(l)),
            _ => None,
        }
    }

    /// Map `(global node, label)` pairs of members to local ids.
    ///
    /// # Panics
    /// If a node is not a member.
    pub fn localise<T: Copy>(&self, pairs: &[(NodeId, T)]) -> Vec<(NodeId, T)> {
        pairs
            .iter()
            .map(|&(id, t)| (self.local(id).expect("node outside the ball"), t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bfs::{bfs_distances, UNREACHABLE};
    use crate::schema::EdgeKind;

    /// A random multigraph on `n` nodes (self-loops, parallel edges and
    /// isolates all occur) from a small LCG, so the tests need no RNG.
    fn random_csr(seed: u64, n: usize, m: usize) -> Csr {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as usize) % bound
        };
        // Leave the top quarter of the ids edge-free: isolates.
        let span = (n * 3 / 4).max(1);
        let edges: Vec<(NodeId, NodeId, EdgeKind)> = (0..m)
            .map(|_| {
                (
                    NodeId::from(next(span)),
                    NodeId::from(next(span)),
                    EdgeKind::InReport,
                )
            })
            .collect();
        Csr::from_edge_list(n, &edges)
    }

    /// Minimum BFS distance from any root.
    fn nearest_root(csr: &Csr, roots: &[NodeId]) -> Vec<u32> {
        let mut best = vec![UNREACHABLE; csr.node_count()];
        for &r in roots {
            for (b, d) in best.iter_mut().zip(bfs_distances(csr, r)) {
                *b = (*b).min(d);
            }
        }
        best
    }

    fn check(csr: &Csr, roots: &[NodeId], k: u32) {
        let ball = Ball::new(csr, roots, k);
        assert!(
            ball.members.windows(2).all(|w| w[0] < w[1]),
            "members not ascending"
        );
        assert_eq!(ball.hops.len(), ball.len());
        let sub = ball.induced(csr);
        assert_eq!(sub.node_count(), ball.len());

        let dist = nearest_root(csr, roots);
        let expected: Vec<NodeId> = (0..csr.node_count())
            .filter(|&v| dist[v] <= k)
            .map(NodeId::from)
            .collect();
        assert_eq!(ball.members, expected, "membership is not the k-hop set");
        for (i, (&g, &hop)) in ball.members.iter().zip(&ball.hops).enumerate() {
            assert_eq!(hop, dist[g.index()], "hop of {g:?} is not its BFS distance");
            assert!(hop <= k);
            assert_eq!(ball.local(g), Some(NodeId::from(i)));
            let local_row: Vec<(NodeId, EdgeKind)> =
                sub.neighbors_with_kinds(NodeId::from(i)).collect();
            let mapped: Vec<(NodeId, EdgeKind)> = csr
                .neighbors_with_kinds(g)
                .filter_map(|(v, kind)| ball.local(v).map(|l| (l, kind)))
                .collect();
            assert_eq!(
                local_row, mapped,
                "row of {g:?} is not the full row, non-members dropped"
            );
            if hop < k {
                assert_eq!(
                    sub.degree(NodeId::from(i)),
                    csr.degree(g),
                    "interior row lost edges"
                );
            }
        }
        for (v, &d) in dist.iter().enumerate() {
            if d > k {
                assert_eq!(ball.local(NodeId::from(v)), None);
            }
        }
        // Symmetric: u lists v exactly as often as v lists u.
        for u in 0..ball.len() {
            let u = NodeId::from(u);
            for &v in sub.neighbors(u) {
                let uv = sub.neighbors(u).iter().filter(|&&w| w == v).count();
                let vu = sub.neighbors(v).iter().filter(|&&w| w == u).count();
                assert_eq!(uv, vu, "induced CSR is not symmetric at {u:?}-{v:?}");
            }
        }
    }

    #[test]
    fn ball_matches_bfs_and_full_rows_on_random_multigraphs() {
        for seed in 0..40u64 {
            let n = 5 + (seed as usize * 7) % 30;
            let csr = random_csr(seed, n, n * 2);
            let roots: Vec<NodeId> = (0..1 + seed as usize % 4)
                .map(|i| NodeId::from((i * 5 + seed as usize) % n))
                .collect();
            for k in 0..4 {
                check(&csr, &roots, k);
            }
        }
    }

    #[test]
    fn zero_radius_is_the_roots_and_their_mutual_edges() {
        let csr = random_csr(3, 12, 30);
        let roots = [NodeId(4), NodeId(1), NodeId(7)];
        let ball = Ball::new(&csr, &roots, 0);
        assert_eq!(ball.members, vec![NodeId(1), NodeId(4), NodeId(7)]);
        assert!(ball.hops.iter().all(|&h| h == 0));
        check(&csr, &roots, 0);
    }

    #[test]
    fn duplicate_roots_count_once() {
        let csr = random_csr(5, 16, 24);
        let once = Ball::new(&csr, &[NodeId(2), NodeId(9)], 2);
        let twice = Ball::new(&csr, &[NodeId(9), NodeId(2), NodeId(2), NodeId(9)], 2);
        assert_eq!(once.members, twice.members);
        assert_eq!(once.hops, twice.hops);
        assert_eq!(once.induced(&csr), twice.induced(&csr));
        check(&csr, &[NodeId(9), NodeId(2), NodeId(2)], 2);
    }

    #[test]
    fn no_roots_give_an_empty_ball() {
        let csr = random_csr(7, 10, 15);
        let ball = Ball::new(&csr, &[], 3);
        assert!(ball.is_empty());
        let sub = ball.induced(&csr);
        assert_eq!(sub.node_count(), 0);
        assert_eq!(sub.half_edge_count(), 0);
        assert_eq!(ball.local(NodeId(0)), None);
    }

    #[test]
    fn induced_keeps_full_graph_order_where_from_edge_list_would_not() {
        // Node 0's row in full-graph order is [3, 1, 2]; rebuilding the
        // ball from an ascending edge list would yield [1, 2, 3].
        let e = |a: u32, b: u32| (NodeId(a), NodeId(b), EdgeKind::InReport);
        let csr = Csr::from_edge_list(5, &[e(0, 3), e(1, 0), e(0, 2), e(3, 4)]);
        let ball = Ball::new(&csr, &[NodeId(0)], 1);
        let sub = ball.induced(&csr);
        assert_eq!(
            ball.members,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(sub.neighbors(NodeId(0)), &[NodeId(3), NodeId(1), NodeId(2)]);
        // Node 3 sits on the rim: its edge to 4 leaves the ball.
        assert_eq!(sub.neighbors(NodeId(3)), &[NodeId(0)]);
        assert_eq!(ball.local(NodeId(4)), None);
    }

    /// Fig. 3's ego-net read through the ball: per-kind member counts
    /// at radius 1 and 2, and the induced subgraph keeps the
    /// alter–alter edge.
    #[test]
    fn egonet_counts_and_induced_edges() {
        use crate::schema::NodeKind;
        use crate::store::GraphStore;

        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "1.1.1.1");
        let d = g.upsert_node(NodeKind::Domain, "a.example");
        let d_far = g.upsert_node(NodeKind::Domain, "far.example");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(ip, d, EdgeKind::ARecord).unwrap(); // alter-alter edge
        g.add_edge(ip, d_far, EdgeKind::ARecord).unwrap(); // 2 hops from ego
        let csr = Csr::from_store(&g);
        let of_kind = |ball: &Ball, kind: NodeKind| {
            ball.members()
                .iter()
                .filter(|&&id| g.node(id).kind == kind)
                .count()
        };

        let net1 = Ball::new(&csr, &[e], 1);
        assert_eq!(net1.len(), 3);
        // The induced subgraph keeps the alter-alter A-record edge:
        // three edges, two half-edges each.
        assert_eq!(net1.induced(&csr).half_edge_count(), 2 * 3);
        assert_eq!(of_kind(&net1, NodeKind::Ip), 1);
        assert_eq!(of_kind(&net1, NodeKind::Domain), 1);

        let net2 = Ball::new(&csr, &[e], 2);
        assert_eq!(net2.len(), 4);
        assert_eq!(net2.induced(&csr).half_edge_count(), 2 * 4);
        assert_eq!(of_kind(&net2, NodeKind::Domain), 2);
    }
}
