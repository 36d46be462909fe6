//! Breadth-first traversals: distances, k-hop neighbourhoods and a
//! double-sweep diameter estimate.

use std::collections::VecDeque;

use crate::csr::Csr;
use crate::ids::NodeId;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `source` over the undirected CSR.
/// Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(csr: &Csr, source: NodeId) -> Vec<u32> {
    let _span = trail_obs::span("graph.bfs");
    let mut dist = vec![UNREACHABLE; csr.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in csr.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All nodes within `k` hops of any root (roots included at distance 0).
/// Returns `(node, distance)` pairs in BFS order. The library reads
/// neighbourhoods through [`Ball`](super::Ball); this listing is the
/// independent reference the tests hold it to.
pub fn k_hop(csr: &Csr, roots: &[NodeId], k: u32) -> Vec<(NodeId, u32)> {
    let _span = trail_obs::span("graph.k_hop");
    let mut dist = vec![UNREACHABLE; csr.node_count()];
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    for &r in roots {
        if dist[r.index()] == UNREACHABLE {
            dist[r.index()] = 0;
            queue.push_back(r);
            out.push((r, 0));
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        if du == k {
            continue;
        }
        for &v in csr.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
                out.push((v, du + 1));
            }
        }
    }
    out
}

/// Lower-bound diameter estimate by iterated double sweep: BFS from a
/// start node, then repeatedly BFS from the farthest node found. This is
/// the standard technique for huge graphs where all-pairs BFS is
/// infeasible (the paper's diameter-23 figure is of this kind).
pub fn diameter_double_sweep(csr: &Csr, start: NodeId, sweeps: usize) -> u32 {
    let _span = trail_obs::span("graph.diameter");
    let mut best = 0;
    let mut from = start;
    for _ in 0..sweeps.max(1) {
        let dist = bfs_distances(csr, from);
        let (far_node, far_dist) = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHABLE)
            .max_by_key(|&(_, &d)| d)
            .map(|(i, &d)| (NodeId::from(i), d))
            .unwrap_or((from, 0));
        if far_dist <= best {
            break;
        }
        best = far_dist;
        from = far_node;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EdgeKind, NodeKind};
    use crate::store::GraphStore;

    /// Path graph: e - ip - d - ip2 (via allowed kinds), plus an isolate.
    fn path() -> (GraphStore, Vec<NodeId>) {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "e");
        let ip = g.upsert_node(NodeKind::Ip, "1.1.1.1");
        let d = g.upsert_node(NodeKind::Domain, "a.example");
        let ip2 = g.upsert_node(NodeKind::Ip, "2.2.2.2");
        let isolate = g.upsert_node(NodeKind::Asn, "AS99");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        g.add_edge(ip, d, EdgeKind::ARecord).unwrap();
        g.add_edge(d, ip2, EdgeKind::DomainResolvesTo).unwrap();
        (g, vec![e, ip, d, ip2, isolate])
    }

    #[test]
    fn distances_on_path() {
        let (g, n) = path();
        let csr = Csr::from_store(&g);
        let dist = bfs_distances(&csr, n[0]);
        assert_eq!(&dist[..4], &[0, 1, 2, 3]);
        assert_eq!(dist[4], UNREACHABLE);
    }

    #[test]
    fn k_hop_bounded() {
        let (g, n) = path();
        let csr = Csr::from_store(&g);
        let hood = k_hop(&csr, &[n[0]], 2);
        let ids: Vec<_> = hood.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![n[0], n[1], n[2]]);
        assert_eq!(hood[2].1, 2);
        // Multiple roots deduplicate.
        let hood2 = k_hop(&csr, &[n[0], n[1]], 1);
        assert_eq!(hood2.len(), 3);
    }

    #[test]
    fn diameter_of_path_is_exact() {
        let (g, n) = path();
        let csr = Csr::from_store(&g);
        // Start mid-path: one sweep finds 2 (to either end), second finds 3.
        assert_eq!(diameter_double_sweep(&csr, n[2], 4), 3);
    }

    #[test]
    fn diameter_of_singleton_is_zero() {
        let mut g = GraphStore::new();
        let a = g.upsert_node(NodeKind::Asn, "AS1");
        assert_eq!(diameter_double_sweep(&Csr::from_store(&g), a, 3), 0);
    }
}
