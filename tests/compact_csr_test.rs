//! Compact-CSR equivalence suite: the u32 adjacency layout (`Csr`)
//! against the pointer-width reference (`WideCsr`) on a real ingested
//! world. `WideCsr::agrees_with` proves the layouts are structurally
//! identical; the tests here go further and run the Section V
//! traversal suite (BFS distances, connected components, k-hop,
//! ego-nets, double-sweep diameter, delta-merge chains) on the
//! compact layout while recomputing each answer from independent
//! reference code over the wide layout. A packing bug that survived
//! the structural check would have to also fool every traversal.

use std::collections::VecDeque;
use std::sync::Arc;

use trail::system::TrailSystem;
use trail_graph::algo::bfs::UNREACHABLE;
use trail_graph::algo::{bfs_distances, connected_components, diameter_double_sweep, k_hop, Ball};
use trail_graph::{NodeId, WideCsr};
use trail_osint::{OsintClient, World, WorldConfig};

fn build(seed: u64) -> TrailSystem {
    let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(seed))));
    let cutoff = client.world().config.cutoff_day;
    TrailSystem::build(client, cutoff)
}

/// Reference BFS over the wide layout — independent of `Csr` entirely.
fn wide_bfs(wide: &WideCsr, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; wide.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for v in wide.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[test]
fn layouts_agree_structurally_and_compact_is_smaller() {
    let sys = build(1500);
    let csr = sys.tkg.csr();
    let wide = WideCsr::from_store(&sys.tkg.graph);
    assert!(wide.agrees_with(&csr));
    // The point of the compact layout: >=40% less adjacency heap.
    let ratio = csr.heap_bytes() as f64 / wide.heap_bytes() as f64;
    assert!(ratio <= 0.6, "compact/wide heap ratio {ratio:.3} > 0.6");
}

#[test]
fn bfs_distances_match_a_wide_reference() {
    let sys = build(1501);
    let csr = sys.tkg.csr();
    let wide = WideCsr::from_store(&sys.tkg.graph);
    let n = csr.node_count();
    for source in [0, n / 3, n / 2, n - 1] {
        let s = NodeId::from(source);
        assert_eq!(
            bfs_distances(&csr, s),
            wide_bfs(&wide, s),
            "source {source}"
        );
    }
}

#[test]
fn connected_components_match_a_wide_flood_fill() {
    let sys = build(1502);
    let csr = sys.tkg.csr();
    let wide = WideCsr::from_store(&sys.tkg.graph);
    let summary = connected_components(&csr);

    // Reference: BFS flood fill over the wide layout.
    let n = wide.node_count();
    let mut comp = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        let c = sizes.len() as u32;
        let mut size = 0usize;
        let mut queue = VecDeque::from([NodeId::from(start)]);
        comp[start] = c;
        while let Some(u) = queue.pop_front() {
            size += 1;
            for v in wide.neighbors(u) {
                if comp[v.index()] == u32::MAX {
                    comp[v.index()] = c;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }

    let mut ref_sorted = sizes.clone();
    ref_sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(summary.sizes, ref_sorted);
    assert_eq!(summary.count(), sizes.len());
    // Same partition: two nodes share a compact component iff the
    // wide flood fill put them in one.
    for u in 0..n {
        for v in wide.neighbors(NodeId::from(u)) {
            assert_eq!(summary.assignment[u], summary.assignment[v.index()]);
            assert_eq!(comp[u], comp[v.index()]);
        }
    }
    let total: usize = summary.sizes.iter().sum();
    assert_eq!(total, n);
}

#[test]
fn k_hop_and_ego_net_match_a_wide_reference() {
    let sys = build(1503);
    let csr = sys.tkg.csr();
    let wide = WideCsr::from_store(&sys.tkg.graph);
    let ego = sys.tkg.events[0].node;
    for radius in [1u32, 2, 3] {
        let hood = k_hop(&csr, &[ego], radius);
        let ref_dist = wide_bfs(&wide, ego);
        // Same membership at the same distances, radius-bounded.
        let mut expect: Vec<(usize, u32)> = ref_dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHABLE && d <= radius)
            .map(|(i, &d)| (i, d))
            .collect();
        let mut got: Vec<(usize, u32)> = hood.iter().map(|&(id, d)| (id.index(), d)).collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect, "radius {radius}");

        // The ego-net is the ball: ascending members with their hops.
        let net = Ball::new(&csr, &[ego], radius);
        let net_members: Vec<(usize, u32)> = net
            .members()
            .iter()
            .zip(net.hops())
            .map(|(id, &d)| (id.index(), d))
            .collect();
        assert_eq!(net_members, expect, "ego-net radius {radius}");
        // The induced subgraph holds two half-edges per stored edge
        // with both endpoints in the net, counted by an independent
        // scan of the store.
        let in_net: std::collections::HashSet<usize> = expect.iter().map(|&(i, _)| i).collect();
        let expected_edges = sys
            .tkg
            .graph
            .edges()
            .iter()
            .filter(|e| in_net.contains(&e.src.index()) && in_net.contains(&e.dst.index()))
            .count();
        assert_eq!(
            net.induced(&csr).half_edge_count(),
            2 * expected_edges,
            "induced edges radius {radius}"
        );
    }
}

#[test]
fn diameter_double_sweep_matches_a_wide_reference() {
    let sys = build(1504);
    let csr = sys.tkg.csr();
    let wide = WideCsr::from_store(&sys.tkg.graph);
    let start = sys.tkg.events[0].node;

    // Mirror the double-sweep over the wide layout, identical
    // tie-breaking (last maximum, as `max_by_key` resolves ties).
    let mut best = 0;
    let mut from = start;
    for _ in 0..4 {
        let dist = wide_bfs(&wide, from);
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
    assert_eq!(diameter_double_sweep(&csr, start, 4), best);
    assert!(best > 0, "degenerate fixture: diameter 0");
}

#[test]
fn merge_appended_chain_stays_in_agreement() {
    let mut sys = build(1505);
    let cutoff = sys.client.world().config.cutoff_day;
    let mut csr = sys.tkg.csr();
    let mut wide = WideCsr::from_store(&sys.tkg.graph);
    assert!(wide.agrees_with(&csr));

    // Grow the store window by window (the longitudinal protocol) and
    // delta-merge both layouts in lockstep. After every step the
    // merged compact CSR must agree with both the merged wide layout
    // and a from-scratch rebuild.
    let mut grew = false;
    for step in 0..3u32 {
        let (lo, hi) = (cutoff + step * 30, cutoff + (step + 1) * 30);
        let ingested = sys.ingest_window(lo, hi);
        grew |= !ingested.is_empty();
        csr = csr.merge_appended(&sys.tkg.graph);
        wide = wide.merge_appended(&sys.tkg.graph);
        assert!(wide.agrees_with(&csr), "merge step {step} diverged");
        assert!(
            WideCsr::from_store(&sys.tkg.graph).agrees_with(&csr),
            "merge step {step} disagrees with a fresh rebuild"
        );
    }
    assert!(grew, "fixture world has no post-cutoff reports to merge");
}
