//! `GraphStore` clones and drops in a fixed number of allocations.
//!
//! Installs [`trail_obs::alloc::CountingAllocator`] as the global
//! allocator and counts the allocations and frees of one
//! `clone` + `drop` for a 1k-node and a 20k-node store: every field is
//! a flat array (or a hash table of `Copy` entries), so both counts
//! must be the same whatever the graph's size. A per-node or per-key
//! heap object would make them grow with it. The counters are
//! process-global, so this binary holds one `#[test]` only.

use trail_graph::{EdgeKind, GraphStore, NodeKind};
use trail_obs::alloc::{allocation_count, deallocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `events` events, each reporting two of a pool of IPs and one
/// domain, the domains resolving to IPs: every node has edges and
/// the keys vary in length, some of them non-ASCII.
fn store(events: usize) -> GraphStore {
    let mut g = GraphStore::new();
    let ips: Vec<_> = (0..events / 2)
        .map(|i| {
            g.upsert_node(
                NodeKind::Ip,
                &format!("10.{}.{}.{}", i >> 16, (i >> 8) & 255, i & 255),
            )
        })
        .collect();
    for i in 0..events {
        let e = g.upsert_node(NodeKind::Event, &format!("report-{i}"));
        let d = g.upsert_node(NodeKind::Domain, &format!("höst{i}.пример.example"));
        g.add_edge(e, ips[i % ips.len()], EdgeKind::InReport)
            .unwrap();
        g.add_edge(e, ips[(i * 7 + 1) % ips.len()], EdgeKind::InReport)
            .unwrap();
        g.add_edge(e, d, EdgeKind::InReport).unwrap();
        g.add_edge(d, ips[(i * 3) % ips.len()], EdgeKind::DomainResolvesTo)
            .unwrap();
    }
    g
}

/// Allocations and frees of one clone and drop of `g`.
fn clone_and_drop(g: &GraphStore) -> (u64, u64) {
    let (allocs, frees) = (allocation_count(), deallocation_count());
    let copy = g.clone();
    assert_eq!(copy.node_count(), g.node_count());
    drop(copy);
    (allocation_count() - allocs, deallocation_count() - frees)
}

#[test]
fn clone_and_drop_cost_the_same_allocations_at_any_size() {
    let small = store(400);
    let large = store(8_000);
    assert_eq!(small.node_count(), 1_000);
    assert_eq!(large.node_count(), 20_000);
    let (small_allocs, small_frees) = clone_and_drop(&small);
    let (large_allocs, large_frees) = clone_and_drop(&large);
    assert_eq!(
        small_allocs, large_allocs,
        "clone allocations grow with the graph"
    );
    assert_eq!(small_frees, large_frees, "drop frees grow with the graph");
    assert_eq!(small_allocs, small_frees, "a clone frees what it allocates");
    // A fixed handful: one per field array or hash table.
    assert!(small_allocs <= 12, "{small_allocs} allocations per clone");

    // The clone is the same graph.
    let copy = large.clone();
    for (id, rec) in large.iter_nodes() {
        assert_eq!(copy.key(id), large.key(id));
        assert_eq!(copy.find_node(rec.kind, large.key(id)), Some(id));
        assert!(copy.out_neighbors(id).eq(large.out_neighbors(id)));
        assert!(copy.in_neighbors(id).eq(large.in_neighbors(id)));
    }
}
