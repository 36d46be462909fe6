//! End-to-end pipeline integration: feed → collector → enrichment →
//! TKG, and the invariants the paper's construction relies on.

use std::sync::Arc;

use trail::collector::AptRegistry;
use trail::report::{first_order_subgraph, graph_stats, ReuseHistogram};
use trail::system::TrailSystem;
use trail_graph::{Csr, EdgeKind, NodeKind};
use trail_osint::{OsintClient, World, WorldConfig};

fn build(seed: u64) -> TrailSystem {
    let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(seed))));
    let cutoff = client.world().config.cutoff_day;
    TrailSystem::build(client, cutoff)
}

#[test]
fn full_build_is_deterministic() {
    let a = build(404);
    let b = build(404);
    assert_eq!(a.tkg.graph.node_count(), b.tkg.graph.node_count());
    assert_eq!(a.tkg.graph.edge_count(), b.tkg.graph.edge_count());
    assert_eq!(a.tkg.events.len(), b.tkg.events.len());
    for (x, y) in a.tkg.events.iter().zip(&b.tkg.events) {
        assert_eq!(x.report_id, y.report_id);
        assert_eq!(x.apt, y.apt);
    }
}

#[test]
fn every_edge_respects_the_table1_schema() {
    let sys = build(405);
    for e in sys.tkg.graph.edges() {
        let src = sys.tkg.graph.node(e.src).kind;
        let dst = sys.tkg.graph.node(e.dst).kind;
        assert!(e.kind.allows(src, dst), "{:?}: {src:?} -> {dst:?}", e.kind);
    }
}

#[test]
fn labels_only_on_event_nodes() {
    let sys = build(406);
    for (_, rec) in sys.tkg.graph.iter_nodes() {
        if rec.label().is_some() {
            assert_eq!(rec.kind, NodeKind::Event);
        }
    }
    // And every collected event carries its label.
    for info in &sys.tkg.events {
        assert_eq!(
            sys.tkg.graph.node(info.node).label(),
            Some(trail_graph::ids::LabelId(info.apt))
        );
    }
}

#[test]
fn secondary_nodes_exist_and_are_not_first_order() {
    let sys = build(407);
    let secondary = sys
        .tkg
        .graph
        .iter_nodes()
        .filter(|(_, n)| {
            !n.first_order() && matches!(n.kind, NodeKind::Ip | NodeKind::Domain | NodeKind::Url)
        })
        .count();
    assert!(secondary > 0, "enrichment discovered no secondary IOCs");
    // Secondary IOCs have no InReport in-edges.
    for (id, rec) in sys.tkg.graph.iter_nodes() {
        if !rec.first_order() && rec.kind != NodeKind::Event && rec.kind != NodeKind::Asn {
            let reported = sys
                .tkg
                .graph
                .in_neighbors(id)
                .any(|(_, k)| k == EdgeKind::InReport);
            assert!(!reported, "secondary node {} has an InReport edge", rec.key);
        }
    }
}

#[test]
fn paper_section5_shape_holds_on_tiny_worlds() {
    let sys = build(408);
    let csr = sys.tkg.csr();
    let stats = graph_stats(&sys.tkg, &csr);
    assert!(stats.largest_fraction > 0.5);
    assert!(stats.events_within_2_hops > 0.4);
    // First-order-only subgraph fragments relative to its size.
    let sub = first_order_subgraph(&sys.tkg);
    let sub_cc = trail_graph::algo::connected_components(&Csr::from_store(&sub));
    assert!(sub_cc.count() >= 1);
    assert!(sub.node_count() < sys.tkg.graph.node_count());
}

#[test]
fn reuse_histogram_totals_match_first_order_population() {
    let sys = build(409);
    let hist = ReuseHistogram::compute(&sys.tkg);
    let histogram_total: usize = hist.buckets.iter().map(|b| b.values().sum::<usize>()).sum();
    let first_order_iocs = sys
        .tkg
        .graph
        .iter_nodes()
        .filter(|(_, n)| n.first_order() && n.kind != NodeKind::Event)
        .count();
    assert_eq!(histogram_total, first_order_iocs);
}

#[test]
fn graph_snapshot_roundtrips_through_persistence() {
    let sys = build(410);
    let bytes = trail_graph::persist::to_bytes(&sys.tkg.graph);
    let restored = trail_graph::persist::from_bytes(&bytes).expect("deserialise");
    assert_eq!(restored.node_count(), sys.tkg.graph.node_count());
    assert_eq!(restored.edge_count(), sys.tkg.graph.edge_count());
    // Spot-check an event label and a first-order flag.
    let info = &sys.tkg.events[0];
    let node = restored
        .find_node(NodeKind::Event, &info.report_id)
        .expect("event survives the roundtrip");
    assert_eq!(
        restored.node(node).label(),
        Some(trail_graph::ids::LabelId(info.apt))
    );
}

#[test]
fn registry_matches_world_apts() {
    let sys = build(411);
    let registry = AptRegistry::new(sys.client.world().config.n_apts);
    assert_eq!(registry.len(), sys.tkg.n_classes());
    for e in &sys.tkg.events {
        assert!((e.apt as usize) < registry.len());
    }
}
