//! Dataset reports (paper Section V): Table II statistics live on
//! [`Tkg::stats_table`]; this module adds the Fig. 4 reuse histogram,
//! the connected-component / diameter analysis, and the Fig. 3 ego-net
//! summary.

use trail_graph::algo::{connected_components, diameter_double_sweep, Ball};
use trail_graph::{Csr, NodeId, NodeKind};

use crate::tkg::Tkg;

/// Fig. 4 data: for each IOC kind, a map from reuse count (number of
/// events an IOC appeared in) to how many IOCs had that count.
#[derive(Debug, Clone)]
pub struct ReuseHistogram {
    /// Buckets per kind, indexed by [`NodeKind::index`] (events/ASNs
    /// unused). Key = reuse count, value = #IOCs.
    pub buckets: [std::collections::BTreeMap<usize, usize>; 5],
}

impl ReuseHistogram {
    /// Compute over the first-order IOCs of a TKG.
    pub fn compute(tkg: &Tkg) -> Self {
        let mut buckets: [std::collections::BTreeMap<usize, usize>; 5] = Default::default();
        for (id, rec) in tkg.graph.iter_nodes() {
            if !rec.first_order() {
                continue;
            }
            let reuse = tkg.reuse_count(id);
            if reuse > 0 {
                *buckets[rec.kind.index()].entry(reuse).or_insert(0) += 1;
            }
        }
        Self { buckets }
    }

    /// Render as an aligned text table (reuse count rows, kind columns).
    pub fn render(&self) -> String {
        let kinds = [NodeKind::Ip, NodeKind::Url, NodeKind::Domain];
        let max_reuse = self
            .buckets
            .iter()
            .flat_map(|b| b.keys().copied())
            .max()
            .unwrap_or(0);
        let mut out = format!(
            "{:>8} | {:>9} {:>9} {:>9}\n",
            "Reuse", "IPs", "URLs", "Domains"
        );
        let mut row_keys: Vec<usize> = (1..=max_reuse.min(9)).collect();
        if max_reuse > 9 {
            row_keys.push(usize::MAX); // the "10+" bucket
        }
        for key in row_keys {
            let label = if key == usize::MAX {
                "10+".to_owned()
            } else {
                key.to_string()
            };
            out.push_str(&format!("{label:>8} |"));
            for kind in kinds {
                let count: usize = if key == usize::MAX {
                    self.buckets[kind.index()]
                        .iter()
                        .filter(|&(&k, _)| k >= 10)
                        .map(|(_, &v)| v)
                        .sum()
                } else {
                    self.buckets[kind.index()].get(&key).copied().unwrap_or(0)
                };
                out.push_str(&format!("{count:>10}"));
            }
            out.push('\n');
        }
        out
    }

    /// Mean reuse per kind (the Table II "Avg. Reuse" column).
    pub fn mean_reuse(&self, kind: NodeKind) -> f64 {
        let b = &self.buckets[kind.index()];
        let total: usize = b.values().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = b.iter().map(|(&k, &v)| k * v).sum();
        weighted as f64 / total as f64
    }
}

/// Section V graph statistics: component structure and diameter of the
/// full TKG vs the first-order-only subgraph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of connected components.
    pub components: usize,
    /// Fraction of nodes in the largest component.
    pub largest_fraction: f64,
    /// Double-sweep diameter estimate of the largest component.
    pub diameter: u32,
    /// Share of event nodes within 2 hops of another event node.
    pub events_within_2_hops: f64,
}

/// Compute Section V statistics for a graph.
pub fn graph_stats(tkg: &Tkg, csr: &Csr) -> GraphStats {
    let cc = connected_components(csr);
    let diameter = if cc.largest() > 1 {
        let seed = cc
            .assignment
            .iter()
            .position(|&c| c == 0)
            .map(NodeId::from)
            .unwrap_or(NodeId(0));
        diameter_double_sweep(csr, seed, 6)
    } else {
        0
    };
    // "85% of event nodes are two hops away from another event node".
    let mut within = 0usize;
    let mut total = 0usize;
    for info in &tkg.events {
        total += 1;
        let mut found = false;
        'outer: for &ioc in csr.neighbors(info.node) {
            for &other in csr.neighbors(ioc) {
                if other != info.node && matches!(tkg.graph.node(other).kind, NodeKind::Event) {
                    found = true;
                    break 'outer;
                }
            }
        }
        if found {
            within += 1;
        }
    }
    GraphStats {
        components: cc.count(),
        largest_fraction: cc.largest_fraction(),
        diameter,
        events_within_2_hops: if total > 0 {
            within as f64 / total as f64
        } else {
            0.0
        },
    }
}

/// The first-order subgraph (events + first-order IOCs only), for the
/// paper's enrichment-value comparison.
pub fn first_order_subgraph(tkg: &Tkg) -> trail_graph::GraphStore {
    let (sub, _) = tkg
        .graph
        .subgraph(|_, rec| rec.first_order() || rec.kind == NodeKind::Event);
    sub
}

/// Fig. 3-style ego-net summary of one event: per-kind member counts,
/// indexed by [`NodeKind::index`], of the event's [`Ball`] of the given
/// radius (the event itself included).
pub fn egonet_summary(tkg: &Tkg, csr: &Csr, event: NodeId, radius: u32) -> [usize; 5] {
    let mut counts = [0usize; 5];
    for &id in Ball::new(csr, &[event], radius).members() {
        counts[tkg.graph.node(id).kind.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::TrailSystem;
    use std::sync::Arc;
    use trail_osint::{OsintClient, World, WorldConfig};

    fn sys() -> TrailSystem {
        let client = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(91))));
        let cutoff = client.world().config.cutoff_day;
        TrailSystem::build(client, cutoff)
    }

    #[test]
    fn reuse_histogram_has_heavy_tail() {
        let s = sys();
        let hist = ReuseHistogram::compute(&s.tkg);
        // Reuse of 1 dominates, but multi-event reuse exists.
        let singles: usize = hist.buckets.iter().filter_map(|b| b.get(&1)).sum();
        let multis: usize = hist
            .buckets
            .iter()
            .flat_map(|b| b.iter().filter(|&(&k, _)| k > 1).map(|(_, &v)| v))
            .sum();
        assert!(
            singles > 0 && multis > 0,
            "singles={singles} multis={multis}"
        );
        let rendered = hist.render();
        assert!(rendered.contains("Reuse"));
    }

    #[test]
    fn graph_stats_shape_matches_paper_claims() {
        let s = sys();
        let csr = s.tkg.csr();
        let stats = graph_stats(&s.tkg, &csr);
        // A dominant connected component exists...
        assert!(stats.largest_fraction > 0.5, "{stats:?}");
        // ...and most events are 2 hops from another event.
        assert!(stats.events_within_2_hops > 0.5, "{stats:?}");
        assert!(stats.diameter >= 2);
    }

    #[test]
    fn first_order_subgraph_has_more_components() {
        let s = sys();
        let full_csr = s.tkg.csr();
        let full = connected_components(&full_csr).count();
        let sub = first_order_subgraph(&s.tkg);
        let sub_cc = connected_components(&Csr::from_store(&sub)).count();
        // Dropping enrichment-only nodes can only fragment the graph
        // (relative to its node count).
        assert!(sub.node_count() < s.tkg.graph.node_count());
        assert!(
            sub_cc as f64 / sub.node_count() as f64
                >= full as f64 / s.tkg.graph.node_count() as f64
        );
    }

    #[test]
    fn egonet_summary_counts_kinds() {
        let s = sys();
        let csr = s.tkg.csr();
        let event = s.tkg.events[0].node;
        let counts = egonet_summary(&s.tkg, &csr, event, 2);
        assert!(counts[NodeKind::Event.index()] >= 1);
        let iocs: usize = counts[1..4].iter().sum();
        assert!(iocs > 0);
    }
}
