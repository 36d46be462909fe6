//! The TRAIL Knowledge Graph: typed graph + per-node feature store +
//! event metadata (paper Section IV-C).

use trail_graph::ids::LabelId;
use trail_graph::{Csr, GraphStore, NodeId, NodeKind};
use trail_ioc::features::{DomainEncoder, IpEncoder, UrlEncoder, DOMAIN_DIMS, IP_DIMS, URL_DIMS};
use trail_ioc::{IocKey, IocKeyRef, IocKind};

use crate::collector::AptRegistry;
use crate::sparse::{FeatureArena, SparseRef, SparseVec};

/// Metadata of one ingested event.
#[derive(Debug, Clone)]
pub struct EventInfo {
    /// The event's node in the graph.
    pub node: NodeId,
    /// Source report id.
    pub report_id: String,
    /// Day the report was created.
    pub day: u32,
    /// Resolved APT label.
    pub apt: u16,
}

/// The TRAIL Knowledge Graph.
pub struct Tkg {
    /// The underlying typed property graph.
    pub graph: GraphStore,
    /// The APT label space.
    pub registry: AptRegistry,
    /// Ingested events in ingestion order.
    pub events: Vec<EventInfo>,
    /// Per-node features in one arena slab (see [`FeatureArena`]) —
    /// no per-node heap allocations at paper scale.
    features: FeatureArena,
    /// Shared URL feature encoder (stable slot names).
    pub url_encoder: UrlEncoder,
    /// Shared IP feature encoder.
    pub ip_encoder: IpEncoder,
    /// Shared domain feature encoder.
    pub domain_encoder: DomainEncoder,
}

impl Tkg {
    /// Empty TKG over a label space.
    pub fn new(registry: AptRegistry) -> Self {
        Self {
            graph: GraphStore::new(),
            registry,
            events: Vec::new(),
            features: FeatureArena::new(),
            url_encoder: UrlEncoder::default(),
            ip_encoder: IpEncoder::default(),
            domain_encoder: DomainEncoder::default(),
        }
    }

    /// Number of APT classes.
    pub fn n_classes(&self) -> usize {
        self.registry.len()
    }

    /// Register an event node's metadata and label.
    pub fn add_event(&mut self, node: NodeId, report_id: &str, day: u32, apt: u16) {
        self.graph
            .set_label(node, LabelId(apt))
            .expect("valid event node");
        self.events.push(EventInfo {
            node,
            report_id: report_id.to_owned(),
            day,
            apt,
        });
    }

    /// Every event as `(node, APT)`, in ingestion order.
    pub fn event_pairs(&self) -> Vec<(NodeId, u16)> {
        self.events.iter().map(|e| (e.node, e.apt)).collect()
    }

    /// Look up an event by report id.
    pub fn event_by_report(&self, report_id: &str) -> Option<&EventInfo> {
        self.events.iter().find(|e| e.report_id == report_id)
    }

    /// Store an IOC node's feature vector (first write wins — repeated
    /// enrichment of a shared IOC is idempotent).
    pub fn set_features(&mut self, node: NodeId, features: SparseVec) {
        self.features.insert_if_absent(node.index(), &features);
    }

    /// True when the node already has features.
    pub fn has_features(&self, node: NodeId) -> bool {
        self.features.contains(node.index())
    }

    /// Borrow a node's features, if any were stored.
    pub fn features(&self, node: NodeId) -> Option<SparseRef<'_>> {
        self.features.get(node.index())
    }

    /// Featured nodes whose features were stored from the `from`-th
    /// write on, in write order. Writes are first-write-wins, so these
    /// are exactly the feature rows added since a reader saw `from`
    /// writes, whenever their nodes were created.
    pub fn features_since(&self, from: usize) -> impl Iterator<Item = (NodeId, SparseRef<'_>)> {
        self.features
            .iter_since(from)
            .map(|(node, sv)| (NodeId::from(node), sv))
    }

    /// Heap bytes held by the feature store.
    pub fn feature_heap_bytes(&self) -> usize {
        self.features.heap_bytes()
    }

    /// Feature width for an IOC kind.
    pub fn dims_of(kind: IocKind) -> usize {
        match kind {
            IocKind::Url => URL_DIMS,
            IocKind::Ip => IP_DIMS,
            IocKind::Domain => DOMAIN_DIMS,
        }
    }

    /// Graph node kind for an IOC kind.
    pub fn node_kind(kind: IocKind) -> NodeKind {
        match kind {
            IocKind::Url => NodeKind::Url,
            IocKind::Ip => NodeKind::Ip,
            IocKind::Domain => NodeKind::Domain,
        }
    }

    /// Upsert the node for a canonical IOC identity. All IOC nodes are
    /// created through here (or with an equivalent key), so one
    /// indicator can never occupy two nodes under different spellings.
    pub fn upsert_ioc(&mut self, key: &IocKey) -> NodeId {
        self.upsert_ioc_ref(key.as_ref())
    }

    /// [`Self::upsert_ioc`] for the borrowed key form — the enrichment
    /// hot path passes identities through without cloning their text.
    pub fn upsert_ioc_ref(&mut self, key: IocKeyRef<'_>) -> NodeId {
        self.upsert_ioc_full(key).0
    }

    /// Upsert an IOC node and report whether it is new, in one index
    /// probe (no separate `find` + `upsert` round trip).
    pub fn upsert_ioc_full(&mut self, key: IocKeyRef<'_>) -> (NodeId, bool) {
        self.graph
            .upsert_node_full(Self::node_kind(key.kind()), key.text())
    }

    /// Find the node for a canonical IOC identity, if present.
    pub fn find_ioc(&self, key: &IocKey) -> Option<NodeId> {
        self.find_ioc_ref(key.as_ref())
    }

    /// [`Self::find_ioc`] for the borrowed key form.
    pub fn find_ioc_ref(&self, key: IocKeyRef<'_>) -> Option<NodeId> {
        self.graph
            .find_node(Self::node_kind(key.kind()), key.text())
    }

    /// All nodes of an IOC kind that carry features, with the features,
    /// in ascending node-id order (the arena iterates by node index, so
    /// no sort is needed).
    pub fn featured_nodes(&self, kind: IocKind) -> Vec<(NodeId, SparseRef<'_>)> {
        let nk = Self::node_kind(kind);
        self.features
            .iter()
            .filter(|&(idx, _)| self.graph.node(NodeId::from(idx)).kind == nk)
            .map(|(idx, sv)| (NodeId::from(idx), sv))
            .collect()
    }

    /// Freeze the graph into a CSR for traversal / learning.
    pub fn csr(&self) -> Csr {
        Csr::from_store(&self.graph)
    }

    /// The APT labels of the events that directly reported `node`
    /// (deduplicated). Used to select "single-label" IOCs for Table III.
    pub fn reporting_apts(&self, node: NodeId) -> Vec<u16> {
        let mut apts: Vec<u16> = self
            .graph
            .in_neighbors(node)
            .filter(|(_, kind)| *kind == trail_graph::EdgeKind::InReport)
            .filter_map(|(src, _)| self.graph.node(src).label())
            .map(|l| l.0)
            .collect();
        apts.sort_unstable();
        apts.dedup();
        apts
    }

    /// Number of distinct events that directly reported `node`
    /// (the "reuse" count of Fig. 4).
    pub fn reuse_count(&self, node: NodeId) -> usize {
        self.graph
            .in_neighbors(node)
            .filter(|(_, kind)| *kind == trail_graph::EdgeKind::InReport)
            .count()
    }

    /// Render the Table II analogue: nodes / edges / degree / first-order
    /// share / average reuse per node kind.
    pub fn stats_table(&self) -> String {
        let node_counts = self.graph.node_counts_by_kind();
        let edge_counts = self.graph.edge_endpoint_counts_by_kind();
        let mut first_order = [0usize; 5];
        let mut reuse_sum = [0usize; 5];
        let mut reuse_n = [0usize; 5];
        for (id, rec) in self.graph.iter_nodes() {
            let k = rec.kind.index();
            if rec.first_order() {
                first_order[k] += 1;
                reuse_sum[k] += self.reuse_count(id);
                reuse_n[k] += 1;
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:>8} | {:>9} {:>9} {:>11} {:>10} {:>10}\n",
            "Type", "Nodes", "Edges", "Avg.Degree", "1stOrder%", "Avg.Reuse"
        ));
        let mut total_nodes = 0;
        let mut total_first = 0;
        for kind in trail_graph::NodeKind::ALL {
            let k = kind.index();
            let n = node_counts[k];
            total_nodes += n;
            let deg = if n > 0 {
                edge_counts[k] as f64 / n as f64
            } else {
                0.0
            };
            let (fo, reuse): (String, String) = match kind {
                trail_graph::NodeKind::Event | trail_graph::NodeKind::Asn => {
                    ("N/a".into(), "N/a".into())
                }
                _ => {
                    total_first += first_order[k];
                    let fo_pct = if n > 0 {
                        100.0 * first_order[k] as f64 / n as f64
                    } else {
                        0.0
                    };
                    let avg_reuse = if reuse_n[k] > 0 {
                        reuse_sum[k] as f64 / reuse_n[k] as f64
                    } else {
                        0.0
                    };
                    (format!("{fo_pct:.2}%"), format!("{avg_reuse:.3}"))
                }
            };
            out.push_str(&format!(
                "{:>8} | {:>9} {:>9} {:>11.3} {:>10} {:>10}\n",
                kind.name(),
                n,
                edge_counts[k],
                deg,
                fo,
                reuse
            ));
        }
        let total_edges = self.graph.edge_count();
        let avg_deg = if total_nodes > 0 {
            2.0 * total_edges as f64 / total_nodes as f64
        } else {
            0.0
        };
        let fo_pct = if total_nodes > 0 {
            100.0 * total_first as f64 / total_nodes as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>8} | {:>9} {:>9} {:>11.3} {:>9.2}% {:>10}\n",
            "Total", total_nodes, total_edges, avg_deg, fo_pct, ""
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_graph::EdgeKind;

    fn tiny_tkg() -> Tkg {
        let mut tkg = Tkg::new(AptRegistry::new(3));
        let e0 = tkg.graph.upsert_node(NodeKind::Event, "r0");
        let e1 = tkg.graph.upsert_node(NodeKind::Event, "r1");
        let ip = tkg.graph.upsert_node(NodeKind::Ip, "1.1.1.1");
        tkg.graph.mark_first_order(ip);
        tkg.graph.add_edge(e0, ip, EdgeKind::InReport).unwrap();
        tkg.graph.add_edge(e1, ip, EdgeKind::InReport).unwrap();
        tkg.add_event(e0, "r0", 5, 0);
        tkg.add_event(e1, "r1", 9, 1);
        tkg
    }

    #[test]
    fn event_metadata_and_lookup() {
        let tkg = tiny_tkg();
        assert_eq!(tkg.events.len(), 2);
        let e = tkg.event_by_report("r1").unwrap();
        assert_eq!(e.apt, 1);
        assert_eq!(e.day, 9);
        assert!(tkg.event_by_report("nope").is_none());
    }

    #[test]
    fn reporting_apts_and_reuse() {
        let tkg = tiny_tkg();
        let ip = tkg.graph.find_node(NodeKind::Ip, "1.1.1.1").unwrap();
        assert_eq!(tkg.reporting_apts(ip), vec![0, 1]); // multi-label IOC
        assert_eq!(tkg.reuse_count(ip), 2);
    }

    #[test]
    fn feature_store_first_write_wins() {
        let mut tkg = tiny_tkg();
        let ip = tkg.graph.find_node(NodeKind::Ip, "1.1.1.1").unwrap();
        tkg.set_features(ip, SparseVec::from_dense(&[1.0, 0.0]));
        tkg.set_features(ip, SparseVec::from_dense(&[9.0, 9.0]));
        assert_eq!(tkg.features(ip).unwrap().get(0), 1.0);
        assert!(tkg.has_features(ip));
    }

    #[test]
    fn featured_nodes_filters_by_kind() {
        let mut tkg = tiny_tkg();
        let ip = tkg.graph.find_node(NodeKind::Ip, "1.1.1.1").unwrap();
        let d = tkg.graph.upsert_node(NodeKind::Domain, "x.example");
        tkg.set_features(ip, SparseVec::from_dense(&[1.0]));
        tkg.set_features(d, SparseVec::from_dense(&[2.0]));
        assert_eq!(tkg.featured_nodes(IocKind::Ip).len(), 1);
        assert_eq!(tkg.featured_nodes(IocKind::Domain).len(), 1);
        assert_eq!(tkg.featured_nodes(IocKind::Url).len(), 0);
    }

    #[test]
    fn stats_table_mentions_all_kinds() {
        let tkg = tiny_tkg();
        let table = tkg.stats_table();
        for name in ["Events", "IPs", "URLs", "Domains", "ASNs", "Total"] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }

    #[test]
    fn ioc_key_upsert_and_find_share_one_node() {
        let mut tkg = tiny_tkg();
        let key = IocKey::parse(IocKind::Domain, "ThreeBody[.]CN.").unwrap();
        let node = tkg.upsert_ioc(&key);
        // Any raw spelling of the same indicator resolves to that node.
        for raw in ["threebody.cn", "THREEBODY.cn", "threebody[.]cn."] {
            let k = IocKey::parse(IocKind::Domain, raw).unwrap();
            assert_eq!(tkg.find_ioc(&k), Some(node), "{raw:?}");
            assert_eq!(tkg.upsert_ioc(&k), node, "{raw:?} upserted a second node");
        }
        assert_eq!(tkg.graph.key(node), "threebody.cn");
        // The borrowed-key forms resolve identically, with no clone.
        assert_eq!(tkg.find_ioc_ref(key.as_ref()), Some(node));
        assert_eq!(tkg.upsert_ioc_full(key.as_ref()), (node, false));
    }

    #[test]
    fn dims_match_encoders() {
        assert_eq!(Tkg::dims_of(IocKind::Url), 1517);
        assert_eq!(Tkg::dims_of(IocKind::Ip), 507);
        assert_eq!(Tkg::dims_of(IocKind::Domain), 115);
    }
}
