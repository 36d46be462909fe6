//! A small store built from a replayable log of writes: nodes created
//! with or without features, late features written to nodes created
//! earlier (as enrichment does), nodes under chosen key texts, and
//! edges. The code-cache tests replay a prefix or an edited log to get
//! the stores a cache must either extend or rebuild from; the store
//! tests check the graph's adjacency and keys against the log.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trail::collector::AptRegistry;
use trail::sparse::SparseVec;
use trail::tkg::Tkg;
use trail_graph::{EdgeKind, NodeId, NodeKind};
use trail_ioc::types::IocKind;

/// One write of a code-cache test store, replayable into a fresh
/// [`Tkg`].
#[derive(Clone, Copy)]
pub enum StoreWrite {
    /// A new node; `Some(seed)` features it at once.
    Node(NodeKind, Option<u64>),
    /// Late features, from `seed`, for an existing node.
    Feature(NodeId, u64),
    /// A node under the key text given, without features; the store
    /// keeps an existing node of that kind and key as it is.
    Keyed(NodeKind, &'static str),
    /// An edge; the store ignores a duplicate and rejects a pair the
    /// schema forbids, so either leaves it unchanged.
    Edge(NodeId, NodeId, EdgeKind),
}

/// Key texts for [`StoreWrite::Keyed`]: the empty text, non-ASCII
/// texts and one that differs from another only in case.
pub const ODD_KEYS: [&str; 8] = [
    "",
    "é",
    "E",
    "e",
    "пример.рф",
    "例え.テスト",
    "🦀.example",
    "straße.de",
];

/// The node kinds that carry IOC features.
pub const IOC_NODE_KINDS: [NodeKind; 3] = [NodeKind::Url, NodeKind::Ip, NodeKind::Domain];

/// A few random non-zeros at the width of `kind`'s features.
pub fn cache_features(kind: NodeKind, seed: u64) -> SparseVec {
    let ioc = IocKind::ALL[IocKind::ALL
        .iter()
        .position(|&k| Tkg::node_kind(k) == kind)
        .unwrap()];
    let dims = Tkg::dims_of(ioc);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense = vec![0.0f32; dims];
    for _ in 0..rng.gen_range(1..6) {
        dense[rng.gen_range(0..dims)] = rng.gen_range(-3.0f32..3.0);
    }
    SparseVec::from_dense(&dense)
}

/// Apply one write to `tkg`.
pub fn apply_write(tkg: &mut Tkg, write: StoreWrite) {
    match write {
        StoreWrite::Node(kind, features) => {
            let id = tkg
                .graph
                .upsert_node(kind, &format!("n{}", tkg.graph.node_count()));
            if let Some(seed) = features {
                tkg.set_features(id, cache_features(kind, seed));
            }
        }
        StoreWrite::Feature(id, seed) => {
            let kind = tkg.graph.node(id).kind;
            tkg.set_features(id, cache_features(kind, seed));
        }
        StoreWrite::Keyed(kind, key) => {
            tkg.graph.upsert_node(kind, key);
        }
        StoreWrite::Edge(src, dst, kind) => {
            tkg.graph.add_edge(src, dst, kind).ok();
        }
    }
}

/// A fresh store holding the writes of `log`, in order.
pub fn replay_writes(log: &[StoreWrite]) -> Tkg {
    let mut tkg = Tkg::new(AptRegistry::new(3));
    for &w in log {
        apply_write(&mut tkg, w);
    }
    tkg
}

/// The per-row fingerprint sweep `CodeCache::refresh` ran before it
/// read the feature write order: fingerprint every featured row and
/// encode those not yet held under that fingerprint. The oracle for
/// which rows a refresh must encode.
#[derive(Default)]
pub struct SweepOracle {
    row_fp: Vec<Option<u64>>,
}

impl SweepOracle {
    /// Rows the sweep encodes, ascending; `rebuilt` forgets every row
    /// first.
    pub fn dirty(&mut self, tkg: &Tkg, rebuilt: bool) -> Vec<usize> {
        if rebuilt {
            self.row_fp.clear();
        }
        self.row_fp.resize(tkg.graph.node_count(), None);
        let mut dirty = Vec::new();
        for kind in IocKind::ALL {
            for (node, sv) in tkg.featured_nodes(kind) {
                let fp = Some(sv.fingerprint());
                if self.row_fp[node.index()] != fp {
                    self.row_fp[node.index()] = fp;
                    dirty.push(node.index());
                }
            }
        }
        dirty.sort_unstable();
        dirty
    }
}
