//! Fixed cases of the incremental code cache (`CodeCache::refresh`),
//! one per branch: the write-order tail it encodes, and each way a
//! store can fail to descend from the last one seen, which must
//! rebuild. Every refresh is also checked bit for bit against
//! `compute_codes_with` on the same store. The randomised version of
//! this contract is `code_cache_refresh_equals_compute_codes` in
//! tests/property_test.rs; these pin the shapes a seed may not draw.

mod common;

use common::store_writes::{cache_features, replay_writes, StoreWrite, SweepOracle};

use rand::rngs::StdRng;
use rand::SeedableRng;

use trail::embed::{compute_codes_with, CodeCache, SparseScaler};
use trail::sparse::SparseVec;
use trail::tkg::Tkg;
use trail_graph::{NodeId, NodeKind};
use trail_ioc::types::IocKind;
use trail_linalg::Matrix;
use trail_ml::nn::autoencoder::{Autoencoder, AutoencoderConfig};

const CODE: usize = 3;
const BATCH: usize = 4;

fn encoders(code: usize) -> Vec<Autoencoder> {
    let cfg = AutoencoderConfig {
        hidden: 6,
        code,
        epochs: 1,
        batch_size: BATCH,
        lr: 1e-3,
    };
    let mut rng = StdRng::seed_from_u64(11);
    IocKind::ALL
        .iter()
        .map(|&k| Autoencoder::new(&mut rng, Tkg::dims_of(k), &cfg))
        .collect()
}

fn fit(tkg: &Tkg) -> Vec<SparseScaler> {
    IocKind::ALL
        .iter()
        .map(|&k| SparseScaler::fit(&tkg.featured_nodes(k), Tkg::dims_of(k)))
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn featured_count(tkg: &Tkg) -> usize {
    IocKind::ALL
        .iter()
        .map(|&k| tkg.featured_nodes(k).len())
        .sum()
}

/// Node indices of `tkg` that carry features, ascending.
fn featured_rows(tkg: &Tkg) -> Vec<usize> {
    let mut rows: Vec<usize> = IocKind::ALL
        .iter()
        .flat_map(|&k| tkg.featured_nodes(k))
        .map(|(id, _)| id.index())
        .collect();
    rows.sort_unstable();
    rows
}

/// What one refresh did.
#[derive(Debug, PartialEq)]
struct Refresh {
    /// Rows encoded, ascending.
    written: Vec<usize>,
    /// Whether the cache threw its rows away first.
    rebuilt: bool,
}

/// A cache with its encoders and scalers frozen, as the stream keeps
/// them between ticks.
struct Harness {
    encoders: Vec<Autoencoder>,
    scalers: Vec<SparseScaler>,
    cache: CodeCache,
}

impl Harness {
    /// Scalers fitted on `base`, encoders of width `CODE`.
    fn over(base: &Tkg) -> Self {
        Self {
            encoders: encoders(CODE),
            scalers: fit(base),
            cache: CodeCache::new(),
        }
    }

    /// Refresh over `tkg` and hold the result to a full compute.
    fn refresh(&mut self, tkg: &Tkg) -> Refresh {
        let rebuilds = self.cache.full_rebuilds;
        let mut written = self
            .cache
            .refresh(tkg, &self.encoders, &self.scalers, BATCH);
        written.sort_unstable();
        let full = compute_codes_with(tkg, &self.encoders, &self.scalers, BATCH);
        assert_eq!(self.cache.codes().shape(), full.codes.shape());
        assert_eq!(bits(self.cache.codes()), bits(&full.codes));
        assert_eq!(self.cache.code_dim(), full.code_dim);
        Refresh {
            written,
            rebuilt: self.cache.full_rebuilds > rebuilds,
        }
    }
}

use StoreWrite::{Feature, Node};

/// Nine nodes: two of each IOC kind featured, one URL and one IP left
/// without features, and an event. Node ids follow the log order.
fn base_log() -> Vec<StoreWrite> {
    vec![
        Node(NodeKind::Event, None),
        Node(NodeKind::Url, Some(1)),
        Node(NodeKind::Ip, Some(2)),
        Node(NodeKind::Domain, Some(3)),
        Node(NodeKind::Url, None),
        Node(NodeKind::Url, Some(4)),
        Node(NodeKind::Ip, None),
        Node(NodeKind::Ip, Some(5)),
        Node(NodeKind::Domain, Some(6)),
    ]
}

#[test]
fn first_refresh_encodes_every_featured_row() {
    let tkg = replay_writes(&base_log());
    let mut h = Harness::over(&tkg);
    let r = h.refresh(&tkg);
    assert!(r.rebuilt, "an empty cache starts with a full build");
    assert_eq!(r.written, vec![1, 2, 3, 5, 7, 8]);
    assert_eq!(h.cache.full_rebuilds, 1);
    assert_eq!(h.cache.rows_recomputed, 6);
    assert_eq!(h.cache.rows_reused, 0);
    assert_eq!(h.cache.codes().shape(), (9, CODE));
}

#[test]
fn refresh_without_new_writes_encodes_nothing() {
    let tkg = replay_writes(&base_log());
    let mut h = Harness::over(&tkg);
    h.refresh(&tkg);
    let before = bits(h.cache.codes());
    for round in 1..=2u64 {
        let r = h.refresh(&tkg);
        assert_eq!(
            r,
            Refresh {
                written: vec![],
                rebuilt: false
            }
        );
        assert_eq!(bits(h.cache.codes()), before);
        assert_eq!(h.cache.rows_recomputed, 6);
        assert_eq!(
            h.cache.rows_reused,
            6 * round,
            "every row kept, once per refresh"
        );
    }
}

#[test]
fn refresh_encodes_only_the_nodes_featured_since() {
    let mut log = base_log();
    let base = replay_writes(&log);
    let mut h = Harness::over(&base);
    h.refresh(&base);
    log.extend([
        Node(NodeKind::Domain, Some(7)),
        Node(NodeKind::Event, None),
        Node(NodeKind::Ip, Some(8)),
        Node(NodeKind::Url, Some(9)),
    ]);
    let grown = replay_writes(&log);
    let r = h.refresh(&grown);
    assert!(!r.rebuilt, "growth is absorbed");
    assert_eq!(r.written, vec![9, 11, 12]);
    assert_eq!(h.cache.rows_recomputed, 9);
}

#[test]
fn late_features_on_an_old_node_are_encoded_without_rebuild() {
    let mut log = base_log();
    let base = replay_writes(&log);
    let mut h = Harness::over(&base);
    h.refresh(&base);
    // Node 4 (a URL) was created without features; enrichment features
    // it months later, after a newer node got its own.
    log.push(Node(NodeKind::Domain, Some(7)));
    log.push(Feature(NodeId::from(4usize), 8));
    let grown = replay_writes(&log);
    let r = h.refresh(&grown);
    assert!(!r.rebuilt);
    assert_eq!(r.written, vec![4, 9]);
    assert_ne!(
        h.cache.codes().row(4),
        [0.0; CODE].as_slice(),
        "the late row holds a code"
    );
}

#[test]
fn unfeatured_growth_appends_zero_rows() {
    let mut log = base_log();
    let base = replay_writes(&log);
    let mut h = Harness::over(&base);
    h.refresh(&base);
    let before = bits(h.cache.codes());
    log.extend([
        Node(NodeKind::Event, None),
        Node(NodeKind::Ip, None),
        Node(NodeKind::Url, None),
    ]);
    let grown = replay_writes(&log);
    let r = h.refresh(&grown);
    assert_eq!(
        r,
        Refresh {
            written: vec![],
            rebuilt: false
        }
    );
    let codes = h.cache.codes();
    assert_eq!(codes.shape(), (12, CODE));
    assert_eq!(bits(codes)[..before.len()], before[..], "old rows kept");
    for row in 9..12 {
        assert!(
            codes.row(row).iter().all(|&v| v == 0.0),
            "row {row} is zero"
        );
    }
}

#[test]
fn features_on_a_non_ioc_node_leave_its_row_zero() {
    let mut log = base_log();
    let base = replay_writes(&log);
    let mut h = Harness::over(&base);
    h.refresh(&base);
    log.push(Node(NodeKind::Event, None));
    log.push(Node(NodeKind::Ip, Some(7)));
    let mut grown = replay_writes(&log);
    // A feature write the code path has no encoder for: it is counted
    // as seen, and its row stays zero.
    grown.set_features(NodeId::from(9usize), SparseVec::from_dense(&[0.0, 2.0]));
    let r = h.refresh(&grown);
    assert!(!r.rebuilt);
    assert_eq!(r.written, vec![10]);
    assert!(h.cache.codes().row(9).iter().all(|&v| v == 0.0));
    grown.set_features(NodeId::from(4usize), cache_features(NodeKind::Url, 8));
    let r = h.refresh(&grown);
    assert!(!r.rebuilt, "the event's write was folded in, not lost");
    assert_eq!(r.written, vec![4]);
}

#[test]
fn store_with_fewer_nodes_rebuilds() {
    let log = base_log();
    let full = replay_writes(&log);
    let mut h = Harness::over(&full);
    h.refresh(&full);
    let prefix = replay_writes(&log[..5]);
    let r = h.refresh(&prefix);
    assert!(r.rebuilt, "a store with fewer nodes is not a descendant");
    assert_eq!(r.written, vec![1, 2, 3]);
    assert_eq!(h.cache.codes().shape(), (5, CODE));
}

#[test]
fn store_missing_the_last_seen_write_rebuilds() {
    let mut log = base_log();
    let full = replay_writes(&log);
    let mut h = Harness::over(&full);
    h.refresh(&full);
    // Same nodes, but the last feature write never happened.
    log[8] = Node(NodeKind::Domain, None);
    let fewer = replay_writes(&log);
    let r = h.refresh(&fewer);
    assert!(r.rebuilt, "fewer feature writes than seen");
    assert_eq!(r.written, vec![1, 2, 3, 5, 7]);
}

#[test]
fn last_seen_write_owned_by_another_node_rebuilds() {
    let mut log = base_log();
    let full = replay_writes(&log);
    let mut h = Harness::over(&full);
    h.refresh(&full);
    // As many nodes and feature writes, but the last write now
    // features node 6 instead of node 8.
    log[8] = Node(NodeKind::Domain, None);
    log.push(Feature(NodeId::from(6usize), 7));
    let other = replay_writes(&log);
    assert_eq!(featured_count(&other), featured_count(&full));
    let r = h.refresh(&other);
    assert!(r.rebuilt, "the last seen write changed owner");
    assert_eq!(r.written, vec![1, 2, 3, 5, 6, 7]);
}

#[test]
fn cache_extends_again_after_a_rebuild() {
    let log = base_log();
    let full = replay_writes(&log);
    let mut h = Harness::over(&full);
    h.refresh(&full);
    let mut log = log[..5].to_vec();
    assert!(h.refresh(&replay_writes(&log)).rebuilt);
    log.push(Node(NodeKind::Ip, Some(9)));
    log.push(Feature(NodeId::from(4usize), 10));
    let r = h.refresh(&replay_writes(&log));
    assert!(!r.rebuilt, "the rebuild re-anchored the lineage");
    assert_eq!(r.written, vec![4, 5]);
    assert_eq!(h.cache.full_rebuilds, 2);
}

#[test]
fn changed_scalers_rebuild() {
    let mut log = base_log();
    let base = replay_writes(&log);
    let mut h = Harness::over(&base);
    h.refresh(&base);
    log.push(Node(NodeKind::Url, Some(7)));
    let grown = replay_writes(&log);
    h.scalers = fit(&grown);
    let r = h.refresh(&grown);
    assert!(r.rebuilt, "codes under other scalers are other codes");
    assert_eq!(r.written, featured_rows(&grown));
}

#[test]
fn refitted_equal_scalers_do_not_rebuild() {
    let mut log = base_log();
    let base = replay_writes(&log);
    let mut h = Harness::over(&base);
    h.refresh(&base);
    // New scaler objects with the same content: the guard keys on the
    // transform, not on which values carry it.
    h.scalers = fit(&base);
    log.push(Node(NodeKind::Url, Some(7)));
    let r = h.refresh(&replay_writes(&log));
    assert!(!r.rebuilt);
    assert_eq!(r.written, vec![9]);
}

#[test]
fn changed_code_width_rebuilds() {
    let tkg = replay_writes(&base_log());
    let mut h = Harness::over(&tkg);
    h.refresh(&tkg);
    h.encoders = encoders(CODE + 2);
    let r = h.refresh(&tkg);
    assert!(r.rebuilt);
    assert_eq!(r.written, featured_rows(&tkg));
    assert_eq!(h.cache.codes().shape(), (9, CODE + 2));
}

#[test]
fn empty_store_refreshes_then_grows() {
    let mut log = Vec::new();
    let empty = replay_writes(&log);
    let mut h = Harness::over(&replay_writes(&base_log()));
    let r = h.refresh(&empty);
    assert!(r.rebuilt);
    assert!(r.written.is_empty());
    assert_eq!(h.cache.codes().shape(), (0, CODE));
    assert_eq!(h.refresh(&empty).written, Vec::<usize>::new());
    log.push(Node(NodeKind::Url, Some(1)));
    log.push(Node(NodeKind::Event, None));
    let r = h.refresh(&replay_writes(&log));
    assert_eq!(
        r,
        Refresh {
            written: vec![0],
            rebuilt: false
        }
    );
}

/// Refreshing after every write or once at the end gives the same bits,
/// and either way every featured row is encoded exactly once.
#[test]
fn refresh_granularity_does_not_change_codes() {
    let mut log = base_log();
    log.extend([
        Feature(NodeId::from(6usize), 7),
        Node(NodeKind::Domain, Some(8)),
        Node(NodeKind::Event, None),
        Feature(NodeId::from(4usize), 9),
        Node(NodeKind::Ip, Some(10)),
    ]);
    let fin = replay_writes(&log);
    let mut once = Harness::over(&fin);
    once.refresh(&fin);
    let mut step = Harness::over(&fin);
    for n in 0..=log.len() {
        let r = step.refresh(&replay_writes(&log[..n]));
        assert_eq!(r.rebuilt, n == 0, "after {n} writes");
    }
    assert_eq!(bits(step.cache.codes()), bits(once.cache.codes()));
    let featured = featured_count(&fin) as u64;
    assert_eq!(once.cache.rows_recomputed, featured);
    assert_eq!(step.cache.rows_recomputed, featured);
}

/// The rows a refresh encodes are the rows the old per-row fingerprint
/// sweep found dirty, on a fixed history with late features.
#[test]
fn written_rows_equal_the_fingerprint_sweep() {
    let mut log = base_log();
    let mut h = Harness::over(&replay_writes(&log));
    let mut sweep = SweepOracle::default();
    let steps: [&[StoreWrite]; 3] = [
        &[
            Node(NodeKind::Ip, Some(7)),
            Feature(NodeId::from(6usize), 8),
        ],
        &[Node(NodeKind::Event, None)],
        &[
            Feature(NodeId::from(4usize), 9),
            Node(NodeKind::Url, Some(10)),
        ],
    ];
    let tkg = replay_writes(&log);
    let r = h.refresh(&tkg);
    assert_eq!(r.written, sweep.dirty(&tkg, r.rebuilt));
    for writes in steps {
        log.extend_from_slice(writes);
        let tkg = replay_writes(&log);
        let r = h.refresh(&tkg);
        assert!(!r.rebuilt);
        assert_eq!(r.written, sweep.dirty(&tkg, false));
    }
}

#[test]
fn features_since_lists_writes_in_write_order() {
    let log = [
        Node(NodeKind::Url, None),
        Node(NodeKind::Ip, None),
        Node(NodeKind::Domain, Some(1)),
        Feature(NodeId::from(0usize), 2),
        Node(NodeKind::Url, Some(3)),
        Feature(NodeId::from(1usize), 4),
    ];
    let tkg = replay_writes(&log);
    let ids = |from: usize| -> Vec<usize> {
        tkg.features_since(from).map(|(id, _)| id.index()).collect()
    };
    assert_eq!(ids(0), vec![2, 0, 3, 1], "write order, not id order");
    assert_eq!(ids(2), vec![3, 1]);
    assert_eq!(ids(4), Vec::<usize>::new());
    assert_eq!(ids(100), Vec::<usize>::new());
    for (id, sv) in tkg.features_since(0) {
        assert_eq!(Some(sv), tkg.features(id), "node {}", id.index());
    }
}

#[test]
fn repeated_feature_write_is_not_a_new_write() {
    let mut tkg = replay_writes(&base_log());
    let node = NodeId::from(2usize);
    let kept = tkg.features(node).unwrap().to_dense();
    let writes = tkg.features_since(0).count();
    tkg.set_features(node, SparseVec::from_dense(&vec![9.0; kept.len()]));
    assert_eq!(tkg.features_since(0).count(), writes, "first write wins");
    assert_eq!(tkg.features(node).unwrap().to_dense(), kept);
}

#[test]
fn resize_rows_grows_by_amortised_capacity() {
    let mut m = Matrix::zeros(0, CODE);
    let mut moves = 0;
    let mut at = m.as_slice().as_ptr();
    for rows in 1..=4096 {
        m.resize_rows(rows);
        m.row_mut(rows - 1).fill(rows as f32);
        if m.as_slice().as_ptr() != at {
            moves += 1;
            at = m.as_slice().as_ptr();
        }
    }
    assert!(moves <= 24, "{moves} buffer moves for 4096 one-row growths");
    assert!((0..4096).all(|r| m.row(r) == [(r + 1) as f32; CODE]));
}

#[test]
fn resize_rows_zero_fills_rows_regrown_after_a_shrink() {
    let mut m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c + 1) as f32);
    m.resize_rows(1);
    m.resize_rows(3);
    assert_eq!(m.as_slice(), &[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
}
