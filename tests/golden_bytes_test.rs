//! Golden byte fixtures for the three on-disk formats.
//!
//! Each test encodes one fixed, RNG-free sample — a TKG2 graph
//! snapshot, a TWL1 log segment and a TSB1 serve bundle — and pins the complete encoding as committed
//! constants: byte length, FNV-1a of the whole file, and the first and
//! last 32 bytes in hex. Any change to a layout, a field order, the
//! frame header or the checksum trips these tests, so a refactor of the
//! codecs can prove that it writes the same bits.
//!
//! No sample draws from an RNG: the constants must hold for every
//! `rand` implementation the workspace is built against.

use trail::collector::AptRegistry;
use trail::freeze::FrozenModel;
use trail::stream::{Wal, WalConfig};
use trail::Tkg;
use trail_gnn::SageConfig;
use trail_graph::ids::LabelId;
use trail_graph::persist::{self, fnv1a_bytes};
use trail_graph::{EdgeKind, GraphStore, NodeKind};
use trail_ioc::report::{RawIndicator, RawReport};
use trail_linalg::Matrix;
use trail_serve::ServeBundle;

/// `(length, fnv1a(bytes), first 32 bytes, last 32 bytes)`.
type Golden = (usize, u64, &'static str, &'static str);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn summary(bytes: &[u8]) -> (usize, u64, String, String) {
    let n = bytes.len();
    (
        n,
        fnv1a_bytes(bytes),
        hex(&bytes[..n.min(32)]),
        hex(&bytes[n.saturating_sub(32)..]),
    )
}

fn assert_golden(format: &str, bytes: &[u8], want: Golden) {
    let got = summary(bytes);
    assert_eq!(
        (got.0, got.1, got.2.as_str(), got.3.as_str()),
        want,
        "{format} encoding changed; got ({}, {:#018x}, \"{}\", \"{}\")",
        got.0,
        got.1,
        got.2,
        got.3
    );
}

/// Deterministic `rows x cols` matrix with entries `i * scale`.
fn ramp(rows: usize, cols: usize, scale: f32) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|i| i as f32 * scale).collect(),
    )
    .unwrap()
}

const TKG2: Golden = (
    75,
    0xa479_2716_0702_d0e0,
    "544b4732020000003300000000000000a4b4f4e1357612610200000000000000",
    "000107000000312e322e332e3400010100000000000000000000000100000000",
);
const TWL1: Golden = (
    336,
    0xd002_f529_9daa_6320,
    "54574c3101000000580000000000000019924e7f8d75843c0500000072303030",
    "2e302e302e3206000000646f6d61696e0c00000063322d322e6578616d706c65",
);
const TSB1: Golden = (
    1530,
    0xf26d_011a_0973_0bcd,
    "5453423101000000e205000000000000215888ea443bbca6a400000000000000",
    "7b14cebf0100000000000000030000000000000000000000cdcc4c3ecdcccc3e",
);

#[test]
fn tkg2_snapshot_bytes_are_pinned() {
    let mut g = GraphStore::new();
    let e = g.upsert_node(NodeKind::Event, "evt");
    let ip = g.upsert_node(NodeKind::Ip, "1.2.3.4");
    g.add_edge(e, ip, EdgeKind::InReport).unwrap();
    g.set_label(e, LabelId(5)).unwrap();
    g.mark_first_order(ip);
    assert_golden("TKG2", &persist::to_bytes(&g), TKG2);
}

fn report(i: u32) -> RawReport {
    RawReport {
        id: format!("r{i:04}"),
        created_day: 600 + i,
        tags: vec![format!("APT{}", i % 3), "extra-tag".to_owned()],
        indicators: vec![
            RawIndicator {
                indicator_type: "IPv4".to_owned(),
                indicator: format!("10.0.{}.{}", i / 256, i % 256),
            },
            RawIndicator {
                indicator_type: "domain".to_owned(),
                indicator: format!("c2-{i}.example"),
            },
        ],
    }
}

#[test]
fn twl1_segment_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("trail-golden-twl1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
        for i in 0..3 {
            wal.append(&report(i)).unwrap();
        }
    }
    let bytes = std::fs::read(dir.join("wal-00000000.twl")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_golden("TWL1", &bytes, TWL1);
}

#[test]
fn tsb1_bundle_bytes_are_pinned() {
    let mut tkg = Tkg::new(AptRegistry::new(3));
    let e0 = tkg.graph.upsert_node(NodeKind::Event, "r0");
    let e1 = tkg.graph.upsert_node(NodeKind::Event, "r1");
    let e2 = tkg.graph.upsert_node(NodeKind::Event, "r2");
    let ip = tkg.graph.upsert_node(NodeKind::Ip, "1.1.1.1");
    let d = tkg.graph.upsert_node(NodeKind::Domain, "apt.example");
    let ip2 = tkg.graph.upsert_node(NodeKind::Ip, "2.2.2.2");
    tkg.graph.add_edge(e0, ip, EdgeKind::InReport).unwrap();
    tkg.graph.add_edge(e1, ip, EdgeKind::InReport).unwrap();
    tkg.graph.add_edge(e1, d, EdgeKind::InReport).unwrap();
    tkg.graph.add_edge(e2, ip2, EdgeKind::InReport).unwrap();
    tkg.graph.add_edge(ip, d, EdgeKind::ARecord).unwrap();
    tkg.add_event(e0, "r0", 1, 0);
    tkg.add_event(e1, "r1", 2, 0);
    tkg.add_event(e2, "r2", 3, 2);

    let code_dim = 4;
    let k = tkg.n_classes();
    let input_dim = code_dim + 5 + k;
    let (hidden, n) = (8, tkg.graph.node_count());
    let frozen = FrozenModel {
        codes: ramp(n, code_dim, 0.01),
        code_dim,
        sage_cfg: SageConfig::new(input_dim, hidden, 2, k),
        layers: vec![
            (
                ramp(input_dim, hidden, 0.02),
                ramp(input_dim, hidden, -0.03),
                ramp(1, hidden, 0.1),
            ),
            (
                ramp(hidden, k, 0.05),
                ramp(hidden, k, -0.07),
                ramp(1, k, 0.2),
            ),
        ],
    };
    let bundle = ServeBundle::freeze(&tkg, &frozen).expect("valid bundle");
    assert_golden("TSB1", &bundle.to_bytes(), TSB1);
}
