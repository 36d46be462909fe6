//! Property-based tests over the core data structures and parsers.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use common::store_writes::{
    apply_write, replay_writes, StoreWrite, SweepOracle, IOC_NODE_KINDS, ODD_KEYS,
};
use common::{obs_lock, serve_oracle, train_oracle};

use proptest::prelude::*;

use trail::collector::{collect, AptRegistry};
use trail::embed::{compute_codes_with, CodeCache, SparseScaler};
use trail::enrich::{Enricher, IngestStats};
use trail::freeze::FrozenModel;
use trail::tkg::Tkg;
use trail_gnn::train::{fine_tune_masked, predict_events, train_sage_masked};
use trail_gnn::{FineTune, LabelMasking, LabelPropagation, SageConfig, SageModel, TrainConfig};
use trail_graph::algo::{k_hop, Ball};
use trail_graph::{persist, Csr, EdgeKind, GraphStore, Interner, NodeId, NodeKind};
use trail_ioc::defang::{defang, refang};
use trail_ioc::domain::DomainIoc;
use trail_ioc::ip::IpIoc;
use trail_ioc::key::IocKey;
use trail_ioc::types::IocKind;
use trail_ioc::url::UrlIoc;
use trail_ioc::vocab::Vocab;
use trail_linalg::Matrix;
use trail_ml::nn::autoencoder::{Autoencoder, AutoencoderConfig};
use trail_osint::{BreakerConfig, BreakerState, CircuitBreaker, OsintClient, World, WorldConfig};
use trail_serve::{QueryLimits, ServeBundle};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Code columns and classes of the ball-lemma check; the one-hot label
/// block follows the codes, as in the pipeline's GNN input.
const LEMMA_CODE: usize = 5;
const LEMMA_CLASSES: usize = 3;

/// Random codes (exact zeros sprinkled in) plus a label one-hot on
/// every third node and on every `labelled` node.
fn lemma_features(seed: u64, n: usize, labelled: &[NodeId]) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, LEMMA_CODE + LEMMA_CLASSES);
    for i in 0..n {
        for c in 0..LEMMA_CODE {
            x[(i, c)] = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            };
        }
    }
    let nodes = (0..n)
        .step_by(3)
        .map(NodeId::from)
        .chain(labelled.iter().copied());
    for v in nodes {
        x[(v.index(), LEMMA_CODE + lemma_label(v) as usize)] = 1.0;
    }
    x
}

fn lemma_label(v: NodeId) -> u16 {
    (v.index() % LEMMA_CLASSES) as u16
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn weight_bits(model: &SageModel) -> Vec<Vec<u32>> {
    model
        .weights()
        .iter()
        .flat_map(|&(w_root, w_nbr, b)| [w_root, w_nbr, b])
        .map(|m| f32_bits(m.as_slice()))
        .collect()
}

/// A random multigraph on `n` nodes: self-loops and parallel edges
/// occur, and the last quarter of the ids stays isolated.
fn lemma_graph(n: usize, edges: &[(usize, usize)]) -> Csr {
    let span = (n * 3 / 4).max(1);
    let edges: Vec<(NodeId, NodeId, EdgeKind)> = edges
        .iter()
        .map(|&(a, b)| {
            (
                NodeId::from(a % span),
                NodeId::from(b % span),
                EdgeKind::InReport,
            )
        })
        .collect();
    Csr::from_edge_list(n, &edges)
}

/// `(class, confidence bits)` of each prediction.
fn pred_bits(p: Vec<(u16, f32)>) -> Vec<(u16, u32)> {
    p.into_iter().map(|(c, v)| (c, v.to_bits())).collect()
}

/// Node `i`'s kind in the serve check's graphs: every kind occurs.
fn serve_kind(i: usize) -> NodeKind {
    NodeKind::ALL[i % NodeKind::ALL.len()]
}

/// A random serve bundle on `n` nodes of every kind, with an untrained
/// `depth`-layer model, plus the IOC keys of its IOC nodes. Each
/// `(a, b, pick)` adds one edge of a kind the schema allows between
/// `a`'s and `b`'s kinds, if any; IP–domain pairs take two kinds, one
/// per direction, so parallel edges occur, and some nodes stay
/// isolated.
fn serve_world(
    n: usize,
    edges: &[(usize, usize, usize)],
    depth: usize,
    seed: u64,
) -> (ServeBundle, FrozenModel, Vec<IocKey>) {
    let classes = 3;
    let mut tkg = Tkg::new(AptRegistry::new(classes));
    let mut keys = Vec::new();
    for i in 0..n {
        let ioc = match serve_kind(i) {
            NodeKind::Ip => Some((IocKind::Ip, format!("198.51.{}.{}", i / 200, i % 200 + 1))),
            NodeKind::Domain => Some((IocKind::Domain, format!("n{i}.example.com"))),
            NodeKind::Url => Some((IocKind::Url, format!("http://u{i}.example.net/p"))),
            _ => None,
        };
        match ioc {
            Some((kind, raw)) => {
                let key = IocKey::parse(kind, &raw).expect("well-formed IOC");
                assert_eq!(tkg.upsert_ioc(&key).index(), i);
                keys.push(key);
            }
            None => {
                let node = tkg.graph.upsert_node(serve_kind(i), &format!("x{i}"));
                if serve_kind(i) == NodeKind::Event {
                    tkg.add_event(node, &format!("x{i}"), 0, (i % classes) as u16);
                }
            }
        }
    }
    for &(a, b, pick) in edges {
        let (a, b) = (NodeId::from(a % n), NodeId::from(b % n));
        let (ka, kb) = (serve_kind(a.index()), serve_kind(b.index()));
        let fits: Vec<(NodeId, NodeId, EdgeKind)> = EdgeKind::ALL
            .iter()
            .flat_map(|&e| {
                let fwd = e.allows(ka, kb).then_some((a, b, e));
                let back = e.allows(kb, ka).then_some((b, a, e));
                fwd.into_iter().chain(back)
            })
            .collect();
        if let Some(&(src, dst, kind)) = fits.get(pick % fits.len().max(1)) {
            tkg.graph
                .add_edge(src, dst, kind)
                .expect("schema-valid edge");
        }
    }
    let code_dim = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let codes = Matrix::from_fn(n, code_dim, |_, _| {
        if rng.gen_bool(0.2) {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    });
    let sage_cfg = SageConfig {
        l2_normalize: seed.is_multiple_of(2),
        ..SageConfig::new(code_dim + 5 + classes, 6, depth, classes)
    };
    let model = SageModel::new(&mut rng, sage_cfg);
    let layers = model
        .weights()
        .iter()
        .map(|&(r, w, b)| (r.clone(), w.clone(), b.clone()))
        .collect();
    let frozen = FrozenModel {
        codes,
        code_dim,
        sage_cfg,
        layers,
    };
    let bundle = ServeBundle::freeze(&tkg, &frozen).expect("valid bundle");
    (bundle, frozen, keys)
}

/// Check `g` against the layouts the store kept before its adjacency
/// and keys were made flat: the `(kind, key)` of every node, in id
/// order, and per-node out- and in-lists rebuilt by scanning `edges()`
/// in order. `edges` are the edges the store must hold, in insertion
/// order; `name` says which copy of the store failed.
fn check_store(
    name: &str,
    g: &GraphStore,
    keys: &[(NodeKind, String)],
    edges: &[(NodeId, NodeId, EdgeKind)],
) {
    assert_eq!(g.node_count(), keys.len(), "{name}: node count");
    let held: Vec<_> = g.edges().iter().map(|e| (e.src, e.dst, e.kind)).collect();
    assert_eq!(held, edges, "{name}: edges");
    let mut out = vec![Vec::new(); keys.len()];
    let mut inn = vec![Vec::new(); keys.len()];
    for e in g.edges() {
        out[e.src.index()].push((e.dst, e.kind));
        inn[e.dst.index()].push((e.src, e.kind));
    }
    for (i, (kind, key)) in keys.iter().enumerate() {
        let id = NodeId::from(i);
        let (o, n) = (g.out_neighbors(id), g.in_neighbors(id));
        assert_eq!(
            (o.len(), n.len()),
            (out[i].len(), inn[i].len()),
            "{name}: list lengths of node {i}"
        );
        assert_eq!(
            o.collect::<Vec<_>>(),
            out[i],
            "{name}: out-list of node {i}"
        );
        assert_eq!(n.collect::<Vec<_>>(), inn[i], "{name}: in-list of node {i}");
        assert_eq!(
            g.degree(id),
            out[i].len() + inn[i].len(),
            "{name}: degree of node {i}"
        );
        assert_eq!(g.node(id).kind, *kind, "{name}: kind of node {i}");
        assert_eq!(g.key(id), key, "{name}: key of node {i}");
        assert_eq!(g.find_node(*kind, key), Some(id), "{name}: find {key:?}");
    }
    for kind in NodeKind::ALL {
        for key in ODD_KEYS {
            let expect = keys
                .iter()
                .position(|(k, t)| *k == kind && t == key)
                .map(NodeId::from);
            assert_eq!(
                g.find_node(kind, key),
                expect,
                "{name}: find {kind:?} {key:?}"
            );
        }
    }
}

proptest! {
    /// Any dotted quad in range parses and round-trips its octets.
    #[test]
    fn ipv4_roundtrip(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255, d in 0u8..=255) {
        let text = format!("{a}.{b}.{c}.{d}");
        let ip = IpIoc::parse(&text).expect("valid dotted quad");
        prop_assert_eq!(ip.v4_octets(), Some([a, b, c, d]));
        prop_assert_eq!(ip.text, text);
    }

    /// Defang then refang is the identity on URLs made of safe chars.
    #[test]
    fn defang_refang_roundtrip(host in "[a-z]{3,10}", tld in "(com|net|ru|club)", path in "[a-z0-9]{1,8}") {
        let url = format!("http://{host}.{tld}/{path}");
        prop_assert_eq!(refang(&defang(&url)), url);
    }

    /// Valid LDH domains always parse and canonicalise to lowercase.
    #[test]
    fn domain_parse_accepts_ldh(label in "[a-z][a-z0-9]{0,12}", tld in "[a-z]{2,6}") {
        let d = DomainIoc::parse(&format!("{}.{}", label.to_uppercase(), tld)).expect("LDH domain");
        prop_assert_eq!(d.tld(), tld.as_str());
        prop_assert_eq!(d.text, format!("{label}.{tld}"));
    }

    /// Lexical features are finite and consistent with the text.
    #[test]
    fn domain_lexical_consistency(label in "[a-z][a-z0-9]{2,20}", tld in "[a-z]{2,4}") {
        let text = format!("{label}.{tld}");
        let d = DomainIoc::parse(&text).unwrap();
        let lex = d.lexical();
        prop_assert_eq!(lex.length as usize, text.len());
        prop_assert!(lex.digit_ratio >= 0.0 && lex.digit_ratio <= 1.0);
        prop_assert_eq!(lex.periods as usize, 1);
        prop_assert!(lex.entropy.is_finite());
    }

    /// URL parsing extracts the host it was given.
    #[test]
    fn url_host_extraction(host in "[a-z]{3,8}", tld in "(com|net|org)", depth in 0usize..3) {
        let path: String = (0..depth).map(|i| format!("/p{i}")).collect();
        let url = format!("https://{host}.{tld}{path}");
        let parsed = UrlIoc::parse(&url).unwrap();
        prop_assert_eq!(parsed.hosted_domain().unwrap().text.clone(), format!("{host}.{tld}"));
        prop_assert_eq!(parsed.lexical().path_depth as usize, depth);
    }

    /// Vocab slots are always in range and deterministic.
    #[test]
    fn vocab_slot_in_range(value in ".{0,40}", size in 1usize..500) {
        let v = Vocab::new("test", size, &[]);
        let s1 = v.slot(&value);
        let s2 = v.slot(&value);
        prop_assert!(s1 < size);
        prop_assert_eq!(s1, s2);
    }

    /// Interning any sequence of texts (duplicates and all) hands out
    /// symbols in first-appearance order, resolves every symbol back to
    /// its exact text, and dedups re-interned text to the same symbol —
    /// across however many rehash growths the sequence forces.
    #[test]
    fn interner_roundtrip(texts in proptest::collection::vec(".{0,24}", 0..60)) {
        let mut it = Interner::new();
        let mut first_seen: Vec<String> = Vec::new();
        for t in &texts {
            let sym = it.intern(t);
            if let Some(pos) = first_seen.iter().position(|s| s == t) {
                prop_assert_eq!(sym.index(), pos, "re-interning {:?} minted a new symbol", t);
            } else {
                prop_assert_eq!(sym.index(), first_seen.len(), "symbols not dense/first-appearance");
                first_seen.push(t.clone());
            }
            prop_assert_eq!(it.resolve(sym), t.as_str());
        }
        prop_assert_eq!(it.len(), first_seen.len());
    }

    /// The borrow-based probe agrees with interning without mutating:
    /// `lookup` finds exactly the interned texts (never allocating a
    /// key), misses everything else, and survives a bucket rebuild.
    #[test]
    fn interner_borrow_lookup(
        texts in proptest::collection::vec("[a-z0-9.]{0,16}", 1..40),
        probe in "[a-z0-9.]{0,16}",
    ) {
        let mut it = Interner::new();
        let syms: Vec<_> = texts.iter().map(|t| it.intern(t)).collect();
        let len_after_interning = it.len();
        for (t, &sym) in texts.iter().zip(&syms) {
            prop_assert_eq!(it.lookup(t.as_str()), Some(sym));
        }
        let expect = texts.iter().position(|t| *t == probe).map(|pos| syms[pos]);
        prop_assert_eq!(it.lookup(&probe), expect, "probe {:?} disagrees with intern history", &probe);
        prop_assert_eq!(it.len(), len_after_interning, "lookup mutated the interner");
        // A deserialised interner rebuilds the same probe answers.
        it.rebuild();
        prop_assert_eq!(it.lookup(&probe), expect);
    }

    /// CSR degree sum equals twice the edge count for any event→IOC
    /// bipartite graph.
    #[test]
    fn csr_degree_sum(edges in proptest::collection::vec((0usize..10, 0usize..15), 0..60)) {
        // `Csr::from_store` records a `graph.csr_freeze` span.
        let _g = obs_lock();
        let mut g = GraphStore::new();
        let events: Vec<_> = (0..10).map(|i| g.upsert_node(NodeKind::Event, &format!("e{i}"))).collect();
        let ips: Vec<_> = (0..15).map(|i| g.upsert_node(NodeKind::Ip, &format!("1.1.1.{i}"))).collect();
        for (e, i) in edges {
            let _ = g.add_edge(events[e], ips[i], EdgeKind::InReport);
        }
        let csr = Csr::from_store(&g);
        let degree_sum: usize = (0..csr.node_count()).map(|i| csr.degree(trail_graph::NodeId::from(i))).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert_eq!(csr.half_edge_count(), 2 * g.edge_count());
    }

    /// Subgraph never invents nodes or edges.
    #[test]
    fn subgraph_is_monotone(keep_events in proptest::collection::vec(any::<bool>(), 8)) {
        let mut g = GraphStore::new();
        let mut events = Vec::new();
        let ip = g.upsert_node(NodeKind::Ip, "9.9.9.9");
        for (i, _) in keep_events.iter().enumerate() {
            let e = g.upsert_node(NodeKind::Event, &format!("e{i}"));
            g.add_edge(e, ip, EdgeKind::InReport).unwrap();
            events.push(e);
        }
        let (sub, mapping) = g.subgraph(|id, rec| {
            rec.kind != NodeKind::Event || keep_events[events.iter().position(|&e| e == id).unwrap()]
        });
        prop_assert!(sub.node_count() <= g.node_count());
        prop_assert!(sub.edge_count() <= g.edge_count());
        let kept = keep_events.iter().filter(|&&k| k).count();
        prop_assert_eq!(sub.node_count(), kept + 1);
        prop_assert_eq!(sub.edge_count(), kept);
        prop_assert_eq!(mapping.iter().filter(|m| m.is_some()).count(), kept + 1);
    }

    /// Matrix transpose is an involution and matmul distributes over
    /// the transpose pair ops used in backprop.
    #[test]
    fn transpose_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let m = Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17 + seed as usize) % 11) as f32 - 5.0);
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        let other = Matrix::from_fn(rows, cols, |r, c| ((r + c * 3 + seed as usize) % 7) as f32);
        let fast = m.t_matmul(&other).unwrap();
        let slow = m.transpose().matmul(&other).unwrap();
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// The ball lemma the streaming tick rests on (DESIGN.md §10): an
    /// Serve's pruned forward answers exactly like the full path. On
    /// random multigraphs, for depths 1–3, radii 0–4 and member caps
    /// that cut mid-hop, `attribute` equals the full-ball oracle, and
    /// the prefix forward's rows equal `forward_quantized`'s bit for
    /// bit. Queries may repeat an IOC or name one the graph lacks.
    #[test]
    fn serve_attribute_equals_the_full_ball_oracle(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0usize..2), 0..90),
        query in proptest::collection::vec(0usize..40, 1..6),
        depth in 1usize..4,
        radius in 0u32..5,
        cap in 1usize..48,
        seed in 0u64..10_000,
    ) {
        // `attribute` records spans and a histogram.
        let _g = obs_lock();
        let (bundle, frozen, keys) = serve_world(n, &edges, depth, seed);
        let absent = IocKey::parse(IocKind::Ip, "203.0.113.9").expect("well-formed IOC");
        let iocs: Vec<IocKey> = query
            .iter()
            .map(|&q| keys.get(q % (keys.len() + 1)).unwrap_or(&absent).clone())
            .collect();
        let limits = QueryLimits { radius, max_members: cap };
        let mut model = bundle.instantiate_model();
        let got = bundle.attribute(&mut model, &iocs, &limits);
        let want = serve_oracle::attribute(
            &bundle, &frozen, &mut bundle.instantiate_model(), &iocs, &limits,
        );
        prop_assert_eq!(&got, &want, "depth {} radius {} cap {}", depth, radius, cap);

        // The histogram holds exactly the rows the one pruned forward
        // computed: the oracle records nothing.
        let forward_rows =
            trail_obs::snapshot().histogram("serve.forward_rows").map_or(0, |h| h.sum);
        let roots: Vec<NodeId> = iocs.iter().filter_map(|k| bundle.find_ioc(k)).collect();
        if roots.is_empty() {
            prop_assert_eq!(forward_rows, 0);
        } else {
            let ball = serve_oracle::full_ball(&bundle, &frozen, &roots, &limits);
            let within = |h: usize| ball.members.partition_point(|&(_, hop)| hop as usize <= h);
            let keep: Vec<usize> = (0..depth).map(|l| within(depth - 1 - l)).collect();
            prop_assert_eq!(forward_rows, keep.iter().sum::<usize>() as u64);
            let full = model.forward_quantized(&ball.sub, &ball.x);
            let pruned = model.forward_quantized_prefix(&ball.sub, &ball.x, &keep);
            prop_assert_eq!(pruned.rows(), keep[depth - 1]);
            for r in 0..pruned.rows() {
                prop_assert_eq!(
                    f32_bits(pruned.row(r)), f32_bits(full.row(r)),
                    "logit row {} differs at depth {}", r, depth
                );
            }
        }
    }

    /// L-layer SAGE run on the L-hop [`Ball`] of a root set equals the
    /// full-graph pass at the roots bit for bit — the f32 predictions,
    /// the quantized rows, and the loss trajectory and every weight of a
    /// masked fine-tune supervised on the roots. Graphs carry parallel
    /// edges, self-loops and isolates; roots may repeat. Both sides
    /// compute only their row sets; the all-rows oracle test below
    /// guards the row-set lemma itself.
    #[test]
    fn sage_on_the_model_depth_ball_equals_the_full_graph_bitwise(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..90),
        roots in proptest::collection::vec(0usize..40, 1..6),
        depth in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // `k_hop` and the SAGE epochs record spans.
        let _g = obs_lock();
        let csr = lemma_graph(n, &edges);
        let roots: Vec<NodeId> = roots.iter().map(|&r| NodeId::from(r % n)).collect();
        let mut x = lemma_features(seed, n, &roots);
        let cfg = SageConfig {
            l2_normalize: seed % 2 == 0,
            ..SageConfig::new(LEMMA_CODE + LEMMA_CLASSES, 6, depth, LEMMA_CLASSES)
        };
        let mut full = SageModel::new(&mut StdRng::seed_from_u64(seed), cfg);
        let mut local = SageModel::new(&mut StdRng::seed_from_u64(seed), cfg);

        let ball = Ball::new(&csr, &roots, depth as u32);
        let rows: Vec<usize> = ball.members().iter().map(|m| m.index()).collect();
        let mut x_ball = x.gather_rows(&rows);
        let train: Vec<(NodeId, u16)> = roots.iter().map(|&r| (r, lemma_label(r))).collect();
        let train_ball = ball.localise(&train);
        let roots_ball: Vec<NodeId> = train_ball.iter().map(|&(l, _)| l).collect();

        prop_assert_eq!(
            pred_bits(predict_events(&mut full, &csr, &x, &roots)),
            pred_bits(predict_events(&mut local, ball.csr(), &x_ball, &roots_ball)),
            "predict_events differs at depth {}", depth
        );
        let q_full = full.forward_quantized(&csr, &x);
        let q_ball = local.forward_quantized(ball.csr(), &x_ball);
        for (&g, &l) in roots.iter().zip(&roots_ball) {
            prop_assert_eq!(
                f32_bits(q_full.row(g.index())),
                f32_bits(q_ball.row(l.index())),
                "quantized row of root {:?} differs at depth {}", g, depth
            );
        }

        let ft = FineTune { lr: 0.05, epochs: 4 };
        let masking = LabelMasking { offset: LEMMA_CODE, visible_fraction: 0.5 };
        let loss_full =
            fine_tune_masked(&mut StdRng::seed_from_u64(!seed), &mut full, &csr, &mut x, &train, &ft, masking);
        let loss_ball = fine_tune_masked(
            &mut StdRng::seed_from_u64(!seed), &mut local, ball.csr(), &mut x_ball, &train_ball, &ft, masking,
        );
        prop_assert_eq!(f32_bits(&loss_full), f32_bits(&loss_ball), "fine-tune losses differ at depth {}", depth);
        prop_assert_eq!(weight_bits(&full), weight_bits(&local), "fine-tuned weights differ at depth {}", depth);
    }

    /// The edge-weighted row-set forward with every weight at 1 is the
    /// unweighted forward bit for bit (DESIGN.md §10), on the full
    /// multigraph and on the roots' model-depth ball, at depths 1–3,
    /// with and without L2. Graphs carry parallel edges, self-loops and
    /// isolates; roots may repeat.
    #[test]
    fn all_ones_edge_weights_are_the_unweighted_forward_bitwise(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..90),
        roots in proptest::collection::vec(0usize..40, 1..6),
        depth in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // `k_hop` and the forwards record into the registry.
        let _g = obs_lock();
        let csr = lemma_graph(n, &edges);
        let roots: Vec<NodeId> = roots.iter().map(|&r| NodeId::from(r % n)).collect();
        let x = lemma_features(seed, n, &roots);
        let cfg = SageConfig {
            l2_normalize: seed % 2 == 0,
            ..SageConfig::new(LEMMA_CODE + LEMMA_CLASSES, 6, depth, LEMMA_CLASSES)
        };
        let mut model = SageModel::new(&mut StdRng::seed_from_u64(seed), cfg);
        let plain = model.logits_at(&csr, &x, &roots, None);
        let ones = vec![1.0f32; csr.half_edge_count()];
        let weighted = model.logits_at(&csr, &x, &roots, Some(&ones));
        prop_assert_eq!(f32_bits(plain.as_slice()), f32_bits(weighted.as_slice()), "full graph, depth {}", depth);

        let ball = Ball::new(&csr, &roots, depth as u32);
        let x_ball = x.gather_rows(&ball.members().iter().map(|m| m.index()).collect::<Vec<_>>());
        let roots_ball: Vec<NodeId> = roots.iter().map(|&r| ball.local(r).expect("root in its ball")).collect();
        let ones = vec![1.0f32; ball.csr().half_edge_count()];
        let on_ball = model.logits_at(ball.csr(), &x_ball, &roots_ball, Some(&ones));
        prop_assert_eq!(f32_bits(plain.as_slice()), f32_bits(on_ball.as_slice()), "ball, depth {}", depth);
    }

    /// The row-set trainers and predictions equal the all-rows oracle
    /// bit for bit: losses, every weight and the predictions, with
    /// early stopping on a validation set, at depths 1–3, with and
    /// without L2, on multigraphs with self-loops, parallel edges,
    /// isolates and repeated roots. `gnn.rows_computed` counts Σ|row
    /// set| per prediction.
    #[test]
    fn sage_row_sets_equal_the_all_rows_oracle(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..90),
        roots in proptest::collection::vec(0usize..40, 1..7),
        val in proptest::collection::vec(0usize..40, 1..5),
        depth in 1usize..4,
        patience in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // `k_hop`, the epochs and the forwards record into the registry.
        let _g = obs_lock();
        let csr = lemma_graph(n, &edges);
        let pair = |&r: &usize| (NodeId::from(r % n), lemma_label(NodeId::from(r % n)));
        let train: Vec<(NodeId, u16)> = roots.iter().map(pair).collect();
        let val: Vec<(NodeId, u16)> = val.iter().map(pair).collect();
        let train_nodes: Vec<NodeId> = train.iter().map(|&(v, _)| v).collect();
        let mut x = lemma_features(seed, n, &train_nodes);
        let mut x_oracle = x.clone();
        let cfg = SageConfig {
            l2_normalize: seed % 2 == 0,
            ..SageConfig::new(LEMMA_CODE + LEMMA_CLASSES, 6, depth, LEMMA_CLASSES)
        };
        let tc = TrainConfig { lr: 0.05, epochs: 6, patience };
        let masking = LabelMasking { offset: LEMMA_CODE, visible_fraction: 0.5 };

        let rng = || StdRng::seed_from_u64(seed);
        let (mut model, losses) =
            train_sage_masked(&mut rng(), &csr, &mut x, cfg, &train, &val, &tc, masking);
        let (mut oracle, oracle_losses) = train_oracle::train_sage_masked(
            &mut rng(), &csr, &mut x_oracle, cfg, &train, &val, &tc, masking,
        );
        prop_assert_eq!(f32_bits(&losses), f32_bits(&oracle_losses), "training losses, depth {}", depth);
        prop_assert_eq!(weight_bits(&model), weight_bits(&oracle), "trained weights, depth {}", depth);

        let ft = FineTune { lr: 0.05, epochs: 3 };
        let new: Vec<(NodeId, u16)> = val.iter().chain(&train).copied().collect();
        let ft_rng = || StdRng::seed_from_u64(!seed);
        let ft_losses = fine_tune_masked(&mut ft_rng(), &mut model, &csr, &mut x, &new, &ft, masking);
        let oracle_ft_losses = train_oracle::fine_tune_masked(
            &mut ft_rng(), &mut oracle, &csr, &mut x_oracle, &new, &ft, masking,
        );
        prop_assert_eq!(f32_bits(&ft_losses), f32_bits(&oracle_ft_losses), "fine-tune losses, depth {}", depth);
        prop_assert_eq!(weight_bits(&model), weight_bits(&oracle), "fine-tuned weights, depth {}", depth);
        prop_assert_eq!(f32_bits(x.as_slice()), f32_bits(x_oracle.as_slice()), "labels restored");

        let targets: Vec<NodeId> = val.iter().map(|&(v, _)| v).chain(train_nodes).collect();
        let before = trail_obs::snapshot().histogram("gnn.rows_computed").map_or(0, |h| h.sum);
        let preds = predict_events(&mut model, &csr, &x, &targets);
        let after = trail_obs::snapshot().histogram("gnn.rows_computed").map_or(0, |h| h.sum);
        prop_assert_eq!(
            pred_bits(preds),
            pred_bits(train_oracle::predict_events(&mut oracle, &csr, &x, &targets)),
            "predictions, depth {}", depth
        );
        let hops = k_hop(&csr, &targets, depth as u32 - 1);
        let row_sets: usize =
            (0..depth).map(|l| hops.iter().filter(|&&(_, h)| h as usize + l < depth).count()).sum();
        prop_assert_eq!(after - before, row_sets as u64, "gnn.rows_computed");
    }

    /// Label propagation's predictions compute only the rows they read,
    /// and equal the all-rows `propagate` at the targets bit for bit.
    #[test]
    fn label_propagation_predictions_equal_the_all_rows_scores(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..90),
        labelled in proptest::collection::vec((0usize..40, 0usize..3), 0..12),
        targets in proptest::collection::vec(0usize..40, 1..8),
        layers in 0usize..5,
    ) {
        let _g = obs_lock();
        let csr = lemma_graph(n, &edges);
        let mut seeds = vec![None; n];
        for &(v, c) in &labelled {
            seeds[v % n] = Some(c as u16);
        }
        let targets: Vec<NodeId> = targets.iter().map(|&t| NodeId::from(t % n)).collect();
        let lp = LabelPropagation::new(&csr, LEMMA_CLASSES);
        let scores = lp.propagate(&seeds, layers);
        let k = LEMMA_CLASSES;
        let rows: Vec<&[f32]> = targets.iter().map(|t| &scores[t.index() * k..(t.index() + 1) * k]).collect();
        let want_pred: Vec<Option<u16>> = rows
            .iter()
            .map(|row| {
                if row.iter().all(|&x| x <= 0.0) {
                    None
                } else {
                    trail_linalg::vector::argmax(row).map(|c| c as u16)
                }
            })
            .collect();
        prop_assert_eq!(lp.predict(&seeds, layers, &targets), want_pred);
        let want_proba: Vec<Vec<u32>> = rows
            .iter()
            .map(|row| {
                if row.iter().all(|&x| x <= 0.0) {
                    f32_bits(&vec![1.0 / k as f32; k])
                } else {
                    let total: f32 = row.iter().sum();
                    row.iter().map(|&x| (x / total).to_bits()).collect()
                }
            })
            .collect();
        let proba: Vec<Vec<u32>> =
            lp.predict_proba(&seeds, layers, &targets).iter().map(|p| f32_bits(p)).collect();
        prop_assert_eq!(proba, want_proba);
    }

    /// Softmax outputs a probability distribution for any finite input.
    /// Random growth of the feature store between refreshes: new
    /// featured nodes, nodes featured late, nodes never featured,
    /// refreshes with no change, a refitted scaler, and a swap to a
    /// store that does not descend from the last one seen (its last
    /// feature write dropped, and at random a new featured node in its
    /// place). After every refresh the cache equals `compute_codes_with`
    /// bit for bit, encoded exactly the rows the fingerprint sweep finds
    /// dirty, and rebuilt exactly when the scaler or the lineage changed.
    #[test]
    fn code_cache_refresh_equals_compute_codes(
        steps in proptest::collection::vec((0u8..6, 1usize..5, any::<u64>(), any::<bool>()), 1..12),
    ) {
        let cfg = AutoencoderConfig { hidden: 6, code: 3, epochs: 1, batch_size: 4, lr: 1e-3 };
        let mut rng = StdRng::seed_from_u64(11);
        let encoders: Vec<Autoencoder> = IocKind::ALL
            .iter()
            .map(|&k| Autoencoder::new(&mut rng, Tkg::dims_of(k), &cfg))
            .collect();
        let fit = |tkg: &Tkg| -> Vec<SparseScaler> {
            IocKind::ALL
                .iter()
                .map(|&k| SparseScaler::fit(&tkg.featured_nodes(k), Tkg::dims_of(k)))
                .collect()
        };
        let fps = |s: &[SparseScaler]| s.iter().map(SparseScaler::fingerprint).collect::<Vec<_>>();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let mut log: Vec<StoreWrite> = Vec::new();
        let mut tkg = replay_writes(&log);
        let mut scalers = fit(&tkg);
        let mut cache = CodeCache::new();
        let mut sweep = SweepOracle::default();
        let mut expect_rebuild = true;
        // Writes in `log` that the cache has refreshed over.
        let mut seen = 0;
        for (step, &(op, count, seed, refresh)) in steps.iter().enumerate() {
            let mut draw = StdRng::seed_from_u64(seed);
            let mut writes = Vec::new();
            match op {
                0 => {
                    for _ in 0..count {
                        let kind = IOC_NODE_KINDS[draw.gen_range(0..3)];
                        writes.push(StoreWrite::Node(kind, Some(draw.gen())));
                    }
                }
                1 => {
                    let late: Vec<NodeId> = tkg
                        .graph
                        .iter_nodes()
                        .filter(|(id, rec)| rec.kind != NodeKind::Event && !tkg.has_features(*id))
                        .map(|(id, _)| id)
                        .collect();
                    for &id in late.iter().rev().step_by(2).take(count) {
                        writes.push(StoreWrite::Feature(id, draw.gen()));
                    }
                }
                2 => {
                    for _ in 0..count {
                        let kind = [NodeKind::Event, NodeKind::Url, NodeKind::Ip, NodeKind::Domain]
                            [draw.gen_range(0..4)];
                        writes.push(StoreWrite::Node(kind, None));
                    }
                }
                3 => {}
                4 => {
                    let refit = fit(&tkg);
                    expect_rebuild |= fps(&refit) != fps(&scalers);
                    scalers = refit;
                }
                _ => {
                    let featured = |w: &StoreWrite| matches!(w, StoreWrite::Node(_, Some(_)) | StoreWrite::Feature(..));
                    if let Some(i) = log.iter().rposition(featured) {
                        match log[i] {
                            StoreWrite::Node(kind, _) => log[i] = StoreWrite::Node(kind, None),
                            StoreWrite::Feature(..) => { log.remove(i); }
                            StoreWrite::Keyed(..) | StoreWrite::Edge(..) => unreachable!("not featured"),
                        }
                        if draw.gen() {
                            log.push(StoreWrite::Node(NodeKind::Ip, Some(draw.gen())));
                        }
                        tkg = replay_writes(&log);
                        // Dropping a write no refresh saw leaves a descendant.
                        expect_rebuild |= i < seen;
                    }
                }
            }
            for w in writes {
                apply_write(&mut tkg, w);
                log.push(w);
            }
            // Ops 3-5 always refresh: a lineage change left unseen could
            // be grown back into the shape the guard accepts.
            if op < 3 && !refresh && step + 1 < steps.len() {
                continue;
            }
            let (rebuilds, reused) = (cache.full_rebuilds, cache.rows_reused);
            let mut written = cache.refresh(&tkg, &encoders, &scalers, cfg.batch_size);
            let rebuilt = cache.full_rebuilds > rebuilds;
            prop_assert_eq!(rebuilt, expect_rebuild, "step {}", step);
            expect_rebuild = false;
            seen = log.len();
            written.sort_unstable();
            prop_assert_eq!(&written, &sweep.dirty(&tkg, rebuilt), "step {}", step);
            let featured: usize = IocKind::ALL.iter().map(|&k| tkg.featured_nodes(k).len()).sum();
            prop_assert_eq!(cache.rows_reused - reused, (featured - written.len()) as u64);
            let full = compute_codes_with(&tkg, &encoders, &scalers, cfg.batch_size);
            prop_assert_eq!(cache.codes().shape(), full.codes.shape());
            prop_assert_eq!(bits(cache.codes()), bits(&full.codes), "step {}", step);
        }
    }

    /// The store's linked adjacency and arena interner against the
    /// per-node lists and per-key strings they replaced. Replays a random
    /// log of nodes (odd key texts included) and edges (duplicates and
    /// schema violations included), then checks the live store, its
    /// clone, the clone after `rebuild_indices` and the store's TKG2
    /// round trip with [`check_store`]: adjacency in
    /// insertion order, degrees, and every key, the empty and non-ASCII
    /// ones too, found again after the interner's rehashes.
    #[test]
    fn store_adjacency_and_keys_match_the_list_oracle(
        steps in proptest::collection::vec((0u8..8, any::<u64>()), 0..160),
    ) {
        let mut tkg = replay_writes(&[]);
        let mut keys: Vec<(NodeKind, String)> = Vec::new();
        let mut edges: Vec<(NodeId, NodeId, EdgeKind)> = Vec::new();
        for &(op, seed) in &steps {
            let mut draw = StdRng::seed_from_u64(seed);
            let n = tkg.graph.node_count();
            let write = match op {
                0 | 1 => StoreWrite::Node(NodeKind::ALL[draw.gen_range(0..5)], None),
                2 => StoreWrite::Keyed(
                    NodeKind::ALL[draw.gen_range(0..5)],
                    ODD_KEYS[draw.gen_range(0..ODD_KEYS.len())],
                ),
                _ if n == 0 => continue,
                _ => {
                    // Endpoints among the first 8 nodes half the time, so
                    // that some lists grow long; a few tries for a pair
                    // the schema allows.
                    let pick = |draw: &mut StdRng| {
                        let m = if draw.gen() { n.min(8) } else { n };
                        NodeId::from(draw.gen_range(0..m))
                    };
                    let src = pick(&mut draw);
                    let sk = keys[src.index()].0;
                    let mut dst = pick(&mut draw);
                    for _ in 0..4 {
                        if EdgeKind::ALL.iter().any(|k| k.allows(sk, keys[dst.index()].0)) {
                            break;
                        }
                        dst = pick(&mut draw);
                    }
                    let dk = keys[dst.index()].0;
                    // Mostly an edge the schema allows, if any; else any kind.
                    let kind = EdgeKind::ALL
                        .into_iter()
                        .find(|k| k.allows(sk, dk))
                        .filter(|_| draw.gen_range(0..4) != 0)
                        .unwrap_or(EdgeKind::ALL[draw.gen_range(0..6)]);
                    StoreWrite::Edge(src, dst, kind)
                }
            };
            match write {
                StoreWrite::Node(kind, _) => keys.push((kind, format!("n{n}"))),
                StoreWrite::Keyed(kind, key) => {
                    if !keys.iter().any(|(k, t)| *k == kind && t == key) {
                        keys.push((kind, key.to_owned()));
                    }
                }
                StoreWrite::Edge(s, d, kind) => {
                    if kind.allows(keys[s.index()].0, keys[d.index()].0) && !edges.contains(&(s, d, kind)) {
                        edges.push((s, d, kind));
                    }
                }
                StoreWrite::Feature(..) => unreachable!("not drawn"),
            }
            apply_write(&mut tkg, write);
        }
        let g = &tkg.graph;
        check_store("live", g, &keys, &edges);
        let mut copy = g.clone();
        check_store("clone", &copy, &keys, &edges);
        copy.rebuild_indices();
        check_store("relinked clone", &copy, &keys, &edges);
        let decoded = persist::from_bytes(&persist::to_bytes(g)).expect("TKG2 round trip");
        check_store("TKG2", &decoded, &keys, &edges);
    }

    #[test]
    fn softmax_distribution(values in proptest::collection::vec(-50.0f32..50.0, 1..20)) {
        let mut v = values;
        trail_linalg::vector::softmax_inplace(&mut v);
        let sum: f32 = v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Dropping span guards in any order still yields a well-formed
    /// tree: every recorded path's parent is also recorded, and the
    /// total recorded count equals the number of guards opened. This is
    /// the tokened-stack invariant of `trail_obs::span` under non-LIFO
    /// drops (guards moved into collections, early `drop()` calls).
    #[test]
    fn span_drop_order_yields_well_formed_tree(opens in 1usize..10, drop_seed in 0u64..1000) {
        // The registry is process-global: every test here that
        // records into it holds the same lock.
        let _g = obs_lock();
        let mut guards: Vec<_> = (0..opens).map(|i| trail_obs::span(&format!("s{i}"))).collect();
        let mut state = drop_seed | 1;
        while !guards.is_empty() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (state >> 33) as usize % guards.len();
            drop(guards.swap_remove(idx));
        }
        let snap = trail_obs::snapshot();
        let total: u64 = snap.spans.iter().map(|s| s.count).sum();
        prop_assert_eq!(total as usize, opens, "every guard records exactly once");
        for s in &snap.spans {
            prop_assert!(s.min_ns > 0 && s.min_ns <= s.max_ns && s.max_ns <= s.total_ns);
            if let Some((parent, _)) = s.path.rsplit_once('/') {
                prop_assert!(snap.span(parent).is_some(), "orphan span path {}", &s.path);
            }
        }
    }

    /// Histogram bucket counts always sum to the number of
    /// observations, and the sum field to their exact total, for any
    /// observation sequence (standalone histogram — no registry).
    #[test]
    fn histogram_counts_sum_to_observations(values in proptest::collection::vec(0u64..5000, 0..100)) {
        let h = trail_obs::Histogram::new(&[10, 100, 1000]);
        for &v in &values {
            h.observe(v);
        }
        let counts = h.bucket_counts();
        prop_assert_eq!(counts.len(), 4, "bounds+1 buckets");
        prop_assert_eq!(counts.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        // Each bucket holds exactly the values in its range.
        let expect_first = values.iter().filter(|&&v| v <= 10).count() as u64;
        let expect_last = values.iter().filter(|&&v| v > 1000).count() as u64;
        prop_assert_eq!(counts[0], expect_first);
        prop_assert_eq!(counts[3], expect_last);
    }

    /// Canonicalisation is idempotent: re-parsing a key's canonical
    /// text — under any mix of case, trailing-dot and defang noise on
    /// the way in — reproduces the identical key.
    #[test]
    fn iockey_canonicalisation_idempotent(label in "[a-z][a-z0-9]{1,10}", tld in "(com|net|org|ru)", noise in 0u8..8) {
        let canonical = format!("{label}.{tld}");
        let mut raw = canonical.clone();
        if noise & 1 != 0 { raw = raw.to_uppercase(); }
        if noise & 2 != 0 { raw.push('.'); }
        if noise & 4 != 0 { raw = raw.replace('.', "[.]"); }
        let key = IocKey::parse(IocKind::Domain, &raw).expect("noisy domain parses");
        prop_assert_eq!(key.text(), canonical.as_str());
        let again = IocKey::parse(key.kind(), key.text()).expect("canonical text re-parses");
        prop_assert_eq!(&again, &key, "IocKey::parse is not idempotent for {:?}", &raw);
        prop_assert_eq!(&IocKey::detect(key.text()).expect("canonical text detects"), &key);

        let mut url_host = canonical.clone();
        if noise & 1 != 0 { url_host = url_host.to_uppercase(); }
        if noise & 4 != 0 { url_host = url_host.replace('.', "[.]"); }
        let url_raw = format!("hxxp://{url_host}/x1");
        let ukey = IocKey::parse(IocKind::Url, &url_raw).expect("noisy url parses");
        prop_assert_eq!(ukey.text(), format!("http://{canonical}/x1").as_str());
        prop_assert_eq!(&IocKey::parse(ukey.kind(), ukey.text()).expect("url re-parses"), &ukey);
    }

    /// Liveness: from *any* interleaving of faults and successes, a
    /// breaker re-closes once the feed heals, within the bounded number
    /// of healthy calls implied by its thresholds. An outage can slow
    /// the pipeline down but never wedge it permanently.
    #[test]
    fn breaker_recloses_after_any_fault_sequence(
        outcomes in proptest::collection::vec(any::<bool>(), 0..200),
        threshold in 1u32..6,
        cooldown in 1u32..10,
        probes in 1u32..4,
    ) {
        // Breaker transitions bump `osint.breaker.*` counters.
        let _g = obs_lock();
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_rejections: cooldown,
            half_open_successes: probes,
        });
        for fault in outcomes {
            if b.admit() {
                if fault { b.record_fault() } else { b.record_success() }
            }
        }
        // Heal the feed. Worst case the breaker sits freshly Open:
        // `cooldown` rejected admissions to reach Half-Open, then
        // `probes` successful probes to close.
        let bound = cooldown + probes + 1;
        for _ in 0..bound {
            if b.state() == BreakerState::Closed {
                break;
            }
            if b.admit() {
                b.record_success();
            }
        }
        prop_assert_eq!(b.state(), BreakerState::Closed, "breaker wedged after healing");
    }

    /// A fully dead feed can starve enrichment but never lie about it:
    /// whatever the breaker thresholds, every analysis ends as a
    /// retried-then-abandoned transient miss or a breaker rejection.
    /// `missed_permanent` is reserved for feeds that *answered* with a
    /// gap, and rejections happen before any lookup.
    #[test]
    fn dead_feed_never_reports_permanent_gaps(
        threshold in 1u32..6,
        cooldown in 1u32..10,
        probes in 1u32..4,
    ) {
        // The enrichment path emits `trail_obs` metrics as a side
        // effect; serialize with the other registry users.
        let _g = obs_lock();
        let mut cfg = WorldConfig::tiny(7);
        cfg.transient_fault_prob = 1.0;
        let mut client = OsintClient::new(Arc::new(World::generate(cfg)));
        client.set_breaker(Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_rejections: cooldown,
            half_open_successes: probes,
        })));
        let registry = AptRegistry::new(client.world().config.n_apts);
        let cutoff = client.world().config.cutoff_day;
        let (events, _) = collect(&client.events_before(cutoff), &registry);
        prop_assert!(!events.is_empty());
        let mut tkg = Tkg::new(registry);
        let enricher = Enricher::new(&client, cutoff);
        let mut stats = IngestStats::default();
        for e in &events {
            stats.absorb(&enricher.ingest(&mut tkg, e));
        }
        prop_assert_eq!(stats.missed_permanent, 0, "dead feed misreported a permanent gap: {:?}", &stats);
        prop_assert!(stats.breaker_rejected > 0, "breaker never tripped on a dead feed: {:?}", &stats);
        prop_assert_eq!(
            stats.missed_transient + stats.breaker_rejected,
            stats.first_order + stats.secondary,
            "an analysis escaped the transient-or-rejected dichotomy: {:?}", &stats
        );
        prop_assert_eq!(stats.linked, 0, "a dead feed linked an indicator: {:?}", &stats);
    }
}

/// Cases the `counted_property` below has run.
static COUNTED_CASES: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]
    // No `#[test]`: only `property_runs_its_configured_cases_per_call`
    // calls it.
    fn counted_property(_x in 0u8..4) {
        COUNTED_CASES.fetch_add(1, Ordering::Relaxed);
    }
}

/// A property in a `proptest!` block runs its configured number of
/// cases per call, and the block registers no test of its own: were
/// `counted_property` a test too, the harness could run it into the
/// same counter.
#[test]
fn property_runs_its_configured_cases_per_call() {
    counted_property();
    assert_eq!(COUNTED_CASES.load(Ordering::Relaxed), 5);
}
