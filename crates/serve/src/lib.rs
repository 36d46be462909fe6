//! `trail-serve` — attribution-as-a-service over a frozen TKG.
//!
//! The batch pipeline (`repro`) builds a world, trains, and exits; the
//! paper's end goal is attributing *fresh* incidents against the
//! already-built knowledge graph. This crate is that online half:
//!
//! * [`bundle::ServeBundle`] — an immutable, checksummed snapshot of a
//!   trained system (graph + events + codes + SAGE weights) in the
//!   TSB1 frame format, written atomically like TKG2/TSC1 snapshots.
//! * [`runtime::ServeRuntime`] — a concurrent in-process request
//!   runtime on the shared worker pool: circuit-breaker admission,
//!   deterministic per-worker model replicas, per-request latency
//!   histograms and exactly-reconciling outcome counters.
//! * [`loadgen`] — a seeded deterministic load generator plus the
//!   outcome totals and response fingerprint of a replayed batch.
//!
//! The serving invariant: the query path is strictly read-only against
//! the bundle, and rankings are a pure function of `(bundle, query)` —
//! independent of the worker count, the replica that served the
//! request, and any concurrent traffic. `tests/serve_test.rs` checks
//! it at widths 1 and 8 and pins the rankings' fingerprint; perfbench
//! times the query path. DESIGN.md §12 documents the architecture.

pub mod bundle;
pub mod loadgen;
pub mod runtime;

pub use bundle::{Attribution, BundleEvent, QueryLimits, ServeBundle};
pub use loadgen::{LevelReport, LoadMix};
pub use runtime::{Outcome, Query, Response, RuntimeConfig, ServeRuntime};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::Arc;
    use trail::collector::AptRegistry;
    use trail::freeze::FrozenModel;
    use trail::Tkg;
    use trail_gnn::{SageConfig, SageModel};
    use trail_graph::{EdgeKind, NodeKind, PersistError};
    use trail_ioc::{IocKey, IocKind};
    use trail_linalg::Matrix;
    use trail_osint::{BreakerConfig, CircuitBreaker};

    /// A tiny hand-built TKG: two labelled events sharing IOCs, plus an
    /// unrelated third event, over 3 classes.
    fn tiny_tkg() -> Tkg {
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
        tkg
    }

    /// An (untrained but deterministic) frozen model fitting `tiny_tkg`.
    fn tiny_frozen(tkg: &Tkg) -> FrozenModel {
        let code_dim = 4;
        let n = tkg.graph.node_count();
        let mut codes = Matrix::zeros(n, code_dim);
        for i in 0..n {
            for j in 0..code_dim {
                codes.row_mut(i)[j] = (i * code_dim + j) as f32 * 0.01;
            }
        }
        let cfg = SageConfig::new(code_dim + 5 + tkg.n_classes(), 8, 2, tkg.n_classes());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let model = SageModel::new(&mut rng, cfg);
        let layers = model
            .weights()
            .iter()
            .map(|(r, n, b)| ((*r).clone(), (*n).clone(), (*b).clone()))
            .collect();
        FrozenModel {
            codes,
            code_dim,
            sage_cfg: cfg,
            layers,
        }
    }

    fn tiny_bundle() -> ServeBundle {
        let tkg = tiny_tkg();
        let frozen = tiny_frozen(&tkg);
        ServeBundle::freeze(&tkg, &frozen).expect("valid bundle")
    }

    fn key(kind: IocKind, raw: &str) -> IocKey {
        IocKey::parse(kind, raw).unwrap()
    }

    #[test]
    fn bundle_roundtrips_bitwise() {
        let b = tiny_bundle();
        let bytes = b.to_bytes();
        let b2 = ServeBundle::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(b2.to_bytes(), bytes);
        assert_eq!(b2.events(), b.events());
        assert_eq!(b2.class_names(), b.class_names());
        assert_eq!(b2.sage_config(), b.sage_config());
    }

    #[test]
    fn save_load_roundtrips_via_disk() {
        let b = tiny_bundle();
        let dir = std::env::temp_dir().join(format!("tsb1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.tsb");
        b.save(&path).expect("save");
        let b2 = ServeBundle::load(&path).expect("load");
        assert_eq!(b2.to_bytes(), b.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_frames_are_rejected_with_typed_errors() {
        let bytes = tiny_bundle().to_bytes();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ServeBundle::from_bytes(&bad),
            Err(PersistError::BadMagic { .. })
        ));
        // Version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            ServeBundle::from_bytes(&bad),
            Err(PersistError::UnsupportedVersion { found: 99 })
        ));
        // Truncation at every prefix of the header.
        for cut in [0usize, 3, 8, 23] {
            assert!(matches!(
                ServeBundle::from_bytes(&bytes[..cut]),
                Err(PersistError::TooShort { .. })
            ));
        }
        // Hostile length field, validated before any slicing.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ServeBundle::from_bytes(&bad),
            Err(PersistError::Truncated { want: u64::MAX, .. })
        ));
        // Payload bit flips: checksum catches every one.
        for &at in &[24usize, 100, 1000] {
            let mut bad = bytes.clone();
            if at < bad.len() {
                bad[at] ^= 0x10;
                assert!(
                    matches!(
                        ServeBundle::from_bytes(&bad),
                        Err(PersistError::ChecksumMismatch { .. })
                    ),
                    "flip at {at}"
                );
            }
        }
        // Truncated payload.
        assert!(matches!(
            ServeBundle::from_bytes(&bytes[..bytes.len() - 1]),
            Err(PersistError::Truncated { .. })
        ));
    }

    /// The `l2_normalize` byte decodes strictly, like every flag: a
    /// checksum-valid bundle carrying 2 there is malformed.
    #[test]
    fn non_boolean_l2_flag_is_rejected() {
        let tkg = tiny_tkg();
        let mut bytes = ServeBundle::freeze(&tkg, &tiny_frozen(&tkg))
            .unwrap()
            .to_bytes();
        let mut layers = Vec::new();
        trail::freeze::put_layers(&mut layers, &tiny_frozen(&tkg).layers);
        let at = bytes.len() - layers.len() - 1;
        assert_eq!(bytes[at], 1, "the flag precedes the layer list");
        bytes[at] = 2;
        let checksum = trail_ioc::fnv1a(&bytes[24..]);
        bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            ServeBundle::from_bytes(&bytes),
            Err(PersistError::Malformed {
                what: "sage.l2_normalize",
                ..
            })
        ));
    }

    #[test]
    fn attribution_favours_the_reporting_apt_neighbourhood() {
        let b = tiny_bundle();
        let mut model = b.instantiate_model();
        let limits = QueryLimits::default();
        let a = b.attribute(&mut model, &[key(IocKind::Ip, "1.1.1.1")], &limits);
        assert_eq!(a.matched, 1);
        assert!(a.members >= 3, "ego net spans the shared events");
        assert_eq!(a.events, 2, "both class-0 events are in radius 2");
        assert_eq!(a.ranked.len(), 3);
        let total: f32 = a.ranked.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-4, "scores normalise, got {total}");
        // Unknown IOCs attribute to nothing.
        let none = b.attribute(&mut model, &[key(IocKind::Ip, "203.0.113.9")], &limits);
        assert_eq!(none.matched, 0);
        assert!(none.ranked.is_empty());
    }

    #[test]
    fn attribution_is_a_pure_function_of_the_query() {
        let b = tiny_bundle();
        let limits = QueryLimits::default();
        let q = vec![
            key(IocKind::Ip, "1.1.1.1"),
            key(IocKind::Domain, "apt.example"),
        ];
        let mut m1 = b.instantiate_model();
        let mut m2 = b.instantiate_model();
        let a1 = b.attribute(&mut m1, &q, &limits);
        // Interleave an unrelated query on m2 — scratch state must not leak.
        let _ = b.attribute(&mut m2, &[key(IocKind::Ip, "2.2.2.2")], &limits);
        let a2 = b.attribute(&mut m2, &q, &limits);
        assert_eq!(a1, a2, "bitwise-identical across replicas and history");
    }

    /// Tied scores rank by ascending class id. A last layer of zero
    /// weights and bias (the i8 quantizer maps an all-zero row to scale
    /// 0) gives every member zero logits, so every class scores
    /// exactly `1/k`.
    #[test]
    fn tied_scores_rank_by_ascending_class_id() {
        let tkg = tiny_tkg();
        let mut frozen = tiny_frozen(&tkg);
        let (root, neigh, bias) = frozen.layers.last_mut().expect("a last layer");
        for w in [root, neigh, bias] {
            *w = Matrix::zeros(w.rows(), w.cols());
        }
        let b = ServeBundle::freeze(&tkg, &frozen).expect("valid bundle");
        let mut model = b.instantiate_model();
        let q = [key(IocKind::Ip, "1.1.1.1")];
        let a = b.attribute(&mut model, &q, &QueryLimits::default());
        let k = tkg.n_classes();
        assert_eq!(k, 3);
        let third = a.ranked[0].1;
        assert!((third - 1.0 / k as f32).abs() < 1e-6, "score {third}");
        assert!(
            a.ranked
                .iter()
                .all(|&(_, s)| s.to_bits() == third.to_bits()),
            "scores must tie exactly: {:?}",
            a.ranked
        );
        let ids: Vec<u16> = a.ranked.iter().map(|&(c, _)| c).collect();
        assert_eq!(ids, vec![0, 1, 2], "ties rank by ascending class id");
    }

    #[test]
    fn member_cap_truncates_deterministically() {
        let b = tiny_bundle();
        let mut model = b.instantiate_model();
        let q = [key(IocKind::Ip, "1.1.1.1")];
        let capped = QueryLimits {
            radius: 2,
            max_members: 2,
        };
        let a = b.attribute(&mut model, &q, &capped);
        assert_eq!(a.members, 2);
        let again = b.attribute(&mut model, &q, &capped);
        assert_eq!(a, again);
    }

    #[test]
    fn runtime_sheds_load_while_breaker_is_open_and_recovers() {
        let bundle = Arc::new(tiny_bundle());
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_rejections: 2,
            half_open_successes: 1,
        }));
        let rt = ServeRuntime::new(bundle, breaker, RuntimeConfig::default());
        let good = Query::new(vec![key(IocKind::Ip, "1.1.1.1")]);
        // Trip the breaker.
        assert!(matches!(
            rt.handle(&Query::poison()).outcome,
            Outcome::Failed(_)
        ));
        // Cooldown: rejections, no graph work.
        assert!(matches!(rt.handle(&good).outcome, Outcome::Rejected));
        assert!(matches!(rt.handle(&good).outcome, Outcome::Rejected));
        // Half-open probe succeeds and re-closes.
        assert!(matches!(rt.handle(&good).outcome, Outcome::Ranked(_)));
        assert!(matches!(rt.handle(&good).outcome, Outcome::Ranked(_)));
    }

    #[test]
    fn concurrent_installs_get_distinct_consecutive_generations() {
        let bundle = Arc::new(tiny_bundle());
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
        let rt = ServeRuntime::new(Arc::clone(&bundle), breaker, RuntimeConfig::default());
        let (threads, per_thread) = (4, 6);
        let start = std::sync::Barrier::new(threads);
        let mut gens: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..per_thread)
                            .map(|_| rt.install(Arc::clone(&bundle)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("installer"))
                .collect()
        });
        let n = (threads * per_thread) as u64;
        gens.sort_unstable();
        assert_eq!(gens, (1..=n).collect::<Vec<_>>(), "numbers are distinct");
        let ledger: Vec<u64> = rt.generation_stats().iter().map(|&(g, _)| g).collect();
        assert_eq!(
            ledger,
            (0..=n).collect::<Vec<_>>(),
            "one ledger entry each, in order"
        );
        assert_eq!(rt.generation(), n);
    }

    #[test]
    fn loadgen_is_deterministic_for_a_seed() {
        let bundle = Arc::new(tiny_bundle());
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
        let rt = ServeRuntime::new(bundle, breaker, RuntimeConfig::default());
        let mix = LoadMix {
            queries: 40,
            iocs_per_query: 3,
            ..Default::default()
        };
        let a = loadgen::generate(&rt, &mix);
        let b = loadgen::generate(&rt, &mix);
        assert_eq!(a.len(), 40);
        for (qa, qb) in a.iter().zip(&b) {
            assert_eq!(qa.iocs, qb.iocs);
            assert_eq!(qa.poison, qb.poison);
        }
        let other = loadgen::generate(&rt, &LoadMix { seed: 999, ..mix });
        assert!(a.iter().zip(&other).any(|(x, y)| x.iocs != y.iocs));
    }
}
