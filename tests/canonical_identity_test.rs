//! Canonical IOC identity regression suite.
//!
//! The invariants under test:
//! 1. Variant spellings of one indicator (case, trailing dots,
//!    defanging) resolve to ONE graph node via [`IocKey`].
//! 2. Feed-presentation noise is invisible to the built TKG: a maximally
//!    noisy feed produces the bitwise-identical graph to a clean feed.
//!    Before the canonical-identity fix, depth-2 enrichment looked
//!    nodes up by *raw* analysis text, so noisy spellings silently
//!    dropped ARecord/UrlResolvesTo/HostedOn edges — this suite fails
//!    on that build.
//! 3. Injected transient faults are deterministic per (key, attempt),
//!    so retried ingestion converges to the clean graph, same seed →
//!    same graph.

use std::sync::Arc;

use trail::collector::{collect, AptRegistry};
use trail::enrich::{Enricher, IngestStats, RetryPolicy};
use trail::system::TrailSystem;
use trail::tkg::Tkg;
use trail_ioc::{Analysis, Ioc, IocKey, IocKind};
use trail_osint::{OsintClient, World, WorldConfig};

fn system_with(seed: u64, tweak: impl FnOnce(&mut WorldConfig)) -> TrailSystem {
    let mut cfg = WorldConfig::tiny(seed);
    tweak(&mut cfg);
    let client = OsintClient::new(Arc::new(World::generate(cfg)));
    let cutoff = client.world().config.cutoff_day;
    TrailSystem::build(client, cutoff)
}

/// A node as (kind, key).
type NodeText = (String, String);
/// An edge as (source key, destination key, kind).
type EdgeText = (String, String, String);

/// Order-independent structural fingerprint of a TKG: sorted node
/// (kind, key) pairs plus sorted key-addressed edge triples. Two graphs
/// with equal fingerprints are the same graph up to insertion order.
fn fingerprint(tkg: &Tkg) -> (Vec<NodeText>, Vec<EdgeText>) {
    let mut nodes: Vec<NodeText> = tkg
        .graph
        .iter_nodes()
        .map(|(id, n)| (format!("{:?}", n.kind), tkg.graph.key(id).to_string()))
        .collect();
    nodes.sort();
    let mut edges: Vec<EdgeText> = tkg
        .graph
        .edges()
        .iter()
        .map(|e| {
            (
                tkg.graph.key(e.src).to_string(),
                tkg.graph.key(e.dst).to_string(),
                format!("{:?}", e.kind),
            )
        })
        .collect();
    edges.sort();
    (nodes, edges)
}

#[test]
fn variant_spellings_upsert_and_find_one_node() {
    let mut tkg = Tkg::new(AptRegistry::new(4));
    // Domain: mixed case, trailing dot, defanged — one identity.
    let variants = [
        "EXAMPLE.Com.",
        "example[.]com",
        "  example.com  ",
        "ExAmPlE.CoM",
    ];
    let keys: Vec<IocKey> = variants
        .iter()
        .map(|v| IocKey::parse(IocKind::Domain, v).expect("parses"))
        .collect();
    let first = tkg.upsert_ioc(&keys[0]);
    for key in &keys {
        assert_eq!(tkg.upsert_ioc(key), first, "{key} split the node");
        assert_eq!(tkg.find_ioc(key), Some(first), "{key} not found");
    }
    // The same canonicalisation covers IPs and URLs.
    let ip_a = tkg.upsert_ioc(&IocKey::parse(IocKind::Ip, "192[.]168[.]0[.]1").unwrap());
    let ip_b = tkg.upsert_ioc(&IocKey::parse(IocKind::Ip, "192.168.0.1").unwrap());
    assert_eq!(ip_a, ip_b);
    let url_a = tkg.upsert_ioc(&IocKey::parse(IocKind::Url, "hxxp://EVIL[.]com/p?q=1").unwrap());
    let url_b = tkg.upsert_ioc(&IocKey::parse(IocKind::Url, "http://evil.com/p?q=1").unwrap());
    assert_eq!(url_a, url_b);
    // Same text under a different kind is a different node.
    assert_eq!(tkg.graph.node_count(), 3);
}

#[test]
fn key_of_parsed_ioc_round_trips_through_the_graph() {
    let mut tkg = Tkg::new(AptRegistry::new(4));
    let ioc = Ioc::detect("hxxps://Staging[.]Example[.]com:8443/drop").expect("parses");
    let id = tkg.upsert_ioc(&ioc.key());
    // Re-derive the key from a differently-defanged spelling.
    let again = IocKey::detect("https://staging.example.com:8443/drop").expect("parses");
    assert_eq!(tkg.find_ioc(&again), Some(id));
}

#[test]
fn noisy_feed_builds_the_identical_graph_to_a_clean_feed() {
    let clean = system_with(620, |c| c.feed_noise = 0.0);
    let noisy = system_with(620, |c| c.feed_noise = 1.0);
    let (clean_nodes, clean_edges) = fingerprint(&clean.tkg);
    let (noisy_nodes, noisy_edges) = fingerprint(&noisy.tkg);
    assert!(!clean_edges.is_empty());
    assert_eq!(clean_nodes, noisy_nodes, "feed noise altered the node set");
    assert_eq!(
        clean_edges, noisy_edges,
        "feed noise dropped or altered edges"
    );
    // Depth-2 linking did happen under full noise.
    assert!(
        noisy.ingest_stats.linked > 0,
        "no depth-2 links under a noisy feed"
    );
    assert_eq!(clean.ingest_stats, noisy.ingest_stats);
}

#[test]
fn noisy_client_actually_emits_noncanonical_text() {
    // Separate vacuity check: with feed_noise = 1.0 every relational
    // string the client returns is re-presented in a non-canonical
    // spelling, so the test above genuinely exercises the fix.
    let mut cfg = WorldConfig::tiny(620);
    cfg.feed_noise = 1.0;
    let client = OsintClient::new(Arc::new(World::generate(cfg)));
    let day = client.world().config.cutoff_day;
    let mut noisy_strings = 0usize;
    let mut total = 0usize;
    for report in client.events_before(day) {
        let parsed = report.parse();
        for ioc in &parsed.iocs {
            if let Ioc::Domain(_) = ioc {
                let analysis = client
                    .try_analyze(ioc.key_ref(), day, 0)
                    .expect("no faults at p=0 and no breaker");
                if let Some(Analysis::Domain(a)) = analysis {
                    for ip in &a.resolved_ips {
                        total += 1;
                        if IocKey::parse(IocKind::Ip, ip)
                            .map(|k| k.text() != ip)
                            .unwrap_or(true)
                        {
                            noisy_strings += 1;
                        }
                    }
                }
            }
        }
        if total >= 25 {
            break;
        }
    }
    assert!(total > 0, "no domain analyses resolved any IPs");
    assert_eq!(
        noisy_strings, total,
        "feed_noise=1.0 left canonical spellings"
    );
}

#[test]
fn fault_injection_is_deterministic_and_recorded() {
    let a = system_with(621, |c| c.transient_fault_prob = 0.3);
    let b = system_with(621, |c| c.transient_fault_prob = 0.3);
    assert_eq!(
        fingerprint(&a.tkg),
        fingerprint(&b.tkg),
        "same seed, different graphs"
    );
    assert_eq!(a.ingest_stats, b.ingest_stats);
    assert!(
        a.ingest_stats.retried > 0,
        "0.3 fault rate produced no retries"
    );
    assert!(a.ingest_stats.backoff_ms > 0, "retries charged no backoff");
    // At 0.35 the default three attempts run out on some queries.
    let heavy = system_with(7101, |c| c.transient_fault_prob = 0.35);
    assert!(
        !heavy.tkg.events.is_empty(),
        "fault fixture ingested nothing"
    );
    assert!(
        heavy.ingest_stats.missed_transient > 0,
        "fault fixture never faulted: {:?}",
        heavy.ingest_stats
    );
}

#[test]
fn generous_retries_converge_to_the_clean_graph() {
    let clean = system_with(622, |c| c.transient_fault_prob = 0.0);
    // Same world, heavy faults, but a retry budget deep enough that the
    // chance of a query faulting on every attempt is negligible.
    let mut cfg = WorldConfig::tiny(622);
    cfg.transient_fault_prob = 0.35;
    let client = OsintClient::new(Arc::new(World::generate(cfg)));
    let cutoff = client.world().config.cutoff_day;
    let registry = AptRegistry::new(client.world().config.n_apts);
    let reports = client.events_before(cutoff);
    let (events, _) = collect(&reports, &registry);
    let mut tkg = Tkg::new(registry);
    let mut stats = IngestStats::default();
    let retry = RetryPolicy {
        max_attempts: 12,
        base_backoff_ms: 1,
    };
    let enricher = Enricher::with_retry(&client, cutoff, retry);
    for event in &events {
        stats.absorb(&enricher.ingest(&mut tkg, event));
    }
    assert!(stats.retried > 0, "0.35 fault rate produced no retries");
    assert_eq!(
        stats.missed_transient, 0,
        "12 attempts still abandoned a query"
    );
    assert_eq!(
        fingerprint(&clean.tkg),
        fingerprint(&tkg),
        "retried graph diverged from clean"
    );
}
