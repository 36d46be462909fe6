//! The two-hop enrichment pipeline (paper Section IV-A/B).
//!
//! For every reported (first-order) IOC we request an analysis from the
//! intelligence exchange. The analysis yields features (encoded into
//! the TKG feature store) and *secondary IOCs* — IPs behind domains,
//! historic domains behind IPs, ASNs, the domains URLs are hosted on.
//! Secondary IOCs are analysed too (their own features and edges back
//! into the graph) but their relational output is not expanded further:
//! "due to time and space constraints, we limit it to two hops from the
//! initial event."
//!
//! Identity discipline: relational strings arrive in whatever spelling
//! the feed uses (mixed case, trailing dots, defanged). Every string is
//! parsed into its canonical [`IocKey`](trail_ioc::IocKey) before it
//! touches the graph — both for upserts and for the depth-2 "already
//! present?" lookups — so a noisy spelling can never orphan an edge or
//! split a node.
//!
//! Failure discipline: analysis queries distinguish *permanent* gaps
//! (`Ok(None)` — the exchange has no record) from *transient* faults
//! (`Err` — rate-limit/timeout; a retry may succeed). The enricher
//! retries transient faults up to [`RetryPolicy::max_attempts`] with
//! exponential backoff, and [`IngestStats`] accounts for every outcome.
//!
//! ## One query, one record, one apply
//!
//! Every analysis, whatever the IOC's kind, runs the same two steps. A
//! pure **query** step issues [`OsintClient::try_analyze`] under the
//! retry policy and keeps the answer as a `QueryRecord`: the retry cost
//! and, on success, the links the analysis names (target IOC, edge
//! kind, and whether it is a domain's hosted URL: the one link that
//! points at the analysed node and is made only while expanding),
//! the IP's ASN, the count of relational strings that parsed as no IOC,
//! and the encoded features. A graph-mutating **apply** step charges
//! the cost and makes the links in order. The only kind-specific
//! enrichment outside the record is lexical: a URL is linked to its
//! host domain before its analysis is queried.
//!
//! The query step depends only on the canonical key (outcomes, fault
//! schedules and gaps are all deterministic per key and attempt), never
//! on graph state; only the apply step changes the graph.

use trail_graph::{EdgeKind, NodeId, NodeKind};
use trail_ioc::{Analysis, Ioc, IocKind};
use trail_osint::{OsintClient, OsintError};

use crate::collector::CollectedEvent;
use crate::sparse::SparseVec;
use crate::tkg::Tkg;

/// Bounded retry with exponential backoff for transient OSINT faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per analysis query (>= 1; 1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff_ms << (n - 1)`. The
    /// exchange is in-process, so the delay is accounted, not slept.
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// Backoff budget charged before retry attempt `attempt` (1-based
    /// over retries: the first *re*try is attempt 1).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_backoff_ms << attempt.saturating_sub(1).min(16)
    }
}

/// Enrichment pipeline over an OSINT client.
pub struct Enricher<'a> {
    client: &'a OsintClient,
    /// Analyses are requested "as of" this day (the TKG build date).
    pub asof_day: u32,
    /// Retry policy for transient analysis faults.
    pub retry: RetryPolicy,
}

/// What one event ingestion touched, with the full outcome taxonomy of
/// the analysis queries it issued.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// First-order IOC nodes attached.
    pub first_order: usize,
    /// Secondary IOC nodes discovered.
    pub secondary: usize,
    /// Edges added.
    pub edges: usize,
    /// Depth-2 relational references that resolved (by canonical
    /// identity) to a node already in the graph and linked to it.
    pub linked: usize,
    /// Analyses that returned no record — the exchange answered and the
    /// answer was "nothing"; retrying cannot help.
    pub missed_permanent: usize,
    /// Analyses abandoned because every attempt faulted transiently.
    pub missed_transient: usize,
    /// Transient faults that were retried (attempts beyond the first).
    pub retried: usize,
    /// Analyses rejected by the client's circuit breaker before they
    /// reached the feed (abandoned without retrying — the breaker must
    /// cool down first).
    pub breaker_rejected: usize,
    /// Relational strings that failed to parse as any IOC.
    pub dropped_unparseable: usize,
    /// Total simulated backoff charged by retries, in milliseconds.
    pub backoff_ms: u64,
}

impl IngestStats {
    /// Accumulate another event's stats into this one.
    pub fn absorb(&mut self, other: &IngestStats) {
        self.first_order += other.first_order;
        self.secondary += other.secondary;
        self.edges += other.edges;
        self.linked += other.linked;
        self.missed_permanent += other.missed_permanent;
        self.missed_transient += other.missed_transient;
        self.retried += other.retried;
        self.breaker_rejected += other.breaker_rejected;
        self.dropped_unparseable += other.dropped_unparseable;
        self.backoff_ms += other.backoff_ms;
    }

    /// Fraction of analysis queries that failed for *recoverable*
    /// reasons (transient outage or breaker rejection) — 0.0 on a
    /// healthy feed, approaching 1.0 when the feed is fully dead.
    /// Permanent gaps are excluded: the feed answered, the answer was
    /// "nothing", and a healthier run would see the same gap. This is
    /// the score attribution carries alongside results built on a
    /// partial TKG.
    pub fn degradation(&self) -> f64 {
        let queries = self.first_order + self.secondary;
        if queries == 0 {
            return 0.0;
        }
        (self.missed_transient + self.breaker_rejected) as f64 / queries as f64
    }
}

/// Terminal outcome of one fallible analysis query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryOutcome {
    /// The analysis succeeded on some attempt.
    Success,
    /// The exchange answered "no record"; retrying cannot help.
    PermanentMiss,
    /// Every admitted attempt faulted transiently.
    TransientMiss,
    /// The circuit breaker shed the query before it reached the feed.
    BreakerRejected,
}

/// Retry accounting of one query: what [`Enricher`] charged on the way
/// to the terminal outcome. Charged into an event's [`IngestStats`] at
/// apply time.
#[derive(Debug, Clone, Copy)]
struct QueryCost {
    retried: usize,
    backoff_ms: u64,
    outcome: QueryOutcome,
}

impl QueryCost {
    fn charge(&self, stats: &mut IngestStats) {
        stats.retried += self.retried;
        stats.backoff_ms += self.backoff_ms;
        match self.outcome {
            QueryOutcome::Success => {}
            QueryOutcome::PermanentMiss => stats.missed_permanent += 1,
            QueryOutcome::TransientMiss => stats.missed_transient += 1,
            QueryOutcome::BreakerRejected => stats.breaker_rejected += 1,
        }
    }
}

/// One link an analysis names, from the analysed IOC's node.
#[derive(Debug)]
struct Link {
    /// The IOC at the other end, parsed to its canonical identity.
    target: Ioc,
    kind: EdgeKind,
    /// True for a domain's hosted URL, the one incoming link: its edge
    /// runs from the URL to the domain, and it is made only while
    /// expanding (depth 1). Every other link leaves the analysed node
    /// and is made at every depth.
    hosted: bool,
}

/// Parsed output of a successful analysis.
#[derive(Debug, Default)]
struct Payload {
    /// The IP's ASN (whois): linked first, at every depth.
    asn: Option<u32>,
    /// The links, in the order they are applied.
    links: Vec<Link>,
    /// Relational strings that parsed as no IOC, counted at every depth.
    dropped: usize,
    /// Hosted-URL strings that parsed as no IOC, counted only while
    /// expanding (as their links are made only then).
    dropped_hosted: usize,
    features: Option<SparseVec>,
}

impl Payload {
    /// Parse `texts` as `kind` IOCs into links of edge kind `edge`.
    fn push_links(&mut self, kind: IocKind, texts: &[String], edge: EdgeKind, hosted: bool) {
        self.links.reserve(texts.len());
        for text in texts {
            match Ioc::parse_as(kind, text) {
                Ok(target) => self.links.push(Link {
                    target,
                    kind: edge,
                    hosted,
                }),
                Err(_) if hosted => self.dropped_hosted += 1,
                Err(_) => self.dropped += 1,
            }
        }
    }
}

/// Result of one analysis query, before it touches the graph.
#[derive(Debug)]
struct QueryRecord {
    cost: QueryCost,
    payload: Option<Payload>,
}

impl<'a> Enricher<'a> {
    /// New enricher querying analyses as of `asof_day`, with the
    /// default retry policy.
    pub fn new(client: &'a OsintClient, asof_day: u32) -> Self {
        Self::with_retry(client, asof_day, RetryPolicy::default())
    }

    /// New enricher with an explicit retry policy.
    pub fn with_retry(client: &'a OsintClient, asof_day: u32, retry: RetryPolicy) -> Self {
        Self {
            client,
            asof_day,
            retry,
        }
    }

    /// Ingest one collected event: create the event node, attach
    /// first-order IOCs, run two-hop enrichment, store features.
    pub fn ingest(&self, tkg: &mut Tkg, event: &CollectedEvent) -> IngestStats {
        let _ingest = trail_obs::span("enrich.ingest");
        let mut stats = IngestStats::default();
        let event_node = tkg.graph.upsert_node(NodeKind::Event, &event.report.id);
        tkg.add_event(
            event_node,
            &event.report.id,
            event.report.created_day,
            event.apt,
        );

        // Pass 1: first-order nodes + InReport edges.
        let mut first_order: Vec<(NodeId, Ioc)> = Vec::with_capacity(event.report.iocs.len());
        {
            let _pass = trail_obs::span("attach");
            for ioc in &event.report.iocs {
                let node = tkg.upsert_ioc_ref(ioc.key_ref());
                tkg.graph.mark_first_order(node);
                if tkg
                    .graph
                    .add_edge(event_node, node, EdgeKind::InReport)
                    .expect("schema")
                {
                    stats.edges += 1;
                }
                stats.first_order += 1;
                first_order.push((node, ioc.clone()));
            }
        }

        // Pass 2: analyse first-order IOCs; collect secondary IOCs.
        let mut secondary: Vec<(NodeId, Ioc)> = Vec::new();
        {
            let _pass = trail_obs::span("depth1");
            for (node, ioc) in &first_order {
                self.enrich(tkg, *node, ioc, true, &mut secondary, &mut stats);
            }
        }

        // Pass 3: analyse secondary IOCs — features plus edges to nodes
        // already present; no further expansion.
        let mut sink: Vec<(NodeId, Ioc)> = Vec::new();
        {
            let _pass = trail_obs::span("depth2");
            for (node, ioc) in &secondary {
                self.enrich(tkg, *node, ioc, false, &mut sink, &mut stats);
            }
        }
        stats.secondary = secondary.len();
        stats
    }

    /// Run one fallible analysis query under the retry policy,
    /// returning the retry cost alongside the result.
    ///
    /// Outcome taxonomy (exactly one per query):
    /// * `Ok(Some)` — success; stop.
    /// * `Ok(None)` — permanent gap; retrying cannot help, stop.
    /// * transient `Err` — retry with backoff until the attempt cap,
    ///   then a transient miss.
    /// * non-transient `Err` (breaker rejection) — abandoned
    ///   immediately, since retrying against an open breaker is exactly
    ///   the load it exists to shed.
    fn run_query<T>(
        &self,
        mut attempt_fn: impl FnMut(u32) -> Result<Option<T>, OsintError>,
    ) -> (QueryCost, Option<T>) {
        let max = self.retry.max_attempts.max(1);
        let mut cost = QueryCost {
            retried: 0,
            backoff_ms: 0,
            outcome: QueryOutcome::TransientMiss,
        };
        let mut result = None;
        let mut attempts: u64 = 0;
        'attempts: for attempt in 0..max {
            if attempt > 0 {
                cost.retried += 1;
                let backoff = self.retry.backoff_ms(attempt);
                cost.backoff_ms += backoff;
                trail_obs::observe(
                    "enrich.retry_backoff_ms",
                    trail_obs::bounds::BACKOFF_MS,
                    backoff,
                );
            }
            attempts += 1;
            match attempt_fn(attempt) {
                Ok(Some(t)) => {
                    cost.outcome = QueryOutcome::Success;
                    result = Some(t);
                    break 'attempts;
                }
                Ok(None) => {
                    cost.outcome = QueryOutcome::PermanentMiss;
                    break 'attempts;
                }
                Err(e) if e.is_transient() => {
                    if attempt + 1 == max {
                        cost.outcome = QueryOutcome::TransientMiss;
                        break 'attempts;
                    }
                }
                Err(_) => {
                    cost.outcome = QueryOutcome::BreakerRejected;
                    break 'attempts;
                }
            }
        }
        trail_obs::observe(
            "enrich.attempts_per_query",
            trail_obs::bounds::ATTEMPTS,
            attempts,
        );
        (cost, result)
    }

    /// Analyse one IOC and apply the record: features, plus the links
    /// the analysis names. `expand` is true at depth 1, where linked
    /// IOCs become secondary nodes; at depth 2 only nodes already in
    /// the graph are linked (the two-hop cap).
    fn enrich(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        ioc: &Ioc,
        expand: bool,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
    ) {
        // Lexical relation, no lookup needed: a URL is HostedOn its domain.
        if let Ioc::Url(url) = ioc {
            if let Some(domain) = url.hosted_domain() {
                let link = Link {
                    target: Ioc::Domain(domain.clone()),
                    kind: EdgeKind::HostedOn,
                    hosted: false,
                };
                self.link(tkg, node, &link, expand, secondary, stats);
            }
        }
        let rec = self.query(!tkg.has_features(node), tkg, ioc);
        self.apply(tkg, node, expand, rec, secondary, stats);
    }

    /// Pure query step for one IOC: analysis under retries, linked
    /// IOCs parsed, features encoded. Depends only on the canonical key
    /// (and `asof_day`), never on graph state; `tkg` lends its encoders.
    fn query(&self, want_features: bool, tkg: &Tkg, ioc: &Ioc) -> QueryRecord {
        let (cost, analysis) = self.run_query(|attempt| {
            self.client
                .try_analyze(ioc.key_ref(), self.asof_day, attempt)
        });
        let payload = analysis.map(|a| {
            let mut p = Payload::default();
            // Each `push_links`: target kind, strings, edge kind, and
            // whether the strings are a domain's hosted URLs.
            let features = match (ioc, &a) {
                (Ioc::Url(url), Analysis::Url(a)) => {
                    let edge = EdgeKind::UrlResolvesTo;
                    p.push_links(IocKind::Ip, &a.resolved_ips, edge, false);
                    want_features.then(|| tkg.url_encoder.encode(url, a))
                }
                (Ioc::Domain(domain), Analysis::Domain(a)) => {
                    let edge = EdgeKind::DomainResolvesTo;
                    p.push_links(IocKind::Ip, &a.resolved_ips, edge, false);
                    // Secondary URLs from the domain's url_list.
                    let edge = EdgeKind::HostedOn;
                    p.push_links(IocKind::Url, &a.hosted_urls, edge, true);
                    want_features.then(|| tkg.domain_encoder.encode(domain, a))
                }
                (Ioc::Ip(ip), Analysis::Ip(a)) => {
                    p.asn = a.asn;
                    let edge = EdgeKind::ARecord;
                    p.push_links(IocKind::Domain, &a.historic_domains, edge, false);
                    want_features.then(|| tkg.ip_encoder.encode(ip, a))
                }
                _ => unreachable!("a {:?} query answered another kind", ioc.kind()),
            };
            p.features = features.map(|dense| SparseVec::from_dense(&dense));
            p
        });
        QueryRecord { cost, payload }
    }

    /// Graph-mutating apply step for a query record. The record holds
    /// features only when `node` had none at query time, and nothing
    /// between query and apply writes features.
    fn apply(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        expand: bool,
        rec: QueryRecord,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
    ) {
        rec.cost.charge(stats);
        let Some(p) = rec.payload else {
            return;
        };
        // ASN node (whois/dig output) — cheap metadata, always linked.
        if let Some(asn) = p.asn {
            let asn_node = tkg.graph.upsert_node(NodeKind::Asn, &format!("AS{asn}"));
            if tkg
                .graph
                .add_edge(node, asn_node, EdgeKind::InGroup)
                .expect("schema")
            {
                stats.edges += 1;
            }
        }
        for link in p.links.iter().filter(|l| expand || !l.hosted) {
            self.link(tkg, node, link, expand, secondary, stats);
        }
        stats.dropped_unparseable += p.dropped;
        if expand {
            stats.dropped_unparseable += p.dropped_hosted;
        }
        if let Some(f) = p.features {
            tkg.set_features(node, f);
        }
    }

    /// Make one link from `node`. Expanding, the target is upserted and
    /// queued for depth-2 analysis the first time it appears in this
    /// event. Otherwise the two-hop cap applies: the target is looked
    /// up by canonical identity, a missing node is expected (not an
    /// error) and a found one counts as `linked`.
    fn link(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        link: &Link,
        expand: bool,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
    ) {
        let key = link.target.key_ref();
        let target = if expand {
            let (target, is_new) = tkg.upsert_ioc_full(key);
            if is_new {
                secondary.push((target, link.target.clone()));
            }
            target
        } else {
            let Some(target) = tkg.find_ioc_ref(key) else {
                return;
            };
            stats.linked += 1;
            target
        };
        let (src, dst) = if link.hosted {
            (target, node)
        } else {
            (node, target)
        };
        if tkg.graph.add_edge(src, dst, link.kind).expect("schema") {
            stats.edges += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{collect, AptRegistry};
    use std::sync::Arc;
    use trail_osint::{World, WorldConfig};

    fn setup() -> (OsintClient, Vec<CollectedEvent>) {
        setup_with(|_| {})
    }

    fn setup_with(f: impl FnOnce(&mut WorldConfig)) -> (OsintClient, Vec<CollectedEvent>) {
        let mut cfg = WorldConfig::tiny(31);
        f(&mut cfg);
        let world = Arc::new(World::generate(cfg));
        let client = OsintClient::new(world);
        let reports = client.events_before(client.world().config.cutoff_day);
        let registry = AptRegistry::new(client.world().config.n_apts);
        let (events, _) = collect(&reports, &registry);
        (client, events)
    }

    #[test]
    fn ingest_builds_connected_event_subgraph() {
        let (client, events) = setup();
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        let stats = enricher.ingest(&mut tkg, &events[0]);
        assert!(stats.first_order > 0);
        assert!(stats.edges >= stats.first_order);
        let e = tkg.event_by_report(&events[0].report.id).unwrap();
        assert!(tkg.graph.degree(e.node) == stats.first_order);
    }

    #[test]
    fn enrichment_discovers_secondary_iocs() {
        let (client, events) = setup();
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        let mut total_secondary = 0;
        for e in events.iter().take(10) {
            total_secondary += enricher.ingest(&mut tkg, e).secondary;
        }
        assert!(
            total_secondary > 0,
            "no secondary IOCs found across 10 events"
        );
        // Secondary nodes are not first-order.
        let some_secondary = tkg
            .graph
            .iter_nodes()
            .any(|(_, n)| !n.first_order() && matches!(n.kind, NodeKind::Ip | NodeKind::Domain));
        assert!(some_secondary);
    }

    #[test]
    fn repeated_ingest_of_shared_iocs_is_idempotent_on_edges() {
        let (client, events) = setup();
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        for e in events.iter().take(20) {
            enricher.ingest(&mut tkg, e);
        }
        // No duplicate (src, dst, kind) edges can exist by construction;
        // verify via a scan.
        let mut seen = std::collections::HashSet::new();
        for e in tkg.graph.edges() {
            assert!(seen.insert((e.src, e.dst, e.kind)), "duplicate edge {e:?}");
        }
    }

    #[test]
    fn features_are_stored_for_analysable_iocs() {
        let (client, events) = setup();
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        for e in events.iter().take(15) {
            enricher.ingest(&mut tkg, e);
        }
        let n_featured = tkg.featured_nodes(trail_ioc::IocKind::Ip).len()
            + tkg.featured_nodes(trail_ioc::IocKind::Url).len()
            + tkg.featured_nodes(trail_ioc::IocKind::Domain).len();
        assert!(n_featured > 10, "only {n_featured} featured nodes");
    }

    #[test]
    fn url_hosted_on_edges_exist() {
        let (client, events) = setup();
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        for e in events.iter().take(20) {
            enricher.ingest(&mut tkg, e);
        }
        let has = |kind| tkg.graph.edges().iter().any(|e| e.kind == kind);
        assert!(has(EdgeKind::HostedOn), "no HostedOn edges");
        assert!(has(EdgeKind::InGroup), "no InGroup (ASN) edges");
    }

    #[test]
    fn taxonomy_counts_permanent_misses_and_links() {
        let (client, events) = setup();
        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        let mut total = IngestStats::default();
        for e in events.iter().take(20) {
            total.absorb(&enricher.ingest(&mut tkg, e));
        }
        // miss prob is 10% → some analyses gap out permanently; with no
        // fault injection nothing is transient and nothing retries.
        assert!(total.missed_permanent > 0, "no permanent misses at p=0.1");
        assert_eq!(total.missed_transient, 0);
        assert_eq!(total.retried, 0);
        assert_eq!(total.breaker_rejected, 0);
        assert_eq!(total.backoff_ms, 0);
        // Permanent gaps do not count as degradation: the feed answered.
        assert_eq!(total.degradation(), 0.0);
        // Depth-2 references do resolve against existing nodes.
        assert!(total.linked > 0, "no depth-2 links formed");
    }

    #[test]
    fn transient_faults_retry_and_converge_to_the_clean_graph() {
        let build = |fault_prob: f32, max_attempts: u32| {
            let (client, events) = setup_with(|cfg| cfg.transient_fault_prob = fault_prob);
            let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
            let retry = RetryPolicy {
                max_attempts,
                ..RetryPolicy::default()
            };
            let enricher = Enricher::with_retry(&client, client.world().config.cutoff_day, retry);
            let mut total = IngestStats::default();
            for e in events.iter().take(20) {
                total.absorb(&enricher.ingest(&mut tkg, e));
            }
            (tkg, total)
        };
        let (clean_tkg, clean) = build(0.0, 3);
        // With faults and generous retries, every transient fault is
        // eventually retried through and the graph is identical.
        let (faulty_tkg, faulty) = build(0.3, 12);
        assert!(faulty.retried > 0, "30% fault rate triggered no retries");
        assert!(faulty.backoff_ms > 0, "retries charged no backoff");
        assert_eq!(
            faulty.missed_transient, 0,
            "12 attempts did not absorb p=0.3 faults"
        );
        assert_eq!(faulty.missed_permanent, clean.missed_permanent);
        assert_eq!(faulty_tkg.graph.node_count(), clean_tkg.graph.node_count());
        assert_eq!(faulty_tkg.graph.edge_count(), clean_tkg.graph.edge_count());
        // With retries disabled, persistent fault streams become
        // transient misses and the graph can only shrink.
        let (small_tkg, none) = build(0.9, 1);
        assert_eq!(none.retried, 0);
        assert!(
            none.missed_transient > 0,
            "90% faults with no retries missed nothing"
        );
        assert!(small_tkg.graph.edge_count() <= clean_tkg.graph.edge_count());
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 50,
        };
        assert_eq!(retry.backoff_ms(1), 50);
        assert_eq!(retry.backoff_ms(2), 100);
        assert_eq!(retry.backoff_ms(3), 200);
    }

    #[test]
    fn dead_feed_behind_breaker_yields_partial_graph_and_exact_accounting() {
        use trail_osint::{BreakerConfig, CircuitBreaker};
        // Every attempt faults: enrichment must still complete, every
        // query must land in exactly one recoverable-failure bucket,
        // and the breaker must shed most of the load.
        let mut cfg = WorldConfig::tiny(31);
        cfg.transient_fault_prob = 1.0;
        let world = Arc::new(World::generate(cfg));
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
        let mut client = OsintClient::new(world);
        client.set_breaker(Arc::clone(&breaker));
        let reports = client.events_before(client.world().config.cutoff_day);
        let registry = AptRegistry::new(client.world().config.n_apts);
        let (events, _) = collect(&reports, &registry);

        let mut tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let enricher = Enricher::new(&client, client.world().config.cutoff_day);
        let mut total = IngestStats::default();
        for e in events.iter().take(20) {
            total.absorb(&enricher.ingest(&mut tkg, e));
        }
        // The TKG is partial but well-formed: events and first-order
        // IOCs attached even though no analysis ever succeeded.
        assert!(total.first_order > 0);
        assert!(tkg.graph.node_count() > 0);
        assert!(tkg.graph.edge_count() >= total.first_order);
        // Exact accounting: every query failed recoverably, none
        // permanently (the fault fires before the gap check).
        assert_eq!(total.missed_permanent, 0);
        assert!(
            total.breaker_rejected > 0,
            "breaker never shed load on a dead feed"
        );
        assert!(
            total.missed_transient > 0,
            "no admitted query faulted through"
        );
        assert_eq!(
            total.missed_transient + total.breaker_rejected,
            total.first_order + total.secondary,
            "some query is unaccounted for"
        );
        assert_eq!(total.degradation(), 1.0);
    }

    #[test]
    fn degradation_score_is_a_query_weighted_ratio() {
        let s = IngestStats {
            first_order: 6,
            secondary: 2,
            missed_transient: 1,
            breaker_rejected: 1,
            ..IngestStats::default()
        };
        assert!((s.degradation() - 0.25).abs() < 1e-12);
        assert_eq!(IngestStats::default().degradation(), 0.0);
    }

    #[test]
    fn unparseable_strings_of_expand_only_links_count_only_expanding() {
        // The simulated feed never prints an unparseable string, so
        // the dropped-string accounting is pinned on a hand-made record.
        let client = OsintClient::new(Arc::new(World::fixture()));
        let enricher = Enricher::new(&client, 0);
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let record = || {
            let mut p = Payload::default();
            let resolved = strings(&["not an ip", "192.0.2.7"]);
            p.push_links(IocKind::Ip, &resolved, EdgeKind::DomainResolvesTo, false);
            let hosted = strings(&["no scheme here", "http://b.example/x"]);
            p.push_links(IocKind::Url, &hosted, EdgeKind::HostedOn, true);
            assert_eq!((p.links.len(), p.dropped, p.dropped_hosted), (2, 1, 1));
            QueryRecord {
                cost: QueryCost {
                    retried: 0,
                    backoff_ms: 0,
                    outcome: QueryOutcome::Success,
                },
                payload: Some(p),
            }
        };
        let domain = Ioc::parse_as(IocKind::Domain, "a.example").unwrap();
        for (expand, dropped, edges, queued) in [(false, 1, 0, 0), (true, 2, 2, 2)] {
            let mut tkg = Tkg::new(AptRegistry::new(3));
            let node = tkg.upsert_ioc_ref(domain.key_ref());
            let mut secondary = Vec::new();
            let mut stats = IngestStats::default();
            enricher.apply(&mut tkg, node, expand, record(), &mut secondary, &mut stats);
            assert_eq!(stats.dropped_unparseable, dropped, "expand={expand}");
            assert_eq!(stats.edges, edges, "expand={expand}");
            assert_eq!(secondary.len(), queued, "expand={expand}");
        }
    }
}
