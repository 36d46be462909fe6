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
//! ## Query/apply split
//!
//! Internally every analysis is factored into a pure **query** step —
//! issue the lookup under the retry policy, parse the relational
//! strings, encode features — and a graph-mutating **apply** step. The
//! query step depends only on the canonical key (outcomes, fault
//! schedules and gaps are all deterministic per key and attempt), never
//! on graph state, so its result can be memoised in a `QueryMap` and
//! replayed later. The sequential path runs query-then-apply inline;
//! the sharded build (`crate::shard`) computes the query maps in
//! parallel and replays them through the *same* apply code, which is
//! why it is bitwise-identical to the sequential build.

use std::collections::HashMap;

use trail_graph::{EdgeKind, NodeId, NodeKind};
use trail_ioc::domain::DomainIoc;
use trail_ioc::ip::IpIoc;
use trail_ioc::url::UrlIoc;
use trail_ioc::{Ioc, IocKeyRef};
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

    /// The taxonomy as a JSON object (what `BENCH_repro.json` records
    /// per stage).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "first_order": self.first_order,
            "secondary": self.secondary,
            "edges": self.edges,
            "linked": self.linked,
            "missed_permanent": self.missed_permanent,
            "missed_transient": self.missed_transient,
            "retried": self.retried,
            "breaker_rejected": self.breaker_rejected,
            "dropped_unparseable": self.dropped_unparseable,
            "backoff_ms": self.backoff_ms,
        })
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
/// apply time; all fields are commutative adds, so replaying a memoised
/// cost yields the same totals as the live query.
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

/// Parsed relational output of a successful URL analysis.
#[derive(Debug)]
struct UrlPayload {
    resolved: Vec<IpIoc>,
    dropped: usize,
    features: Option<SparseVec>,
}

/// Memoisable result of one URL analysis query.
#[derive(Debug)]
pub(crate) struct UrlRecord {
    cost: QueryCost,
    payload: Option<UrlPayload>,
}

/// Parsed relational output of a successful domain analysis.
#[derive(Debug)]
struct DomainPayload {
    resolved: Vec<IpIoc>,
    dropped_resolved: usize,
    hosted: Vec<UrlIoc>,
    dropped_hosted: usize,
    features: Option<SparseVec>,
}

/// Memoisable result of one domain analysis query.
#[derive(Debug)]
pub(crate) struct DomainRecord {
    cost: QueryCost,
    payload: Option<DomainPayload>,
}

/// Parsed relational output of a successful IP analysis.
#[derive(Debug)]
struct IpPayload {
    asn: Option<u32>,
    historic: Vec<DomainIoc>,
    dropped: usize,
    features: Option<SparseVec>,
}

/// Memoisable result of one IP analysis query.
#[derive(Debug)]
pub(crate) struct IpRecord {
    cost: QueryCost,
    payload: Option<IpPayload>,
}

/// One shard's memoised analysis results, keyed by canonical IOC text.
/// Query outcomes are pure per key (see the module docs), so a record
/// computed by any worker equals the record the sequential walk would
/// have produced at any position.
#[derive(Debug, Default)]
pub(crate) struct QueryMap {
    urls: HashMap<String, UrlRecord>,
    domains: HashMap<String, DomainRecord>,
    ips: HashMap<String, IpRecord>,
}

impl QueryMap {
    /// Number of memoised analyses across all kinds.
    #[allow(dead_code)] // exercised by the record/replay tests
    pub(crate) fn len(&self) -> usize {
        self.urls.len() + self.domains.len() + self.ips.len()
    }
}

/// How [`Enricher`] sources its analysis queries during an ingest.
pub(crate) enum QueryLog<'m> {
    /// Compute every query live (the plain sequential path).
    Live,
    /// Compute live, memoising one record per canonical key — the
    /// shard workers' mode. Repeat keys are served from the map, which
    /// is both the dedup win and provably outcome-identical.
    Record(&'m mut QueryMap),
    /// Serve queries from a prepared map; a miss falls back to a live
    /// query, which is identical by purity (the merge replay mode).
    Replay(&'m QueryMap),
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
        self.ingest_logged(tkg, event, &mut QueryLog::Live)
    }

    /// [`Self::ingest`] with an explicit query source (see [`QueryLog`]).
    pub(crate) fn ingest_logged(
        &self,
        tkg: &mut Tkg,
        event: &CollectedEvent,
        log: &mut QueryLog<'_>,
    ) -> IngestStats {
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
                match ioc {
                    Ioc::Url(url) => {
                        self.enrich_url(tkg, *node, url, true, &mut secondary, &mut stats, log)
                    }
                    Ioc::Domain(d) => {
                        self.enrich_domain(tkg, *node, d, true, &mut secondary, &mut stats, log)
                    }
                    Ioc::Ip(ip) => {
                        self.enrich_ip(tkg, *node, ip, true, &mut secondary, &mut stats, log)
                    }
                }
            }
        }

        // Pass 3: analyse secondary IOCs — features plus edges to nodes
        // already present; no further expansion.
        let mut sink: Vec<(NodeId, Ioc)> = Vec::new();
        {
            let _pass = trail_obs::span("depth2");
            for (node, ioc) in &secondary {
                match ioc {
                    Ioc::Domain(d) => {
                        self.enrich_domain(tkg, *node, d, false, &mut sink, &mut stats, log)
                    }
                    Ioc::Ip(ip) => {
                        self.enrich_ip(tkg, *node, ip, false, &mut sink, &mut stats, log)
                    }
                    Ioc::Url(url) => {
                        self.enrich_url(tkg, *node, url, false, &mut sink, &mut stats, log)
                    }
                }
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

    /// Resolve a depth-2 relational reference against the graph by
    /// canonical identity. The two-hop cap means a missing node is
    /// expected (not an error); a found node counts as `linked`.
    fn find_linked(
        &self,
        tkg: &Tkg,
        key: IocKeyRef<'_>,
        stats: &mut IngestStats,
    ) -> Option<NodeId> {
        let found = tkg.find_ioc_ref(key);
        if found.is_some() {
            stats.linked += 1;
        }
        found
    }

    /// Pure query step for one URL: analysis under retries, children
    /// parsed, features encoded. Depends only on the canonical key (and
    /// `asof_day`), never on graph state.
    fn query_url(
        &self,
        want_features: bool,
        encoder: &trail_ioc::features::UrlEncoder,
        url: &UrlIoc,
    ) -> UrlRecord {
        let (cost, analysis) = self.run_query(|attempt| {
            self.client
                .try_analyze_url(&url.text, self.asof_day, attempt)
        });
        let payload = analysis.map(|a| {
            let mut resolved = Vec::with_capacity(a.resolved_ips.len());
            let mut dropped = 0;
            for ip_text in &a.resolved_ips {
                match IpIoc::parse(ip_text) {
                    Ok(ip) => resolved.push(ip),
                    Err(_) => dropped += 1,
                }
            }
            let features = want_features.then(|| SparseVec::from_dense(&encoder.encode(url, &a)));
            UrlPayload {
                resolved,
                dropped,
                features,
            }
        });
        UrlRecord { cost, payload }
    }

    /// Pure query step for one domain (see [`Self::query_url`]).
    fn query_domain(
        &self,
        want_features: bool,
        encoder: &trail_ioc::features::DomainEncoder,
        domain: &DomainIoc,
    ) -> DomainRecord {
        let (cost, analysis) = self.run_query(|attempt| {
            self.client
                .try_analyze_domain(&domain.text, self.asof_day, attempt)
        });
        let payload = analysis.map(|a| {
            let mut resolved = Vec::with_capacity(a.resolved_ips.len());
            let mut dropped_resolved = 0;
            for ip_text in &a.resolved_ips {
                match IpIoc::parse(ip_text) {
                    Ok(ip) => resolved.push(ip),
                    Err(_) => dropped_resolved += 1,
                }
            }
            let mut hosted = Vec::with_capacity(a.hosted_urls.len());
            let mut dropped_hosted = 0;
            for u_text in &a.hosted_urls {
                match UrlIoc::parse(u_text) {
                    Ok(u) => hosted.push(u),
                    Err(_) => dropped_hosted += 1,
                }
            }
            let features =
                want_features.then(|| SparseVec::from_dense(&encoder.encode(domain, &a)));
            DomainPayload {
                resolved,
                dropped_resolved,
                hosted,
                dropped_hosted,
                features,
            }
        });
        DomainRecord { cost, payload }
    }

    /// Pure query step for one IP (see [`Self::query_url`]).
    fn query_ip(
        &self,
        want_features: bool,
        encoder: &trail_ioc::features::IpEncoder,
        ip: &IpIoc,
    ) -> IpRecord {
        let (cost, analysis) =
            self.run_query(|attempt| self.client.try_analyze_ip(&ip.text, self.asof_day, attempt));
        let payload = analysis.map(|a| {
            let mut historic = Vec::with_capacity(a.historic_domains.len());
            let mut dropped = 0;
            for d_text in &a.historic_domains {
                match DomainIoc::parse(d_text) {
                    Ok(d) => historic.push(d),
                    Err(_) => dropped += 1,
                }
            }
            let features = want_features.then(|| SparseVec::from_dense(&encoder.encode(ip, &a)));
            IpPayload {
                asn: a.asn,
                historic,
                dropped,
                features,
            }
        });
        IpRecord { cost, payload }
    }

    /// Graph-mutating apply step for a URL query result.
    fn apply_url(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        expand: bool,
        rec: &UrlRecord,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
    ) {
        rec.cost.charge(stats);
        let Some(p) = &rec.payload else {
            return;
        };
        for ip in &p.resolved {
            let ioc = Ioc::Ip(ip.clone());
            let ip_node = if expand {
                Some(self.secondary_node(tkg, ioc, secondary))
            } else {
                self.find_linked(tkg, ioc.key_ref(), stats)
            };
            if let Some(ip_node) = ip_node {
                if tkg
                    .graph
                    .add_edge(node, ip_node, EdgeKind::UrlResolvesTo)
                    .expect("schema")
                {
                    stats.edges += 1;
                }
            }
        }
        stats.dropped_unparseable += p.dropped;
        if let Some(f) = &p.features {
            if !tkg.has_features(node) {
                tkg.set_features(node, f.clone());
            }
        }
    }

    /// Graph-mutating apply step for a domain query result.
    fn apply_domain(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        expand: bool,
        rec: &DomainRecord,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
    ) {
        rec.cost.charge(stats);
        let Some(p) = &rec.payload else {
            return;
        };
        for ip in &p.resolved {
            let ioc = Ioc::Ip(ip.clone());
            let ip_node = if expand {
                Some(self.secondary_node(tkg, ioc, secondary))
            } else {
                // Two-hop cap: only link to IPs already in the graph.
                self.find_linked(tkg, ioc.key_ref(), stats)
            };
            if let Some(ip_node) = ip_node {
                if tkg
                    .graph
                    .add_edge(node, ip_node, EdgeKind::DomainResolvesTo)
                    .expect("schema")
                {
                    stats.edges += 1;
                }
            }
        }
        stats.dropped_unparseable += p.dropped_resolved;
        // Secondary URLs from the domain's url_list (expansion only).
        if expand {
            for u in &p.hosted {
                let u_node = self.secondary_node(tkg, Ioc::Url(u.clone()), secondary);
                if tkg
                    .graph
                    .add_edge(u_node, node, EdgeKind::HostedOn)
                    .expect("schema")
                {
                    stats.edges += 1;
                }
            }
            stats.dropped_unparseable += p.dropped_hosted;
        }
        if let Some(f) = &p.features {
            if !tkg.has_features(node) {
                tkg.set_features(node, f.clone());
            }
        }
    }

    /// Graph-mutating apply step for an IP query result.
    fn apply_ip(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        expand: bool,
        rec: &IpRecord,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
    ) {
        rec.cost.charge(stats);
        let Some(p) = &rec.payload else {
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
        for d in &p.historic {
            let ioc = Ioc::Domain(d.clone());
            let d_node = if expand {
                Some(self.secondary_node(tkg, ioc, secondary))
            } else {
                self.find_linked(tkg, ioc.key_ref(), stats)
            };
            if let Some(d_node) = d_node {
                if tkg
                    .graph
                    .add_edge(node, d_node, EdgeKind::ARecord)
                    .expect("schema")
                {
                    stats.edges += 1;
                }
            }
        }
        stats.dropped_unparseable += p.dropped;
        if let Some(f) = &p.features {
            if !tkg.has_features(node) {
                tkg.set_features(node, f.clone());
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enrich_url(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        url: &UrlIoc,
        expand: bool,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
        log: &mut QueryLog<'_>,
    ) {
        // Lexical relation, no lookup needed: HostedOn.
        if let Some(domain) = url.hosted_domain() {
            let ioc = Ioc::Domain(domain.clone());
            let d_node = if expand {
                Some(self.secondary_node(tkg, ioc, secondary))
            } else {
                self.find_linked(tkg, ioc.key_ref(), stats)
            };
            if let Some(d_node) = d_node {
                if tkg
                    .graph
                    .add_edge(node, d_node, EdgeKind::HostedOn)
                    .expect("schema")
                {
                    stats.edges += 1;
                }
            }
        }
        match log {
            QueryLog::Live => {
                let rec = self.query_url(!tkg.has_features(node), &tkg.url_encoder, url);
                self.apply_url(tkg, node, expand, &rec, secondary, stats);
            }
            QueryLog::Record(map) => {
                if !map.urls.contains_key(&url.text) {
                    let rec = self.query_url(true, &tkg.url_encoder, url);
                    map.urls.insert(url.text.clone(), rec);
                }
                let rec = &map.urls[&url.text];
                self.apply_url(tkg, node, expand, rec, secondary, stats);
            }
            QueryLog::Replay(map) => match map.urls.get(&url.text) {
                Some(rec) => self.apply_url(tkg, node, expand, rec, secondary, stats),
                None => {
                    let rec = self.query_url(true, &tkg.url_encoder, url);
                    self.apply_url(tkg, node, expand, &rec, secondary, stats);
                }
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enrich_domain(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        domain: &DomainIoc,
        expand: bool,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
        log: &mut QueryLog<'_>,
    ) {
        match log {
            QueryLog::Live => {
                let rec = self.query_domain(!tkg.has_features(node), &tkg.domain_encoder, domain);
                self.apply_domain(tkg, node, expand, &rec, secondary, stats);
            }
            QueryLog::Record(map) => {
                if !map.domains.contains_key(&domain.text) {
                    let rec = self.query_domain(true, &tkg.domain_encoder, domain);
                    map.domains.insert(domain.text.clone(), rec);
                }
                let rec = &map.domains[&domain.text];
                self.apply_domain(tkg, node, expand, rec, secondary, stats);
            }
            QueryLog::Replay(map) => match map.domains.get(&domain.text) {
                Some(rec) => self.apply_domain(tkg, node, expand, rec, secondary, stats),
                None => {
                    let rec = self.query_domain(true, &tkg.domain_encoder, domain);
                    self.apply_domain(tkg, node, expand, &rec, secondary, stats);
                }
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enrich_ip(
        &self,
        tkg: &mut Tkg,
        node: NodeId,
        ip: &IpIoc,
        expand: bool,
        secondary: &mut Vec<(NodeId, Ioc)>,
        stats: &mut IngestStats,
        log: &mut QueryLog<'_>,
    ) {
        match log {
            QueryLog::Live => {
                let rec = self.query_ip(!tkg.has_features(node), &tkg.ip_encoder, ip);
                self.apply_ip(tkg, node, expand, &rec, secondary, stats);
            }
            QueryLog::Record(map) => {
                if !map.ips.contains_key(&ip.text) {
                    let rec = self.query_ip(true, &tkg.ip_encoder, ip);
                    map.ips.insert(ip.text.clone(), rec);
                }
                let rec = &map.ips[&ip.text];
                self.apply_ip(tkg, node, expand, rec, secondary, stats);
            }
            QueryLog::Replay(map) => match map.ips.get(&ip.text) {
                Some(rec) => self.apply_ip(tkg, node, expand, rec, secondary, stats),
                None => {
                    let rec = self.query_ip(true, &tkg.ip_encoder, ip);
                    self.apply_ip(tkg, node, expand, &rec, secondary, stats);
                }
            },
        }
    }

    /// Upsert a secondary IOC node; queue it for depth-2 analysis the
    /// first time it appears in this event.
    fn secondary_node(
        &self,
        tkg: &mut Tkg,
        ioc: Ioc,
        secondary: &mut Vec<(NodeId, Ioc)>,
    ) -> NodeId {
        let (node, is_new) = tkg.upsert_ioc_full(ioc.key_ref());
        if is_new {
            secondary.push((node, ioc));
        }
        node
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
        let hosted = tkg.graph.edge_counts_by_kind()[EdgeKind::HostedOn.index()];
        assert!(hosted > 0, "no HostedOn edges");
        let in_group = tkg.graph.edge_counts_by_kind()[EdgeKind::InGroup.index()];
        assert!(in_group > 0, "no InGroup (ASN) edges");
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
        let json = total.to_json();
        assert_eq!(json["linked"].as_u64().unwrap() as usize, total.linked);
        assert_eq!(
            json["missed_permanent"].as_u64().unwrap() as usize,
            total.missed_permanent
        );
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
    fn dead_feed_with_breaker_yields_partial_graph_and_exact_accounting() {
        use trail_osint::{BreakerConfig, CircuitBreaker};
        // Every attempt faults: enrichment must still complete, every
        // query must land in exactly one recoverable-failure bucket,
        // and the breaker must shed most of the load.
        let mut cfg = WorldConfig::tiny(31);
        cfg.transient_fault_prob = 1.0;
        let world = Arc::new(World::generate(cfg));
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
        let client = OsintClient::with_breaker(world, Arc::clone(&breaker));
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
        let json = s.to_json();
        assert_eq!(json["breaker_rejected"].as_u64(), Some(1));
    }

    #[test]
    fn record_then_replay_reproduces_the_live_ingest_exactly() {
        // The shard-equivalence contract at its smallest: record every
        // query into a map on one pass, replay the same events through
        // the map on a fresh TKG, and demand identical graphs and stats.
        let (client, events) = setup_with(|cfg| cfg.transient_fault_prob = 0.25);
        let cutoff = client.world().config.cutoff_day;
        let n = events.len().min(25);

        let mut live_tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let live_enricher = Enricher::new(&client, cutoff);
        let mut live_total = IngestStats::default();
        for e in events.iter().take(n) {
            live_total.absorb(&live_enricher.ingest(&mut live_tkg, e));
        }

        let mut map = QueryMap::default();
        {
            let mut scratch = Tkg::new(AptRegistry::new(client.world().config.n_apts));
            let rec_enricher = Enricher::new(&client, cutoff);
            let mut log = QueryLog::Record(&mut map);
            for e in events.iter().take(n) {
                rec_enricher.ingest_logged(&mut scratch, e, &mut log);
            }
        }
        assert!(map.len() > 0, "recording pass memoised nothing");

        let mut replay_tkg = Tkg::new(AptRegistry::new(client.world().config.n_apts));
        let replay_enricher = Enricher::new(&client, cutoff);
        let mut replay_total = IngestStats::default();
        {
            let mut log = QueryLog::Replay(&map);
            for e in events.iter().take(n) {
                replay_total.absorb(&replay_enricher.ingest_logged(&mut replay_tkg, e, &mut log));
            }
        }
        assert_eq!(
            replay_total, live_total,
            "stats taxonomy diverged under replay"
        );
        assert_eq!(replay_tkg.graph.node_count(), live_tkg.graph.node_count());
        assert_eq!(replay_tkg.graph.edge_count(), live_tkg.graph.edge_count());
        let live_bytes = trail_graph::persist::to_bytes(&live_tkg.graph);
        let replay_bytes = trail_graph::persist::to_bytes(&replay_tkg.graph);
        assert_eq!(live_bytes, replay_bytes, "snapshots not bitwise-identical");
    }
}
