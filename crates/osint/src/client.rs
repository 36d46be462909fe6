//! The OTX-like query surface the TRAIL pipeline consumes.
//!
//! Mirrors the paper's data-access pattern (Section IV-A): search for
//! tagged events, then request per-IOC analyses that return both
//! features and relational data (secondary IOCs). One fallible call,
//! [`OsintClient::try_analyze`], analyses every IOC kind. Two kinds
//! of noise are simulated deterministically so repeated runs agree
//! bit-for-bit:
//!
//! * **Permanent gaps** — a fraction of IOCs simply have no analysis
//!   record (`analysis_miss_prob`), decided per canonical key.
//! * **Transient faults** — a fraction of *attempts* fail with a
//!   rate-limit or timeout (`transient_fault_prob`), decided per
//!   canonical key *and* attempt number, so a retry can succeed.
//!
//! Every query is a [`trail_ioc::IocKeyRef`], canonical by
//! construction, so it touches an index as it stands:
//! `ThreeBody[.]CN.` and `threebody.cn` parse to the same key and get
//! the same answer, the same gap and the same fault stream. Relational strings in responses are *presented* the way a
//! messy feed would print them (`feed_noise`) — mixed case, trailing
//! dots, defanged — without changing their identity.

use std::sync::Arc;

use trail_ioc::analysis::{Analysis, DomainAnalysis, IpAnalysis, UrlAnalysis};
use trail_ioc::defang::defang;
use trail_ioc::report::RawReport;
use trail_ioc::{fnv1a, Fnv1a, IocKeyRef, IocKind};

use crate::breaker::CircuitBreaker;
use crate::world::World;

/// Maximum historic domains a passive-DNS query returns per IP —
/// real services page their responses; the paper's two-hop cap plays
/// the same role.
const PDNS_PAGE: usize = 12;

/// A query failure. Unlike a permanent gap (`Ok(None)`), transient
/// variants can succeed on a later attempt; `CircuitOpen` means the
/// client's breaker rejected the query before it reached the feed, and
/// retrying immediately would only be rejected again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsintError {
    /// The exchange throttled this attempt.
    RateLimited,
    /// The attempt timed out.
    Timeout,
    /// The client-side circuit breaker is shedding load.
    CircuitOpen,
}

impl OsintError {
    /// Whether an immediate retry can plausibly succeed. Breaker
    /// rejections are not transient from the caller's perspective:
    /// the breaker must cool down first, so retrying in a tight loop
    /// is exactly the load it exists to shed.
    pub fn is_transient(self) -> bool {
        match self {
            OsintError::RateLimited | OsintError::Timeout => true,
            OsintError::CircuitOpen => false,
        }
    }
}

impl std::fmt::Display for OsintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsintError::RateLimited => f.write_str("rate limited"),
            OsintError::Timeout => f.write_str("timed out"),
            OsintError::CircuitOpen => f.write_str("circuit breaker open"),
        }
    }
}

impl std::error::Error for OsintError {}

/// FNV-1a over the byte stream `"{key}#a{attempt}"` without building
/// the string: equals `fnv1a(&format!("{key}#a{attempt}"))` exactly.
fn fault_hash(key: &str, attempt: u32) -> u64 {
    let mut h = Fnv1a::new();
    h.write(key.as_bytes());
    h.write(b"#a");
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    let mut n = attempt;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    h.write(&digits[i..]);
    h.finish()
}

/// Read-only client over a generated [`World`].
#[derive(Clone)]
pub struct OsintClient {
    world: Arc<World>,
    /// Optional shared circuit breaker guarding the fallible query
    /// surface. `None` (the default) leaves behaviour exactly as before
    /// the breaker existed. Clones share the breaker, so every worker
    /// sees one joint view of feed health.
    breaker: Option<Arc<CircuitBreaker>>,
}

impl OsintClient {
    /// Wrap a world. No breaker: queries are never shed client-side.
    pub fn new(world: Arc<World>) -> Self {
        Self {
            world,
            breaker: None,
        }
    }

    /// Attach (or replace) the circuit breaker.
    pub fn set_breaker(&mut self, breaker: Arc<CircuitBreaker>) {
        self.breaker = Some(breaker);
    }

    /// Borrow the underlying world (ground truth — evaluation only).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Borrowed view of all reports created strictly before `day` (the
    /// main dataset pull). The generator materialises events once; this
    /// streams them out without cloning, so a full-scale build never
    /// duplicates the report set just to read it.
    pub fn reports_before(&self, day: u32) -> impl Iterator<Item = &RawReport> + '_ {
        self.world
            .events
            .iter()
            .filter(move |e| e.day < day)
            .map(|e| &e.report)
    }

    /// Borrowed view of reports with `lo <= day < hi` (monthly study
    /// batches), no cloning.
    pub fn reports_between(&self, lo: u32, hi: u32) -> impl Iterator<Item = &RawReport> + '_ {
        self.world
            .events
            .iter()
            .filter(move |e| e.day >= lo && e.day < hi)
            .map(|e| &e.report)
    }

    /// All reports created strictly before `day`, cloned into owned
    /// form. Prefer [`Self::reports_before`] on hot paths.
    pub fn events_before(&self, day: u32) -> Vec<RawReport> {
        self.reports_before(day).cloned().collect()
    }

    /// Reports with `lo <= day < hi`, cloned into owned form. Prefer
    /// [`Self::reports_between`] on hot paths.
    pub fn events_between(&self, lo: u32, hi: u32) -> Vec<RawReport> {
        self.reports_between(lo, hi).cloned().collect()
    }

    /// Reports with `lo <= day < hi` in **canonical arrival order**:
    /// nondecreasing `(created_day, id)`. This is the feed contract the
    /// streaming runtime (`trail::stream`) ingests under — the order a
    /// continuous collector would deliver, and the order every
    /// micro-batch partition of the same span must replay to be
    /// bitwise-equivalent to a batch ingest. The generator assigns ids
    /// in generation order and sorts events stably by day, so this
    /// matches the [`Self::events_between`] batch order exactly; the
    /// explicit sort makes the contract hold even for a provider that
    /// delivers within-day reports out of order.
    pub fn stream_reports(&self, lo: u32, hi: u32) -> Vec<RawReport> {
        let mut out = self.events_between(lo, hi);
        out.sort_by(|a, b| (a.created_day, a.id.as_str()).cmp(&(b.created_day, b.id.as_str())));
        out
    }

    /// Deterministic per-key analysis gap: true when the query "misses".
    fn misses(&self, key: &str) -> bool {
        let p = self.world.config.analysis_miss_prob;
        let h = fnv1a(key) ^ self.world.config.seed;
        ((h % 10_000) as f32) < p * 10_000.0
    }

    /// Deterministic per (key, attempt) transient fault. The hash is
    /// FNV-1a over the same byte stream `"{key}#a{attempt}"` always
    /// used, streamed incrementally so the hot retry path allocates
    /// nothing — fault patterns are bit-identical to the formatted form.
    fn fault(&self, key: &str, attempt: u32) -> Option<OsintError> {
        let p = self.world.config.transient_fault_prob;
        if p <= 0.0 {
            return None;
        }
        let h = fault_hash(key, attempt) ^ self.world.config.seed.rotate_left(17);
        if ((h % 10_000) as f32) < p * 10_000.0 {
            Some(if (h >> 16) & 1 == 0 {
                OsintError::RateLimited
            } else {
                OsintError::Timeout
            })
        } else {
            None
        }
    }

    /// Present a canonical name the way a messy feed would: sometimes
    /// mixed-case, trailing-dotted or defanged. Deterministic per
    /// string; presentation only — refanging/parsing recovers the same
    /// identity.
    fn present(&self, kind: IocKind, name: &str) -> String {
        let p = self.world.config.feed_noise;
        if p <= 0.0 {
            return name.to_owned();
        }
        let h = fnv1a(name) ^ self.world.config.seed.rotate_left(29);
        if ((h % 10_000) as f32) >= p * 10_000.0 {
            return name.to_owned();
        }
        match kind {
            // URL paths are case-sensitive, so URLs and IPs only get
            // defanged; domains also get case and trailing-dot noise.
            IocKind::Ip | IocKind::Url => defang(name),
            IocKind::Domain => match (h >> 20) % 3 {
                0 => defang(name),
                1 => format!("{name}."),
                _ => name
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i % 2 == 0 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect(),
            },
        }
    }

    /// Breaker admission for one fallible query. A rejection counts as
    /// a fault (under `osint.faults`) but happens *before* any lookup,
    /// so it can never register a permanent miss.
    fn gate(&self) -> Result<(), OsintError> {
        match &self.breaker {
            Some(b) if !b.admit() => {
                trail_obs::counter_add("osint.faults", 1);
                Err(OsintError::CircuitOpen)
            }
            _ => Ok(()),
        }
    }

    /// Report an admitted query's outcome to the breaker. A permanent
    /// gap (`Ok(None)`) is a success here: the feed answered.
    fn record_outcome(&self, faulted: bool) {
        if let Some(b) = &self.breaker {
            if faulted {
                b.record_fault();
            } else {
                b.record_success();
            }
        }
    }

    /// Analyse the IOC `key` as of `asof_day`: `Err` on an injected
    /// transient fault for this `attempt` or a breaker rejection,
    /// `Ok(None)` on a permanent gap or unknown IOC. The key is
    /// canonical by construction, so its text is the index key and the
    /// miss/fault hash input as it stands.
    pub fn try_analyze(
        &self,
        key: IocKeyRef<'_>,
        asof_day: u32,
        attempt: u32,
    ) -> Result<Option<Analysis>, OsintError> {
        trail_obs::counter_add("osint.queries", 1);
        self.gate()?;
        if let Some(e) = self.fault(key.text(), attempt) {
            trail_obs::counter_add("osint.faults", 1);
            self.record_outcome(true);
            return Err(e);
        }
        self.record_outcome(false);
        Ok(self.lookup(key.kind(), key.text(), asof_day))
    }

    /// The analysis of a canonical key, or `None` (counted under
    /// `osint.misses`) when it gaps out or names nothing in the world.
    fn lookup(&self, kind: IocKind, key: &str, asof_day: u32) -> Option<Analysis> {
        let index = match kind {
            IocKind::Ip => &self.world.ip_index,
            IocKind::Url => &self.world.url_index,
            IocKind::Domain => &self.world.domain_index,
        };
        let idx = match index.get(key) {
            Some(&idx) if !self.misses(key) => idx as usize,
            _ => {
                trail_obs::counter_add("osint.misses", 1);
                return None;
            }
        };
        Some(match kind {
            IocKind::Ip => Analysis::Ip(self.ip_analysis(idx, asof_day)),
            IocKind::Url => Analysis::Url(self.url_analysis(idx, asof_day)),
            IocKind::Domain => Analysis::Domain(self.domain_analysis(idx, asof_day)),
        })
    }

    /// The first page of a record's related indicators (`ids` into
    /// `names`), each presented as the feed prints it.
    fn page(&self, kind: IocKind, ids: &[u32], names: &[String]) -> Vec<String> {
        ids.iter()
            .take(PDNS_PAGE)
            .map(|&i| self.present(kind, &names[i as usize]))
            .collect()
    }

    fn ip_analysis(&self, idx: usize, asof_day: u32) -> IpAnalysis {
        let t = &self.world.ips[idx];
        let asn = &self.world.asns[t.asn as usize];
        IpAnalysis {
            country: Some(asn.country.clone()),
            issuer: Some(t.issuer.clone()),
            latitude: t.lat,
            longitude: t.lon,
            a_record_count: t.domains.len() as u32,
            resolving_domain_count: t.domains.len() as u32,
            asn: Some(asn.number),
            asn_size_log: asn.size_log,
            first_seen_days: asof_day.saturating_sub(t.first_day) as f32,
            last_seen_days: asof_day.saturating_sub(t.last_day) as f32,
            historic_domains: self.page(IocKind::Domain, &t.domains, &self.world.domain_names),
        }
    }

    fn domain_analysis(&self, idx: usize, asof_day: u32) -> DomainAnalysis {
        let t = &self.world.domains[idx];
        let mut record_counts = [0u32; 9];
        record_counts[0] = t.ips.len() as u32;
        record_counts[1..9].copy_from_slice(&t.extra_records);
        let nxdomain =
            asof_day.saturating_sub(t.last_day) as f32 > self.world.config.nxdomain_after_days;
        DomainAnalysis {
            record_counts,
            nxdomain,
            first_seen_days: asof_day.saturating_sub(t.first_day) as f32,
            last_seen_days: asof_day.saturating_sub(t.last_day) as f32,
            resolved_ips: self.page(IocKind::Ip, &t.ips, &self.world.ip_names),
            cname_targets: Vec::new(),
            hosted_urls: self.page(IocKind::Url, &t.urls, &self.world.url_names),
        }
    }

    fn url_analysis(&self, idx: usize, asof_day: u32) -> UrlAnalysis {
        let t = &self.world.urls[idx];
        let alive = asof_day.saturating_sub(t.created_day) < 400;
        UrlAnalysis {
            alive,
            file_type: Some(t.file_type.clone()),
            file_class: Some(t.file_class.clone()),
            http_code: Some(if alive { t.http_code } else { 404 }),
            encoding: Some(t.encoding.clone()),
            server: Some(t.server.clone()),
            server_os: Some(t.server_os.clone()),
            services: t.services.clone(),
            header_flags: t.header_flags.clone(),
            resolved_ips: self.page(IocKind::Ip, &t.ips, &self.world.ip_names),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::world::World;
    use trail_ioc::defang::refang;
    use trail_ioc::IocKey;

    fn client() -> OsintClient {
        OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(9))))
    }

    fn client_with(f: impl FnOnce(&mut WorldConfig)) -> OsintClient {
        let mut cfg = WorldConfig::tiny(9);
        f(&mut cfg);
        OsintClient::new(Arc::new(World::generate(cfg)))
    }

    /// The canonical key of a domain spelling.
    fn domain(raw: &str) -> IocKey {
        IocKey::parse(IocKind::Domain, raw).expect("a valid domain")
    }

    /// Attempt 0 of a query to a world with no breaker and no injected
    /// faults: the analysis itself. `raw` is parsed first, as every
    /// caller of [`OsintClient::try_analyze`] must.
    fn analyze(c: &OsintClient, kind: IocKind, raw: &str, day: u32) -> Option<Analysis> {
        let key = IocKey::parse(kind, raw).expect("a valid spelling");
        c.try_analyze(key.as_ref(), day, 0)
            .expect("no faults at p=0 and no breaker")
    }

    fn analyze_domain(c: &OsintClient, raw: &str, day: u32) -> Option<DomainAnalysis> {
        match analyze(c, IocKind::Domain, raw, day)? {
            Analysis::Domain(a) => Some(a),
            other => panic!("a domain query answered {other:?}"),
        }
    }

    #[test]
    fn event_windows_partition_timeline() {
        let c = client();
        let cutoff = c.world().config.cutoff_day;
        let horizon = c.world().config.horizon_day();
        let before = c.events_before(cutoff).len();
        let after = c.events_between(cutoff, horizon).len();
        assert_eq!(before + after, c.world().events.len());
        assert!(before > 0 && after > 0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let c = client();
        // Find an IP indicator in some report.
        let reports = c.events_before(c.world().config.cutoff_day);
        let ip = reports
            .iter()
            .flat_map(|r| &r.indicators)
            .find(|i| i.indicator_type == "IPv4" && !i.indicator.contains('['))
            .map(|i| i.indicator.clone())
            .expect("some plain IP indicator");
        assert_eq!(
            analyze(&c, IocKind::Ip, &ip, 500),
            analyze(&c, IocKind::Ip, &ip, 500)
        );
    }

    #[test]
    fn queries_are_canonicalised_before_lookup() {
        let c = client();
        let domain = c
            .world()
            .domain_names
            .iter()
            .find(|n| analyze(&c, IocKind::Domain, n, 700).is_some())
            .expect("some analysable domain");
        let noisy = [
            format!("{domain}."),
            domain.to_uppercase(),
            trail_ioc::defang::defang(domain),
        ];
        for raw in &noisy {
            assert_eq!(
                analyze(&c, IocKind::Domain, raw, 700),
                analyze(&c, IocKind::Domain, domain, 700),
                "raw spelling {raw:?} answered differently"
            );
        }
        // Defanged IPs and URLs are canonicalised too.
        let ip = c
            .world()
            .ip_names
            .iter()
            .find(|n| analyze(&c, IocKind::Ip, n, 700).is_some())
            .unwrap();
        assert_eq!(
            analyze(&c, IocKind::Ip, &trail_ioc::defang::defang(ip), 700),
            analyze(&c, IocKind::Ip, ip, 700)
        );
    }

    #[test]
    fn unknown_iocs_return_none() {
        let c = client();
        assert!(analyze(&c, IocKind::Ip, "203.0.113.99", 100).is_none());
        assert!(analyze(&c, IocKind::Domain, "never-generated.example", 100).is_none());
        assert!(analyze(&c, IocKind::Url, "http://never.example/x", 100).is_none());
    }

    #[test]
    fn some_queries_gap_out() {
        let c = client();
        let total = c.world().ip_names.len();
        let missed = c
            .world()
            .ip_names
            .iter()
            .filter(|name| analyze(&c, IocKind::Ip, name, 400).is_none())
            .count();
        // miss prob is 10%: expect some but not most.
        assert!(missed > 0, "no analysis gaps at all");
        assert!(missed < total / 2, "{missed}/{total} missed");
    }

    #[test]
    fn domain_analysis_links_ips_and_ages() {
        let c = client();
        // Find an analysable domain with resolutions.
        let found = c
            .world()
            .domain_names
            .iter()
            .find_map(|name| analyze_domain(&c, name, 700).map(|a| (name.clone(), a)))
            .expect("some domain analysis");
        let (_, a) = found;
        // resolved_ips is the paged view of the A records: never more
        // than the record count, never more than one page.
        assert!(a.resolved_ips.len() <= a.record_counts[0] as usize);
        assert!(a.resolved_ips.len() <= PDNS_PAGE);
        assert!(a.first_seen_days >= a.last_seen_days);
    }

    #[test]
    fn old_domains_go_nxdomain() {
        let c = client();
        let cfg_days = c.world().config.nxdomain_after_days as u32;
        let name = c
            .world()
            .domain_names
            .iter()
            .find(|n| analyze(&c, IocKind::Domain, n, 0).is_some())
            .unwrap()
            .clone();
        let late = analyze_domain(&c, &name, 100_000 + cfg_days).unwrap();
        assert!(late.nxdomain);
    }

    #[test]
    fn url_analysis_has_server_fingerprint() {
        let c = client();
        let found = c
            .world()
            .url_names
            .iter()
            .find_map(|name| match analyze(&c, IocKind::Url, name, 100) {
                Some(Analysis::Url(a)) => Some(a),
                _ => None,
            })
            .expect("some URL analysis");
        assert!(found.server.is_some());
        assert!(found.file_type.is_some());
    }

    #[test]
    fn feed_noise_is_presentation_only() {
        let noisy = client_with(|cfg| cfg.feed_noise = 1.0);
        let clean = client_with(|cfg| cfg.feed_noise = 0.0);
        let name = noisy
            .world()
            .domain_names
            .iter()
            .find(|n| {
                analyze_domain(&noisy, n, 700).map(|a| !a.resolved_ips.is_empty()) == Some(true)
            })
            .expect("domain with resolutions");
        let a_noisy = analyze_domain(&noisy, name, 700).unwrap();
        let a_clean = analyze_domain(&clean, name, 700).unwrap();
        // Same identities after refanging, and at full noise at least
        // one string is actually non-canonical.
        let refanged: Vec<String> = a_noisy
            .resolved_ips
            .iter()
            .map(|s| IocKey::parse(IocKind::Ip, s).unwrap().text().to_owned())
            .collect();
        assert_eq!(refanged, a_clean.resolved_ips);
        assert!(
            a_noisy.resolved_ips.iter().any(|s| s.contains("[.]")),
            "full feed noise produced no defanged IPs: {:?}",
            a_noisy.resolved_ips
        );
        // Noisy presentation still refangs to a valid indicator.
        for s in &a_noisy.resolved_ips {
            assert!(
                trail_ioc::ip::IpIoc::parse(&refang(s)).is_ok(),
                "unparseable {s:?}"
            );
        }
    }

    #[test]
    fn fault_hash_matches_the_formatted_stream() {
        // The allocation-free hash must reproduce the formatted form
        // bit-for-bit, or every seeded fault pattern would shift.
        for key in ["threebody.cn", "1.0.36.127", "http://a.example/x", ""] {
            for attempt in [0u32, 1, 9, 10, 42, 999, 1_000_000, u32::MAX] {
                assert_eq!(
                    fault_hash(key, attempt),
                    fnv1a(&format!("{key}#a{attempt}")),
                    "key {key:?} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn transient_faults_are_deterministic_per_attempt() {
        let c = client_with(|cfg| cfg.transient_fault_prob = 0.5);
        let name = c.world().domain_names[0].clone();
        for attempt in 0..4 {
            assert_eq!(
                c.try_analyze(domain(&name).as_ref(), 700, attempt),
                c.try_analyze(domain(&name).as_ref(), 700, attempt),
                "attempt {attempt} not reproducible"
            );
        }
        // At 50% per attempt, some key+attempt faults and some succeeds.
        let mut faulted = 0;
        let mut succeeded = 0;
        for name in c.world().domain_names.iter().take(40) {
            match c.try_analyze(domain(name).as_ref(), 700, 0) {
                Err(e) => {
                    assert!(e.is_transient());
                    faulted += 1;
                }
                Ok(_) => succeeded += 1,
            }
        }
        assert!(faulted > 0, "no transient faults at p=0.5");
        assert!(succeeded > 0, "every query faulted at p=0.5");
    }

    #[test]
    fn breaker_trips_on_dead_feed_and_rejections_fail_fast() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let mut cfg = WorldConfig::tiny(9);
        cfg.transient_fault_prob = 1.0; // every attempt faults
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_rejections: 4,
            half_open_successes: 2,
        }));
        let mut c = OsintClient::new(Arc::new(World::generate(cfg)));
        c.set_breaker(Arc::clone(&breaker));
        let name = c.world().domain_names[0].clone();
        // Three admitted faults trip the breaker…
        for a in 0..3 {
            let e = c.try_analyze(domain(&name).as_ref(), 700, a).unwrap_err();
            assert!(e.is_transient());
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // …then queries are shed before reaching the feed.
        let e = c.try_analyze(domain(&name).as_ref(), 700, 3).unwrap_err();
        assert_eq!(e, OsintError::CircuitOpen);
        assert!(!e.is_transient());
    }

    #[test]
    fn breaker_recloses_after_feed_recovers() {
        use crate::breaker::{BreakerConfig, BreakerState};
        // Healthy feed, but a breaker we trip by hand: the client's
        // successful queries must walk it Half-Open → Closed.
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_rejections: 2,
            half_open_successes: 2,
        }));
        let mut c = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(9))));
        c.set_breaker(Arc::clone(&breaker));
        for _ in 0..3 {
            breaker.record_fault();
        }
        let name = c.world().domain_names[0].clone();
        // Two rejections serve the cooldown.
        assert_eq!(
            c.try_analyze(domain(&name).as_ref(), 700, 0),
            Err(OsintError::CircuitOpen)
        );
        assert_eq!(
            c.try_analyze(domain(&name).as_ref(), 700, 0),
            Err(OsintError::CircuitOpen)
        );
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // Probes succeed (p=0 faults) and re-close the breaker.
        assert!(c.try_analyze(domain(&name).as_ref(), 700, 0).is_ok());
        assert!(c.try_analyze(domain(&name).as_ref(), 700, 0).is_ok());
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn clones_share_one_breaker() {
        use crate::breaker::BreakerState;
        let breaker = Arc::new(CircuitBreaker::default());
        let mut a = OsintClient::new(Arc::new(World::generate(WorldConfig::tiny(9))));
        a.set_breaker(Arc::clone(&breaker));
        let b = a.clone();
        for _ in 0..breaker.config().failure_threshold {
            breaker.record_fault();
        }
        let name = a.world().domain_names[0].clone();
        assert_eq!(
            a.try_analyze(domain(&name).as_ref(), 700, 0),
            Err(OsintError::CircuitOpen)
        );
        assert_eq!(
            b.try_analyze(domain(&name).as_ref(), 700, 0),
            Err(OsintError::CircuitOpen)
        );
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn faults_disabled_by_default_and_retries_can_recover() {
        let c = client();
        let name = c.world().domain_names[0].clone();
        assert!(
            c.try_analyze(domain(&name).as_ref(), 700, 0).is_ok(),
            "faults injected at p=0"
        );
        let f = client_with(|cfg| cfg.transient_fault_prob = 0.5);
        // Some key that faults on attempt 0 succeeds on a later attempt.
        let recovered = f.world().domain_names.iter().take(60).any(|n| {
            f.try_analyze(domain(n).as_ref(), 700, 0).is_err()
                && (1..4).any(|a| f.try_analyze(domain(n).as_ref(), 700, a).is_ok())
        });
        assert!(recovered, "no faulting key recovered within 3 retries");
    }
}
