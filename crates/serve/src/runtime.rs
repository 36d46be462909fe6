//! The in-process request runtime: admission control, generation-
//! stamped hot-swappable bundles, per-generation model replicas, and
//! per-request observability.
//!
//! Concurrency model: every installed bundle lives inside a
//! `Generation` — the bundle `Arc`, a replica pool instantiated
//! *from that bundle*, and a per-generation completion counter. The
//! runtime holds the current generation behind a `Mutex<Arc<..>>`
//! slot (std-only arc-swap: lock, clone, unlock — the lock is held
//! for a pointer clone, never across scoring). A request **pins** one
//! generation up front and uses it end to end, so a query can never
//! observe generation N's replicas with generation N+1's graph, and
//! in-flight queries complete on the generation they started on while
//! [`ServeRuntime::install`] publishes the next one. Rankings are a
//! pure function of `(generation, query)`.
//!
//! Replica pools are keyed by generation — they live *inside* the
//! `Generation` — which is what makes a swap safe: the old pool drains
//! with its in-flight queries and is freed when the last pinned `Arc`
//! drops; the new pool was built from the new bundle before the slot
//! flipped.
//!
//! Admission reuses the PR 4 [`CircuitBreaker`]: every request asks
//! `admit()` first; poisoned/failed requests `record_fault()`, so a
//! burst of bad queries trips the breaker and subsequent requests are
//! shed without touching the graph, then probed back to Closed.
//!
//! Counter discipline (the reconciliation invariant the tests pin):
//! `serve.issued == serve.admitted + serve.rejected` and
//! `serve.admitted == serve.completed + serve.failed`, exactly, for
//! any interleaving — each request increments exactly one branch at
//! each level of that tree. Swaps add two more ledgers:
//! `serve.swaps` counts installs after the initial bundle, and the
//! per-generation completion counts (kept after a generation retires)
//! sum to `serve.completed` exactly, across any number of swaps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trail_gnn::SageModel;
use trail_ioc::IocKey;
use trail_osint::CircuitBreaker;

use crate::bundle::{Attribution, QueryLimits, ServeBundle};

/// One attribution request: the IOCs observed in a fresh incident.
#[derive(Debug, Clone)]
pub struct Query {
    /// Canonical IOC identities to look up.
    pub iocs: Vec<IocKey>,
    /// Fault injection for drills: the request is admitted, then fails
    /// inside the handler (standing in for unparseable/poison input).
    pub poison: bool,
}

impl Query {
    /// A well-formed query.
    pub fn new(iocs: Vec<IocKey>) -> Self {
        Self {
            iocs,
            poison: false,
        }
    }

    /// A request that will fault after admission.
    pub fn poison() -> Self {
        Self {
            iocs: Vec::new(),
            poison: true,
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Scored: the APT ranking.
    Ranked(Attribution),
    /// Shed by the circuit breaker before touching the graph.
    Rejected,
    /// Admitted but failed in the handler.
    Failed(&'static str),
}

/// One request's result plus its wall-clock latency and the bundle
/// generation that served it.
#[derive(Debug, Clone)]
pub struct Response {
    /// What happened.
    pub outcome: Outcome,
    /// End-to-end handler latency in microseconds.
    pub latency_us: u64,
    /// The generation pinned for this request. Stamped on *every*
    /// outcome — rejected requests too — so a swap boundary is visible
    /// in the response stream itself.
    pub generation: u64,
}

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Model replicas to instantiate per generation (size to the
    /// widest worker count the runtime will be driven with).
    pub replicas: usize,
    /// Per-query traversal limits.
    pub limits: QueryLimits,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            replicas: trail_linalg::pool::num_threads().max(2),
            limits: QueryLimits::default(),
        }
    }
}

/// One installed bundle and everything derived from it. Immutable
/// after construction except the replica scratch state and the
/// completion counter; freed when the slot has moved on *and* the last
/// in-flight request drops its pin.
struct Generation {
    /// Monotonic install index, 0 for the construction-time bundle.
    gen: u64,
    bundle: Arc<ServeBundle>,
    /// Replicas instantiated from *this* bundle's weights — keying the
    /// pool by generation is what prevents a stale replica (old
    /// weights) from scoring against a new graph after a swap.
    replicas: Vec<Mutex<SageModel>>,
    /// Completions on this generation. Shared with the runtime's
    /// stats ledger so the count survives the generation's retirement.
    completed: Arc<AtomicU64>,
}

impl Generation {
    fn build(gen: u64, bundle: Arc<ServeBundle>, replicas: usize) -> Self {
        let replicas = (0..replicas.max(1))
            .map(|_| Mutex::new(bundle.instantiate_model()))
            .collect();
        Self {
            gen,
            bundle,
            replicas,
            completed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Run `f` with an exclusive model replica of this generation.
    /// With at least as many replicas as concurrent callers one pass
    /// always finds a free slot; the yield loop covers transient
    /// oversubscription.
    fn with_replica<T>(&self, f: impl FnOnce(&mut SageModel) -> T) -> T {
        let mut f = Some(f);
        loop {
            for slot in &self.replicas {
                if let Ok(mut model) = slot.try_lock() {
                    return (f.take().expect("single use"))(&mut model);
                }
            }
            std::thread::yield_now();
        }
    }
}

/// The concurrent, read-only serving runtime with zero-downtime bundle
/// hot swap.
pub struct ServeRuntime {
    /// The generation slot. Locked only to clone the `Arc` out (pin)
    /// or swap a new one in (install) — never across scoring, and never
    /// while the replaced generation is freed.
    current: Mutex<Arc<Generation>>,
    /// Held by [`ServeRuntime::install`] from reading the current
    /// generation number to storing its successor, so concurrent
    /// installs get distinct, consecutive numbers. Readers never take
    /// it.
    installing: Mutex<()>,
    breaker: Arc<CircuitBreaker>,
    limits: QueryLimits,
    replica_count: usize,
    /// `(generation, completions)` for every generation ever
    /// installed, in install order. Entries share the `Arc` with the
    /// live generation, so the ledger keeps counting while the
    /// generation drains and keeps the total after it is freed.
    stats: Mutex<Vec<(u64, Arc<AtomicU64>)>>,
}

impl ServeRuntime {
    /// Build a runtime over a frozen bundle (generation 0).
    pub fn new(bundle: Arc<ServeBundle>, breaker: Arc<CircuitBreaker>, cfg: RuntimeConfig) -> Self {
        let g = Generation::build(0, bundle, cfg.replicas);
        let stats = Mutex::new(vec![(0, g.completed.clone())]);
        Self {
            current: Mutex::new(Arc::new(g)),
            installing: Mutex::new(()),
            breaker,
            limits: cfg.limits,
            replica_count: cfg.replicas.max(1),
            stats,
        }
    }

    /// Atomically install a new bundle as the next generation and
    /// return its generation number. The incoming generation's replica
    /// pool is fully built *before* the slot flips, so no request can
    /// ever pin a generation whose replicas do not match its bundle.
    /// In-flight requests keep serving their pinned generation; new
    /// requests observe the new one. Concurrent installs are numbered
    /// one after another, in the order they flip the slot. Bumps
    /// `serve.swaps`.
    pub fn install(&self, bundle: Arc<ServeBundle>) -> u64 {
        let _span = trail_obs::span("serve.swap");
        let installing = self.installing.lock().expect("installer lock");
        let next = self.pin().gen + 1;
        // Build outside the slot lock: instantiation is the expensive
        // part and must not block readers.
        let g = Arc::new(Generation::build(next, bundle, self.replica_count));
        self.stats
            .lock()
            .expect("stats ledger")
            .push((next, g.completed.clone()));
        let old = std::mem::replace(&mut *self.current.lock().expect("generation slot"), g);
        drop(installing);
        // The slot guard is gone: freeing the old generation (when no
        // request still pins it) blocks no `pin`.
        drop(old);
        trail_obs::counter_add("serve.swaps", 1);
        next
    }

    /// Pin the current generation: one short lock, one `Arc` clone.
    fn pin(&self) -> Arc<Generation> {
        self.current.lock().expect("generation slot").clone()
    }

    /// The currently installed bundle (a pinned `Arc`, stable even if
    /// a swap lands immediately after the call returns).
    pub fn bundle(&self) -> Arc<ServeBundle> {
        self.pin().bundle.clone()
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.pin().gen
    }

    /// Completions per generation, in install order, including retired
    /// generations. The per-generation half of the swap
    /// reconciliation: the sum equals `serve.completed` exactly.
    pub fn generation_stats(&self) -> Vec<(u64, u64)> {
        self.stats
            .lock()
            .expect("stats ledger")
            .iter()
            .map(|(g, c)| (*g, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// The admission breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Handle one request end to end: pin a generation, admission,
    /// scoring, outcome accounting, latency histogram. The pinned
    /// generation is the *only* bundle/replica state the request ever
    /// touches.
    pub fn handle(&self, query: &Query) -> Response {
        let start = Instant::now();
        // Pin before admission so every response — rejected ones
        // included — names the generation that judged it.
        let gen = self.pin();
        trail_obs::counter_add("serve.issued", 1);
        let outcome = if !self.breaker.admit() {
            trail_obs::counter_add("serve.rejected", 1);
            Outcome::Rejected
        } else {
            trail_obs::counter_add("serve.admitted", 1);
            if query.poison {
                self.breaker.record_fault();
                trail_obs::counter_add("serve.failed", 1);
                Outcome::Failed("poison query")
            } else {
                let attribution = gen
                    .with_replica(|model| gen.bundle.attribute(model, &query.iocs, &self.limits));
                self.breaker.record_success();
                trail_obs::counter_add("serve.completed", 1);
                gen.completed.fetch_add(1, Ordering::Relaxed);
                Outcome::Ranked(attribution)
            }
        };
        let latency_us = start.elapsed().as_micros() as u64;
        trail_obs::observe(
            "serve.latency_us",
            trail_obs::bounds::SERVE_LATENCY_US,
            latency_us,
        );
        Response {
            outcome,
            latency_us,
            generation: gen.gen,
        }
    }

    /// Serve a whole batch at a fixed worker-pool width, preserving
    /// input order in the output.
    pub fn run_batch(&self, queries: &[Query], concurrency: usize) -> Vec<Response> {
        let _span = trail_obs::span("serve.batch");
        trail_linalg::pool::parallel_map_limit(concurrency.max(1), queries.len(), |i| {
            self.handle(&queries[i])
        })
    }
}
