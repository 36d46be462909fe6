//! `trail-obs` — std-only observability for the TRAIL pipeline.
//!
//! Three primitives, one global registry:
//!
//! * **Spans** — RAII wall-clock timers that nest into a hierarchy.
//!   [`span`] returns a guard; while it lives, child spans opened on
//!   the same thread record under `parent/child` paths. Aggregates
//!   (count, total/min/max ns) are folded into the registry on drop.
//! * **Counters** — monotonic `u64`s bumped with [`counter_add`].
//! * **Histograms** — fixed-bucket latency/size distributions fed via
//!   [`observe`] (see [`Histogram`]).
//!
//! [`snapshot`] captures everything as a [`MetricsSnapshot`] — sorted
//! and comparable — which `repro --trace` renders as a tree and
//! perfbench reads while it times serving.
//!
//! Threading: span nesting state is thread-local, so guards on worker
//! threads (the PR-1 pool) form their own trees without locking; the
//! fold on drop takes a short registry lock. Counters and histograms
//! are relaxed atomics behind an `RwLock`ed name table whose read path
//! is the common case. The whole layer can be switched off with
//! [`set_enabled`] (or `TRAIL_OBS=0`), reducing every call to one
//! relaxed atomic load — the overhead budget in DESIGN.md §8 is
//! measured against that baseline.
//!
//! Determinism: counters, histogram buckets and span *counts* depend
//! only on the workload, never on scheduling; only `*_ns` fields vary
//! run to run. [`MetricsSnapshot::without_wall_clock`] strips exactly
//! those fields, which is what the thread-count invariance test pins.

pub mod alloc;
mod hist;
mod snapshot;

pub use hist::Histogram;
pub use snapshot::{CounterStat, HistogramStat, MetricsSnapshot, SpanStat};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Canonical histogram bounds used by the pipeline instrumentation.
pub mod bounds {
    /// Retry backoff in milliseconds (base 50ms, exponential).
    pub const BACKOFF_MS: &[u64] = &[50, 100, 200, 400, 800, 1600];
    /// Attempts consumed per analysis query (1 = no retry).
    pub const ATTEMPTS: &[u64] = &[1, 2, 3, 4, 6, 8];
    /// Per-request attribution serving latency in microseconds
    /// (`trail-serve` request histograms).
    pub const SERVE_LATENCY_US: &[u64] = &[
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    ];
    /// Rows one serve query's quantized forward computes, summed over
    /// the layers (`trail-serve` attribution histograms).
    pub const SERVE_FORWARD_ROWS: &[u64] =
        &[4, 16, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384];
    /// Rows one f32 GraphSAGE forward computes, summed over the layers
    /// (`trail_gnn` training, fine-tune and prediction histograms).
    pub const GNN_ROWS_COMPUTED: &[u64] = &[
        16, 64, 256, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000,
    ];
    /// Per-event streaming-ingest latency in microseconds (collect +
    /// enrich for one report; `trail::stream` event histograms).
    pub const STREAM_EVENT_US: &[u64] = &[
        100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    ];
    /// Streaming tick latency in microseconds (delta CSR merge, dirty
    /// row re-encode, label-prop check and fine-tune epochs).
    pub const STREAM_TICK_US: &[u64] = &[
        1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000,
        50_000_000,
    ];
    /// Members of the model-depth ball a streaming tick runs its GNN
    /// passes on (`trail::stream` tick histograms).
    pub const STREAM_TICK_BALL_NODES: &[u64] = &[
        16, 64, 256, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000,
    ];
    /// Per-record write-ahead-log append latency in microseconds
    /// (frame encode + write + fsync under the configured policy;
    /// `trail::stream::wal` append histograms).
    pub const WAL_APPEND_US: &[u64] = &[
        5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
    ];
}

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

struct Registry {
    enabled: AtomicBool,
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    spans: Mutex<HashMap<String, SpanAgg>>,
    hists: RwLock<HashMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let on = match std::env::var("TRAIL_OBS") {
            Ok(v) => !matches!(v.trim(), "0" | "off" | "false"),
            Err(_) => true,
        };
        Registry {
            enabled: AtomicBool::new(on),
            counters: RwLock::new(HashMap::new()),
            spans: Mutex::new(HashMap::new()),
            hists: RwLock::new(HashMap::new()),
        }
    })
}

/// Turn recording on or off process-wide. Already-recorded data stays
/// in the registry; live span guards opened while enabled still fold
/// on drop.
pub fn set_enabled(on: bool) {
    registry().enabled.store(on, Ordering::Relaxed);
}

/// Add `n` to the named monotonic counter.
pub fn counter_add(name: &str, n: u64) {
    let reg = registry();
    if !reg.enabled.load(Ordering::Relaxed) {
        return;
    }
    // Fast path: the counter already exists.
    if let Some(c) = reg
        .counters
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
    {
        c.fetch_add(n, Ordering::Relaxed);
        return;
    }
    reg.counters
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)))
        .fetch_add(n, Ordering::Relaxed);
}

/// Current value of a counter (0 when it was never bumped).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .counters
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Record `v` into the named histogram, creating it with `bounds` on
/// first use (later calls reuse the existing buckets).
pub fn observe(name: &str, bounds: &[u64], v: u64) {
    let reg = registry();
    if !reg.enabled.load(Ordering::Relaxed) {
        return;
    }
    if let Some(h) = reg
        .hists
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
    {
        h.observe(v);
        return;
    }
    let h = {
        let mut w = reg.hists.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    };
    h.observe(v);
}

struct StackEntry {
    token: u64,
    path: String,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// RAII span timer. Obtain with [`span`]; the elapsed time is folded
/// into the registry when the guard drops. Guards are expected to drop
/// in LIFO order; out-of-order drops still record correct aggregates
/// (the path is fixed at entry) and the nesting stack self-heals.
#[must_use = "a span measures the scope of its guard; binding to _ drops it immediately"]
pub struct SpanGuard {
    start: Instant,
    /// `None` when recording was disabled at entry.
    live: Option<(String, u64, usize)>,
}

/// Open a span named `name`, nested under the innermost live span on
/// this thread. Returns a guard; the span closes when it drops.
pub fn span(name: &str) -> SpanGuard {
    let reg = registry();
    if !reg.enabled.load(Ordering::Relaxed) {
        return SpanGuard {
            start: Instant::now(),
            live: None,
        };
    }
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let (path, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(top) => format!("{}/{}", top.path, name),
            None => name.to_string(),
        };
        let depth = stack.len();
        stack.push(StackEntry {
            token,
            path: path.clone(),
        });
        (path, depth)
    });
    SpanGuard {
        start: Instant::now(),
        live: Some((path, token, depth)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((path, token, depth)) = self.live.take() else {
            return;
        };
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop self (and anything opened above and leaked) — but only
            // if the entry at our depth is really us; an out-of-order
            // drop otherwise leaves the stack to the still-live owner.
            if stack.get(depth).is_some_and(|e| e.token == token) {
                stack.truncate(depth);
            }
        });
        let mut spans = registry().spans.lock().unwrap_or_else(|e| e.into_inner());
        let agg = spans.entry(path).or_default();
        agg.count += 1;
        agg.total_ns += elapsed_ns;
        agg.max_ns = agg.max_ns.max(elapsed_ns);
        agg.min_ns = if agg.min_ns == 0 {
            elapsed_ns.max(1)
        } else {
            agg.min_ns.min(elapsed_ns.max(1))
        };
    }
}

/// Capture the whole registry as a sorted, serializable snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut spans: Vec<SpanStat> = reg
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(path, a)| SpanStat {
            path: path.clone(),
            count: a.count,
            total_ns: a.total_ns,
            min_ns: a.min_ns,
            max_ns: a.max_ns,
        })
        .collect();
    spans.sort_by(|a, b| a.path.cmp(&b.path));
    let mut counters: Vec<CounterStat> = reg
        .counters
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, c)| CounterStat {
            name: name.clone(),
            value: c.load(Ordering::Relaxed),
        })
        .collect();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    let mut histograms: Vec<HistogramStat> = reg
        .hists
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, h)| HistogramStat {
            name: name.clone(),
            bounds: h.bounds().to_vec(),
            counts: h.bucket_counts(),
            sum: h.sum(),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        spans,
        counters,
        histograms,
    }
}

/// Zero every metric in place. Counter and histogram handles stay
/// valid (values reset to 0); span aggregates are cleared. Live span
/// guards are unaffected and will record into the fresh state.
pub fn reset() {
    let reg = registry();
    for c in reg
        .counters
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        c.store(0, Ordering::Relaxed);
    }
    reg.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    for h in reg.hists.read().unwrap_or_else(|e| e.into_inner()).values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The registry is process-global; serialize tests that touch it.
    fn lock() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        g
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _g = lock();
        counter_add("t.a", 2);
        counter_add("t.a", 3);
        counter_add("t.b", 1);
        assert_eq!(counter_value("t.a"), 5);
        let s = snapshot();
        assert_eq!(s.counter("t.a"), 5);
        assert_eq!(s.counter("t.b"), 1);
        assert_eq!(s.counter("t.absent"), 0);
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _g = lock();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _inner2 = span("inner");
        }
        let s = snapshot();
        let outer = s.span("outer").expect("outer recorded");
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns > 0);
        assert!(outer.min_ns > 0 && outer.min_ns <= outer.max_ns);
        let inner = s.span("outer/inner").expect("nested path");
        assert_eq!(inner.count, 2);
        assert!(
            s.span("inner").is_none(),
            "child must not record a root path"
        );
    }

    #[test]
    fn sibling_threads_nest_independently() {
        let _g = lock();
        let _root = span("root");
        std::thread::spawn(|| {
            let _t = span("worker");
        })
        .join()
        .unwrap();
        drop(_root);
        let s = snapshot();
        assert!(
            s.span("worker").is_some(),
            "other threads start their own tree"
        );
        assert!(s.span("root/worker").is_none());
    }

    #[test]
    fn out_of_order_drops_still_record_correct_paths() {
        let _g = lock();
        let a = span("a");
        let b = span("b");
        drop(a); // non-LIFO: a drops while its child b is live
        drop(b);
        let c = span("c");
        drop(c);
        let s = snapshot();
        assert_eq!(s.span("a").unwrap().count, 1);
        assert_eq!(s.span("a/b").unwrap().count, 1);
        assert_eq!(s.span("c").unwrap().count, 1, "stack healed after misuse");
        assert!(s.span("a/c").is_none() && s.span("a/b/c").is_none());
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let _g = lock();
        set_enabled(false);
        counter_add("off.c", 9);
        observe("off.h", &[10], 3);
        {
            let _s = span("off.span");
        }
        set_enabled(true);
        let s = snapshot();
        assert_eq!(s.counter("off.c"), 0);
        assert!(s.span("off.span").is_none());
        assert!(s.histogram("off.h").is_none());
    }

    #[test]
    fn histograms_register_once_and_accumulate() {
        let _g = lock();
        observe("h.x", &[10, 100], 5);
        observe("h.x", &[10, 100], 50);
        observe("h.x", &[10, 100], 500);
        let s = snapshot();
        let h = s.histogram("h.x").unwrap();
        assert_eq!(h.bounds, vec![10, 100]);
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum, 555);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let _g = lock();
        counter_add("r.c", 4);
        observe("r.h", &[1], 2);
        {
            let _s = span("r.s");
        }
        reset();
        assert_eq!(counter_value("r.c"), 0);
        counter_add("r.c", 1);
        assert_eq!(counter_value("r.c"), 1);
        let s = snapshot();
        assert!(s.span("r.s").is_none());
        assert_eq!(s.histogram("r.h").unwrap().total(), 0);
    }
}
