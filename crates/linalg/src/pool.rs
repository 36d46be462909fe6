//! Persistent worker pool shared by every parallel kernel in the
//! workspace.
//!
//! Before this module each threaded routine (`matmul`, random forest,
//! GBT) spawned a fresh scoped-thread region per call with its own
//! hard-coded thread cap. The pool here is spawned once per process,
//! lazily, and hands out chunked index ranges through an atomic work
//! counter, so a full-graph GraphSAGE epoch issues thousands of
//! parallel regions without paying thread start-up costs. Pure `std`:
//! a `Mutex<VecDeque>` + `Condvar` job queue and a per-task latch.
//!
//! Design notes:
//!
//! * **Work claiming.** Each `parallel_for_limit` call publishes one
//!   task — a type-erased closure plus an atomic next-chunk cursor.
//!   Helpers and the calling thread race to claim `[start, end)`
//!   chunks, so load balances dynamically across irregular rows (e.g.
//!   CSR rows with wildly different degrees).
//! * **Caller participation.** The submitting thread always works the
//!   task itself. Even with zero idle workers every chunk is drained,
//!   which also makes nested `parallel_for_limit` calls (a pooled
//!   `matmul` inside a pooled tree fit) deadlock-free: a worker that
//!   submits a sub-task drains it on its own if no peer is idle —
//!   `Task::run` never blocks.
//! * **Completion.** The task counts outstanding chunks; the thread
//!   finishing the last chunk opens a latch the caller blocks on.
//!   When the caller returns, no thread holds a reference into its
//!   stack frame, which is what makes the lifetime erasure below
//!   sound.
//! * **Thread policy.** [`num_threads`] honours a `TRAIL_THREADS`
//!   environment override and otherwise uses all available cores —
//!   the historical `.min(8)` cap silently wasted larger machines.
//!   Explicit `_limit` variants let tests pin a region to 1/2/8
//!   threads regardless of the environment.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Average chunks handed to each participating thread; >1 keeps
/// threads busy when per-chunk cost is irregular.
const CHUNKS_PER_THREAD: usize = 4;

/// Thread-count policy for every parallel kernel in the workspace.
///
/// `TRAIL_THREADS=n` (n ≥ 1) pins the count; otherwise all available
/// cores are used. Read once per process — the pool is persistent.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        match std::env::var("TRAIL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// One-shot open/wait latch.
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Self {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn signal(&self) {
        *self.open.lock().expect("latch lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().expect("latch lock");
        while !*open {
            open = self.cv.wait(open).expect("latch wait");
        }
    }
}

/// One parallel region: a lifetime-erased closure plus chunk cursors.
///
/// `func` borrows from the submitting caller's stack. Soundness
/// argument: the pointer is only dereferenced by a thread that has
/// claimed a chunk, every chunk is counted in `remaining`, and the
/// caller blocks until `remaining` reaches zero — so the borrow
/// cannot outlive [`parallel_for_limit`]'s scope. A worker that
/// receives the task after all chunks are claimed never touches
/// `func`.
struct Task {
    func: *const (dyn Fn(Range<usize>) + Sync),
    next: AtomicUsize,
    chunk: usize,
    len: usize,
    /// Chunks not yet completed; last decrement opens `latch`.
    remaining: AtomicUsize,
    latch: Latch,
    /// Set by the first chunk whose closure panics. Later claimants
    /// skip the closure but still decrement `remaining`, so the latch
    /// always opens and the pool thread survives to serve the next
    /// task — a panic never poisons the pool or hangs the caller.
    panicked: AtomicBool,
    /// First panic payload, re-thrown once on the submitting thread.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `func` is only dereferenced under the chunk-claim protocol
// described above; all other fields are Send + Sync.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    fn run(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let end = (start + self.chunk).min(self.len);
            if !self.panicked.load(Ordering::Acquire) {
                // SAFETY: a chunk was claimed, so the caller is still
                // blocked in `parallel_for_limit` and the closure is
                // live.
                let f = unsafe { &*self.func };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(start..end))) {
                    let mut slot = self.panic_payload.lock().expect("panic slot lock");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    drop(slot);
                    self.panicked.store(true, Ordering::Release);
                }
            }
            // AcqRel chains every worker's writes into the final
            // decrement; the latch mutex publishes them to the caller.
            // Runs on the panic path too — the latch must always open.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.latch.signal();
            }
        }
    }
}

/// The process-wide pool: a job queue plus lazily grown workers.
struct ThreadPool {
    queue: Mutex<VecDeque<Arc<Task>>>,
    ready: Condvar,
    spawned: Mutex<usize>,
}

impl ThreadPool {
    /// Grow to at least `want` workers; returns the live worker count.
    fn ensure_workers(&'static self, want: usize) -> usize {
        let mut n = self.spawned.lock().expect("pool lock");
        while *n < want {
            std::thread::Builder::new()
                .name(format!("trail-pool-{n}"))
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker");
            *n += 1;
        }
        *n
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut q = self.queue.lock().expect("pool queue lock");
                loop {
                    if let Some(t) = q.pop_front() {
                        break t;
                    }
                    q = self.ready.wait(q).expect("pool queue wait");
                }
            };
            task.run();
        }
    }

    fn submit(&self, task: &Arc<Task>, copies: usize) {
        let mut q = self.queue.lock().expect("pool queue lock");
        for _ in 0..copies {
            q.push_back(task.clone());
        }
        drop(q);
        for _ in 0..copies {
            self.ready.notify_one();
        }
    }
}

fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Run `f` over `0..len` split into chunks across the pool, with at
/// most `max_threads` concurrent participants (1 ⇒ run inline on the
/// caller). Each index is visited exactly once; chunk boundaries are an
/// implementation detail callers must not rely on beyond disjointness.
/// The row-band and map helpers below build on it.
pub fn parallel_for_limit(
    max_threads: usize,
    len: usize,
    min_chunk: usize,
    f: impl Fn(Range<usize>) + Sync,
) {
    if len == 0 {
        return;
    }
    let threads = max_threads.max(1);
    if threads < 2 || len <= min_chunk.max(1) {
        f(0..len);
        return;
    }
    let chunk = min_chunk
        .max(len.div_ceil(threads * CHUNKS_PER_THREAD))
        .max(1);
    let n_chunks = len.div_ceil(chunk);
    if n_chunks < 2 {
        f(0..len);
        return;
    }
    let pool = global_pool();
    let workers = pool.ensure_workers(threads - 1);
    let helpers = (threads - 1).min(n_chunks - 1).min(workers);
    let f_short: *const (dyn Fn(Range<usize>) + Sync + '_) = &f;
    // SAFETY: lifetime erasure only; the chunk-claim protocol plus the
    // latch wait below guarantee no dereference outlives this frame.
    let f_erased: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f_short) };
    let task = Arc::new(Task {
        func: f_erased,
        next: AtomicUsize::new(0),
        chunk,
        len,
        remaining: AtomicUsize::new(n_chunks),
        latch: Latch::new(),
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
    });
    pool.submit(&task, helpers);
    task.run();
    // Block until the last chunk completes; afterwards no thread can
    // dereference `f` again (late workers see `next >= len`).
    task.latch.wait();
    if task.panicked.load(Ordering::Acquire) {
        let payload = task
            .panic_payload
            .lock()
            .expect("panic slot lock")
            .take()
            .unwrap_or_else(|| Box::new("pool task panicked"));
        resume_unwind(payload);
    }
}

/// Copyable raw-pointer wrapper so disjoint row chunks of one buffer
/// can be handed to different threads.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: each thread derives a slice over a disjoint row range.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Partition a row-major buffer (`rows * cols` elements) into disjoint
/// row bands and call `f(first_row, band)` on each band in parallel.
///
/// The per-band slice covers whole rows, so kernels that compute each
/// output row independently (matmul, CSR aggregation) stay
/// bitwise-deterministic: a row's result never depends on which thread
/// or band computed it.
pub fn parallel_for_rows<T: Send>(
    data: &mut [T],
    cols: usize,
    min_rows: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    parallel_for_rows_limit(num_threads(), data, cols, min_rows, f);
}

/// [`parallel_for_rows`] capped at `max_threads` participants.
pub fn parallel_for_rows_limit<T: Send>(
    max_threads: usize,
    data: &mut [T],
    cols: usize,
    min_rows: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if cols == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0, "buffer is not whole rows");
    let rows = data.len() / cols;
    let base = SendPtr(data.as_mut_ptr());
    parallel_for_limit(max_threads, rows, min_rows, move |r: Range<usize>| {
        let ptr = base;
        // SAFETY: `parallel_for_limit` hands out disjoint ranges of
        // `0..rows`, so each band slice is exclusive.
        let band = unsafe {
            std::slice::from_raw_parts_mut(ptr.0.add(r.start * cols), (r.end - r.start) * cols)
        };
        f(r.start, band);
    });
}

/// Evaluate `f(i)` for `i in 0..len` across the pool and collect the
/// results in index order. `min_chunk = 1`: items are assumed coarse
/// (a whole decision tree, an autoencoder batch).
pub fn parallel_map<T: Send, F: Fn(usize) -> T + Sync>(len: usize, f: F) -> Vec<T> {
    parallel_map_limit(num_threads(), len, f)
}

/// [`parallel_map`] capped at `max_threads` participants.
pub fn parallel_map_limit<T: Send, F: Fn(usize) -> T + Sync>(
    max_threads: usize,
    len: usize,
    f: F,
) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    parallel_for_rows_limit(max_threads, &mut out, 1, 1, |first, band| {
        for (j, slot) in band.iter_mut().enumerate() {
            *slot = Some(f(first + j));
        }
    });
    out.into_iter()
        .map(|o| o.expect("parallel_map slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn visits_every_index_exactly_once() {
        for threads in [1usize, 2, 8] {
            for len in [0usize, 1, 3, 7, 100, 1000] {
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                parallel_for_limit(threads, len, 1, |r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn row_bands_partition_the_buffer() {
        let cols = 7;
        let rows = 129;
        let mut data = vec![0u32; rows * cols];
        parallel_for_rows_limit(8, &mut data, cols, 2, |first, band| {
            assert_eq!(band.len() % cols, 0);
            for (j, v) in band.iter_mut().enumerate() {
                *v = (first * cols + j) as u32 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn map_preserves_order() {
        for threads in [1usize, 3, 8] {
            let out = parallel_map_limit(threads, 57, |i| i * i);
            assert_eq!(out, (0..57).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for_limit(4, 16, 1, |outer| {
            for _ in outer {
                parallel_for_limit(4, 64, 1, |inner| {
                    total.fetch_add(inner.len() as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16 * 64);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn panic_in_closure_propagates_once_and_pool_stays_usable() {
        for threads in [2usize, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_for_limit(threads, 1000, 1, |r| {
                    if r.contains(&457) {
                        panic!("chunk bomb");
                    }
                });
            }));
            let payload = caught.expect_err("panic must reach the caller");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "chunk bomb", "threads={threads}");
            // The pool must not be poisoned: the very next region on the
            // same workers completes normally and visits every index.
            let hits: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_limit(threads, 300, 1, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn panic_on_caller_thread_chunk_still_propagates() {
        // Index 0 is claimed early (often by the submitting thread
        // itself); the panic must still surface exactly once and leave
        // no queued task holding a dangling closure pointer.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_for_limit(4, 64, 1, |r| {
                if r.start == 0 {
                    panic!("first chunk bomb");
                }
            });
        }));
        assert!(caught.is_err());
        let out = parallel_map_limit(4, 33, |i| i + 1);
        assert_eq!(out, (1..=33).collect::<Vec<_>>());
    }
}
