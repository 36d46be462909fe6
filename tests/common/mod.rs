//! Helpers shared by several integration-test binaries. Each binary
//! uses a different subset, so unused items are expected.
#![allow(dead_code)]

pub mod serve_oracle;
pub mod store_writes;
pub mod study_oracle;
pub mod train_oracle;

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use trail_osint::{ChaosPlan, CircuitBreaker, OsintClient, World, WorldConfig};

/// Serialize the tests of one binary that write or read the
/// process-global `trail_obs` registry, and start each from a clean,
/// enabled registry. Hold the guard for the whole test.
pub fn obs_lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    trail_obs::set_enabled(true);
    trail_obs::reset();
    g
}

/// A breaker-armed client over a tiny world perturbed by `plan`.
pub fn chaos_client(plan: &ChaosPlan, world_seed: u64) -> OsintClient {
    let mut cfg = WorldConfig::tiny(world_seed);
    plan.apply(&mut cfg);
    let mut client = OsintClient::new(Arc::new(World::generate(cfg)));
    client.set_breaker(Arc::new(CircuitBreaker::default()));
    client
}

/// A fresh (removed if present) per-process scratch path for `tag`.
/// The directory itself is not created.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trail-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
