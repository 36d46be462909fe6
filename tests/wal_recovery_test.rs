//! Kill-at-any-byte WAL recovery drills.
//!
//! The contract under test: a [`DurableStream`] killed at *any* byte
//! boundary of its TWL1 log — mid-payload, mid-header, mid-rotation,
//! inside a tick record, between records — recovers by truncating at
//! the first torn record and replaying the durable prefix into a
//! runtime whose TKG and model fingerprints, budget ledger, tick
//! count, pending events and tick reports are bitwise identical to the
//! uninterrupted run's state after exactly that prefix. Two inputs
//! run the drill: ticks fired by the `tick_every` cadence (not
//! logged; the replayed pushes fire them again) and ticks fired by
//! hand through [`DurableStream::tick`] (logged, replayed in place). The drills run under the PR 4 chaos harness (breaker-armed
//! client, seeded transient faults), mirroring
//! `tests/stream_equivalence_test.rs`: recovery builds a *fresh*
//! world/client/runtime, exactly like a restarted process.
//!
//! Two sweeps split the cost: a scan-level sweep cuts the log at
//! every single byte offset and checks the recovered record prefix
//! (cheap — no model training), and a replay-level sweep re-trains a
//! runtime at structurally hostile offsets (mid-header, mid-payload,
//! the segment boundary, a torn final record, the `ChaosPlan`'s
//! seeded cut points, and the end and inside of every tick record)
//! and compares full state — including running the *rest* of the
//! schedule after one recovery to prove the resumed stream converges
//! on the uninterrupted run's final bits.

mod common;

use std::path::{Path, PathBuf};

use common::{chaos_client, obs_lock, temp_dir};
use rand::rngs::StdRng;
use rand::SeedableRng;

use trail::attribute::GnnEvalConfig;
use trail::longitudinal::StudyConfig;
use trail::stream::wal::{self, DurableStream, FsyncPolicy, WalConfig, WalError};
use trail::stream::{AsofPolicy, BudgetLedger, StreamConfig, StreamRuntime, TickReport};
use trail::system::TrailSystem;
use trail_gnn::{FineTune, TrainConfig};
use trail_ioc::report::RawReport;
use trail_ml::nn::autoencoder::AutoencoderConfig;
use trail_osint::{ChaosPlan, DAYS_PER_MONTH};

const WORLD_SEED: u64 = 123;
const RNG_SEED: u64 = 7;
/// Seed 1: survivable feed (55 % transient faults) — the same plan the
/// PR 4 chaos suite pins.
const CHAOS_SEED: u64 = 1;

fn study_cfg() -> StudyConfig {
    StudyConfig {
        months: 2,
        gnn_layers: 2,
        gnn: GnnEvalConfig {
            hidden: 12,
            train: TrainConfig {
                lr: 0.02,
                epochs: 15,
                patience: 0,
            },
            val_fraction: 0.0,
            l2_normalize: true,
            label_visible_fraction: 0.5,
            sampled_neighbor_cap: None,
        },
        ae: AutoencoderConfig {
            hidden: 16,
            code: 6,
            epochs: 1,
            batch_size: 64,
            lr: 1e-3,
        },
        fine_tune: FineTune {
            lr: 0.01,
            epochs: 3,
        },
    }
}

/// How the drilled stream ticks.
#[derive(Debug, Clone, Copy)]
enum Ticks {
    /// `tick_every: Some(n)`: `push` fires the ticks, none is logged.
    Cadence(usize),
    /// `tick_every: None`: `DurableStream::tick` after every `n`
    /// pushes, each logged as a tick record.
    ByHand(usize),
}

/// A fresh runtime + the full schedule, exactly like a process start:
/// new world, new client, new breaker, same seeds.
fn fresh_runtime(plan: &ChaosPlan, ticks: Ticks) -> (StreamRuntime, Vec<RawReport>) {
    let client = chaos_client(plan, WORLD_SEED);
    let cutoff = client.world().config.cutoff_day;
    let horizon = client.world().config.horizon_day();
    let schedule = client.stream_reports(cutoff, horizon);
    let sys = TrailSystem::build(client, cutoff);
    let cfg = StreamConfig {
        study: study_cfg(),
        asof: AsofPolicy::WindowEnd {
            origin: cutoff,
            stride: DAYS_PER_MONTH,
        },
        tick_every: match ticks {
            Ticks::Cadence(n) => Some(n),
            Ticks::ByHand(_) => None,
        },
        budget_us: u64::MAX,
    };
    (
        StreamRuntime::new(StdRng::seed_from_u64(RNG_SEED), sys, cfg),
        schedule,
    )
}

/// Small segments so cuts land mid-rotation as well as mid-record.
fn wal_cfg(dir: &Path) -> WalConfig {
    WalConfig {
        dir: dir.to_path_buf(),
        segment_bytes: 256,
        fsync: FsyncPolicy::Always,
    }
}

/// Segment files in index order (the names sort).
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".twl"))
        })
        .collect();
    segs.sort();
    segs
}

fn log_len(dir: &Path) -> u64 {
    segments(dir)
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum()
}

fn copy_log(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Simulate a kill with exactly `keep` bytes durable: truncate the
/// segment holding the boundary, remove segments after it.
fn cut_log_at(dir: &Path, keep: u64) {
    let mut remaining = keep;
    let segs = segments(dir);
    for (i, path) in segs.iter().enumerate() {
        let len = std::fs::metadata(path).unwrap().len();
        if remaining >= len {
            remaining -= len;
            continue;
        }
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(remaining).unwrap();
        for later in &segs[i + 1..] {
            std::fs::remove_file(later).ok();
        }
        return;
    }
}

/// Everything that must be bitwise-identical between an uninterrupted
/// run and a recovered one: graph bits, model bits, the full budget
/// ledger, the tick counter, the events still pending and the tick
/// reports.
type State = (u64, u64, BudgetLedger, u32, usize, Vec<TickReport>);

fn state_of(rt: &StreamRuntime) -> State {
    (
        rt.tkg_fingerprint(),
        rt.model_fingerprint(),
        rt.ledger(),
        rt.ticks_fired(),
        rt.pending_events(),
        rt.tick_reports().to_vec(),
    )
}

#[test]
fn recovery_is_bitwise_identical_at_any_kill_offset() {
    let _g = obs_lock();
    // Auto-ticks fire during replay exactly as they fired live.
    drill("cadence", Ticks::Cadence(4));
    // Tick records replay in log order.
    drill("by-hand", Ticks::ByHand(5));
}

fn drill(tag: &str, ticks: Ticks) {
    let plan = ChaosPlan::from_seed(CHAOS_SEED);
    let root = temp_dir(&format!("any-offset-{tag}"));
    let ref_dir = root.join("reference");

    // Uninterrupted reference run. Each logged step is `Some(i)` for a
    // push of `schedule[i]` or `None` for a tick record; the state and
    // the log's byte length are captured after every step.
    let (rt, schedule) = fresh_runtime(&plan, ticks);
    assert!(
        schedule.len() >= 10,
        "tiny world too small to drill ({})",
        schedule.len()
    );
    let mut drt = DurableStream::create(wal_cfg(&ref_dir), rt).unwrap();
    let mut steps: Vec<Option<usize>> = Vec::new();
    let mut states: Vec<State> = vec![state_of(drt.runtime())];
    let mut ends: Vec<u64> = Vec::new();
    let mut logged = |step, drt: &DurableStream| {
        steps.push(step);
        states.push(state_of(drt.runtime()));
        ends.push(log_len(&ref_dir));
    };
    for (i, r) in schedule.iter().enumerate() {
        drt.push(r).unwrap();
        logged(Some(i), &drt);
        if matches!(ticks, Ticks::ByHand(n) if (i + 1) % n == 0) {
            drt.tick().unwrap();
            logged(None, &drt);
        }
    }
    if drt.finish().unwrap().is_some() {
        logged(None, &drt);
    }
    let total = *ends.last().unwrap();
    let n_segs = segments(&ref_dir).len();
    assert!(
        n_segs > 2,
        "need several segments to cover rotation kills (got {n_segs})"
    );
    assert_eq!(drt.wal().records(), schedule.len() as u64);
    let final_state = state_of(drt.runtime());
    assert_eq!(final_state.4, 0, "finish left events pending");
    drop(drt);
    // Push records among the first `k` logged steps.
    let pushes_in = |k: usize| steps[..k].iter().filter(|s| s.is_some()).count();

    // Scan sweep: cut the log at EVERY byte offset (working downwards
    // on one scratch copy — cuts only ever shrink it) and check the
    // recovered prefix against the append ledger. `wal::scan` is
    // read-only, so the scratch log stays valid between cuts.
    let sweep = root.join("sweep");
    copy_log(&ref_dir, &sweep);
    for keep in (0..=total).rev() {
        cut_log_at(&sweep, keep);
        let (recovered, rep) = wal::scan(&sweep).unwrap_or_else(|e| {
            panic!("{tag}: scan after cut at byte {keep} errored: {e}");
        });
        let expect = pushes_in(ends.partition_point(|&e| e <= keep));
        assert_eq!(
            rep.records as usize, expect,
            "{tag}: cut at byte {keep}: recovered {} records, durable prefix is {expect}",
            rep.records
        );
        let torn = keep != 0 && ends.binary_search(&keep).is_err();
        assert_eq!(
            rep.tear.is_some(),
            torn,
            "{tag}: cut at byte {keep}: tear mis-detected"
        );
        assert_eq!(recovered.len(), expect);
        // Full content equality, sampled (the length check above runs
        // at every offset; record content can only change at record
        // granularity).
        if keep % 64 == 0 || !torn {
            assert_eq!(
                recovered[..],
                schedule[..expect],
                "{tag}: cut at byte {keep}: content"
            );
        }
    }

    // Replay sweep: full recovery (fresh world + client + runtime,
    // truncate-at-tear, replay) at structurally hostile offsets, the
    // plan's seeded cut points, and right after and 3 bytes inside
    // every tick record (a torn tick recovers the tick before it, its
    // events still pending).
    let m = ends[steps.len() / 2];
    let seg0 = std::fs::metadata(&segments(&ref_dir)[0]).unwrap().len();
    let mut cuts = vec![
        m + 7,     // mid-header of the next record
        m + 30,    // mid-payload
        seg0,      // exactly at the first rotation boundary
        total - 2, // torn final record
    ];
    cuts.extend(plan.wal_cut_points.iter().map(|&c| c % (total + 1)));
    for (j, _) in steps.iter().enumerate().filter(|(_, s)| s.is_none()) {
        cuts.extend([ends[j], ends[j] - 3]);
    }
    for &keep in &cuts {
        let dir = root.join(format!("cut-{keep}"));
        copy_log(&ref_dir, &dir);
        cut_log_at(&dir, keep);
        let before = trail_obs::snapshot();
        let (rec, report) = DurableStream::recover(wal_cfg(&dir), fresh_runtime(&plan, ticks).0)
            .unwrap_or_else(|e| panic!("{tag}: recovery after cut at byte {keep} errored: {e}"));
        let k = ends.partition_point(|&e| e <= keep);
        assert_eq!(
            report.records as usize,
            pushes_in(k),
            "{tag}: cut {keep}: prefix length"
        );
        assert_eq!(
            state_of(rec.runtime()),
            states[k],
            "{tag}: cut at byte {keep}: recovered state diverges after {k} records"
        );
        // The obs ledger reconciles with the recovery report.
        let delta = trail_obs::snapshot().delta_since(&before);
        assert_eq!(delta.counter("stream.wal.recovered"), pushes_in(k) as u64);
        drop(rec);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Continue-after-recovery: recover from the mid-payload cut, run
    // the rest of the steps, and land on the uninterrupted run's final
    // bits — crash, recover, resume is indistinguishable from never
    // crashing.
    let dir = root.join("resume");
    copy_log(&ref_dir, &dir);
    cut_log_at(&dir, m + 30);
    let (mut resumed, _) =
        DurableStream::recover(wal_cfg(&dir), fresh_runtime(&plan, ticks).0).unwrap();
    let k = ends.partition_point(|&e| e <= m + 30);
    assert!(k < steps.len());
    for step in &steps[k..] {
        match *step {
            Some(i) => {
                resumed.push(&schedule[i]).unwrap();
            }
            None => {
                resumed.tick().unwrap();
            }
        }
    }
    assert_eq!(state_of(resumed.runtime()), final_state, "{tag}: resumed");
    assert_eq!(resumed.wal().records(), schedule.len() as u64);
    // And the resumed log recovers the full schedule in turn.
    let (recovered, rep) = wal::scan(&dir).unwrap();
    assert!(rep.tear.is_none());
    assert_eq!(recovered[..], schedule[..]);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sealed_segment_corruption_is_a_typed_error_not_a_truncation() {
    let _g = obs_lock();
    let plan = ChaosPlan::from_seed(CHAOS_SEED);
    let root = temp_dir("sealed");
    let ref_dir = root.join("reference");
    let (rt, schedule) = fresh_runtime(&plan, Ticks::Cadence(4));
    let mut drt = DurableStream::create(wal_cfg(&ref_dir), rt).unwrap();
    for r in &schedule {
        drt.push(r).unwrap();
    }
    assert!(segments(&ref_dir).len() > 1, "drill needs a sealed segment");

    for &off in &plan.wal_corrupt_offsets {
        let dir = root.join(format!("flip-{off:x}"));
        copy_log(&ref_dir, &dir);
        let seg = segments(&dir)[0].clone();
        let mut bytes = std::fs::read(&seg).unwrap();
        let p = (off % bytes.len() as u64) as usize;
        bytes[p] ^= 0x08;
        std::fs::write(&seg, &bytes).unwrap();
        // A sealed segment is never truncated: damage there is not a
        // torn tail but lost history, and recovery must refuse loudly
        // rather than silently replay a hole.
        match wal::scan(&dir) {
            Err(WalError::CorruptSealed { segment: 0, .. }) => {}
            other => panic!(
                "flip at sealed byte {p}: expected CorruptSealed, got {:?}",
                other.map(|(r, rep)| (r.len(), rep))
            ),
        }
        match DurableStream::recover(wal_cfg(&dir), fresh_runtime(&plan, Ticks::Cadence(4)).0) {
            Err(WalError::CorruptSealed { segment: 0, .. }) => {}
            Err(e) => panic!("flip at sealed byte {p}: wrong error {e}"),
            Ok(_) => panic!("flip at sealed byte {p}: recovery loaded corrupt history"),
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
