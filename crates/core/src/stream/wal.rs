//! TWL1 — the streaming write-ahead event log, and the durable stream
//! wrapper that replays it.
//!
//! [`super::StreamRuntime`]'s crash-recovery story is event sourcing:
//! replaying the same reports and ticks reconstructs the same state
//! bit for bit. That story needs the inputs: a crash loses every
//! pushed-but-unpersisted event unless the *feed itself* can be
//! re-queried from the exact cursor — which real exchanges do not
//! guarantee. The WAL closes the hole locally: every report pushed
//! through [`DurableStream`], and every tick fired through it, is
//! appended to an on-disk segment log *before* the runtime processes
//! it, so recovery is always a local replay. It is the system's one
//! recovery path: no model state is ever written, because the replay
//! retrains it.
//!
//! ## Record frame
//!
//! Each record is one envelope of [`trail_graph::frame`] with magic
//! `"TWL1"`, version 1 (DESIGN.md §9). A push record's payload is a
//! compact binary [`RawReport`] encoding, at least 16 bytes long. A
//! tick record has an empty payload, which no report encodes to: it
//! marks where [`DurableStream::tick`] fired. Segments
//! are plain frame concatenations named `wal-<8-hex-digits>.twl`;
//! once a segment reaches [`WalConfig::segment_bytes`] it is *sealed*
//! (fsynced, never written again) and a fresh segment opens. A
//! zero-length segment is valid — it is exactly the state a crash
//! between "seal old" and "first append to new" leaves behind.
//!
//! ## Recovery contract: truncate at the tear
//!
//! [`Wal::open`] scans segments in name order and validates every
//! frame. An invalid frame (short header, bad magic/version, length
//! overrunning the file, checksum mismatch) in the **last** segment is
//! a *torn tail* — the unfinished append a kill left behind. The log
//! is physically truncated at the tear and every record before it
//! survives. The same damage in a **sealed** segment can only be bit
//! rot or a hostile edit, never a torn append, so it surfaces as a
//! typed [`WalError::CorruptSealed`] — never a panic, never a silent
//! skip. [`scan`] applies the same rule read-only; [`Wal::open`] is
//! [`scan`] followed by the truncation.
//!
//! ## What the WAL does and does not protect
//!
//! Durability of an appended record depends on the [`FsyncPolicy`]:
//! `Always` bounds loss to the in-flight append, `OnTick` to the
//! current tick window. The WAL protects pushed events and the ticks
//! fired on them; it does not snapshot model state — the replay
//! retrains deterministically — and it does not defend sealed segments
//! against bit rot beyond detecting it (keep bundle snapshots for
//! that; see DESIGN.md §14).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use trail_graph::frame::{self, put_str, put_u32, Cursor};
use trail_graph::PersistError;
use trail_ioc::report::{RawIndicator, RawReport};

use super::{PushOutcome, StreamRuntime, TickReport};

const MAGIC: [u8; 4] = *b"TWL1";
const VERSION: u32 = 1;

/// Why the log could not be written, scanned or replayed.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A frame in a sealed (non-last) segment failed validation. Torn
    /// appends can only reach the last segment, so this is bit rot or
    /// a hostile edit — the log refuses to replay rather than guess.
    CorruptSealed {
        /// Index of the damaged segment.
        segment: u64,
        /// Byte offset of the bad frame within the segment.
        offset: u64,
        /// What failed there.
        what: &'static str,
    },
    /// A frame's checksum passed but its payload is not a valid report
    /// encoding — only reachable for a buggy or hostile writer.
    MalformedRecord {
        /// Segment the record lives in.
        segment: u64,
        /// Byte offset of the frame within the segment.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// The directory already holds segments where a fresh log was
    /// demanded ([`Wal::create`] refuses to clobber history).
    NotEmpty {
        /// The offending directory.
        dir: PathBuf,
    },
    /// The log is intact but is not a prefix of the record sequence
    /// its replayer expects: it was written by another run.
    Foreign {
        /// Index of the first record (reports and ticks counted in log
        /// order) that differs from the expected sequence.
        record: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::CorruptSealed {
                segment,
                offset,
                what,
            } => {
                write!(
                    f,
                    "sealed segment {segment} corrupt at byte {offset}: {what}"
                )
            }
            WalError::MalformedRecord {
                segment,
                offset,
                what,
            } => {
                write!(
                    f,
                    "malformed record in segment {segment} at byte {offset}: {what}"
                )
            }
            WalError::NotEmpty { dir } => {
                write!(f, "wal dir {} already holds segments", dir.display())
            }
            WalError::Foreign { record } => {
                write!(f, "log record {record} belongs to another run")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: a crash loses at most the
    /// in-flight record.
    Always,
    /// `fdatasync` only when the stream ticks (and on seal): the crash
    /// window is the current tick's events — cheapest, and exactly the
    /// window a tick-granular consumer already tolerates. A logged
    /// tick's own record is the one the barrier makes durable.
    OnTick,
}

/// Log construction parameters.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory the segments live in (created if absent).
    pub dir: PathBuf,
    /// Seal the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A log in `dir` with 4 MiB segments and per-append fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Where recovery found a torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tear {
    /// Segment index holding the torn frame.
    pub segment: u64,
    /// Byte offset the segment was truncated to.
    pub offset: u64,
}

/// What a recovery scan found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segments scanned (including empty ones).
    pub segments: u64,
    /// Complete push records recovered.
    pub records: u64,
    /// One entry per complete tick record, in log order: the number of
    /// push records before it.
    pub ticks: Vec<u64>,
    /// The torn tail, if the last segment ended mid-append.
    pub tear: Option<Tear>,
}

/// The append-only segment log.
pub struct Wal {
    cfg: WalConfig,
    /// Active (last) segment.
    file: File,
    seg_index: u64,
    seg_len: u64,
    records: u64,
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:08x}.twl")
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(segment_name(index))
}

/// Parse `wal-<8-hex>.twl` back to its index.
fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".twl")?;
    if rest.len() != 8 {
        return None;
    }
    u64::from_str_radix(rest, 16).ok()
}

/// fsync a directory so a just-created/renamed entry is durable — the
/// same hole [`trail_graph::persist::write_atomic`] closes for
/// snapshots.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Sorted indices of the segments present in `dir`. Non-segment files
/// are ignored (the dir may hold bundles or other files too).
fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push(idx);
        }
    }
    out.sort_unstable();
    Ok(out)
}

// --- record codec ----------------------------------------------------------

/// Encode one report as a TWL1 payload (no frame).
fn encode_report(r: &RawReport) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + 16 * r.indicators.len());
    put_str(&mut p, &r.id);
    put_u32(&mut p, r.created_day);
    put_u32(&mut p, r.tags.len() as u32);
    for t in &r.tags {
        put_str(&mut p, t);
    }
    put_u32(&mut p, r.indicators.len() as u32);
    for i in &r.indicators {
        put_str(&mut p, &i.indicator_type);
        put_str(&mut p, &i.indicator);
    }
    p
}

/// Decode a TWL1 payload back into a report.
fn decode_report(payload: &[u8]) -> Result<RawReport, PersistError> {
    let mut c = Cursor::new(payload);
    let id = c.str("report id")?.to_owned();
    let created_day = c.u32("created day")?;
    // A tag is at least its 4-byte length, an indicator two of them.
    let n_tags = c.count_u32(4, "tag count")?;
    let mut tags = Vec::with_capacity(n_tags);
    for _ in 0..n_tags {
        tags.push(c.str("tag")?.to_owned());
    }
    let n_ind = c.count_u32(8, "indicator count")?;
    let mut indicators = Vec::with_capacity(n_ind);
    for _ in 0..n_ind {
        indicators.push(RawIndicator {
            indicator_type: c.str("indicator type")?.to_owned(),
            indicator: c.str("indicator")?.to_owned(),
        });
    }
    c.finish("trailing bytes after indicators")?;
    Ok(RawReport {
        id,
        created_day,
        tags,
        indicators,
    })
}

/// Frame one payload; an empty payload is a tick record.
fn frame(payload: &[u8]) -> Vec<u8> {
    frame::encode(&MAGIC, VERSION, payload)
}

/// The `what` a [`WalError`] reports for a frame or payload failure.
fn what(e: PersistError) -> &'static str {
    match e {
        PersistError::TooShort { .. } => "short header",
        PersistError::BadMagic { .. } => "bad magic",
        PersistError::UnsupportedVersion { .. } => "unsupported version",
        PersistError::Truncated { .. } => "payload overruns segment",
        PersistError::ChecksumMismatch { .. } => "checksum mismatch",
        PersistError::Malformed { what, .. } => what,
        PersistError::Io(_) => "io",
    }
}

impl Wal {
    /// Start a brand-new log. The directory is created if missing and
    /// must not already hold segments.
    pub fn create(cfg: WalConfig) -> Result<Self, WalError> {
        std::fs::create_dir_all(&cfg.dir)?;
        if !list_segments(&cfg.dir)?.is_empty() {
            return Err(WalError::NotEmpty {
                dir: cfg.dir.clone(),
            });
        }
        let file = Self::new_segment(&cfg.dir, 0)?;
        Ok(Self {
            cfg,
            file,
            seg_index: 0,
            seg_len: 0,
            records: 0,
        })
    }

    /// Open an existing log (or start one): scan every segment, apply
    /// the truncate-at-tear recovery rule, and return the log
    /// positioned for appending plus the recovered records.
    ///
    /// Idempotent: opening, doing nothing, and opening again recovers
    /// the same records and reports no new tear.
    pub fn open(cfg: WalConfig) -> Result<(Self, Vec<RawReport>, RecoveryReport), WalError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let (records, report) = scan(&cfg.dir)?;
        let Some(last) = list_segments(&cfg.dir)?.pop() else {
            return Ok((Self::create(cfg)?, records, report));
        };
        if let Some(tear) = report.tear {
            // Torn tail: truncate the file at the tear so a later append
            // never lands after garbage.
            let f = OpenOptions::new()
                .write(true)
                .open(segment_path(&cfg.dir, tear.segment))?;
            f.set_len(tear.offset)?;
            f.sync_all()?;
            trail_obs::counter_add("stream.wal.truncations", 1);
        }
        trail_obs::counter_add("stream.wal.recovered", report.records);
        // Re-open the last segment for appending at its (possibly
        // truncated) end.
        let mut file = OpenOptions::new()
            .write(true)
            .open(segment_path(&cfg.dir, last))?;
        let seg_len = file.seek(SeekFrom::End(0))?;
        Ok((
            Self {
                cfg,
                file,
                seg_index: last,
                seg_len,
                records: report.records,
            },
            records,
            report,
        ))
    }

    fn new_segment(dir: &Path, index: u64) -> Result<File, WalError> {
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(dir, index))?;
        // The segment *entry* must be durable before anything in it is:
        // otherwise a crash can leave durable records in a file the
        // directory does not know about.
        fsync_dir(dir)?;
        Ok(file)
    }

    /// Append one report. Write-ahead discipline: callers feed the
    /// record to the runtime only after this returns.
    pub fn append(&mut self, report: &RawReport) -> Result<(), WalError> {
        let t = std::time::Instant::now();
        self.write_record(&frame(&encode_report(report)), false)?;
        self.records += 1;
        trail_obs::counter_add("stream.wal.appended", 1);
        trail_obs::observe(
            "stream.wal.append_us",
            trail_obs::bounds::WAL_APPEND_US,
            t.elapsed().as_micros() as u64,
        );
        Ok(())
    }

    /// Append a tick record: durable on return under either policy, so
    /// a tick fires only once the log holds it.
    pub fn append_tick(&mut self) -> Result<(), WalError> {
        self.write_record(&frame(&[]), true)
    }

    /// Write one framed record, sync it under `Always` (or under
    /// `OnTick` when it is a `barrier`), and seal the segment once it
    /// is full.
    fn write_record(&mut self, bytes: &[u8], barrier: bool) -> Result<(), WalError> {
        self.file.write_all(bytes)?;
        self.seg_len += bytes.len() as u64;
        if barrier || self.cfg.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        if self.seg_len >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Seal the active segment and open the next one. A kill between
    /// the seal and the first append to the new segment leaves a valid
    /// empty segment — recovery treats it as zero records.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.file.sync_all()?;
        self.seg_index += 1;
        self.file = Self::new_segment(&self.cfg.dir, self.seg_index)?;
        self.seg_len = 0;
        trail_obs::counter_add("stream.wal.rotations", 1);
        Ok(())
    }

    /// Push records appended or recovered over this log's lifetime
    /// (tick records are not counted).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }
}

/// Scan a log directory read-only (no truncation, no file opens for
/// write): the reports that *would* be recovered plus the report,
/// which places the tick records between them. Drills use this to
/// probe kill points without mutating the log.
pub fn scan(dir: &Path) -> Result<(Vec<RawReport>, RecoveryReport), WalError> {
    let segments = list_segments(dir)?;
    let mut records = Vec::new();
    let mut report = RecoveryReport {
        segments: segments.len() as u64,
        ..Default::default()
    };
    for (i, &idx) in segments.iter().enumerate() {
        let data = std::fs::read(segment_path(dir, idx))?;
        let mut pos = 0;
        while pos < data.len() {
            let offset = pos as u64;
            match frame::decode_prefix(&MAGIC, VERSION, &data[pos..]) {
                Ok((payload, len)) => {
                    if payload.is_empty() {
                        report.ticks.push(records.len() as u64);
                    } else {
                        let r = decode_report(payload).map_err(|e| WalError::MalformedRecord {
                            segment: idx,
                            offset,
                            what: what(e),
                        })?;
                        records.push(r);
                    }
                    pos += len;
                }
                Err(_) if i + 1 == segments.len() => {
                    report.tear = Some(Tear {
                        segment: idx,
                        offset,
                    });
                    break;
                }
                Err(e) => {
                    return Err(WalError::CorruptSealed {
                        segment: idx,
                        offset,
                        what: what(e),
                    })
                }
            }
        }
    }
    report.records = records.len() as u64;
    Ok((records, report))
}

/// The records of a scan in log order: `Some(report)` for a push
/// record, `None` for a tick record. `ticks` holds the tick positions
/// of [`RecoveryReport::ticks`].
pub fn log_order<'a>(
    reports: &'a [RawReport],
    ticks: &'a [u64],
) -> impl Iterator<Item = Option<&'a RawReport>> + 'a {
    (0..=reports.len()).flat_map(move |i| {
        let at = i as u64;
        let here = ticks.partition_point(|&t| t <= at) - ticks.partition_point(|&t| t < at);
        std::iter::repeat_n(None, here).chain(reports.get(i).map(Some))
    })
}

/// A [`StreamRuntime`] whose pushes and ticks are logged write-ahead.
///
/// Every report — including ones the collector will drop — is appended
/// to the WAL *before* [`StreamRuntime::push`] sees it, and every tick
/// fired through [`Self::tick`] or [`Self::finish`] is logged before it
/// runs, so a replay reproduces not just the graph and model but the
/// ledger, tick reports and obs counters too (drops are deterministic
/// collector verdicts, and the ledger counts issued reports, not just
/// ingested ones).
pub struct DurableStream {
    wal: Wal,
    rt: StreamRuntime,
}

impl DurableStream {
    /// Wrap a fresh runtime over a brand-new log.
    pub fn create(wal_cfg: WalConfig, rt: StreamRuntime) -> Result<Self, WalError> {
        Ok(Self {
            wal: Wal::create(wal_cfg)?,
            rt,
        })
    }

    /// Recover: scan the log (truncating a torn tail), replay every
    /// surviving record through `rt` — which must be freshly built,
    /// with no events pushed — and return the caught-up stream. An
    /// empty or missing log recovers to `rt` itself.
    ///
    /// Pushes and tick records replay in log order. Ticks `push` fired
    /// on its own under `tick_every` are not logged: the replayed
    /// pushes fire them again. The recovered runtime is therefore
    /// bitwise-identical (TKG and model fingerprints, tick reports,
    /// ledger, tick count, pending events) to one that ran exactly the
    /// recovered records, because pushes and ticks are deterministic
    /// given the base system and config — the property
    /// `tests/wal_recovery_test.rs` pins at arbitrary kill offsets,
    /// both with a cadence and ticked by hand.
    pub fn recover(
        wal_cfg: WalConfig,
        mut rt: StreamRuntime,
    ) -> Result<(Self, RecoveryReport), WalError> {
        assert_eq!(
            rt.ledger().issued,
            0,
            "recovery replays into a fresh runtime; this one already saw events"
        );
        let (wal, records, report) = Wal::open(wal_cfg)?;
        {
            let _span = trail_obs::span("stream.wal.replay");
            for record in log_order(&records, &report.ticks) {
                match record {
                    Some(r) => {
                        rt.push(r);
                    }
                    None => {
                        rt.tick();
                    }
                }
            }
        }
        Ok((Self { wal, rt }, report))
    }

    /// Log the report, then push it. The record is on disk (durable per
    /// the fsync policy) before the runtime touches it; if the append
    /// fails the event is *not* processed, keeping "in the runtime"
    /// a subset of "in the log". A cadence tick the push fires is not
    /// logged, but under `OnTick` it syncs the log.
    pub fn push(&mut self, report: &RawReport) -> Result<PushOutcome, WalError> {
        self.wal.append(report)?;
        let ticks_before = self.rt.ticks_fired();
        let outcome = self.rt.push(report);
        if self.rt.ticks_fired() != ticks_before && self.wal.cfg.fsync == FsyncPolicy::OnTick {
            self.wal.sync()?;
        }
        Ok(outcome)
    }

    /// Log a tick record, then fire the tick (see
    /// [`StreamRuntime::tick`]). The record is durable before the tick
    /// runs, so [`Self::recover`] fires the same tick at the same place.
    pub fn tick(&mut self) -> Result<Option<TickReport>, WalError> {
        self.wal.append_tick()?;
        Ok(self.rt.tick())
    }

    /// Drain pending events with a final, logged tick, and leave the
    /// log synced. With nothing pending no tick fires and none is
    /// logged, exactly as [`StreamRuntime::finish`].
    pub fn finish(&mut self) -> Result<Option<TickReport>, WalError> {
        if self.rt.pending_events() == 0 {
            self.wal.sync()?;
            return Ok(None);
        }
        self.tick()
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &StreamRuntime {
        &self.rt
    }

    /// Mutable access for freeze/refreeze (which must sync incremental
    /// state); ingestion should go through [`Self::push`] so it is
    /// logged.
    pub fn runtime_mut(&mut self) -> &mut StreamRuntime {
        &mut self.rt
    }

    /// The log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Close the log and hand back the runtime.
    pub fn into_runtime(self) -> StreamRuntime {
        self.rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("trail-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn report(i: u32) -> RawReport {
        RawReport {
            id: format!("r{i:04}"),
            created_day: 600 + i,
            tags: vec![format!("APT{}", i % 3), "extra-tag".to_owned()],
            indicators: vec![
                RawIndicator {
                    indicator_type: "IPv4".to_owned(),
                    indicator: format!("10.0.{}.{}", i / 256, i % 256),
                },
                RawIndicator {
                    indicator_type: "domain".to_owned(),
                    indicator: format!("c2-{i}.example"),
                },
            ],
        }
    }

    fn reports(n: u32) -> Vec<RawReport> {
        (0..n).map(report).collect()
    }

    /// Concatenated segment bytes in order (test helper).
    fn log_bytes(dir: &Path) -> Vec<u8> {
        let mut out = Vec::new();
        for idx in list_segments(dir).unwrap() {
            out.extend_from_slice(&std::fs::read(segment_path(dir, idx)).unwrap());
        }
        out
    }

    /// Simulate a kill when exactly `keep` bytes of the whole log were
    /// durable: truncate the segment containing the boundary, drop any
    /// later segments.
    fn truncate_log_at(dir: &Path, keep: u64) {
        let mut remaining = keep;
        for idx in list_segments(dir).unwrap() {
            let path = segment_path(dir, idx);
            let len = std::fs::metadata(&path).unwrap().len();
            if remaining >= len {
                remaining -= len;
            } else {
                let f = OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(remaining).unwrap();
                // A kill can't leave segments after the torn one: the
                // writer had not created them yet.
                let later: Vec<u64> = list_segments(dir)
                    .unwrap()
                    .into_iter()
                    .filter(|&j| j > idx)
                    .collect();
                for j in later {
                    std::fs::remove_file(segment_path(dir, j)).unwrap();
                }
                return;
            }
        }
    }

    #[test]
    fn record_codec_roundtrips() {
        for r in reports(5) {
            let payload = encode_report(&r);
            assert_eq!(decode_report(&payload).unwrap(), r);
        }
        // Empty tags/indicators are fine.
        let bare = RawReport {
            id: String::new(),
            created_day: 0,
            tags: Vec::new(),
            indicators: Vec::new(),
        };
        assert_eq!(decode_report(&encode_report(&bare)).unwrap(), bare);
    }

    #[test]
    fn append_and_recover_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let rs = reports(20);
        {
            let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
            for r in &rs {
                wal.append(r).unwrap();
            }
            assert_eq!(wal.records(), 20);
        }
        let (wal, recovered, rep) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered, rs);
        assert_eq!(rep.records, 20);
        assert_eq!(rep.tear, None);
        assert_eq!(wal.records(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_a_dir_with_history() {
        let dir = tmp_dir("notempty");
        {
            let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
            wal.append(&report(0)).unwrap();
        }
        assert!(matches!(
            Wal::create(WalConfig::new(&dir)),
            Err(WalError::NotEmpty { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_at_the_threshold() {
        let dir = tmp_dir("rotate");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 256; // a few records per segment
        let rs = reports(30);
        {
            let mut wal = Wal::create(cfg.clone()).unwrap();
            for r in &rs {
                wal.append(r).unwrap();
            }
            let segs = list_segments(&dir).unwrap().len();
            assert!(segs >= 3, "256-byte segments must rotate");
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3);
        assert_eq!(
            segs,
            (0..segs.len() as u64).collect::<Vec<_>>(),
            "contiguous indices"
        );
        // Every sealed segment respects the threshold + one record slop.
        for &idx in &segs[..segs.len() - 1] {
            let len = std::fs::metadata(segment_path(&dir, idx)).unwrap().len();
            assert!(
                len >= cfg.segment_bytes,
                "sealed segment {idx} under threshold: {len}"
            );
        }
        let (_, recovered, rep) = Wal::open(cfg).unwrap();
        assert_eq!(recovered, rs);
        assert_eq!(rep.segments as usize, segs.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_continue_across_recovery() {
        let dir = tmp_dir("continue");
        let rs = reports(12);
        {
            let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
            for r in &rs[..7] {
                wal.append(r).unwrap();
            }
        }
        {
            let (mut wal, recovered, _) = Wal::open(WalConfig::new(&dir)).unwrap();
            assert_eq!(recovered.len(), 7);
            for r in &rs[7..] {
                wal.append(r).unwrap();
            }
        }
        let (_, recovered, rep) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered, rs);
        assert_eq!(rep.tear, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_byte_truncation_recovers_the_durable_prefix() {
        let dir = tmp_dir("anybyte");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 200; // force several segments
        let rs = reports(8);
        let mut wal = Wal::create(cfg.clone()).unwrap();
        // Byte size of the whole log after each append, so any cut
        // point maps to its expected surviving record count.
        let mut ends = Vec::new();
        for r in &rs {
            wal.append(r).unwrap();
            ends.push(log_bytes(&dir).len() as u64);
        }
        drop(wal);
        let total = *ends.last().unwrap();
        for keep in 0..=total {
            let copy = tmp_dir("anybyte-cut");
            std::fs::create_dir_all(&copy).unwrap();
            for idx in list_segments(&dir).unwrap() {
                std::fs::copy(segment_path(&dir, idx), segment_path(&copy, idx)).unwrap();
            }
            truncate_log_at(&copy, keep);
            let expected = ends.iter().filter(|&&e| e <= keep).count();
            let (_, recovered, rep) = Wal::open(WalConfig::new(&copy)).unwrap();
            assert_eq!(
                recovered.len(),
                expected,
                "cut at byte {keep}/{total}: recovered {} records, expected {expected}",
                recovered.len()
            );
            assert_eq!(&recovered[..], &rs[..expected], "cut at byte {keep}");
            // A tear is reported iff the cut fell mid-record (cut at 0
            // leaves a clean empty segment; records never span
            // segments, so record boundaries are global byte offsets).
            assert_eq!(
                rep.tear.is_some(),
                keep != 0 && !ends.contains(&keep),
                "cut at {keep}"
            );
            // Recovery is idempotent: a second open sees a clean log.
            let (_, again, rep2) = Wal::open(WalConfig::new(&copy)).unwrap();
            assert_eq!(again.len(), expected);
            assert_eq!(
                rep2.tear, None,
                "cut at byte {keep}: tear must be gone after truncation"
            );
            std::fs::remove_dir_all(&copy).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_sealed_segment_is_a_typed_error() {
        let dir = tmp_dir("sealedflip");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 200;
        {
            let mut wal = Wal::create(cfg.clone()).unwrap();
            for r in reports(10) {
                wal.append(&r).unwrap();
            }
            let segs = list_segments(&dir).unwrap().len();
            assert!(segs >= 2, "need a sealed segment");
        }
        let sealed = segment_path(&dir, 0);
        let clean = std::fs::read(&sealed).unwrap();
        for at in 0..clean.len() {
            let mut bad = clean.clone();
            bad[at] ^= 0x08;
            std::fs::write(&sealed, &bad).unwrap();
            match Wal::open(cfg.clone()) {
                Err(WalError::CorruptSealed { segment: 0, .. }) => {}
                other => panic!(
                    "flip at sealed byte {at}: want CorruptSealed, got {:?}",
                    other.map(|(_, r, rep)| (r.len(), rep))
                ),
            }
        }
        std::fs::write(&sealed, &clean).unwrap();
        assert!(Wal::open(cfg).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_length_fields_never_panic_or_allocate() {
        let dir = tmp_dir("hostilelen");
        {
            let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
            for r in reports(3) {
                wal.append(&r).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let clean = std::fs::read(&path).unwrap();
        // Inflated / wrapping / max length fields in the FIRST frame of
        // the last (only) segment: each must scan as a torn tail at
        // offset 0 and truncate the whole segment away — never a panic,
        // never an attempt to honour the length.
        for hostile in [u64::MAX, u64::MAX - 23, 1 << 32, (clean.len() as u64) + 1] {
            let mut bad = clean.clone();
            bad[8..16].copy_from_slice(&hostile.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            let (_, recovered, rep) = Wal::open(WalConfig::new(&dir)).unwrap();
            assert_eq!(
                recovered.len(),
                0,
                "length {hostile:#x} must tear at record 0"
            );
            assert_eq!(
                rep.tear,
                Some(Tear {
                    segment: 0,
                    offset: 0
                })
            );
            // Restore the log for the next case (the tear truncated it).
            std::fs::write(&path, &clean).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_zero_length_segments_are_valid() {
        let dir = tmp_dir("empty");
        // A log that was created and never appended to: one zero-length
        // segment.
        {
            let _wal = Wal::create(WalConfig::new(&dir)).unwrap();
        }
        let (_, recovered, rep) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(rep.segments, 1);
        assert_eq!(rep.tear, None);
        // Mid-rotation kill: sealed full segment + zero-length successor.
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 1; // rotate after every record
        {
            let mut wal = Wal::create(cfg.clone()).unwrap();
            wal.append(&report(0)).unwrap();
            assert_eq!(list_segments(&dir).unwrap().len(), 2, "rotated");
        }
        assert_eq!(std::fs::metadata(segment_path(&dir, 1)).unwrap().len(), 0);
        let (_, recovered, rep) = Wal::open(cfg).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(rep.segments, 2);
        assert_eq!(rep.tear, None, "an empty trailing segment is not a tear");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_payload_with_valid_checksum_is_a_typed_error() {
        let dir = tmp_dir("malformed");
        std::fs::create_dir_all(&dir).unwrap();
        // An honest frame around a payload that is not a report: the
        // writer was buggy or hostile, not torn — typed error, no
        // truncation, no panic.
        let payload = vec![0xFFu8; 7];
        std::fs::write(segment_path(&dir, 0), frame(&payload)).unwrap();
        assert!(matches!(
            Wal::open(WalConfig::new(&dir)),
            Err(WalError::MalformedRecord {
                segment: 0,
                offset: 0,
                ..
            })
        ));
        // A hostile tag count that passes the checksum but promises
        // more elements than the payload could hold must be rejected
        // by the plausibility bound, not allocated.
        let mut p = Vec::new();
        put_str(&mut p, "id");
        put_u32(&mut p, 1); // created_day
        put_u32(&mut p, u32::MAX); // tag count
        std::fs::write(segment_path(&dir, 0), frame(&p)).unwrap();
        assert!(matches!(
            Wal::open(WalConfig::new(&dir)),
            Err(WalError::MalformedRecord { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_is_read_only() {
        let dir = tmp_dir("scan");
        let rs = reports(6);
        {
            let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
            for r in &rs {
                wal.append(r).unwrap();
            }
        }
        // Tear the tail by hand.
        let path = segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (records, rep) = scan(&dir).unwrap();
        assert_eq!(records.len(), 5);
        assert!(rep.tear.is_some());
        // The file was not touched: a second scan sees the same tear.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 3);
        let (_, rep2) = scan(&dir).unwrap();
        assert_eq!(rep.tear, rep2.tear);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tick_records_sit_between_reports_in_log_order() {
        let dir = tmp_dir("ticks");
        let rs = reports(3);
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::OnTick;
        {
            let mut wal = Wal::create(cfg.clone()).unwrap();
            wal.append_tick().unwrap();
            wal.append(&rs[0]).unwrap();
            wal.append_tick().unwrap();
            wal.append(&rs[1]).unwrap();
            wal.append(&rs[2]).unwrap();
            wal.append_tick().unwrap();
            wal.append_tick().unwrap();
            assert_eq!(wal.records(), 3, "tick records are not reports");
        }
        // A tick record is a bare header: no report payload is empty.
        assert!(
            encode_report(&RawReport {
                id: String::new(),
                created_day: 0,
                tags: Vec::new(),
                indicators: Vec::new(),
            })
            .len()
                >= 16
        );
        let (_, recovered, rep) = Wal::open(cfg).unwrap();
        assert_eq!(recovered, rs);
        assert_eq!((rep.records, &rep.ticks[..]), (3, &[0, 1, 3, 3][..]));
        let order: Vec<Option<&str>> = log_order(&recovered, &rep.ticks)
            .map(|r| r.map(|r| r.id.as_str()))
            .collect();
        assert_eq!(
            order,
            [
                None,
                Some("r0000"),
                None,
                Some("r0001"),
                Some("r0002"),
                None,
                None
            ]
        );
        // Cut inside the last tick record: it tears, the rest survive.
        let path = segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (recovered, rep) = scan(&dir).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(rep.ticks, [0, 1, 3]);
        assert_eq!(rep.tear.map(|t| t.offset), Some(len - 24));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policies_accept_appends() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::OnTick] {
            let dir = tmp_dir("policy");
            let mut cfg = WalConfig::new(&dir);
            cfg.fsync = policy;
            let mut wal = Wal::create(cfg.clone()).unwrap();
            for r in reports(9) {
                wal.append(&r).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let (_, recovered, _) = Wal::open(cfg).unwrap();
            assert_eq!(recovered.len(), 9, "{policy:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn segment_names_parse_and_ignore_strangers() {
        assert_eq!(parse_segment_name("wal-00000000.twl"), Some(0));
        assert_eq!(parse_segment_name("wal-000000ff.twl"), Some(255));
        assert_eq!(parse_segment_name("wal-ff.twl"), None);
        assert_eq!(parse_segment_name("checkpoint.tsc"), None);
        assert_eq!(parse_segment_name("wal-00000000.twl.tmp"), None);
        let dir = tmp_dir("strangers");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bundle.tsb"), b"not a segment").unwrap();
        let (records, rep) = scan(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(rep.segments, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
