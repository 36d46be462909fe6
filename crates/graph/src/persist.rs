//! Crash-safe snapshot persistence for the graph store: the TKG2
//! format, magic `"TKG2"`, version 2, in the shared envelope of
//! [`crate::frame`] (DESIGN.md §9).
//!
//! The payload encodes only the authoritative state — node records and
//! the edge list; every lookup index is reconstructed on load via
//! [`GraphStore::rebuild_indices`], which halves the snapshot and
//! removes a whole class of index/state divergence bugs. Each node is
//! `kind:u8, key:(u32 len + bytes), label:(u8 flag [+ u16]),
//! first_order:u8`; each edge is `src:u32, dst:u32, kind:u8`.
//!
//! Failure model: a torn or bit-flipped snapshot must never load as a
//! silently wrong graph. The envelope catches truncation, corruption
//! and header damage, and the payload decode rejects a checksum-valid
//! but impossible graph — every failure surfaces as a typed
//! [`PersistError`], never a panic. [`write_atomic`] writes through a
//! temp file in the target directory and atomically renames it into
//! place, so a crash mid-write leaves the previous file intact. The
//! serving bundle's `ServeBundle::save` writes through it.

use std::path::Path;

use crate::frame::{self, put_str, put_u16, put_u32, put_u64, Cursor, HEADER_LEN};
use crate::ids::LabelId;
use crate::schema::{EdgeKind, NodeKind};
use crate::store::GraphStore;
use crate::{GraphError, NodeId, Result};

/// The snapshot checksum, kept under its historical name.
pub use trail_ioc::fnv1a as fnv1a_bytes;

const MAGIC: &[u8; 4] = b"TKG2";
const VERSION: u32 = 2;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// Fewer bytes than one header.
    TooShort {
        /// Bytes available.
        have: usize,
    },
    /// The first four bytes are not the snapshot magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// A snapshot from an unknown format version.
    UnsupportedVersion {
        /// The version field found.
        found: u32,
    },
    /// The payload length does not match the header's length field.
    /// `want` stays `u64` — it is an *untrusted* on-disk field and must
    /// be representable (and comparable) without ever converting it to
    /// `usize`, which would wrap on 32-bit targets.
    Truncated {
        /// Payload bytes the header promised.
        want: u64,
        /// Payload bytes actually present.
        have: usize,
    },
    /// The payload hash does not match the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The checksum passed but the payload structure is invalid (only
    /// reachable for snapshots produced by a buggy or hostile writer).
    Malformed {
        /// Byte offset into the payload.
        offset: usize,
        /// What was wrong there.
        what: &'static str,
    },
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::TooShort { have } => {
                write!(
                    f,
                    "snapshot too short: {have} bytes, header needs {HEADER_LEN}"
                )
            }
            PersistError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            PersistError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            PersistError::Truncated { want, have } => {
                write!(
                    f,
                    "truncated snapshot: payload wants {want} bytes, have {have}"
                )
            }
            PersistError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
                )
            }
            PersistError::Malformed { offset, what } => {
                write!(f, "malformed payload at byte {offset}: {what}")
            }
            PersistError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for GraphError {
    fn from(e: PersistError) -> Self {
        GraphError::Persist(e)
    }
}

/// Serialise a graph into a framed, checksummed snapshot.
pub fn to_bytes(g: &GraphStore) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 * g.node_count() + 9 * g.edge_count() + 16);
    put_u64(&mut payload, g.node_count() as u64);
    for (_, rec) in g.iter_nodes() {
        payload.push(rec.kind.index() as u8);
        put_str(&mut payload, g.resolve(rec.key));
        match rec.label() {
            Some(l) => {
                payload.push(1);
                put_u16(&mut payload, l.0);
            }
            None => payload.push(0),
        }
        payload.push(rec.first_order() as u8);
    }
    put_u64(&mut payload, g.edge_count() as u64);
    for e in g.edges() {
        put_u32(&mut payload, e.src.0);
        put_u32(&mut payload, e.dst.0);
        payload.push(e.kind.index() as u8);
    }
    frame::encode(MAGIC, VERSION, &payload)
}

/// Deserialise a snapshot, verifying frame, checksum and structure and
/// rebuilding every lookup index.
pub fn from_bytes(data: &[u8]) -> Result<GraphStore> {
    Ok(decode_payload(frame::decode(MAGIC, VERSION, data)?)?)
}

fn decode_payload(payload: &[u8]) -> std::result::Result<GraphStore, PersistError> {
    let mut c = Cursor::new(payload);
    // A node takes at least 7 bytes (kind, key length, two flags), an
    // edge exactly 9.
    let n_nodes = c.count_u64(7, "node count")?;
    let mut g = GraphStore::with_capacity(n_nodes, 0);
    for _ in 0..n_nodes {
        let kind_idx = c.u8("node kind")? as usize;
        let kind = *NodeKind::ALL
            .get(kind_idx)
            .ok_or_else(|| c.err("node kind out of range"))?;
        let key = c.str("node key")?;
        let id = g.upsert_node(kind, key);
        if id.index() != g.node_count() - 1 {
            return Err(c.err("duplicate node key"));
        }
        if c.bool("label flag")? {
            let label = LabelId(c.u16("label id")?);
            g.set_label(id, label)
                .map_err(|_| c.err("label on unknown node"))?;
        }
        if c.bool("first-order flag")? {
            g.mark_first_order(id);
        }
    }
    let n_edges = c.count_u64(9, "edge count")?;
    for _ in 0..n_edges {
        let src = NodeId(c.u32("edge src")?);
        let dst = NodeId(c.u32("edge dst")?);
        let kind_idx = c.u8("edge kind")? as usize;
        let kind = *EdgeKind::ALL
            .get(kind_idx)
            .ok_or_else(|| c.err("edge kind out of range"))?;
        if src.index() >= g.node_count() || dst.index() >= g.node_count() {
            return Err(c.err("edge endpoint out of range"));
        }
        match g.add_edge(src, dst, kind) {
            Ok(true) => {}
            Ok(false) => return Err(c.err("duplicate edge")),
            Err(_) => return Err(c.err("edge violates schema")),
        }
    }
    c.finish("trailing bytes after edges")?;
    Ok(g)
}

/// Atomically replace `path` with `data` (unique temp file + fsynced
/// rename).
///
/// Two durability details are load-bearing:
///
/// * The temp name is suffixed with the pid and a process-local
///   counter, so concurrent writers targeting the same path each get
///   their own temp file — with a fixed suffix, writer B's `create`
///   truncates writer A's half-written temp and A's rename then
///   installs B-sized garbage *as the surviving snapshot*.
/// * After the rename, the **parent directory** is fsynced. On
///   ext4/xfs a rename is a directory mutation; syncing only the file
///   leaves a crash window where the old directory entry comes back
///   and the "committed" snapshot silently reverts.
///
/// Concurrent writers still race on *which* complete snapshot
/// survives (last rename wins) — atomicity here means the survivor is
/// always one writer's complete bytes, never an interleaving.
pub fn write_atomic(path: &Path, data: &[u8]) -> std::result::Result<(), PersistError> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        PersistError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no file name",
        ))
    })?;
    let mut tmp_name = file_name.to_owned();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            std::fs::File::open(d)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result.map_err(PersistError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LabelId;
    use crate::schema::{EdgeKind, NodeKind};

    fn sample() -> GraphStore {
        let mut g = GraphStore::new();
        let e = g.upsert_node(NodeKind::Event, "evt");
        let ip = g.upsert_node(NodeKind::Ip, "1.2.3.4");
        g.add_edge(e, ip, EdgeKind::InReport).unwrap();
        g.set_label(e, LabelId(5)).unwrap();
        g.mark_first_order(ip);
        g
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g2.node_count(), 2);
        assert_eq!(g2.edge_count(), 1);
        let e = g2.find_node(NodeKind::Event, "evt").unwrap();
        assert_eq!(g2.node(e).label(), Some(LabelId(5)));
        let ip = g2.find_node(NodeKind::Ip, "1.2.3.4").unwrap();
        assert!(g2.node(ip).first_order());
        assert_eq!(
            g2.out_neighbors(e).collect::<Vec<_>>(),
            [(ip, EdgeKind::InReport)]
        );
    }

    #[test]
    fn rejects_corrupt_frames() {
        assert!(matches!(
            from_bytes(b"short"),
            Err(GraphError::Persist(PersistError::TooShort { .. }))
        ));
        assert!(matches!(
            from_bytes(b"XXXX\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"),
            Err(GraphError::Persist(PersistError::BadMagic { .. }))
        ));
        let mut bytes = to_bytes(&sample());
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(
            from_bytes(&bytes),
            Err(GraphError::Persist(PersistError::Truncated { .. }))
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = to_bytes(&sample());
        for offset in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x40;
            assert!(
                from_bytes(&corrupt).is_err(),
                "flip at byte {offset} of {} must be rejected",
                bytes.len()
            );
        }
    }

    /// Fuzz-style sweep over the untrusted length field: truncated,
    /// inflated, and 32-bit-wrapping values must all surface as typed
    /// errors before any slicing or allocation.
    #[test]
    fn hostile_length_fields_are_rejected_before_use() {
        let good = to_bytes(&sample());
        let payload_len = (good.len() - 24) as u64;
        let hostile: &[u64] = &[
            0,
            payload_len - 1,
            payload_len + 1,
            // Low 32 bits match the real payload length: on a 32-bit
            // target a `want as usize` conversion would wrap to the
            // correct value and let the frame through.
            payload_len + (1u64 << 32),
            payload_len + (1u64 << 48),
            u64::MAX,
            u64::from(u32::MAX),
        ];
        for &want in hostile {
            let mut bytes = good.clone();
            bytes[8..16].copy_from_slice(&want.to_le_bytes());
            match from_bytes(&bytes) {
                Err(GraphError::Persist(PersistError::Truncated { want: w, have })) => {
                    assert_eq!(w, want);
                    assert_eq!(have, payload_len as usize);
                }
                other => panic!("length {want:#x} accepted or misreported: {other:?}"),
            }
        }
        // Truncating the buffer (not the field) is the symmetric case.
        for cut in 1..4 {
            let mut bytes = good.clone();
            bytes.truncate(bytes.len() - cut);
            assert!(matches!(
                from_bytes(&bytes),
                Err(GraphError::Persist(PersistError::Truncated { .. }))
            ));
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 9;
        assert!(matches!(
            from_bytes(&bytes),
            Err(GraphError::Persist(PersistError::UnsupportedVersion {
                found: 9
            }))
        ));
    }

    #[test]
    fn rejects_structurally_invalid_payload_with_valid_checksum() {
        // A "snapshot" whose checksum is honest but whose payload lies:
        // one node promised, zero encoded.
        let payload = 1u64.to_le_bytes().to_vec();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a_bytes(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            from_bytes(&bytes),
            Err(GraphError::Persist(PersistError::Malformed { .. }))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("trail_graph_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tkg");
        write_atomic(&path, &to_bytes(&sample())).unwrap();
        let g2 = from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(g2.node_count(), 2);
        // Writing over an existing snapshot leaves no temp file behind,
        // whatever unique suffix it used.
        write_atomic(&path, &to_bytes(&sample())).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// The PR 9 regression: with a fixed `.tmp` suffix, two concurrent
    /// writers to the same path shared one temp file — writer B's
    /// `create` truncated writer A's half-written temp, and A's rename
    /// could then install B-sized garbage as the surviving snapshot.
    /// With pid+counter suffixes the survivor must always be one
    /// writer's complete payload, bitwise.
    #[test]
    fn concurrent_writers_never_corrupt_the_survivor() {
        let dir =
            std::env::temp_dir().join(format!("trail_graph_persist_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tkg");
        // Distinct payload sizes per writer: a cross-writer truncation
        // or interleaving cannot reproduce any complete payload.
        let payloads: Vec<Vec<u8>> = (0..4u8)
            .map(|w| {
                let mut g = GraphStore::new();
                for i in 0..(4 + w as usize * 3) {
                    g.upsert_node(NodeKind::Ip, &format!("10.0.{w}.{i}"));
                }
                to_bytes(&g)
            })
            .collect();
        for round in 0..8 {
            let survivors: Vec<Vec<u8>> = std::thread::scope(|s| {
                let handles: Vec<_> = payloads
                    .iter()
                    .map(|p| {
                        let path = path.clone();
                        s.spawn(move || write_atomic(&path, p).unwrap())
                    })
                    .collect();
                handles.into_iter().for_each(|h| h.join().unwrap());
                payloads.clone()
            });
            let got = std::fs::read(&path).unwrap();
            assert!(
                survivors.contains(&got),
                "round {round}: surviving snapshot matches no writer's payload \
                 ({} bytes)",
                got.len()
            );
            // And it still parses as a complete snapshot.
            from_bytes(&got).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphStore::new();
        let g2 = from_bytes(&to_bytes(&g)).unwrap();
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
    }
}
