//! The frame codec shared by every on-disk format: TKG2 graph
//! snapshots, TSB1 serve bundles and TWL1 log records (DESIGN.md §9 describes the envelope and the rules below).
//!
//! Each file — or, for TWL1, each record — is one envelope
//! (little-endian):
//!
//! ```text
//! magic    4 bytes, the format tag
//! version  u32
//! length   u64 payload byte count
//! checksum u64 FNV-1a over the payload
//! payload  `length` bytes
//! ```
//!
//! [`encode`] writes it. [`decode`] checks a whole file and
//! [`decode_prefix`] the next record of a concatenation. Both check
//! size, magic, version, length and checksum, in that order, and
//! compare the untrusted length in the u64 domain before any `usize`
//! conversion or slicing, so a hostile length cannot wrap into a
//! plausible one on a 32-bit target. The payload is then read through
//! [`Cursor`], which bounds every read and keeps element counts in u64
//! until they fit the bytes left. Every failure is a typed
//! [`PersistError`], never a panic.

use trail_ioc::fnv1a;

use crate::persist::PersistError;

type Result<T> = std::result::Result<T, PersistError>;

/// Envelope header: magic + version + payload length + checksum.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Frame `payload` under `magic` and `version`.
pub fn encode(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, fnv1a(payload));
    out.extend_from_slice(payload);
    out
}

/// Check a whole file that holds exactly one envelope and return its
/// payload.
pub fn decode<'a>(magic: &[u8; 4], version: u32, data: &'a [u8]) -> Result<&'a [u8]> {
    let (want, checksum) = header(magic, version, data)?;
    let payload = &data[HEADER_LEN..];
    if payload.len() as u64 != want {
        return Err(PersistError::Truncated {
            want,
            have: payload.len(),
        });
    }
    verify(payload, checksum)
}

/// Check the envelope at the start of `data`, which may be followed by
/// more envelopes. Returns the payload and the envelope's total length,
/// the offset of whatever follows it.
pub fn decode_prefix<'a>(
    magic: &[u8; 4],
    version: u32,
    data: &'a [u8],
) -> Result<(&'a [u8], usize)> {
    let (want, checksum) = header(magic, version, data)?;
    let have = data.len() - HEADER_LEN;
    if want > have as u64 {
        return Err(PersistError::Truncated { want, have });
    }
    let end = HEADER_LEN + want as usize;
    Ok((verify(&data[HEADER_LEN..end], checksum)?, end))
}

/// Check size, magic and version; return the length and checksum
/// fields, both still untrusted.
fn header(magic: &[u8; 4], version: u32, data: &[u8]) -> Result<(u64, u64)> {
    if data.len() < HEADER_LEN {
        return Err(PersistError::TooShort { have: data.len() });
    }
    let mut c = Cursor::new(&data[..HEADER_LEN]);
    let found = c.array("magic")?;
    if &found != magic {
        return Err(PersistError::BadMagic { found });
    }
    let found = c.u32("version")?;
    if found != version {
        return Err(PersistError::UnsupportedVersion { found });
    }
    Ok((c.u64("length")?, c.u64("checksum")?))
}

fn verify(payload: &[u8], expected: u64) -> Result<&[u8]> {
    let actual = fnv1a(payload);
    if actual != expected {
        return Err(PersistError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

// --- writers -----------------------------------------------------------------

/// Append a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a string as `u32 length + UTF-8 bytes`.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// --- reader ------------------------------------------------------------------

/// Bounds-checked little-endian reader over a checked payload. Every
/// failure is [`PersistError::Malformed`] at the reader's offset,
/// labelled with the caller's `what`.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// A [`PersistError::Malformed`] at the current offset.
    #[inline]
    pub fn err(&self, what: &'static str) -> PersistError {
        PersistError::Malformed {
            offset: self.pos,
            what,
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let end = end.ok_or_else(|| self.err(what))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A flag byte that must be exactly 0 or 1.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Malformed {
                offset: self.pos - 1,
                what,
            }),
        }
    }

    /// A `u32 length + UTF-8 bytes` string.
    #[inline]
    pub fn str(&mut self, what: &'static str) -> Result<&'a str> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes).map_err(|_| self.err("non-UTF-8 string"))
    }

    /// Check an untrusted element count against the bytes left, given
    /// that each element takes at least `min_elem_bytes`. The count
    /// stays `u64` until the bound holds, so no hostile value can wrap
    /// or reserve memory the payload could not fill.
    #[inline]
    pub fn bound(&self, n: u64, min_elem_bytes: u64, what: &'static str) -> Result<usize> {
        let left = (self.data.len() - self.pos) as u64;
        if n > left / min_elem_bytes.max(1) {
            return Err(self.err(what));
        }
        Ok(n as usize)
    }

    /// A `u64` element count, checked with [`Self::bound`].
    #[inline]
    pub fn count_u64(&mut self, min_elem_bytes: u64, what: &'static str) -> Result<usize> {
        let n = self.u64(what)?;
        self.bound(n, min_elem_bytes, what)
    }

    /// A `u32` element count, checked with [`Self::bound`].
    #[inline]
    pub fn count_u32(&mut self, min_elem_bytes: u64, what: &'static str) -> Result<usize> {
        let n = self.u32(what)?;
        self.bound(n.into(), min_elem_bytes, what)
    }

    /// Require that the whole payload was read.
    #[inline]
    pub fn finish(&self, what: &'static str) -> Result<()> {
        if self.pos != self.data.len() {
            return Err(self.err(what));
        }
        Ok(())
    }
}
