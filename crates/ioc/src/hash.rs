//! Byte-wise 64-bit FNV-1a — the one non-cryptographic hash of the
//! workspace: frame checksums, vocabulary slots, fault draws and
//! content fingerprints all fold bytes through it. It guards against
//! torn writes and bit rot, not forgery.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a: writing bytes in pieces hashes exactly like
/// writing them at once, so callers can hash a byte stream without
/// building it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher over the empty stream.
    #[inline]
    pub fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// Fold `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of one byte string (`&str`, `&[u8]`, `&Vec<u8>`, ...).
#[inline]
pub fn fnv1a<B: AsRef<[u8]> + ?Sized>(bytes: &B) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes.as_ref());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }
}
