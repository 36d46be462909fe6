//! Fixed-capacity categorical vocabularies with a deterministic
//! hashing fallback.
//!
//! The paper one-hot encodes high-cardinality categoricals into fixed
//! blocks (e.g. 944 server types, 249 country codes). We assign curated
//! common values to the first slots — so explanation output (Fig. 9) can
//! name them — and hash everything else into the remaining slots with
//! FNV-1a, which keeps the layout stable across runs and datasets.

use crate::fnv1a;

/// A fixed-size one-hot vocabulary.
#[derive(Debug, Clone)]
pub struct Vocab {
    block: &'static str,
    size: usize,
    known: Vec<&'static str>,
}

impl Vocab {
    /// Build a vocabulary of `size` slots whose first `known.len()`
    /// slots carry the curated names. Panics if `known` overflows `size`
    /// (a construction-time bug, not a data condition).
    pub fn new(block: &'static str, size: usize, known: &[&'static str]) -> Self {
        assert!(
            known.len() <= size,
            "{block}: {} curated values > {size} slots",
            known.len()
        );
        Self {
            block,
            size,
            known: known.to_vec(),
        }
    }

    /// The slot for a value: curated index if known, otherwise an FNV-1a
    /// hash into the non-curated tail (or the whole block when every
    /// slot is curated).
    pub fn slot(&self, value: &str) -> usize {
        let lower = value.to_ascii_lowercase();
        if let Some(i) = self.known.iter().position(|&k| k == lower) {
            return i;
        }
        let tail = self.size - self.known.len();
        if tail == 0 {
            (fnv1a(&lower) as usize) % self.size
        } else {
            self.known.len() + (fnv1a(&lower) as usize) % tail
        }
    }

    /// Human-readable name of a slot.
    pub fn slot_name(&self, slot: usize) -> String {
        debug_assert!(slot < self.size);
        match self.known.get(slot) {
            Some(k) => format!("{}={}", self.block, k),
            None => format!("{}[h{}]", self.block, slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curated_values_get_fixed_slots() {
        let v = Vocab::new("server", 10, &["nginx", "apache"]);
        assert_eq!(v.slot("nginx"), 0);
        assert_eq!(v.slot("Apache"), 1); // case-insensitive
        assert_eq!(v.slot_name(0), "server=nginx");
    }

    #[test]
    fn unknown_values_hash_into_tail() {
        let v = Vocab::new("server", 10, &["nginx", "apache"]);
        let s = v.slot("lighttpd/1.4");
        assert!((2..10).contains(&s));
        // Deterministic.
        assert_eq!(s, v.slot("lighttpd/1.4"));
        assert!(v.slot_name(s).starts_with("server[h"));
    }

    #[test]
    fn fully_curated_vocab_hashes_over_whole_block() {
        let v = Vocab::new("flag", 2, &["a", "b"]);
        assert!(v.slot("zzz") < 2);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a("nginx"), fnv1a("nginx"));
        assert_ne!(fnv1a("nginx"), fnv1a("apache"));
    }
}
