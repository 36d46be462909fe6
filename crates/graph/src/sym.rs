//! String interning for node keys.
//!
//! The store used to key its dedup index on `(NodeKind, String)`,
//! which forced a `String` allocation on *every* lookup probe — the
//! enrichment hot loop probes far more often than it inserts. The
//! [`Interner`] assigns each distinct key text a dense [`Sym`] handle
//! (a `u32`), stores the text exactly once in one arena string, and
//! answers borrow-based `&str` lookups without allocating: the probe
//! hashes the borrowed text with FNV-1a and compares it against the
//! interned texts in an open-addressed bucket table.
//!
//! Interning rules (see DESIGN.md §10): symbols are handed out in
//! first-appearance order and are never freed, so a `Sym` is a stable,
//! `Copy`, `Eq`/`Hash`-cheap identity for the lifetime of its interner.
//! Symbols are text-scoped, not kind-scoped — `"198.51.100.7"` as an
//! IP node and as a (pathological) domain node shares one symbol; the
//! `(NodeKind, Sym)` pair remains the node identity.

use trail_ioc::fnv1a;

/// An interned string handle: dense index into its [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Dense index of this symbol (0-based, first-appearance order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Sym {
    /// Symbols print as `sym#<index>`; resolving the text requires the
    /// owning [`Interner`] (see [`Interner::resolve`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// Bucket sentinel for an empty slot.
const EMPTY: u32 = u32::MAX;

/// Grow when `len * 4 >= capacity * 3` (load factor 3/4).
#[inline]
fn needs_grow(len: usize, capacity: usize) -> bool {
    len * 4 >= capacity * 3
}

/// The arena end offset after appending `add` bytes to `len`.
///
/// # Panics
/// When the end does not fit the `u32` offsets ("interner full").
#[inline]
fn arena_end(len: usize, add: usize) -> u32 {
    len.checked_add(add)
        .and_then(|end| u32::try_from(end).ok())
        .expect("interner full")
}

/// A deduplicating string table with allocation-free `&str` probes.
///
/// Flat storage: every interned text lives in one `arena` string,
/// concatenated in symbol order, and `ends[i]` is the arena offset
/// where symbol `i`'s text ends (it starts where symbol `i - 1`'s
/// ends). Cloning or dropping an interner is three allocations
/// whatever it holds, where a `String` per key made both cost one
/// allocation per key. Offsets are `u32`, so the arena holds at most
/// 4 GiB of key text; interning past that panics ("interner full"),
/// like interning past `u32::MAX - 1` symbols.
///
/// Only the string storage is serialized; the probe table is rebuilt
/// on demand (snapshots already rebuild all lookup indices on load —
/// see [`crate::GraphStore::rebuild_indices`]).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    arena: String,
    ends: Vec<u32>,
    buckets: Vec<u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `n` strings before rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut cap = 8usize;
        while needs_grow(n, cap) {
            cap *= 2;
        }
        Self {
            arena: String::new(),
            ends: Vec::with_capacity(n),
            buckets: vec![EMPTY; cap],
        }
    }

    /// Number of distinct strings interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of a symbol.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.arena[self.span(sym.0)]
    }

    /// The arena range of symbol `id`'s text.
    #[inline]
    fn span(&self, id: u32) -> std::ops::Range<usize> {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// The bytes of symbol `id`'s text (no char-boundary checks, which
    /// a probe comparing bytes does not need).
    #[inline]
    fn bytes(&self, id: u32) -> &[u8] {
        &self.arena.as_bytes()[self.span(id)]
    }

    /// Find the symbol of `text` if it was ever interned. Never
    /// allocates: the probe hashes the borrowed bytes and compares
    /// them against the arena slices directly.
    pub fn lookup(&self, text: &str) -> Option<Sym> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = fnv1a(text) as usize & mask;
        loop {
            match self.buckets[i] {
                EMPTY => return None,
                id if self.bytes(id) == text.as_bytes() => return Some(Sym(id)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Intern `text`, appending it to the arena only on first sight.
    pub fn intern(&mut self, text: &str) -> Sym {
        if let Some(sym) = self.lookup(text) {
            return sym;
        }
        let id = self.ends.len() as u32;
        assert!(id != EMPTY, "interner full");
        let end = arena_end(self.arena.len(), text.len());
        self.arena.push_str(text);
        self.ends.push(end);
        if needs_grow(self.ends.len(), self.buckets.len().max(1)) || self.buckets.is_empty() {
            self.rehash();
        } else {
            self.place(id);
        }
        Sym(id)
    }

    /// Rebuild the probe table from the string storage (after
    /// deserialisation, which skips the buckets).
    pub fn rebuild(&mut self) {
        self.rehash();
    }

    /// Drop a bucket id into its probe chain (slot must be free).
    fn place(&mut self, id: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = fnv1a(self.bytes(id)) as usize & mask;
        while self.buckets[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.buckets[i] = id;
    }

    fn rehash(&mut self) {
        let mut cap = 8usize;
        while needs_grow(self.ends.len(), cap) {
            cap *= 2;
        }
        self.buckets.clear();
        self.buckets.resize(cap, EMPTY);
        for id in 0..self.ends.len() as u32 {
            self.place(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrips_and_dedups() {
        let mut it = Interner::new();
        let a = it.intern("evil.example");
        let b = it.intern("198.51.100.7");
        assert_ne!(a, b);
        assert_eq!(it.intern("evil.example"), a);
        assert_eq!(it.resolve(a), "evil.example");
        assert_eq!(it.resolve(b), "198.51.100.7");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn lookup_finds_only_interned_text() {
        let mut it = Interner::new();
        assert_eq!(it.lookup("anything"), None, "empty interner finds nothing");
        let a = it.intern("a.example");
        assert_eq!(it.lookup("a.example"), Some(a));
        assert_eq!(it.lookup("b.example"), None);
        assert_eq!(it.lookup(""), None);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let mut it = Interner::new();
        let e = it.intern("");
        assert_eq!(it.resolve(e), "");
        assert_eq!(it.lookup(""), Some(e));
    }

    #[test]
    fn symbols_are_dense_and_stable_across_growth() {
        let mut it = Interner::new();
        let syms: Vec<Sym> = (0..1000).map(|i| it.intern(&format!("key-{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(s.index(), i, "symbols assigned in first-appearance order");
            assert_eq!(it.resolve(s), format!("key-{i}"));
            assert_eq!(it.lookup(&format!("key-{i}")), Some(s));
        }
        assert_eq!(it.len(), 1000);
    }

    #[test]
    fn arena_offsets_are_checked() {
        assert_eq!(arena_end(0, 0), 0);
        assert_eq!(arena_end(u32::MAX as usize - 3, 3), u32::MAX);
        let past = std::panic::catch_unwind(|| arena_end(u32::MAX as usize - 3, 4));
        assert!(past.is_err(), "an end past u32::MAX must panic");
        assert!(std::panic::catch_unwind(|| arena_end(usize::MAX, 1)).is_err());
    }

    #[test]
    fn rebuild_restores_probes() {
        let mut it = Interner::new();
        let a = it.intern("x.example");
        let b = it.intern("y.example");
        // Simulate deserialisation: storage intact, buckets gone.
        it.buckets.clear();
        assert_eq!(it.lookup("x.example"), None);
        it.rebuild();
        assert_eq!(it.lookup("x.example"), Some(a));
        assert_eq!(it.lookup("y.example"), Some(b));
        assert_eq!(it.intern("x.example"), a, "no duplicate after rebuild");
    }
}
