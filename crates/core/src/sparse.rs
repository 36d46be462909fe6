//! Sparse feature vectors.
//!
//! IOC feature vectors are overwhelmingly one-hot blocks (a 1,517-dim
//! URL vector typically has ~20 non-zeros), so the TKG feature store
//! keeps them sparse and densifies per minibatch.

use trail_ioc::Fnv1a;

/// A sparse `f32` vector with a fixed logical dimensionality.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    /// Logical width.
    pub dims: u32,
    /// `(index, value)` entries, strictly increasing by index.
    pub entries: Vec<(u32, f32)>,
}

impl SparseVec {
    /// Compress a dense slice (drops zeros).
    pub fn from_dense(dense: &[f32]) -> Self {
        let entries = dense
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        Self {
            dims: dense.len() as u32,
            entries,
        }
    }

    /// Borrow as a [`SparseRef`] view.
    #[inline]
    pub fn as_ref(&self) -> SparseRef<'_> {
        SparseRef {
            dims: self.dims,
            entries: &self.entries,
        }
    }
}

/// Borrowed view of a sparse vector: the storage-agnostic form every
/// feature consumer works with. An owned [`SparseVec`] and an arena
/// span (see [`FeatureArena`]) present identically through it, and the
/// fingerprint runs over the same bytes either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseRef<'a> {
    /// Logical width.
    pub dims: u32,
    /// `(index, value)` entries, strictly increasing by index.
    pub entries: &'a [(u32, f32)],
}

impl SparseRef<'_> {
    /// Materialise as a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dims as usize];
        for &(i, v) in self.entries {
            out[i as usize] = v;
        }
        out
    }

    /// Value at index `i`.
    pub fn get(&self, i: u32) -> f32 {
        self.entries
            .binary_search_by_key(&i, |&(idx, _)| idx)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Content fingerprint over the `(index, value-bits)` entries and
    /// the logical width. Equal vectors always fingerprint equally,
    /// whatever their storage, so a per-row sweep can key encoded rows
    /// on it (the code cache's test oracle does).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&self.dims.to_le_bytes());
        for &(i, v) in self.entries {
            h.write(&i.to_le_bytes());
            h.write(&v.to_bits().to_le_bytes());
        }
        h.finish()
    }
}

/// Arena feature store: one slab of `(index, value)` entries plus a
/// span table, replacing a `HashMap<NodeId, SparseVec>` whose per-node
/// `Vec` allocations (3 words of header + a separate heap block each)
/// dominated feature-store memory at paper scale. Insert-only,
/// first-write-wins, matching the enrichment idempotency contract: a
/// stored span is never rewritten, so the spans stored since some
/// point are exactly the rows that changed since then.
#[derive(Debug, Clone, Default)]
pub struct FeatureArena {
    /// Concatenated entry storage for all stored vectors.
    entries: Vec<(u32, f32)>,
    /// `(start, len, dims)` per stored vector, in insertion order.
    spans: Vec<(u32, u32, u32)>,
    /// Node index per span, in insertion order.
    owners: Vec<u32>,
    /// Node index → span index; `u32::MAX` = no features.
    slot: Vec<u32>,
}

const NO_SPAN: u32 = u32::MAX;

impl FeatureArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `sv` for node index `node` unless it already has features
    /// (first write wins). Returns whether the write happened.
    pub fn insert_if_absent(&mut self, node: usize, sv: &SparseVec) -> bool {
        if self.slot.len() <= node {
            self.slot.resize(node + 1, NO_SPAN);
        }
        if self.slot[node] != NO_SPAN {
            return false;
        }
        // Entry offsets share the u32 discipline of the CSR: accumulate
        // in u64, fail loudly at the boundary instead of wrapping.
        let start = self.entries.len() as u64;
        assert!(
            start + sv.entries.len() as u64 <= u64::from(u32::MAX),
            "feature arena entry count overflows the u32 span domain"
        );
        self.entries.extend_from_slice(&sv.entries);
        self.slot[node] =
            u32::try_from(self.spans.len()).expect("span table bounded by node count");
        self.spans
            .push((start as u32, sv.entries.len() as u32, sv.dims));
        self.owners
            .push(u32::try_from(node).expect("node index fits the u32 span domain"));
        true
    }

    /// Iterate `(node index, features)` of the spans stored from the
    /// `from`-th on, in insertion order.
    pub fn iter_since(&self, from: usize) -> impl Iterator<Item = (usize, SparseRef<'_>)> {
        let owners = self.owners.get(from..).unwrap_or_default();
        owners.iter().map(move |&node| {
            let node = node as usize;
            (node, self.get(node).expect("owner holds a span"))
        })
    }

    /// Borrow the features of node index `node`, if stored.
    #[inline]
    pub fn get(&self, node: usize) -> Option<SparseRef<'_>> {
        let span = *self.slot.get(node)?;
        if span == NO_SPAN {
            return None;
        }
        let (start, len, dims) = self.spans[span as usize];
        Some(SparseRef {
            dims,
            entries: &self.entries[start as usize..(start + len) as usize],
        })
    }

    /// True when the node has stored features.
    #[inline]
    pub fn contains(&self, node: usize) -> bool {
        self.slot.get(node).is_some_and(|&s| s != NO_SPAN)
    }

    /// Number of featured nodes.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate `(node index, features)` in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, SparseRef<'_>)> {
        self.slot
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != NO_SPAN)
            .map(move |(node, _)| (node, self.get(node).expect("slot points at a span")))
    }

    /// Heap bytes held by the arena (entry slab + span table + span
    /// owners + slots).
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(u32, f32)>()
            + self.spans.len() * std::mem::size_of::<(u32, u32, u32)>()
            + (self.owners.len() + self.slot.len()) * std::mem::size_of::<u32>()
    }
}

/// Gather sparse rows into a dense [`trail_linalg::Matrix`].
///
/// Row-parallel over the shared worker pool: each dense row is filled
/// from exactly one sparse vector, so the result is independent of
/// the thread count.
pub fn densify(rows: &[SparseRef<'_>], dims: usize) -> trail_linalg::Matrix {
    let mut m = trail_linalg::Matrix::zeros(rows.len(), dims);
    if dims == 0 {
        return m;
    }
    trail_linalg::pool::parallel_for_rows(m.as_mut_slice(), dims, 64, |row0, band| {
        for (i, out) in band.chunks_exact_mut(dims).enumerate() {
            let sv = rows[row0 + i];
            debug_assert_eq!(sv.dims as usize, dims);
            for &(j, v) in sv.entries {
                out[j as usize] = v;
            }
        }
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0, 0.0];
        let sv = SparseVec::from_dense(&dense);
        let r = sv.as_ref();
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.to_dense(), dense);
        assert_eq!(r.get(3), -2.0);
        assert_eq!(r.get(0), 0.0);
    }

    #[test]
    fn densify_batches() {
        let a = SparseVec::from_dense(&[1.0, 0.0, 0.0]);
        let b = SparseVec::from_dense(&[0.0, 0.0, 2.0]);
        let m = densify(&[a.as_ref(), b.as_ref()], 3);
        assert_eq!(m.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn empty_vector_is_fine() {
        let sv = SparseVec::from_dense(&[0.0; 4]);
        assert!(sv.as_ref().entries.is_empty());
        assert_eq!(sv.as_ref().to_dense(), vec![0.0; 4]);
    }

    #[test]
    fn arena_first_write_wins_and_iterates_in_id_order() {
        let mut arena = FeatureArena::new();
        let a = SparseVec::from_dense(&[1.0, 0.0]);
        let b = SparseVec::from_dense(&[0.0, 2.0]);
        assert!(arena.insert_if_absent(5, &a));
        assert!(arena.insert_if_absent(2, &b));
        assert!(!arena.insert_if_absent(5, &b), "second write must lose");
        assert_eq!(arena.len(), 2);
        assert!(arena.contains(2));
        assert!(!arena.contains(3));
        assert!(!arena.contains(999));
        assert_eq!(arena.get(5).unwrap().get(0), 1.0);
        assert_eq!(
            arena.get(5).unwrap().fingerprint(),
            a.as_ref().fingerprint()
        );
        assert!(arena.get(7).is_none());
        let order: Vec<usize> = arena.iter().map(|(n, _)| n).collect();
        assert_eq!(
            order,
            vec![2, 5],
            "iteration must be ascending by node index"
        );
        let written: Vec<usize> = arena.iter_since(0).map(|(n, _)| n).collect();
        assert_eq!(written, vec![5, 2], "iter_since is insertion order");
        let since: Vec<usize> = arena.iter_since(1).map(|(n, _)| n).collect();
        assert_eq!(since, vec![2]);
        assert_eq!(arena.iter_since(2).count(), 0);
        assert_eq!(arena.iter_since(9).count(), 0);
        // 2 entries, 2 spans, 2 owners, 6 slots.
        assert_eq!(arena.heap_bytes(), 2 * 8 + 2 * 12 + (2 + 6) * 4);
    }

    #[test]
    fn arena_stores_empty_vectors_distinct_from_absent() {
        let mut arena = FeatureArena::new();
        let empty = SparseVec::from_dense(&[0.0; 3]);
        assert!(arena.insert_if_absent(0, &empty));
        assert!(arena.contains(0));
        let r = arena.get(0).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.dims, 3);
        assert_eq!(r.fingerprint(), empty.as_ref().fingerprint());
    }
}
