use serde::{Deserialize, Serialize};

use crate::VertexId;

/// A dense set of vertices of an `n`-vertex graph, backed by a `u64` bitset.
///
/// The MIS processes of the paper manipulate several evolving vertex sets per
/// round (black vertices `B_t`, active vertices `A_t`, stable black vertices
/// `I_t`, non-stable vertices `V_t`); `VertexSet` makes membership queries and
/// bulk statistics cheap and allocation-free once constructed.
///
/// # Example
///
/// ```
/// use mis_graph::VertexSet;
///
/// let mut s = VertexSet::new(10);
/// s.insert(3);
/// s.insert(7);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VertexSet {
    n: usize,
    words: Vec<u64>,
    len: usize,
}

impl VertexSet {
    /// Creates an empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        VertexSet {
            n,
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Creates a full set containing every vertex in `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = VertexSet::new(n);
        for u in 0..n {
            s.insert(u);
        }
        s
    }

    /// Creates a set over `0..n` from an iterator of vertex ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= n`.
    pub fn from_indices<I: IntoIterator<Item = VertexId>>(n: usize, ids: I) -> Self {
        let mut s = VertexSet::new(n);
        for u in ids {
            s.insert(u);
        }
        s
    }

    /// Size of the universe (number of vertices of the underlying graph).
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of vertices currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set contains no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `u` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.universe()`.
    #[inline]
    pub fn contains(&self, u: VertexId) -> bool {
        assert!(u < self.n, "vertex {u} out of range");
        self.words[u / 64] >> (u % 64) & 1 == 1
    }

    /// Inserts `u`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.universe()`.
    pub fn insert(&mut self, u: VertexId) -> bool {
        assert!(u < self.n, "vertex {u} out of range");
        let (w, b) = (u / 64, u % 64);
        let was = self.words[w] >> b & 1 == 1;
        if !was {
            self.words[w] |= 1 << b;
            self.len += 1;
        }
        !was
    }

    /// Inserts `u` if `cond` holds, with no branch on `cond` or on whether
    /// `u` was present (for hot loops whose condition is data-dependent).
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.universe()`.
    #[inline]
    pub fn insert_if(&mut self, u: VertexId, cond: bool) {
        assert!(u < self.n, "vertex {u} out of range");
        let (w, bit) = (u / 64, u64::from(cond) << (u % 64));
        self.len += usize::from(self.words[w] & bit != bit);
        self.words[w] |= bit;
    }

    /// Removes `u`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.universe()`.
    pub fn remove(&mut self, u: VertexId) -> bool {
        assert!(u < self.n, "vertex {u} out of range");
        let (w, b) = (u / 64, u % 64);
        let was = self.words[w] >> b & 1 == 1;
        if was {
            self.words[w] &= !(1 << b);
            self.len -= 1;
        }
        was
    }

    /// Removes all vertices from the set.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Iterator over the vertices in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Collects the set into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.iter().collect()
    }

    /// Returns `true` if `self` and `other` have no vertex in common.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different universes.
    pub fn is_disjoint(&self, other: &VertexSet) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if every vertex of `self` is also in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different universes.
    pub fn is_subset(&self, other: &VertexSet) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// In-place difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different universes.
    pub fn difference_with(&mut self, other: &VertexSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        self.recount();
    }

    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

impl FromIterator<VertexId> for VertexSet {
    /// Collects vertex ids into a set whose universe is `max(id) + 1`
    /// (or `0` for an empty iterator). Prefer [`VertexSet::from_indices`]
    /// when the universe size is known.
    fn from_iter<T: IntoIterator<Item = VertexId>>(iter: T) -> Self {
        let ids: Vec<VertexId> = iter.into_iter().collect();
        let n = ids.iter().max().map_or(0, |&m| m + 1);
        VertexSet::from_indices(n, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = VertexSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
        s.insert_if(64, false);
        s.insert_if(129, true);
        assert_eq!((s.len(), s.contains(64)), (2, false));
        s.insert_if(64, true);
        assert_eq!((s.len(), s.contains(64)), (3, true));
    }

    #[test]
    fn full_and_clear() {
        let mut s = VertexSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn iter_is_sorted() {
        let s = VertexSet::from_indices(200, [5, 199, 64, 0, 63]);
        assert_eq!(s.to_vec(), vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_indices(10, [1, 2, 3]);
        let b = VertexSet::from_indices(10, [3, 4]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 2]);
        assert!(d.is_subset(&a));
        assert!(!a.is_subset(&d));
        assert!(!a.is_disjoint(&b));
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn from_iter_spans_the_largest_id() {
        let s: VertexSet = [2usize, 5, 5].into_iter().collect();
        assert_eq!(s.universe(), 6);
        assert_eq!(s.to_vec(), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics() {
        VertexSet::new(3).contains(3);
    }

    proptest! {
        /// The bitset agrees with a reference HashSet implementation.
        #[test]
        fn matches_hash_set(ops in proptest::collection::vec((0usize..300, any::<bool>()), 0..500)) {
            let mut s = VertexSet::new(300);
            let mut reference = std::collections::HashSet::new();
            for (u, insert) in ops {
                if insert {
                    prop_assert_eq!(s.insert(u), reference.insert(u));
                } else {
                    prop_assert_eq!(s.remove(u), reference.remove(&u));
                }
            }
            prop_assert_eq!(s.len(), reference.len());
            let mut expected: Vec<_> = reference.into_iter().collect();
            expected.sort_unstable();
            prop_assert_eq!(s.to_vec(), expected);
        }
    }
}
