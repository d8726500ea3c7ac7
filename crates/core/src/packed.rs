//! Bit-packed structure-of-arrays vertex state storage: **2 bits per
//! vertex**, 32 vertices per `u64` word.
//!
//! Every process of the paper has at most 3 (color) states per vertex, so a
//! byte-per-vertex `Vec<enum>` wastes 6 of its 8 bits and quadruples the
//! memory traffic of the round loop's state reads — which matters once `n`
//! reaches 10⁷ and the state vector alone would be 10 MB instead of 2.5 MB.
//! [`PackedStates`] stores the 2-bit state codes in `AtomicU64` words so the
//! parallel decide phase can write states of *distinct* vertices through
//! `&self` concurrently (word-level atomic RMWs on disjoint bit ranges
//! compose exactly); the sequential paths use the same storage uncontended.
//!
//! The mapping between a process's state enum and its 2-bit code is owned by
//! its rule (see [`LocalRule::code`](crate::LocalRule::code)).

use std::sync::atomic::{AtomicU64, Ordering};

/// Vertices per 64-bit word (2 bits each).
const PER_WORD: usize = 32;

/// A fixed-length vector of 2-bit state codes backed by `AtomicU64` words.
///
/// Concurrent [`set`](PackedStates::set) calls for **distinct** vertices are
/// safe and exact; concurrent `set` calls for the *same* vertex are a data
/// race at the semantic level (last-writer-wins per RMW) and never happen in
/// the engine (each vertex is decided by exactly one thread).
#[derive(Debug, Default)]
pub struct PackedStates {
    words: Vec<AtomicU64>,
    n: usize,
}

impl PackedStates {
    /// Creates storage for `n` vertices, all at code 0.
    pub fn new(n: usize) -> Self {
        PackedStates {
            words: (0..n.div_ceil(PER_WORD))
                .map(|_| AtomicU64::new(0))
                .collect(),
            n,
        }
    }

    /// Builds the storage from an iterator of 2-bit codes.
    ///
    /// # Panics
    ///
    /// Panics if any code exceeds 3.
    pub fn from_codes<I: IntoIterator<Item = u8>>(codes: I) -> Self {
        let mut words: Vec<u64> = Vec::new();
        let mut n = 0usize;
        for code in codes {
            assert!(code <= 3, "state code {code} does not fit in 2 bits");
            if n % PER_WORD == 0 {
                words.push(0);
            }
            let shift = (n % PER_WORD) * 2;
            *words.last_mut().expect("word pushed above") |= u64::from(code) << shift;
            n += 1;
        }
        PackedStates {
            words: words.into_iter().map(AtomicU64::new).collect(),
            n,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The 2-bit code of vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range — in debug builds always; in release
    /// builds only when `u` falls outside the allocated words (an in-word
    /// out-of-range index reads an unused, all-zero bit pair).
    #[inline]
    pub fn get(&self, u: usize) -> u8 {
        debug_assert!(u < self.n, "vertex {u} out of range (n = {})", self.n);
        let word = self.words[u / PER_WORD].load(Ordering::Relaxed);
        ((word >> ((u % PER_WORD) * 2)) & 0b11) as u8
    }

    /// Overwrites the 2-bit code of vertex `u`. Callable through `&self`
    /// concurrently for distinct vertices: the clear and set are two atomic
    /// RMWs that each touch only `u`'s bit pair.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `code > 3`.
    #[inline]
    pub fn set(&self, u: usize, code: u8) {
        debug_assert!(u < self.n, "vertex {u} out of range (n = {})", self.n);
        assert!(code <= 3, "state code {code} does not fit in 2 bits");
        let shift = (u % PER_WORD) * 2;
        let slot = &self.words[u / PER_WORD];
        slot.fetch_and(!(0b11u64 << shift), Ordering::Relaxed);
        if code != 0 {
            slot.fetch_or(u64::from(code) << shift, Ordering::Relaxed);
        }
    }

    /// Overwrites the 2-bit code of vertex `u` through `&mut self`: a plain
    /// load + store on the containing word instead of the two atomic RMWs of
    /// [`set`](Self::set), for the exclusive sequential round paths.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `code > 3`.
    #[inline]
    pub fn set_mut(&mut self, u: usize, code: u8) {
        debug_assert!(u < self.n, "vertex {u} out of range (n = {})", self.n);
        assert!(code <= 3, "state code {code} does not fit in 2 bits");
        let shift = (u % PER_WORD) * 2;
        let word = self.words[u / PER_WORD].get_mut();
        *word = (*word & !(0b11u64 << shift)) | (u64::from(code) << shift);
    }

    /// Decodes the whole vector through `f` into a `Vec` (an `O(n)`
    /// materialization, used by the `states()`-style accessors).
    pub fn decode<T>(&self, f: impl Fn(u8) -> T) -> Vec<T> {
        (0..self.n).map(|u| f(self.get(u))).collect()
    }

    /// Extends the vector to `new_n` vertices, all new slots at code 0
    /// (no-op if already that long) — topology growth support. The unused
    /// high bits of the last word are already zero, so only whole new words
    /// need allocating.
    pub fn grow(&mut self, new_n: usize) {
        if new_n <= self.n {
            return;
        }
        while self.words.len() < new_n.div_ceil(PER_WORD) {
            self.words.push(AtomicU64::new(0));
        }
        self.n = new_n;
    }
}

impl Clone for PackedStates {
    fn clone(&self) -> Self {
        PackedStates {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            n: self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_codes() {
        let p = PackedStates::new(100);
        for u in 0..100 {
            p.set(u, (u % 4) as u8);
        }
        for u in 0..100 {
            assert_eq!(p.get(u), (u % 4) as u8, "vertex {u}");
        }
        // Overwrite with a different pattern, including back to zero.
        for u in 0..100 {
            p.set(u, ((u + 3) % 4) as u8);
        }
        for u in 0..100 {
            assert_eq!(p.get(u), ((u + 3) % 4) as u8, "vertex {u}");
        }
    }

    #[test]
    fn set_mut_matches_set() {
        let mut p = PackedStates::new(70);
        for u in 0..70 {
            p.set_mut(u, (u % 4) as u8);
        }
        for u in 0..70 {
            assert_eq!(p.get(u), (u % 4) as u8, "vertex {u}");
        }
        p.set_mut(3, 0);
        assert_eq!(p.get(3), 0);
        assert_eq!(p.get(2), 2, "neighboring bit pairs untouched");
    }

    #[test]
    fn from_codes_and_decode() {
        let codes = [0u8, 1, 2, 3, 3, 2, 1, 0, 1];
        let p = PackedStates::from_codes(codes.iter().copied());
        assert_eq!(p.len(), 9);
        assert!(!p.is_empty());
        assert_eq!(p.decode(|c| c), codes.to_vec());
        let q = p.clone();
        assert_eq!(q.decode(|c| c), codes.to_vec());
    }

    #[test]
    fn concurrent_disjoint_sets_are_exact() {
        // Hammer vertices that share words from multiple threads.
        let n = 4 * super::PER_WORD;
        let p = PackedStates::new(n);
        rayon::scope(|s| {
            for t in 0..4usize {
                let p = &p;
                s.spawn(move |_| {
                    for u in (t..n).step_by(4) {
                        p.set(u, ((u + t) % 4) as u8);
                    }
                });
            }
        });
        for u in 0..n {
            assert_eq!(p.get(u), ((u + u % 4) % 4) as u8, "vertex {u}");
        }
    }

    // `get` checks the range with `debug_assert!` only (see its docs).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        PackedStates::new(3).get(3);
    }

    #[test]
    #[should_panic(expected = "does not fit in 2 bits")]
    fn oversized_code_panics() {
        PackedStates::new(3).set(0, 4);
    }
}
