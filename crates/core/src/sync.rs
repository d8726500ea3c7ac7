//! Shared-memory primitives for the intra-round parallel engine: plain
//! `Vec`-like containers backed by atomics, so concurrent phases can update
//! them through `&self` without `unsafe`.
//!
//! All operations use `Ordering::Relaxed`: the engine's phases are separated
//! by thread *joins* (which establish all the happens-before edges needed),
//! and within a phase every concurrent access is either a commutative
//! read-modify-write (`fetch_add`/`fetch_sub`/`fetch_xor`/`swap`) or a read
//! of data settled in an earlier phase. Relaxed atomics therefore give
//! deterministic results — the property the "bit-identical across thread
//! counts" contract rests on — at the cost of plain loads and stores on
//! mainstream ISAs.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};

/// A `Vec<u32>` with interior mutability: concurrent `add`/`sub` through
/// `&self`, plain get/set elsewhere.
#[derive(Debug, Default)]
pub struct AtomicU32Vec {
    data: Vec<AtomicU32>,
}

impl AtomicU32Vec {
    /// Creates a zero-filled vector of length `n`.
    pub fn new(n: usize) -> Self {
        AtomicU32Vec {
            data: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Overwrites element `i`.
    #[inline]
    pub fn set(&self, i: usize, value: u32) {
        self.data[i].store(value, Ordering::Relaxed);
    }

    /// Atomically adds `delta` to element `i`.
    #[inline]
    pub fn add(&self, i: usize, delta: u32) {
        self.data[i].fetch_add(delta, Ordering::Relaxed);
    }

    /// Atomically subtracts `delta` from element `i`.
    #[inline]
    pub fn sub(&self, i: usize, delta: u32) {
        self.data[i].fetch_sub(delta, Ordering::Relaxed);
    }

    /// Adds `delta` to element `i` through `&mut self` — a plain (non
    /// lock-prefixed) read-modify-write for the exclusive sequential paths,
    /// where the atomic `fetch_add` would cost a bus lock per edge.
    #[inline]
    pub fn add_mut(&mut self, i: usize, delta: u32) {
        *self.data[i].get_mut() += delta;
    }

    /// Subtracts `delta` from element `i` through `&mut self` (plain RMW).
    #[inline]
    pub fn sub_mut(&mut self, i: usize, delta: u32) {
        *self.data[i].get_mut() -= delta;
    }

    /// Resets every element to zero.
    pub fn clear_all(&mut self) {
        for slot in &mut self.data {
            *slot.get_mut() = 0;
        }
    }

    /// Extends the vector with zeros up to length `new_n` (no-op if already
    /// that long) — topology growth support.
    pub fn grow(&mut self, new_n: usize) {
        while self.data.len() < new_n {
            self.data.push(AtomicU32::new(0));
        }
    }
}

impl Clone for AtomicU32Vec {
    fn clone(&self) -> Self {
        AtomicU32Vec {
            data: self
                .data
                .iter()
                .map(|v| AtomicU32::new(v.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A `Vec<bool>` with interior mutability and a test-and-set primitive
/// (used for concurrent dirty-mark deduplication).
#[derive(Debug, Default)]
pub struct AtomicFlagVec {
    data: Vec<AtomicBool>,
}

impl AtomicFlagVec {
    /// Creates an all-`false` vector of length `n`.
    pub fn new(n: usize) -> Self {
        AtomicFlagVec {
            data: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Overwrites element `i`.
    #[inline]
    pub fn set(&self, i: usize, value: bool) {
        self.data[i].store(value, Ordering::Relaxed);
    }

    /// Atomically sets element `i` to `true` and returns the previous value;
    /// exactly one concurrent caller per element observes `false`.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        self.data[i].swap(true, Ordering::Relaxed)
    }

    /// [`test_and_set`](Self::test_and_set) through `&mut self`: a plain
    /// load + store instead of an atomic swap, for the exclusive sequential
    /// paths.
    #[inline]
    pub fn test_and_set_mut(&mut self, i: usize) -> bool {
        let slot = self.data[i].get_mut();
        std::mem::replace(slot, true)
    }

    /// Resets every element to `false`.
    pub fn clear_all(&mut self) {
        for slot in &mut self.data {
            *slot.get_mut() = false;
        }
    }

    /// Extends the vector with `false` up to length `new_n` (no-op if
    /// already that long) — topology growth support.
    pub fn grow(&mut self, new_n: usize) {
        while self.data.len() < new_n {
            self.data.push(AtomicBool::new(false));
        }
    }
}

impl Clone for AtomicFlagVec {
    fn clone(&self) -> Self {
        AtomicFlagVec {
            data: self
                .data
                .iter()
                .map(|v| AtomicBool::new(v.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A `Vec<u8>` of flag bytes with interior mutability and an atomic
/// bit-toggle (used for the engine's per-vertex flag bits).
#[derive(Debug, Default)]
pub struct AtomicU8Vec {
    data: Vec<AtomicU8>,
}

impl AtomicU8Vec {
    /// Creates a zero-filled vector of length `n`.
    pub fn new(n: usize) -> Self {
        AtomicU8Vec {
            data: (0..n).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Overwrites element `i`.
    #[inline]
    pub fn set(&self, i: usize, value: u8) {
        self.data[i].store(value, Ordering::Relaxed);
    }

    /// Atomically toggles the bits in `mask` on element `i`.
    #[inline]
    pub fn xor(&self, i: usize, mask: u8) {
        self.data[i].fetch_xor(mask, Ordering::Relaxed);
    }

    /// Toggles the bits in `mask` on element `i` through `&mut self` (plain
    /// RMW, no bus lock) — for the exclusive sequential paths.
    #[inline]
    pub fn xor_mut(&mut self, i: usize, mask: u8) {
        *self.data[i].get_mut() ^= mask;
    }

    /// Extends the vector with zeros up to length `new_n` (no-op if already
    /// that long) — topology growth support.
    pub fn grow(&mut self, new_n: usize) {
        while self.data.len() < new_n {
            self.data.push(AtomicU8::new(0));
        }
    }
}

impl Clone for AtomicU8Vec {
    fn clone(&self) -> Self {
        AtomicU8Vec {
            data: self
                .data
                .iter()
                .map(|v| AtomicU8::new(v.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_vec_basic_ops() {
        let mut v = AtomicU32Vec::new(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        v.set(1, 7);
        v.add(1, 5);
        v.sub(1, 2);
        assert_eq!(v.get(1), 10);
        v.add_mut(1, 4);
        v.sub_mut(1, 1);
        assert_eq!(v.get(1), 13);
        v.clear_all();
        assert_eq!(v.get(1), 0);
        let w = v.clone();
        assert_eq!(w.get(0), 0);
    }

    #[test]
    fn flag_vec_test_and_set_is_once() {
        let mut v = AtomicFlagVec::new(3);
        assert!(!v.test_and_set(2));
        assert!(v.test_and_set(2));
        assert!(v.get(2));
        assert!(!v.test_and_set_mut(1));
        assert!(v.test_and_set_mut(1));
        v.set(1, false);
        let w = v.clone();
        assert!(w.get(2) && !w.get(0));
    }

    #[test]
    fn u8_vec_xor_toggles_bits() {
        let mut v = AtomicU8Vec::new(2);
        v.set(0, 0b0101);
        v.xor(0, 0b0011);
        assert_eq!(v.get(0), 0b0110);
        v.xor_mut(0, 0b0100);
        assert_eq!(v.get(0), 0b0010);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let v = AtomicU32Vec::new(1);
        rayon_scope_add(&v, 8, 10_000);
        assert_eq!(v.get(0), 80_000);
    }

    fn rayon_scope_add(v: &AtomicU32Vec, threads: usize, per_thread: u32) {
        rayon::scope(|s| {
            for _ in 0..threads {
                s.spawn(|_| {
                    for _ in 0..per_thread {
                        v.add(0, 1);
                    }
                });
            }
        });
    }
}
