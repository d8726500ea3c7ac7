//! Peak-heap gate for the `G(n,p)` build and a 2-state solve, run in CI.
//!
//! The allocator below tracks the bytes live on the heap and their maximum
//! over all threads: pool workers allocate the build's lists, so a
//! per-thread count would miss them. The file holds one test, so nothing
//! else allocates beside the measured sections, and the pools the build
//! dispatches to are created before measuring.
//!
//! * The build, `gnp_counter_threads(2·10⁵, 8/n)` on 1 and 2 threads, may
//!   hold at most 4 bytes per edge (the lower-neighbor lists) plus 4 per
//!   vertex (the row lengths) above its final CSR, plus the lists' sizing
//!   slack (below). The pair-list assembly it replaced held 10.0 and 14.0
//!   bytes per edge above the CSR here.
//! * A 2-state solve on that graph, from construction to stabilization,
//!   under `Parallel { threads: 1 }` and `Sequential`: both run inline, so
//!   their allocations repeat exactly, and the peak above the graph may
//!   exceed the figure this gate was set from by at most 10%. With 8-byte
//!   engine worklists the same solves peaked at 29.3 and 23.7 bytes per
//!   vertex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mis_core::exec::ExecutionMode;
use mis_core::init::InitStrategy;
use mis_core::{Algorithm, TwoStateProcess};
use mis_graph::generators::gnp_counter_threads;
use mis_graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bytes currently allocated, over all threads.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` reached since the current [`peak_above`] call
/// began.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, tracking live bytes and their peak. Relaxed
/// atomics suffice: the figures are statistics read after the measured
/// section has joined its threads.
struct PeakAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract. The counters are static atomics:
// updating them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc_zeroed`'s requirements for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator (hence
        // from `System`) with `layout`, and that `new_size` is valid for it.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator (hence
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Runs `f` and returns its result with the peak of live bytes during the
/// call, counted above the bytes live when it began.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

const N: usize = 200_000;

/// The bytes of the CSR arrays: `n + 1` `u32` offsets and `2m` `u32` arcs.
fn csr_bytes(g: &Graph) -> usize {
    4 * (g.n() + 1) + 8 * g.m()
}

/// Peak bytes above the graph of a 2-state solve on `g` under `mode`, from
/// construction to stabilization.
fn solve_peak(g: &Graph, mode: ExecutionMode) -> usize {
    let (rounds, peak) = peak_above(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut p = TwoStateProcess::with_init(g, InitStrategy::Random, &mut rng);
        p.set_execution(mode, 3);
        while !p.is_stabilized() {
            p.step(&mut rng);
        }
        p.round()
    });
    assert!(rounds > 5, "{mode:?}: the solve ran {rounds} rounds");
    peak
}

#[test]
fn build_and_solve_stay_within_their_heap_budgets() {
    let p = 8.0 / N as f64;
    for threads in [1, 2] {
        drop(rayon::global_pool(threads));
    }
    for threads in [1, 2] {
        let (g, peak) = peak_above(|| gnp_counter_threads(N, p, 1, threads));
        let (n, m) = (g.n(), g.m());
        let above = peak - csr_bytes(&g);
        // The sizing rule gives a block's list its expected count plus six
        // standard deviations and 16 entries; the count itself may fall a
        // few deviations below that expectation. With σ ≤ √m, 12·√m + 16
        // entries per block bound the slack, and 1 KiB covers the row
        // bounds and the dispatch's result slots.
        let slack = threads * 4 * (12 * (m as f64).sqrt() as usize + 16) + 1024;
        eprintln!(
            "build, {threads} threads: {above} bytes above the CSR ({:.2} per edge)",
            above as f64 / m as f64
        );
        assert!(
            above <= 4 * m + 4 * n + slack,
            "build on {threads} threads held {above} bytes above its CSR, over 4m + 4n + {slack}"
        );
    }

    let g = gnp_counter_threads(N, p, 1, 1);
    // Bytes per vertex above the graph at this gate's setting, plus 10%.
    for (mode, per_vertex) in [
        (ExecutionMode::Parallel { threads: 1 }, 20.83),
        (ExecutionMode::Sequential, 18.01),
    ] {
        let peak = solve_peak(&g, mode);
        eprintln!(
            "solve, {mode:?}: {peak} bytes above the graph ({:.2} per vertex)",
            peak as f64 / N as f64
        );
        let bound = (1.1 * per_vertex * N as f64) as usize;
        assert!(
            peak <= bound,
            "{mode:?}: the solve peaked {peak} bytes above the graph, over {bound}"
        );
    }
}
