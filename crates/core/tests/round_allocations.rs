//! Allocation gate for rounds that run on the calling thread, run in CI:
//! once its buffers are warm, a round allocates nothing if it never
//! dispatches to the worker pool. That covers every round in sequential
//! mode and on one thread, and at more threads every round whose worklist
//! stays below the parallel threshold, such as the 3-color tail. Rounds that
//! do dispatch still allocate (the broadcast result vector, the chunk
//! queues, the dense range split); this gate does not cover them.
//!
//! The allocator below counts per thread, so the measurement sees only the
//! test's own allocations, not those of the test harness or pool workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mis_core::exec::ExecutionMode;
use mis_core::init::InitStrategy;
use mis_core::{Algorithm, ThreeColorProcess, ThreeStateProcess, TwoStateProcess};
use mis_graph::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations each thread makes.
struct CountingAllocator;

fn count_allocation() {
    // `try_with` fails only while the thread's locals are torn down; an
    // allocation made then is not counted, and no measured section runs then.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract. The counter is a const-initialized
// thread-local `Cell` with no destructor: updating it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller meets `alloc_zeroed`'s requirements for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller guarantees `ptr` came from this allocator (hence
        // from `System`) with `layout`, and that `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (hence
        // from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const N: usize = 40_000;

/// `gnp(4·10⁴, 8/n)`: large enough that the early rounds of a 2-thread run
/// dispatch to the pool.
fn graph() -> Graph {
    generators::gnp(N, 8.0 / N as f64, &mut ChaCha8Rng::seed_from_u64(1))
}

/// Steps `p` through `warmup` rounds, then returns the allocations made by
/// the next `rounds` rounds (each followed by `is_stabilized`).
fn allocations_in_rounds(
    p: &mut dyn Algorithm,
    rng: &mut ChaCha8Rng,
    warmup: usize,
    rounds: usize,
) -> u64 {
    for _ in 0..warmup {
        p.step(rng);
    }
    let before = allocations();
    for _ in 0..rounds {
        p.step(rng);
        std::hint::black_box(p.is_stabilized());
    }
    allocations() - before
}

/// All three processes, sequential and on one thread: 50 two-state and
/// three-state rounds, and 300 three-color tail rounds, allocate nothing.
#[test]
fn inline_rounds_allocate_nothing() {
    let g = graph();
    for mode in [
        ExecutionMode::Sequential,
        ExecutionMode::Parallel { threads: 1 },
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut two = TwoStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        two.set_execution(mode, 3);
        let allocated = allocations_in_rounds(&mut two, &mut rng, 10, 50);
        assert_eq!(allocated, 0, "two-state, {mode:?}");

        let mut three = ThreeStateProcess::with_init(&g, InitStrategy::Random, &mut rng);
        three.set_execution(mode, 4);
        let allocated = allocations_in_rounds(&mut three, &mut rng, 10, 50);
        assert_eq!(allocated, 0, "three-state, {mode:?}");

        let mut color =
            ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut rng);
        color.set_execution(mode, 5);
        let allocated = allocations_in_rounds(&mut color, &mut rng, 100, 300);
        assert_eq!(allocated, 0, "three-color, {mode:?}");
    }
}

/// On two threads the early 3-color rounds dispatch to the pool; the tail
/// rounds, whose worklists stay below the parallel threshold, run inline
/// and allocate nothing.
#[test]
fn three_color_tail_rounds_on_two_threads_allocate_nothing() {
    let g = graph();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let mut p = ThreeColorProcess::with_randomized_switch(&g, InitStrategy::Random, &mut rng);
    p.set_execution(ExecutionMode::Parallel { threads: 2 }, 7);
    let allocated = allocations_in_rounds(&mut p, &mut rng, 100, 300);
    assert_eq!(allocated, 0);
}
