//! Allocation and work-count gate for the weak-communication networks, run
//! in CI: a round (`step` + `is_stabilized`) allocates nothing once a
//! network is built, and the stone-age 3-color trajectory on two fixed seeds
//! is pinned by its counts.
//!
//! The allocator below counts per thread, so the measurement sees only the
//! test's own allocations, not those of the test harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mis_comm::beeping::BeepingTwoStateMis;
use mis_comm::stone_age::{StoneAgeThreeColorMis, StoneAgeThreeStateMis};
use mis_core::init::InitStrategy;
use mis_core::Algorithm;
use mis_graph::generators;
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

/// 100 rounds of each network on `gnp(1000, 0.01)` allocate nothing after
/// construction; stone-age 3-color runs to stabilization on two seeds with
/// the rounds, random bits, and MIS size recorded before its heard letters
/// were kept across rounds.
#[test]
fn rounds_allocate_nothing_and_stone_age_three_color_counts_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = generators::gnp(1000, 0.01, &mut rng);
    let mut beeping = BeepingTwoStateMis::with_init(&g, InitStrategy::Random, &mut rng);
    let mut three_state = StoneAgeThreeStateMis::with_init(&g, InitStrategy::Random, &mut rng);
    let mut three_color = StoneAgeThreeColorMis::with_init(&g, InitStrategy::Random, &mut rng);
    let networks: [(&str, &mut dyn Algorithm); 3] = [
        ("beeping-two-state", &mut beeping),
        ("stone-age-three-state", &mut three_state),
        ("stone-age-three-color", &mut three_color),
    ];
    for (name, net) in networks {
        let before = allocations();
        for _ in 0..100 {
            net.step(&mut rng);
            std::hint::black_box(net.is_stabilized());
        }
        assert_eq!(allocations() - before, 0, "{name} allocated in its rounds");
    }

    for (seed, rounds, random_bits, mis_size) in [(11, 622, 292_044, 254), (12, 799, 269_415, 246)]
    {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::gnp(1000, 0.01, &mut rng);
        let mut net = StoneAgeThreeColorMis::with_init(&g, InitStrategy::Random, &mut rng);
        net.run_to_stabilization(&mut rng, 1_000_000).unwrap();
        assert_eq!(
            (net.round(), net.random_bits_used(), net.black_set().len()),
            (rounds, random_bits, mis_size),
            "seed {seed}"
        );
    }
}
