//! A warmed-up [`Machine`] allocates nothing: its FIFOs, duplicate
//! filter, live-thread counts and delivery schedule are rings sized by
//! the lockstep window and reused across cycles and runs.
//!
//! This file holds exactly one test because the counting allocator is
//! process-global: a second test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cicero_core::Compiler;
use cicero_sim::{ArchConfig, Machine};
use workloads::Benchmark;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and guards no memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn a_repeated_run_allocates_nothing() {
    let bench = Benchmark::protomata(7, 8, 1);
    let set = Compiler::default().compile_set(&bench.patterns).unwrap();
    let chunk = &bench.chunks[0];
    for config in [ArchConfig::new_organization(16, 1), ArchConfig::old_organization(8)] {
        let mut machine = Machine::new(set.program(), config.clone());
        // The first run grows every ring slot to the depth this input
        // needs; the simulator is deterministic, so the second needs no
        // more.
        machine.prefetch_icache();
        let sized = machine.run(chunk);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        machine.prefetch_icache();
        let steady = machine.run(chunk);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

        assert_eq!(steady, sized);
        assert!(steady.cycles > 1000, "the chunk must exercise the machine: {steady:?}");
        assert_eq!(allocations, 0, "{}: steady-state run allocated", config.name());
    }
}
