//! Compiling a pattern set allocates a bounded amount: the compile is the
//! request path of every inline-set cache miss, and its IR bookkeeping
//! (uniqued names, attributes in a small vector, one shared string per
//! label, pipelines built once per compiler) is what keeps it cheap.
//!
//! This file holds exactly one test because the counting allocator is
//! process-global: a second test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cicero_core::Compiler;
use workloads::Benchmark;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Sets compiled: 256 BRILL rules drawn at seed 7, in sets of four (the
/// shape `inline-churn` compiles on every cache miss).
const SETS: usize = 64;

/// Allocations per set: the compile measured 1,078 per set (206 KB) when
/// this bound was set, and the bound allows 25 % more.
const MAX_ALLOCATIONS_PER_SET: u64 = 1_347;

#[test]
fn compiling_a_four_pattern_set_stays_under_its_allocation_bound() {
    let patterns = Benchmark::brill(7, 4 * SETS, 0).patterns;
    let compiler = Compiler::new();
    // The first compile may fill lazily initialized state; count the rest.
    compiler.compile_set(&patterns[..4]).unwrap();

    let (allocations, bytes) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    for set in patterns.chunks(4) {
        compiler.compile_set(set).unwrap();
    }
    let per_set = (ALLOCATIONS.load(Ordering::Relaxed) - allocations) / SETS as u64;
    let bytes_per_set = (BYTES.load(Ordering::Relaxed) - bytes) / SETS as u64;
    println!("{per_set} allocations, {bytes_per_set} bytes per set");
    assert!(
        per_set <= MAX_ALLOCATIONS_PER_SET,
        "{per_set} allocations ({bytes_per_set} bytes) per four-pattern set; the bound is \
         {MAX_ALLOCATIONS_PER_SET}"
    );
}
