//! Compiling a pattern or a pattern set allocates a bounded amount: a set
//! compile is the request path of every inline-set cache miss, and its IR bookkeeping
//! (uniqued names, attributes in a small vector, successor blocks held in
//! the op, pipelines built once per compiler) is what keeps it cheap.
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

/// Patterns compiled: 256 BRILL rules drawn at seed 7, one at a time and
/// in sets of four (the shape `inline-churn` compiles on every cache miss).
const PATTERNS: usize = 256;

/// Allocations per set: the compile measured 1,078 per set (206 KB) when
/// this bound was set, and the bound allows 25 % more.
const MAX_ALLOCATIONS_PER_SET: u64 = 1_347;

/// Allocations per single-pattern compile: the compile measured 180 per
/// pattern (36 KB) when this bound was set, and the bound allows 25 % more.
const MAX_ALLOCATIONS_PER_PATTERN: u64 = 225;

/// Allocations and bytes per item of `compile` run on each item, counted
/// after a first compile that may fill lazily initialized state.
fn per_item<T>(items: &[T], compile: impl Fn(&T)) -> (u64, u64) {
    compile(&items[0]);
    let (allocations, bytes) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    items.iter().for_each(&compile);
    let n = items.len() as u64;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    (allocations / n, (BYTES.load(Ordering::Relaxed) - bytes) / n)
}

#[test]
fn compiles_stay_under_their_allocation_bounds() {
    let patterns = Benchmark::brill(7, PATTERNS, 0).patterns;
    let compiler = Compiler::new();
    let sets: Vec<&[String]> = patterns.chunks(4).collect();
    let (per_set, bytes_per_set) = per_item(&sets, |set| drop(compiler.compile_set(set).unwrap()));
    let (per_pattern, bytes_per_pattern) =
        per_item(&patterns, |pattern| drop(compiler.compile(pattern).unwrap()));
    println!("{per_set} allocations, {bytes_per_set} bytes per set");
    println!("{per_pattern} allocations, {bytes_per_pattern} bytes per pattern");
    assert!(
        per_set <= MAX_ALLOCATIONS_PER_SET,
        "{per_set} allocations ({bytes_per_set} bytes) per four-pattern set; the bound is \
         {MAX_ALLOCATIONS_PER_SET}"
    );
    assert!(
        per_pattern <= MAX_ALLOCATIONS_PER_PATTERN,
        "{per_pattern} allocations ({bytes_per_pattern} bytes) per pattern; the bound is \
         {MAX_ALLOCATIONS_PER_PATTERN}"
    );
}
