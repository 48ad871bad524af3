//! **Telemetry overhead** — hot-path cost of the metrics collector
//! versus a no-op loop, exported to `BENCH_obs.json`.
//!
//! A collector is one name → cell map: after a name's first write,
//! `counter_add`/`observe` take the map's read lock and update the cell
//! with relaxed atomics. This bench times the identical loop body with
//! and without telemetry, single-threaded and with 4 threads hammering
//! the *same* metric names on one collector, and **fails (nonzero exit)
//! if the per-iteration overhead exceeds the bound** — so a regression
//! that puts an exclusive lock or an allocation on the hot path turns
//! the CI job red instead of silently shipping.
//!
//! Each iteration is one `counter_add` plus one bounded `observe`
//! (two metric ops). The bound ([`BOUND_NS`]) is deliberately generous:
//! it is a tripwire for contention collapse, not a microarchitectural
//! budget. Iteration count follows `CICERO_BENCH_SCALE`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cicero_bench::{banner, f2, rounded, scale_from_env, Envelope, Scale};
use cicero_telemetry::Telemetry;

const BOUNDS: &[f64] = &[1.0, 10.0, 100.0, 1000.0];
const THREADS: usize = 4;

/// Ceiling on the per-iteration overhead, single-threaded and contended.
const BOUND_NS: f64 = 2000.0;

fn iterations(scale: Scale) -> u64 {
    match scale {
        Scale::QUICK => 200_000,
        Scale::FULL => 2_000_000,
        _ => 1_000_000,
    }
}

fn ns_per_iter(total: Duration, iters: u64) -> f64 {
    total.as_secs_f64() * 1e9 / iters as f64
}

/// The loop body with telemetry: one counter add, one histogram observe.
fn hot_loop(telemetry: &Telemetry, iters: u64) {
    for i in 0..iters {
        telemetry.counter_add("bench.ops", 1);
        telemetry.observe_with("bench.value", (i & 0xFF) as f64, BOUNDS);
    }
}

fn main() {
    let scale = scale_from_env();
    banner("Telemetry", "metrics-collector hot-path overhead vs a no-op loop", scale);
    let iters = iterations(scale);

    // Baseline: the same loop shape with the telemetry calls replaced by
    // one relaxed atomic add, so the comparison isolates collector cost.
    let sink = AtomicU64::new(0);
    let start = Instant::now();
    for i in 0..iters {
        sink.fetch_add(std::hint::black_box(i) & 1, Ordering::Relaxed);
    }
    let baseline = start.elapsed();
    std::hint::black_box(sink.load(Ordering::Relaxed));

    // Single-threaded enabled path.
    let telemetry = Telemetry::new();
    let start = Instant::now();
    hot_loop(&telemetry, iters);
    let single = start.elapsed();

    // Contended: THREADS writers, one collector, the *same* metric
    // names, so every write shares the map's lock word and the cells.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let telemetry = telemetry.clone();
            scope.spawn(move || hot_loop(&telemetry, iters));
        }
    });
    let contended = start.elapsed();

    // The read doubles as the sanity check that every recorded op
    // landed in the shared counter.
    let read_start = Instant::now();
    let total_ops = telemetry.counter("bench.ops");
    let read = read_start.elapsed();
    assert_eq!(total_ops, iters * (THREADS as u64 + 1), "the collector lost counter increments");

    let baseline_ns = ns_per_iter(baseline, iters);
    let single_ns = ns_per_iter(single, iters);
    let contended_ns = ns_per_iter(contended, iters * THREADS as u64);
    let single_overhead = (single_ns - baseline_ns).max(0.0);
    let contended_overhead = (contended_ns - baseline_ns).max(0.0);

    println!("  iterations : {iters} per thread (2 metric ops each)");
    println!("  baseline   : {} ns/iter (no-op loop)", f2(baseline_ns));
    println!("  single     : {} ns/iter ({} ns overhead)", f2(single_ns), f2(single_overhead));
    println!(
        "  contended  : {} ns/iter across {THREADS} threads ({} ns overhead)",
        f2(contended_ns),
        f2(contended_overhead)
    );
    println!(
        "  read       : {:.3} ms for a counter of {} ops",
        read.as_secs_f64() * 1e3,
        total_ops
    );

    Envelope::new(
        "telemetry_overhead",
        "obs",
        scale,
        "per-iteration cost of one counter_add + one bounded observe on the metrics collector, \
         against a relaxed-atomic no-op loop; the contended row hammers the same metric names \
         from all threads; the run exits nonzero when overhead exceeds bound_ns",
    )
    .field("iterations_per_thread", iters)
    .field("threads_contended", THREADS)
    .field("baseline_ns_per_iter", rounded(baseline_ns, 1))
    .field("single_ns_per_iter", rounded(single_ns, 1))
    .field("contended_ns_per_iter", rounded(contended_ns, 1))
    .field("single_overhead_ns", rounded(single_overhead, 1))
    .field("contended_overhead_ns", rounded(contended_overhead, 1))
    .field("counter_read_ms", rounded(read.as_secs_f64() * 1e3, 3))
    .field("bound_ns", BOUND_NS)
    .write();

    if single_overhead > BOUND_NS || contended_overhead > BOUND_NS {
        eprintln!(
            "  FAIL: telemetry overhead exceeds the {BOUND_NS} ns/iter bound \
             (single {single_overhead:.1} ns, contended {contended_overhead:.1} ns)"
        );
        std::process::exit(1);
    }
    println!("  bound      : PASS (<= {BOUND_NS} ns/iter)");
}
