//! **Parallel runtime** — batch-matching throughput vs. worker count on
//! the Table-2 workload, exported to `BENCH_parallel.json`.
//!
//! The scenario is serving traffic: `ROUNDS` rounds over each suite's
//! patterns, every request matching the suite's 500-byte chunks. Two
//! serving strategies are compared:
//!
//! * **sequential baseline** — the pre-runtime behavior: compile the
//!   pattern from scratch for every request, then walk the chunks one at
//!   a time on a single machine;
//! * **runtime** — the worker pool with the LRU program cache: the first
//!   round compiles (cache misses), later rounds hit, and each batch is
//!   spread over `N` per-worker machines.
//!
//! Two throughput views are reported, because they answer different
//! questions:
//!
//! * *aggregate (simulated)* — total bytes over the batch **makespan** in
//!   simulated time (the slowest worker's cycles per batch, summed over
//!   requests). Each worker owns an independent `Machine`, i.e. models
//!   its own engine array instance, so `N` workers are `N` replicated
//!   accelerators chewing chunks concurrently — the paper's Table-2
//!   scaling axis applied to chunk-level parallelism. This is the
//!   headline "aggregate throughput" number.
//! * *host (wall-clock)* — bytes over host seconds for the whole sweep.
//!   The cache's compile amortization shows up here. Worker scaling only
//!   shows on a multicore host; the JSON records `host_cpus` so readers
//!   can interpret the column, and on a host with ≥ 4 CPUs the bench
//!   *asserts* ≥ `HOST_SPEEDUP_FLOOR`× wall-clock scaling at 4 workers.
//!
//! A third sweep runs the same workload on the **host-native backend**
//! (the bit-parallel NFA engine): there the engine *is* the host CPU, so
//! wall-clock is the only throughput view, and its rows land in
//! `host_backend_rows`. Every JSON row records the `host_cpus` it was
//! measured on, and host-scaling assertions are skipped (and marked via
//! `host_speedup_asserted: false`) on hosts with fewer than 4 CPUs, so a
//! result produced on a pinned single core cannot masquerade as a
//! scaling measurement.
//!
//! Scale via `CICERO_BENCH_SCALE` (quick/default/full); output path via
//! `CICERO_BENCH_PARALLEL` (empty to disable, default
//! `BENCH_parallel.json`).

use std::fmt::Write as _;
use std::time::Instant;

use cicero_bench::{banner, f2, suites, Scale, Table};
use cicero_core::Backend;
use cicero_runtime::{Budget, Runtime, RuntimeOptions};
use cicero_sim::{simulate_batch, ArchConfig};

/// Serving rounds per suite: one cold round, the rest cache hits.
const ROUNDS: usize = 3;
/// Worker counts measured (the acceptance point is 4).
const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Minimum wall-clock speedup at 4 workers vs 1, asserted only on a
/// host with >= 4 CPUs (thread scaling cannot show on a pinned core).
const HOST_SPEEDUP_FLOOR: f64 = 1.5;

struct Row {
    suite: &'static str,
    jobs: usize,
    sim_mbps: f64,
    sim_speedup: f64,
    host_kbps: f64,
    host_speedup: f64,
    cache_hit_rate: f64,
}

/// One measurement of the host-native backend: the same serving sweep,
/// but executed by the bit-parallel host engine instead of the cycle
/// simulator, so the only throughput view is wall-clock.
struct HostRow {
    suite: &'static str,
    jobs: usize,
    wall_mbps: f64,
    speedup_vs_1_worker: f64,
}

fn main() {
    let mut scale = Scale::from_env();
    // Serving wants wide batches (so 8 workers have work) more than many
    // patterns; cap/floor the Table-2 scale accordingly.
    scale.patterns = scale.patterns.min(8);
    scale.chunks = scale.chunks.max(8);
    banner("Parallel", "runtime batch throughput vs worker count (Table-2 workload)", scale);
    let config = ArchConfig::new_organization(16, 1);
    let clock_hz = config.clock_mhz() * 1e6;
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    let mut rows: Vec<Row> = Vec::new();
    for bench in suites(scale) {
        let request_bytes: usize = bench.chunks.iter().map(Vec::len).sum();
        let total_bytes = ROUNDS * bench.patterns.len() * request_bytes;

        // Sequential compile-per-request baseline (pre-runtime behavior).
        let start = Instant::now();
        let mut baseline_cycles = 0u64;
        for _ in 0..ROUNDS {
            for pattern in &bench.patterns {
                let program = cicero_core::compile(pattern).expect("suite compiles").into_program();
                for report in simulate_batch(&program, &bench.chunks, &config) {
                    baseline_cycles += report.cycles;
                }
            }
        }
        let baseline_host = total_bytes as f64 / start.elapsed().as_secs_f64();
        let baseline_sim = total_bytes as f64 / (baseline_cycles as f64 / clock_hz);

        for jobs in WORKERS {
            let runtime = Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() });
            let start = Instant::now();
            let mut makespan_cycles = 0u64;
            for _ in 0..ROUNDS {
                for pattern in &bench.patterns {
                    let batch = runtime
                        .match_batch_guarded(pattern, &bench.chunks, &config, &Budget::UNLIMITED)
                        .expect("suite compiles");
                    makespan_cycles += batch.workers.iter().map(|w| w.cycles).max().unwrap_or(0);
                }
            }
            let host_bps = total_bytes as f64 / start.elapsed().as_secs_f64();
            let sim_bps = total_bytes as f64 / (makespan_cycles as f64 / clock_hz);
            rows.push(Row {
                suite: bench.name,
                jobs,
                sim_mbps: sim_bps / 1e6,
                sim_speedup: sim_bps / baseline_sim,
                host_kbps: host_bps / 1e3,
                host_speedup: host_bps / baseline_host,
                cache_hit_rate: runtime.cache().stats().hit_rate(),
            });
        }
    }

    // The same serving sweep on the host-native backend: the workers run
    // the bit-parallel NFA engine instead of the cycle simulator, so the
    // only throughput view is wall-clock — the axis that actually scales
    // with worker threads (on a multicore host).
    let mut host_rows: Vec<HostRow> = Vec::new();
    for bench in suites(scale) {
        let request_bytes: usize = bench.chunks.iter().map(Vec::len).sum();
        let total_bytes = ROUNDS * bench.patterns.len() * request_bytes;
        let mut mbps_at_1 = 0.0f64;
        for jobs in WORKERS {
            let runtime = Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() })
                .with_backend(Backend::Host);
            let start = Instant::now();
            for _ in 0..ROUNDS {
                for pattern in &bench.patterns {
                    runtime
                        .match_batch_guarded(pattern, &bench.chunks, &config, &Budget::UNLIMITED)
                        .expect("suite compiles");
                }
            }
            let wall_mbps = total_bytes as f64 / start.elapsed().as_secs_f64() / 1e6;
            if jobs == 1 {
                mbps_at_1 = wall_mbps;
            }
            host_rows.push(HostRow {
                suite: bench.name,
                jobs,
                wall_mbps,
                speedup_vs_1_worker: wall_mbps / mbps_at_1,
            });
        }
    }

    let mut table = Table::new(vec![
        "Suite",
        "Workers",
        "Agg MB/s",
        "Speedup",
        "Host KB/s",
        "Speedup",
        "Cache hit%",
    ]);
    for row in &rows {
        table.row(vec![
            row.suite.to_owned(),
            row.jobs.to_string(),
            f2(row.sim_mbps),
            f2(row.sim_speedup),
            format!("{:.0}", row.host_kbps),
            f2(row.host_speedup),
            format!("{:.0}", row.cache_hit_rate * 100.0),
        ]);
    }
    table.print();

    let mut host_table =
        Table::new(vec!["Suite", "Workers", "Host backend MB/s", "Speedup vs 1 worker"]);
    for row in &host_rows {
        host_table.row(vec![
            row.suite.to_owned(),
            row.jobs.to_string(),
            f2(row.wall_mbps),
            f2(row.speedup_vs_1_worker),
        ]);
    }
    println!("\n  host-native backend (wall-clock only; scaling needs host_cpus > 1):");
    host_table.print();

    let at4: Vec<f64> = rows.iter().filter(|r| r.jobs == 4).map(|r| r.sim_speedup).collect();
    let speedup_at_4 = at4.iter().sum::<f64>() / at4.len() as f64;
    println!(
        "\n  aggregate throughput at 4 workers: {}x the sequential baseline \
         (acceptance floor 1.5x)",
        f2(speedup_at_4)
    );

    // Host (wall-clock) scaling: 4 workers vs 1 worker, averaged over
    // suites. Only meaningful — and only asserted — on a multicore host;
    // a single-core container records the ratio for the record.
    let host_at = |jobs: usize| -> f64 {
        let v: Vec<f64> = rows.iter().filter(|r| r.jobs == jobs).map(|r| r.host_kbps).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let host_speedup_at_4 = host_at(4) / host_at(1);
    let host_speedup_asserted = host_cpus >= 4;
    println!(
        "  host columns measured on {host_cpus} CPU(s): 4-worker wall-clock speedup {}x \
         (floor {HOST_SPEEDUP_FLOOR}x, asserted only when host_cpus >= 4)",
        f2(host_speedup_at_4)
    );
    if host_speedup_asserted {
        assert!(
            host_speedup_at_4 >= HOST_SPEEDUP_FLOOR,
            "multi-core host must show >= {HOST_SPEEDUP_FLOOR}x wall-clock scaling at 4 workers, \
             got {host_speedup_at_4:.2}x"
        );
    } else {
        println!(
            "  host-scaling assertion SKIPPED: host_cpus = {host_cpus} < 4 \
             (thread scaling cannot show on a pinned core)"
        );
    }

    // Host-backend wall-clock scaling at 4 workers, same gating.
    let host_backend_at = |jobs: usize| -> f64 {
        let v: Vec<f64> =
            host_rows.iter().filter(|r| r.jobs == jobs).map(|r| r.wall_mbps).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let host_backend_speedup_at_4 = host_backend_at(4) / host_backend_at(1);
    println!(
        "  host-native backend 4-worker wall-clock speedup: {}x \
         (asserted only when host_cpus >= 4)",
        f2(host_backend_speedup_at_4)
    );
    if host_speedup_asserted {
        assert!(
            host_backend_speedup_at_4 >= HOST_SPEEDUP_FLOOR,
            "multi-core host must show >= {HOST_SPEEDUP_FLOOR}x host-backend scaling at 4 \
             workers, got {host_backend_speedup_at_4:.2}x"
        );
    }

    let path =
        std::env::var("CICERO_BENCH_PARALLEL").unwrap_or_else(|_| "BENCH_parallel.json".to_owned());
    if !path.is_empty() {
        let json = render_json(
            &rows,
            &host_rows,
            &config,
            host_cpus,
            speedup_at_4,
            host_speedup_at_4,
            host_backend_speedup_at_4,
            host_speedup_asserted,
        );
        match std::fs::write(&path, json) {
            Ok(()) => println!("\n  results written to {path}"),
            Err(e) => eprintln!("  warning: could not write {path}: {e}"),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    rows: &[Row],
    host_rows: &[HostRow],
    config: &ArchConfig,
    host_cpus: usize,
    speedup_at_4: f64,
    host_speedup_at_4: f64,
    host_backend_speedup_at_4: f64,
    host_speedup_asserted: bool,
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"parallel_runtime\",\n");
    let _ = writeln!(json, "  \"config\": \"{}\",", config.name());
    let _ = writeln!(json, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    json.push_str(
        "  \"notes\": \"aggregate_* is simulated: total bytes over the per-batch makespan \
         (slowest worker's cycles), i.e. N workers model N replicated engine arrays; host_* \
         is wall-clock and reflects the program cache (thread scaling needs host_cpus > \
         1); the baseline compiles every request and runs chunks sequentially; every row \
         records the host_cpus it was measured on, and host-scaling assertions are skipped \
         (host_speedup_asserted = false) on hosts with fewer than 4 CPUs; host_backend_rows \
         run the same sweep on the bit-parallel host-native engine, where wall-clock is the \
         only throughput view\",\n",
    );
    let _ = writeln!(json, "  \"aggregate_speedup_at_4_workers\": {speedup_at_4:.3},");
    let _ = writeln!(json, "  \"host_speedup_at_4_workers\": {host_speedup_at_4:.3},");
    let _ =
        writeln!(json, "  \"host_backend_speedup_at_4_workers\": {host_backend_speedup_at_4:.3},");
    let _ = writeln!(json, "  \"host_speedup_asserted\": {host_speedup_asserted},");
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"suite\": \"{}\", \"workers\": {}, \"host_cpus\": {}, \
             \"config_source\": \"default\", \
             \"aggregate_throughput_mbps\": {:.3}, \
             \"aggregate_speedup_vs_sequential_baseline\": {:.3}, \
             \"host_throughput_kbps\": {:.1}, \
             \"host_speedup_vs_sequential_baseline\": {:.3}, \
             \"cache_hit_rate\": {:.3}}}",
            row.suite,
            row.jobs,
            host_cpus,
            row.sim_mbps,
            row.sim_speedup,
            row.host_kbps,
            row.host_speedup,
            row.cache_hit_rate,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"host_backend_rows\": [\n");
    for (i, row) in host_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"suite\": \"{}\", \"workers\": {}, \"host_cpus\": {}, \
             \"config_source\": \"default\", \
             \"wall_throughput_mbps\": {:.3}, \"speedup_vs_1_worker\": {:.3}}}",
            row.suite, row.jobs, host_cpus, row.wall_mbps, row.speedup_vs_1_worker,
        );
        json.push_str(if i + 1 < host_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}
