//! **Host backend** — single-thread scanning throughput of the
//! bit-parallel host-native engine on the Table-2 suites, exported to
//! `BENCH_host.json`.
//!
//! The host-backend tentpole lowers the `cicero` ISA to a bit-parallel
//! Thompson NFA (u64/u128/multi-word masks, memchr-style literal
//! prefilter). This bench pins the claim that the lowering is worth
//! serving from: each suite's patterns are compiled once, lowered once,
//! and scanned single-threaded over a long haystack built from the
//! suite's own 500-byte chunks. Throughput is whole-haystack `run_all` —
//! the engine cannot stop at the first accept, so every reported byte
//! was actually stepped or prefiltered.
//!
//! The per-pattern rows run each pattern's own engine over the haystack
//! and count `patterns × bytes`. The **set rows** are the path serving
//! takes: the gated suites compiled with `compile_set` into *one*
//! program, lowered to *one* engine, the haystack scanned in the served
//! unit (500-byte chunks) and its bytes counted once — `run` (first
//! acceptance; only the bytes it examined count) and `run_all`.
//!
//! The run **fails (nonzero exit) if PROTOMATA or BRILL falls below the
//! floor** (default 100 MB/s, override via `CICERO_HOST_MBPS_FLOOR`) —
//! the acceptance bar of the host-backend issue — or if a set row falls
//! below [`SET_FLOOR_MBPS`]. The alternate suites (PROTOMATA4/BRILL4)
//! are reported but not gated: their 4-way alternations select wider
//! engines whose throughput is a different trade-off, tracked by the
//! JSON rather than asserted.
//!
//! Scale via `CICERO_BENCH_SCALE` (quick/default/full); output path via
//! `CICERO_BENCH_HOST` (empty to disable, default `BENCH_host.json`).

use std::fmt::Write as _;
use std::time::Instant;

use cicero_bench::{banner, f2, suites, Scale, Table};
use cicero_runtime::HostProgram;
use workloads::CHUNK_BYTES;

/// Haystack size per suite: the suite's chunks are concatenated and
/// tiled up to this many bytes, so per-call overhead is amortized and
/// the prefilter sees realistic skip distances.
const HAYSTACK_BYTES: usize = 1 << 19; // 512 KiB

/// Suites whose throughput is gated by the floor.
const GATED: &[&str] = &["PROTOMATA", "BRILL"];

/// Floor for the set rows' haystack MB/s (`run` and `run_all` alike):
/// the slowest committed set figure (BRILL `run_all`, 17 MB/s) under the
/// same ~5.5x safety factor the 100 MB/s per-pattern floor keeps to its
/// measured 534-576 MB/s.
const SET_FLOOR_MBPS: f64 = 3.0;

struct Row {
    suite: &'static str,
    patterns: usize,
    mbps: f64,
    matched: usize,
    engines: String,
    prefiltered: usize,
    gated: bool,
}

/// One suite as serving runs it: one `compile_set` program, one engine.
struct SetRow {
    suite: &'static str,
    patterns: usize,
    engine: String,
    states: usize,
    run_mbps: f64,
    run_all_mbps: f64,
    chunks_accepted: usize,
    ids_matched: usize,
}

/// Scan `input` in served-size chunks through the suite's one-program
/// lowering; `None` when the set does not fit one program.
fn set_row(bench: &workloads::Benchmark, input: &[u8]) -> Option<SetRow> {
    let set = cicero_core::Compiler::new().compile_set(&bench.patterns).ok()?;
    let host = HostProgram::compile(set.program());
    for chunk in input.chunks(CHUNK_BYTES) {
        std::hint::black_box((host.run(chunk), host.run_all(chunk)));
    }

    let start = Instant::now();
    let (mut examined, mut chunks_accepted) = (0u64, 0usize);
    for chunk in input.chunks(CHUNK_BYTES) {
        let run = std::hint::black_box(host.run_budgeted(chunk, None));
        // An accepting run stops on the byte it accepts at.
        examined += run.scanned + u64::from(run.outcome.accepted);
        chunks_accepted += usize::from(run.outcome.accepted);
    }
    let run_mbps = examined as f64 / start.elapsed().as_secs_f64() / 1e6;

    let start = Instant::now();
    let mut ids_matched = 0usize;
    for chunk in input.chunks(CHUNK_BYTES) {
        ids_matched += std::hint::black_box(host.run_all(chunk)).matched_ids.len();
    }
    let run_all_mbps = input.len() as f64 / start.elapsed().as_secs_f64() / 1e6;

    Some(SetRow {
        suite: bench.name,
        patterns: bench.patterns.len(),
        engine: host.engine_kind().to_string(),
        states: host.state_count(),
        run_mbps,
        run_all_mbps,
        chunks_accepted,
        ids_matched,
    })
}

/// Tile the suite's chunks into one long haystack.
fn haystack(chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HAYSTACK_BYTES);
    while bytes.len() < HAYSTACK_BYTES {
        for chunk in chunks {
            bytes.extend_from_slice(chunk);
            if bytes.len() >= HAYSTACK_BYTES {
                break;
            }
        }
    }
    bytes.truncate(HAYSTACK_BYTES);
    bytes
}

fn main() {
    let scale = Scale::from_env();
    banner("Host", "bit-parallel host engine single-thread throughput", scale);
    let floor_mbps: f64 =
        std::env::var("CICERO_HOST_MBPS_FLOOR").ok().and_then(|v| v.parse().ok()).unwrap_or(100.0);

    let mut rows: Vec<Row> = Vec::new();
    let mut set_rows: Vec<SetRow> = Vec::new();
    for bench in suites(scale) {
        let input = haystack(&bench.chunks);
        // Compile + lower outside the timed region: serving reuses both
        // through the runtime's program and lowering caches.
        let hosts: Vec<HostProgram> = bench
            .patterns
            .iter()
            .map(|p| {
                let program = cicero_core::compile(p).expect("suite compiles").into_program();
                HostProgram::compile(&program)
            })
            .collect();

        // One warm-up pass brings the tables into cache the way a
        // long-lived server process would have them.
        for host in &hosts {
            std::hint::black_box(host.run_all(&input));
        }
        let start = Instant::now();
        let mut matched = 0usize;
        for host in &hosts {
            let outcome = host.run_all(&input);
            matched += usize::from(outcome.accepted);
            std::hint::black_box(&outcome);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let total_bytes = hosts.len() * input.len();
        let mbps = total_bytes as f64 / elapsed / 1e6;

        // Engine-tier census: which lowering each pattern selected.
        let mut tiers: Vec<(String, usize)> = Vec::new();
        let mut prefiltered = 0usize;
        for host in &hosts {
            let kind = host.engine_kind().to_string();
            match tiers.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => tiers.push((kind, 1)),
            }
            prefiltered += usize::from(host.prefilter_stop_bytes().is_some());
        }
        tiers.sort();
        let engines =
            tiers.iter().map(|(kind, n)| format!("{n}x {kind}")).collect::<Vec<_>>().join(", ");

        rows.push(Row {
            suite: bench.name,
            patterns: hosts.len(),
            mbps,
            matched,
            engines,
            prefiltered,
            gated: GATED.contains(&bench.name),
        });
        if GATED.contains(&bench.name) {
            match set_row(&bench, &input) {
                Some(row) => set_rows.push(row),
                None => println!("  {}: the set does not fit one program; no set row", bench.name),
            }
        }
    }

    let mut table =
        Table::new(vec!["Suite", "Patterns", "MB/s", "Matched", "Prefiltered", "Engines"]);
    for row in &rows {
        table.row(vec![
            row.suite.to_owned(),
            row.patterns.to_string(),
            f2(row.mbps),
            row.matched.to_string(),
            row.prefiltered.to_string(),
            row.engines.clone(),
        ]);
    }
    table.print();
    println!(
        "\n  floor      : {} MB/s single-thread on {} (CICERO_HOST_MBPS_FLOOR)",
        f2(floor_mbps),
        GATED.join(", ")
    );

    println!("\n  one compile_set program per suite, haystack bytes counted once:");
    let mut table = Table::new(vec![
        "Set",
        "Patterns",
        "Engine",
        "States",
        "run MB/s",
        "run_all MB/s",
        "Chunks accepted",
        "Ids matched",
    ]);
    for row in &set_rows {
        table.row(vec![
            row.suite.to_owned(),
            row.patterns.to_string(),
            row.engine.clone(),
            row.states.to_string(),
            f2(row.run_mbps),
            f2(row.run_all_mbps),
            row.chunks_accepted.to_string(),
            row.ids_matched.to_string(),
        ]);
    }
    table.print();
    println!("\n  set floor  : {} MB/s of haystack, run and run_all", f2(SET_FLOOR_MBPS));

    let path = std::env::var("CICERO_BENCH_HOST").unwrap_or_else(|_| "BENCH_host.json".to_owned());
    if !path.is_empty() {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"host_backend\",\n");
        let _ = writeln!(json, "  \"haystack_bytes\": {HAYSTACK_BYTES},");
        json.push_str(
            "  \"notes\": \"single-thread whole-haystack run_all throughput of the bit-parallel \
             host engine, per suite; compile and lowering are outside the timed region (the \
             runtime caches both); set_rows compile each gated suite with compile_set into one \
             program and one engine and scan the haystack in 500-byte chunks, bytes counted once \
             (run: bytes examined up to the first acceptance); the run exits nonzero when a \
             gated suite falls below floor_mbps or a set row below set_floor_mbps\",\n",
        );
        let _ = writeln!(json, "  \"floor_mbps\": {floor_mbps:.1},");
        let _ = writeln!(json, "  \"set_floor_mbps\": {SET_FLOOR_MBPS:.1},");
        json.push_str("  \"rows\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"suite\": \"{}\", \"patterns\": {}, \"throughput_mbps\": {:.3}, \
                 \"matched_patterns\": {}, \"prefiltered_patterns\": {}, \"engines\": \"{}\", \
                 \"gated\": {}}}",
                row.suite,
                row.patterns,
                row.mbps,
                row.matched,
                row.prefiltered,
                row.engines,
                row.gated,
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ],\n  \"set_rows\": [\n");
        for (i, row) in set_rows.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"suite\": \"{}\", \"patterns\": {}, \"engine\": \"{}\", \"states\": {}, \
                 \"run_haystack_mbps\": {:.3}, \"run_all_haystack_mbps\": {:.3}, \
                 \"chunks_accepted\": {}, \"ids_matched\": {}}}",
                row.suite,
                row.patterns,
                row.engine,
                row.states,
                row.run_mbps,
                row.run_all_mbps,
                row.chunks_accepted,
                row.ids_matched,
            );
            json.push_str(if i + 1 < set_rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        match std::fs::write(&path, json) {
            Ok(()) => println!("\n  results written to {path}"),
            Err(e) => eprintln!("  warning: could not write {path}: {e}"),
        }
    }

    let mut failed = false;
    for row in rows.iter().filter(|r| r.gated) {
        if row.mbps < floor_mbps {
            eprintln!(
                "  FAIL: {} at {:.2} MB/s is below the {floor_mbps} MB/s single-thread floor",
                row.suite, row.mbps
            );
            failed = true;
        }
    }
    for row in &set_rows {
        if row.run_mbps.min(row.run_all_mbps) < SET_FLOOR_MBPS {
            eprintln!(
                "  FAIL: the {} set at {:.2} (run) / {:.2} (run_all) MB/s of haystack is below \
                 the {SET_FLOOR_MBPS} MB/s floor",
                row.suite, row.run_mbps, row.run_all_mbps
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("  floor      : PASS");
}
