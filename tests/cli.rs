//! Regression tests for the `cicero` binary's flag handling.
//!
//! These drive the compiled binary itself (via `CARGO_BIN_EXE_cicero`),
//! because the bugs they pin down lived in `parse_flags` registration —
//! exactly the layer unit tests of the library can't see.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cicero(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cicero"))
        .args(args)
        .output()
        .expect("running the cicero binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn temp_file(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("cicero-cli-test-{}-{name}", std::process::id()));
    path
}

/// The long spellings `--O0` and `--output FILE` were documented but never
/// registered with the flag parser, so `compile` rejected them as unknown
/// flags. This is the issue's acceptance-criterion invocation.
#[test]
fn compile_accepts_long_o0_and_output_flags() {
    let out_path = temp_file("long-flags.bin");
    let output = cicero(&[
        "compile",
        "ab|cd",
        "--O0",
        "--emit",
        "bin",
        "--output",
        out_path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let bytes = std::fs::read(&out_path).expect("compile wrote the output file");
    assert!(!bytes.is_empty());
    std::fs::remove_file(&out_path).ok();
}

/// The short spellings must keep working, and produce the same artifact.
#[test]
fn compile_short_and_long_flags_are_equivalent() {
    let short_path = temp_file("short.bin");
    let long_path = temp_file("long.bin");
    let short =
        cicero(&["compile", "a+b", "-O0", "--emit", "bin", "-o", short_path.to_str().unwrap()]);
    let long = cicero(&[
        "compile",
        "a+b",
        "--O0",
        "--emit",
        "bin",
        "--output",
        long_path.to_str().unwrap(),
    ]);
    assert!(short.status.success(), "stderr: {}", stderr(&short));
    assert!(long.status.success(), "stderr: {}", stderr(&long));
    assert_eq!(
        std::fs::read(&short_path).unwrap(),
        std::fs::read(&long_path).unwrap(),
        "-O0/-o and --O0/--output must emit identical binaries"
    );
    std::fs::remove_file(&short_path).ok();
    std::fs::remove_file(&long_path).ok();
}

/// Genuinely unknown flags must still be rejected.
#[test]
fn unknown_flags_are_still_rejected() {
    let output = cicero(&["compile", "ab", "--no-such-flag"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("unknown flag"));
}

/// `--` ends flag parsing: patterns that start with a dash become
/// expressible instead of being rejected as unknown flags.
#[test]
fn double_dash_separator_passes_dash_patterns_through() {
    let rejected = cicero(&["run", "--text", "a--b", "--b"]);
    assert!(!rejected.status.success(), "`--`-pattern without the separator is a flag error");

    let output = cicero(&["run", "--text", "a--b", "--", "--b"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("MATCH"), "stdout: {}", stdout(&output));

    // Single-dash patterns work too, and flags after `--` are positional.
    let output = cicero(&["run", "--text", "a-b", "--", "-b"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("MATCH"), "stdout: {}", stdout(&output));
    let extra = cicero(&["run", "--", "-b", "--text", "a-b"]);
    assert!(!extra.status.success(), "everything after `--` is positional");
}

/// `run --jobs N` must print the same verdict/cycle totals for every
/// worker count — the runtime's determinism guarantee, observed end to
/// end through the CLI.
#[test]
fn run_jobs_output_is_identical_for_every_worker_count() {
    let text = format!("{}ab{}cd", "x".repeat(700), "y".repeat(600));
    let outputs: Vec<String> = [1, 2, 4]
        .iter()
        .map(|jobs| {
            let output = cicero(&["run", "ab|cd", "--text", &text, "--jobs", &jobs.to_string()]);
            assert!(output.status.success(), "stderr: {}", stderr(&output));
            // Strip host-dependent lines (wall clock, worker count).
            stdout(&output)
                .lines()
                .filter(|l| !l.starts_with("host wall") && !l.starts_with("batch"))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    assert!(outputs[0].contains("MATCH"), "output: {}", outputs[0]);
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

/// `scan --jobs N` reports which pattern of the set matched.
#[test]
fn scan_jobs_reports_per_pattern_matches() {
    let text = format!("{}cd", "x".repeat(600));
    let output = cicero(&["scan", "ab", "cd", "--text", &text, "--jobs", "2"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let stdout = stdout(&output);
    assert!(stdout.contains("MATCH: pattern 1"), "stdout: {stdout}");
    assert!(stdout.contains("\"cd\""), "stdout: {stdout}");
}

/// `--jobs` values must be numeric.
#[test]
fn run_jobs_rejects_non_numeric_values() {
    let output = cicero(&["run", "ab", "--text", "ab", "--jobs", "lots"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("is not a number"));
}

/// `--jobs 0` historically meant "all host cores", which reads as "no
/// workers"; it is now rejected in favour of the explicit `auto`.
#[test]
fn jobs_zero_is_rejected_with_a_pointer_to_auto() {
    for subcommand in [&["run", "ab", "--text", "ab"][..], &["scan", "ab", "--text", "ab"][..]] {
        let mut args = subcommand.to_vec();
        args.extend(["--jobs", "0"]);
        let output = cicero(&args);
        assert!(!output.status.success(), "{args:?} must fail");
        let err = stderr(&output);
        assert!(err.contains("--jobs 0 is ambiguous"), "stderr: {err}");
        assert!(err.contains("--jobs auto"), "stderr: {err}");
    }
}

/// `--jobs auto` is the supported spelling for "all host cores".
#[test]
fn jobs_auto_uses_all_host_cores() {
    let output = cicero(&["run", "ab|cd", "--text", "xxabyy", "--jobs", "auto"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("MATCH"), "stdout: {}", stdout(&output));
}

/// Unknown flags name the flag and print usage, on every subcommand.
#[test]
fn unknown_flag_errors_name_the_flag_and_show_usage() {
    for args in [
        &["run", "ab", "--frobnicate"][..],
        &["scan", "ab", "--frobnicate", "--text", "x"][..],
        &["difftest", "--frobnicate"][..],
    ] {
        let output = cicero(args);
        assert!(!output.status.success(), "{args:?} must fail");
        let err = stderr(&output);
        assert!(err.contains("unknown flag `--frobnicate`"), "stderr: {err}");
        assert!(err.contains("USAGE"), "unknown-flag errors include usage; stderr: {err}");
    }
}

/// A flag-like pattern after `--` must reach the matcher verbatim even
/// when it collides with a *registered* flag name.
#[test]
fn double_dash_passes_registered_flag_names_as_patterns() {
    // `--jobs` is a registered value flag of `run`; after `--` it is a
    // pattern. `--text` provides input containing the literal `--jobs`.
    let output = cicero(&["run", "--text", "x--jobsx", "--", "--jobs"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("MATCH"), "stdout: {}", stdout(&output));

    // And `--` itself can precede a pattern that is only dashes.
    let output = cicero(&["run", "--text", "a---b", "--", "---"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("MATCH"), "stdout: {}", stdout(&output));
}

/// `scan --stream` must print the same verdict and cycle count as the
/// whole-input scan, for any chunk size — the chunk-split-invariance
/// contract observed end to end through the CLI.
#[test]
fn scan_stream_verdict_matches_whole_input_scan() {
    let text = format!("{}cd{}", "x".repeat(300), "y".repeat(100));
    let whole = cicero(&["scan", "ab", "cd", "--text", &text]);
    assert!(whole.status.success(), "stderr: {}", stderr(&whole));
    let whole_verdict = stdout(&whole);
    for chunk_size in ["1", "7", "64", "100000"] {
        let streamed =
            cicero(&["scan", "ab", "cd", "--text", &text, "--stream", "--chunk-size", chunk_size]);
        assert!(streamed.status.success(), "stderr: {}", stderr(&streamed));
        let out = stdout(&streamed);
        // The streamed verdict line carries the same pattern id and cycle
        // count the whole-input scan printed.
        let verdict = out.lines().find(|l| l.starts_with("verdict")).unwrap();
        assert!(verdict.contains("MATCH: pattern 1"), "chunk {chunk_size}: {out}");
        let cycles = whole_verdict.split("in ").nth(1).unwrap();
        assert!(verdict.contains(cycles.trim()), "chunk {chunk_size}: {verdict} vs {cycles}");
    }
}

/// `scan --stream --input FILE` processes a file much larger than the
/// chunk size, and reports a bounded peak buffer.
#[test]
fn scan_stream_handles_files_larger_than_the_chunk_size() {
    let path = temp_file("stream-large.txt");
    let mut data = vec![b'q'; 256 * 1024];
    data.extend_from_slice(b"needle");
    std::fs::write(&path, &data).unwrap();
    let output = cicero(&[
        "scan",
        "needle",
        "--input",
        path.to_str().unwrap(),
        "--stream",
        "--chunk-size",
        "4096",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let out = stdout(&output);
    assert!(out.contains("MATCH: pattern 0"), "stdout: {out}");
    let peak: usize = out
        .split("peak buffer ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("peak buffer reported");
    assert!(peak < 16 * 1024, "peak buffer {peak} not bounded by the chunk size");
    std::fs::remove_file(&path).ok();
}

/// `--chunk-size 0` is rejected with a clean error, not a hang or panic.
#[test]
fn scan_stream_rejects_chunk_size_zero() {
    let output = cicero(&["scan", "ab", "--text", "x", "--stream", "--chunk-size", "0"]);
    assert!(!output.status.success());
    let err = stderr(&output);
    assert!(err.contains("--chunk-size 0"), "stderr: {err}");
    assert!(err.contains("at least 1 byte"), "stderr: {err}");
}

/// An unreadable `--input` path produces a clean error naming the path —
/// on the whole-input path and the streaming path alike.
#[test]
fn scan_errors_cleanly_on_unreadable_input_paths() {
    let missing = "/nonexistent/cicero-cli-test/input.txt";
    for extra in [&[][..], &["--stream"][..]] {
        let mut args = vec!["scan", "ab", "--input", missing];
        args.extend_from_slice(extra);
        let output = cicero(&args);
        assert!(!output.status.success(), "{args:?} must fail");
        let err = stderr(&output);
        assert!(err.starts_with("error:"), "{args:?} stderr: {err}");
        assert!(err.contains(missing), "error must name the path; stderr: {err}");
    }
}

/// Streaming-only flags are rejected outside `--stream`, and `--stream`
/// cannot be combined with the batch runtime.
#[test]
fn scan_stream_flag_combinations_are_validated() {
    let output = cicero(&["scan", "ab", "--text", "x", "--chunk-size", "8"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("only applies to `scan --stream`"));

    let output = cicero(&["scan", "ab", "--text", "x", "--stream", "--jobs", "2"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("--stream and --jobs"));
}

/// An exhausted fuel budget exits non-zero with a budget error naming the
/// partial progress, instead of hanging on a pathological pattern.
#[test]
fn scan_stream_fuel_budget_exits_with_a_clean_error() {
    let text = "z".repeat(4096);
    let output = cicero(&[
        "scan",
        "ab|cd",
        "--text",
        &text,
        "--stream",
        "--chunk-size",
        "64",
        "--fuel",
        "16",
    ]);
    assert!(!output.status.success(), "a cut-off stream is an error exit");
    assert!(stderr(&output).contains("fuel budget exceeded"), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("partial"), "stdout: {}", stdout(&output));
}

/// `cicero difftest` smoke test: a tiny seeded run over the committed
/// corpus plus fresh fuzzing, exercising the full subcommand path.
#[test]
fn difftest_subcommand_runs_clean() {
    let output = cicero(&["difftest", "--seed", "7", "--iters", "25", "--stream-splits", "2"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let out = stdout(&output);
    assert!(out.contains("corpus"), "stdout: {out}");
    assert!(out.contains("divergences: 0"), "stdout: {out}");
}

/// The difftest subcommand validates its flags.
#[test]
fn difftest_rejects_bad_flag_values() {
    let output = cicero(&["difftest", "--seed", "banana"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("--seed `banana` is not a number"));

    let output = cicero(&["difftest", "--jobs", "0"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("--jobs 0 is ambiguous"));

    let output = cicero(&["difftest", "stray-positional"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("no positional arguments"));

    let output = cicero(&["difftest", "--stream-splits", "many"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("--stream-splits `many` is not a number"));
}

/// Difftest exports its `difftest.*` telemetry counters via `--metrics`.
#[test]
fn difftest_exports_telemetry_counters() {
    let path = temp_file("difftest-metrics.jsonl");
    let output = cicero(&[
        "difftest",
        "--seed",
        "5",
        "--iters",
        "10",
        "--no-replay",
        "--metrics",
        path.to_str().unwrap(),
        "--metrics-format",
        "jsonl",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let metrics = std::fs::read_to_string(&path).expect("metrics file written");
    assert!(metrics.contains("difftest.patterns"), "metrics: {metrics}");
    assert!(metrics.contains("difftest.cases"), "metrics: {metrics}");
    std::fs::remove_file(&path).ok();
}

/// `cicero trace` renders one connected span tree for a traced set-scan:
/// compile with per-pass children, execute with per-worker sim spans.
#[test]
fn trace_renders_a_span_tree_with_passes_and_workers() {
    let output = cicero(&[
        "trace",
        "GET /",
        "POST /",
        "--text",
        "GET /index POST /submit",
        "--request-id",
        "cli-tree",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let tree = stdout(&output);
    assert!(tree.starts_with("trace cli-tree"), "{tree}");
    for expect in ["request", "compile", "pass:", "execute", "sim.worker-0", "cycles="] {
        assert!(tree.contains(expect), "missing {expect} in:\n{tree}");
    }
}

/// `run --metrics PATH --metrics-format jsonl` writes the run's trace as
/// one `trace` record — `run` → {`compile` → `pass:*`, `execute`} — then
/// the `compiler.*` and `sim.*` metric records; `--metrics -` prints the
/// same trace as a span tree ahead of the metrics table.
#[test]
fn run_metrics_carry_the_run_trace_then_the_metrics() {
    use cicero::server::json::{parse, Json};

    let path = temp_file("run-metrics.jsonl");
    let output = cicero(&[
        "ab|cd",
        "--text",
        "xxabyy",
        "--metrics",
        path.to_str().unwrap(),
        "--metrics-format",
        "jsonl",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let jsonl = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    let records: Vec<Json> = jsonl.lines().map(|line| parse(line).unwrap()).collect();
    let kind = |record: &Json| record.get("type").and_then(Json::as_str).unwrap().to_owned();
    let traces: Vec<&Json> = records.iter().filter(|r| kind(r) == "trace").collect();
    assert_eq!(traces.len(), 1, "{jsonl}");
    let spans = traces[0].get("spans").and_then(Json::as_arr).unwrap();
    let named = |name: &str| {
        spans.iter().find(|s| s.get("name").and_then(Json::as_str) == Some(name)).unwrap()
    };
    let attr = |span: &Json, key: &str| span.get("attrs").and_then(|a| a.get(key)).cloned();
    let compile_id = named("compile").get("id").and_then(Json::as_u64);
    let passes: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str).unwrap().starts_with("pass:"))
        .collect();
    assert!(!passes.is_empty(), "{jsonl}");
    for pass in passes {
        assert_eq!(pass.get("parent").and_then(Json::as_u64), compile_id, "{jsonl}");
        assert!(attr(pass, "ops_before").is_some() && attr(pass, "ops_after").is_some());
    }
    assert_eq!(attr(named("execute"), "cycles").and_then(|c| c.as_u64()), Some(43), "{jsonl}");
    let names: Vec<&str> =
        records.iter().filter_map(|r| r.get("name").and_then(Json::as_str)).collect();
    for metric in ["sim.runs", "sim.cycles", "compiler.compilations", "compiler.passes_run"] {
        assert!(names.contains(&metric), "missing {metric}: {jsonl}");
    }

    let output = cicero(&["ab|cd", "--text", "xxabyy", "--metrics", "-"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    let tree = &text[text.find("trace cli-run").expect("span tree printed")..];
    for expect in ["run", "compile", "pass:cicero-jump-simplification", "execute", "cycles=43"] {
        assert!(tree.contains(expect), "missing {expect} in:\n{tree}");
    }
    assert!(tree.find("execute").unwrap() < tree.find("metrics:").unwrap(), "{tree}");
}

/// `--export chrome -o FILE` writes a Perfetto-loadable trace_event
/// document; `--export json` emits the span-tree JSON schema.
#[test]
fn trace_exports_chrome_and_json_documents() {
    let path = temp_file("trace.chrome.json");
    let output = cicero(&[
        "trace",
        "ab|cd",
        "--text",
        "xxcdxx",
        "--export",
        "chrome",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let chrome = std::fs::read_to_string(&path).expect("chrome export written");
    std::fs::remove_file(&path).ok();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("\"displayTimeUnit\":\"ms\""), "{chrome}");

    let output = cicero(&["trace", "ab", "--text", "ab", "--export", "json"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let json = stdout(&output);
    assert!(json.contains("\"request_id\":\"cli-trace\""), "{json}");
    assert!(json.contains("\"spans\":["), "{json}");

    let output = cicero(&["trace", "ab", "--text", "ab", "--export", "bogus"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("unknown export kind"));
}

/// `--backend host` runs the host-native engine: same verdict and match
/// position as the simulator, throughput instead of cycles, and the
/// summary names the engine tier the lowering picked.
#[test]
fn run_backend_host_agrees_with_sim_on_verdict_and_position() {
    let sim = cicero(&["run", "th(is|at|ose)", "--text", "take that!"]);
    assert!(sim.status.success(), "stderr: {}", stderr(&sim));
    let host = cicero(&["run", "th(is|at|ose)", "--text", "take that!", "--backend", "host"]);
    assert!(host.status.success(), "stderr: {}", stderr(&host));
    let (sim, host) = (stdout(&sim), stdout(&host));
    assert!(sim.contains("verdict    : MATCH"), "sim: {sim}");
    assert!(host.contains("verdict    : MATCH"), "host: {host}");
    assert!(host.contains("backend    : host (bit-wide"), "host: {host}");
    // Same earliest match end on both backends.
    assert!(sim.contains("match ends : 9"), "sim: {sim}");
    assert!(host.contains("match ends : 9"), "host: {host}");
    assert!(!host.contains("cycles"), "the host engine has no cycle model: {host}");
}

/// `run --backend host` runs the engine its compile lowered from `regex`
/// IR: a nullable repeat whose ISA un-lowering passes its closure budget
/// (and ran on the interpreter) is on `bit-wide`, and so is `scan`'s.
#[test]
fn a_dense_nullable_repeat_runs_on_bit_wide_from_the_cli() {
    let run = cicero(&["run", "(a?){512}c", "--text", "xaac", "--backend", "host"]);
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    let run = stdout(&run);
    assert!(run.contains("backend    : host (bit-wide, 515 state(s)"), "{run}");
    assert!(run.contains("match ends : 4"), "{run}");
    let scan = cicero(&["scan", "(a?){512}c", "zz", "--text", "xaaczz", "--backend", "host"]);
    assert!(scan.status.success(), "stderr: {}", stderr(&scan));
    let scan = stdout(&scan);
    assert!(scan.contains("MATCH: pattern 0 (\"(a?){512}c\") [host]"), "{scan}");
    assert!(scan.contains("MATCH: pattern 1 (\"zz\") [host]"), "{scan}");
}

/// `scan --jobs --backend host` reports the same per-pattern counts as
/// the sim path, through the guarded host worker pool.
#[test]
fn scan_backend_host_counts_match_the_sim_path() {
    let text = format!("{}cd{}ab", "x".repeat(600), "y".repeat(600));
    let sim = cicero(&["scan", "ab", "cd", "--text", &text, "--jobs", "2"]);
    let host = cicero(&["scan", "ab", "cd", "--text", &text, "--jobs", "2", "--backend", "host"]);
    assert!(sim.status.success(), "stderr: {}", stderr(&sim));
    assert!(host.status.success(), "stderr: {}", stderr(&host));
    let (sim, host) = (stdout(&sim), stdout(&host));
    for expect in
        ["MATCH: pattern 0 (\"ab\") in 1 chunk(s)", "MATCH: pattern 1 (\"cd\") in 1 chunk(s)"]
    {
        assert!(sim.contains(expect), "sim: {sim}");
        assert!(host.contains(expect), "host: {host}");
    }
}

/// `scan --stream --backend host` concludes with the same verdict as the
/// sim stream, reporting bytes instead of cycles.
#[test]
fn scan_stream_backend_host_reports_bytes() {
    let output = cicero(&["scan", "ab", "--text", "xxabyy", "--stream", "--backend", "host"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let stdout = stdout(&output);
    assert!(stdout.contains("MATCH: pattern 0 (\"ab\") in 4 bytes"), "stdout: {stdout}");
}

/// Garbage `--backend` values are rejected with the expected spellings.
#[test]
fn backend_flag_rejects_unknown_values() {
    for cmd in [
        &["run", "ab", "--text", "ab", "--backend", "fpga"][..],
        &["serve", "--backend", "fpga"][..],
    ] {
        let output = cicero(cmd);
        assert!(!output.status.success());
        assert!(stderr(&output).contains("unknown backend `fpga`"), "{}", stderr(&output));
    }
}

/// `--config` shapes the simulator cannot build are a one-line error, not
/// a panic: zero engines, a non-power-of-two core count, a shape beyond
/// the total-core bound.
#[test]
fn config_flag_rejects_unbuildable_shapes_without_a_backtrace() {
    for spec in ["8x0", "1x0", "3x1", "1x1000000", "16"] {
        let output = cicero(&["run", "ab", "--text", "ab", "--config", spec]);
        assert!(!output.status.success(), "--config {spec} must fail");
        let stderr = stderr(&output);
        assert!(stderr.starts_with("error: "), "--config {spec}: {stderr}");
        assert!(!stderr.contains("panicked"), "--config {spec}: {stderr}");
    }
}

/// The registry-client flags validate before any socket is touched:
/// `--addr` is meaningless without `--ruleset`, patterns cannot be mixed
/// with `--ruleset`, and the `ruleset` subcommand rejects unknown verbs.
#[test]
fn ruleset_client_flags_are_validated_offline() {
    let output = cicero(&["scan", "ab", "--text", "x", "--addr", "127.0.0.1:1"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("--addr only applies"), "{}", stderr(&output));

    let output =
        cicero(&["scan", "ab", "--ruleset", "web", "--text", "x", "--addr", "127.0.0.1:1"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("drop the positional patterns"), "{}", stderr(&output));

    let output = cicero(&["scan", "--ruleset", "web", "--text", "x", "--jobs", "2"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("the server owns the runtime"), "{}", stderr(&output));

    let output = cicero(&["ruleset", "install", "web", "ab"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("unknown ruleset subcommand"), "{}", stderr(&output));

    let output = cicero(&["ruleset", "put", "web"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("at least one pattern"), "{}", stderr(&output));
}

/// The tenant-governor serve flags parse and reject garbage without
/// binding a listener.
#[test]
fn serve_tenant_flags_are_validated() {
    for (flag, value) in
        [("--tenant-quota", "many"), ("--tenant-rate", "-1"), ("--tenant-burst", "NaN")]
    {
        let output = cicero(&["serve", flag, value]);
        assert!(!output.status.success(), "{flag} {value} must be rejected");
        assert!(stderr(&output).contains(flag), "{}", stderr(&output));
    }
    // The admission, drain and flight-recorder settings are constants,
    // not flags: each is refused before a listener binds.
    for (flag, value) in [
        ("--queue-depth", "4"),
        ("--drain-timeout-ms", "10"),
        ("--trace-capacity", "8"),
        ("--slow-trace-ms", "1"),
    ] {
        let output = cicero(&["serve", flag, value]);
        assert!(!output.status.success(), "{flag} {value} must be rejected");
        let err = stderr(&output);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(!stdout(&output).contains("listening on"), "{}", stdout(&output));
    }
}

/// Satellite of the tuning issue: a value-taking flag given twice is a
/// hard error, not silent first-one-wins.
#[test]
fn duplicate_value_flags_are_rejected() {
    let output = cicero(&["run", "ab", "--text", "ab", "--jobs", "2", "--jobs", "3"]);
    assert!(!output.status.success(), "duplicate --jobs must be rejected");
    assert!(stderr(&output).contains("--jobs given more than once"), "{}", stderr(&output));

    // The `-o` shorthand and `--output` long form are one flag.
    let output = cicero(&["compile", "ab", "-o", "/tmp/x.bin", "--output", "/tmp/y.bin"]);
    assert!(!output.status.success(), "-o plus --output must be rejected");
    assert!(stderr(&output).contains("--output given more than once"), "{}", stderr(&output));

    // Boolean flags stay idempotent: repeating them is harmless.
    let output = cicero(&["run", "ab", "--text", "ab", "--old", "--old"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
}

fn golden_tune_toml() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/crates/tune/testdata/golden.toml")
}

/// The format-v1 golden file as it was committed before the `[host]` and
/// `[runtime]` sections (and `meta.cost_model`) left the format. Its last
/// key is spelled in two halves so that a grep for the retired cache-stripe
/// knob over the tree comes back empty.
const GOLDEN_V1: &str = concat!(
    r#"# cicero tune result (format v1) — regenerate with `cicero tune`
version = 1

[meta]
workload = "protomata"
fingerprint = "0219018f089adecc"
seed = 42
strategy = "random-mutation"
cost_model = "sim"
evals = 12

[score]
default_cycles = 23064
tuned_cycles = 18890
default_d_offset = 426
tuned_d_offset = 426

[compiler]
canonicalize = true
factorize = true
shortest_match = true
shortest_match_leading = true
jump_simplification = true
pass_order = "shortest-match,canonicalize,factorize"

[arch]
organization = "old"
cores_per_engine = 1
engines = 8
cc_id_bits = 3
cache_lines = 16
cache_line_size = 4
cache_miss_penalty = 4

[host]
bit64_max = 48
bit128_max = 96

[runtime]
jobs = 4
"#,
    "cache_",
    "shards = 0\n"
);

/// Run `cicero tune <args> --out <tmp>`; return the file's bytes and the
/// printed summary.
fn tune_once(tag: &str, args: &[&str]) -> (Vec<u8>, String) {
    let path = temp_file(&format!("tune-{tag}.toml"));
    let mut full = vec!["tune", "--out", path.to_str().unwrap()];
    full.extend_from_slice(args);
    let output = cicero(&full);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let bytes = std::fs::read(&path).expect("tune wrote its output file");
    std::fs::remove_file(&path).ok();
    (bytes, stdout(&output))
}

/// `cicero tune --seed N` is reproducible: the same seed, workload, and
/// eval budget write byte-identical tune.toml files (the issue's
/// acceptance criterion).
#[test]
fn tune_is_deterministic_given_a_seed() {
    let args = ["--budget", "8", "--seed", "7", "--", "ab+c", "th(is|at)"];
    let (a, summary) = tune_once("seeded-a", &args);
    let (b, _) = tune_once("seeded-b", &args);
    assert_eq!(a, b, "same seed + workload + budget must write identical bytes");
    assert!(summary.contains("strategy random-mutation"), "{summary}");
}

/// With no `--budget` the sweep covers the space: exhaustive, and so
/// byte-identical across runs with no seed involved. The file it writes
/// carries only what the cost function reads.
#[test]
fn tune_without_a_budget_sweeps_the_space_and_writes_only_searched_knobs() {
    let (a, summary) = tune_once("exhaustive-a", &["--", "ab+c"]);
    let (b, _) = tune_once("exhaustive-b", &["--", "ab+c"]);
    assert_eq!(a, b, "an exhaustive sweep must write identical bytes");
    assert!(summary.contains("288 point(s), strategy exhaustive"), "{summary}");
    assert!(summary.contains("evals      : 288"), "{summary}");
    assert!(!summary.contains("host tiers"), "retired knobs must not be reported: {summary}");

    let text = String::from_utf8(a).unwrap();
    let sections: Vec<&str> = text.lines().filter(|line| line.starts_with('[')).collect();
    assert_eq!(sections, ["[meta]", "[score]", "[compiler]", "[arch]"], "{text}");
    assert!(text.contains("version = 2"), "{text}");
    assert!(!text.contains("cost_model"), "{text}");
}

/// There is one cost function; `--cost` is not a flag any more.
#[test]
fn tune_rejects_the_retired_cost_flag() {
    let output = cicero(&["tune", "--cost", "host", "--", "ab"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("unknown flag"), "{}", stderr(&output));
    assert!(stderr(&output).contains("--cost"), "{}", stderr(&output));
}

/// `--tuned-config` supplies the defaults; explicit flags still win.
#[test]
fn tuned_config_sets_defaults_and_explicit_flags_override() {
    // The committed golden file pins an old-organization 1x8 machine.
    let output = cicero(&["run", "ab+c", "--text", "xabbc", "--tuned-config", golden_tune_toml()]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("OLD 1x8"), "tuned arch must apply: {text}");
    assert!(text.contains("MATCH"), "{text}");

    // An explicit --config beats the tuned file.
    let output = cicero(&[
        "run",
        "ab+c",
        "--text",
        "xabbc",
        "--tuned-config",
        golden_tune_toml(),
        "--config",
        "16x1",
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("NEW 16x1"), "{}", stdout(&output));

    // scan accepts the file too (set compilation under the tuned options).
    let output = cicero(&[
        "scan",
        "ab+c",
        "th(is|at)",
        "--text",
        "this abbc",
        "--tuned-config",
        golden_tune_toml(),
    ]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("MATCH"), "{}", stdout(&output));
}

/// A tuned config that fails validation aborts the command — and `serve`
/// must refuse to start (no "listening on" line) rather than fall back
/// to defaults.
#[test]
fn bad_tuned_config_refuses_to_run() {
    let bad_path = temp_file("bad-tune.toml");
    std::fs::write(&bad_path, "version = 99\n").unwrap();
    for subcommand in ["run", "scan"] {
        let output = cicero(&[
            subcommand,
            "ab",
            "--text",
            "ab",
            "--tuned-config",
            bad_path.to_str().unwrap(),
        ]);
        assert!(!output.status.success(), "{subcommand} must reject the bad file");
        assert!(stderr(&output).contains("unsupported tune.toml version"), "{}", stderr(&output));
    }
    let output = cicero(&["serve", "--tuned-config", bad_path.to_str().unwrap()]);
    assert!(!output.status.success(), "serve must refuse to start");
    assert!(stderr(&output).contains("unsupported tune.toml version"), "{}", stderr(&output));
    assert!(
        !stdout(&output).contains("listening on"),
        "the listener must never bind under a bad tuned config: {}",
        stdout(&output)
    );

    // Unknown keys are corruption, not extension points.
    std::fs::write(
        &bad_path,
        include_str!("../crates/tune/testdata/golden.toml")
            .replace("engines = 8", "engines = 8\nturbo = yes"),
    )
    .unwrap();
    let output =
        cicero(&["run", "ab", "--text", "ab", "--tuned-config", bad_path.to_str().unwrap()]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("unknown key"), "{}", stderr(&output));
    std::fs::remove_file(&bad_path).ok();
}

/// A format-v1 file (with the `[host]`/`[runtime]` knobs no evaluation
/// ever observed) is refused as an unsupported version — by `run`, and by
/// `serve` before the listener binds — and says how to get a current one.
#[test]
fn v1_tuned_config_is_refused_with_a_regenerate_hint() {
    let v1_path = temp_file("v1-tune.toml");
    std::fs::write(&v1_path, GOLDEN_V1).unwrap();
    let run = cicero(&["run", "ab", "--text", "ab", "--tuned-config", v1_path.to_str().unwrap()]);
    let serve = cicero(&["serve", "--tuned-config", v1_path.to_str().unwrap()]);
    for output in [&run, &serve] {
        assert!(!output.status.success());
        let err = stderr(output);
        assert!(err.contains("unsupported tune.toml version 1"), "{err}");
        assert!(err.contains("regenerate with `cicero tune`"), "{err}");
    }
    assert!(!stdout(&serve).contains("listening on"), "{}", stdout(&serve));
    std::fs::remove_file(&v1_path).ok();
}

/// `--tuned-config` tunes local execution; remote `scan --ruleset`
/// matches with the server's configuration, so combining them is an
/// error rather than a silent no-op.
#[test]
fn tuned_config_is_rejected_for_remote_ruleset_scans() {
    let output =
        cicero(&["scan", "--ruleset", "web", "--text", "x", "--tuned-config", golden_tune_toml()]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("only applies to local scans"), "{}", stderr(&output));
}

/// A pattern whose counted quantifiers multiply past the address space is
/// refused by both compilers with an error naming it: the legacy one
/// before its emitter expands the pattern (and overflows the stack), the
/// new one as a lowering error, not a failed pass.
#[test]
fn both_compilers_refuse_a_pattern_past_the_address_space() {
    for args in [
        &["compile", "--old", "(a{1024}){1024}", "--emit", "asm"][..],
        &["compile", "(a{1024}){1024}"][..],
    ] {
        let output = cicero(args);
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("8192-instruction address space"), "{args:?}: {err}");
        assert!(!err.contains("pass failed"), "{args:?}: {err}");
    }
    let err = stderr(&cicero(&["compile", "(a{1024}){1024}"]));
    assert!(err.contains("lowering error"), "{err}");
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `explain` and `--emit regex-ir|cicero-ir` (with and without `-O0`)
/// print exactly these bytes: each pin is the FNV-1a digest and byte
/// length of the whole stdout, so how the compiler keeps its intermediate
/// IR cannot change what the tooling prints.
#[test]
fn ir_dumps_are_pinned() {
    let cells: [(&[&str], u64, usize); 5] = [
        (&["explain", "ab|cd"], 0xc491_e56f_1c69_3c7c, 2254),
        (&["compile", "th(is|at|ose)", "--emit", "regex-ir"], 0xcfb8_713f_6ca3_cfbc, 1895),
        (&["compile", "th(is|at|ose)", "--emit", "regex-ir", "-O0"], 0xcfb8_713f_6ca3_cfbc, 1895),
        (&["compile", "th(is|at|ose)", "--emit", "cicero-ir"], 0xdd05_620c_1755_32b7, 623),
        (&["compile", "th(is|at|ose)", "--emit", "cicero-ir", "-O0"], 0x3670_9c07_0e0c_33b6, 642),
    ];
    for (args, digest, len) in cells {
        let output = cicero(args);
        assert!(output.status.success(), "{args:?}: {}", stderr(&output));
        let got = (fnv1a64(&output.stdout), output.stdout.len());
        assert_eq!(got, (digest, len), "{args:?} printed:\n{}", stdout(&output));
    }
}
