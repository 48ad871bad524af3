//! `cicero` — command-line front door to the workspace.
//!
//! ```text
//! cicero compile <pattern> [--old] [-O0] [--emit asm|bin|regex-ir|cicero-ir] [-o FILE]
//! cicero run     <pattern> [--text STR | --input FILE] [--config NxM] [--old] [-O0]
//!                [--jobs N] [--backend sim|host]
//! cicero scan    <pattern>... (--text STR | --input FILE) [--config NxM] [--jobs N]
//!                [--backend sim|host] [--stream] [--chunk-size N] [--fuel N]
//!                [--deadline-ms N]
//! cicero serve   [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!                [--drain-timeout-ms N] [--config NxM] [--jobs N] [--backend sim|host]
//!                [--trace-dump PATH] [--slow-trace-ms N] [--trace-capacity N]
//!                [--ruleset-dir PATH] [--tenant-quota N] [--tenant-rate R]
//!                [--tenant-burst B]
//! cicero ruleset put <id> <p1> <p2> ... [--addr HOST:PORT]
//! cicero ruleset get|rm <id> [--addr HOST:PORT]
//! cicero ruleset list [--addr HOST:PORT]
//! cicero trace   <pattern>... (--text STR | --input FILE) [--config NxM] [--jobs N]
//!                [--export tree|json|chrome] [-o FILE] [--request-id ID]
//! cicero tune    (--workload PACK | <pattern>...) [--budget N|Nms] [--seed N]
//!                [--out FILE] [--space full|compiler]
//! cicero explain <pattern>
//! cicero configs
//! cicero difftest [--seed N] [--iters K] [--jobs J] [--corpus DIR] [--save]
//! ```
//!
//! `--config NxM` uses the paper's naming: `1x9` is the old organization
//! with nine engines, `16x1` the proposed one with sixteen cores.
//!
//! `cicero <pattern> ...` (no subcommand) is shorthand for `cicero run`.
//!
//! `--jobs N` switches `run`/`scan` to the parallel batch runtime: the
//! input is split into 500-byte chunks (the paper's §6 methodology) and
//! matched chunk-by-chunk on a pool of `N` workers (`auto` = all host
//! cores; a literal `0` is rejected as ambiguous), with the compiled
//! program served from the runtime's LRU cache.
//!
//! `--backend host` executes on the host-native bit-parallel NFA engine
//! (`cicero-hostexec`) instead of the cycle-level simulator: same
//! verdicts and match positions, no cycle model, wall-clock throughput
//! instead. `run`/`scan` default to `sim`; `serve` defaults to `host`
//! with the simulator still selectable per request via the
//! `X-Cicero-Backend` header.
//!
//! `scan --stream` switches to the streaming runtime: the input is read
//! chunk by chunk (`--chunk-size N` bytes, default 64 KiB) through a
//! bounded queue, so a file of any size is matched in O(chunk + machine
//! window) memory with a verdict byte-identical to the whole-input scan.
//! `--fuel N` caps simulated cycles and `--deadline-ms N` caps wall-clock
//! time; exceeding either concludes the session with a clean budget
//! error instead of a hang.
//!
//! `serve` starts the std-only HTTP front door (`crates/server`): `POST
//! /match`, `POST /scan`, `GET /metrics`, `GET /healthz`, the
//! `PUT/GET/DELETE /rulesets/{id}` registry, and `POST /shutdown` for a
//! graceful drain. It prints one `listening on ADDR` line at startup
//! (so `--addr host:0` ephemeral ports are discoverable), and exits `0`
//! only when the drain completed within `--drain-timeout-ms`.
//! `--ruleset-dir` persists installed rulesets and restores them on the
//! next start; `--tenant-quota`/`--tenant-rate`/`--tenant-burst` turn
//! on per-`X-Cicero-Tenant` admission limits.
//!
//! `cicero ruleset put|get|rm|list` manages that registry on a *running*
//! server over HTTP (default `--addr 127.0.0.1:8787`): a `put` over an
//! existing id hot-swaps it atomically with zero downtime. `scan
//! --ruleset ID` ships the input to the server (`POST /scan/stream`) so
//! the CLI matches against exactly the version the server is serving.
//!
//! `tune` searches pass orderings × architecture parameters for the
//! lowest-cost configuration on a workload (docs/TUNING.md) and
//! writes the winner to a strictly-validated `tune.toml`; `run`, `scan`,
//! and `serve` load one via `--tuned-config` (explicit flags still win,
//! and a file that fails validation aborts the command — `serve`
//! refuses to start).
//!
//! A `--` separator ends flag parsing; everything after it is positional,
//! which is how patterns beginning with `-` are expressed
//! (`cicero run --text a-b -- '-b'`).
//!
//! Observability: `--pass-timing` prints the per-pass timing table, and
//! `--metrics PATH` (with `--metrics-format summary|jsonl`) exports the
//! command's telemetry — the span trace of `run` and `tune`, then the
//! metrics — to a file, or to stdout when PATH is `-`.

use std::io::Write as _;
use std::process::ExitCode;

use cicero::compiler::record_pass_spans;
use cicero::prelude::*;
use cicero::telemetry::{RequestTrace, TraceContext, TraceSpan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("ruleset") => cmd_ruleset(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("configs") => cmd_configs(),
        Some("difftest") => cmd_difftest(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        // `cicero <pattern> [flags]` is shorthand for `cicero run`; the
        // `--` form covers patterns that start with a dash.
        Some(other) if !other.starts_with('-') || other == "--" => cmd_run(&args),
        Some(other) => Err(format!("unknown flag `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cicero - regex-to-DSA compiler and cycle-level simulator

USAGE:
    cicero compile <pattern> [--old] [-O0|--O0] [--emit KIND] [-o|--output FILE]
                   [--pass-timing]
    cicero run     <pattern> [--text STR | --input FILE] [--config NxM] [--old] [-O0]
                   [--jobs N] [--backend sim|host] [--pass-timing] [--metrics PATH]
                   [--metrics-format FORMAT]
    cicero scan    <p1> <p2> ... (--text STR | --input FILE) [--config NxM] [--jobs N]
                   [--backend sim|host] [--stream] [--chunk-size N] [--fuel N]
                   [--deadline-ms N]
    cicero scan    --ruleset ID (--text STR | --input FILE) [--addr HOST:PORT]
                   [--backend sim|host] [--chunk-size N] [--fuel N] [--deadline-ms N]
    cicero serve   [--addr HOST:PORT] [--workers N] [--queue-depth N]
                   [--drain-timeout-ms N] [--config NxM] [--jobs N] [--backend sim|host]
                   [--metrics PATH] [--metrics-format FORMAT]
                   [--trace-dump PATH] [--slow-trace-ms N] [--trace-capacity N]
                   [--ruleset-dir PATH] [--tenant-quota N] [--tenant-rate R]
                   [--tenant-burst B]
    cicero ruleset put <id> <p1> <p2> ... [--addr HOST:PORT]
    cicero ruleset get|rm <id> [--addr HOST:PORT]
    cicero ruleset list [--addr HOST:PORT]
    cicero trace   <p1> <p2> ... (--text STR | --input FILE) [--config NxM]
                   [--jobs N] [--export tree|json|chrome] [-o|--output FILE]
                   [--request-id ID] [--fuel N] [--deadline-ms N]
    cicero tune    (--workload PACK | <p1> <p2> ...) [--budget N|Nms] [--seed N]
                   [--out FILE] [--space full|compiler]
                   [--metrics PATH] [--metrics-format FORMAT]
    cicero explain <pattern>
    cicero configs
    cicero difftest [--seed N] [--iters K] [--jobs J] [--corpus DIR] [--save]
                    [--stream-splits K] [--no-replay] [--metrics PATH]
                    [--metrics-format FORMAT]
    cicero <pattern> [run flags]      shorthand for `cicero run` (empty input
                                      unless --text/--input is given)

A `--` ends flag parsing: every later argument is positional, so patterns
beginning with `-` are written e.g. `cicero run --text a-b -- '-b'`.

EMIT KINDS:
    asm        address-annotated assembly (default)
    bin        16-bit little-endian binary words
    regex-ir   high-level regex dialect after optimizations
    cicero-ir  low-level cicero dialect after Jump Simplification

OPTIONS:
    --old             use the legacy single-IR compiler (Code Restructuring)
    -O0, --O0         disable optimizations
    -o, --output FILE write `--emit` output to FILE instead of stdout
    --config          architecture: 1xM = old organization, Nx1/NxM = new (default 16x1)
    --jobs N          batch mode: split the input into 500-byte chunks and match
                      them on N runtime workers (N >= 1, or `auto` for all host
                      cores; a literal 0 is rejected as ambiguous)
    --backend KIND    `sim` runs the cycle-level DSA simulator, `host` the
                      host-native bit-parallel NFA engine. run/scan default to
                      sim (they report cycle counts); serve defaults to host
                      (requests can still pick with X-Cicero-Backend)
    --stream          scan: stream the input chunk by chunk in bounded memory
                      (byte-identical verdict to a whole-input scan); not
                      combinable with --jobs
    --chunk-size N    scan --stream: bytes read per chunk (default 65536;
                      must be at least 1)
    --fuel N          scan --stream: cap the session at N simulated cycles;
                      exceeding it exits with a budget error
    --deadline-ms N   scan --stream: cap the session at N milliseconds of
                      wall-clock time; exceeding it exits with a budget error
    --ruleset ID      scan: skip local compilation and ship the input to a
                      running server's registry ruleset ID instead (`POST
                      /scan/stream`); the response carries the version that
                      served it
    --addr HOST:PORT  serve: listen address (default 127.0.0.1:8787; port 0
                      binds an ephemeral port, printed as `listening on ADDR`);
                      ruleset / scan --ruleset: the server to contact
                      (default 127.0.0.1:8787, the serve default)
    --ruleset-dir PATH
                      serve: persist installed rulesets under PATH and restore
                      them (hash-verified) on the next start, so hot swaps
                      survive restarts
    --tenant-quota N  serve: max in-flight requests per X-Cicero-Tenant;
                      beyond it requests get 429 + Retry-After (0 = no quota,
                      the default)
    --tenant-rate R   serve: sustained admissions/second per tenant via a
                      token bucket (0 = no rate limit, the default)
    --tenant-burst B  serve: token-bucket capacity — how large a burst a
                      freshly idle tenant may send (clamped to >= 1 when
                      --tenant-rate is on)
    --workers N       serve: requests handled at once (default 4); each open
                      connection has its own thread, and reads hold no worker
    --queue-depth N   serve: open connections allowed beyond --workers, idle
                      ones included; beyond workers + N new connections get
                      503 + Retry-After (default 64)
    --drain-timeout-ms N
                      serve: how long shutdown waits for written requests to
                      be answered and connections to close (default 5000)
    --trace-dump PATH serve: on graceful drain, dump the flight recorder's
                      retained request traces to PATH as Chrome trace_event
                      JSON (loadable in Perfetto / chrome://tracing)
    --slow-trace-ms N serve: requests at or above N ms are retained in the
                      recorder's separate slow ring (default 250)
    --trace-capacity N
                      serve: how many recent request traces the flight
                      recorder retains (default 64)
    --export KIND     trace: rendering — `tree` (indented text, default),
                      `json` (span-tree JSON), or `chrome` (trace_event JSON
                      for Perfetto); `-o FILE` writes it to a file
    --request-id ID   trace: the request id stamped on the trace
                      (default cli-trace)
    --workload PACK   tune: a named workload pack (protomata, brill,
                      protomata4, brill4); positional patterns build a custom
                      workload with synthesized inputs instead
    --budget SPEC     tune: `N` caps cost evaluations (deterministic); `Nms`
                      caps wall-clock milliseconds (machine-dependent);
                      default: the size of the space, i.e. an exhaustive sweep
    --out FILE        tune: where the winning config is written
                      (default tune.toml)
    --space KIND      tune: `full` searches pass orders x leading reduction x
                      machine shapes x icache geometries, 288 points, scored
                      by simulated cycles (default); `compiler` restricts to
                      the 12 pass-pipeline points
    --tuned-config FILE
                      run/scan/serve: load a `cicero tune` result and use its
                      compiler and architecture settings as the defaults;
                      explicit flags (--config, -O0) still win, and a file
                      that fails validation aborts the command (serve refuses
                      to start)
    --seed N          difftest: base seed (default 42); the run is reproducible
                      for a fixed (seed, iters, jobs)
    --iters K         difftest: number of generated patterns (default 1000)
    --corpus DIR      difftest: regression corpus directory (default the
                      committed crates/difftest/corpus)
    --stream-splits K difftest: randomized chunk-split vectors per pattern on the
                      streaming axis (default 1), on top of the deterministic
                      all-1-byte and middle splits every case gets
    --save            difftest: write each minimized divergence into the corpus
    --no-replay       difftest: skip the corpus replay before fuzzing
    --pass-timing     print the per-pass timing table (time, %, op-count delta)
    --metrics PATH    export telemetry (run/tune: the command's span trace; then
                      counters, gauges and histograms) to PATH, or to stdout
                      when PATH is `-`
    --metrics-format  `summary` (span tree and metrics table, default) or
                      `jsonl` (one JSON object per line)
";

/// Minimal flag scanner: returns (positional args, flag lookup).
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, Option<String>)>,
}

fn parse_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut pairs: Vec<(String, Option<String>)> = Vec::new();
    // A value-taking flag given twice is rejected, not last-one-wins:
    // `--jobs 2 --jobs 4` is almost always a script bug, and silently
    // dropping one of the values hides it.
    let push_value = |pairs: &mut Vec<(String, Option<String>)>,
                      name: &str,
                      value: String|
     -> Result<(), String> {
        if pairs.iter().any(|(n, v)| n == name && v.is_some()) {
            return Err(format!(
                "--{name} given more than once; value-taking flags accept a single value"
            ));
        }
        pairs.push((name.to_owned(), Some(value)));
        Ok(())
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--" {
            // Everything after the separator is positional, dashes and
            // all — the only way to express patterns like `-a+`.
            positional.extend(iter.cloned());
            break;
        }
        if let Some(name) = arg.strip_prefix("--") {
            if value_flags.contains(&name) {
                let value =
                    iter.next().ok_or_else(|| format!("--{name} requires a value"))?.clone();
                push_value(&mut pairs, name, value)?;
            } else if bool_flags.contains(&name) {
                pairs.push((name.to_owned(), None));
            } else {
                return Err(format!("unknown flag `--{name}`\n\n{USAGE}"));
            }
        } else if arg == "-O0" {
            pairs.push(("O0".to_owned(), None));
        } else if arg == "-o" {
            let value = iter.next().ok_or("-o requires a file name")?.clone();
            // `-o` and `--output` are one flag; doubling up across the
            // two spellings is rejected like any other duplicate.
            push_value(&mut pairs, "output", value)?;
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Flags { positional, pairs })
}

impl Flags {
    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }
}

fn arch_config(spec: Option<&str>) -> Result<ArchConfig, String> {
    spec.unwrap_or("16x1").parse()
}

fn read_input(flags: &Flags) -> Result<Vec<u8>, String> {
    match (flags.value("text"), flags.value("input")) {
        (Some(text), None) => Ok(text.as_bytes().to_vec()),
        (None, Some(path)) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}")),
        _ => Err("provide exactly one of --text STR or --input FILE".to_owned()),
    }
}

/// Load `--tuned-config FILE` if given. Any validation failure (unknown
/// keys, future version, corrupted values) is surfaced as the command's
/// error — a tuned run never silently falls back to defaults.
fn load_tuned(flags: &Flags) -> Result<Option<cicero::tune::TuneFile>, String> {
    match flags.value("tuned-config") {
        Some(path) => cicero::tune::TuneFile::load(path).map(Some).map_err(|e| e.to_string()),
        None => Ok(None),
    }
}

/// Compiler-options precedence: `-O0` (explicit flag) > `--tuned-config`
/// > the built-in optimized default.
fn compiler_base(tuned: Option<&cicero::tune::TuneFile>, o0: bool) -> CompilerOptions {
    if o0 {
        CompilerOptions::unoptimized()
    } else {
        tuned.map_or_else(CompilerOptions::optimized, |t| t.compiler_options())
    }
}

/// Architecture precedence: `--config NxM` > `--tuned-config` > the
/// built-in 16x1 default.
fn resolve_config(
    flags: &Flags,
    tuned: Option<&cicero::tune::TuneFile>,
) -> Result<ArchConfig, String> {
    match (flags.value("config"), tuned) {
        (None, Some(t)) => Ok(t.arch_config()),
        (spec, _) => arch_config(spec),
    }
}

/// Compile with either compiler. The multi-dialect compiler also returns
/// its per-pass report (and records `compiler.*` metrics into `telemetry`
/// when given);
/// the legacy single-IR compiler has no pass pipeline, so it returns
/// `None`. `options` is the multi-dialect baseline (usually
/// [`compiler_base`]); `--old`/`-O0` still take precedence.
fn compile_one(
    pattern: &str,
    old: bool,
    o0: bool,
    options: CompilerOptions,
    telemetry: Option<&Telemetry>,
) -> Result<(Program, Option<cicero::mlir::PipelineReport>), String> {
    if old {
        let program = LegacyCompiler::new(!o0).compile(pattern).map_err(|e| e.to_string())?;
        Ok((program, None))
    } else {
        let options = if o0 { CompilerOptions::unoptimized() } else { options };
        let mut compiler = Compiler::with_options(options);
        if let Some(telemetry) = telemetry {
            compiler = compiler.with_telemetry(telemetry.clone());
        }
        let compiled = compiler.compile(pattern).map_err(|e| e.to_string())?;
        let report = compiled.pass_report().clone();
        Ok((compiled.into_program(), Some(report)))
    }
}

fn pass_timing_text(report: Option<&cicero::mlir::PipelineReport>) -> String {
    match report {
        Some(report) => format!("per-pass timing:\n{report}"),
        None => "per-pass timing: n/a (the legacy compiler has no pass pipeline)".to_owned(),
    }
}

/// Export the command's trace (if it keeps one) and its metrics per
/// `--metrics` / `--metrics-format`: the span tree then the metrics table,
/// or one `trace` JSON-lines record then the metric records.
fn write_metrics(
    flags: &Flags,
    telemetry: &Telemetry,
    trace: Option<&RequestTrace>,
) -> Result<(), String> {
    let Some(path) = flags.value("metrics") else {
        if flags.value("metrics-format").is_some() {
            return Err("--metrics-format requires --metrics PATH".to_owned());
        }
        return Ok(());
    };
    let text = match flags.value("metrics-format").unwrap_or("summary") {
        "jsonl" => {
            trace.map(|t| t.render_jsonl_record() + "\n").unwrap_or_default()
                + &telemetry.render_jsonl()
        }
        "summary" => {
            trace.map(RequestTrace::render_tree).unwrap_or_default() + &telemetry.render_summary()
        }
        other => return Err(format!("unknown metrics format `{other}` (use summary or jsonl)")),
    };
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
    }
}

/// Sink for `--emit` output: stdout or `-o FILE`.
type OutputSink = Box<dyn FnOnce(&[u8]) -> Result<(), String>>;

fn cmd_compile(args: &[String]) -> Result<(), String> {
    // `output` and `O0` are read below via their long names, so they must
    // be registered here too (`-o`/`-O0` are shorthands handled inside
    // `parse_flags`); leaving them out rejected `--O0`/`--output FILE`
    // as unknown flags.
    let flags = parse_flags(args, &["emit", "output"], &["old", "pass-timing", "O0"])?;
    let [pattern] = flags.positional.as_slice() else {
        return Err("compile takes exactly one pattern".to_owned());
    };
    let emit = flags.value("emit").unwrap_or("asm");
    let old = flags.has("old");
    let o0 = flags.has("O0");
    let output: OutputSink = match flags.value("output") {
        Some(path) => {
            let path = path.to_owned();
            Box::new(move |bytes: &[u8]| {
                std::fs::write(&path, bytes).map_err(|e| format!("writing {path}: {e}"))
            })
        }
        None => {
            Box::new(|bytes: &[u8]| std::io::stdout().write_all(bytes).map_err(|e| e.to_string()))
        }
    };
    match emit {
        "asm" | "bin" => {
            let (program, pass_report) =
                compile_one(pattern, old, o0, CompilerOptions::optimized(), None)?;
            if emit == "asm" {
                output(program.to_asm().as_bytes())?;
            } else {
                output(&cicero::isa::EncodedProgram::from_program(&program).to_bytes())?;
            }
            if flags.has("pass-timing") {
                // To stderr: stdout may be carrying the emitted program.
                eprintln!("{}", pass_timing_text(pass_report.as_ref()));
            }
            Ok(())
        }
        "regex-ir" | "cicero-ir" => {
            if old {
                return Err("the legacy compiler has a single IR; use --emit asm".to_owned());
            }
            let options =
                if o0 { CompilerOptions::unoptimized() } else { CompilerOptions::optimized() };
            let artifacts = Compiler::with_options(options)
                .compile_with_artifacts(pattern)
                .map_err(|e| e.to_string())?;
            let text = if emit == "regex-ir" {
                artifacts.regex_ir_optimized.to_text()
            } else {
                artifacts.cicero_ir_optimized.to_text()
            };
            output(text.as_bytes())?;
            if flags.has("pass-timing") {
                eprintln!("{}", pass_timing_text(Some(artifacts.compiled.pass_report())));
            }
            Ok(())
        }
        other => Err(format!("unknown emit kind `{other}`")),
    }
}

/// Parse a `--jobs` value: a positive worker count, or `auto` for all
/// host cores (mapped to the runtime's `0` sentinel). A literal `0` is
/// rejected: it historically meant "all cores", which reads as "no
/// workers", so the spelling is now explicit.
fn parse_jobs(value: &str) -> Result<usize, String> {
    match value {
        "auto" => Ok(0),
        "0" => Err("--jobs 0 is ambiguous; use `--jobs auto` for all host cores".to_owned()),
        _ => value.parse::<usize>().map_err(|_| format!("--jobs `{value}` is not a number")),
    }
}

/// Parse a `--backend` value for `run`/`scan`, defaulting to the
/// simulator: those commands report the paper's cycle counts, so the
/// host engine is opt-in there (the server defaults the other way).
fn parse_backend(flags: &Flags) -> Result<Backend, String> {
    match flags.value("backend") {
        None => Ok(Backend::Sim),
        Some(value) => value.parse(),
    }
}

/// Split an input into the paper's §6 batch granularity (500-byte
/// chunks); an empty input still yields one (empty) chunk so the batch
/// path reports something.
fn chunk_input(input: &[u8]) -> Vec<Vec<u8>> {
    if input.is_empty() {
        return vec![Vec::new()];
    }
    input.chunks(workloads::CHUNK_BYTES).map(<[u8]>::to_vec).collect()
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    // `O0` must be registered even though `-O0` is a shorthand, so the
    // long `--O0` spelling works too (same fix as `cmd_compile`).
    let flags = parse_flags(
        args,
        &[
            "text",
            "input",
            "config",
            "metrics",
            "metrics-format",
            "jobs",
            "backend",
            "tuned-config",
        ],
        &["old", "pass-timing", "O0"],
    )?;
    let [pattern] = flags.positional.as_slice() else {
        return Err("run takes exactly one pattern".to_owned());
    };
    // The implicit-run shorthand allows omitting the input entirely.
    let input = match (flags.value("text"), flags.value("input")) {
        (None, None) => Vec::new(),
        _ => read_input(&flags)?,
    };
    let tuned = load_tuned(&flags)?;
    let config = resolve_config(&flags, tuned.as_ref())?;
    let backend = parse_backend(&flags)?;
    if let Some(jobs) = flags.value("jobs") {
        return run_batch_mode(
            pattern,
            &input,
            &config,
            parse_jobs(jobs)?,
            backend,
            tuned.as_ref(),
            &flags,
        );
    }
    // One local trace: `run` → {`compile` → `pass:*`, `execute`}.
    let telemetry = Telemetry::new();
    let ctx = TraceContext::new("cli-run");
    let pass_report = {
        let root = ctx.root_span("run");
        let compile = root.child("compile");
        let base = compiler_base(tuned.as_ref(), flags.has("O0"));
        let (program, pass_report) =
            compile_one(pattern, flags.has("old"), flags.has("O0"), base, Some(&telemetry))?;
        if let Some(report) = &pass_report {
            record_pass_spans(&compile, report);
        }
        drop(compile);
        let execute = root.child("execute");
        execute.annotate("input_len", input.len());
        match backend {
            Backend::Sim => run_sim_mode(pattern, &program, &input, &config, &telemetry, &execute),
            Backend::Host => run_host_mode(pattern, &program, &input, &execute),
        }
        pass_report
    };
    if flags.has("pass-timing") {
        println!();
        println!("{}", pass_timing_text(pass_report.as_ref()));
    }
    write_metrics(&flags, &telemetry, Some(&ctx.finish()))
}

/// `run` on the simulator: the paper's cycle-level report.
fn run_sim_mode(
    pattern: &str,
    program: &Program,
    input: &[u8],
    config: &ArchConfig,
    telemetry: &Telemetry,
    execute: &TraceSpan,
) {
    let report = simulate_with_telemetry(program, input, config, telemetry);
    execute.annotate("config", config.name());
    execute.annotate("cycles", report.cycles);
    execute.annotate("accepted", report.accepted);
    println!("pattern    : {pattern}");
    println!("config     : {} @ {} MHz", config.name(), config.clock_mhz());
    println!("verdict    : {}", if report.accepted { "MATCH" } else { "no match" });
    if let Some(position) = report.match_position {
        println!("match ends : {position}");
    }
    println!("cycles     : {}", report.cycles);
    println!("time       : {:.3} us", report.time_us(config.clock_mhz()));
    println!(
        "energy     : {:.3} W·µs",
        report.energy_wus(config.clock_mhz(), cicero::sim::power_watts(config))
    );
    println!("instructions: {}", report.instructions);
    println!("icache      : {:.1}% hits", report.icache_hit_rate() * 100.0);
}

/// `run --backend host` (sequential): one pass over the whole input on
/// the host-native engine — same verdict and match position as the
/// simulator, but no cycle model, so the summary reports wall-clock
/// throughput and which engine tier the lowering picked.
fn run_host_mode(pattern: &str, program: &Program, input: &[u8], execute: &TraceSpan) {
    let host = HostProgram::compile(program);
    let start = std::time::Instant::now();
    let outcome = host.run(input);
    let wall = start.elapsed();
    execute.annotate("engine", host.engine_kind().to_string());
    execute.annotate("accepted", outcome.accepted);
    println!("pattern    : {pattern}");
    println!(
        "backend    : host ({}, {} state(s), {} byte class(es))",
        host.engine_kind(),
        host.state_count(),
        host.byte_class_count()
    );
    println!("verdict    : {}", if outcome.accepted { "MATCH" } else { "no match" });
    if let Some(position) = outcome.match_position {
        println!("match ends : {position}");
    }
    println!("bytes      : {}", input.len());
    println!(
        "host wall  : {:.3} ms ({:.1} MB/s)",
        wall.as_secs_f64() * 1e3,
        input.len() as f64 / wall.as_secs_f64().max(1e-9) / 1e6
    );
}

/// `run --jobs N`: chunk the input and match it on the runtime's worker
/// pool — the simulator, or the host engine under `--backend host`.
fn run_batch_mode(
    pattern: &str,
    input: &[u8],
    config: &ArchConfig,
    jobs: usize,
    backend: Backend,
    tuned: Option<&cicero::tune::TuneFile>,
    flags: &Flags,
) -> Result<(), String> {
    let telemetry = Telemetry::new();
    let chunks = chunk_input(input);
    let o0 = flags.has("O0");
    let runtime = Runtime::new(RuntimeOptions {
        jobs,
        compiler: compiler_base(tuned, o0),
        ..RuntimeOptions::default()
    })
    .with_telemetry(telemetry.clone())
    .with_backend(backend);
    let batch = if flags.has("old") {
        // The legacy compiler is outside the runtime's cache; compile once
        // here and hand the program straight to the pool.
        let program = LegacyCompiler::new(!o0).compile(pattern).map_err(|e| e.to_string())?;
        runtime.run_batch_guarded(&program, &chunks, config, &Budget::UNLIMITED)
    } else {
        runtime
            .match_batch_guarded(pattern, &chunks, config, &Budget::UNLIMITED)
            .map_err(|e| e.to_string())?
    };
    let mut aggregate = cicero::sim::ExecReport::default();
    for report in batch.outcomes.iter().filter_map(MatchOutcome::report) {
        aggregate.accumulate(report);
    }
    let bytes_per_sec = input.len() as f64 / batch.wall.as_secs_f64().max(1e-9);
    println!("pattern    : {pattern}");
    match backend {
        Backend::Sim => println!("config     : {} @ {} MHz", config.name(), config.clock_mhz()),
        Backend::Host => println!("backend    : host"),
    }
    println!(
        "batch      : {} chunk(s) of <= {} B on {} worker(s)",
        chunks.len(),
        workloads::CHUNK_BYTES,
        batch.jobs
    );
    match batch.matches() {
        0 => println!("verdict    : no match"),
        n => println!("verdict    : MATCH in {n}/{} chunk(s)", chunks.len()),
    }
    let wall_ms = batch.wall.as_secs_f64() * 1e3;
    match backend {
        Backend::Sim => {
            println!("cycles     : {}", aggregate.cycles);
            println!("time       : {:.3} us", aggregate.time_us(config.clock_mhz()));
            println!("instructions: {}", aggregate.instructions);
            println!("icache      : {:.1}% hits", aggregate.icache_hit_rate() * 100.0);
            println!("host wall  : {wall_ms:.3} ms ({:.1} KB/s)", bytes_per_sec / 1e3);
        }
        // The host engine has no cycle model: bytes and wall-clock only.
        Backend::Host => {
            println!("bytes      : {}", input.len());
            println!("host wall  : {wall_ms:.3} ms ({:.1} MB/s)", bytes_per_sec / 1e6);
        }
    }
    if flags.has("pass-timing") {
        println!();
        println!("per-pass timing: n/a in --jobs batch mode (use a sequential run)");
    }
    write_metrics(flags, &telemetry, None)
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "text",
            "input",
            "config",
            "jobs",
            "chunk-size",
            "fuel",
            "deadline-ms",
            "backend",
            "ruleset",
            "addr",
            "tuned-config",
        ],
        &["stream"],
    )?;
    if let Some(id) = flags.value("ruleset") {
        if flags.value("tuned-config").is_some() {
            return Err(
                "--tuned-config only applies to local scans; `scan --ruleset` matches on the \
                 server with the server's configuration"
                    .to_owned(),
            );
        }
        return scan_ruleset_mode(id, &flags);
    }
    if flags.value("addr").is_some() {
        return Err("--addr only applies to `scan --ruleset`".to_owned());
    }
    if flags.positional.is_empty() {
        return Err("scan takes one or more patterns".to_owned());
    }
    let tuned = load_tuned(&flags)?;
    let config = resolve_config(&flags, tuned.as_ref())?;
    let backend = parse_backend(&flags)?;
    if flags.has("stream") {
        if flags.value("jobs").is_some() {
            return Err("--stream and --jobs cannot be combined; pick one runtime".to_owned());
        }
        return scan_stream_mode(&flags.positional, &config, backend, tuned.as_ref(), &flags);
    }
    for flag in ["chunk-size", "fuel", "deadline-ms"] {
        if flags.value(flag).is_some() {
            return Err(format!("--{flag} only applies to `scan --stream`"));
        }
    }
    let input = read_input(&flags)?;
    if let Some(jobs) = flags.value("jobs") {
        return scan_batch_mode(
            &flags.positional,
            &input,
            &config,
            parse_jobs(jobs)?,
            backend,
            tuned.as_ref(),
        );
    }
    let base = compiler_base(tuned.as_ref(), false);
    let set =
        Compiler::with_options(base).compile_set(&flags.positional).map_err(|e| e.to_string())?;
    if backend == Backend::Host {
        // One all-matches pass on the host engine: every set member that
        // fires is reported, like the sim path below, minus the cycle
        // count (the host engine has no cycle model).
        let host = HostProgram::compile(set.program());
        let all = host.run_all(&input);
        if all.matched_ids.is_empty() {
            println!("no match in {} bytes", input.len());
        } else {
            for &id in &all.matched_ids {
                println!("MATCH: pattern {} ({:?}) [host]", id, set.pattern(id).unwrap_or("?"));
            }
        }
        return Ok(());
    }
    let report = simulate(set.program(), &input, &config);
    // The cycle-level run halts at the first acceptance (hardware
    // semantics); the all-matches interpreter reports every set member
    // that fired, so overlapping patterns are no longer dropped.
    let all = cicero::isa::run_all(set.program(), &input);
    if all.matched_ids.is_empty() {
        println!("no match in {} cycles", report.cycles);
    } else {
        for &id in &all.matched_ids {
            println!(
                "MATCH: pattern {} ({:?}) in {} cycles",
                id,
                set.pattern(id).unwrap_or("?"),
                report.cycles
            );
        }
    }
    Ok(())
}

/// `scan --jobs N`: match the multi-pattern set chunk-by-chunk on the
/// runtime's worker pool and summarise per-pattern hits — the same
/// accounting as the server's `POST /scan`.
fn scan_batch_mode(
    patterns: &[String],
    input: &[u8],
    config: &ArchConfig,
    jobs: usize,
    backend: Backend,
    tuned: Option<&cicero::tune::TuneFile>,
) -> Result<(), String> {
    let chunks = chunk_input(input);
    let runtime = Runtime::new(RuntimeOptions {
        jobs,
        compiler: compiler_base(tuned, false),
        ..RuntimeOptions::default()
    })
    .with_backend(backend);
    let program = runtime.compile_set(patterns).map_err(|e| e.to_string())?;
    let batch = runtime.run_batch_guarded(&program, &chunks, config, &Budget::UNLIMITED);
    let summary = match backend {
        Backend::Sim => {
            let cycles: u64 =
                batch.outcomes.iter().filter_map(MatchOutcome::report).map(|r| r.cycles).sum();
            format!(", {cycles} cycles total")
        }
        Backend::Host => {
            format!(" [host backend, {:.3} ms]", batch.wall.as_secs_f64() * 1e3)
        }
    };
    println!(
        "{} chunk(s) of <= {} B on {} worker(s){summary}",
        chunks.len(),
        workloads::CHUNK_BYTES,
        batch.jobs,
    );
    let per_pattern = runtime.count_per_pattern(&program, &chunks, &batch.outcomes, patterns.len());
    if batch.matches() == 0 {
        println!("no match");
    } else {
        for (id, count) in per_pattern.iter().enumerate() {
            if *count > 0 {
                println!("MATCH: pattern {} ({:?}) in {} chunk(s)", id, patterns[id], count);
            }
        }
    }
    Ok(())
}

/// `scan --stream`: feed the input through the bounded-memory streaming
/// runtime, with optional fuel / deadline budgets. `--backend host`
/// drives the same session on the host engine (fuel becomes a byte
/// budget there).
fn scan_stream_mode(
    patterns: &[String],
    config: &ArchConfig,
    backend: Backend,
    tuned: Option<&cicero::tune::TuneFile>,
    flags: &Flags,
) -> Result<(), String> {
    use cicero::runtime::{BudgetKind, MatchOutcome, StreamOptions};

    let mut options = StreamOptions::default();
    if let Some(value) = flags.value("chunk-size") {
        let chunk: usize =
            value.parse().map_err(|_| format!("--chunk-size `{value}` is not a number"))?;
        if chunk == 0 {
            return Err("--chunk-size 0 is invalid; chunks must be at least 1 byte".to_owned());
        }
        options.chunk_size = chunk;
    }
    if let Some(value) = flags.value("fuel") {
        let fuel: u64 = value.parse().map_err(|_| format!("--fuel `{value}` is not a number"))?;
        options.budget.fuel = Some(fuel);
    }
    if let Some(value) = flags.value("deadline-ms") {
        let ms: u64 =
            value.parse().map_err(|_| format!("--deadline-ms `{value}` is not a number"))?;
        options.budget.deadline = Some(std::time::Duration::from_millis(ms));
    }

    // The set keeps the id -> pattern mapping for the verdict line; the
    // runtime only needs the compiled program.
    let base = compiler_base(tuned, false);
    let set = Compiler::with_options(base).compile_set(patterns).map_err(|e| e.to_string())?;
    let source: Box<dyn std::io::Read + Send> = match (flags.value("text"), flags.value("input")) {
        (Some(text), None) => Box::new(std::io::Cursor::new(text.as_bytes().to_vec())),
        (None, Some(path)) => {
            let path = path.to_owned();
            Box::new(std::fs::File::open(&path).map_err(|e| format!("opening {path}: {e}"))?)
        }
        _ => return Err("provide exactly one of --text STR or --input FILE".to_owned()),
    };
    let runtime = Runtime::new(RuntimeOptions {
        compiler: base.with_backend(backend),
        ..RuntimeOptions::default()
    });
    let report =
        runtime.scan_stream(set.program(), source, config, &options).map_err(|e| e.to_string())?;
    // The host engine has no cycle model: its reports count bytes
    // examined where the simulator counts cycles.
    let unit = match backend {
        Backend::Sim => "cycles",
        Backend::Host => "bytes",
    };

    println!("config     : {} @ {} MHz", config.name(), config.clock_mhz());
    println!(
        "stream     : {} chunk(s) of <= {} B, {} suspend(s), peak buffer {} B",
        report.chunks, options.chunk_size, report.suspends, report.peak_buffered
    );
    println!("bytes      : {}", report.bytes);
    println!("host wall  : {:.3} ms", report.wall.as_secs_f64() * 1e3);
    match &report.outcome {
        MatchOutcome::Complete(exec) => {
            match exec.matched_id {
                Some(id) => println!(
                    "verdict    : MATCH: pattern {} ({:?}) in {} {unit}",
                    id,
                    set.pattern(id).unwrap_or("?"),
                    exec.cycles
                ),
                None => println!("verdict    : no match in {} {unit}", exec.cycles),
            }
            Ok(())
        }
        MatchOutcome::Budget { kind, partial } => {
            let kind = match kind {
                BudgetKind::Fuel => "fuel",
                BudgetKind::Deadline => "deadline",
            };
            if let Some(partial) = partial {
                println!("partial    : {} {unit} before the cut-off", partial.cycles);
            }
            Err(format!("{kind} budget exceeded before the stream concluded"))
        }
        MatchOutcome::Fault(message) => Err(format!("worker fault: {message}")),
    }
}

/// The address `cicero serve` binds by default — and therefore the one
/// the `ruleset` / `scan --ruleset` client commands contact by default.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:8787";

/// One HTTP/1.1 request over a fresh connection; returns
/// (status, raw response head, body).
fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> Result<(u16, String, String), String> {
    use std::io::Read as _;

    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("connecting to {addr}: {e} (is `cicero serve` running there?)"))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).map_err(|e| e.to_string())?;
    let mut request = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("content-length: {}\r\nconnection: close\r\n\r\n", body.len()));
    let mut bytes = request.into_bytes();
    bytes.extend_from_slice(body);
    stream.write_all(&bytes).map_err(|e| format!("sending the request: {e}"))?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|e| format!("reading the response: {e}"))?;
    let text = String::from_utf8_lossy(&response).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}: {text:?}"))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    Ok((status, head.to_owned(), body.to_owned()))
}

/// Case-insensitive header lookup in a raw response head.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_owned())
    })
}

/// `scan --ruleset ID`: ship the input to a running `cicero serve` and
/// match it against the named registry ruleset (`POST /scan/stream`), so
/// the CLI sees exactly the version the server is serving. `--backend`,
/// `--chunk-size`, `--fuel`, `--deadline-ms`, and `--config` map onto
/// the corresponding `X-Cicero-*` request headers.
fn scan_ruleset_mode(id: &str, flags: &Flags) -> Result<(), String> {
    if !flags.positional.is_empty() {
        return Err("scan --ruleset takes its patterns from the server's registry; \
             drop the positional patterns (or use `cicero ruleset put` to change them)"
            .to_owned());
    }
    if flags.value("jobs").is_some() || flags.has("stream") {
        return Err("--jobs/--stream do not apply to scan --ruleset; the server owns the runtime"
            .to_owned());
    }
    let input = read_input(flags)?;
    let addr = flags.value("addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let mut headers: Vec<(&str, String)> = Vec::new();
    for (flag, header) in [
        ("backend", "x-cicero-backend"),
        ("chunk-size", "x-cicero-chunk-size"),
        ("fuel", "x-cicero-fuel"),
        ("deadline-ms", "x-cicero-deadline-ms"),
        ("config", "x-cicero-config"),
    ] {
        if let Some(value) = flags.value(flag) {
            headers.push((header, value.to_owned()));
        }
    }
    let (status, head, body) =
        http_request(addr, "POST", &format!("/scan/stream?ruleset={id}"), &headers, &input)?;
    if status != 200 {
        return Err(format!("scan against ruleset {id:?} failed ({status}): {body}"));
    }
    let version = header_value(&head, "x-cicero-ruleset-version").unwrap_or_default();
    println!("ruleset    : {id} @ {version}");
    println!("{body}");
    Ok(())
}

/// `cicero ruleset put|get|rm|list`: manage the live registry of a
/// running `cicero serve` over HTTP. A `put` over an existing id is an
/// atomic hot swap: in-flight requests drain on the old version while
/// new requests pin the new one.
fn cmd_ruleset(args: &[String]) -> Result<(), String> {
    use cicero::telemetry::escape_json;

    let flags = parse_flags(args, &["addr"], &[])?;
    let addr = flags.value("addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let Some(verb) = flags.positional.first().map(String::as_str) else {
        return Err(format!("ruleset takes a subcommand: put|get|rm|list\n\n{USAGE}"));
    };
    match verb {
        "put" => {
            let id =
                flags.positional.get(1).ok_or("ruleset put takes <id> and one or more patterns")?;
            let patterns = &flags.positional[2..];
            if patterns.is_empty() {
                return Err("ruleset put takes at least one pattern".to_owned());
            }
            let members: Vec<String> =
                patterns.iter().map(|p| format!("\"{}\"", escape_json(p))).collect();
            let body = format!("{{\"patterns\":[{}]}}", members.join(","));
            let (status, head, response) =
                http_request(addr, "PUT", &format!("/rulesets/{id}"), &[], body.as_bytes())?;
            if status != 200 && status != 201 {
                return Err(format!("PUT /rulesets/{id} failed ({status}): {response}"));
            }
            let version = header_value(&head, "x-cicero-ruleset-version").unwrap_or_default();
            println!(
                "{} {id} @ {version} ({} pattern(s))",
                if status == 201 { "installed" } else { "swapped" },
                patterns.len()
            );
            Ok(())
        }
        "get" => {
            let id = flags.positional.get(1).ok_or("ruleset get takes <id>")?;
            let (status, _, response) =
                http_request(addr, "GET", &format!("/rulesets/{id}"), &[], b"")?;
            if status != 200 {
                return Err(format!("GET /rulesets/{id} failed ({status}): {response}"));
            }
            println!("{response}");
            Ok(())
        }
        "rm" => {
            let id = flags.positional.get(1).ok_or("ruleset rm takes <id>")?;
            let (status, _, response) =
                http_request(addr, "DELETE", &format!("/rulesets/{id}"), &[], b"")?;
            if status != 200 {
                return Err(format!("DELETE /rulesets/{id} failed ({status}): {response}"));
            }
            println!("deleted {id}");
            Ok(())
        }
        "list" => {
            let (status, _, response) = http_request(addr, "GET", "/rulesets", &[], b"")?;
            if status != 200 {
                return Err(format!("GET /rulesets failed ({status}): {response}"));
            }
            println!("{response}");
            Ok(())
        }
        other => Err(format!("unknown ruleset subcommand `{other}` (put|get|rm|list)")),
    }
}

/// `cicero serve`: run the HTTP match-serving front door until a
/// `POST /shutdown` begins the graceful drain.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use cicero::server::{Server, ServerOptions};

    let flags = parse_flags(
        args,
        &[
            "addr",
            "workers",
            "queue-depth",
            "drain-timeout-ms",
            "config",
            "jobs",
            "backend",
            "metrics",
            "metrics-format",
            "trace-dump",
            "slow-trace-ms",
            "trace-capacity",
            "ruleset-dir",
            "tenant-quota",
            "tenant-rate",
            "tenant-burst",
            "tuned-config",
        ],
        &[],
    )?;
    if !flags.positional.is_empty() {
        return Err("serve takes no positional arguments".to_owned());
    }
    let mut options =
        ServerOptions { config: arch_config(flags.value("config"))?, ..ServerOptions::default() };
    // `--tuned-config` is validated and applied before any explicit flag,
    // so flags below still win — and an invalid file returns here, long
    // before the listener binds: the server refuses to start on a config
    // it cannot trust.
    if let Some(tuned) = load_tuned(&flags)? {
        if flags.value("config").is_none() {
            options.config = tuned.arch_config();
        }
        // tune.toml does not carry a backend; keep the server's default
        // (host) unless `--backend` says otherwise below.
        let backend = options.runtime.compiler.backend;
        options.runtime.compiler = tuned.compiler_options().with_backend(backend);
    }
    if let Some(addr) = flags.value("addr") {
        options.addr = addr.to_owned();
    }
    if let Some(value) = flags.value("workers") {
        options.workers = match value.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("--workers `{value}` is not a positive number")),
        };
    }
    if let Some(value) = flags.value("queue-depth") {
        options.queue_depth = match value.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("--queue-depth `{value}` is not a positive number")),
        };
    }
    if let Some(value) = flags.value("drain-timeout-ms") {
        let ms: u64 =
            value.parse().map_err(|_| format!("--drain-timeout-ms `{value}` is not a number"))?;
        options.drain_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(value) = flags.value("jobs") {
        options.runtime.jobs = parse_jobs(value)?;
    }
    // The server default is the host-native engine; `--backend sim`
    // serves on the cycle-level simulator instead. Requests can still
    // override per call with the `X-Cicero-Backend` header.
    if let Some(value) = flags.value("backend") {
        options.runtime.compiler.backend = value.parse()?;
    }
    if let Some(path) = flags.value("trace-dump") {
        options.trace_dump = Some(std::path::PathBuf::from(path));
    }
    if let Some(value) = flags.value("slow-trace-ms") {
        let ms: u64 =
            value.parse().map_err(|_| format!("--slow-trace-ms `{value}` is not a number"))?;
        options.recorder.slow_threshold = std::time::Duration::from_millis(ms);
    }
    if let Some(value) = flags.value("trace-capacity") {
        options.recorder.capacity = value
            .parse::<usize>()
            .map_err(|_| format!("--trace-capacity `{value}` is not a number"))?;
    }
    if let Some(path) = flags.value("ruleset-dir") {
        options.ruleset_dir = Some(std::path::PathBuf::from(path));
    }
    if let Some(value) = flags.value("tenant-quota") {
        options.tenants.max_in_flight =
            value.parse().map_err(|_| format!("--tenant-quota `{value}` is not a number"))?;
    }
    if let Some(value) = flags.value("tenant-rate") {
        options.tenants.rate_per_sec = match value.parse::<f64>() {
            Ok(rate) if rate >= 0.0 && rate.is_finite() => rate,
            _ => return Err(format!("--tenant-rate `{value}` is not a non-negative number")),
        };
    }
    if let Some(value) = flags.value("tenant-burst") {
        options.tenants.burst = match value.parse::<f64>() {
            Ok(burst) if burst >= 0.0 && burst.is_finite() => burst,
            _ => return Err(format!("--tenant-burst `{value}` is not a non-negative number")),
        };
    }

    let telemetry = Telemetry::new();
    let server = Server::bind_with_telemetry(options, telemetry.clone())
        .map_err(|e| format!("binding the listener: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("querying the bound address: {e}"))?;
    // One parseable line so scripts (and the smoke tests) can discover an
    // ephemeral port from `--addr host:0`.
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let report = server.run().map_err(|e| format!("serving: {e}"))?;
    println!("drained    : {}", if report.drained { "yes" } else { "TIMED OUT" });
    println!("requests   : {}", report.requests);
    println!("rejected   : {}", report.rejected);
    println!("drain wall : {:.3} ms", report.wall.as_secs_f64() * 1e3);
    write_metrics(&flags, &telemetry, None)?;
    if report.drained {
        Ok(())
    } else {
        Err("drain timed out with requests still in flight".to_owned())
    }
}

/// `cicero trace`: run one traced set-scan through the parallel runtime
/// and render the resulting span tree — the CLI twin of the server's
/// `GET /debug/traces/{id}` (same span names, same schema).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    use cicero::telemetry::render_chrome_trace;

    let flags = parse_flags(
        args,
        &[
            "text",
            "input",
            "config",
            "jobs",
            "export",
            "output",
            "request-id",
            "fuel",
            "deadline-ms",
        ],
        &[],
    )?;
    if flags.positional.is_empty() {
        return Err("trace takes one or more patterns".to_owned());
    }
    let config = arch_config(flags.value("config"))?;
    let input = read_input(&flags)?;
    let jobs = match flags.value("jobs") {
        Some(value) => parse_jobs(value)?,
        None => 1,
    };
    let mut budget = Budget::default();
    if let Some(value) = flags.value("fuel") {
        budget.fuel = Some(value.parse().map_err(|_| format!("--fuel `{value}` is not a number"))?);
    }
    if let Some(value) = flags.value("deadline-ms") {
        let ms: u64 =
            value.parse().map_err(|_| format!("--deadline-ms `{value}` is not a number"))?;
        budget.deadline = Some(std::time::Duration::from_millis(ms));
    }
    let request_id = flags.value("request-id").unwrap_or("cli-trace");

    let runtime = Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() });
    let chunks = chunk_input(&input);
    let ctx = TraceContext::new(request_id);
    {
        let root = ctx.root_span("request");
        root.annotate("patterns", flags.positional.len());
        root.annotate("input_bytes", input.len());
        root.annotate("config", config.name());
        let runtime = runtime.with_trace(&root);
        let program = runtime.compile_set(&flags.positional).map_err(|e| e.to_string())?;
        let batch = runtime.run_batch_guarded(&program, &chunks, &config, &budget);
        root.annotate("completed", batch.completed());
    }
    let trace = ctx.finish();

    let export = flags.value("export").unwrap_or("tree");
    let rendered = match export {
        "tree" => trace.render_tree(),
        "json" => trace.render_json(false),
        "chrome" => render_chrome_trace(&[&trace]),
        other => return Err(format!("unknown export kind `{other}` (use tree, json, or chrome)")),
    };
    match flags.value("output") {
        Some(path) if path != "-" => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))
        }
        _ => {
            print!("{rendered}");
            if !rendered.ends_with('\n') {
                println!();
            }
            Ok(())
        }
    }
}

/// `cicero tune`: search the compiler × architecture space for the
/// lowest-cost configuration on a workload and persist the winner to a
/// `tune.toml` that `run`/`scan`/`serve` load via `--tuned-config`.
///
/// Without `--budget` the sweep is exhaustive and the result depends on
/// the workload alone; with `--budget N` (an eval count) the same seed,
/// workload, and budget produce a byte-identical `tune.toml`.
fn cmd_tune(args: &[String]) -> Result<(), String> {
    use cicero::tune::{pack, tune, Budget as TuneBudget, SearchSpace, TuneFile};

    let flags = parse_flags(
        args,
        &["workload", "budget", "seed", "out", "space", "metrics", "metrics-format"],
        &[],
    )?;
    let workload = if !flags.positional.is_empty() {
        if flags.value("workload").is_some() {
            return Err("give either --workload PACK or positional patterns, not both".to_owned());
        }
        workloads::Benchmark::from_patterns(&flags.positional)
    } else if let Some(name) = flags.value("workload") {
        pack(name).map_err(|e| e.to_string())?
    } else {
        return Err(
            "tune needs a workload: --workload protomata|brill|protomata4|brill4, or one or \
             more positional patterns"
                .to_owned(),
        );
    };
    let seed: u64 = match flags.value("seed") {
        Some(v) => v.parse().map_err(|_| format!("--seed `{v}` is not a number"))?,
        None => 42,
    };
    let out = flags.value("out").unwrap_or("tune.toml");
    let space = match flags.value("space").unwrap_or("full") {
        "full" => SearchSpace::full(),
        "compiler" => SearchSpace::compiler_only(),
        other => return Err(format!("unknown search space `{other}` (use full or compiler)")),
    };
    // No `--budget` covers the space: 288 points sweep in seconds, and
    // only the exhaustive winner is an optimum.
    let budget = match flags.value("budget") {
        None => TuneBudget::Evals(space.size()),
        Some(spec) => {
            let bad = || format!("--budget `{spec}` is not `N` evals or `Nms`");
            match spec.strip_suffix("ms") {
                Some(ms) => TuneBudget::TimeMs(ms.parse().map_err(|_| bad())?),
                None => TuneBudget::Evals(spec.parse().map_err(|_| bad())?),
            }
        }
    };

    let telemetry = Telemetry::new();
    let ctx = TraceContext::new("cli-tune");
    let outcome = {
        let search = ctx.root_span("tune.search");
        let outcome =
            tune(&workload, &space, budget, seed, Some(&telemetry)).map_err(|e| e.to_string())?;
        search.annotate("strategy", outcome.strategy);
        search.annotate("evals", outcome.evals);
        outcome
    };
    let file = TuneFile::from_outcome(&workload, &outcome, seed);

    println!(
        "workload   : {} ({} pattern(s) x {} chunk(s))",
        file.workload,
        workload.patterns.len(),
        workload.chunks.len()
    );
    println!("space      : {} point(s), strategy {}", space.size(), outcome.strategy);
    println!("evals      : {} ({} memo hit(s))", outcome.evals, outcome.memo_hits);
    for (label, report) in [("default", &outcome.default_report), ("tuned", &outcome.best_report)] {
        let m = &report.measurement;
        println!(
            "{label:<11}: cost {:.3} µs/RE, {:.3} W·µs/RE ({} cycles, D_offset {})",
            report.cost, m.avg_energy_wus, m.cycles, report.d_offset
        );
    }
    let default_cost = outcome.default_report.cost;
    if outcome.best_report.cost < default_cost && default_cost > 0.0 {
        println!(
            "improvement: {:.1}% lower cost than the default",
            (1.0 - outcome.best_report.cost / default_cost) * 100.0
        );
    } else {
        println!("improvement: none — the default configuration is already the winner");
    }
    println!(
        "pass order : {} (leading reduction {})",
        file.config.compiler.pass_order.to_token_string(),
        if file.config.compiler.shortest_match_leading { "on" } else { "off" }
    );
    println!(
        "machine    : {}, icache {} line(s) x {}",
        file.config.arch.name(),
        file.config.arch.cache_lines,
        file.config.arch.cache_line_size
    );
    file.save(out).map_err(|e| e.to_string())?;
    println!("wrote      : {out}");
    write_metrics(&flags, &telemetry, Some(&ctx.finish()))
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &[], &[])?;
    let [pattern] = flags.positional.as_slice() else {
        return Err("explain takes exactly one pattern".to_owned());
    };
    let artifacts = Compiler::new().compile_with_artifacts(pattern).map_err(|e| e.to_string())?;
    println!("== regex dialect (initial) ==\n{}", artifacts.regex_ir_initial.to_text());
    println!("== regex dialect (optimized) ==\n{}", artifacts.regex_ir_optimized.to_text());
    println!("== cicero dialect (lowered) ==\n{}", artifacts.cicero_ir_initial.to_text());
    println!("== cicero dialect (simplified) ==\n{}", artifacts.cicero_ir_optimized.to_text());
    println!("== assembly ==\n{}", artifacts.compiled.program().to_asm());
    println!(
        "code size {} instructions, D_offset {}",
        artifacts.compiled.code_size(),
        artifacts.compiled.d_offset()
    );
    Ok(())
}

/// `cicero difftest`: replay the committed regression corpus, then fuzz —
/// generated patterns and inputs through the full oracle-vs-compiler
/// equivalence matrix, minimizing any divergence found.
fn cmd_difftest(args: &[String]) -> Result<(), String> {
    use cicero::difftest;

    let flags = parse_flags(
        args,
        &["seed", "iters", "jobs", "corpus", "stream-splits", "metrics", "metrics-format"],
        &["save", "no-replay"],
    )?;
    if !flags.positional.is_empty() {
        return Err(format!("difftest takes no positional arguments, got {:?}", flags.positional));
    }
    let seed = match flags.value("seed") {
        Some(v) => v.parse::<u64>().map_err(|_| format!("--seed `{v}` is not a number"))?,
        None => 42,
    };
    let iters = match flags.value("iters") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("--iters `{v}` is not a number"))?,
        None => 1000,
    };
    let jobs = match flags.value("jobs") {
        Some(v) => parse_jobs(v)?,
        None => 1,
    };
    let stream_splits = match flags.value("stream-splits") {
        Some(v) => {
            v.parse::<usize>().map_err(|_| format!("--stream-splits `{v}` is not a number"))?
        }
        None => 1,
    };
    let corpus_dir = match flags.value("corpus") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => difftest::default_corpus_dir(),
    };
    let telemetry = Telemetry::new();

    let mut failures = 0usize;
    if !flags.has("no-replay") {
        let replayed = difftest::replay_corpus(&corpus_dir)?;
        telemetry.counter_add("difftest.corpus_cases", replayed.len() as u64);
        let mut corpus_failures = 0usize;
        for (case, outcome) in &replayed {
            if let difftest::Outcome::Diverged(d) = outcome {
                eprintln!("corpus case `{}` ({:?}) diverges: {d}", case.name, case.pattern);
                corpus_failures += 1;
            }
        }
        println!(
            "corpus     : {} case(s) from {}, {} failing",
            replayed.len(),
            corpus_dir.display(),
            corpus_failures
        );
        failures += corpus_failures;
    }

    let report = difftest::fuzz(&difftest::FuzzOptions {
        seed,
        iters,
        jobs,
        stream_splits,
        telemetry: Some(telemetry.clone()),
    });
    println!("fuzz       : seed {seed}, {} pattern(s), {} case(s)", report.patterns, report.cases);
    println!("skipped    : {} pattern(s) (capacity limits)", report.skipped);
    println!("divergences: {}", report.divergences.len());
    for (i, finding) in report.divergences.iter().enumerate() {
        eprintln!("--- divergence {i} ---");
        eprintln!("found with : {:?}", finding.pattern);
        eprintln!("cell       : {}", finding.divergence);
        eprintln!(
            "minimized  : {:?} on {:?} ({} shrink steps)",
            finding.shrunk.pattern,
            finding
                .shrunk
                .inputs
                .iter()
                .map(|input| String::from_utf8_lossy(input).into_owned())
                .collect::<Vec<_>>(),
            finding.shrunk.steps
        );
        if let Some(splits) = &finding.splits {
            eprintln!("splits     : {splits:?} (streaming-axis divergence)");
        }
        eprintln!("now fails  : {}", finding.shrunk_divergence);
        if flags.has("save") {
            let case = finding.to_corpus_case(&format!("divergence-seed{seed}-{i}"));
            let path = case.save(&corpus_dir).map_err(|e| e.to_string())?;
            eprintln!("saved      : {}", path.display());
        }
    }
    failures += report.divergences.len();
    write_metrics(&flags, &telemetry, None)?;
    if failures > 0 {
        return Err(format!("{failures} divergence(s); the compiler and oracle disagree"));
    }
    Ok(())
}

fn cmd_configs() -> Result<(), String> {
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>8} {:>7} {:>6}",
        "config", "LUT%", "REG%", "BRAM%", "power W", "clock", "fits"
    );
    let mut configs: Vec<ArchConfig> =
        [1usize, 4, 9, 16, 32].iter().map(|m| ArchConfig::old_organization(*m)).collect();
    for (n, ms) in [(8usize, [1usize, 4, 9, 16].as_slice()), (16, &[1, 4, 9]), (32, &[1, 4, 9])] {
        for m in ms {
            configs.push(ArchConfig::new_organization(n, *m));
        }
    }
    for config in configs {
        let usage = cicero::sim::resource_usage(&config);
        println!(
            "{:<16} {:>6.1}% {:>6.1}% {:>6.1}% {:>8.2} {:>4.0}MHz {:>6}",
            config.name(),
            usage.lut_fraction * 100.0,
            usage.reg_fraction * 100.0,
            usage.bram_fraction * 100.0,
            cicero::sim::power_watts(&config),
            config.clock_mhz(),
            if usage.fits() { "yes" } else { "NO" },
        );
    }
    Ok(())
}
