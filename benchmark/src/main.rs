//! The repo benchmark. See `benchmark/README.md`.
//!
//! `--workload NAME` runs one workload in this process and prints its
//! metrics, then one JSON result line. Without it, every workload runs in
//! turn, each in a fresh process. `--trace` switches from the end-to-end
//! metrics to the per-layer ledger. `--compare A B` holds two output
//! directories of the same tree against the bounds.

mod inputs;
mod json;
mod layers;
mod ledger;
mod load;
mod metrics;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use run::Outcome;

const USAGE: &str = "usage: cicero-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--trace [0|1]] [--quick] [--out DIR] | --compare DIR_A DIR_B";

/// Measured seconds of a full run (five 5 s rounds), and of `--quick`.
const FULL_SECONDS: u64 = 25;
const QUICK_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                args.seed =
                    value(&mut it, arg)?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds =
                    value(&mut it, arg)?.parse().map_err(|_| "--seconds takes a whole number")?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value(&mut it, arg)?),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value(&mut it, arg)?),
                    PathBuf::from(value(&mut it, arg)?),
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        args.seconds = if args.quick { QUICK_SECONDS } else { FULL_SECONDS };
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// Where, on what and with which settings the numbers were taken. The
/// same on every output of the benchmark.
fn envelope(args: &Args, spec: inputs::Spec, input_hash: u64) -> Value {
    let unknown = || "unknown".to_owned();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Value::obj([
        ("workload", Value::from(spec.name)),
        ("mode", Value::from(if args.trace { "trace" } else { "end-to-end" })),
        ("smoke_only", Value::from(args.quick)),
        (
            "git_rev",
            Value::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(cpu_model().unwrap_or_else(unknown))),
        ("rustc", Value::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown))),
        ("seed", Value::from(args.seed)),
        ("suite_seed", Value::from(inputs::SUITE_SEED)),
        ("input_hash", Value::from(format!("{input_hash:016x}"))),
        ("warmup_requests_per_client", Value::from(spec.warmup)),
        ("rounds", Value::from(run::ROUNDS)),
        ("round_s", Value::from(args.seconds as f64 / run::ROUNDS as f64)),
        ("setup_reps_min", Value::from(run::SETUP_REPS_MIN)),
        ("clients", Value::from(load::CLIENTS)),
        ("server_workers", Value::from(layers::SERVER_WORKERS)),
        (
            "backend",
            Value::from(if spec.sim { "sim".to_owned() } else { layers::default_backend() }),
        ),
    ])
}

/// `(name, unit)` of the metrics of a mode, in table order.
fn units(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn result_file(out: &Path, trace: bool, workload: &str) -> PathBuf {
    out.join(format!("{}-{workload}.json", if trace { "layers" } else { "result" }))
}

/// Run one workload in this process; print the summary and the result
/// line, write the result file.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let spec = inputs::spec(name).ok_or_else(|| {
        format!("unknown workload {name:?} (one of {})", inputs::SPECS.map(|s| s.name).join(", "))
    })?;
    let Outcome { metrics, tally, violations, detail, notes, input_hash } = if args.trace {
        ledger::traced(spec, args.seed, &args.out)?
    } else {
        run::end_to_end(spec, args.seed, args.seconds)?
    };

    // Every metric of the mode, by name, exactly once, in table order.
    let units = units(args.trace);
    assert_eq!(
        metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
        units.iter().map(|u| u.0).collect::<Vec<_>>(),
        "the run reports the metric table"
    );
    let correct = tally.failed == 0 && violations.is_empty();
    let metrics_json =
        Value::obj(metrics.iter().zip(&units).map(|(&(name, value), &(_, unit))| {
            (name, Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))]))
        }));
    let envelope = envelope(args, spec, input_hash);

    println!(
        "== {} ({}) ==",
        spec.name,
        if args.trace { "per-layer, traced" } else { "end-to-end" }
    );
    println!("why: {}", spec.why);
    println!("envelope: {}", envelope.render());
    for (&(name, value), &(_, unit)) in metrics.iter().zip(&units) {
        println!("  {name:<52} {value:>16.4} {unit}");
    }
    for note in &notes {
        println!("  {note}");
    }
    for problem in tally.errors.iter().chain(&violations) {
        println!("  FAILED: {problem}");
    }

    let result = Value::obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(tally.attempted)),
        ("failed", Value::from(tally.failed)),
        ("metrics", metrics_json),
    ]);
    let mut file = vec![("envelope".to_owned(), envelope)];
    if let Value::Obj(members) = &result {
        file.extend(members.iter().cloned());
    }
    file.push((
        "failed_share".to_owned(),
        Value::from(tally.failed as f64 / tally.attempted.max(1) as f64),
    ));
    file.push((
        "violations".to_owned(),
        Value::Arr(violations.into_iter().map(Value::from).collect()),
    ));
    file.push(("detail".to_owned(), detail));
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let path = result_file(&args.out, args.trace, spec.name);
    std::fs::write(&path, Value::Obj(file).render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!("{}", result.render());
    Ok(correct)
}

/// Run every workload, each in a fresh process, with this process's
/// settings.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let mut all_correct = true;
    for spec in inputs::SPECS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            child.arg("--quick");
        }
        let status = child.status().map_err(|e| format!("starting the {} run: {e}", spec.name))?;
        if !status.success() {
            eprintln!("{}: run failed ({status})", spec.name);
            all_correct = false;
        }
        println!();
    }
    println!(
        "{}: {} workloads, results in {}",
        if all_correct { "ok" } else { "FAILED" },
        inputs::SPECS.len(),
        args.out.display()
    );
    Ok(all_correct)
}

/// Hold two output directories of the same tree and seed against the
/// bounds: every end-to-end metric within its bound, every count equal,
/// nothing failed. Files one of the directories lacks are skipped.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |dir: &Path, trace: bool, workload: &str| -> Result<Option<Value>, String> {
        let path = result_file(dir, trace, workload);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                layers::parse_json(&text).map(Some).map_err(|e| format!("{}: {e}", path.display()))
            }
            Err(_) => Ok(None),
        }
    };
    let metric = |doc: &Value, name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    };
    let mut ok = true;
    let mut compared = 0;
    println!(
        "{:<15} {:<50} {:>6} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "better", "first", "second", "diff", "bound"
    );
    for spec in inputs::SPECS {
        for trace in [false, true] {
            let (Some(first), Some(second)) =
                (load(a, trace, spec.name)?, load(b, trace, spec.name)?)
            else {
                continue;
            };
            for doc in [&first, &second] {
                if doc.get("correct").and_then(Value::as_bool) != Some(true) {
                    println!("{:<15} a run was not correct", spec.name);
                    ok = false;
                }
            }
            if first.get("envelope").and_then(|e| e.get("input_hash"))
                != second.get("envelope").and_then(|e| e.get("input_hash"))
            {
                println!("{:<15} the two runs did not send the same input", spec.name);
                ok = false;
            }
            // (name, better, bound as a share, must be equal)
            let rows: Vec<(&str, &str, Option<f64>, bool)> = if trace {
                PER_LAYER.iter().filter(|m| m.exact).map(|m| (m.name, "", None, true)).collect()
            } else {
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.better.as_str(), Some(m.bound), m.exact))
                    .collect()
            };
            for (name, better, bound, exact) in rows {
                let (Some(x), Some(y)) = (metric(&first, name), metric(&second, name)) else {
                    println!("{:<15} {name:<50} missing", spec.name);
                    ok = false;
                    continue;
                };
                compared += 1;
                let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
                let verdict = if exact && x != y {
                    "NOT EQUAL"
                } else if bound.is_some_and(|b| diff > b) {
                    "OVER"
                } else {
                    ""
                };
                ok &= verdict.is_empty();
                let bound =
                    bound.map_or_else(|| "equal".to_owned(), |b| format!("{:.0}%", b * 100.0));
                println!(
                    "{:<15} {name:<50} {better:>6} {x:>14.4} {y:>14.4} {:>8.2}% {bound:>7} {verdict}",
                    spec.name,
                    diff * 100.0
                );
            }
        }
    }
    if compared == 0 {
        return Err(format!("no result files to compare in {} and {}", a.display(), b.display()));
    }
    println!(
        "{}",
        if ok {
            "ok: the two sets agree within the bounds"
        } else {
            "FAILED: the two sets disagree"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare(a, b),
        (None, Some(name)) => run_workload(&args, name),
        (None, None) => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload bulk-scan --seed 9 --seconds 25 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("bulk-scan"), 9, 25, false)
        );
        let a = args("--workload dsa-sim --seed 9 --seconds 25 --trace 1").unwrap();
        assert!(a.trace);
    }

    #[test]
    fn bare_trace_and_quick_and_defaults() {
        let a = args("--trace --seed 3").unwrap();
        assert!(a.trace && a.seed == 3 && a.workload.is_none() && a.seconds == FULL_SECONDS);
        let a = args("--quick").unwrap();
        assert!(a.quick && a.seconds == QUICK_SECONDS);
        assert!(args("--seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
