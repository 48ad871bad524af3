//! The end-to-end run of one workload: set up, warm up, five measured
//! rounds of closed-loop traffic over loopback, the simulator pass, drain.
//! The benchmark's spans are off here; `ledger.rs` is the traced run.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::inputs::{self, Inputs, Spec};
use crate::json::Value;
use crate::layers::{self, Front};
use crate::load::{self, Tally, CLIENTS};
use crate::stats;

/// The measured window is cut into this many rounds; throughput is the
/// median of their rates.
pub const ROUNDS: usize = 5;
/// Set-up is done at least this many times per run, and then until this
/// much time has gone into set-ups (a cheap set-up is a noisy one), and
/// `setup_s` is the median, so one slow start does not read as a regression.
pub const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// What came out of a run, in either mode.
pub struct Outcome {
    /// `(name, value)` for every metric of the mode, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Checks that are not about one request (the drain report, a count
    /// that must repeat): any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Mode-specific detail for the result file.
    pub detail: Value,
    /// Lines for the printed summary, after the metric list.
    pub notes: Vec<String>,
    pub input_hash: u64,
}

/// A server with the workload's ruleset installed and its host lowering
/// done, and how many requests that took.
pub struct Ready {
    pub front: Front,
    pub sent: u64,
}

/// Bind a server and bring it to the point where it can take measured
/// traffic: install the ruleset (compile), then one scan (which lowers
/// the program for the host engine — lowering is lazy).
pub fn bring_up(inputs: &Inputs, tally: &mut Tally) -> Result<Ready, String> {
    let front = layers::serve().map_err(|e| format!("binding the server: {e}"))?;
    let mut sent = 0;
    if let Some(install) = &inputs.install {
        load::control(front.addr, install, &[200, 201], tally);
        sent += 1;
    }
    load::one_pass(front.addr, inputs.hot.iter().take(1), inputs.spec.sim, tally);
    Ok(Ready { front, sent: sent + 1 })
}

/// `POST /shutdown`, wait for the drain, and hold the report to account:
/// drained, nothing rejected, and every request sent (plus the shutdown
/// itself) served.
pub fn bring_down(
    ready: Ready,
    tally: &mut Tally,
    violations: &mut Vec<String>,
) -> Option<layers::Drain> {
    load::control(ready.front.addr, &load::shutdown_request(), &[200], tally);
    match ready.front.join() {
        Ok(drain) => {
            if !drain.drained {
                violations.push("the server did not drain before its timeout".to_owned());
            }
            if drain.rejected != 0 {
                violations.push(format!("the server rejected {} connections", drain.rejected));
            }
            if drain.requests != ready.sent + 1 {
                violations.push(format!(
                    "the server served {} requests, the benchmark sent {} and the shutdown",
                    drain.requests, ready.sent
                ));
            }
            Some(drain)
        }
        Err(e) => {
            violations.push(e);
            None
        }
    }
}

/// `VmHWM` of this process, in MB (2^20 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Warm-up and measured window: what each client saw, and the process's
/// memory high-water mark in MB between the two.
fn window(addr: SocketAddr, inputs: &Inputs, seconds: u64) -> (Vec<load::ClientLog>, f64) {
    let gate = &Barrier::new(CLIENTS + 1);
    let window = Duration::from_secs(seconds);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || load::closed_loop(addr, inputs, c, gate, window)))
            .collect();
        gate.wait();
        let rss_mb = peak_rss_mb().unwrap_or(0.0);
        gate.wait();
        (clients.into_iter().map(|c| c.join().expect("client thread")).collect(), rss_mb)
    })
}

pub fn end_to_end(spec: Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut violations = Vec::new();

    // Set-up, several times over; the last one stays up for the run.
    let mut setup_s = Vec::new();
    let set_ups = Instant::now();
    let (inputs, mut ready) = loop {
        let start = Instant::now();
        let inputs = inputs::generate(spec, seed);
        let ready = bring_up(&inputs, &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let enough = set_ups.elapsed() >= SETUP_BUDGET || setup_s.len() >= SETUP_REPS_MAX;
        if setup_s.len() >= SETUP_REPS_MIN && enough {
            break (inputs, ready);
        }
        bring_down(ready, &mut tally, &mut violations);
    };

    let (logs, rss_mb) = window(ready.front.addr, &inputs, seconds);
    let mut samples = Vec::new();
    for log in logs {
        ready.sent += log.sent;
        samples.extend(log.samples);
        tally.absorb(log.tally);
    }
    let round_ns = seconds * 1_000_000_000 / ROUNDS as u64;
    let done_ns: Vec<u64> = samples.iter().map(|s| s.done_ns).collect();
    let rates = stats::round_rates(&done_ns, ROUNDS, round_ns);
    let throughput = stats::median(&rates).unwrap_or(0.0);
    // Latencies are pooled over the rounds at or above the median rate —
    // the rounds the throughput figure stands for. A slow spell of a shared
    // host is set aside by the median; pooled over the whole window it would
    // supply the entire slowest hundredth of the samples and so be the p99.
    let mut latencies_ms: Vec<f64> = samples
        .iter()
        .filter(|s| rates.get((s.done_ns / round_ns) as usize).is_some_and(|&r| r >= throughput))
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    latencies_ms.sort_by(f64::total_cmp);

    // The simulator pass: the workload's own requests once each on the
    // cycle-level simulator, outside the window.
    let cycles = load::one_pass(ready.front.addr, inputs.sim_pass.iter(), true, &mut tally);
    ready.sent += inputs.sim_pass.len() as u64;
    let sim_kb = (inputs.sim_pass.len() * inputs.bytes_per_request) as f64 / 1000.0;

    bring_down(ready, &mut tally, &mut violations);

    let p50 = stats::percentile(&latencies_ms, 50.0).unwrap_or(0.0);
    let p99 = stats::percentile(&latencies_ms, 99.0).unwrap_or(0.0);
    if latencies_ms.is_empty() {
        violations.push("no request completed inside the measured window".to_owned());
    }
    let metrics = vec![
        ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
        ("throughput_rps", throughput),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("peak_rss_mb", rss_mb),
        ("sim_cycles_per_kb", cycles as f64 / sim_kb),
    ];

    let rss_at_exit_mb = peak_rss_mb().unwrap_or(0.0);
    let (lo, hi) = rates.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    let mb_per_s = throughput * inputs.bytes_per_request as f64 / 1e6;
    let notes = vec![
        format!(
            "throughput_rps rounds: min {lo:.1}, max {hi:.1} over {ROUNDS} rounds of {} s",
            seconds as f64 / ROUNDS as f64
        ),
        format!(
            "latency samples: {} of {} (rounds at or above the median rate; p99 has {} beyond it)",
            latencies_ms.len(),
            samples.len(),
            latencies_ms.len() / 100
        ),
        format!(
            "peak_rss_mb is read after the warm-up's {} requests; at exit it is {:.1} MB after {} requests",
            CLIENTS * spec.warmup,
            rss_at_exit_mb,
            tally.attempted
        ),
        format!(
            "haystack: {mb_per_s:.3} MB/s ({} bytes per request, counted once)",
            inputs.bytes_per_request
        ),
        format!("failed_share: {} of {} requests", tally.failed, tally.attempted),
        format!("accepting share of generated chunks: {:.3}", inputs.accepting_share),
    ];
    let detail = Value::obj([
        ("setup_s_reps", Value::nums(&setup_s)),
        ("round_rps", Value::nums(&rates)),
        ("latency_samples", Value::from(latencies_ms.len())),
        ("window_samples", Value::from(samples.len())),
        ("peak_rss_mb_at_exit", Value::from(rss_at_exit_mb)),
        ("haystack_mb_per_s", Value::from(mb_per_s)),
        ("bytes_per_request", Value::from(inputs.bytes_per_request)),
        ("accepting_share", Value::from(inputs.accepting_share)),
        ("sim_pass_requests", Value::from(inputs.sim_pass.len())),
        ("sim_pass_cycles", Value::from(cycles)),
    ]);
    Ok(Outcome { metrics, tally, violations, detail, notes, input_hash: inputs.input_hash })
}
