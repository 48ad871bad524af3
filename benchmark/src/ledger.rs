//! The traced run: where one request's time goes, layer by layer.
//!
//! A fixed number of the workload's requests goes three ways: over
//! loopback from one closed-loop client (the reference latency), through
//! the in-process shadow handler with spans off (the in-process latency),
//! and through it again with spans on (the ledger). Beside the traced
//! replay, each layer is also timed alone on the same inputs — the engine
//! on each chunk, the pool run, the compile path on each pattern set, the
//! simulator on a few requests — so every layer has a number on every
//! workload, on its request path or not.
//!
//! Everything is counted in requests, not seconds, so the counts repeat
//! exactly.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use workloads::CHUNK_BYTES;

use crate::inputs::{self, Spec, Template};
use crate::json::Value;
use crate::layers::{self, Compiled, Lowered, Shadow, SimProbe};
use crate::load::{self, Tally};
use crate::metrics::PASSES;
use crate::run::{bring_down, bring_up, Outcome};
use crate::stats;
use crate::trace::{self, Recorder};

/// Cold compiles of a ruleset, for a median (an inline workload compiles
/// each distinct set it replays once instead).
const COMPILE_REPS: usize = 20;
/// Calls per telemetry timing, and timings per median.
const TELEMETRY_OPS: u64 = 200_000;
const TELEMETRY_REPS: usize = 5;
/// The replay is cut into blocks; within a block each of the three ways
/// replays all of it before the next takes its turn. A block is about
/// this long a turn, within these limits on its number of requests.
const BLOCK_TURN_US: f64 = 50_000.0;
const BLOCK_MIN_REQUESTS: usize = 2;
const BLOCKS_MIN: usize = 10;
/// The orders the three ways take their turns in, block after block: every
/// order, so that each way follows each other way (and leads) equally often.
const ORDERS: [[u8; 3]; 6] = [[0, 1, 2], [1, 0, 2], [2, 0, 1], [0, 2, 1], [1, 2, 0], [2, 1, 0]];

/// A pattern set compiled and lowered by the probes.
struct Engine {
    compiled: Compiled,
    lowered: Lowered,
}

/// Check a shadow response like a loopback one.
fn check_shadow(wire: &[u8], template: &Template, sim: bool, tally: &mut Tally) {
    tally.attempted += 1;
    let verdict = load::split_response(wire)
        .map_err(|e| format!("shadow response: {e}"))
        .and_then(|(status, body)| load::check(status, body, &template.expect, sim));
    if let Err(e) = verdict {
        tally.fail(format!("shadow: {e}"));
    }
}

/// The traced way: the shadow with spans on, each layer alone on the same
/// inputs, and what both measured.
struct Traced {
    spec: Spec,
    shadow: Shadow,
    rec: Recorder,
    /// Distinct pattern sets compiled so far, by request index (a ruleset
    /// workload has the one, under 0).
    engines: BTreeMap<usize, Engine>,
    /// `(pass, ns, ops after)` rows of every compile.
    pass_reports: Vec<Vec<(&'static str, u64, u64)>>,
    traced_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    host_engine_us: Vec<f64>,
    chunks_run: u64,
    chunks_accepted: u64,
    sim: SimProbe,
}

impl Traced {
    /// The compile path of `patterns`, layer by layer, kept under `key`.
    fn compile(&mut self, key: usize, patterns: &[String]) -> Result<(), String> {
        let compiled = layers::probe_compile(patterns, &mut self.rec)?;
        let lowered = layers::probe_lower(&compiled.program, &mut self.rec);
        self.pass_reports.push(compiled.passes.clone());
        self.engines.insert(key, Engine { compiled, lowered });
        Ok(())
    }

    /// Replay request `n` through the shadow with spans on, then time the
    /// layers alone on its inputs.
    fn request(
        &mut self,
        n: usize,
        index: usize,
        template: &Template,
        tally: &mut Tally,
    ) -> Result<(), String> {
        self.rec.set_request(n as u32);
        let mark = self.rec.spans().len();
        let reply = self.shadow.scan(&template.bytes, &mut self.rec)?;
        let spans = &self.rec.spans()[mark..];
        self.traced_us.push(spans[0].duration_ns() as f64 / 1e3);
        let merge_runs_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "hostexec.run_all")
            .map(trace::Span::duration_ns)
            .sum();
        check_shadow(&reply, template, self.spec.sim, tally);

        let key = if self.spec.ruleset.is_some() { 0 } else { index };
        if !self.engines.contains_key(&key) {
            self.compile(key, &template.patterns)?;
        }
        let engine = &self.engines[&key];
        let chunks = layers::chunk_input(&template.haystack);
        let (batch_ns, jobs) = self.shadow.probe_host_batch(&engine.compiled.program, &chunks);
        let mut runs_ns = 0u64;
        let mut accepted = Vec::new();
        for chunk in &chunks {
            let mark = self.rec.spans().len();
            if engine.lowered.run(chunk, &mut self.rec) {
                accepted.push(chunk);
            }
            runs_ns += self.rec.spans()[mark].duration_ns();
        }
        self.chunks_run += chunks.len() as u64;
        self.chunks_accepted += accepted.len() as u64;
        // The engine's share of the pool run is its critical path: the
        // runs divided over the workers used. The rest of the pool run is
        // dispatch — hand-off to the workers, guard, collection. The merge
        // runs on the handler thread alone.
        let engine_path_ns = runs_ns as f64 / jobs as f64;
        self.dispatch_us.push((batch_ns as f64 - engine_path_ns) / 1e3);
        self.host_engine_us.push((engine_path_ns + merge_runs_ns as f64) / 1e3);
        if n < self.spec.sim_probe {
            for chunk in accepted {
                engine.lowered.run_all(chunk, &mut self.rec);
                layers::probe_isa_run_all(&engine.compiled.program, chunk, &mut self.rec);
            }
            self.sim.add(&self.shadow.probe_sim_batch(&engine.compiled.program, &chunks)?);
        }
        Ok(())
    }
}

pub fn traced(spec: Spec, seed: u64, out: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut violations = Vec::new();
    let inputs = inputs::generate(spec, seed);
    // One client's schedule throughout: every request goes the three ways
    // once, so the server and the two shadows see the same hits and misses.
    let requests = |from: usize, count: usize| (from..from + count).map(|j| inputs.request(0, j));

    let mut ready = bring_up(&inputs, &mut tally)?;
    let mut client =
        load::Client::connect(ready.front.addr).map_err(|e| format!("connect: {e}"))?;
    // One shadow per in-process way, so each has a program cache of its own.
    let plain = Shadow::default();
    let mut off = Recorder::new(false);
    let mut traced = Traced {
        spec,
        shadow: Shadow::default(),
        rec: Recorder::new(true),
        engines: BTreeMap::new(),
        pass_reports: Vec::new(),
        traced_us: Vec::with_capacity(spec.replay),
        dispatch_us: Vec::with_capacity(spec.replay),
        host_engine_us: Vec::with_capacity(spec.replay),
        chunks_run: 0,
        chunks_accepted: 0,
        sim: SimProbe::default(),
    };
    let ruleset = &inputs.hot[0].patterns;
    if let Some(id) = spec.ruleset {
        plain.install(id, ruleset)?;
        traced.shadow.install(id, ruleset)?;
        for _ in 0..COMPILE_REPS {
            traced.compile(0, ruleset)?;
        }
    }

    // Warm-up, all three ways, nothing kept.
    let warm = spec.replay / 4;
    let mut warm_us = Vec::with_capacity(warm);
    for (_, template) in requests(0, warm) {
        let (ns, _) = load::scan(&mut client, template, spec.sim, &mut tally);
        warm_us.push(ns as f64 / 1e3);
        for shadow in [&plain, &traced.shadow] {
            check_shadow(&shadow.scan(&template.bytes, &mut off)?, template, spec.sim, &mut tally);
        }
    }

    let mut loopback_us = Vec::with_capacity(spec.replay);
    let mut inprocess_us = Vec::with_capacity(spec.replay);
    // The three ways take turns a block at a time, so that a drift of the
    // machine's speed falls on all three alike, and in every order, so that
    // none is always the one that finds the block's bytes already in the
    // CPU's caches. A turn is not shorter
    // than tens of milliseconds because a way's first requests after a
    // pause are slow — the server's workers have gone to sleep, the
    // connection has been parked on the poller.
    let block_len = ((BLOCK_TURN_US / stats::median(&warm_us).unwrap_or(1.0)) as usize)
        .clamp(BLOCK_MIN_REQUESTS, spec.replay.div_ceil(BLOCKS_MIN));
    for (turn, block) in (0..spec.replay).step_by(block_len).enumerate() {
        let block_requests = || requests(warm + block, block_len.min(spec.replay - block));
        for way in ORDERS[turn % ORDERS.len()] {
            match way {
                // Over loopback, one closed-loop client: what a request
                // costs with nothing else in flight, as in the replays.
                0 => {
                    for (_, template) in block_requests() {
                        let (ns, _) = load::scan(&mut client, template, spec.sim, &mut tally);
                        loopback_us.push(ns as f64 / 1e3);
                    }
                }
                // The shadow, spans off.
                1 => {
                    for (_, template) in block_requests() {
                        let start = Instant::now();
                        let reply = plain.scan(&template.bytes, &mut off);
                        inprocess_us.push(start.elapsed().as_nanos() as f64 / 1e3);
                        check_shadow(&reply?, template, spec.sim, &mut tally);
                    }
                }
                // The shadow, spans on, and each layer alone.
                _ => {
                    for (n, (index, template)) in block_requests().enumerate() {
                        traced.request(block + n, index, template, &mut tally)?;
                    }
                }
            }
        }
    }
    drop(client);
    ready.sent += (warm + spec.replay) as u64;
    let drain = bring_down(ready, &mut tally, &mut violations);

    let Traced {
        shadow,
        mut rec,
        engines,
        pass_reports,
        sim,
        traced_us,
        dispatch_us,
        host_engine_us,
        chunks_run,
        chunks_accepted,
        ..
    } = traced;
    let cache_hit_rate = shadow.cache_hit_rate();
    rec.set_request(spec.replay as u32);
    // Spans the request path of this workload never opens.
    if spec.ruleset.is_some() {
        for _ in 0..COMPILE_REPS {
            shadow.probe_cache(ruleset, &mut rec)?;
        }
    } else {
        shadow.probe_pin(ruleset, spec.replay, &mut rec)?;
    }
    let telemetry: Vec<(f64, f64)> =
        (0..TELEMETRY_REPS).map(|_| layers::probe_telemetry(TELEMETRY_OPS)).collect();

    let spans = rec.spans();
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let trace_path = out.join(format!("trace-{}.jsonl", spec.name));
    trace::write_jsonl(spans, &trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    // The ledger.
    let median = |values: &[f64]| stats::median(values).unwrap_or(0.0);
    let us = |name: &str| trace::median_self_us(spans, name).unwrap_or(0.0);
    let per_byte = |name: &str| us(name) * 1e3 / CHUNK_BYTES as f64;
    let mean = |f: &dyn Fn(&Engine) -> u64| {
        engines.values().map(|e| f(e) as f64).sum::<f64>() / engines.len() as f64
    };
    // Per compile, the (time in us, ops after) of the pass named `name`.
    let pass = |name: &str| -> (Vec<f64>, Vec<f64>) {
        pass_reports
            .iter()
            .filter_map(|report| report.iter().find(|(n, ..)| *n == name))
            .map(|&(_, ns, ops)| (ns as f64 / 1e3, ops as f64))
            .unzip()
    };
    let loopback_p50_us = median(&loopback_us);
    let inprocess_p50_us = median(&inprocess_us);
    let traced_p50_us = median(&traced_us);
    // The same request went each way, so the ways are compared request by
    // request: what differs between requests (how many chunks accept)
    // cancels, and only what differs between ways is left.
    let paired =
        |way: &[f64]| -> Vec<f64> { way.iter().zip(&inprocess_us).map(|(a, b)| a - b).collect() };
    let unattributed_us = median(&paired(&loopback_us));
    let overhead_us = median(&paired(&traced_us));
    let accepting_share = chunks_accepted as f64 / chunks_run as f64;

    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("frontend.parse_us", us("frontend.parse")),
        ("core.compile_set_us", us("core.compile_set")),
    ];
    for (name, time_metric, ops_metric) in PASSES {
        let (times_us, ops_after) = pass(name);
        metrics.push((time_metric, median(&times_us)));
        metrics.push((ops_metric, ops_after.iter().sum::<f64>() / ops_after.len().max(1) as f64));
    }
    metrics.extend([
        ("core.code_size_insns", mean(&|e| e.compiled.code_size())),
        ("core.d_offset", mean(&|e| e.compiled.d_offset())),
        ("isa.run_all_ns_per_byte", per_byte("isa.run_all")),
        ("hostexec.lower_us", us("hostexec.lower")),
        ("hostexec.states", mean(&|e| e.lowered.states())),
        ("hostexec.byte_classes", mean(&|e| e.lowered.byte_classes())),
        ("hostexec.run_ns_per_byte", per_byte("hostexec.run")),
        ("hostexec.run_all_ns_per_byte", per_byte("hostexec.run_all")),
        ("hostexec.early_exit_share", accepting_share),
        ("sim.cycles_per_request", sim.cycles as f64 / spec.sim_probe as f64),
        ("sim.host_ns_per_cycle", sim.wall_ns as f64 / sim.cycles as f64),
        (
            "sim.icache_miss_rate",
            sim.icache_misses as f64 / (sim.icache_hits + sim.icache_misses) as f64,
        ),
        ("runtime.cache_hit_us", us("runtime.cache_hit")),
        ("runtime.cache_miss_us", us("runtime.cache_miss")),
        ("runtime.cache_hit_rate", cache_hit_rate),
        ("runtime.run_batch_us", us("runtime.run_batch")),
        ("runtime.dispatch_us", median(&dispatch_us)),
        ("server.http_read_us", us("server.http_read")),
        ("server.json_parse_us", us("server.json_parse")),
        ("server.registry_pin_us", us("server.registry_pin")),
        ("server.response_write_us", us("server.response_write")),
        ("server.loopback_p50_us", loopback_p50_us),
        ("server.inprocess_p50_us", inprocess_p50_us),
        ("server.unattributed_us", unattributed_us),
        ("server.rejected", drain.map_or(0.0, |d| d.rejected as f64)),
        ("server.requests", drain.map_or(0.0, |d| d.requests as f64)),
        ("telemetry.counter_add_ns", median(&telemetry.iter().map(|t| t.0).collect::<Vec<_>>())),
        ("telemetry.observe_ns", median(&telemetry.iter().map(|t| t.1).collect::<Vec<_>>())),
        ("trace.residual_share", unattributed_us / loopback_p50_us),
        ("trace.overhead_share", overhead_us / inprocess_p50_us),
    ]);

    let mut tiers: Vec<String> = engines.values().map(|e| e.lowered.engine()).collect();
    tiers.sort();
    tiers.dedup();
    // The host engine on a request's critical path; not on it at all when
    // the request runs on the simulator.
    let engine_us = if spec.sim { 0.0 } else { median(&host_engine_us) };
    let engine_share = engine_us / loopback_p50_us;
    let notes = vec![
        format!("replayed {} requests three ways; spans in {}", spec.replay, trace_path.display()),
        format!("host engine tier(s): {}; {} distinct set(s) compiled", tiers.join(", "), engines.len()),
        format!(
            "one request, p50: loopback {loopback_p50_us:.1} us, in-process {inprocess_p50_us:.1} us, \
             with spans on {traced_p50_us:.1} us; request by request loopback costs \
             {unattributed_us:.1} us more than in-process and the spans {overhead_us:.1} us"
        ),
        format!(
            "host engine on the request's critical path (runs / workers + merge run_all): \
             {engine_us:.1} us = {:.1} % of the loopback p50",
            100.0 * engine_share
        ),
    ];
    let detail = Value::obj([
        ("replayed_requests", Value::from(spec.replay)),
        ("spans", Value::from(spans.len())),
        ("trace_file", Value::from(trace_path.display().to_string())),
        ("engine_tiers", Value::Arr(tiers.into_iter().map(Value::from).collect())),
        ("distinct_sets_compiled", Value::from(engines.len())),
        ("traced_p50_us", Value::from(traced_p50_us)),
        ("host_engine_us_per_request", Value::from(engine_us)),
        ("host_engine_share_of_request", Value::from(engine_share)),
    ]);
    Ok(Outcome { metrics, tally, violations, detail, notes, input_hash: inputs.input_hash })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shadow is only worth timing if it does what the server does:
    /// on every workload, the same request bytes get the same answer —
    /// `cycles` included — from both, and both agree with the oracle.
    #[test]
    fn the_shadow_answers_as_the_server_does_on_all_four_workloads() {
        for spec in inputs::SPECS {
            let inputs = inputs::generate(spec, 5);
            let mut tally = Tally::default();
            let mut ready = bring_up(&inputs, &mut tally).unwrap();
            let mut client = load::Client::connect(ready.front.addr).unwrap();
            let shadow = Shadow::default();
            if let Some(id) = spec.ruleset {
                shadow.install(id, &inputs.hot[0].patterns).unwrap();
            }
            for template in inputs.hot.iter().take(8).chain(inputs.fresh.iter().take(4)) {
                let (status, body) = client.roundtrip(&template.bytes).unwrap();
                assert_eq!(status, 200, "{}", spec.name);
                let server = layers::parse_answer(body).unwrap();
                ready.sent += 1;
                let wire = shadow.scan(&template.bytes, &mut Recorder::new(true)).unwrap();
                let (status, body) = load::split_response(&wire).unwrap();
                assert_eq!(status, 200, "{}", spec.name);
                assert_eq!(server, layers::parse_answer(body).unwrap(), "{}", spec.name);
                assert_eq!(server.matched, template.expect.matched, "{}", spec.name);
                assert_eq!(server.per_pattern, template.expect.per_pattern, "{}", spec.name);
            }
            drop(client);
            let mut violations = Vec::new();
            bring_down(ready, &mut tally, &mut violations);
            assert_eq!((tally.failed, &violations), (0, &Vec::new()), "{}", spec.name);
        }
    }
}
