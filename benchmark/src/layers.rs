//! The one file that calls into the crates under test. Everything else in
//! the benchmark sees the system through the functions here, so when a
//! crate's API changes (ROADMAP item 3 collapses several), this is the
//! only place that breaks.
//!
//! Only the least-decorated public entry points are used — no `_traced*`
//! variants: the spans are the benchmark's own ([`Recorder`]), wrapped
//! around each call from outside.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cicero_core::{Backend, Compiler};
use cicero_hostexec::HostProgram;
use cicero_isa::Program;
use cicero_runtime::{Budget, MatchOutcome, PinGuard, Runtime, RuntimeOptions};
use cicero_server::registry::RulesetRegistry;
use cicero_server::{http, DrainReport, Server, ServerOptions};
use cicero_sim::ArchConfig;
use cicero_telemetry::{JsonObject, Telemetry};

use crate::json::Value;
use crate::trace::Recorder;

/// Handler threads of the server under test.
pub const SERVER_WORKERS: usize = 2;

/// The options every benchmark server is bound with: the serving default
/// (host backend, `NEW 16x1` simulated architecture) on an ephemeral
/// loopback port.
fn server_options() -> ServerOptions {
    ServerOptions { addr: "127.0.0.1:0".to_owned(), workers: SERVER_WORKERS, ..Default::default() }
}

/// The backend the server runs a request on when it names none.
pub fn default_backend() -> String {
    server_options().runtime.compiler.backend.to_string()
}

// ---------------------------------------------------------------- server

/// An in-process `cicero_server::Server` accepting on loopback.
pub struct Front {
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<DrainReport>>,
}

/// What the server reported when it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drain {
    pub drained: bool,
    pub requests: u64,
    pub rejected: u64,
}

pub fn serve() -> io::Result<Front> {
    let server = Server::bind(server_options())?;
    let addr = server.local_addr()?;
    let thread =
        std::thread::Builder::new().name("bench-server".to_owned()).spawn(|| server.run())?;
    Ok(Front { addr, thread })
}

impl Front {
    /// Wait for the server to stop (the caller has sent `POST /shutdown`).
    pub fn join(self) -> Result<Drain, String> {
        match self.thread.join() {
            Ok(Ok(report)) => Ok(Drain {
                drained: report.drained,
                requests: report.requests,
                rejected: report.rejected,
            }),
            Ok(Err(e)) => Err(format!("server stopped with an error: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

// ------------------------------------------------------------------ JSON

/// Parse JSON text with the server's parser.
pub fn parse_json(text: &str) -> Result<Value, String> {
    fn convert(json: cicero_server::json::Json) -> Value {
        use cicero_server::json::Json;
        match json {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(b),
            Json::Num(n) => Value::Num(n),
            Json::Str(s) => Value::Str(s),
            Json::Arr(items) => Value::Arr(items.into_iter().map(convert).collect()),
            Json::Obj(members) => {
                Value::Obj(members.into_iter().map(|(k, v)| (k, convert(v))).collect())
            }
        }
    }
    cicero_server::json::parse(text).map(convert)
}

/// The fields of a `/scan` response body the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub matched: bool,
    pub per_pattern: Vec<u64>,
    pub chunks: u64,
    pub cycles: u64,
}

pub fn parse_answer(body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response body is not UTF-8".to_owned())?;
    let doc = parse_json(text)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("response lacks {key:?}"));
    let per_pattern = field("per_pattern")?
        .as_arr()
        .ok_or("\"per_pattern\" is not an array")?
        .iter()
        .map(|row| row.get("chunks_matched").and_then(Value::as_u64))
        .collect::<Option<Vec<u64>>>()
        .ok_or("a \"per_pattern\" row lacks \"chunks_matched\"")?;
    Ok(Answer {
        matched: field("matched")?.as_bool().ok_or("\"matched\" is not a boolean")?,
        per_pattern,
        chunks: field("chunks")?.as_u64().ok_or("\"chunks\" is not a count")?,
        cycles: field("cycles")?.as_u64().ok_or("\"cycles\" is not a count")?,
    })
}

// ---------------------------------------------------------------- shadow

/// A copy of the server's `/scan` handler (`api::handle_scan`, which is
/// private) made of public calls only, with a span around each. It gives
/// the in-process view of a request: same parsing, registry pin or cache
/// lookup, pool run, all-matches merge and response bytes — no socket,
/// poller, admission queue, request telemetry or request tracing.
pub struct Shadow {
    host: Runtime,
    sim: Runtime,
    registry: RulesetRegistry,
    config: ArchConfig,
}

/// Where a shadow scan got its program from.
enum Source {
    Ruleset(PinGuard),
    Inline(Vec<String>, Arc<Program>),
}

impl Default for Shadow {
    fn default() -> Shadow {
        let options = server_options();
        let telemetry = Telemetry::new();
        let runtime = |backend| {
            Runtime::new(RuntimeOptions {
                compiler: options.runtime.compiler.with_backend(backend),
                ..options.runtime
            })
            .with_telemetry(telemetry.clone())
        };
        Shadow {
            host: runtime(Backend::Host),
            sim: runtime(Backend::Sim),
            registry: RulesetRegistry::new(None, telemetry.clone()),
            config: options.config,
        }
    }
}

impl Shadow {
    /// What `PUT /rulesets/{id}` does.
    pub fn install(&self, id: &str, patterns: &[String]) -> Result<(), String> {
        self.registry.put(&self.host, id, patterns.to_vec()).map(|_| ()).map_err(|e| e.to_string())
    }

    /// Hit rate of the host runtime's program cache so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.host.cache().stats().hit_rate()
    }

    /// Serve one `/scan` request given as wire bytes; returns the response
    /// as wire bytes.
    pub fn scan(&self, wire: &[u8], rec: &mut Recorder) -> Result<Vec<u8>, String> {
        rec.span("request", |rec| self.scan_inner(wire, rec))
    }

    fn scan_inner(&self, wire: &[u8], rec: &mut Recorder) -> Result<Vec<u8>, String> {
        let request = rec
            .span("server.http_read", |_| http::read_request(&mut &wire[..]))
            .map_err(|e| format!("reading the request: {e:?}"))?;
        let backend: Backend = match request.header("x-cicero-backend") {
            Some(value) => value.parse()?,
            None => self.host.backend(),
        };
        let runtime = match backend {
            Backend::Host => &self.host,
            Backend::Sim => &self.sim,
        };

        let (patterns, input) = rec.span("server.json_parse", |_| {
            let text = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8")?;
            let doc = cicero_server::json::parse(text)?;
            let patterns = match doc.get("patterns").map(|p| p.as_arr().ok_or("bad \"patterns\"")) {
                Some(list) => Some(
                    list?
                        .iter()
                        .map(|p| p.as_str().map(str::to_owned).ok_or("bad \"patterns\""))
                        .collect::<Result<Vec<String>, _>>()?,
                ),
                None => None,
            };
            let input = doc.get("input").and_then(|i| i.as_str()).ok_or("missing \"input\"")?;
            Ok::<_, String>((patterns, input.as_bytes().to_vec()))
        })?;

        let source = match (request.query_param("ruleset"), patterns) {
            (Some(id), None) => rec
                .span("server.registry_pin", |_| self.registry.pin(id))
                .map(Source::Ruleset)
                .ok_or_else(|| format!("no ruleset {id:?}"))?,
            (None, Some(patterns)) => {
                // A lookup is a hit or a miss only once it has returned.
                let open = rec.open("runtime.cache_miss");
                let misses = runtime.cache().stats().misses;
                let program = runtime.compile_set(&patterns);
                if runtime.cache().stats().misses == misses {
                    rec.rename(open, "runtime.cache_hit");
                }
                rec.close(open);
                Source::Inline(patterns, program.map_err(|e| e.to_string())?)
            }
            _ => return Err("a scan names a ruleset or carries patterns, not both".to_owned()),
        };
        let (patterns, program): (&[String], &Arc<Program>) = match &source {
            Source::Ruleset(pin) => (pin.handle().patterns(), pin.program()),
            Source::Inline(patterns, program) => (patterns, program),
        };

        let chunks = chunk_input(&input);
        let batch = rec.span("runtime.run_batch", |_| {
            runtime.run_batch_guarded(program, &chunks, &self.config, &Budget::UNLIMITED)
        });

        let mut per_pattern = vec![0u64; patterns.len()];
        let mut cycles = 0u64;
        rec.span("server.merge", |rec| {
            for (chunk, outcome) in chunks.iter().zip(&batch.outcomes) {
                let MatchOutcome::Complete(report) = outcome else {
                    return Err(format!("a chunk did not complete: {outcome:?}"));
                };
                cycles += report.cycles;
                if !report.accepted {
                    continue;
                }
                let ids = match backend {
                    Backend::Host => rec.span("hostexec.run_all", |_| {
                        runtime.host_program(program).run_all(chunk).matched_ids
                    }),
                    Backend::Sim => {
                        rec.span("isa.run_all", |_| cicero_isa::run_all(program, chunk).matched_ids)
                    }
                };
                for id in ids {
                    if let Some(count) = per_pattern.get_mut(usize::from(id)) {
                        *count += 1;
                    }
                }
            }
            Ok(())
        })?;

        let response = rec.span("server.response_build", |_| {
            let rows: Vec<String> = patterns
                .iter()
                .zip(&per_pattern)
                .enumerate()
                .map(|(id, (pattern, count))| {
                    JsonObject::new()
                        .field("id", id as u64)
                        .field("pattern", pattern.as_str())
                        .field("chunks_matched", *count)
                        .finish()
                })
                .collect();
            let mut object = JsonObject::new();
            if let (Source::Ruleset(pin), Some(id)) = (&source, request.query_param("ruleset")) {
                object = object.field("ruleset", id).field("ruleset_version", pin.version());
            }
            let body = object
                .field("chunks", chunks.len() as u64)
                .field("chunk_bytes", workloads::CHUNK_BYTES as u64)
                .field("completed", batch.completed() as u64)
                .field("matched", per_pattern.iter().any(|c| *c > 0))
                .field("cycles", cycles)
                .field("jobs", batch.jobs as u64)
                .field("worker_restarts", batch.worker_restarts)
                .field_raw("per_pattern", &format!("[{}]", rows.join(",")))
                .field("budget_exceeded", false)
                .finish();
            let response = http::Response::json(200, body);
            match &source {
                Source::Ruleset(pin) => {
                    response.with_header("x-cicero-ruleset-version", pin.version().to_owned())
                }
                Source::Inline(..) => response,
            }
            .with_header("x-cicero-request-id", "shadow".to_owned())
        });
        let mut out = Vec::with_capacity(512);
        rec.span("server.response_write", |_| response.write_to(&mut out, false))
            .map_err(|e| e.to_string())?;
        Ok(out)
    }

    /// The pool run of a host-backend scan over `chunks`, timed, with the
    /// worker count it used.
    pub fn probe_host_batch(&self, program: &Program, chunks: &[Vec<u8>]) -> (u64, usize) {
        let start = Instant::now();
        let batch = self.host.run_batch_guarded(program, chunks, &self.config, &Budget::UNLIMITED);
        (start.elapsed().as_nanos() as u64, std::hint::black_box(batch).jobs)
    }

    /// The same chunks through the cycle-level simulator.
    pub fn probe_sim_batch(
        &self,
        program: &Program,
        chunks: &[Vec<u8>],
    ) -> Result<SimProbe, String> {
        let start = Instant::now();
        let batch = self.sim.run_batch_guarded(program, chunks, &self.config, &Budget::UNLIMITED);
        let mut probe =
            SimProbe { wall_ns: start.elapsed().as_nanos() as u64, ..SimProbe::default() };
        for outcome in &batch.outcomes {
            let MatchOutcome::Complete(report) = outcome else {
                return Err(format!("a simulated chunk did not complete: {outcome:?}"));
            };
            probe.cycles += report.cycles;
            probe.icache_hits += report.icache_hits;
            probe.icache_misses += report.icache_misses;
        }
        Ok(probe)
    }

    /// `RulesetRegistry::pin` as `server.registry_pin` spans, `times` over,
    /// on a ruleset installed for the purpose.
    pub fn probe_pin(
        &self,
        patterns: &[String],
        times: usize,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        self.install("probe", patterns)?;
        for _ in 0..times {
            rec.span("server.registry_pin", |_| self.registry.pin("probe")).ok_or("pin failed")?;
        }
        Ok(())
    }

    /// `Runtime::compile_set` on a cold key, then on the now-warm key, as
    /// `runtime.cache_miss` / `runtime.cache_hit` spans.
    pub fn probe_cache(&self, patterns: &[String], rec: &mut Recorder) -> Result<(), String> {
        let runtime = Runtime::new(*self.host.options()).with_telemetry(Telemetry::new());
        for name in ["runtime.cache_miss", "runtime.cache_hit"] {
            rec.span(name, |_| runtime.compile_set(patterns).map(|_| ()))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Totals of one simulator run over a request's chunks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProbe {
    pub wall_ns: u64,
    pub cycles: u64,
    pub icache_hits: u64,
    pub icache_misses: u64,
}

impl SimProbe {
    pub fn add(&mut self, other: &SimProbe) {
        self.wall_ns += other.wall_ns;
        self.cycles += other.cycles;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
    }
}

/// The server's chunker: 500-byte chunks, an empty input is one empty
/// chunk.
pub fn chunk_input(input: &[u8]) -> Vec<Vec<u8>> {
    if input.is_empty() {
        return vec![Vec::new()];
    }
    input.chunks(workloads::CHUNK_BYTES).map(<[u8]>::to_vec).collect()
}

// ---------------------------------------------------------------- probes

/// What one cold `Compiler::compile_set` produced, besides its spans.
pub struct Compiled {
    pub program: Program,
    /// `(pass name, duration in ns, ops after)`, summed over the set's
    /// patterns, in first-run order.
    pub passes: Vec<(&'static str, u64, u64)>,
}

impl Compiled {
    /// Instructions in the program (the paper's Figure 8 metric).
    pub fn code_size(&self) -> u64 {
        self.program.len() as u64
    }

    /// Total jump offset of the program (Figure 10, Equation 1).
    pub fn d_offset(&self) -> u64 {
        self.program.total_jump_offset()
    }
}

/// The compile path of one pattern set, layer by layer: `frontend.parse`
/// per pattern, then `core.compile_set` (which parses again — the two are
/// separate probes, not parent and child).
pub fn probe_compile(patterns: &[String], rec: &mut Recorder) -> Result<Compiled, String> {
    for pattern in patterns {
        rec.span("frontend.parse", |_| regex_frontend::parse(pattern).map(|_| ()))
            .map_err(|e| e.to_string())?;
    }
    let compiler = Compiler::with_options(server_options().runtime.compiler);
    let set = rec
        .span("core.compile_set", |_| compiler.compile_set(patterns))
        .map_err(|e| e.to_string())?;
    let mut passes: Vec<(&'static str, u64, u64)> = Vec::new();
    for pass in &set.pass_report().passes {
        let ns = pass.duration.as_nanos() as u64;
        match passes.iter_mut().find(|(name, ..)| *name == pass.name) {
            Some((_, total_ns, ops)) => {
                *total_ns += ns;
                *ops += pass.ops_after as u64;
            }
            None => passes.push((pass.name, ns, pass.ops_after as u64)),
        }
    }
    Ok(Compiled { program: set.program().clone(), passes })
}

/// A program lowered to the host engine, for the engine probes.
pub struct Lowered(HostProgram);

/// `HostProgram::compile` as a `hostexec.lower` span.
pub fn probe_lower(program: &Program, rec: &mut Recorder) -> Lowered {
    Lowered(rec.span("hostexec.lower", |_| HostProgram::compile(program)))
}

impl Lowered {
    pub fn states(&self) -> u64 {
        self.0.state_count() as u64
    }

    pub fn byte_classes(&self) -> u64 {
        self.0.byte_class_count() as u64
    }

    pub fn engine(&self) -> String {
        self.0.engine_kind().to_string()
    }

    /// First-acceptance run (`hostexec.run` span); whether it accepted.
    pub fn run(&self, chunk: &[u8], rec: &mut Recorder) -> bool {
        rec.span("hostexec.run", |_| self.0.run(chunk)).accepted
    }

    /// All-matches run (`hostexec.run_all` span).
    pub fn run_all(&self, chunk: &[u8], rec: &mut Recorder) {
        std::hint::black_box(rec.span("hostexec.run_all", |_| self.0.run_all(chunk)));
    }
}

/// The functional interpreter's all-matches run (`isa.run_all` span): the
/// merge pass of a simulator-backend scan.
pub fn probe_isa_run_all(program: &Program, chunk: &[u8], rec: &mut Recorder) {
    std::hint::black_box(rec.span("isa.run_all", |_| cicero_isa::run_all(program, chunk)));
}

/// Nanoseconds per `Telemetry::counter_add` and per `Telemetry::observe`
/// on a warm name, over `ops` calls each.
pub fn probe_telemetry(ops: u64) -> (f64, f64) {
    let telemetry = Telemetry::new();
    telemetry.counter_add("bench.counter", 1);
    telemetry.observe("bench.histogram", 1.0);
    let start = Instant::now();
    for _ in 0..ops {
        telemetry.counter_add(std::hint::black_box("bench.counter"), 1);
    }
    let counter_ns = start.elapsed().as_nanos() as f64 / ops as f64;
    let start = Instant::now();
    for i in 0..ops {
        telemetry.observe(std::hint::black_box("bench.histogram"), (i % 97) as f64);
    }
    let observe_ns = start.elapsed().as_nanos() as f64 / ops as f64;
    assert_eq!(telemetry.counter("bench.counter"), ops + 1);
    (counter_ns, observe_ns)
}
