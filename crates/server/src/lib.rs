//! `cicero-server` — a std-only HTTP/1.1 match-serving subsystem.
//!
//! The paper frames Cicero as a datacenter offload target: a regex
//! accelerator sitting behind deep-packet-inspection and log-scanning
//! services (§1). This crate is the host-side serving tier for that
//! story — a dependency-free HTTP front door over the existing
//! [`Runtime`] (worker pool + LRU compiled-program cache), built
//! from `std::net` only:
//!
//! * **A thread per admitted connection** — the acceptor blocks in
//!   `accept` and spawns one thread per admitted connection. That thread
//!   reads the connection through one `BufReader` for its whole life (so
//!   pipelined requests are never lost), and handles each request under
//!   one of `workers` work permits. A read never holds a permit, so an
//!   idle or slow client costs only its own thread.
//! * **Admission control** — open connections, idle ones included, are
//!   capped at `workers + QUEUE_DEPTH` ([`QUEUE_DEPTH`] is 64), so at
//!   most that many connection threads wait beyond the permit holders.
//!   Beyond the cap a new connection is answered `503` and
//!   closed immediately, with a `Retry-After` hint scaled from the
//!   observed `server.queue_wait_ms` p50: overload sheds load at the
//!   front door instead of piling up latency, and a rejected client
//!   always gets a response, never a hang.
//! * **Endpoints** — `POST /match` (per-pattern verdicts over one input),
//!   `POST /scan` (multi-pattern set over 500-byte chunks, with
//!   all-matches per-pattern counts that the pool workers compute beside
//!   each chunk's outcome,
//!   [`GuardedBatch::per_pattern`](cicero_runtime::GuardedBatch::per_pattern)),
//!   `GET /metrics` (the unified telemetry in summary or JSONL form),
//!   `GET /healthz`, and `POST /shutdown` (begin draining).
//! * **Per-request budgets** — `X-Cicero-Fuel` and `X-Cicero-Deadline-Ms`
//!   headers map onto the runtime's [`Budget`]; a tripped budget is a
//!   typed `429` carrying whatever partial progress was made.
//! * **Backend selection** — requests execute on the host-native
//!   bit-parallel engine by default (`cicero-hostexec`); the
//!   `X-Cicero-Backend: sim` header routes a request through the
//!   cycle-level simulator instead (and `host` forces the default
//!   explicitly). The two backends share one compiled-program cache
//!   entry per pattern.
//! * **Graceful drain** — shutdown (via [`ServerHandle::shutdown`] or
//!   `POST /shutdown`) sets a flag and wakes the acceptor, which closes
//!   the listener. A connection closes only once a read that began after
//!   it saw the flag times out idle, so a request already written is
//!   answered; [`Server::run`] waits up to [`DRAIN_TIMEOUT`] (5 s) for
//!   every connection to close. The protocol is model-checked by
//!   `cicero-permute`'s `ConnectionModel`; the [`DrainReport`] says
//!   whether the drain completed.
//! * **Telemetry** — `server.*` metrics (requests by endpoint and status,
//!   queue-depth and open-connection gauges, latency histogram, admission
//!   rejections) join the existing `runtime.*` / `sim.*` namespaces on
//!   one collector, so `GET /metrics` shows the whole stack.
//! * **Ruleset registry** — `PUT/GET/DELETE /rulesets/{id}` manage
//!   named, content-hash-versioned compiled pattern sets;
//!   `POST /scan?ruleset={id}` (and the chunked-transfer
//!   `POST /scan/stream`) serve against them with zero-downtime hot
//!   swaps (see [`registry`]). Per-tenant quotas and token-bucket rate
//!   limits key on `X-Cicero-Tenant` (see [`tenants`]).
//!
//! The CLI surfaces this as `cicero serve`.

pub mod api;
pub mod http;
pub mod json;
pub mod registry;
pub mod tenants;

use std::io::{BufReader, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use cicero_core::{Backend, CompilerOptions};
use cicero_runtime::{Runtime, RuntimeOptions};
use cicero_sim::ArchConfig;
use cicero_telemetry::{FlightRecorder, Telemetry, TraceContext};

pub use cicero_runtime::Budget;

/// Socket read timeout on every connection. It bounds a stall inside a
/// request (the connection is then closed), and it is the idle tick on
/// which a connection thread checks the drain flag.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Open connections admitted beyond `workers`, idle ones included;
/// beyond `workers + QUEUE_DEPTH`, new connections are rejected with
/// `503`.
pub const QUEUE_DEPTH: usize = 64;

/// How long shutdown waits for written requests to be answered and every
/// connection to close.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Ceiling on the scaled `Retry-After` admission hint, in seconds.
const MAX_RETRY_AFTER_SECS: u64 = 30;

/// Latency histogram bucket upper bounds, in milliseconds.
const LATENCY_BUCKETS_MS: &[f64] =
    &[0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0];

/// Construction-time knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address; port `0` binds an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Work permits: how many requests are handled at once. Reading a
    /// request holds no permit, so idle connections cost none.
    pub workers: usize,
    /// Options for the inner matching [`Runtime`]. The default serves
    /// with the host-native backend ([`Backend::Host`]); a request can
    /// pick the cycle-level simulator with `X-Cicero-Backend: sim`.
    pub runtime: RuntimeOptions,
    /// Architecture simulated when a request does not name one.
    pub config: ArchConfig,
    /// When set, the retained traces are dumped to this path as Chrome
    /// `trace_event` JSON on graceful drain.
    pub trace_dump: Option<std::path::PathBuf>,
    /// When set, ruleset artifacts persist here (`{id}.ruleset`) and are
    /// restored on the next bind.
    pub ruleset_dir: Option<std::path::PathBuf>,
    /// Per-tenant admission limits (quota + token bucket), keyed on the
    /// `X-Cicero-Tenant` header. Disabled by default.
    pub tenants: tenants::TenantPolicy,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:8787".to_owned(),
            workers: 4,
            runtime: RuntimeOptions {
                compiler: CompilerOptions::optimized().with_backend(Backend::Host),
                ..RuntimeOptions::default()
            },
            config: ArchConfig::new_organization(16, 1),
            trace_dump: None,
            ruleset_dir: None,
            tenants: tenants::TenantPolicy::unlimited(),
        }
    }
}

/// What happened during shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every connection closed (written requests all answered)
    /// within [`DRAIN_TIMEOUT`].
    pub drained: bool,
    /// Wall-clock time the drain took.
    pub wall: Duration,
    /// Requests served over the server's lifetime.
    pub requests: u64,
    /// Connections rejected at admission (`503`) over the lifetime.
    pub rejected: u64,
}

/// State shared between the acceptor, the connection threads, and
/// handles.
pub(crate) struct Shared {
    pub(crate) runtime: Runtime,
    pub(crate) telemetry: Telemetry,
    pub(crate) recorder: FlightRecorder,
    pub(crate) registry: registry::RulesetRegistry,
    pub(crate) tenants: tenants::TenantGovernor,
    pub(crate) config: ArchConfig,
    shutdown: AtomicBool,
    /// Where a drain connects to wake the acceptor out of `accept`.
    wake_addr: SocketAddr,
    /// Free work permits, out of `workers`.
    permits: Mutex<usize>,
    permit_freed: Condvar,
    /// Requests waiting for a work permit.
    queued: AtomicUsize,
    open: AtomicUsize,
    in_flight: AtomicUsize,
    pub(crate) requests: AtomicU64,
    rejected: AtomicU64,
    next_request_id: AtomicU64,
}

impl Shared {
    pub(crate) fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begin draining: set the flag, then wake the acceptor out of
    /// `accept` with one connection of our own, which it neither counts
    /// nor serves. Idempotent.
    pub(crate) fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    /// Wait for a work permit. The wait counts in the `queued` gauge.
    fn acquire_permit(&self) -> Permit<'_> {
        self.queued.fetch_add(1, Ordering::SeqCst);
        let free = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        let mut free = self
            .permit_freed
            .wait_while(free, |free| *free == 0)
            .unwrap_or_else(PoisonError::into_inner);
        *free -= 1;
        drop(free);
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        Permit(self)
    }

    /// The request id a response is tagged with: the client-supplied
    /// `X-Cicero-Request-Id` when present, a minted `req-N` otherwise.
    pub(crate) fn request_id_for(&self, request: &http::Request) -> String {
        match request.header("x-cicero-request-id") {
            Some(id) if !id.is_empty() => id.to_owned(),
            _ => format!("req-{}", self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1),
        }
    }

    /// Refresh the gauges surfaced by `GET /metrics`.
    pub(crate) fn refresh_gauges(&self) {
        self.telemetry.gauge_set("server.queue_depth", self.queued.load(Ordering::SeqCst) as f64);
        self.telemetry
            .gauge_set("server.open_connections", self.open.load(Ordering::SeqCst) as f64);
        self.telemetry.gauge_set("server.in_flight", self.in_flight.load(Ordering::SeqCst) as f64);
        self.telemetry.gauge_set("trace.retained", self.recorder.len() as f64);
        let stats = self.runtime.cache().stats();
        let lookups = stats.hits + stats.misses;
        if lookups > 0 {
            self.telemetry.gauge_set("server.cache_hit_ratio", stats.hits as f64 / lookups as f64);
        }
    }
}

/// One admitted connection's count in `open`. The acceptor takes it
/// before spawning the connection's thread, so the drain wait can never
/// see zero while that thread serves; dropping it (when the thread ends,
/// when a spawn fails and drops its closure, or on unwind) releases it.
struct Slot(Arc<Shared>);

impl Slot {
    fn take(shared: &Arc<Shared>) -> Slot {
        shared.open.fetch_add(1, Ordering::SeqCst);
        Slot(Arc::clone(shared))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A held work permit, counted in `in_flight`. Dropping it (also on
/// unwind) returns the permit and wakes one waiter.
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
        *self.0.permits.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.permit_freed.notify_one();
    }
}

/// A remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin draining: the acceptor stops taking connections and
    /// [`Server::run`] returns once every connection has closed (or the
    /// drain timeout passes). Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Whether shutdown has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Requests served so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    options: ServerOptions,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket and build the inner runtime with a fresh
    /// telemetry collector.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(options: ServerOptions) -> std::io::Result<Server> {
        Server::bind_with_telemetry(options, Telemetry::new())
    }

    /// [`Server::bind`] with a caller-supplied collector (so the embedding
    /// process can export the metrics after shutdown).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_telemetry(
        options: ServerOptions,
        telemetry: Telemetry,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let runtime = Runtime::new(options.runtime).with_telemetry(telemetry.clone());
        let registry =
            registry::RulesetRegistry::new(options.ruleset_dir.clone(), telemetry.clone());
        registry.load_dir(&runtime).map_err(std::io::Error::other)?;
        let tenants = tenants::TenantGovernor::new(options.tenants, telemetry.clone());
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            runtime,
            telemetry,
            recorder: FlightRecorder::new(),
            registry,
            tenants,
            config: options.config.clone(),
            shutdown: AtomicBool::new(false),
            wake_addr,
            permits: Mutex::new(options.workers.max(1)),
            permit_freed: Condvar::new(),
            queued: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            next_request_id: AtomicU64::new(0),
        });
        Ok(Server { listener, options, shared })
    }

    /// The bound address (resolves the ephemeral port when `addr` ended
    /// in `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A clonable remote control (shutdown, liveness queries).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// The telemetry collector every request reports into.
    pub fn telemetry(&self) -> Telemetry {
        self.shared.telemetry.clone()
    }

    /// The flight recorder request traces land in (also served at
    /// `GET /debug/traces`).
    pub fn recorder(&self) -> FlightRecorder {
        self.shared.recorder.clone()
    }

    /// Accept and serve until shutdown is requested, then drain.
    ///
    /// Blocks the calling thread for the server's whole lifetime: the
    /// acceptor runs here, spawning one thread per admitted connection,
    /// and then the drain wait.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection failures are handled
    /// (and counted) without stopping the server.
    pub fn run(self) -> std::io::Result<DrainReport> {
        // Past this many open connections, idle ones included, admission
        // rejects.
        let capacity = self.options.workers.max(1) + QUEUE_DEPTH;
        // Live connection threads, at most `capacity`: joined once the
        // drain has closed them, so their resources are gone by the time
        // `run` returns.
        let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // The drain's wake connection, or one that arrived with it.
            if self.shared.is_draining() {
                break;
            }
            self.shared.telemetry.counter_add("server.connections", 1);
            if self.shared.open.load(Ordering::SeqCst) >= capacity {
                reject_at_admission(&self.shared, stream);
                continue;
            }
            let slot = Slot::take(&self.shared);
            threads.retain(|thread| !thread.is_finished());
            // A failed spawn drops the closure, and with it the slot.
            if let Ok(thread) = std::thread::Builder::new()
                .name("cicero-conn".to_owned())
                .spawn(move || serve_connection(&slot, stream))
            {
                threads.push(thread);
            }
        }

        // Drain: close the front door, then wait for every connection
        // thread to answer what was written and close.
        drop(self.listener);
        let drain_start = Instant::now();
        let deadline = drain_start + DRAIN_TIMEOUT;
        while self.shared.open.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Connection threads that missed the deadline are detached; their
        // sockets have read timeouts, so they exit shortly after — but
        // the drain is reported as incomplete. A thread that panicked
        // cost only its connection (the guards released its slot and
        // permit, the panic hook reported it), so its join error is
        // dropped.
        let drained = self.shared.open.load(Ordering::SeqCst) == 0;
        if drained {
            for thread in threads {
                let _ = thread.join();
            }
        }
        let wall = drain_start.elapsed();
        self.shared.telemetry.counter_add("server.drains", 1);
        self.shared.telemetry.gauge_set("server.drain_ms", wall.as_secs_f64() * 1e3);
        if let Some(path) = &self.options.trace_dump {
            match std::fs::write(path, self.shared.recorder.render_chrome_json()) {
                Ok(()) => self.shared.telemetry.counter_add("trace.dumps", 1),
                Err(_) => self.shared.telemetry.counter_add("trace.dump_errors", 1),
            }
        }
        self.shared.refresh_gauges();
        Ok(DrainReport {
            drained,
            wall,
            requests: self.shared.requests.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
        })
    }
}

/// The `Retry-After` hint on every backpressure answer — admission
/// `503`s, budget `429`s, and tenant-limit `429`s all call this one
/// function: the p50 of the observed `server.queue_wait_ms` histogram
/// rounded up to whole seconds, clamped to `[1, MAX_RETRY_AFTER_SECS]`.
/// With no observations yet there is nothing to scale from, so the
/// floor (1s) is used.
pub(crate) fn retry_after_secs(telemetry: &Telemetry) -> u64 {
    let Some(hist) = telemetry.histogram("server.queue_wait_ms") else {
        return 1;
    };
    if hist.count == 0 {
        return 1;
    }
    let target = hist.count.div_ceil(2);
    let mut cumulative = 0u64;
    let mut p50_ms = hist.max;
    for (i, &bucket) in hist.bucket_counts.iter().enumerate() {
        cumulative += bucket;
        if cumulative >= target {
            // The overflow bucket has no upper bound; fall back to the
            // largest observation.
            p50_ms = hist.bounds.get(i).copied().unwrap_or(hist.max);
            break;
        }
    }
    ((p50_ms / 1e3).ceil() as u64).clamp(1, MAX_RETRY_AFTER_SECS)
}

/// At capacity: answer `503` with a retry hint on the acceptor thread and
/// close. The write gets a short timeout so a slow-reading client cannot
/// stall admission for everyone else. The rejection never read the
/// request head, so the echoed request id is always server-minted.
fn reject_at_admission(shared: &Shared, mut stream: TcpStream) {
    shared.rejected.fetch_add(1, Ordering::SeqCst);
    shared.telemetry.counter_add("server.rejected", 1);
    shared.telemetry.counter_add("server.requests.other.503", 1);
    let request_id = format!("req-{}", shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let body = cicero_telemetry::JsonObject::new()
        .field("error", "server at capacity; connection queue is full")
        .finish();
    let _ = http::Response::json(503, body)
        .with_header("retry-after", retry_after_secs(&shared.telemetry).to_string())
        .with_header("x-cicero-request-id", request_id)
        .write_to(&mut stream, true);
    let _ = stream.flush();
}

/// The per-endpoint label used in `server.requests.<endpoint>.<status>`.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/match" => "match",
        "/scan" => "scan",
        "/scan/stream" => "scan_stream",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/shutdown" => "shutdown",
        _ if path == "/rulesets" || path.starts_with("/rulesets/") => "rulesets",
        _ if path == "/debug/traces" || path.starts_with("/debug/traces/") => "traces",
        _ => "other",
    }
}

/// Whether `path` is subject to per-tenant admission (the scan/match
/// work endpoints; control-plane and observability paths are exempt so
/// a rate-limited tenant can still read its metrics).
fn tenant_governed(path: &str) -> bool {
    matches!(path, "/match" | "/scan" | "/scan/stream")
}

/// One admitted connection's thread: read each request through one
/// `BufReader` that lives as long as the connection (so pipelined bytes
/// are never lost), then handle and answer it. Ends when the peer
/// closes, a request stalls or is malformed, a response says close, or
/// the drain finds the connection idle; `slot` is released by the
/// caller's drop, however the thread ends.
fn serve_connection(slot: &Slot, stream: TcpStream) {
    let shared = &*slot.0;
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        // An idle timeout closes the connection only if the drain flag
        // was already set when the read began, so a request written
        // before the flag is still read and answered.
        let draining = shared.is_draining();
        let keep_open = match http::read_request(&mut reader) {
            Ok(request) => serve_request(shared, reader.get_ref(), &request),
            Err(http::ReadError::IdleTimeout) => !draining,
            Err(error @ http::ReadError::Malformed(_)) => {
                answer_read_error(shared, reader.get_ref(), 400, &error);
                false
            }
            Err(error @ http::ReadError::TooLarge(_)) => {
                answer_read_error(shared, reader.get_ref(), 413, &error);
                false
            }
            Err(http::ReadError::Eof | http::ReadError::Io(_)) => false,
        };
        if !keep_open {
            return;
        }
    }
}

/// Handle and answer one request under a work permit. Its latency starts
/// when its read finished, so the wait for a permit (observed into
/// `server.queue_wait_ms` and recorded as the `admission.queue_wait`
/// span) counts against it. Returns whether the connection stays open.
fn serve_request(shared: &Shared, mut stream: &TcpStream, request: &http::Request) -> bool {
    let epoch = Instant::now();
    let permit = shared.acquire_permit();
    let queue_wait = epoch.elapsed();
    shared.telemetry.observe_with(
        "server.queue_wait_ms",
        queue_wait.as_secs_f64() * 1e3,
        LATENCY_BUCKETS_MS,
    );
    let request_id = shared.request_id_for(request);
    let ctx = TraceContext::with_epoch(&request_id, epoch);
    let root = ctx.root_span("request");
    root.annotate("method", request.method.as_str());
    root.annotate("path", request.path.as_str());
    root.annotate("queue_depth", shared.queued.load(Ordering::SeqCst));
    ctx.record_complete(
        Some(root.id()),
        "admission.queue_wait",
        Duration::ZERO,
        queue_wait,
        Vec::new(),
    );

    // Per-tenant admission happens after the head is read (the tenant is
    // a header) but before any work; the tenant permit is held for the
    // duration of the handler so the in-flight quota reflects real
    // concurrency.
    let response = match admit_tenant(shared, request) {
        Ok(_permit) => api::handle(shared, request, &root),
        Err(denied) => denied,
    }
    .with_header("x-cicero-request-id", request_id.clone());
    let status = response.status;
    // Draining closes after the response: the client gets its answer,
    // the connection thread gets free to exit.
    let close = request.wants_close() || shared.is_draining();
    let write_result = {
        let span = root.child("response.write");
        span.annotate("bytes", response.body.len());
        response.write_to(&mut stream, close)
    };
    let latency_ms = epoch.elapsed().as_secs_f64() * 1e3;
    root.annotate("status", u64::from(status));
    root.annotate("latency_ms", latency_ms);
    drop(root);

    let slow = shared.recorder.record(ctx.finish());
    shared.telemetry.counter_add("trace.requests", 1);
    if slow {
        shared.telemetry.counter_add("trace.slow", 1);
    }
    shared.telemetry.counter_add("server.requests", 1);
    shared
        .telemetry
        .counter_add(&format!("server.requests.{}.{}", endpoint_label(&request.path), status), 1);
    shared.telemetry.observe_with_exemplar(
        "server.latency_ms",
        latency_ms,
        LATENCY_BUCKETS_MS,
        &request_id,
    );
    shared.requests.fetch_add(1, Ordering::SeqCst);
    drop(permit);
    write_result.is_ok() && !close
}

/// Per-tenant admission for the work endpoints: `Ok` carries the permit
/// to hold while the request is served (`None` when ungoverned), `Err`
/// the ready-to-send `429` with the same p50-scaled `Retry-After` as
/// every other backpressure path.
fn admit_tenant(
    shared: &Shared,
    request: &http::Request,
) -> Result<Option<tenants::TenantPermit>, http::Response> {
    if !tenant_governed(&request.path) || !shared.tenants.policy().is_active() {
        return Ok(None);
    }
    let tenant = request.header("x-cicero-tenant").unwrap_or(tenants::DEFAULT_TENANT);
    match shared.tenants.admit(tenant) {
        Ok(permit) => Ok(Some(permit)),
        Err(denial) => {
            let reason = match denial {
                tenants::TenantDenial::RateLimited => "rate limit exceeded",
                tenants::TenantDenial::QuotaExceeded => "in-flight quota exceeded",
            };
            let body = cicero_telemetry::JsonObject::new()
                .field("error", format!("tenant {tenant:?}: {reason}"))
                .field("tenant", tenant)
                .field("reason", denial.label())
                .finish();
            Err(http::Response::json(429, body)
                .with_header("retry-after", retry_after_secs(&shared.telemetry).to_string()))
        }
    }
}

fn answer_read_error(
    shared: &Shared,
    mut stream: &TcpStream,
    status: u16,
    error: &http::ReadError,
) {
    shared.telemetry.counter_add("server.requests", 1);
    shared.telemetry.counter_add(&format!("server.requests.other.{status}"), 1);
    let body = cicero_telemetry::JsonObject::new().field("error", error.to_string()).finish();
    let _ = http::Response::json(status, body).write_to(&mut stream, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    fn start(
        options: ServerOptions,
    ) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<DrainReport>) {
        let server = Server::bind(options).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn options() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            // Inherit the server's default compiler options (host
            // backend) so the test fleet exercises the served default.
            runtime: RuntimeOptions { jobs: 1, ..ServerOptions::default().runtime },
            ..ServerOptions::default()
        }
    }

    /// One request over a fresh connection; returns the raw response.
    fn roundtrip_raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }

    /// One request over a fresh connection; returns (status, body).
    fn roundtrip(addr: SocketAddr, request: &str) -> (u16, String) {
        parse_response(&roundtrip_raw(addr, request))
    }

    /// Why [`read_one_response`] could not produce a full response.
    #[derive(Debug)]
    enum ResponseReadError {
        /// The stream ended before the head terminator.
        EarlyEof,
        /// The head parsed but carried no `content-length`, so the body
        /// length is unknowable (e.g. a header-only drain-path answer).
        MissingContentLength { head: String },
        /// The `content-length` value was not a number.
        BadContentLength(String),
        /// The transport failed mid-response.
        Io(std::io::Error),
    }

    impl std::fmt::Display for ResponseReadError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ResponseReadError::EarlyEof => write!(f, "eof before end of response head"),
                ResponseReadError::MissingContentLength { head } => {
                    write!(f, "response head has no content-length: {head:?}")
                }
                ResponseReadError::BadContentLength(value) => {
                    write!(f, "unparseable content-length {value:?}")
                }
                ResponseReadError::Io(e) => write!(f, "i/o error mid-response: {e}"),
            }
        }
    }

    /// Read exactly one keep-alive response: head to CRLFCRLF, then
    /// `content-length` body bytes. Malformed or truncated responses are
    /// typed errors, not panics, so a single bad answer (say a
    /// header-only 503 on the drain path) fails its own assertion
    /// instead of aborting the whole test.
    fn read_one_response<R: std::io::Read>(stream: &mut R) -> Result<String, ResponseReadError> {
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(0) => return Err(ResponseReadError::EarlyEof),
                Ok(_) => raw.push(byte[0]),
                Err(e) => return Err(ResponseReadError::Io(e)),
            }
        }
        let head = String::from_utf8_lossy(&raw).into_owned();
        let Some(length) = head.lines().find_map(|l| l.strip_prefix("content-length: ")) else {
            return Err(ResponseReadError::MissingContentLength { head });
        };
        let length: usize = length
            .trim()
            .parse()
            .map_err(|_| ResponseReadError::BadContentLength(length.trim().to_owned()))?;
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).map_err(ResponseReadError::Io)?;
        raw.extend_from_slice(&body);
        Ok(String::from_utf8_lossy(&raw).into_owned())
    }

    fn parse_response(raw: &str) -> (u16, String) {
        let status: u16 =
            raw.split(' ').nth(1).and_then(|code| code.parse().ok()).expect("status line");
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        (status, body)
    }

    fn get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n")
    }

    fn post(path: &str, body: &str, extra_headers: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\n{extra_headers}content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn response_reader_returns_typed_errors_instead_of_panicking() {
        // Header-only answer (no content-length): typed, not a panic.
        let mut cursor =
            std::io::Cursor::new(b"HTTP/1.1 503 unavailable\r\nretry-after: 2\r\n\r\n".to_vec());
        match read_one_response(&mut cursor) {
            Err(error @ ResponseReadError::MissingContentLength { .. }) => {
                assert!(error.to_string().contains("503"), "{error}");
            }
            other => panic!("expected MissingContentLength, got {other:?}"),
        }
        // Truncated head.
        let mut cursor = std::io::Cursor::new(b"HTTP/1.1 200 OK\r\n".to_vec());
        assert!(matches!(read_one_response(&mut cursor), Err(ResponseReadError::EarlyEof)));
        // Garbage length.
        let mut cursor =
            std::io::Cursor::new(b"HTTP/1.1 200 OK\r\ncontent-length: nope\r\n\r\n".to_vec());
        assert!(matches!(
            read_one_response(&mut cursor),
            Err(ResponseReadError::BadContentLength(_))
        ));
        // And a well-formed response still reads through.
        let mut cursor =
            std::io::Cursor::new(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok".to_vec());
        assert!(read_one_response(&mut cursor).unwrap().ends_with("ok"));
    }

    #[test]
    fn retry_after_scales_with_observed_queue_wait() {
        // No observations: the floor.
        let telemetry = Telemetry::new();
        assert_eq!(retry_after_secs(&telemetry), 1);
        // Sub-millisecond waits round up to the floor.
        let telemetry = Telemetry::new();
        for _ in 0..10 {
            telemetry.observe_with("server.queue_wait_ms", 0.2, LATENCY_BUCKETS_MS);
        }
        assert_eq!(retry_after_secs(&telemetry), 1);
        // A backed-up queue scales the hint: p50 lands in the 5000ms
        // bucket, so the client is told to come back in 5s.
        let telemetry = Telemetry::new();
        for _ in 0..10 {
            telemetry.observe_with("server.queue_wait_ms", 4200.0, LATENCY_BUCKETS_MS);
        }
        assert_eq!(retry_after_secs(&telemetry), 5);
        // Pathological waits clamp at the ceiling.
        let telemetry = Telemetry::new();
        for _ in 0..10 {
            telemetry.observe_with("server.queue_wait_ms", 120_000.0, LATENCY_BUCKETS_MS);
        }
        assert_eq!(retry_after_secs(&telemetry), MAX_RETRY_AFTER_SECS);
        // Mixed load: the p50, not the max, drives the hint.
        let telemetry = Telemetry::new();
        for _ in 0..8 {
            telemetry.observe_with("server.queue_wait_ms", 0.2, LATENCY_BUCKETS_MS);
        }
        for _ in 0..2 {
            telemetry.observe_with("server.queue_wait_ms", 120_000.0, LATENCY_BUCKETS_MS);
        }
        assert_eq!(retry_after_secs(&telemetry), 1);
    }

    #[test]
    fn serves_health_match_scan_and_metrics_then_drains() {
        let (addr, handle, join) = start(options());

        let (status, body) = roundtrip(addr, &get("/healthz"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (status, body) = roundtrip(
            addr,
            &post("/match", r#"{"patterns":["ab|cd","zz+"],"input":"xxcdxx"}"#, ""),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"pattern\":\"ab|cd\""), "{body}");
        assert!(body.contains("\"matched\":true"), "{body}");
        assert!(body.contains("\"matched\":false"), "{body}");

        let (status, body) = roundtrip(
            addr,
            &post("/scan", r#"{"patterns":["GET /","POST /"],"input":"GET /index POST /x"}"#, ""),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"matched\":true"), "{body}");
        // Both set members hit in the single chunk: all-matches counts.
        assert!(body.contains("\"chunks_matched\":1"), "{body}");

        let (status, body) = roundtrip(addr, &get("/metrics?format=summary"));
        assert_eq!(status, 200);
        assert!(body.contains("server.requests"), "{body}");
        let (status, jsonl) = roundtrip(addr, &get("/metrics?format=jsonl"));
        assert_eq!(status, 200);
        assert!(jsonl.lines().any(|l| l.contains("server.latency_ms")), "{jsonl}");

        handle.shutdown();
        let report = join.join().unwrap();
        assert!(report.drained, "drain timed out: {report:?}");
        assert!(report.requests >= 5);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn every_response_echoes_a_request_id() {
        let (addr, handle, join) = start(options());
        // No client id: the server mints one and echoes it.
        let raw = roundtrip_raw(addr, &get("/healthz"));
        assert!(raw.contains("x-cicero-request-id: req-1"), "{raw}");
        // Client-supplied ids are echoed verbatim, even on error paths.
        let raw = roundtrip_raw(
            addr,
            "GET /nowhere HTTP/1.1\r\nx-cicero-request-id: mine-42\r\nconnection: close\r\n\r\n",
        );
        let (status, _) = parse_response(&raw);
        assert_eq!(status, 404);
        assert!(raw.contains("x-cicero-request-id: mine-42"), "{raw}");
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn prometheus_exposition_and_queue_wait_are_served() {
        let (addr, handle, join) = start(options());
        let raw = roundtrip_raw(
            addr,
            "GET /healthz HTTP/1.1\r\nx-cicero-request-id: prom-1\r\nconnection: close\r\n\r\n",
        );
        assert!(raw.contains("200"), "{raw}");
        let (status, text) = roundtrip(addr, &get("/metrics?format=prometheus"));
        assert_eq!(status, 200, "{text}");
        assert!(text.contains("# TYPE server_requests counter"), "{text}");
        assert!(text.contains("server_latency_ms_bucket{le="), "{text}");
        assert!(text.contains("server_latency_ms_sum"), "{text}");
        assert!(text.contains("server_queue_wait_ms_count"), "{text}");
        // The latency histogram carries a request-id exemplar.
        assert!(text.contains("request_id=\"prom-1\""), "{text}");
        let (status, _) = roundtrip(addr, &get("/metrics?format=bogus"));
        assert_eq!(status, 400);
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    /// The tentpole acceptance path: one seeded `/scan` against a
    /// multi-worker server reconstructs, via `GET /debug/traces/{id}`,
    /// as a single connected span tree covering admission wait, compile
    /// (with per-pass timings), every worker's sim execution (cycle and
    /// icache attributes), the merge, and the response write.
    #[test]
    fn traced_scan_reconstructs_a_connected_span_tree() {
        use crate::json::{self, Json};
        // Pinned to the sim backend: this test documents the simulator's
        // cycle/icache span attributes (host serving is covered below).
        let (addr, handle, join) = start(ServerOptions {
            runtime: RuntimeOptions {
                jobs: 2,
                compiler: CompilerOptions::optimized().with_backend(Backend::Sim),
            },
            ..options()
        });
        // ~1320 bytes → three 500-byte chunks across two sim workers.
        let input = "GET /index ".repeat(120);
        let body = format!(r#"{{"patterns":["GET /","POST /"],"input":"{input}"}}"#);
        let raw = roundtrip_raw(addr, &post("/scan", &body, "x-cicero-request-id: trace-e2e\r\n"));
        let (status, _) = parse_response(&raw);
        assert_eq!(status, 200, "{raw}");
        assert!(raw.contains("x-cicero-request-id: trace-e2e"), "{raw}");

        let (status, trace_body) = roundtrip(addr, &get("/debug/traces/trace-e2e"));
        assert_eq!(status, 200, "{trace_body}");
        let doc = json::parse(&trace_body).unwrap();
        assert_eq!(doc.get("request_id").and_then(Json::as_str), Some("trace-e2e"));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        let ids: Vec<u64> =
            spans.iter().map(|s| s.get("id").and_then(Json::as_u64).unwrap()).collect();
        let mut roots = 0;
        for span in spans {
            match span.get("parent") {
                None => roots += 1,
                Some(parent) => {
                    let parent = parent.as_u64().unwrap();
                    assert!(ids.contains(&parent), "dangling parent {parent}: {trace_body}");
                }
            }
            assert!(span.get("open").is_none(), "unclosed span: {trace_body}");
        }
        assert_eq!(roots, 1, "{trace_body}");

        let names: Vec<&str> =
            spans.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap()).collect();
        for expect in
            ["request", "admission.queue_wait", "compile", "execute", "merge", "response.write"]
        {
            assert!(names.contains(&expect), "missing {expect} span: {names:?}");
        }
        assert!(
            names.iter().any(|n| n.starts_with("pass:")),
            "missing per-pass compile spans: {names:?}"
        );
        let workers: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str).unwrap().starts_with("sim.worker-"))
            .collect();
        assert!(!workers.is_empty(), "no worker spans: {names:?}");
        for worker in workers {
            let attrs = worker.get("attrs").expect("worker span attrs");
            assert!(attrs.get("cycles").and_then(Json::as_u64).is_some(), "{trace_body}");
            for key in ["icache_hits", "icache_misses", "inputs", "instructions"] {
                assert!(attrs.get(key).is_some(), "worker attrs missing {key}: {trace_body}");
            }
        }

        // The index lists it; the Chrome export is loadable trace JSON.
        let (status, index) = roundtrip(addr, &get("/debug/traces"));
        assert_eq!(status, 200);
        assert!(index.contains("trace-e2e"), "{index}");
        let (status, chrome) = roundtrip(addr, &get("/debug/traces/trace-e2e?format=chrome"));
        assert_eq!(status, 200);
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        let (status, _) = roundtrip(addr, &get("/debug/traces/unknown-id"));
        assert_eq!(status, 404);

        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    /// The served default path runs the host-native engine: worker
    /// spans are named `host.worker-N`, `/scan` per-pattern counts come
    /// from the host `run_all`, and `X-Cicero-Backend` flips a single
    /// request to the simulator (or rejects garbage with a 400).
    #[test]
    fn host_backend_is_the_served_default_and_header_selects_sim() {
        use crate::json::{self, Json};
        let (addr, handle, join) = start(options());
        assert_eq!(
            ServerOptions::default().runtime.compiler.backend,
            cicero_core::Backend::Host,
            "the server default must serve host-native"
        );

        // Default path: host execution, same verdicts and counts.
        let input = "GET /index POST /x ".repeat(60);
        let body = format!(r#"{{"patterns":["GET /","POST /"],"input":"{input}"}}"#);
        let raw = roundtrip_raw(addr, &post("/scan", &body, "x-cicero-request-id: host-e2e\r\n"));
        let (status, scan_body) = parse_response(&raw);
        assert_eq!(status, 200, "{raw}");
        assert!(scan_body.contains("\"matched\":true"), "{scan_body}");
        // Every 500-byte chunk contains both set members.
        let chunks = scan_body
            .split("\"chunks\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap();
        assert!(
            scan_body.matches(&format!("\"chunks_matched\":{chunks}")).count() == 2,
            "{scan_body}"
        );

        // The trace shows host workers, not sim workers.
        let (status, trace_body) = roundtrip(addr, &get("/debug/traces/host-e2e"));
        assert_eq!(status, 200, "{trace_body}");
        let doc = json::parse(&trace_body).unwrap();
        let names: Vec<String> = doc
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert!(names.iter().any(|n| n.starts_with("host.worker-")), "{names:?}");
        assert!(!names.iter().any(|n| n.starts_with("sim.worker-")), "{names:?}");

        // Header override: one request on the simulator, same answer.
        let body = r#"{"patterns":["ab|cd"],"input":"xxcdxx"}"#;
        let (status, sim_body) =
            roundtrip(addr, &post("/match", body, "x-cicero-backend: sim\r\n"));
        assert_eq!(status, 200, "{sim_body}");
        assert!(sim_body.contains("\"matched\":true"), "{sim_body}");
        let (status, host_body) =
            roundtrip(addr, &post("/match", body, "x-cicero-backend: host\r\n"));
        assert_eq!(status, 200, "{host_body}");
        assert!(host_body.contains("\"matched\":true"), "{host_body}");

        // Garbage backend names are a 400, not a silent default.
        let (status, err) = roundtrip(addr, &post("/match", body, "x-cicero-backend: fpga\r\n"));
        assert_eq!(status, 400, "{err}");
        assert!(err.contains("X-Cicero-Backend"), "{err}");

        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn drain_dumps_retained_traces_as_chrome_json() {
        let path =
            std::env::temp_dir().join(format!("cicero-trace-dump-{}.json", std::process::id()));
        let (addr, handle, join) =
            start(ServerOptions { trace_dump: Some(path.clone()), ..options() });
        let raw = roundtrip_raw(
            addr,
            "GET /healthz HTTP/1.1\r\nx-cicero-request-id: dump-1\r\nconnection: close\r\n\r\n",
        );
        assert!(raw.contains("200"), "{raw}");
        handle.shutdown();
        assert!(join.join().unwrap().drained);
        let dumped = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(dumped.contains("\"traceEvents\""), "{dumped}");
        assert!(dumped.contains("dump-1"), "{dumped}");
    }

    #[test]
    fn budget_header_trips_as_429_with_partial_progress() {
        let (addr, handle, join) = start(options());
        // One unit of fuel cannot finish any real input.
        let (status, body) = roundtrip(
            addr,
            &post(
                "/match",
                r#"{"patterns":["(ab|ba)+x"],"input":"abbaabbaabbaabba"}"#,
                "x-cicero-fuel: 1\r\n",
            ),
        );
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("\"budget_exceeded\":true"), "{body}");
        assert!(body.contains("\"verdict\":\"budget\""), "{body}");
        assert!(body.contains("\"kind\":\"fuel\""), "{body}");
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn match_deadline_bounds_the_whole_request_not_each_pattern() {
        let (addr, handle, join) = start(options());
        // The first pattern's compile plus its simulator pass over 64 KB
        // takes far longer than 1 ms (a started input always runs to
        // completion), so by the time the second pattern's batch starts
        // the request's deadline is spent: it must come back as a budget
        // row, not get a fresh millisecond of its own.
        let body =
            format!(r#"{{"patterns":["(ab|ba)+x","ab"],"input":"{}"}}"#, "abba".repeat(16 * 1024));
        let (status, body) = roundtrip(
            addr,
            &post("/match", &body, "x-cicero-deadline-ms: 1\r\nx-cicero-backend: sim\r\n"),
        );
        assert_eq!(status, 429, "{body}");
        let second = body.split("\"pattern\":\"ab\"").nth(1).expect("a row for the second pattern");
        assert!(second.starts_with(",\"verdict\":\"budget\""), "{body}");
        assert!(second.contains("\"kind\":\"deadline\""), "{body}");
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn malformed_requests_get_400_class_answers_not_hangs() {
        let (addr, handle, join) = start(options());
        let (status, _) = roundtrip(addr, &post("/match", "{not json", ""));
        assert_eq!(status, 400);
        let (status, _) = roundtrip(addr, &post("/match", r#"{"patterns":[],"input":"x"}"#, ""));
        assert_eq!(status, 400);
        let (status, _) = roundtrip(addr, &post("/scan", r#"{"patterns":["("],"input":"x"}"#, ""));
        assert_eq!(status, 400);
        let (status, _) = roundtrip(addr, &get("/nowhere"));
        assert_eq!(status, 404);
        let (status, _) = roundtrip(addr, &get("/match"));
        assert_eq!(status, 405);
        let (status, _) = roundtrip(addr, "BOGUS\r\n\r\n");
        assert_eq!(status, 400);
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn full_queue_rejects_with_503_and_a_retry_hint() {
        let (addr, handle, join) = start(ServerOptions { workers: 1, ..options() });
        // Silent connections fill the open-connection budget
        // (workers + QUEUE_DEPTH); each holds a connection thread but no
        // work permit.
        let idle: Vec<TcpStream> =
            (0..1 + QUEUE_DEPTH).map(|_| TcpStream::connect(addr).unwrap()).collect();
        std::thread::sleep(Duration::from_millis(100));
        // The next connection must be rejected at admission, instantly.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 503, "{raw}");
        // No request has waited for a permit yet, so the scaled hint
        // sits at its floor.
        assert!(raw.contains("retry-after: 1"), "{raw}");
        assert!(body.contains("capacity"), "{body}");
        // Free the connection slots, then drain.
        drop(idle);
        handle.shutdown();
        let report = join.join().unwrap();
        assert!(report.drained);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn idle_connections_do_not_occupy_workers() {
        // One work permit, but a pile of idle connections: a live
        // request must still be served promptly because an idle
        // connection's thread waits in a read, which holds no permit.
        let (addr, handle, join) = start(ServerOptions { workers: 1, ..options() });
        let idlers: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
        std::thread::sleep(Duration::from_millis(100));
        let (status, body) = roundtrip(addr, &get("/healthz"));
        assert_eq!(status, 200, "{body}");
        drop(idlers);
        handle.shutdown();
        let report = join.join().unwrap();
        assert!(report.drained, "{report:?}");
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn requests_in_flight_at_shutdown_are_answered_not_dropped() {
        // An idle keep-alive connection with a request written as the
        // drain begins must be read and answered, not closed: this is
        // the ConnectionModel contract, end to end.
        let (addr, handle, join) = start(ServerOptions { workers: 1, ..options() });
        // Prime: one served request so the connection is idle.
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = r#"{"patterns":["ab"],"input":"xaby"}"#;
        let request =
            format!("POST /match HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
        stream.write_all(request.as_bytes()).unwrap();
        let raw = read_one_response(&mut stream).unwrap_or_else(|e| panic!("{e}"));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        // Let it go idle, then race a request against shutdown.
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(request.as_bytes()).unwrap();
        handle.shutdown();
        stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        let raw = read_one_response(&mut stream).unwrap_or_else(|e| panic!("{e}"));
        // Answered (the read saw it before or after the flag landed) —
        // never silently closed.
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let report = join.join().unwrap();
        assert!(report.drained, "{report:?}");
    }

    #[test]
    fn shutdown_endpoint_drains_the_server() {
        let (addr, _handle, join) = start(options());
        let (status, body) = roundtrip(addr, &post("/shutdown", "", ""));
        assert_eq!(status, 200);
        assert!(body.contains("draining"), "{body}");
        let report = join.join().unwrap();
        assert!(report.drained);
    }

    /// One chunked-transfer POST over a fresh connection.
    fn post_chunked(path: &str, parts: &[&str], extra_headers: &str) -> String {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\n{extra_headers}transfer-encoding: chunked\r\nconnection: close\r\n\r\n"
        );
        for part in parts {
            request.push_str(&format!("{:x}\r\n{part}\r\n", part.len()));
        }
        request.push_str("0\r\n\r\n");
        request
    }

    #[test]
    fn ruleset_lifecycle_put_scan_swap_delete_over_http() {
        let (addr, handle, join) = start(options());

        // First install: 201 + a content-hash version header.
        let raw = roundtrip_raw(
            addr,
            &format!(
                "PUT /rulesets/web HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
                r#"{"patterns":["GET /","POST /"]}"#.len(),
                r#"{"patterns":["GET /","POST /"]}"#
            ),
        );
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 201, "{raw}");
        let version = raw
            .lines()
            .find_map(|l| l.strip_prefix("x-cicero-ruleset-version: "))
            .expect("version header")
            .to_owned();
        assert_eq!(version.len(), 16, "{raw}");
        assert!(body.contains(&format!("\"version\":\"{version}\"")), "{body}");

        // GET describes it; the collection lists it.
        let (status, body) = roundtrip(addr, &get("/rulesets/web"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"patterns\":[\"GET /\",\"POST /\"]"), "{body}");
        let (status, body) = roundtrip(addr, &get("/rulesets"));
        assert_eq!(status, 200);
        assert!(body.contains("\"id\":\"web\""), "{body}");

        // Scan against it: no patterns in the body, version tagged on
        // the response (field and header).
        let raw = roundtrip_raw(addr, &post("/scan?ruleset=web", r#"{"input":"GET /index"}"#, ""));
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200, "{raw}");
        assert!(body.contains("\"matched\":true"), "{body}");
        assert!(body.contains(&format!("\"ruleset_version\":\"{version}\"")), "{body}");
        assert!(raw.contains(&format!("x-cicero-ruleset-version: {version}")), "{raw}");

        // Patterns alongside ?ruleset= are rejected: the registry is
        // the pattern source.
        let (status, body) =
            roundtrip(addr, &post("/scan?ruleset=web", r#"{"patterns":["x"],"input":"y"}"#, ""));
        assert_eq!(status, 400, "{body}");

        // Hot swap: a new pattern set replaces the version in place.
        let put_body = r#"{"patterns":["DELETE /"]}"#;
        let raw = roundtrip_raw(
            addr,
            &format!(
                "PUT /rulesets/web HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{put_body}",
                put_body.len()
            ),
        );
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200, "swap is 200, not 201: {raw}");
        assert!(body.contains(&format!("\"replaced\":\"{version}\"")), "{body}");
        let raw = roundtrip_raw(addr, &post("/scan?ruleset=web", r#"{"input":"GET /index"}"#, ""));
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200);
        assert!(body.contains("\"matched\":false"), "old version must be gone: {body}");
        assert!(!raw.contains(&format!("x-cicero-ruleset-version: {version}")), "{raw}");

        // Delete, then the scan path 404s.
        let (status, body) =
            roundtrip(addr, "DELETE /rulesets/web HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        let (status, _) = roundtrip(addr, &post("/scan?ruleset=web", r#"{"input":"x"}"#, ""));
        assert_eq!(status, 404);
        let (status, _) = roundtrip(addr, &get("/rulesets/web"));
        assert_eq!(status, 404);

        // Invalid ids and bad methods are typed answers.
        let long_id = "x".repeat(registry::MAX_RULESET_ID + 1);
        let (status, _) = roundtrip(
            addr,
            &format!(
                "PUT /rulesets/{long_id} HTTP/1.1\r\ncontent-length: 18\r\nconnection: close\r\n\r\n{{\"patterns\":[\"a\"]}}"
            ),
        );
        assert_eq!(status, 400);
        let (status, _) = roundtrip(addr, &post("/rulesets/web", "{}", ""));
        assert_eq!(status, 405);

        // The registry.* namespace recorded the lifecycle.
        let (_, metrics) = roundtrip(addr, &get("/metrics?format=summary"));
        assert!(metrics.contains("registry.puts"), "{metrics}");
        assert!(metrics.contains("registry.deletes"), "{metrics}");

        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn scan_stream_is_invariant_to_http_chunk_boundaries() {
        let (addr, handle, join) = start(options());
        let put_body = r#"{"patterns":["GET /","POST /"]}"#;
        let raw = roundtrip_raw(
            addr,
            &format!(
                "PUT /rulesets/web HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{put_body}",
                put_body.len()
            ),
        );
        assert!(raw.contains("201"), "{raw}");

        // The same input three ways: whole body, two chunks, byte-wise
        // chunks. Pinned request ids make the raw responses comparable.
        let input = "xxxxxxxxxx GET /index yyyyyyyy";
        let id_header = "x-cicero-request-id: stream-inv\r\n";
        let whole = roundtrip_raw(addr, &post("/scan/stream?ruleset=web", input, id_header));
        let halves = roundtrip_raw(
            addr,
            &post_chunked("/scan/stream?ruleset=web", &[&input[..7], &input[7..]], id_header),
        );
        let bytes: Vec<String> = input.chars().map(|c| c.to_string()).collect();
        let byte_refs: Vec<&str> = bytes.iter().map(String::as_str).collect();
        let bytewise =
            roundtrip_raw(addr, &post_chunked("/scan/stream?ruleset=web", &byte_refs, id_header));
        assert_eq!(whole, halves, "HTTP chunking must not change a byte of the response");
        assert_eq!(whole, bytewise);
        let (status, body) = parse_response(&whole);
        assert_eq!(status, 200, "{whole}");
        assert!(body.contains("\"matched\":true"), "{body}");
        assert!(body.contains("\"ruleset_version\""), "{body}");

        // Engine chunk size is honored (and still deterministic).
        let raw = roundtrip_raw(
            addr,
            &post_chunked(
                "/scan/stream?ruleset=web",
                &[input],
                "x-cicero-request-id: stream-inv\r\nx-cicero-chunk-size: 8\r\n",
            ),
        );
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200, "{raw}");
        assert!(body.contains("\"chunk_bytes\":8"), "{body}");

        // Missing ?ruleset= and unknown ids are typed errors.
        let (status, _) = roundtrip(addr, &post("/scan/stream", "abc", ""));
        assert_eq!(status, 400);
        let (status, _) = roundtrip(addr, &post("/scan/stream?ruleset=nope", "abc", ""));
        assert_eq!(status, 404);

        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    /// Satellite: both 429 paths — budget trips and tenant rate limits —
    /// share [`retry_after_secs`], so a backed-up queue scales both
    /// `Retry-After` hints identically (no hardcoded constants).
    #[test]
    fn budget_and_tenant_429s_share_the_scaled_retry_after() {
        let telemetry = Telemetry::new();
        // Seed the queue-wait histogram so the p50 lands at the 5000ms
        // bucket: the shared helper must answer 5 on every path.
        for _ in 0..20 {
            telemetry.observe_with("server.queue_wait_ms", 4200.0, LATENCY_BUCKETS_MS);
        }
        assert_eq!(retry_after_secs(&telemetry), 5);
        let server = Server::bind_with_telemetry(
            ServerOptions {
                tenants: tenants::TenantPolicy {
                    max_in_flight: 0,
                    rate_per_sec: 0.001,
                    burst: 1.0,
                },
                ..options()
            },
            telemetry,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());

        // Path 1: a tripped budget.
        let raw = roundtrip_raw(
            addr,
            &post(
                "/match",
                r#"{"patterns":["(ab|ba)+x"],"input":"abbaabbaabba"}"#,
                "x-cicero-fuel: 1\r\n",
            ),
        );
        let (status, _) = parse_response(&raw);
        assert_eq!(status, 429, "{raw}");
        assert!(raw.contains("retry-after: 5"), "budget 429 must scale: {raw}");

        // Path 2: the token bucket (burst 1, negligible refill) denies
        // the second request.
        let body = r#"{"patterns":["ab"],"input":"xaby"}"#;
        let (status, _) = roundtrip(addr, &post("/match", body, "x-cicero-tenant: acme\r\n"));
        assert_eq!(status, 200);
        let raw = roundtrip_raw(addr, &post("/match", body, "x-cicero-tenant: acme\r\n"));
        let (status, deny_body) = parse_response(&raw);
        assert_eq!(status, 429, "{raw}");
        assert!(raw.contains("retry-after: 5"), "tenant 429 must scale identically: {raw}");
        assert!(deny_body.contains("rate_limited"), "{deny_body}");

        // Tenant-labeled counters joined the server.* namespace.
        let (_, metrics) = roundtrip(addr, &get("/metrics?format=summary"));
        assert!(metrics.contains("server.tenant.acme.requests"), "{metrics}");
        assert!(metrics.contains("server.tenant.acme.rate_limited"), "{metrics}");

        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn tenant_quota_bounds_in_flight_per_tenant_not_globally() {
        let policy = tenants::TenantPolicy { max_in_flight: 1, rate_per_sec: 0.0, burst: 0.0 };
        let (addr, handle, join) = start(ServerOptions { tenants: policy, ..options() });
        // Quota is per tenant: serial requests from one tenant all pass
        // (the permit releases with each response), and two tenants
        // never contend.
        let body = r#"{"patterns":["ab"],"input":"xaby"}"#;
        for tenant in ["a", "a", "b", "a"] {
            let (status, out) =
                roundtrip(addr, &post("/match", body, &format!("x-cicero-tenant: {tenant}\r\n")));
            assert_eq!(status, 200, "{out}");
        }
        // Control-plane endpoints are never tenant-governed.
        let (status, _) = roundtrip(addr, &get("/healthz"));
        assert_eq!(status, 200);
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn rulesets_persist_across_server_restarts() {
        let dir =
            std::env::temp_dir().join(format!("cicero-server-rulesets-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || ServerOptions { ruleset_dir: Some(dir.clone()), ..options() };
        let (addr, handle, join) = start(opts());
        let put_body = r#"{"patterns":["GET /"]}"#;
        let raw = roundtrip_raw(
            addr,
            &format!(
                "PUT /rulesets/web HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{put_body}",
                put_body.len()
            ),
        );
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 201, "{body}");
        let version = raw
            .lines()
            .find_map(|l| l.strip_prefix("x-cicero-ruleset-version: "))
            .unwrap()
            .to_owned();
        handle.shutdown();
        assert!(join.join().unwrap().drained);

        // A fresh bind restores the ruleset from the artifact, same
        // content-hash version.
        let (addr, handle, join) = start(opts());
        let raw = roundtrip_raw(addr, &post("/scan?ruleset=web", r#"{"input":"GET /x"}"#, ""));
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 200, "{raw}");
        assert!(body.contains("\"matched\":true"), "{body}");
        assert!(raw.contains(&format!("x-cicero-ruleset-version: {version}")), "{raw}");
        handle.shutdown();
        assert!(join.join().unwrap().drained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (addr, handle, join) = start(options());
        let mut stream = TcpStream::connect(addr).unwrap();
        for _ in 0..3 {
            let body = r#"{"patterns":["ab"],"input":"xaby"}"#;
            stream
                .write_all(
                    format!("POST /match HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len())
                        .as_bytes(),
                )
                .unwrap();
            let raw = read_one_response(&mut stream).unwrap_or_else(|e| panic!("{e}"));
            assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
            assert!(raw.contains("connection: keep-alive"), "{raw}");
        }
        drop(stream);
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        // Both requests arrive in one segment, so the first read buffers
        // the second: the buffer must outlive the first request.
        let (addr, handle, join) = start(options());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        let first = "GET /healthz HTTP/1.1\r\nx-cicero-request-id: pipe-1\r\n\r\n";
        let second =
            "GET /healthz HTTP/1.1\r\nx-cicero-request-id: pipe-2\r\nconnection: close\r\n\r\n";
        stream.write_all(format!("{first}{second}").as_bytes()).unwrap();
        for id in ["pipe-1", "pipe-2"] {
            let raw = read_one_response(&mut stream).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
            assert!(raw.contains(&format!("x-cicero-request-id: {id}")), "{raw}");
        }
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn a_stalled_client_does_not_hold_the_only_worker() {
        // One work permit, and a client that stops halfway through its
        // request head: its read holds no permit, so another client's
        // request is answered at once, not after the read timeout.
        let (addr, handle, join) = start(ServerOptions { workers: 1, ..options() });
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /healthz HTTP/1.1\r\nhost: x").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let (status, body) = roundtrip(addr, &get("/healthz"));
        let elapsed = started.elapsed();
        assert_eq!(status, 200, "{body}");
        assert!(elapsed < Duration::from_millis(100), "answered after {elapsed:?}");
        drop(stalled);
        handle.shutdown();
        assert!(join.join().unwrap().drained);
    }

    #[test]
    fn a_panic_while_serving_releases_the_slot_the_permit_and_in_flight() {
        let server = Server::bind(options()).unwrap();
        let shared = &server.shared;
        let held = || {
            let free = *shared.permits.lock().unwrap();
            (shared.open.load(Ordering::SeqCst), shared.in_flight.load(Ordering::SeqCst), free)
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = Slot::take(shared);
            let _permit = shared.acquire_permit();
            assert_eq!(held(), (1, 1, 1));
            std::panic::resume_unwind(Box::new("a handler panicked"));
        }));
        assert!(unwound.is_err());
        assert_eq!(held(), (0, 0, 2), "(open, in_flight, free permits) after the unwind");
    }
}
