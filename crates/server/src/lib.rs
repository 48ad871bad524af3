//! `cicero-server` — a std-only HTTP/1.1 match-serving subsystem.
//!
//! The paper frames Cicero as a datacenter offload target: a regex
//! accelerator sitting behind deep-packet-inspection and log-scanning
//! services (§1). This crate is the host-side serving tier for that
//! story — a dependency-free HTTP front door over the existing
//! [`Runtime`] (worker pool + sharded LRU compiled-program cache), built
//! from `std::net` only:
//!
//! * **Readiness loop** — the accept thread owns every idle keep-alive
//!   connection in a *parked* set and polls it (nonblocking `peek`) for
//!   readability. Only connections with request bytes actually waiting
//!   are dispatched to the worker pool, so connection count decouples
//!   from handler-thread count: a thousand idle keep-alive clients cost
//!   one poller, not a thousand blocked workers. After a response, a
//!   worker waits [`KEEPALIVE_GRACE`] for a pipelined follow-up (the
//!   closed-loop fast path) and hands the connection back to the poller
//!   when none arrives — or after [`KEEPALIVE_BURST`] requests, so one
//!   fast client cannot monopolize a worker.
//! * **Admission control** — ready connections flow through a *bounded*
//!   dispatch queue ([`ServerOptions::queue_depth`]); total open
//!   connections are capped at `workers + queue_depth`. Beyond the cap a
//!   new connection is answered `503` and closed immediately, with a
//!   `Retry-After` hint scaled from the observed `server.queue_wait_ms`
//!   p50: overload sheds load at the front door instead of piling up
//!   latency, and a rejected client always gets a response, never a
//!   hang.
//! * **Endpoints** — `POST /match` (per-pattern verdicts over one input),
//!   `POST /scan` (multi-pattern set over 500-byte chunks, with
//!   all-matches per-pattern counts via [`cicero_isa::run_all`]),
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
//!   `POST /shutdown`) stops accepting, closes the listener, and sweeps
//!   the parked set: connections with a request already waiting are
//!   dispatched and served, truly idle ones are closed, and in-flight
//!   requests finish under [`ServerOptions::drain_timeout`]. The sweep
//!   ordering (dispatch-readable-before-close) is model-checked by the
//!   `cicero-permute` drain protocol; the [`DrainReport`] says whether
//!   the drain completed.
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

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cicero_core::{Backend, CompilerOptions};
use cicero_runtime::{Runtime, RuntimeOptions};
use cicero_sim::ArchConfig;
use cicero_telemetry::{FlightRecorder, FlightRecorderOptions, Telemetry, TraceContext};

pub use cicero_runtime::Budget;

/// How long the poller sleeps when an iteration made no progress (no
/// accepts, no reclaimed connections, nothing readable).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Socket read timeout for a dispatched connection: its request bytes
/// are already waiting (the poller saw them), so this only bounds how
/// long a client may stall mid-request before the worker gives up.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// After writing a response, how long a worker waits for the next
/// request before re-parking the connection. Closed-loop clients send
/// their follow-up within this window, keeping the hot path free of
/// poller round-trips; anything slower costs one readiness-loop cycle.
const KEEPALIVE_GRACE: Duration = Duration::from_millis(5);

/// Fairness bound: after this many grace-window requests on one
/// dispatch, the connection goes back to the poller even if more are
/// pipelined, so one fast closed-loop client cannot monopolize a worker
/// while ready connections sit parked.
const KEEPALIVE_BURST: usize = 32;

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
    /// Handler threads serving dispatched (readable) connections. Idle
    /// keep-alive connections are parked on the poller and cost no
    /// worker.
    pub workers: usize,
    /// Bound on ready-but-unserved dispatches. Total open connections
    /// are capped at `workers + queue_depth`; beyond that, new
    /// connections are rejected with `503`.
    pub queue_depth: usize,
    /// How long shutdown waits for queued + in-flight requests to finish.
    pub drain_timeout: Duration,
    /// Options for the inner matching [`Runtime`]. The default serves
    /// with the host-native backend ([`Backend::Host`]); a request can
    /// pick the cycle-level simulator with `X-Cicero-Backend: sim`.
    pub runtime: RuntimeOptions,
    /// Architecture simulated when a request does not name one.
    pub config: ArchConfig,
    /// Flight-recorder sizing and slow-trace policy (served at
    /// `GET /debug/traces`).
    pub recorder: FlightRecorderOptions,
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
            queue_depth: 64,
            drain_timeout: Duration::from_millis(5000),
            runtime: RuntimeOptions {
                compiler: CompilerOptions::optimized().with_backend(Backend::Host),
                ..RuntimeOptions::default()
            },
            config: ArchConfig::new_organization(16, 1),
            recorder: FlightRecorderOptions::default(),
            trace_dump: None,
            ruleset_dir: None,
            tenants: tenants::TenantPolicy::unlimited(),
        }
    }
}

/// What happened during shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every worker finished (queued + in-flight requests all
    /// served) before [`ServerOptions::drain_timeout`].
    pub drained: bool,
    /// Wall-clock time the drain took.
    pub wall: Duration,
    /// Requests served over the server's lifetime.
    pub requests: u64,
    /// Connections rejected at admission (`503`) over the lifetime.
    pub rejected: u64,
}

/// State shared between the poller, the workers, and handles.
pub(crate) struct Shared {
    pub(crate) runtime: Runtime,
    pub(crate) telemetry: Telemetry,
    pub(crate) recorder: FlightRecorder,
    pub(crate) registry: registry::RulesetRegistry,
    pub(crate) tenants: tenants::TenantGovernor,
    pub(crate) config: ArchConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) queued: AtomicUsize,
    pub(crate) open: AtomicUsize,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) requests: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) next_request_id: AtomicU64,
}

impl Shared {
    pub(crate) fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
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

    /// A connection is gone (closed by us or by the peer).
    fn release_connection(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin draining: the poller stops taking connections and
    /// [`Server::run`] returns once queued + in-flight requests finish
    /// (or the drain timeout passes). Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
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

/// A connection owned by the serving tier: parked on the poller between
/// requests, moved to a worker while one is being served.
struct Conn {
    stream: TcpStream,
    /// When the poller first saw request bytes waiting (cleared on every
    /// dispatch): the epoch for the admission-queue wait.
    ready_at: Option<Instant>,
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
        let shared = Arc::new(Shared {
            runtime,
            telemetry,
            recorder: FlightRecorder::new(options.recorder),
            registry,
            tenants,
            config: options.config.clone(),
            shutdown: AtomicBool::new(false),
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
    /// Blocks the calling thread for the server's whole lifetime; the
    /// readiness loop runs here (accept, park, poll for readability,
    /// dispatch) while `workers` handler threads serve ready
    /// connections from the bounded dispatch queue.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection failures are handled
    /// (and counted) without stopping the server.
    pub fn run(self) -> std::io::Result<DrainReport> {
        self.listener.set_nonblocking(true)?;
        let workers = self.options.workers.max(1);
        let depth = self.options.queue_depth.max(1);
        // Past this many open connections, admission rejects: every
        // worker busy and the dispatch queue full, with nothing parked.
        let capacity = workers + depth;
        let (tx, rx) = mpsc::sync_channel::<Conn>(depth);
        let rx = Arc::new(Mutex::new(rx));
        // Workers hand idle keep-alive connections back through here.
        let (park_tx, park_rx) = mpsc::channel::<Conn>();
        let live = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for worker in 0..workers {
            let shared = Arc::clone(&self.shared);
            let rx = Arc::clone(&rx);
            let park_tx = park_tx.clone();
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            joins.push(std::thread::Builder::new().name(format!("cicero-serve-{worker}")).spawn(
                move || {
                    loop {
                        // Hold the lock only for the dequeue, not
                        // while serving.
                        let next = {
                            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                            guard.recv()
                        };
                        let Ok(conn) = next else {
                            break; // queue closed and fully drained
                        };
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        match serve_dispatch(&shared, conn) {
                            Some(conn) => {
                                // Idle again: back to the poller. If the
                                // poller is gone (post-drain), close.
                                if conn.stream.set_nonblocking(true).is_err()
                                    || park_tx.send(conn).is_err()
                                {
                                    shared.release_connection();
                                }
                            }
                            None => shared.release_connection(),
                        }
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                },
            )?);
        }
        drop(park_tx);

        let mut parked: Vec<Conn> = Vec::new();
        while !self.shared.is_draining() {
            let mut progressed = false;
            // Accept everything waiting, up to the connection cap.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        self.shared.telemetry.counter_add("server.connections", 1);
                        if self.shared.open.load(Ordering::SeqCst) >= capacity {
                            reject_at_admission(&self.shared, stream);
                        } else {
                            self.shared.open.fetch_add(1, Ordering::SeqCst);
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_ok() {
                                parked.push(Conn { stream, ready_at: None });
                            } else {
                                self.shared.release_connection();
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Reclaim connections workers finished with.
            while let Ok(conn) = park_rx.try_recv() {
                parked.push(conn);
                progressed = true;
            }
            // Dispatch whatever became readable.
            progressed |= poll_parked(&self.shared, &mut parked, &tx, false);
            if !progressed {
                std::thread::sleep(ACCEPT_POLL);
            }
        }

        // Drain: close the front door, then sweep the parked set —
        // connections with a request already waiting are dispatched and
        // served, truly idle ones are closed. (The sweep ordering is
        // model-checked by cicero-permute's DrainModel: closing parked
        // connections indiscriminately drops requests.) Dropping `tx`
        // afterwards makes `recv` fail once the queue empties, so each
        // worker exits after its current connection.
        drop(self.listener);
        let drain_start = Instant::now();
        let deadline = drain_start + self.options.drain_timeout;
        while self.shared.open.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            while let Ok(conn) = park_rx.try_recv() {
                parked.push(conn);
            }
            poll_parked(&self.shared, &mut parked, &tx, true);
            if self.shared.open.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Anything still parked at the deadline is abandoned.
        for conn in parked.drain(..) {
            drop(conn);
            self.shared.release_connection();
        }
        drop(tx);
        while live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = live.load(Ordering::SeqCst) == 0;
        if drained {
            for join in joins {
                let _ = join.join();
            }
        }
        // Workers that missed the deadline are detached; their sockets
        // have read timeouts, so they exit shortly after — but the drain
        // is reported as incomplete.
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

/// One readiness pass over the parked set: dispatch connections with
/// request bytes waiting, close ones the peer hung up on. When
/// `draining`, idle connections are closed instead of staying parked.
/// Returns whether anything happened.
fn poll_parked(
    shared: &Shared,
    parked: &mut Vec<Conn>,
    tx: &SyncSender<Conn>,
    draining: bool,
) -> bool {
    let mut progressed = false;
    let mut keep = Vec::with_capacity(parked.len());
    for mut conn in parked.drain(..) {
        let mut probe = [0u8; 1];
        match conn.stream.peek(&mut probe) {
            // Peer closed while parked.
            Ok(0) => {
                shared.release_connection();
                progressed = true;
            }
            // Request bytes waiting: hand to a worker. The dispatch gets
            // blocking reads back; the gauge counts it as queued from
            // before the send so a fast worker's decrement cannot
            // underflow (ordering model-checked by AdmissionModel).
            Ok(_) => {
                if conn.ready_at.is_none() {
                    conn.ready_at = Some(Instant::now());
                }
                if conn.stream.set_nonblocking(false).is_err()
                    || conn.stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
                {
                    shared.release_connection();
                    progressed = true;
                    continue;
                }
                shared.queued.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(conn) {
                    Ok(()) => progressed = true,
                    // Queue full: back to the parked set (ready_at keeps
                    // accruing the wait) and retry next pass.
                    Err(TrySendError::Full(conn)) => {
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        if conn.stream.set_nonblocking(true).is_ok() {
                            keep.push(conn);
                        } else {
                            shared.release_connection();
                        }
                    }
                    Err(TrySendError::Disconnected(conn)) => {
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        drop(conn);
                        shared.release_connection();
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) =>
            {
                if draining {
                    shared.release_connection();
                    progressed = true;
                } else {
                    keep.push(conn);
                }
            }
            Err(_) => {
                shared.release_connection();
                progressed = true;
            }
        }
    }
    *parked = keep;
    progressed
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

/// At capacity: answer `503` with a retry hint on the poller thread and
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

/// Serve one dispatched (readable) connection: the waiting request, plus
/// any follow-ups that arrive within [`KEEPALIVE_GRACE`] of a response.
///
/// Returns `Some(conn)` to re-park the still-open idle connection (the
/// caller routes it back to the poller), `None` when it was closed (the
/// caller releases the open-connection slot).
///
/// The first request's latency epoch is the instant the poller saw its
/// bytes arrive, so the dispatch-queue wait (observed into
/// `server.queue_wait_ms` and visible as the `admission.queue_wait`
/// span) counts against it; grace-window follow-ups start their clock
/// when their head finishes reading.
fn serve_dispatch(shared: &Shared, mut conn: Conn) -> Option<Conn> {
    let ready_at = conn.ready_at.take().unwrap_or_else(Instant::now);
    let queue_wait = ready_at.elapsed();
    shared.telemetry.observe_with(
        "server.queue_wait_ms",
        queue_wait.as_secs_f64() * 1e3,
        LATENCY_BUCKETS_MS,
    );
    let mut first_request = Some((ready_at, queue_wait));
    let mut served_this_dispatch = 0usize;
    loop {
        match http::read_request(&mut conn.stream) {
            Ok(request) => {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                let (epoch, queue_wait) = match first_request.take() {
                    Some((ready_at, wait)) => (ready_at, Some(wait)),
                    None => (Instant::now(), None),
                };
                let request_id = shared.request_id_for(&request);
                let ctx = TraceContext::with_epoch(&request_id, epoch);
                let root = ctx.root_span("request");
                root.annotate("method", request.method.as_str());
                root.annotate("path", request.path.as_str());
                root.annotate("queue_depth", shared.queued.load(Ordering::SeqCst));
                if let Some(wait) = queue_wait {
                    ctx.record_complete(
                        Some(root.id()),
                        "admission.queue_wait",
                        Duration::ZERO,
                        wait,
                        Vec::new(),
                    );
                }

                // Per-tenant admission happens after the head is read
                // (the tenant is a header) but before any work; the
                // permit is held for the duration of the handler so the
                // in-flight quota reflects real concurrency.
                let response = match admit_tenant(shared, &request) {
                    Ok(_permit) => api::handle(shared, &request, &root),
                    Err(denied) => denied,
                }
                .with_header("x-cicero-request-id", request_id.clone());
                let status = response.status;
                // Draining closes after the response: the client gets its
                // answer, the worker gets free to exit.
                let close = request.wants_close() || shared.is_draining();
                let write_result = {
                    let span = root.child("response.write");
                    span.annotate("bytes", response.body.len());
                    response.write_to(&mut conn.stream, close)
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
                shared.telemetry.counter_add(
                    &format!("server.requests.{}.{}", endpoint_label(&request.path), status),
                    1,
                );
                shared.telemetry.observe_with_exemplar(
                    "server.latency_ms",
                    latency_ms,
                    LATENCY_BUCKETS_MS,
                    &request_id,
                );
                shared.requests.fetch_add(1, Ordering::SeqCst);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                if write_result.is_err() || close {
                    return None;
                }
                served_this_dispatch += 1;
                if served_this_dispatch >= KEEPALIVE_BURST {
                    return Some(conn); // fairness: let parked peers in
                }
                // Pipelined follow-up fast path: wait briefly before
                // giving the connection back to the poller.
                if conn.stream.set_read_timeout(Some(KEEPALIVE_GRACE)).is_err() {
                    return None;
                }
            }
            Err(http::ReadError::Eof) => return None,
            Err(http::ReadError::IdleTimeout) => {
                // Idle again. During a drain the poller would just close
                // it, so do that here.
                return if shared.is_draining() { None } else { Some(conn) };
            }
            Err(http::ReadError::Io(_)) => return None,
            Err(error @ http::ReadError::Malformed(_)) => {
                answer_read_error(shared, &mut conn.stream, 400, &error);
                return None;
            }
            Err(error @ http::ReadError::TooLarge(_)) => {
                answer_read_error(shared, &mut conn.stream, 413, &error);
                return None;
            }
        }
    }
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
    stream: &mut TcpStream,
    status: u16,
    error: &http::ReadError,
) {
    shared.telemetry.counter_add("server.requests", 1);
    shared.telemetry.counter_add(&format!("server.requests.other.{status}"), 1);
    let body = cicero_telemetry::JsonObject::new().field("error", error.to_string()).finish();
    let _ = http::Response::json(status, body).write_to(stream, true);
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
            queue_depth: 8,
            drain_timeout: Duration::from_millis(3000),
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
                ..RuntimeOptions::default()
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
        let (addr, handle, join) = start(ServerOptions { workers: 1, queue_depth: 1, ..options() });
        // Two silent connections fill the open-connection budget
        // (workers + queue_depth = 2); they park on the poller without
        // costing a worker.
        let idle = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // The third connection must be rejected at admission, instantly.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 503, "{raw}");
        // Nothing has waited in the dispatch queue yet, so the scaled
        // hint sits at its floor.
        assert!(raw.contains("retry-after: 1"), "{raw}");
        assert!(body.contains("capacity"), "{body}");
        // Free the connection slots, then drain.
        drop(idle);
        drop(queued);
        handle.shutdown();
        let report = join.join().unwrap();
        assert!(report.drained);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn idle_connections_do_not_occupy_workers() {
        // One worker, but a pile of parked idle connections: a live
        // request must still be served promptly because idle keep-alive
        // connections wait on the poller, not on the worker pool.
        let (addr, handle, join) = start(ServerOptions { workers: 1, queue_depth: 8, ..options() });
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
        // A parked connection with a request already written must be
        // swept into the dispatch queue on drain, not closed: this is
        // the DrainModel contract, end to end.
        let (addr, handle, join) = start(ServerOptions { workers: 1, ..options() });
        // Prime: one served request so the connection is parked idle.
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = r#"{"patterns":["ab"],"input":"xaby"}"#;
        let request =
            format!("POST /match HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len());
        stream.write_all(request.as_bytes()).unwrap();
        let raw = read_one_response(&mut stream).unwrap_or_else(|e| panic!("{e}"));
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        // Park it (outlive the grace window), then race a request
        // against shutdown.
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(request.as_bytes()).unwrap();
        handle.shutdown();
        stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
        let raw = read_one_response(&mut stream).unwrap_or_else(|e| panic!("{e}"));
        // Answered (maybe before the flag landed, maybe via the drain
        // sweep) — never silently closed.
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
}
