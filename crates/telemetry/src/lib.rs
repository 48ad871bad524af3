//! Unified telemetry substrate for the Cicero workspace.
//!
//! The paper's central claims are quantitative: per-pass compile-time
//! breakdowns (Fig. 9), code-size and `D_offset` deltas per
//! transformation (Figs. 8/10), and cycle / i-cache behaviour of the
//! parallel-enumeration microarchitecture (Table 5). This crate is the
//! single metrics substrate every layer reports through — mirroring how
//! MLIR treats pass instrumentation, timing, and statistics as one
//! cross-cutting infrastructure rather than ad-hoc per-tool counters.
//!
//! Three pieces, pure `std`:
//!
//! * **Metrics** ([`Telemetry::counter_add`], [`Telemetry::gauge_set`],
//!   [`Telemetry::observe`]): counters, gauges, and fixed-bucket
//!   histograms. The simulator folds every run's report into them.
//! * **Traces** ([`TraceContext`]): the one span API. A context is a tree
//!   of timed, annotated spans that may be opened on any thread; a server
//!   request and the `cicero trace`, `run` and `tune` commands each own
//!   one.
//! * **Sinks** ([`Telemetry::render_summary`],
//!   [`Telemetry::render_jsonl`], [`Telemetry::render_prometheus`], and
//!   the [`RequestTrace`] renderers): hand-rolled text, JSON-lines and
//!   Chrome-trace serializers, no external dependencies.
//!
//! A [`Telemetry`] value is a cheap clonable handle, so one collector can
//! be threaded through compiler, simulator, runtime, server and CLI at
//! once.
//!
//! # Metric namespaces
//!
//! Series names are dot-separated, with the first segment identifying the
//! emitting layer:
//!
//! * `compiler.*` — compilations, passes run or failed, and the last
//!   program's code size and `D_offset`;
//! * `sim.*` — one fold per simulated run: cycles, instructions, icache
//!   hit rate, stalls, verdicts;
//! * `runtime.*` — batch serving: batches, inputs, cache hits/misses,
//!   per-worker distributions, `worker_restarts` (panic recoveries) and
//!   `budget_exceeded` on the guarded path;
//! * `stream.*` — streaming scan sessions: `sessions`, `chunks`, `bytes`,
//!   `suspends` (chunk-boundary pauses), `peak_buffered` (sliding-buffer
//!   high-water mark), `budget_exceeded`;
//! * `server.*` — the HTTP serving tier: `requests` (total and
//!   per-`{endpoint}.{status}`), `rejected` (admission-control 503s),
//!   `latency_ms` histogram, `queue_depth`/`in_flight` gauges,
//!   `cache_hit_ratio`, `drains`/`drain_ms`;
//! * `difftest.*` — differential fuzzing: patterns, cases, divergences,
//!   shrink steps.
//!
//! # Example
//!
//! ```
//! use cicero_telemetry::{Telemetry, TraceContext};
//!
//! let telemetry = Telemetry::new();
//! telemetry.counter_add("sim.runs", 1);
//! telemetry.observe("sim.cycles", 1234.0);
//! let jsonl = telemetry.render_jsonl();
//! assert!(jsonl.contains("\"type\":\"counter\""));
//! assert!(jsonl.contains("\"type\":\"histogram\""));
//!
//! let ctx = TraceContext::new("example");
//! {
//!     let compile = ctx.root_span("compile");
//!     let pass = compile.child("pass:canonicalize");
//!     pass.annotate("ops_before", 10u64);
//!     pass.annotate("ops_after", 8u64);
//! } // both spans close here
//! assert!(ctx.finish().render_tree().contains("ops_after=8"));
//! ```

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod trace;

use std::sync::Arc;

pub use json::{escape_json, JsonObject, Value};
pub use metrics::{Exemplar, HistogramSnapshot, Metric, MetricsRegistry};
pub use recorder::FlightRecorder;
pub use trace::{render_chrome_trace, RequestTrace, TraceContext, TraceSpan, TraceSpanRecord};

/// A clonable handle to one telemetry collector.
#[derive(Clone)]
pub struct Telemetry {
    /// Counters / gauges / histograms: one map of shared atomic cells,
    /// shared by every clone (see [`mod@metrics`]).
    metrics: Arc<metrics::Cells>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("metrics", &self.merged_metrics().len()).finish()
    }
}

impl Telemetry {
    /// A fresh, empty collector.
    pub fn new() -> Telemetry {
        Telemetry { metrics: Arc::default() }
    }

    // -- metrics -----------------------------------------------------------
    //
    // After the first write of a name, `counter_add` / `observe` take the
    // map's read lock, look the name up and update its cell with relaxed
    // atomics; only a name's first write takes the write lock.

    /// Add `delta` to a (auto-registered) counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Set a (auto-registered) gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.metrics.gauge_set(name, value);
    }

    /// Record one observation into a histogram with default power-of-ten
    /// buckets (see [`metrics::DEFAULT_BUCKETS`]).
    pub fn observe(&self, name: &str, value: f64) {
        self.metrics.observe(name, value, metrics::DEFAULT_BUCKETS, None);
    }

    /// Record one observation into a histogram with explicit fixed bucket
    /// upper bounds (used on first registration; later calls reuse the
    /// registered bounds).
    pub fn observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        self.metrics.observe(name, value, bounds, None);
    }

    /// Record one observation and pin `label` (conventionally a request
    /// id) as the latest exemplar of the bucket it lands in, linking
    /// e.g. a p99 latency bucket back to the request that populated it.
    pub fn observe_with_exemplar(&self, name: &str, value: f64, bounds: &[f64], label: &str) {
        self.metrics.observe(name, value, bounds, Some(label));
    }

    /// Snapshot of one counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(total)) => total,
            _ => 0,
        }
    }

    /// Snapshot of one gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(value)) => Some(value),
            _ => None,
        }
    }

    /// Snapshot of one histogram.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(histogram)) => Some(histogram),
            _ => None,
        }
    }

    /// Snapshot of every metric, in name order (a gauge and an exemplar
    /// hold their latest write, whichever thread made it).
    pub fn merged_metrics(&self) -> MetricsRegistry {
        self.metrics.snapshot()
    }

    // -- sinks -------------------------------------------------------------

    /// Human-readable report: the metrics table.
    pub fn render_summary(&self) -> String {
        sink::render_summary(self)
    }

    /// JSON-lines export: one self-describing record per line.
    pub fn render_jsonl(&self) -> String {
        sink::render_jsonl(self)
    }

    /// Prometheus text exposition of the merged metrics.
    pub fn render_prometheus(&self) -> String {
        sink::render_prometheus(&self.merged_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let t = Telemetry::new();
        t.counter_add("c", 2);
        t.counter_add("c", 3);
        t.gauge_set("g", 1.0);
        t.gauge_set("g", 4.5);
        assert_eq!(t.counter("c"), 5);
        assert_eq!(t.gauge("g"), Some(4.5));
        assert_eq!(t.counter("absent"), 0);
    }

    #[test]
    fn histograms_bucket_correctly() {
        let t = Telemetry::new();
        for v in [0.5, 5.0, 50.0, 50.0, 5e9] {
            t.observe_with("h", v, &[1.0, 10.0, 100.0]);
        }
        let h = t.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.bucket_counts, vec![1, 1, 2, 1]); // ≤1, ≤10, ≤100, +inf
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 5e9);
    }

    #[test]
    fn clones_share_state() {
        let a = Telemetry::new();
        let b = a.clone();
        b.counter_add("shared", 7);
        assert_eq!(a.counter("shared"), 7);
    }

    #[test]
    fn jsonl_contains_every_record_kind() {
        let t = Telemetry::new();
        t.counter_add("c", 1);
        t.gauge_set("g", 2.0);
        t.observe("h", 3.0);
        let jsonl = t.render_jsonl();
        for kind in ["\"type\":\"counter\"", "\"type\":\"gauge\"", "\"type\":\"histogram\""] {
            assert!(jsonl.contains(kind), "missing {kind} in {jsonl}");
        }
        // Every line must be a standalone JSON object.
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn summary_mentions_metrics() {
        let t = Telemetry::new();
        t.counter_add("runs", 3);
        let summary = t.render_summary();
        assert!(summary.contains("runs"), "{summary}");
    }

    #[test]
    fn non_finite_observations_are_dropped_and_an_empty_histogram_is_zeroed() {
        let t = Telemetry::new();
        t.observe_with("h", f64::NAN, &[1.0]);
        t.observe_with("h", f64::INFINITY, &[1.0]);
        let empty = t.histogram("h").unwrap();
        assert_eq!((empty.count, empty.min, empty.max, empty.mean()), (0, 0.0, 0.0, 0.0));
        t.observe_with("h", 0.5, &[1.0]);
        let h = t.histogram("h").unwrap();
        assert_eq!((h.count, h.sum), (1, 0.5));
    }

    #[test]
    fn overflow_bucket_catches_large_values() {
        let t = Telemetry::new();
        t.observe_with("h", 99.0, &[1.0, 10.0]);
        assert_eq!(t.histogram("h").unwrap().bucket_counts, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let t = Telemetry::new();
        t.gauge_set("m", 1.0);
        t.counter_add("m", 1);
    }
}
