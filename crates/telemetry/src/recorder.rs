//! The flight recorder: a fixed-size ring buffer of finished request
//! traces.
//!
//! Two rings: `recent` keeps the last [`RECENT_CAPACITY`] complete traces
//! regardless of latency; `slow` separately retains the last
//! [`SLOW_CAPACITY`] traces whose total duration reached
//! [`SLOW_THRESHOLD`], so a burst of fast requests can't
//! evict the one slow outlier you need for a post-mortem. The recorder
//! is dumped on graceful drain and served live at `GET /debug/traces`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::json::JsonObject;
use crate::trace::{render_chrome_trace, RequestTrace};

/// How many most-recent traces the recorder retains.
pub const RECENT_CAPACITY: usize = 64;

/// How many slow traces the recorder retains, in addition to
/// [`RECENT_CAPACITY`].
pub const SLOW_CAPACITY: usize = 32;

/// Traces at or above this total duration are retained as slow.
pub const SLOW_THRESHOLD: Duration = Duration::from_millis(250);

#[derive(Default)]
struct RecorderInner {
    recent: VecDeque<Arc<RequestTrace>>,
    slow: VecDeque<Arc<RequestTrace>>,
    recorded: u64,
    slow_recorded: u64,
}

/// A clonable handle to one flight recorder.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("FlightRecorder")
            .field("recent", &inner.recent.len())
            .field("slow", &inner.slow.len())
            .field("recorded", &inner.recorded)
            .finish()
    }
}

impl FlightRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Whether `trace` qualifies as slow under [`SLOW_THRESHOLD`].
    pub fn is_slow(&self, trace: &RequestTrace) -> bool {
        trace.total() >= SLOW_THRESHOLD
    }

    /// Retain a finished trace; returns whether it was classified slow.
    pub fn record(&self, trace: RequestTrace) -> bool {
        let trace = Arc::new(trace);
        let slow = self.is_slow(&trace);
        let mut inner = self.lock();
        inner.recorded += 1;
        if inner.recent.len() == RECENT_CAPACITY {
            inner.recent.pop_front();
        }
        inner.recent.push_back(Arc::clone(&trace));
        if slow {
            inner.slow_recorded += 1;
            if inner.slow.len() == SLOW_CAPACITY {
                inner.slow.pop_front();
            }
            inner.slow.push_back(trace);
        }
        slow
    }

    /// Look up a retained trace by request id (newest wins when a client
    /// reused an id).
    pub fn get(&self, request_id: &str) -> Option<Arc<RequestTrace>> {
        let inner = self.lock();
        inner
            .recent
            .iter()
            .rev()
            .chain(inner.slow.iter().rev())
            .find(|trace| trace.request_id == request_id)
            .map(Arc::clone)
    }

    /// All retained traces, oldest first; slow-only traces (already
    /// evicted from the recent ring) come before the recent ring.
    pub fn traces(&self) -> Vec<Arc<RequestTrace>> {
        let inner = self.lock();
        let mut out: Vec<Arc<RequestTrace>> = Vec::new();
        for trace in inner.slow.iter() {
            if !inner.recent.iter().any(|recent| Arc::ptr_eq(recent, trace)) {
                out.push(Arc::clone(trace));
            }
        }
        out.extend(inner.recent.iter().map(Arc::clone));
        out
    }

    /// Total traces ever recorded (not just retained).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Total traces ever classified slow.
    pub fn slow_recorded(&self) -> u64 {
        self.lock().slow_recorded
    }

    /// Number of currently retained traces.
    pub fn len(&self) -> usize {
        self.traces().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        let inner = self.lock();
        inner.recent.is_empty() && inner.slow.is_empty()
    }

    /// JSON index of retained traces (newest last).
    pub fn render_index_json(&self) -> String {
        let traces = self.traces();
        let (recorded, slow_recorded) = {
            let inner = self.lock();
            (inner.recorded, inner.slow_recorded)
        };
        let mut rows = String::from("[");
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            rows.push_str(
                &JsonObject::new()
                    .field("request_id", trace.request_id.as_str())
                    .field("total_us", (trace.total().as_secs_f64() * 1e9).round() / 1e3)
                    .field("span_count", trace.spans.len())
                    .field("slow", self.is_slow(trace))
                    .finish(),
            );
        }
        rows.push(']');
        JsonObject::new()
            .field("recorded", recorded)
            .field("slow_recorded", slow_recorded)
            .field("retained", traces.len())
            .field("slow_threshold_ms", SLOW_THRESHOLD.as_secs_f64() * 1e3)
            .field_raw("traces", &rows)
            .finish()
    }

    /// All retained traces as one Chrome `trace_event` document.
    pub fn render_chrome_json(&self) -> String {
        render_chrome_trace(&self.traces())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceContext;

    fn trace_with_total(id: &str, micros_total: u64) -> RequestTrace {
        let ctx = TraceContext::new(id);
        ctx.record_complete(
            None,
            "request",
            Duration::ZERO,
            Duration::from_micros(micros_total),
            Vec::new(),
        );
        ctx.finish()
    }

    #[test]
    fn recent_ring_evicts_oldest() {
        let recorder = FlightRecorder::new();
        for i in 0..=RECENT_CAPACITY {
            recorder.record(trace_with_total(&format!("req-{i}"), 10));
        }
        assert!(recorder.get("req-0").is_none());
        assert!(recorder.get("req-1").is_some());
        assert!(recorder.get(&format!("req-{RECENT_CAPACITY}")).is_some());
        assert_eq!(recorder.recorded(), RECENT_CAPACITY as u64 + 1);
        assert_eq!(recorder.len(), RECENT_CAPACITY);
    }

    #[test]
    fn slow_traces_survive_recent_eviction() {
        let threshold_us = SLOW_THRESHOLD.as_micros() as u64;
        let recorder = FlightRecorder::new();
        assert!(recorder.record(trace_with_total("slow-1", threshold_us)));
        assert!(!recorder.record(trace_with_total("just-under", threshold_us - 1)));
        for i in 0..RECENT_CAPACITY {
            assert!(!recorder.record(trace_with_total(&format!("fast-{i}"), 10)));
        }
        // Evicted from recent, retained as slow.
        assert!(recorder.get("slow-1").is_some());
        assert_eq!(recorder.slow_recorded(), 1);
        assert_eq!(recorder.len(), RECENT_CAPACITY + 1);
        let index = recorder.render_index_json();
        assert!(index.contains("\"slow\":true"), "{index}");
        assert!(index.contains("\"slow_threshold_ms\":250"), "{index}");
    }

    #[test]
    fn slow_ring_evicts_oldest() {
        let recorder = FlightRecorder::new();
        for i in 0..=SLOW_CAPACITY {
            assert!(recorder.record(trace_with_total(&format!("slow-{i}"), 300_000)));
        }
        for i in 0..RECENT_CAPACITY {
            recorder.record(trace_with_total(&format!("fast-{i}"), 10));
        }
        // Every slow trace left the recent ring; the slow ring kept the
        // newest SLOW_CAPACITY of them.
        assert!(recorder.get("slow-0").is_none());
        assert!(recorder.get("slow-1").is_some());
        assert_eq!(recorder.slow_recorded(), SLOW_CAPACITY as u64 + 1);
        assert_eq!(recorder.len(), RECENT_CAPACITY + SLOW_CAPACITY);
    }

    #[test]
    fn index_and_chrome_renderings_are_json() {
        let recorder = FlightRecorder::new();
        recorder.record(trace_with_total("req-a", 42));
        let index = recorder.render_index_json();
        assert!(index.starts_with('{') && index.ends_with('}'), "{index}");
        assert!(index.contains("req-a"), "{index}");
        let chrome = recorder.render_chrome_json();
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    }
}
