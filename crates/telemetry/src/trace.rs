//! Tracing: span trees that cross threads.
//!
//! A [`TraceContext`] carries an explicit parent/child graph keyed by
//! span ids, so work that fans out across pooled workers still
//! reconstructs as one connected tree — a `/scan` request as admission
//! wait → compile (per-pass children) → per-worker execution → merge →
//! response write.
//!
//! * [`TraceContext`] — cheap clonable handle, one per request (or per
//!   CLI command), minted with the request id (client-supplied
//!   `X-Cicero-Request-Id` or server-generated). The epoch can be pinned
//!   to the accept instant so queue wait is visible at offset zero.
//! * [`TraceSpan`] — an open span; `child()` nests, `annotate()`
//!   attaches key/values, drop closes. Sendable across scoped threads.
//! * [`RequestTrace`] — the finished, immutable tree with JSON / text
//!   tree / Chrome `trace_event` renderers (the latter loads directly in
//!   Perfetto or `chrome://tracing`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::JsonObject;
use crate::Value;

fn micros(d: Duration) -> f64 {
    // Round to nanosecond granularity so exported floats stay compact.
    (d.as_secs_f64() * 1e9).round() / 1e3
}

/// Stable per-thread ordinal: Chrome trace viewers lay spans out on one
/// row per (pid, tid), which keeps parallel workers visually separate.
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|ordinal| *ordinal)
}

/// One span in a request trace.
#[derive(Debug, Clone)]
pub struct TraceSpanRecord {
    /// Span id, unique within the trace (index order = open order).
    pub id: u32,
    /// Parent span id; `None` for the root.
    pub parent: Option<u32>,
    /// Span name, e.g. `sim.worker-1`.
    pub name: String,
    /// Start offset relative to the trace epoch.
    pub start: Duration,
    /// Wall-clock duration (zero until the span closes).
    pub duration: Duration,
    /// Ordinal of the thread that opened the span.
    pub tid: u64,
    /// Whether the span closed before the trace finished.
    pub closed: bool,
    /// Key/value annotations, in insertion order.
    pub attrs: Vec<(String, Value)>,
}

struct TraceInner {
    request_id: String,
    epoch: Instant,
    spans: Mutex<Vec<TraceSpanRecord>>,
}

/// A clonable handle to one request's trace. Clones share state, so the
/// context can fan out across worker threads.
#[derive(Clone)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceContext")
            .field("request_id", &self.inner.request_id)
            .field("spans", &self.lock_spans().len())
            .finish()
    }
}

impl TraceContext {
    /// A fresh trace whose epoch is now.
    pub fn new(request_id: impl Into<String>) -> TraceContext {
        TraceContext::with_epoch(request_id, Instant::now())
    }

    /// A fresh trace with an explicit epoch (e.g. the connection accept
    /// instant, so admission-queue wait shows up from offset zero).
    pub fn with_epoch(request_id: impl Into<String>, epoch: Instant) -> TraceContext {
        TraceContext {
            inner: Arc::new(TraceInner {
                request_id: request_id.into(),
                epoch,
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The request id this trace belongs to.
    pub fn request_id(&self) -> &str {
        &self.inner.request_id
    }

    fn lock_spans(&self) -> MutexGuard<'_, Vec<TraceSpanRecord>> {
        self.inner.spans.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn open(&self, parent: Option<u32>, name: String, start_at: Instant) -> TraceSpan {
        let start = start_at.saturating_duration_since(self.inner.epoch);
        let id = {
            let mut spans = self.lock_spans();
            let id = u32::try_from(spans.len()).expect("span count fits u32");
            spans.push(TraceSpanRecord {
                id,
                parent,
                name,
                start,
                duration: Duration::ZERO,
                tid: thread_ordinal(),
                closed: false,
                attrs: Vec::new(),
            });
            id
        };
        TraceSpan { ctx: self.clone(), id, start: start_at }
    }

    /// Open the root span at the trace epoch (offset zero), covering
    /// everything including time spent queued before the handler ran.
    pub fn root_span(&self, name: impl Into<String>) -> TraceSpan {
        self.open(None, name.into(), self.inner.epoch)
    }

    /// Open a span starting now under an explicit parent (or as another
    /// root when `parent` is `None`). This is how worker threads attach
    /// their spans to a parent living on the request thread.
    pub fn child_of(&self, parent: Option<u32>, name: impl Into<String>) -> TraceSpan {
        self.open(parent, name.into(), Instant::now())
    }

    /// Record an already-finished span, e.g. a per-pass timing taken from
    /// the compiler's pass report, or the admission wait measured before
    /// the trace existed. Returns the new span's id.
    pub fn record_complete(
        &self,
        parent: Option<u32>,
        name: impl Into<String>,
        start: Duration,
        duration: Duration,
        attrs: Vec<(String, Value)>,
    ) -> u32 {
        let mut spans = self.lock_spans();
        let id = u32::try_from(spans.len()).expect("span count fits u32");
        spans.push(TraceSpanRecord {
            id,
            parent,
            name: name.into(),
            start,
            duration,
            tid: thread_ordinal(),
            closed: true,
            attrs,
        });
        id
    }

    /// Snapshot the trace into an immutable [`RequestTrace`]. Open spans
    /// are retained with `closed: false` and zero duration.
    pub fn finish(&self) -> RequestTrace {
        let spans = self.lock_spans().clone();
        let total =
            spans.iter().map(|span| span.start + span.duration).max().unwrap_or(Duration::ZERO);
        RequestTrace { request_id: self.inner.request_id.clone(), spans, total }
    }
}

/// An open span in a request trace; records its duration when dropped.
#[derive(Debug)]
pub struct TraceSpan {
    ctx: TraceContext,
    id: u32,
    start: Instant,
}

impl TraceSpan {
    /// This span's id (for parenting spans opened on other threads).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The trace this span belongs to.
    pub fn context(&self) -> &TraceContext {
        &self.ctx
    }

    /// This span's start offset relative to the trace epoch.
    pub fn start_offset(&self) -> Duration {
        self.start.saturating_duration_since(self.ctx.inner.epoch)
    }

    /// Open a child span starting now.
    pub fn child(&self, name: impl Into<String>) -> TraceSpan {
        self.ctx.child_of(Some(self.id), name)
    }

    /// Attach a key/value annotation.
    pub fn annotate(&self, key: impl Into<String>, value: impl Into<Value>) {
        let mut spans = self.ctx.lock_spans();
        spans[self.id as usize].attrs.push((key.into(), value.into()));
    }

    /// Close the span now (equivalent to dropping it).
    pub fn close(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let mut spans = self.ctx.lock_spans();
        let record = &mut spans[self.id as usize];
        record.duration = elapsed;
        record.closed = true;
    }
}

/// A finished request trace: one connected span tree.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The request id the trace was minted with.
    pub request_id: String,
    /// All spans, in open order (ids are indices).
    pub spans: Vec<TraceSpanRecord>,
    /// End offset of the latest-ending span.
    pub total: Duration,
}

impl RequestTrace {
    /// Total trace duration (epoch to latest span end).
    pub fn total(&self) -> Duration {
        self.total
    }

    /// First span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&TraceSpanRecord> {
        self.spans.iter().find(|span| span.name == name)
    }

    /// All spans whose name starts with `prefix`.
    pub fn spans_with_prefix(&self, prefix: &str) -> Vec<&TraceSpanRecord> {
        self.spans.iter().filter(|span| span.name.starts_with(prefix)).collect()
    }

    fn span_json(span: &TraceSpanRecord) -> String {
        let mut obj = JsonObject::new()
            .field("id", span.id)
            .field("name", span.name.as_str())
            .field("start_us", micros(span.start))
            .field("duration_us", micros(span.duration))
            .field("tid", span.tid);
        if let Some(parent) = span.parent {
            obj = obj.field("parent", parent);
        }
        if !span.closed {
            obj = obj.field("open", true);
        }
        if !span.attrs.is_empty() {
            obj = obj.field_object("attrs", &span.attrs);
        }
        obj.finish()
    }

    /// One JSON object for the whole trace (see `docs/OBSERVABILITY.md`
    /// for the schema).
    pub fn render_json(&self, slow: bool) -> String {
        let mut spans = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            spans.push_str(&RequestTrace::span_json(span));
        }
        spans.push(']');
        JsonObject::new()
            .field("request_id", self.request_id.as_str())
            .field("total_us", micros(self.total))
            .field("span_count", self.spans.len())
            .field("slow", slow)
            .field_raw("spans", &spans)
            .finish()
    }

    /// The trace as one JSON-lines record: the
    /// [`RequestTrace::render_json`] object with `"type":"trace"` first.
    pub fn render_jsonl_record(&self) -> String {
        format!("{{\"type\":\"trace\",{}", &self.render_json(false)[1..])
    }

    /// Indented text rendering of the span tree (children ordered by
    /// start offset, then id).
    pub fn render_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (index, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(parent) if (parent as usize) < self.spans.len() => {
                    children[parent as usize].push(index);
                }
                _ => roots.push(index),
            }
        }
        let order = |list: &mut Vec<usize>| {
            list.sort_by_key(|&i| (self.spans[i].start, self.spans[i].id));
        };
        order(&mut roots);
        for list in &mut children {
            order(list);
        }

        let mut out = String::new();
        let _ = writeln!(out, "trace {} ({:.1} us)", self.request_id, micros(self.total));
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((index, depth)) = stack.pop() {
            let span = &self.spans[index];
            let indent = "  ".repeat(depth + 1);
            let _ = write!(
                out,
                "{indent}{}  {:>10.1} us  [tid {}]",
                span.name,
                micros(span.duration),
                span.tid
            );
            if !span.closed {
                out.push_str("  (open)");
            }
            for (key, value) in &span.attrs {
                let _ = write!(out, "  {key}={value}");
            }
            out.push('\n');
            for &child in children[index].iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        out
    }

    /// Append this trace's Chrome `trace_event` objects (one complete
    /// `"ph":"X"` event per span) to `events`, under process id `pid`.
    pub fn chrome_events_into(&self, pid: u64, events: &mut Vec<String>) {
        for span in &self.spans {
            let mut args = vec![
                ("request_id".to_owned(), Value::from(self.request_id.as_str())),
                ("span_id".to_owned(), Value::from(span.id)),
            ];
            if let Some(parent) = span.parent {
                args.push(("parent".to_owned(), Value::from(parent)));
            }
            args.extend(span.attrs.iter().cloned());
            let event = JsonObject::new()
                .field("name", span.name.as_str())
                .field("cat", "cicero")
                .field("ph", "X")
                .field("ts", micros(span.start))
                .field("dur", micros(span.duration))
                .field("pid", pid)
                .field("tid", span.tid)
                .field_object("args", &args)
                .finish();
            events.push(event);
        }
    }
}

/// Render a set of traces as one Chrome `trace_event` JSON document
/// (loadable in Perfetto or `chrome://tracing`); each trace becomes its
/// own process row.
pub fn render_chrome_trace<T: AsRef<RequestTrace>>(traces: &[T]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (index, trace) in traces.iter().enumerate() {
        let trace = trace.as_ref();
        let pid = index as u64 + 1;
        events.push(
            JsonObject::new()
                .field("name", "process_name")
                .field("ph", "M")
                .field("pid", pid)
                .field("tid", 0u64)
                .field_raw(
                    "args",
                    &JsonObject::new().field("name", trace.request_id.as_str()).finish(),
                )
                .finish(),
        );
        trace.chrome_events_into(pid, &mut events);
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(event);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

impl AsRef<RequestTrace> for RequestTrace {
    fn as_ref(&self) -> &RequestTrace {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_connected_tree_across_threads() {
        let ctx = TraceContext::new("req-1");
        let root = ctx.root_span("request");
        let root_id = root.id();
        std::thread::scope(|scope| {
            for worker in 0u64..2 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let span = ctx.child_of(Some(root_id), format!("sim.worker-{worker}"));
                    span.annotate("cycles", 10u64 * (worker + 1));
                });
            }
        });
        drop(root);
        let trace = ctx.finish();
        assert_eq!(trace.spans.len(), 3);
        let roots = trace.spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 1);
        for span in &trace.spans {
            assert!(span.closed, "{} should be closed", span.name);
            if let Some(parent) = span.parent {
                assert!((parent as usize) < trace.spans.len());
            }
        }
        let workers = trace.spans_with_prefix("sim.worker-");
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|w| w.parent == Some(root_id)));
    }

    #[test]
    fn record_complete_backfills_synthetic_spans() {
        let ctx = TraceContext::new("req-2");
        let root = ctx.root_span("request");
        let id = ctx.record_complete(
            Some(root.id()),
            "pass:canonicalize",
            Duration::from_micros(5),
            Duration::from_micros(7),
            vec![("ops_before".to_owned(), Value::from(4u64))],
        );
        drop(root);
        let trace = ctx.finish();
        let pass = trace.span("pass:canonicalize").unwrap();
        assert_eq!(pass.id, id);
        assert!(pass.closed);
        assert_eq!(pass.start, Duration::from_micros(5));
        assert_eq!(pass.duration, Duration::from_micros(7));
    }

    #[test]
    fn json_and_tree_and_chrome_renderings_cover_all_spans() {
        let ctx = TraceContext::new("req-3");
        {
            let root = ctx.root_span("request");
            let child = root.child("compile");
            child.annotate("cache_hit", false);
        }
        let trace = ctx.finish();
        let json = trace.render_json(false);
        assert!(json.contains("\"request_id\":\"req-3\""), "{json}");
        assert!(json.contains("\"name\":\"compile\""), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert_eq!(trace.render_jsonl_record(), format!("{{\"type\":\"trace\",{}", &json[1..]));
        let tree = trace.render_tree();
        assert!(tree.contains("compile"), "{tree}");
        assert!(tree.contains("cache_hit=false"), "{tree}");
        let chrome = render_chrome_trace(&[&trace]);
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"process_name\""), "{chrome}");
    }
}
