//! The benchmark's own spans: recorded around calls into each layer (see
//! `layers.rs`), kept in memory, written out as JSONL when the run ends.
//! The crates under test are not instrumented; tracing inside them is a
//! later change.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;
use crate::stats;

/// One timed call. A span's id is its index in [`Recorder::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Spans of one replayed request (and of the probes run on its
    /// inputs) share this.
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; `None` inside when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Single-threaded span recorder. Switched off it takes no timestamps, so
/// the same code path gives the untraced in-process baseline.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request_id: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request_id: 0,
        }
    }

    /// Spans opened from now on belong to `request_id`.
    pub fn set_request(&mut self, request_id: u32) {
        self.request_id = request_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request_id: self.request_id,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Rename an open span once the call has shown what it was (a cache
    /// lookup is a hit or a miss only afterwards).
    pub fn rename(&mut self, open: Open, name: &'static str) {
        if let Some(id) = open.0 {
            self.spans[id as usize].name = name;
        }
    }

    /// Time `f` as a span named `name`, nested under whatever is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let open = self.open(name);
        let value = f(self);
        self.close(open);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its child spans
/// cover. Children of one parent never overlap (the recorder is
/// single-threaded), so the sum of their durations is that part.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Median self time, in microseconds, of the spans named `name`.
pub fn median_self_us(spans: &[Span], name: &str) -> Option<f64> {
    let own = self_times_ns(spans);
    let picked: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    stats::median(&picked)
}

/// One JSON object per line: `id`, `name`, `start_ns`, `end_ns`, `parent`
/// (`null` for a root), `request_id`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let line = Value::obj([
            ("id", Value::from(id)),
            ("name", Value::from(span.name)),
            ("start_ns", Value::from(span.start_ns)),
            ("end_ns", Value::from(span.end_ns)),
            ("parent", span.parent.map_or(Value::Null, |p| Value::from(u64::from(p)))),
            ("request_id", Value::from(u64::from(span.request_id))),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("engine", 40, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn median_self_time_picks_spans_by_name() {
        let spans = vec![
            span("a", 0, 3_000, None),
            span("b", 0, 1_000, Some(0)),
            span("a", 5_000, 6_000, None),
            span("a", 7_000, 12_000, None),
        ];
        assert_eq!(median_self_us(&spans, "a"), Some(2.0));
        assert_eq!(median_self_us(&spans, "b"), Some(1.0));
        assert_eq!(median_self_us(&spans, "c"), None);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.set_request(7);
        let got = rec.span("outer", |rec| {
            let open = rec.open("lookup");
            rec.rename(open, "hit");
            rec.close(open);
            5
        });
        assert_eq!(got, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].request_id), ("outer", None, 7));
        assert_eq!((spans[1].name, spans[1].parent), ("hit", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
