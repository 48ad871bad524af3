//! Telemetry sinks: human-readable summary, JSON-lines export, and
//! Prometheus text exposition.

use std::fmt::Write as _;

use crate::json::JsonObject;
use crate::metrics::{Metric, MetricsRegistry};
use crate::Telemetry;

/// Render a human-readable report of the metrics.
pub fn render_summary(telemetry: &Telemetry) -> String {
    let metrics = telemetry.merged_metrics();
    let mut out = String::new();

    if !metrics.is_empty() {
        out.push_str("metrics:\n");
        let name_width = metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(total) => {
                    let _ = writeln!(out, "  {name:<name_width$}  counter    {total}");
                }
                Metric::Gauge(value) => {
                    let _ = writeln!(out, "  {name:<name_width$}  gauge      {value}");
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "  {name:<name_width$}  histogram  count={} min={} mean={:.1} max={}",
                        h.count,
                        h.min,
                        h.mean(),
                        h.max
                    );
                }
            }
        }
    }

    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

/// Render the JSON-lines export: one self-describing object per metric
/// and line, in name order.
pub fn render_jsonl(telemetry: &Telemetry) -> String {
    let metrics = telemetry.merged_metrics();
    let mut out = String::new();

    for (name, metric) in metrics.iter() {
        let line = match metric {
            Metric::Counter(total) => JsonObject::new()
                .field("type", "counter")
                .field("name", name)
                .field("value", *total)
                .finish(),
            Metric::Gauge(value) => JsonObject::new()
                .field("type", "gauge")
                .field("name", name)
                .field("value", *value)
                .finish(),
            Metric::Histogram(h) => {
                let mut buckets = String::from("[");
                for (i, count) in h.bucket_counts.iter().enumerate() {
                    if i > 0 {
                        buckets.push(',');
                    }
                    let le =
                        h.bounds.get(i).map_or_else(|| "\"+inf\"".to_owned(), |b| format!("{b:?}"));
                    buckets.push_str(
                        &JsonObject::new().field_raw("le", &le).field("count", *count).finish(),
                    );
                }
                buckets.push(']');
                let mut obj = JsonObject::new()
                    .field("type", "histogram")
                    .field("name", name)
                    .field("count", h.count)
                    .field("sum", h.sum)
                    .field("min", h.min)
                    .field("max", h.max)
                    .field("mean", h.mean())
                    .field_raw("buckets", &buckets);
                if h.exemplars.iter().any(|e| e.is_some()) {
                    let mut exemplars = String::from("[");
                    let mut first = true;
                    for (i, exemplar) in h.exemplars.iter().enumerate() {
                        let Some(exemplar) = exemplar else { continue };
                        if !first {
                            exemplars.push(',');
                        }
                        first = false;
                        let le = h
                            .bounds
                            .get(i)
                            .map_or_else(|| "\"+inf\"".to_owned(), |b| format!("{b:?}"));
                        exemplars.push_str(
                            &JsonObject::new()
                                .field_raw("le", &le)
                                .field("value", exemplar.value)
                                .field("label", exemplar.label.as_str())
                                .finish(),
                        );
                    }
                    exemplars.push(']');
                    obj = obj.field_raw("exemplars", &exemplars);
                }
                obj.finish()
            }
        };
        out.push_str(&line);
        out.push('\n');
    }

    out
}

/// Sanitize a dotted series name into a Prometheus metric name.
fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn prometheus_number(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_owned()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{value:?}")
    }
}

/// Render the merged metrics in the Prometheus text exposition format
/// (`# TYPE` lines; histograms expand to cumulative `_bucket` series
/// plus `_sum` and `_count`, with OpenMetrics-style exemplars).
pub fn render_prometheus(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, metric) in metrics.iter() {
        let pname = prometheus_name(name);
        match metric {
            Metric::Counter(total) => {
                let _ = writeln!(out, "# TYPE {pname} counter");
                let _ = writeln!(out, "{pname} {total}");
            }
            Metric::Gauge(value) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {}", prometheus_number(*value));
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {pname} histogram");
                let mut cumulative = 0u64;
                for (i, count) in h.bucket_counts.iter().enumerate() {
                    cumulative += count;
                    let le = h
                        .bounds
                        .get(i)
                        .map_or_else(|| "+Inf".to_owned(), |bound| prometheus_number(*bound));
                    let _ = write!(out, "{pname}_bucket{{le=\"{le}\"}} {cumulative}");
                    if let Some(Some(exemplar)) = h.exemplars.get(i) {
                        let _ = write!(
                            out,
                            " # {{request_id=\"{}\"}} {}",
                            crate::escape_json(&exemplar.label),
                            prometheus_number(exemplar.value)
                        );
                    }
                    out.push('\n');
                }
                let _ = writeln!(out, "{pname}_sum {}", prometheus_number(h.sum));
                let _ = writeln!(out, "{pname}_count {}", h.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn histogram_jsonl_has_inf_overflow_bucket() {
        let t = Telemetry::new();
        t.observe_with("h", 2.0, &[1.0, 10.0]);
        let jsonl = t.render_jsonl();
        assert!(jsonl.contains(r#""le":"+inf""#), "{jsonl}");
        assert!(jsonl.contains(r#""le":1.0"#), "{jsonl}");
    }

    #[test]
    fn empty_collector_renders_placeholder() {
        let t = Telemetry::new();
        assert_eq!(t.render_summary(), "(no telemetry recorded)\n");
        assert_eq!(t.render_jsonl(), "");
    }

    #[test]
    fn exemplars_surface_in_jsonl() {
        let t = Telemetry::new();
        t.observe_with_exemplar("server.latency_ms", 7.5, &[1.0, 10.0], "req-42");
        let jsonl = t.render_jsonl();
        assert!(
            jsonl.contains(r#""exemplars":[{"le":10.0,"value":7.5,"label":"req-42"}]"#),
            "{jsonl}"
        );
    }

    #[test]
    fn prometheus_golden_scrape() {
        let t = Telemetry::new();
        t.counter_add("server.requests", 3);
        t.gauge_set("server.queue_depth", 2.0);
        t.observe_with("server.latency_ms", 0.5, &[1.0, 10.0]);
        t.observe_with("server.latency_ms", 4.0, &[1.0, 10.0]);
        t.observe_with_exemplar("server.latency_ms", 50.0, &[1.0, 10.0], "req-9");
        let scrape = t.render_prometheus();
        let expected = "\
# TYPE server_latency_ms histogram
server_latency_ms_bucket{le=\"1.0\"} 1
server_latency_ms_bucket{le=\"10.0\"} 2
server_latency_ms_bucket{le=\"+Inf\"} 3 # {request_id=\"req-9\"} 50.0
server_latency_ms_sum 54.5
server_latency_ms_count 3
# TYPE server_queue_depth gauge
server_queue_depth 2.0
# TYPE server_requests counter
server_requests 3
";
        assert_eq!(scrape, expected);
    }
}
