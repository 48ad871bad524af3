//! The metrics registry: counters, gauges, fixed-bucket histograms.

use std::collections::BTreeMap;

/// Default histogram bucket upper bounds: half-decade steps covering
/// everything from single cycles to multi-million-cycle runs.
pub const DEFAULT_BUCKETS: &[f64] =
    &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1e3, 5e3, 1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7];

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone sum.
    Counter(u64),
    /// Last-write-wins value.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

/// A sampled observation pinned to a histogram bucket, linking the
/// bucket back to the entity (e.g. a request id) that populated it.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The observed value.
    pub value: f64,
    /// Free-form label, conventionally a request id.
    pub label: String,
}

/// A fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; an implicit `+inf` bucket
    /// follows.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Latest exemplar per bucket (same length as `counts`).
    exemplars: Vec<Option<Exemplar>>,
}

impl Histogram {
    /// Reassemble a histogram from merged shard state.
    pub(crate) fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        exemplars: Vec<Option<Exemplar>>,
    ) -> Histogram {
        Histogram { bounds, counts, count, sum, min, max, exemplars }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            bucket_counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            exemplars: self.exemplars.clone(),
        }
    }
}

/// Point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending (the final `+inf` bucket is
    /// implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one entry per bound plus the overflow bucket.
    pub bucket_counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Latest exemplar per bucket (one entry per bound plus overflow).
    pub exemplars: Vec<Option<Exemplar>>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A collector's metrics merged into one name-keyed view (deterministic
/// iteration order); [`Telemetry::merged_metrics`](crate::Telemetry::merged_metrics)
/// builds one, the sinks render it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Install a fully-merged counter (shard merge path).
    pub(crate) fn insert_counter(&mut self, name: String, total: u64) {
        self.metrics.insert(name, Metric::Counter(total));
    }

    /// Install a fully-merged gauge (shard merge path).
    pub(crate) fn insert_gauge(&mut self, name: String, value: f64) {
        self.metrics.insert(name, Metric::Gauge(value));
    }

    /// Install a fully-merged histogram (shard merge path).
    pub(crate) fn insert_histogram(&mut self, name: String, histogram: Histogram) {
        self.metrics.insert(name, Metric::Histogram(histogram));
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(total)) => *total,
            _ => 0,
        }
    }

    /// Gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(value)) => Some(*value),
            _ => None,
        }
    }

    /// Histogram snapshot.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(histogram)) => Some(histogram.snapshot()),
            _ => None,
        }
    }

    /// Iterate all metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(name, metric)| (name.as_str(), metric))
    }
}
