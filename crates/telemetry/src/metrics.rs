//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! A collector keeps one map from metric name to a shared cell of
//! atomics. A write takes the map's read lock and updates its cell with
//! relaxed atomics; only the first write of a name takes the write lock,
//! to create the cell (so a histogram keeps the bounds of its first
//! registration). Every lock recovers from poison, so a panicking writer
//! never makes the collector unreadable: each update under a lock is one
//! insert or one assignment, which leaves the data valid. The atomics
//! are statistics that publish no other data, hence `Relaxed`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

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
    Histogram(HistogramSnapshot),
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

/// A snapshot of a collector's metrics in name order;
/// [`Telemetry::merged_metrics`](crate::Telemetry::merged_metrics)
/// takes one, the sinks render it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate all metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(name, metric)| (name.as_str(), metric))
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Apply `fold` to an `f64` stored as bits.
fn fold_f64(bits: &AtomicU64, fold: impl Fn(f64) -> f64) {
    let _ = bits.fetch_update(Relaxed, Relaxed, |b| Some(fold(f64::from_bits(b)).to_bits()));
}

struct HistogramCell {
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bit patterns.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Latest exemplar per bucket.
    exemplars: Vec<Mutex<Option<Exemplar>>>,
}

impl HistogramCell {
    fn new(bounds: &[f64]) -> HistogramCell {
        HistogramCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0.0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exemplars: (0..=bounds.len()).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Record `value`, pinning `exemplar` (a label) to its bucket when
    /// given; non-finite values are dropped so they never poison
    /// exported metrics.
    fn record(&self, value: f64, exemplar: Option<&str>) {
        if !value.is_finite() {
            return;
        }
        let index = self.bounds.iter().position(|b| value <= *b).unwrap_or(self.bounds.len());
        self.buckets[index].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        fold_f64(&self.sum, |sum| sum + value);
        fold_f64(&self.min, |min| min.min(value));
        fold_f64(&self.max, |max| max.max(value));
        if let Some(label) = exemplar {
            *lock(&self.exemplars[index]) = Some(Exemplar { value, label: label.to_owned() });
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Relaxed);
        let extreme = |bits: &AtomicU64| {
            if count == 0 {
                0.0
            } else {
                f64::from_bits(bits.load(Relaxed))
            }
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            bucket_counts: self.buckets.iter().map(|bucket| bucket.load(Relaxed)).collect(),
            count,
            sum: f64::from_bits(self.sum.load(Relaxed)),
            min: extreme(&self.min),
            max: extreme(&self.max),
            exemplars: self.exemplars.iter().map(|slot| lock(slot).clone()).collect(),
        }
    }
}

enum Cell {
    Counter(AtomicU64),
    /// `f64` bit pattern.
    Gauge(AtomicU64),
    Histogram(Box<HistogramCell>),
}

impl Cell {
    fn snapshot(&self) -> Metric {
        match self {
            Cell::Counter(total) => Metric::Counter(total.load(Relaxed)),
            Cell::Gauge(bits) => Metric::Gauge(f64::from_bits(bits.load(Relaxed))),
            Cell::Histogram(histogram) => Metric::Histogram(histogram.snapshot()),
        }
    }

    fn mismatch(&self, name: &str, wanted: &str) -> ! {
        let kind = match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        };
        panic!("metric `{name}` is not a {wanted}: {kind}")
    }
}

/// One collector's metrics: a name → cell map.
#[derive(Default)]
pub(crate) struct Cells {
    cells: RwLock<HashMap<String, Cell>>,
}

impl Cells {
    /// Run `update` on the cell named `name`, creating it with `new` on
    /// the name's first write.
    fn with_cell(&self, name: &str, new: impl FnOnce() -> Cell, update: impl FnOnce(&Cell)) {
        {
            let cells = self.cells.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(cell) = cells.get(name) {
                return update(cell);
            }
        }
        let mut cells = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        update(cells.entry(name.to_owned()).or_insert_with(new));
    }

    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        self.with_cell(
            name,
            || Cell::Counter(AtomicU64::new(0)),
            |cell| match cell {
                Cell::Counter(total) => {
                    total.fetch_add(delta, Relaxed);
                }
                other => other.mismatch(name, "counter"),
            },
        );
    }

    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        self.with_cell(
            name,
            || Cell::Gauge(AtomicU64::new(0)),
            |cell| match cell {
                Cell::Gauge(bits) => bits.store(value.to_bits(), Relaxed),
                other => other.mismatch(name, "gauge"),
            },
        );
    }

    pub(crate) fn observe(&self, name: &str, value: f64, bounds: &[f64], exemplar: Option<&str>) {
        self.with_cell(
            name,
            || Cell::Histogram(Box::new(HistogramCell::new(bounds))),
            |cell| match cell {
                Cell::Histogram(histogram) => histogram.record(value, exemplar),
                other => other.mismatch(name, "histogram"),
            },
        );
    }

    /// A snapshot of the metric named `name`.
    pub(crate) fn get(&self, name: &str) -> Option<Metric> {
        self.cells.read().unwrap_or_else(PoisonError::into_inner).get(name).map(Cell::snapshot)
    }

    /// A snapshot of every metric.
    pub(crate) fn snapshot(&self) -> MetricsRegistry {
        let cells = self.cells.read().unwrap_or_else(PoisonError::into_inner);
        let metrics = cells.iter().map(|(name, cell)| (name.clone(), cell.snapshot())).collect();
        MetricsRegistry { metrics }
    }
}
