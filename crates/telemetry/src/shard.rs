//! Contention-free sharded metrics: the hot path behind
//! [`Telemetry::counter_add`](crate::Telemetry::counter_add) and
//! [`Telemetry::observe`](crate::Telemetry::observe).
//!
//! Every thread that touches a collector gets its own **shard** — a
//! private map of metric cells. After the first touch of a given metric
//! name the hot path is a thread-local `HashMap` lookup plus one or two
//! relaxed atomic operations: no global mutex, no cross-core cache-line
//! ping-pong between writer threads. Readers *merge on read*: a snapshot
//! walks every shard and folds cells into a plain
//! [`MetricsRegistry`](crate::MetricsRegistry), so the summary / JSONL /
//! Prometheus sinks render byte-identically to the old single-registry
//! implementation.
//!
//! Determinism of the merged view:
//!
//! * **Counters** are sums of `u64` partials — order-independent.
//! * **Histogram buckets / counts** are `u64` sums; `min`/`max` are
//!   order-independent folds. The f64 `sum` is added in shard
//!   registration order; for integral observations (how every caller in
//!   this workspace reports) addition is exact and therefore
//!   order-independent too.
//! * **Gauges and exemplars** are last-write-wins, resolved by a global
//!   monotonically-increasing stamp so the merge picks the same winner
//!   regardless of shard order.
//!
//! Every internal mutex is acquired with poison recovery
//! (`unwrap_or_else(|p| p.into_inner())`): a panicking worker thread can
//! never make the collector unreadable, and its shard's already-recorded
//! values still merge.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use crate::metrics::{Exemplar, Histogram, MetricsRegistry};

fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Unique id per collector, so thread-locals can cache shards for many
/// live collectors at once.
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

// -- cells -------------------------------------------------------------

pub(crate) struct CounterCell {
    total: AtomicU64,
}

pub(crate) struct GaugeCell {
    /// `(stamp, value)`; stamp 0 means "never set".
    state: Mutex<(u64, f64)>,
}

struct ExemplarSlot {
    stamp: u64,
    value: f64,
    label: String,
}

pub(crate) struct HistCell {
    bounds: Arc<[f64]>,
    /// One count per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bit patterns updated via CAS loops.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Latest exemplar per bucket; only touched by the exemplar API.
    exemplars: Mutex<Vec<Option<ExemplarSlot>>>,
}

fn atomic_f64_update(bits: &AtomicU64, fold: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = fold(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl HistCell {
    fn new(bounds: Arc<[f64]>) -> HistCell {
        let slots = bounds.len() + 1;
        HistCell {
            bounds,
            buckets: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exemplars: Mutex::new((0..slots).map(|_| None).collect()),
        }
    }

    fn bucket_index(&self, value: f64) -> usize {
        self.bounds.iter().position(|b| value <= *b).unwrap_or(self.bounds.len())
    }

    fn record(&self, value: f64) -> Option<usize> {
        if !value.is_finite() {
            return None; // never let NaN/inf poison exported metrics
        }
        let index = self.bucket_index(value);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |sum| sum + value);
        atomic_f64_update(&self.min_bits, |min| min.min(value));
        atomic_f64_update(&self.max_bits, |max| max.max(value));
        Some(index)
    }

    fn record_exemplar(&self, index: usize, stamp: u64, value: f64, label: &str) {
        let mut slots = lock_recover(&self.exemplars);
        slots[index] = Some(ExemplarSlot { stamp, value, label: label.to_owned() });
    }
}

pub(crate) enum ShardMetric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistCell>),
}

impl ShardMetric {
    fn kind(&self) -> &'static str {
        match self {
            ShardMetric::Counter(_) => "counter",
            ShardMetric::Gauge(_) => "gauge",
            ShardMetric::Histogram(_) => "histogram",
        }
    }
}

// -- shards ------------------------------------------------------------

/// One thread's private slice of a collector's metrics.
#[derive(Default)]
pub(crate) struct Shard {
    metrics: Mutex<BTreeMap<String, ShardMetric>>,
}

impl Shard {
    fn counter_cell(&self, name: &str) -> Arc<CounterCell> {
        let mut metrics = lock_recover(&self.metrics);
        match metrics.entry(name.to_owned()).or_insert_with(|| {
            ShardMetric::Counter(Arc::new(CounterCell { total: AtomicU64::new(0) }))
        }) {
            ShardMetric::Counter(cell) => Arc::clone(cell),
            other => panic!("metric `{name}` is not a counter: {}", other.kind()),
        }
    }

    fn gauge_cell(&self, name: &str) -> Arc<GaugeCell> {
        let mut metrics = lock_recover(&self.metrics);
        match metrics.entry(name.to_owned()).or_insert_with(|| {
            ShardMetric::Gauge(Arc::new(GaugeCell { state: Mutex::new((0, 0.0)) }))
        }) {
            ShardMetric::Gauge(cell) => Arc::clone(cell),
            other => panic!("metric `{name}` is not a gauge: {}", other.kind()),
        }
    }

    fn hist_cell(&self, name: &str, bounds: Arc<[f64]>) -> Arc<HistCell> {
        let mut metrics = lock_recover(&self.metrics);
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| ShardMetric::Histogram(Arc::new(HistCell::new(bounds))))
        {
            ShardMetric::Histogram(cell) => Arc::clone(cell),
            other => panic!("metric `{name}` is not a histogram: {}", other.kind()),
        }
    }
}

/// Per-thread cache: collector id → (shard + name→cell fast paths).
struct LocalShard {
    /// Dead-collector detection for the occasional sweep.
    registry: Weak<ShardedMetrics>,
    shard: Arc<Shard>,
    counters: HashMap<String, Arc<CounterCell>>,
    gauges: HashMap<String, Arc<GaugeCell>>,
    histograms: HashMap<String, Arc<HistCell>>,
}

impl Drop for LocalShard {
    /// The thread is exiting: hand its shard, totals and all, to the next
    /// thread that touches the collector.
    fn drop(&mut self) {
        if let Some(registry) = self.registry.upgrade() {
            lock_recover(&registry.free).push(Arc::clone(&self.shard));
        }
    }
}

thread_local! {
    static LOCAL_SHARDS: RefCell<HashMap<u64, LocalShard>> = RefCell::new(HashMap::new());
}

// -- the sharded store -------------------------------------------------

/// All shards of one collector, plus the shared state the merge needs.
pub(crate) struct ShardedMetrics {
    id: u64,
    /// Every shard ever registered, in first-touch order.
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Shards whose thread has exited, reused before a new one is
    /// registered: a server with a thread per connection keeps as many
    /// shards as it ever had threads alive at once, not one per
    /// connection it ever served.
    free: Mutex<Vec<Arc<Shard>>>,
    /// Histogram bounds registry: first registration wins, later
    /// observes on any thread reuse the registered bounds (mirrors the
    /// old single-registry semantics).
    bounds: Mutex<HashMap<String, Arc<[f64]>>>,
    /// Global last-write-wins stamp for gauges and exemplars.
    stamp: AtomicU64,
}

impl ShardedMetrics {
    pub(crate) fn new() -> Arc<ShardedMetrics> {
        Arc::new(ShardedMetrics {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            shards: Mutex::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            bounds: Mutex::new(HashMap::new()),
            stamp: AtomicU64::new(0),
        })
    }

    fn next_stamp(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn bounds_for(&self, name: &str, bounds: &[f64]) -> Arc<[f64]> {
        let mut registered = lock_recover(&self.bounds);
        Arc::clone(registered.entry(name.to_owned()).or_insert_with(|| Arc::from(bounds.to_vec())))
    }

    /// Run `f` against this thread's shard, creating and registering it
    /// on first touch.
    fn with_local<R>(self: &Arc<Self>, f: impl FnOnce(&ShardedMetrics, &mut LocalShard) -> R) -> R {
        LOCAL_SHARDS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if !cache.contains_key(&self.id) {
                // Sweep entries whose collector has been dropped so
                // long-lived threads don't accumulate dead shards.
                cache.retain(|_, local| local.registry.strong_count() > 0);
                let reused = lock_recover(&self.free).pop();
                let shard = reused.unwrap_or_else(|| {
                    let shard = Arc::new(Shard::default());
                    lock_recover(&self.shards).push(Arc::clone(&shard));
                    shard
                });
                cache.insert(
                    self.id,
                    LocalShard {
                        registry: Arc::downgrade(self),
                        shard,
                        counters: HashMap::new(),
                        gauges: HashMap::new(),
                        histograms: HashMap::new(),
                    },
                );
            }
            let local = cache.get_mut(&self.id).expect("local shard just ensured");
            f(self, local)
        })
    }

    pub(crate) fn counter_add(self: &Arc<Self>, name: &str, delta: u64) {
        self.with_local(|_, local| {
            if let Some(cell) = local.counters.get(name) {
                cell.total.fetch_add(delta, Ordering::Relaxed);
                return;
            }
            let cell = local.shard.counter_cell(name);
            cell.total.fetch_add(delta, Ordering::Relaxed);
            local.counters.insert(name.to_owned(), cell);
        });
    }

    pub(crate) fn gauge_set(self: &Arc<Self>, name: &str, value: f64) {
        self.with_local(|registry, local| {
            let stamp = registry.next_stamp();
            if let Some(cell) = local.gauges.get(name) {
                *lock_recover(&cell.state) = (stamp, value);
                return;
            }
            let cell = local.shard.gauge_cell(name);
            *lock_recover(&cell.state) = (stamp, value);
            local.gauges.insert(name.to_owned(), cell);
        });
    }

    pub(crate) fn observe(self: &Arc<Self>, name: &str, value: f64, bounds: &[f64]) {
        self.with_local(|registry, local| {
            if let Some(cell) = local.histograms.get(name) {
                cell.record(value);
                return;
            }
            let shared_bounds = registry.bounds_for(name, bounds);
            let cell = local.shard.hist_cell(name, shared_bounds);
            cell.record(value);
            local.histograms.insert(name.to_owned(), cell);
        });
    }

    pub(crate) fn observe_with_exemplar(
        self: &Arc<Self>,
        name: &str,
        value: f64,
        bounds: &[f64],
        label: &str,
    ) {
        self.with_local(|registry, local| {
            let cell = if let Some(cell) = local.histograms.get(name) {
                Arc::clone(cell)
            } else {
                let shared_bounds = registry.bounds_for(name, bounds);
                let cell = local.shard.hist_cell(name, shared_bounds);
                local.histograms.insert(name.to_owned(), Arc::clone(&cell));
                cell
            };
            if let Some(index) = cell.record(value) {
                cell.record_exemplar(index, registry.next_stamp(), value, label);
            }
        });
    }

    /// Fold every shard into one deterministic registry.
    pub(crate) fn merged(&self) -> MetricsRegistry {
        enum Acc {
            Counter(u64),
            Gauge {
                stamp: u64,
                value: f64,
            },
            Histogram {
                bounds: Arc<[f64]>,
                buckets: Vec<u64>,
                count: u64,
                sum: f64,
                min: f64,
                max: f64,
                exemplars: Vec<Option<(u64, f64, String)>>,
            },
        }

        let shards: Vec<Arc<Shard>> = lock_recover(&self.shards).clone();
        let mut merged: BTreeMap<String, Acc> = BTreeMap::new();

        for shard in &shards {
            let metrics = lock_recover(&shard.metrics);
            for (name, metric) in metrics.iter() {
                match metric {
                    ShardMetric::Counter(cell) => {
                        let partial = cell.total.load(Ordering::Relaxed);
                        match merged.entry(name.clone()).or_insert(Acc::Counter(0)) {
                            Acc::Counter(total) => *total += partial,
                            _ => panic!("metric `{name}` merged as mixed kinds"),
                        }
                    }
                    ShardMetric::Gauge(cell) => {
                        let (stamp, value) = *lock_recover(&cell.state);
                        match merged
                            .entry(name.clone())
                            .or_insert(Acc::Gauge { stamp: 0, value: 0.0 })
                        {
                            Acc::Gauge { stamp: best, value: current } => {
                                if stamp > *best {
                                    *best = stamp;
                                    *current = value;
                                }
                            }
                            _ => panic!("metric `{name}` merged as mixed kinds"),
                        }
                    }
                    ShardMetric::Histogram(cell) => {
                        let slot_count = cell.buckets.len();
                        let entry = merged.entry(name.clone()).or_insert_with(|| Acc::Histogram {
                            bounds: Arc::clone(&cell.bounds),
                            buckets: vec![0; slot_count],
                            count: 0,
                            sum: 0.0,
                            min: f64::INFINITY,
                            max: f64::NEG_INFINITY,
                            exemplars: vec![None; slot_count],
                        });
                        match entry {
                            Acc::Histogram { buckets, count, sum, min, max, exemplars, .. } => {
                                for (total, bucket) in buckets.iter_mut().zip(&cell.buckets) {
                                    *total += bucket.load(Ordering::Relaxed);
                                }
                                *count += cell.count.load(Ordering::Relaxed);
                                *sum += f64::from_bits(cell.sum_bits.load(Ordering::Relaxed));
                                *min =
                                    min.min(f64::from_bits(cell.min_bits.load(Ordering::Relaxed)));
                                *max =
                                    max.max(f64::from_bits(cell.max_bits.load(Ordering::Relaxed)));
                                let slots = lock_recover(&cell.exemplars);
                                for (best, slot) in exemplars.iter_mut().zip(slots.iter()) {
                                    if let Some(slot) = slot {
                                        let newer = match best {
                                            None => true,
                                            Some((stamp, _, _)) => slot.stamp > *stamp,
                                        };
                                        if newer {
                                            *best =
                                                Some((slot.stamp, slot.value, slot.label.clone()));
                                        }
                                    }
                                }
                            }
                            _ => panic!("metric `{name}` merged as mixed kinds"),
                        }
                    }
                }
            }
        }

        let mut registry = MetricsRegistry::new();
        for (name, acc) in merged {
            match acc {
                Acc::Counter(total) => registry.insert_counter(name, total),
                Acc::Gauge { value, .. } => registry.insert_gauge(name, value),
                Acc::Histogram { bounds, buckets, count, sum, min, max, exemplars } => {
                    let exemplars = exemplars
                        .into_iter()
                        .map(|slot| slot.map(|(_, value, label)| Exemplar { value, label }))
                        .collect();
                    registry.insert_histogram(
                        name,
                        Histogram::from_parts(
                            bounds.to_vec(),
                            buckets,
                            count,
                            sum,
                            min,
                            max,
                            exemplars,
                        ),
                    );
                }
            }
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_exited_threads_shard_is_reused_with_its_totals() {
        let metrics = ShardedMetrics::new();
        for _ in 0..4 {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || metrics.counter_add("hits", 1)).join().unwrap();
        }
        assert_eq!(lock_recover(&metrics.shards).len(), 1);
        assert_eq!(metrics.merged().counter("hits"), 4);
    }
}
