//! Shard-merge determinism and crash-robustness tests.
//!
//! The contract of the sharded metrics store: K threads hammering one
//! collector concurrently must merge into *exactly* the registry you'd
//! get applying the same ops sequentially — byte-identical summary and
//! JSONL output — and a panicking worker thread must never lose its
//! already-recorded values or wedge the collector.
//!
//! Observed values are kept integral so f64 addition is exact and
//! order-independent; gauges are owned by a single thread each (a
//! last-write-wins race between threads has no sequential analogue).

use proptest::prelude::*;

use cicero_telemetry::Telemetry;

/// One metric operation, tagged with the thread that owns it.
#[derive(Debug, Clone)]
enum Op {
    CounterAdd {
        name: usize,
        delta: u64,
    },
    /// Gauges are per-thread-owned: the name is suffixed with the
    /// owning thread so sequential and concurrent application agree.
    GaugeSet {
        name: usize,
        value: i32,
    },
    Observe {
        name: usize,
        value: u32,
    },
}

const BOUNDS: &[f64] = &[4.0, 64.0, 1024.0];

fn apply(telemetry: &Telemetry, thread: usize, op: &Op) {
    match op {
        Op::CounterAdd { name, delta } => {
            telemetry.counter_add(&format!("test.counter_{name}"), *delta);
        }
        Op::GaugeSet { name, value } => {
            telemetry.gauge_set(&format!("test.gauge_{thread}_{name}"), f64::from(*value));
        }
        Op::Observe { name, value } => {
            telemetry.observe_with(&format!("test.hist_{name}"), f64::from(*value), BOUNDS);
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 0u64..100).prop_map(|(name, delta)| Op::CounterAdd { name, delta }),
        (0usize..3, -50i32..50).prop_map(|(name, value)| Op::GaugeSet { name, value }),
        (0usize..3, 0u32..5000).prop_map(|(name, value)| Op::Observe { name, value }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// K concurrent writer threads vs. the same ops applied on one
    /// thread: merged summary and JSONL must be byte-identical.
    #[test]
    fn concurrent_merge_is_byte_identical_to_sequential(
        per_thread in prop::collection::vec(
            prop::collection::vec(op_strategy(), 0..40),
            2..5,
        )
    ) {
        let concurrent = Telemetry::new();
        std::thread::scope(|scope| {
            for (thread, ops) in per_thread.iter().enumerate() {
                let telemetry = concurrent.clone();
                scope.spawn(move || {
                    for op in ops {
                        apply(&telemetry, thread, op);
                    }
                });
            }
        });

        let sequential = Telemetry::new();
        for (thread, ops) in per_thread.iter().enumerate() {
            for op in ops {
                apply(&sequential, thread, op);
            }
        }

        prop_assert_eq!(concurrent.render_summary(), sequential.render_summary());
        prop_assert_eq!(concurrent.render_jsonl(), sequential.render_jsonl());
    }
}

/// A worker thread that panics mid-write must not lose the values it
/// already recorded, and the collector must stay fully readable.
#[test]
fn panicked_worker_shard_still_merges() {
    let telemetry = Telemetry::new();
    telemetry.counter_add("test.survivor", 1);

    let handle = {
        let telemetry = telemetry.clone();
        std::thread::spawn(move || {
            telemetry.counter_add("test.survivor", 10);
            telemetry.observe_with("test.hist", 3.0, &[4.0]);
            panic!("worker dies after recording");
        })
    };
    assert!(handle.join().is_err(), "worker should have panicked");

    assert_eq!(telemetry.counter("test.survivor"), 11);
    let hist = telemetry.histogram("test.hist").expect("histogram from dead thread");
    assert_eq!(hist.count, 1);
    let summary = telemetry.render_summary();
    assert!(summary.contains("test.survivor"), "{summary}");
}

/// An event name whose conversion panics. `Telemetry::event` converts the
/// name while it holds the events lock, so recording one poisons the
/// events mutex.
struct Doomed;

impl From<Doomed> for String {
    fn from(_: Doomed) -> String {
        panic!("panic while the events lock is held")
    }
}

/// Poisoning the events mutex must not wedge metrics, events or sinks:
/// every lock recovers from poison.
#[test]
fn poisoned_collector_stays_usable() {
    let telemetry = Telemetry::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        telemetry.event(Doomed, Vec::new());
    }));
    assert!(result.is_err());

    telemetry.counter_add("test.after_poison", 2);
    telemetry.event("after", Vec::new());
    assert_eq!(telemetry.counter("test.after_poison"), 2);
    let summary = telemetry.render_summary();
    assert!(summary.contains("after"), "{summary}");
    assert!(telemetry.render_jsonl().contains("\"name\":\"after\""));
}
