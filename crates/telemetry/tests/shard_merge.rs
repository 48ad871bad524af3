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

use cicero_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..3u8) {
        0 => Op::CounterAdd { name: rng.random_range(0..4), delta: rng.random_range(0..100) },
        1 => Op::GaugeSet { name: rng.random_range(0..3), value: rng.random_range(-50..50) },
        _ => Op::Observe { name: rng.random_range(0..3), value: rng.random_range(0..5000) },
    }
}

/// K concurrent writer threads vs. the same ops applied on one thread:
/// merged summary and JSONL must be byte-identical. 48 seeded cases of
/// two to four threads with up to 39 ops each.
#[test]
fn concurrent_merge_is_byte_identical_to_sequential() {
    const SEED: u64 = 42;
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..48 {
        let per_thread: Vec<Vec<Op>> = (0..rng.random_range(2..5))
            .map(|_| (0..rng.random_range(0..40)).map(|_| random_op(&mut rng)).collect())
            .collect();
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

        let at = format!("seed {SEED} case {case}: {per_thread:?}");
        assert_eq!(concurrent.render_summary(), sequential.render_summary(), "{at}");
        assert_eq!(concurrent.render_jsonl(), sequential.render_jsonl(), "{at}");
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

/// A kind mismatch panics while the thread's shard lock is held, which
/// poisons that mutex. Metrics and sinks must stay usable: every lock
/// recovers from poison.
#[test]
fn poisoned_collector_stays_usable() {
    let telemetry = Telemetry::new();
    telemetry.gauge_set("test.gauge", 1.0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        telemetry.counter_add("test.gauge", 1);
    }));
    assert!(result.is_err());

    telemetry.counter_add("test.after_poison", 2);
    assert_eq!(telemetry.counter("test.after_poison"), 2);
    let summary = telemetry.render_summary();
    assert!(summary.contains("test.after_poison"), "{summary}");
    assert!(telemetry.render_jsonl().contains("\"name\":\"test.after_poison\""));
}
