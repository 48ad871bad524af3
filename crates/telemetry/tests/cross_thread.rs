//! Cross-thread contracts of one collector.
//!
//! A histogram keeps the bounds of its first registration, whichever
//! thread made it, and a gauge or an exemplar written on one thread and
//! then overwritten on another reads the later value, whichever of the two
//! threads touched the collector first.

use std::sync::{Condvar, Mutex};

use cicero_telemetry::Telemetry;

/// Numbered turns shared by two threads: `take(n, f)` waits until `n`
/// turns have been taken, then runs `f` as the next one.
#[derive(Default)]
struct Turns {
    taken: Mutex<u32>,
    turned: Condvar,
}

impl Turns {
    fn take(&self, turn: u32, f: impl FnOnce()) {
        let mut taken = self.turned.wait_while(self.taken.lock().unwrap(), |t| *t != turn).unwrap();
        f();
        *taken += 1;
        self.turned.notify_all();
    }
}

/// Run `first` on one thread and then `second` on another, with both
/// threads alive for both writes. The thread running `second` touches the
/// collector before the thread running `first` does when
/// `second_touches_first`, after it otherwise.
fn first_then_second(
    telemetry: &Telemetry,
    second_touches_first: bool,
    first: impl FnOnce(&Telemetry) + Send,
    second: impl FnOnce(&Telemetry) + Send,
) {
    let before = telemetry.counter("test.touch");
    let turns = Turns::default();
    let (second_touch, first_touch) = if second_touches_first { (0, 1) } else { (1, 0) };
    std::thread::scope(|scope| {
        let turns = &turns;
        scope.spawn(move || {
            turns.take(second_touch, || telemetry.counter_add("test.touch", 1));
            turns.take(3, || second(telemetry));
        });
        scope.spawn(move || {
            turns.take(first_touch, || telemetry.counter_add("test.touch", 1));
            turns.take(2, || first(telemetry));
            turns.take(4, || {});
        });
    });
    assert_eq!(telemetry.counter("test.touch"), before + 2);
}

#[test]
fn a_histogram_keeps_the_bounds_of_its_first_registration_on_another_thread() {
    let telemetry = Telemetry::new();
    std::thread::scope(|scope| {
        scope.spawn(|| telemetry.observe_with("test.hist", 2.0, &[1.0, 10.0]));
    });
    telemetry.observe_with("test.hist", 50.0, &[100.0]);
    first_then_second(
        &telemetry,
        true,
        |t| t.observe_with("test.hist", 5.0, &[1000.0]),
        |t| t.observe("test.hist", 0.5),
    );

    let hist = telemetry.histogram("test.hist").expect("registered histogram");
    assert_eq!(hist.bounds, vec![1.0, 10.0]);
    assert_eq!(hist.bucket_counts, vec![1, 2, 1]);
    assert_eq!((hist.count, hist.sum, hist.min, hist.max), (4, 57.5, 0.5, 50.0));
}

#[test]
fn a_gauge_and_an_exemplar_overwritten_on_another_thread_read_the_later_value() {
    const BOUNDS: &[f64] = &[1.0, 10.0];
    for second_touches_first in [true, false] {
        let telemetry = Telemetry::new();
        first_then_second(
            &telemetry,
            second_touches_first,
            |t| {
                t.gauge_set("test.gauge", 1.0);
                t.observe_with_exemplar("test.latency", 4.0, BOUNDS, "req-early");
            },
            |t| {
                t.gauge_set("test.gauge", 2.0);
                t.observe_with_exemplar("test.latency", 6.0, BOUNDS, "req-late");
            },
        );

        let at = format!("second_touches_first = {second_touches_first}");
        assert_eq!(telemetry.gauge("test.gauge"), Some(2.0), "{at}");
        let hist = telemetry.histogram("test.latency").expect("registered histogram");
        assert_eq!(hist.bucket_counts, vec![0, 2, 0], "{at}");
        assert_eq!(hist.exemplars[0], None, "{at}");
        assert_eq!(hist.exemplars[2], None, "{at}");
        let exemplar = hist.exemplars[1].as_ref().expect("exemplar in the 10.0 bucket");
        assert_eq!((exemplar.value, exemplar.label.as_str()), (6.0, "req-late"), "{at}");
    }
}
