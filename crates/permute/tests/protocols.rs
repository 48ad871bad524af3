//! Exhaustive interleaving exploration of the serving-path protocols,
//! plus proof that the explorer catches each protocol's bug when it is
//! deliberately re-introduced.

use cicero_permute::models::{ConnectionModel, RespawnModel};
use cicero_permute::{replay, Explorer, ViolationKind};

fn explorer() -> Explorer {
    Explorer::default()
}

// --- connection: a thread per admitted connection, permits, drain --------

fn connection(requests: Vec<bool>, workers: usize, capacity: usize) -> ConnectionModel {
    ConnectionModel {
        requests,
        workers,
        capacity,
        idle_ticks: 1,
        count_in_thread: false,
        close_on_current_flag: false,
    }
}

#[test]
fn connection_protocol_passes_every_interleaving() {
    // Two requests contend for one permit, each read may time out idle
    // once before the drain.
    let report =
        explorer().explore(&connection(vec![true, true], 1, 2)).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.schedules > 100, "suspiciously small space: {report:?}");
}

#[test]
fn connection_protocol_at_the_cap_and_with_two_permits_passes() {
    // The second connection is answered 503 (or refused by the drain).
    explorer().explore(&connection(vec![true, false], 1, 1)).unwrap_or_else(|v| panic!("{v}"));
    let model = ConnectionModel { idle_ticks: 0, ..connection(vec![true, true], 2, 3) };
    explorer().explore(&model).unwrap_or_else(|v| panic!("{v}"));
}

#[test]
fn counting_the_connection_in_its_own_thread_reports_drained_while_serving() {
    let model = ConnectionModel { count_in_thread: true, ..connection(vec![true], 1, 2) };
    let violation = explorer().explore(&model).unwrap_err();
    assert_eq!(violation.kind, ViolationKind::Invariant, "{violation}");
    assert!(violation.message.contains("drained reported"), "{violation}");
    let (_, verdict) = replay(&model, &violation.schedule);
    assert!(verdict.unwrap_err().contains("drained reported"));
}

#[test]
fn closing_on_a_flag_set_after_the_read_began_drops_a_written_request() {
    let model = ConnectionModel { close_on_current_flag: true, ..connection(vec![true], 1, 2) };
    let violation = explorer().explore(&model).unwrap_err();
    assert_eq!(violation.kind, ViolationKind::Postcondition, "{violation}");
    assert!(violation.message.contains("dropped"), "{violation}");
    let (_, verdict) = replay(&model, &violation.schedule);
    assert!(verdict.unwrap_err().contains("dropped"));
}

// --- respawn: worker panic/respawn during a set scan -----------------------

#[test]
fn respawn_protocol_passes_every_interleaving() {
    let model = RespawnModel { panics: vec![0, 1, 2], workers: 2, lose_input_on_panic: false };
    let report = explorer().explore(&model).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.schedules > 100, "suspiciously small space: {report:?}");
}

#[test]
fn respawn_with_every_input_panicking_once_passes() {
    let model = RespawnModel { panics: vec![1, 1], workers: 2, lose_input_on_panic: false };
    explorer().explore(&model).unwrap_or_else(|v| panic!("{v}"));
}

#[test]
fn abandoning_inputs_on_panic_loses_matches() {
    let model = RespawnModel { panics: vec![0, 1], workers: 2, lose_input_on_panic: true };
    let violation = explorer().explore(&model).unwrap_err();
    assert_eq!(violation.kind, ViolationKind::Postcondition, "{violation}");
    assert!(violation.message.contains("never scanned"), "{violation}");
    let (_, verdict) = replay(&model, &violation.schedule);
    assert!(verdict.unwrap_err().contains("never scanned"));
}
