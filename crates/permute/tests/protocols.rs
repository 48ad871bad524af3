//! Exhaustive interleaving exploration of the serving-path protocols,
//! plus proof that the explorer catches each protocol's bug when it is
//! deliberately re-introduced.

use cicero_permute::models::{ConnectionModel, PoolModel, RespawnModel};
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

// --- pool: batches lent to persistent helpers ------------------------------

fn pool(batches: Vec<Vec<usize>>, helpers: usize, jobs: usize) -> PoolModel {
    PoolModel { batches, helpers, jobs, caller_returns_early: false }
}

#[test]
fn pool_hand_off_passes_every_interleaving() {
    // One caller and one helper over inputs that run clean, panic once,
    // and fault: every input once, every restart counted, and the caller
    // never returns while the helper holds the batch.
    let report = explorer()
        .explore(&pool(vec![vec![0, 1, 2, 0, 1, 0]], 1, 2))
        .unwrap_or_else(|v| panic!("{v}"));
    assert!(report.schedules > 100, "suspiciously small space: {report:?}");
}

#[test]
fn pool_concurrent_batches_stay_within_jobs() {
    // A second caller arrives while the helper may be scanning the first
    // batch: it waits for the slot, and the helper leaves.
    let report = explorer()
        .explore(&pool(vec![vec![0, 0, 0, 0], vec![0]], 1, 2))
        .unwrap_or_else(|v| panic!("{v}"));
    assert!(report.schedules > 100, "suspiciously small space: {report:?}");
}

#[test]
fn a_caller_returning_after_its_own_share_leaves_a_helper_holding_the_batch() {
    let model = PoolModel { caller_returns_early: true, ..pool(vec![vec![0, 0, 0, 0]], 1, 2) };
    let violation = explorer().explore(&model).unwrap_err();
    // Either a helper still holds the batch, or takes its ticket later.
    let returned_early = |message: &str| {
        message.contains("returned while a helper") || message.contains("after its caller returned")
    };
    assert_eq!(violation.kind, ViolationKind::Invariant, "{violation}");
    assert!(returned_early(&violation.message), "{violation}");
    let (_, verdict) = replay(&model, &violation.schedule);
    assert!(returned_early(&verdict.unwrap_err()));
}
