//! Replays the committed differential-fuzzing regression corpus
//! (`crates/difftest/corpus/*.toml`) through the full equivalence matrix
//! as a normal `cargo test`.
//!
//! Every minimized divergence the fuzzer ever finds is committed here, so
//! a fixed bug stays fixed. Triage workflow: see TESTING.md.

use cicero::difftest;

#[test]
fn every_corpus_case_passes_the_full_matrix() {
    let dir = difftest::default_corpus_dir();
    let replayed = difftest::replay_corpus(&dir).expect("corpus loads");
    assert!(!replayed.is_empty(), "the committed corpus at {} must not be empty", dir.display());
    for (case, outcome) in &replayed {
        assert_eq!(
            *outcome,
            difftest::Outcome::Pass,
            "corpus case `{}` (pattern {:?}, {}): {outcome:?}",
            case.name,
            case.pattern,
            case.note
        );
    }
}

/// The corpus carries the proptest regression seed (satellite of the
/// differential-fuzzing issue): the stored shrink from
/// `tests/proptest_properties.proptest-regressions` must be present.
#[test]
fn the_proptest_regression_seed_is_committed() {
    let replayed = difftest::replay_corpus(&difftest::default_corpus_dir()).expect("corpus loads");
    assert!(
        replayed.iter().any(|(case, _)| case.pattern == "x(a?|a*)y"),
        "missing the proptest-regressions seed x(a?|a*)y"
    );
}

/// Corpus files are exactly reproducible through the TOML writer: loading
/// and re-rendering is the identity on the key/value content, so `--save`
/// output and hand-written files stay interchangeable.
#[test]
fn corpus_files_roundtrip_through_the_writer() {
    for (case, _) in replay_all() {
        let rendered = case.to_toml();
        let reparsed = difftest::CorpusCase::from_toml(&case.name, &rendered).unwrap();
        assert_eq!(reparsed, case);
    }
}

fn replay_all() -> Vec<(difftest::CorpusCase, difftest::Outcome)> {
    difftest::replay_corpus(&difftest::default_corpus_dir()).expect("corpus loads")
}

/// The registry-axis satellite cases must stay committed: at least two
/// `kind = "registry"` sets, one of them multi-member (a newline-joined
/// `pattern`), each actually round-tripped (Pass, not Skip — a set the
/// compiler rejects would silently stop guarding the persist format).
#[test]
fn the_registry_corpus_cases_round_trip_the_persist_format() {
    let replayed = replay_all();
    let registry: Vec<_> = replayed.iter().filter(|(case, _)| case.kind == "registry").collect();
    assert!(registry.len() >= 2, "expected >= 2 registry corpus cases, found {}", registry.len());
    assert!(
        registry.iter().any(|(case, _)| case.pattern.contains('\n')),
        "no committed registry case exercises a multi-member set"
    );
    for (case, outcome) in registry {
        assert_eq!(*outcome, difftest::Outcome::Pass, "registry case `{}`: {outcome:?}", case.name);
    }
}

/// The host-backend satellite cases must stay committed, and they must
/// actually select the engine tiers they claim to pin: an empty
/// alternative, a prefilter-defeating dot pattern, a u128-tier NFA, a
/// counted alternation past both one-word tiers, a shared-prefix set,
/// and two bounded-gap signature sets. The six-member one was written
/// for the multi-word engine; once a class's members merge into one host
/// state it fits a `u128`, and the sixteen-member one keeps the
/// multi-word engine covered.
#[test]
fn the_host_backend_corpus_cases_cover_every_engine_tier() {
    use cicero::hostexec::{EngineKind, HostProgram};
    let replayed = replay_all();
    // A newline-joined `pattern` is a set (the registry axis' encoding):
    // its tier is that of its one `compile_set` program.
    let tier = |pattern: &str| {
        let members = difftest::split_set(pattern);
        let program = match members.as_slice() {
            [single] => cicero::compiler::compile(single).unwrap().into_program(),
            _ => cicero::compiler::Compiler::new().compile_set(&members).unwrap().program().clone(),
        };
        HostProgram::compile(&program).engine_kind()
    };
    // The set cases carry six and sixteen members; take their patterns
    // from the files.
    let set_case = |name: &str| {
        let pattern = replayed
            .iter()
            .find(|(case, _)| case.name == name)
            .map(|(case, _)| case.pattern.as_str())
            .unwrap_or_else(|| panic!("missing the {name} corpus case"));
        assert!(pattern.matches('\n').count() >= 3, "{name} must be a set");
        pattern
    };
    let bounded_gap_set = set_case("host-bit-wide-bounded-gap-set");
    let signature_set = set_case("host-bit-wide-bulk-scan-signatures");
    for (pattern, want) in [
        ("c(a|)t", EngineKind::Bit64),
        ("....", EngineKind::Bit64),
        ("a{70}b", EngineKind::Bit128),
        ("(ab|cd|ef){1,40}x", EngineKind::BitWide),
        ("abcd|abce|abcf", EngineKind::Bit64),
        (bounded_gap_set, EngineKind::Bit128),
        (signature_set, EngineKind::BitWide),
    ] {
        assert!(
            replayed.iter().any(|(case, _)| case.pattern == pattern),
            "missing the host corpus case for {pattern:?}"
        );
        assert_eq!(tier(pattern), want, "{pattern:?} no longer selects {want:?}");
    }
    // The dot-heavy case must really defeat the prefilter.
    let dots = cicero::compiler::compile("....").unwrap().into_program();
    assert_eq!(HostProgram::compile(&dots).prefilter_stop_bytes(), None);
}
