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

/// The corpus keeps the empty-path alternation seed `x(a?|a*)y`, an
/// old shrink of the pattern-level properties: the case is present by
/// name and pattern, and passes the full matrix.
#[test]
fn the_empty_path_alternation_seed_is_committed() {
    let replayed = replay_all();
    let (case, outcome) = replayed
        .iter()
        .find(|(case, _)| case.name == "seed-proptest-empty-path-alternation")
        .expect("missing the corpus case seed-proptest-empty-path-alternation");
    assert_eq!(case.pattern, "x(a?|a*)y");
    assert_eq!(*outcome, difftest::Outcome::Pass);
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
/// cover both host engines: each lowers onto the bit-parallel engine,
/// with the interpreter fallback beside it in `every_engine` (the
/// difftest matrix holds the two to each other), and together they span
/// one, two and four mask words. They are an empty alternative, a
/// prefilter-defeating dot pattern, a 73-state counted repeat, a counted
/// alternation, a shared-prefix set, and two bounded-gap signature sets.
#[test]
fn the_host_backend_corpus_cases_cover_every_engine_tier() {
    use cicero::hostexec::{EngineKind, HostProgram};
    let replayed = replay_all();
    // A newline-joined `pattern` is a set (the registry axis' encoding):
    // its engines are those of its one `compile_set` program.
    let engines = |pattern: &str| {
        let members = difftest::split_set(pattern);
        let program = match members.as_slice() {
            [single] => cicero::compiler::compile(single).unwrap().into_program(),
            _ => cicero::compiler::Compiler::new().compile_set(&members).unwrap().program().clone(),
        };
        HostProgram::every_engine(&program)
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
    for (pattern, words) in [
        ("c(a|)t", 1),
        ("....", 1),
        ("a{70}b", 2),
        ("(ab|cd|ef){1,40}x", 4),
        ("abcd|abce|abcf", 1),
        (bounded_gap_set, 2),
        (signature_set, 4),
    ] {
        assert!(
            replayed.iter().any(|(case, _)| case.pattern == pattern),
            "missing the host corpus case for {pattern:?}"
        );
        let engines = engines(pattern);
        let kinds: Vec<EngineKind> = engines.iter().map(HostProgram::engine_kind).collect();
        assert_eq!(kinds, [EngineKind::BitWide, EngineKind::Interp], "{pattern:?}");
        assert_eq!(engines[0].mask_words(), words, "{pattern:?} no longer steps {words} words");
    }
    // The dot-heavy case must really defeat the prefilter.
    let dots = cicero::compiler::compile("....").unwrap().into_program();
    assert_eq!(HostProgram::compile(&dots).prefilter_stop_bytes(), None);
}

/// The expected-error cases stay committed and pass: the pattern that
/// multiplies to a million instructions, the one a single nest past the
/// address space (code generation's wall) and 251 nested groups are each
/// refused, with the named error, by the new compiler and the legacy one.
#[test]
fn the_refused_inputs_are_committed_and_refused_by_both_compilers() {
    let replayed = replay_all();
    let nested = format!("{}a{}", "(".repeat(251), ")".repeat(251));
    for pattern in ["(a{1024}){1024}", "(a{1024}){9}", nested.as_str()] {
        let (case, outcome) = replayed
            .iter()
            .find(|(case, _)| case.pattern == pattern && case.refusal.is_some())
            .unwrap_or_else(|| panic!("missing the expected-error case for {pattern:.20}…"));
        assert_eq!(*outcome, difftest::Outcome::Pass, "corpus case `{}`", case.name);
    }
}
