//! The registry axis: pattern *sets* round-tripped through the serving
//! registry (`cicero-server`), held to the oracle on both backends.
//!
//! The other axes check the compiler and engines directly; this one
//! checks the production *artifact path*: a set is compiled through the
//! shared [`Runtime`] cache, persisted by [`RulesetRegistry::put`] as a
//! content-hash-versioned artifact, reloaded by a *fresh* registry (a
//! restarted server), and only then executed. Two cells per case:
//!
//! * `registry/sim` — [`cicero_isa::run_all`] over the reloaded program
//!   must report exactly the set members the per-pattern oracles match;
//! * `registry/host` — the host-native lowering of the reloaded program
//!   must report the same id set.
//!
//! Anything lost or corrupted in encode → persist → verify → decode
//! shows up as a divergence here even though the in-memory matrix is
//! clean.

use std::path::{Path, PathBuf};

use cicero_runtime::Runtime;
use cicero_server::registry::{RegistryError, RulesetRegistry};
use cicero_telemetry::Telemetry;
use regex_oracle::Oracle;

use crate::harness::{Divergence, Outcome};

/// The registry id every round-trip uses; cases are isolated by
/// directory, not by id.
const CASE_ID: &str = "case";

/// Run one pattern set and its inputs through the registry axis.
///
/// `dir` must be a directory this case may freely write artifacts into
/// (callers use a per-case temp dir); it is created if missing and left
/// in place for post-mortem inspection on divergence.
pub fn check_registry_case(
    runtime: &Runtime,
    dir: &Path,
    patterns: &[String],
    inputs: &[Vec<u8>],
) -> Outcome {
    let mut oracles = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        match Oracle::new(pattern) {
            Ok(oracle) => oracles.push(oracle),
            Err(e) => return Outcome::Skip(format!("unparseable pattern {pattern:?}: {e}")),
        }
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        return Outcome::Skip(format!("cannot create case dir {}: {e}", dir.display()));
    }

    let writer = RulesetRegistry::new(Some(dir.to_path_buf()), Telemetry::new());
    let put = match writer.put(runtime, CASE_ID, patterns.to_vec()) {
        Ok(outcome) => outcome,
        // Sets the compiler rejects (anchored members, capacity, empty)
        // are not round-trippable; compile correctness itself is the
        // main matrix's job, this axis owns persist/reload fidelity.
        Err(RegistryError::Compile(e)) => {
            return Outcome::Skip(format!("set does not compile: {e}"))
        }
        Err(e) => {
            return Outcome::Diverged(Divergence {
                cell: "registry/put".to_owned(),
                detail: format!("round-trip write failed on a compilable set: {e}"),
            })
        }
    };

    // A fresh registry over the same directory models a server restart:
    // the artifact must reload (content hash verified) to the exact
    // version the put reported.
    let reader = RulesetRegistry::new(Some(dir.to_path_buf()), Telemetry::new());
    if let Err(e) = reader.load_dir(runtime) {
        return Outcome::Diverged(Divergence {
            cell: "registry/load".to_owned(),
            detail: format!("persisted artifact failed to reload: {e}"),
        });
    }
    let Some(pin) = reader.pin(CASE_ID) else {
        return Outcome::Diverged(Divergence {
            cell: "registry/load".to_owned(),
            detail: "ruleset missing after reload".to_owned(),
        });
    };
    if pin.version() != put.version {
        return Outcome::Diverged(Divergence {
            cell: "registry/version".to_owned(),
            detail: format!(
                "reloaded version {} != written version {}",
                pin.version(),
                put.version
            ),
        });
    }

    // The engine a served scan of the reloaded ruleset runs on.
    let program = pin.program();
    let host = runtime.host_program(program);
    for input in inputs {
        let expected: Vec<u16> = oracles
            .iter()
            .enumerate()
            .filter(|(_, oracle)| oracle.is_match(input))
            .map(|(id, _)| id as u16)
            .collect();
        let interp = cicero_isa::run_all(program, input);
        if interp.matched_ids != expected {
            return Outcome::Diverged(Divergence {
                cell: "registry/sim".to_owned(),
                detail: format!(
                    "reloaded program matched ids {:?} on {input:?}, oracle says {expected:?}",
                    interp.matched_ids
                ),
            });
        }
        let host_all = host.run_all(input);
        if host_all.matched_ids != expected {
            return Outcome::Diverged(Divergence {
                cell: format!("registry/host/{}", host.engine_kind()),
                detail: format!(
                    "host engine matched ids {:?} on {input:?}, oracle says {expected:?}",
                    host_all.matched_ids
                ),
            });
        }
    }
    Outcome::Pass
}

/// A scratch directory for one registry case, unique per call: replays
/// of one case may run concurrently in one process (`cargo test` runs a
/// file's tests on parallel threads), and one clearing the directory
/// under another reads as a lost artifact.
pub fn case_dir(name: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("cicero-difftest-registry-{}-{call}-{name}", std::process::id()))
}

/// Corpus encoding for a pattern *set*: members are newline-joined in
/// the single `pattern` field (the generator grammar never emits a
/// literal newline, and `\n` in a pattern spells one via the escape).
pub fn split_set(pattern: &str) -> Vec<String> {
    pattern.split('\n').map(str::to_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Generator;
    use cicero_runtime::RuntimeOptions;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeOptions { jobs: 1, ..RuntimeOptions::default() })
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = case_dir(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn known_sets_pass_the_registry_axis() {
        let runtime = runtime();
        let sets: [&[&str]; 3] =
            [&["ab|cd", "x(a?|a*)y", "th(is|at)"], &["(a*)*b", "[^ab]c"], &["a{2,4}b?"]];
        for (i, set) in sets.iter().enumerate() {
            let patterns: Vec<String> = set.iter().map(|s| (*s).to_owned()).collect();
            let inputs: Vec<Vec<u8>> = vec![
                b"".to_vec(),
                b"ab".to_vec(),
                b"xxaayy".to_vec(),
                b"zcz".to_vec(),
                b"thisthat".to_vec(),
                vec![b'a'; 40],
            ];
            let dir = scratch(&format!("known-{i}"));
            let outcome = check_registry_case(&runtime, &dir, &patterns, &inputs);
            assert_eq!(outcome, Outcome::Pass, "set {set:?}: {outcome:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Seeded fuzz over generator-drawn sets: every round-trip must hold
    /// the `registry/{sim,host}` cells to the oracle.
    #[test]
    fn random_sets_round_trip_clean() {
        let runtime = runtime();
        let mut generator = Generator::new(0xc1c3_2024);
        for iteration in 0..12 {
            let mut patterns = Vec::new();
            let mut inputs = Vec::new();
            for _ in 0..=(iteration % 3) {
                let (pattern, ast) = generator.pattern();
                inputs.extend(generator.inputs(&ast));
                patterns.push(pattern);
            }
            let dir = scratch(&format!("fuzz-{iteration}"));
            let outcome = check_registry_case(&runtime, &dir, &patterns, &inputs);
            assert!(!outcome.diverged(), "iteration {iteration}, set {patterns:?}: {outcome:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A tampered artifact must fail the reload, and the axis must
    /// attribute that to the registry, not the engines.
    #[test]
    fn a_corrupted_artifact_is_a_registry_divergence() {
        let runtime = runtime();
        let dir = scratch("tampered");
        std::fs::create_dir_all(&dir).unwrap();
        // Tamper a *sibling* artifact: the case's own put would rewrite
        // its file, but the reload walks the whole directory.
        let writer = RulesetRegistry::new(Some(dir.clone()), Telemetry::new());
        writer.put(&runtime, "other", vec!["cd".to_owned()]).unwrap();
        let path = dir.join("other.ruleset");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 3);
        std::fs::write(&path, text).unwrap();
        let outcome = check_registry_case(&runtime, &dir, &["ab".to_owned()], &[b"ab".to_vec()]);
        match outcome {
            Outcome::Diverged(d) => assert!(d.cell.starts_with("registry/"), "{d}"),
            other => panic!("corruption not caught: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_set_round_trips_newline_joined_members() {
        assert_eq!(split_set("ab"), vec!["ab"]);
        assert_eq!(split_set("ab\ncd|ef"), vec!["ab", "cd|ef"]);
    }
}
