//! Exact pin of a set scan's per-pattern chunk counts: one FNV-1a-64
//! fingerprint per workload set over how many chunks each member matched
//! in, on both backends, at one and two jobs, at fuel unlimited, 0, 1, 8,
//! 499, 500 and 501 (host fuel is a byte cap, so the last three straddle
//! the 500-byte chunks). At unlimited fuel the counts are also held to the
//! Pike-VM oracle, member by member.
//!
//! The constants were generated while the counts still came from a second,
//! all-matches pass over each accepting chunk after the pool had run, and
//! must never be edited to make a runtime change pass: a fingerprint that
//! moves means a member's count changed.

use cicero::prelude::*;
use workloads::Benchmark;

const FUELS: [Option<u64>; 7] = [None, Some(0), Some(1), Some(8), Some(499), Some(500), Some(501)];

/// Chunks each member matches in, by the oracle.
fn oracle_counts(bench: &Benchmark) -> Vec<u64> {
    bench
        .patterns
        .iter()
        .map(|pattern| {
            let oracle = Oracle::new(pattern).unwrap();
            bench.chunks.iter().filter(|chunk| oracle.is_match(chunk)).count() as u64
        })
        .collect()
}

fn fingerprint(bench: &Benchmark) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let config = ArchConfig::new_organization(16, 1);
    let oracle = oracle_counts(bench);
    for jobs in [1, 2] {
        let runtime = Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() });
        let program = runtime.compile_set(&bench.patterns).unwrap();
        for backend in [Backend::Sim, Backend::Host] {
            let runtime = runtime.with_backend(backend);
            for fuel in FUELS {
                let budget = Budget { fuel, deadline: None };
                let batch = runtime.run_batch_guarded(&program, &bench.chunks, &config, &budget);
                let counts = batch.per_pattern(bench.patterns.len());
                if fuel.is_none() {
                    assert_eq!(counts, oracle, "{} on {backend}, jobs {jobs}", bench.name);
                }
                for byte in format!("{counts:?}").bytes().chain([0xff]) {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    hash
}

fn check(bench: &Benchmark, pinned: u64) {
    let got = fingerprint(bench);
    assert_eq!(got, pinned, "{}: per-pattern counts changed, now {got:#018x}", bench.name);
}

#[test]
fn protomata_per_pattern_counts_are_pinned() {
    check(&Benchmark::protomata(7, 8, 32), 0x9508_e9ee_2110_7929);
}

#[test]
fn brill_per_pattern_counts_are_pinned() {
    check(&Benchmark::brill(7, 8, 32), 0x57ef_56bb_1bbd_b1b5);
}

#[test]
fn protomata4_per_pattern_counts_are_pinned() {
    check(&Benchmark::protomata4(7, 2, 16), 0x150f_38bb_3d59_76ad);
}
