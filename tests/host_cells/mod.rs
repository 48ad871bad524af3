//! The pattern sets the host-lowering pins fingerprint, and the
//! fingerprint itself, shared by `tests/host_lowering_pinned.rs` (engine
//! shape and outcomes of the ISA un-lowering) and
//! `tests/host_outcomes_pinned.rs` (outcomes only, held for both the ISA
//! un-lowering and the engine the compile lowers from `regex` IR, which
//! must also be no larger than the other in every cell).
//!
//! The cells are the served benchmark's three suites (`registry-small`,
//! `bulk-scan`, `dsa-sim`, suite seed 7), every multi-pattern case of the
//! difftest corpus, and BRILL sets drawn from seeded rngs: 32 of four
//! rules (the shape of an inline `/scan` request) and 4 of sixteen. Each
//! set is scanned over its chunks plus one chunk per member with the
//! member's witness planted.

use cicero::difftest;
use cicero_core::{Backend, Compiler, CompilerOptions};
use cicero_hostexec::{EngineKind, HostProgram};
use cicero_isa::EncodedProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{brill, Benchmark};

/// One fingerprinted pattern set.
pub struct Cell {
    pub name: String,
    pub patterns: Vec<String>,
    /// The scanned chunks, witnesses included.
    pub chunks: Vec<Vec<u8>>,
}

impl Cell {
    fn new(name: String, patterns: Vec<String>, text: &[Vec<u8>]) -> Cell {
        let mut chunks = text.to_vec();
        chunks.extend(Benchmark::from_patterns(&patterns).chunks);
        Cell { name, patterns, chunks }
    }
}

fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The fingerprint of `cell` (all optimizations off, then on) and the
/// engine its optimized program lowers to: the compile's direct lowering
/// from `regex` IR when `direct`, else its ISA un-lowered. Each program
/// contributes its encoding, then — with `shape` — the engine, its state
/// and byte-class counts and prefilter stop bytes, then `run_all` on
/// every chunk: first stop, bytes examined, id set.
pub fn fingerprint(cell: &Cell, shape: bool, direct: bool) -> (u64, EngineKind) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut kind = EngineKind::Interp;
    for options in [CompilerOptions::unoptimized(), CompilerOptions::optimized()] {
        let compiler = Compiler::with_options(options.with_backend(Backend::Host));
        let set = compiler.compile_set(&cell.patterns).unwrap();
        hash = fnv1a64(hash, &EncodedProgram::from_program(set.program()).to_bytes());
        let isa = HostProgram::compile(set.program());
        let lowered = &set.host().expect("a host compile lowers").engine;
        assert!(
            lowered.state_count() <= isa.state_count() && lowered.mask_words() <= isa.mask_words(),
            "{}: the direct engine ({} states, {} words) is larger than the ISA path's ({}, {})",
            cell.name,
            lowered.state_count(),
            lowered.mask_words(),
            isa.state_count(),
            isa.mask_words()
        );
        let host = if direct { lowered } else { &isa };
        kind = host.engine_kind();
        if shape {
            let shape = format!(
                "{kind}/{}/{}/{:?};",
                host.state_count(),
                host.byte_class_count(),
                host.prefilter_stop_bytes()
            );
            hash = fnv1a64(hash, shape.as_bytes());
        }
        for chunk in &cell.chunks {
            let out = host.run_all(chunk);
            let first = out.first;
            let row = format!(
                "{}/{:?}/{:?}/{}/{:?};",
                first.accepted,
                first.match_position,
                first.matched_id,
                out.examined,
                out.matched_ids
            );
            hash = fnv1a64(hash, row.as_bytes());
        }
    }
    (hash, kind)
}

/// The served benchmark's suites.
pub fn benchmark_cells() -> Vec<Cell> {
    [
        ("registry-small", Benchmark::brill(7, 4, 16)),
        ("bulk-scan", Benchmark::protomata(7, 16, 16)),
        ("dsa-sim", Benchmark::protomata(7, 8, 16)),
    ]
    .into_iter()
    .map(|(name, bench)| Cell::new(name.to_string(), bench.patterns, &bench.chunks))
    .collect()
}

/// Every multi-pattern case of the difftest corpus, in file-name order.
pub fn corpus_cells() -> Vec<Cell> {
    let text = Benchmark::brill(7, 4, 8).chunks;
    let corpus = difftest::load_dir(&difftest::default_corpus_dir()).unwrap();
    corpus
        .iter()
        .map(|case| (case.name.clone(), difftest::split_set(&case.pattern)))
        .filter(|(_, members)| members.len() > 1)
        .map(|(name, members)| Cell::new(name, members, &text))
        .collect()
}

/// 32 four-rule BRILL sets (rng seed 7), then 4 sixteen-rule ones (rng
/// seed 16).
pub fn inline_cells() -> Vec<Cell> {
    let text = Benchmark::brill(7, 4, 8).chunks;
    let mut cells = Vec::new();
    for (seed, sets, rules) in [(7, 32, 4), (16, 4, 16)] {
        let mut rng = StdRng::seed_from_u64(seed);
        for index in 0..sets {
            let set: Vec<String> = (0..rules).map(|_| brill::rule(&mut rng)).collect();
            cells.push(Cell::new(format!("brill{rules}-{index}"), set, &text));
        }
    }
    cells
}

/// Fingerprint every cell and hold each to its `pinned` hash; the cells'
/// names must be `pinned`'s, in order. With `shape` the engine is the ISA
/// un-lowering's; without it, the outcomes of both engines are held to
/// the one hash. Returns the engines the cells' ISA un-lowers to.
pub fn assert_pinned(cells: &[Cell], pinned: &[(&str, u64)], shape: bool) -> Vec<EngineKind> {
    let engines: &[bool] = if shape { &[false] } else { &[false, true] };
    let mut kinds = Vec::new();
    for &direct in engines {
        let (all, engine_kinds): (Vec<(&str, u64)>, Vec<EngineKind>) = cells
            .iter()
            .map(|cell| {
                let (hash, kind) = fingerprint(cell, shape, direct);
                ((cell.name.as_str(), hash), kind)
            })
            .unzip();
        let what = match (shape, direct) {
            (true, _) => "host lowering",
            (false, false) => "host outcomes",
            (false, true) => "direct host outcomes",
        };
        let names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        let pinned_names: Vec<&str> = pinned.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, pinned_names, "every cell is pinned; all: {all:#018x?}");
        for ((name, got), (_, want)) in all.iter().zip(pinned) {
            assert_eq!(got, want, "{name}: {what} changed; all cells: {all:#018x?}");
        }
        if !direct {
            kinds = engine_kinds;
        }
    }
    kinds
}
