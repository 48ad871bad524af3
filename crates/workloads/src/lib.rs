//! Synthetic benchmark workloads standing in for AutomataZoo's Protomata
//! and Brill suites (Wadden et al., IISWC'18), which the paper evaluates
//! on (§6). The original datasets cannot be redistributed here; these
//! generators reproduce the *structural* properties that drive the
//! experiments (see DESIGN.md):
//!
//! * **Protomata** — PROSITE-style protein signatures over the 20-letter
//!   amino-acid alphabet: chains of residue classes (`[LIVM]`), exact
//!   residues, and bounded gaps (`.{2,8}`). Deep programs, many splits
//!   from class lowering, long partial matches on protein-like input.
//! * **Brill** — Brill-tagger contextual rules over lowercase text:
//!   literal words, small alternations, optional suffixes. Shallower,
//!   literal-heavy programs.
//!
//! Both suites come in the paper's two strategies:
//!
//! * *simple* — the first `n` patterns ([`Benchmark::protomata`],
//!   [`Benchmark::brill`]);
//! * *alternate* — sample `4n` patterns and OR them four at a time
//!   ([`Benchmark::protomata4`], [`Benchmark::brill4`]), the
//!   "at least one of them matching triggers an acceptance behaviour"
//!   scenario.
//!
//! Inputs are split into 500-byte chunks (§6) and a configurable fraction
//! of chunks has a guaranteed match planted, so halt-on-accept paths are
//! exercised. Everything is seeded and deterministic.
//!
//! # Example
//!
//! ```
//! use workloads::Benchmark;
//!
//! let bench = Benchmark::protomata(42, 10, 4);
//! assert_eq!(bench.patterns.len(), 10);
//! assert_eq!(bench.chunks.len(), 4);
//! assert!(bench.chunks.iter().all(|c| c.len() == 500));
//! ```

pub mod brill;
pub mod protomata;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Benchmark chunk size in bytes (§6: "we split the input data into
/// chunks of 500 bytes each").
pub const CHUNK_BYTES: usize = 500;

/// Fraction of chunks that get a witness substring planted for a randomly
/// chosen pattern, so some executions accept early.
const PLANT_FRACTION: f64 = 0.3;

/// Seed every standard suite is generated from, so the paper's figures and
/// the tuner's packs are the same inputs.
pub const SEED: u64 = 0xC1CE_2025;

/// Suite scale (patterns per suite, input chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// The name `CICERO_BENCH_SCALE` spells and bench artifacts record.
    pub name: &'static str,
    /// Patterns per suite.
    pub patterns: usize,
    /// 500-byte chunks per suite.
    pub chunks: usize,
}

impl Scale {
    /// A smoke run.
    pub const QUICK: Scale = Scale { name: "quick", patterns: 8, chunks: 2 };
    /// What EXPERIMENTS.md records, and what `cicero tune`'s packs are.
    pub const DEFAULT: Scale = Scale { name: "default", patterns: 16, chunks: 4 };
    /// The paper's pattern count.
    pub const FULL: Scale = Scale { name: "full", patterns: 200, chunks: 48 };
}

/// The four standard suites at `scale`, generated from [`SEED`].
pub fn suites(scale: Scale) -> Vec<Benchmark> {
    Benchmark::all(SEED, scale.patterns, scale.chunks)
}

/// A generated benchmark: patterns plus input chunks.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name (`PROTOMATA`, `BRILL4`, …).
    pub name: &'static str,
    /// The regular expressions, in suite order.
    pub patterns: Vec<String>,
    /// 500-byte input chunks.
    pub chunks: Vec<Vec<u8>>,
}

impl Benchmark {
    /// The Protomata-like suite: `patterns` signatures and `chunks`
    /// protein-sequence chunks.
    pub fn protomata(seed: u64, patterns: usize, chunks: usize) -> Benchmark {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5052_4F54);
        let patterns: Vec<String> = (0..patterns).map(|_| protomata::signature(&mut rng)).collect();
        let chunks = make_chunks(&mut rng, &patterns, chunks, protomata::sequence_chunk);
        Benchmark { name: "PROTOMATA", patterns, chunks }
    }

    /// The Brill-like suite.
    pub fn brill(seed: u64, patterns: usize, chunks: usize) -> Benchmark {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4252_494C);
        let patterns: Vec<String> = (0..patterns).map(|_| brill::rule(&mut rng)).collect();
        let chunks = make_chunks(&mut rng, &patterns, chunks, brill::text_chunk);
        Benchmark { name: "BRILL", patterns, chunks }
    }

    /// The *alternate* Protomata strategy: sample `4 × patterns`
    /// signatures and alternate them four at a time (§6).
    pub fn protomata4(seed: u64, patterns: usize, chunks: usize) -> Benchmark {
        let mut b = Benchmark::protomata(seed ^ 0x34, patterns * 4, chunks);
        b.name = "PROTOMATA4";
        b.patterns = alternate4(b.patterns);
        b
    }

    /// The *alternate* Brill strategy.
    pub fn brill4(seed: u64, patterns: usize, chunks: usize) -> Benchmark {
        let mut b = Benchmark::brill(seed ^ 0x34, patterns * 4, chunks);
        b.name = "BRILL4";
        b.patterns = alternate4(b.patterns);
        b
    }

    /// The four standard suites at the given scale, in the paper's order.
    pub fn all(seed: u64, patterns: usize, chunks: usize) -> Vec<Benchmark> {
        vec![
            Benchmark::protomata(seed, patterns, chunks),
            Benchmark::brill(seed, patterns, chunks),
            Benchmark::protomata4(seed, patterns, chunks),
            Benchmark::brill4(seed, patterns, chunks),
        ]
    }

    /// A `CUSTOM` suite for raw patterns. Inputs are synthesized: one chunk
    /// of low-entropy filler per pattern with that pattern's witness planted
    /// mid-chunk (when one can be derived), so both the scan-through and the
    /// halt-on-accept paths are exercised.
    pub fn from_patterns(patterns: &[String]) -> Benchmark {
        let chunks = patterns
            .iter()
            .enumerate()
            .map(|(i, pattern)| {
                let mut chunk: Vec<u8> =
                    (0..CHUNK_BYTES).map(|j| b'a' + ((i + j) % 17) as u8).collect();
                if let Some(witness) = witness_for(pattern) {
                    if witness.len() < chunk.len() {
                        let at = (chunk.len() - witness.len()) / 2;
                        chunk[at..at + witness.len()].copy_from_slice(&witness);
                    }
                }
                chunk
            })
            .collect();
        Benchmark { name: "CUSTOM", patterns: patterns.to_vec(), chunks }
    }
}

/// OR groups of four patterns into one (`(a)|(b)|(c)|(d)`).
fn alternate4(patterns: Vec<String>) -> Vec<String> {
    patterns
        .chunks(4)
        .map(|group| group.iter().map(|p| format!("({p})")).collect::<Vec<_>>().join("|"))
        .collect()
}

/// Generate input chunks, planting witnesses for randomly chosen patterns
/// in a fraction of them.
fn make_chunks(
    rng: &mut StdRng,
    patterns: &[String],
    count: usize,
    base: fn(&mut StdRng, usize) -> Vec<u8>,
) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut chunk = base(rng, CHUNK_BYTES);
            if !patterns.is_empty() && rng.random_bool(PLANT_FRACTION) {
                let pattern = &patterns[rng.random_range(0..patterns.len())];
                if let Some(witness) = witness_for(pattern) {
                    if witness.len() < chunk.len() {
                        let at = rng.random_range(0..chunk.len() - witness.len());
                        chunk[at..at + witness.len()].copy_from_slice(&witness);
                    }
                }
            }
            chunk
        })
        .collect()
}

/// Produce a string matched by `pattern`, by walking its syntax and taking
/// cheap choices (first class member, minimum repetitions, first
/// alternative). Handles exactly the generator grammars used in this
/// crate; returns `None` on anything else (anchors, negated classes).
pub fn witness_for(pattern: &str) -> Option<Vec<u8>> {
    let bytes = pattern.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => {
                depth += 1;
                i += 1;
            }
            b')' => {
                depth = depth.checked_sub(1)?;
                i += 1;
                if matches!(bytes.get(i), Some(b'*') | Some(b'?') | Some(b'+') | Some(b'{')) {
                    // Quantified groups do not appear in the generators'
                    // output (except `+`/nothing which one occurrence
                    // already satisfies); reject the rest.
                    match bytes[i] {
                        b'+' => i += 1,
                        _ => return None,
                    }
                }
            }
            b'|' => {
                // Take the first alternative: skip to the end of this
                // group (or of the pattern at top level).
                let target_depth = depth;
                while i < bytes.len() {
                    match bytes[i] {
                        b'(' => depth += 1,
                        b')' => {
                            if depth == target_depth {
                                break; // the `)` closing our group
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            b'[' => {
                i += 1;
                if bytes.get(i) == Some(&b'^') {
                    return None;
                }
                let first = *bytes.get(i)?;
                out.push(first);
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
                i += 1;
                i = apply_quantifier(bytes, i, &mut out)?;
            }
            b'.' => {
                out.push(b'x');
                i += 1;
                i = apply_quantifier(bytes, i, &mut out)?;
            }
            b'^' | b'$' => return None,
            b'\\' => {
                out.push(*bytes.get(i + 1)?);
                i += 2;
                i = apply_quantifier(bytes, i, &mut out)?;
            }
            c => {
                out.push(c);
                i += 1;
                i = apply_quantifier(bytes, i, &mut out)?;
            }
        }
    }
    Some(out)
}

/// After emitting one occurrence of the previous atom, satisfy its
/// quantifier by duplicating or removing that occurrence.
fn apply_quantifier(bytes: &[u8], mut i: usize, out: &mut Vec<u8>) -> Option<usize> {
    match bytes.get(i) {
        Some(b'*') | Some(b'?') => {
            out.pop();
            i += 1;
        }
        Some(b'+') => {
            i += 1;
        }
        Some(b'{') => {
            let end = i + bytes[i..].iter().position(|b| *b == b'}')?;
            let body = std::str::from_utf8(&bytes[i + 1..end]).ok()?;
            let min: usize = body.split(',').next()?.parse().ok()?;
            let c = *out.last()?;
            if min == 0 {
                out.pop();
            } else {
                for _ in 1..min {
                    out.push(c);
                }
            }
            i = end + 1;
        }
        _ => {}
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Benchmark::protomata(7, 5, 3);
        let b = Benchmark::protomata(7, 5, 3);
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.chunks, b.chunks);
        let c = Benchmark::protomata(8, 5, 3);
        assert_ne!(a.patterns, c.patterns);
    }

    #[test]
    fn all_patterns_parse_in_both_compilers() {
        for bench in Benchmark::all(11, 12, 2) {
            for pattern in &bench.patterns {
                cicero_core::compile(pattern)
                    .unwrap_or_else(|e| panic!("{}: {pattern:?}: {e}", bench.name));
                cicero_legacy::LegacyCompiler::new(true)
                    .compile(pattern)
                    .unwrap_or_else(|e| panic!("{}: {pattern:?}: {e}", bench.name));
            }
        }
    }

    #[test]
    fn alternate_strategy_groups_by_four() {
        let simple = Benchmark::protomata(3, 8, 1);
        let alt = Benchmark::protomata4(3, 2, 1);
        assert_eq!(alt.patterns.len(), 2);
        assert!(alt.patterns[0].matches('|').count() >= 3, "{:?}", alt.patterns[0]);
        assert_eq!(simple.patterns.len(), 8);
    }

    #[test]
    fn witnesses_actually_match() {
        for bench in Benchmark::all(13, 10, 1) {
            for pattern in &bench.patterns {
                let witness =
                    witness_for(pattern).unwrap_or_else(|| panic!("no witness for {pattern:?}"));
                let oracle = regex_oracle::Oracle::new(pattern).unwrap();
                assert!(
                    oracle.is_match(&witness),
                    "{}: witness {:?} does not match {pattern:?}",
                    bench.name,
                    String::from_utf8_lossy(&witness)
                );
            }
        }
    }

    #[test]
    fn custom_suites_plant_witnesses() {
        let custom = Benchmark::from_patterns(&["needle".to_owned()]);
        assert_eq!(custom.chunks.len(), 1);
        let hay = &custom.chunks[0];
        assert!(hay.windows(6).any(|win| win == b"needle"), "witness must be planted");
        assert!(Benchmark::from_patterns(&[]).chunks.is_empty());
    }

    #[test]
    fn chunks_are_500_bytes() {
        for bench in Benchmark::all(17, 4, 6) {
            assert_eq!(bench.chunks.len(), 6);
            for chunk in &bench.chunks {
                assert_eq!(chunk.len(), CHUNK_BYTES);
            }
        }
    }

    #[test]
    fn some_chunks_match_some_do_not() {
        // With planting at 30%, a benchmark of reasonable size has both
        // matching and non-matching (pattern, chunk) pairs.
        let bench = Benchmark::protomata(23, 10, 10);
        let oracles: Vec<_> =
            bench.patterns.iter().map(|p| regex_oracle::Oracle::new(p).unwrap()).collect();
        let mut matches = 0;
        let mut misses = 0;
        for chunk in &bench.chunks {
            for oracle in &oracles {
                if oracle.is_match(chunk) {
                    matches += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(matches > 0, "no matches at all");
        assert!(misses > 0, "everything matches");
    }
}
