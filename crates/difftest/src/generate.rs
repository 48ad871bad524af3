//! Seeded random generation of patterns and adversarial inputs.
//!
//! The generator covers the **full supported grammar** — nested groups,
//! negated classes, bounded repeats, anchors, multi-way alternation —
//! and is the one pattern source of every randomized test: the fuzzer
//! and the seeded property loops of `tests/proptest_properties.rs`.
//! Every emitted pattern is round-tripped through the real front-end
//! parser, so the harness never wastes a case on syntax the workspace
//! rejects.
//!
//! Inputs are built per pattern: a *witness* (a string constructed by
//! walking the AST, so matches actually occur), the witness embedded in
//! noise or truncated into a near-miss, random draws over the pattern's
//! own alphabet, high-byte/non-ASCII noise, and long single-byte runs
//! that stress pathological quantifier nesting.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regex_frontend::{
    Alternation, Atom, ByteSet, Concatenation, Piece, Quantifier, RegexAst, Span,
};

/// The literal alphabet patterns are mostly drawn from; inputs reuse it so
/// matches are likely.
const LITERALS: &[u8] = b"abcdefgh";

/// Rare bytes mixed into both patterns and inputs: NUL, newline, space,
/// DEL, the 0x80 non-ASCII boundary, a UTF-8 lead byte, 0xff, and bytes
/// that are metacharacters when unescaped.
const RARE_BYTES: &[u8] = &[0x00, 0x0a, 0x20, 0x7f, 0x80, 0xc3, 0xff, b'.', b'*', b'(', b'['];

/// A deterministic, seedable source of patterns and inputs.
pub struct Generator {
    rng: StdRng,
}

impl Generator {
    /// A generator whose whole output stream is a function of `seed`.
    pub fn new(seed: u64) -> Generator {
        Generator { rng: StdRng::seed_from_u64(seed) }
    }

    /// The next random pattern, already validated against the front-end
    /// (the parsed AST is returned alongside the text so callers never
    /// re-parse). Falls back to a trivial literal if rejection sampling
    /// somehow fails repeatedly.
    pub fn pattern(&mut self) -> (String, RegexAst) {
        for _ in 0..64 {
            let ast = if self.rng.random_bool(0.15) {
                self.adversarial_template()
            } else {
                self.random_ast()
            };
            let text = ast.to_pattern();
            if text.len() > 120 {
                continue; // keep reproducers and compile times reasonable
            }
            if let Ok(parsed) = regex_frontend::parse(&text) {
                return (text, parsed);
            }
        }
        let fallback = "a".to_owned();
        let ast = regex_frontend::parse(&fallback).expect("literal parses");
        (fallback, ast)
    }

    /// The canned input shapes for one pattern (empty, witness-in-noise,
    /// near-miss, alphabet noise, single-byte run, high-byte noise).
    pub fn inputs(&mut self, ast: &RegexAst) -> Vec<Vec<u8>> {
        let alphabet = input_alphabet(ast);
        let witness = self.witness(ast).unwrap_or_default();
        let mut inputs = Vec::with_capacity(6);
        inputs.push(Vec::new());
        inputs.push(self.embed_in_noise(ast, &witness, &alphabet));
        if !witness.is_empty() {
            // Near-miss: the witness minus its final byte.
            inputs.push(witness[..witness.len() - 1].to_vec());
        }
        inputs.push(self.noise(&alphabet, 40));
        inputs.push(vec![*pick(&mut self.rng, &alphabet); self.rng.random_range(16usize..=48)]);
        inputs.push(self.noise(RARE_BYTES, 12));
        inputs
    }

    /// A random chunk-split vector for the streaming axis: 1–4 split
    /// points drawn over the longest input (shorter inputs simply ignore
    /// the out-of-range points). Biased toward small positions so splits
    /// frequently land inside the witness match near the input's start.
    pub fn splits(&mut self, inputs: &[Vec<u8>]) -> Vec<usize> {
        let max_len = inputs.iter().map(Vec::len).max().unwrap_or(0);
        if max_len < 2 {
            return Vec::new();
        }
        let n = self.rng.random_range(1usize..=4);
        (0..n)
            .map(|_| {
                if self.rng.random_bool(0.5) {
                    self.rng.random_range(1usize..=8.min(max_len - 1))
                } else {
                    self.rng.random_range(1usize..max_len)
                }
            })
            .collect()
    }

    // ---- patterns ----------------------------------------------------

    fn random_ast(&mut self) -> RegexAst {
        RegexAst {
            has_prefix: !self.rng.random_bool(0.2),
            has_suffix: !self.rng.random_bool(0.2),
            alternation: self.alternation(2),
        }
    }

    fn alternation(&mut self, depth: u32) -> Alternation {
        let n = self.rng.random_range(1usize..=3);
        let alternatives = (0..n).map(|_| self.concatenation(depth)).collect();
        Alternation { alternatives, span: Span::default() }
    }

    fn concatenation(&mut self, depth: u32) -> Concatenation {
        // Allow empty concatenations: `a|` style empty alternatives are
        // part of the supported grammar and a classic divergence hideout.
        let n = if self.rng.random_bool(0.08) { 0 } else { self.rng.random_range(1usize..=4) };
        let pieces = (0..n).map(|_| self.piece(depth)).collect();
        Concatenation { pieces, span: Span::default() }
    }

    fn piece(&mut self, depth: u32) -> Piece {
        Piece { atom: self.atom(depth), quantifier: self.quantifier(), span: Span::default() }
    }

    fn quantifier(&mut self) -> Option<Quantifier> {
        if self.rng.random_bool(0.6) {
            return None;
        }
        Some(match self.rng.random_range(0u32..6) {
            0 => Quantifier::STAR,
            1 => Quantifier::PLUS,
            2 => Quantifier::OPT,
            3 => {
                let m = self.rng.random_range(1u32..=3);
                Quantifier::range(m, Some(m))
            }
            4 => {
                let m = self.rng.random_range(0u32..=2);
                let extra = self.rng.random_range(1u32..=3);
                Quantifier::range(m, Some(m + extra))
            }
            _ => Quantifier::range(self.rng.random_range(1u32..=2), None),
        })
    }

    fn atom(&mut self, depth: u32) -> Atom {
        let roll = self.rng.random_range(0u32..100);
        if roll < 45 {
            Atom::Char(self.literal_byte())
        } else if roll < 55 {
            Atom::Any
        } else if roll < 78 || depth == 0 {
            self.class()
        } else {
            Atom::Group(Box::new(self.alternation(depth - 1)))
        }
    }

    fn literal_byte(&mut self) -> u8 {
        if self.rng.random_bool(0.12) {
            *pick(&mut self.rng, RARE_BYTES)
        } else {
            *pick(&mut self.rng, LITERALS)
        }
    }

    fn class(&mut self) -> Atom {
        let mut set = ByteSet::EMPTY;
        for _ in 0..self.rng.random_range(1usize..=3) {
            if self.rng.random_bool(0.4) {
                let lo = self.literal_byte();
                let width = self.rng.random_range(1u8..=3);
                set.insert_range(lo, lo.saturating_add(width));
            } else {
                set.insert(self.literal_byte());
            }
        }
        Atom::Class { negated: self.rng.random_bool(0.3), set }
    }

    /// Known-pathological shapes (catastrophic-backtracking classics,
    /// shortest-match boundary cases) instantiated with random letters.
    fn adversarial_template(&mut self) -> RegexAst {
        let a = *pick(&mut self.rng, LITERALS);
        let b = *pick(&mut self.rng, LITERALS);
        let template = match self.rng.random_range(0u32..6) {
            // (a*)*b — nested unbounded stars.
            0 => format!("({}*)*{}", a as char, b as char),
            // (a|a)*b — ambiguous alternation under a star.
            1 => format!("({0}|{0})*{1}", a as char, b as char),
            // (a?){3}b — bounded repeat of an optional.
            2 => format!("({}?){{3}}{}", a as char, b as char),
            // (a+)+ — star-of-plus.
            3 => format!("({}+)+", a as char),
            // abc|ab|a — shared-prefix alternation (factorization food).
            4 => format!("{0}{1}{0}|{0}{1}|{0}", a as char, b as char),
            // a{2,5}$ — trailing bounded repeat (shortest-match food).
            _ => format!("{}{{2,5}}$", a as char),
        };
        let anchored = if self.rng.random_bool(0.3) { format!("^{template}") } else { template };
        regex_frontend::parse(&anchored).unwrap_or_else(|_| self.random_ast())
    }

    // ---- inputs ------------------------------------------------------

    /// A string built by walking the AST: pick an alternative, repeat each
    /// atom its minimum count (sometimes one more), always emitting a byte
    /// the atom accepts. By construction the pattern matches the result —
    /// unless the walk blows the length budget, in which case `None` is
    /// returned rather than an unsound truncation.
    pub(crate) fn witness(&mut self, ast: &RegexAst) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        if self.witness_alternation(&ast.alternation, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Returns `false` when the 64-byte budget is exceeded mid-walk.
    fn witness_alternation(&mut self, alt: &Alternation, out: &mut Vec<u8>) -> bool {
        let i = self.rng.random_range(0usize..alt.alternatives.len());
        let concat = &alt.alternatives[i];
        for piece in &concat.pieces {
            let min = piece.quantifier.map_or(1, |q| q.min);
            let extra =
                u32::from(piece.quantifier.is_some_and(|q| {
                    q.max.is_none_or(|max| max > min) && self.rng.random_bool(0.5)
                }));
            for _ in 0..(min + extra) {
                if out.len() >= 64 {
                    return false;
                }
                if !self.witness_atom(&piece.atom, out) {
                    return false;
                }
            }
        }
        true
    }

    fn witness_atom(&mut self, atom: &Atom, out: &mut Vec<u8>) -> bool {
        match atom {
            Atom::Char(c) => out.push(*c),
            Atom::Any => out.push(*pick(&mut self.rng, LITERALS)),
            Atom::Class { negated, set } => {
                let effective = if *negated { ByteSet::FULL.difference(*set) } else { *set };
                let members: Vec<u8> = effective.iter().take(16).collect();
                if members.is_empty() {
                    return false; // class accepts nothing; no witness exists
                }
                out.push(*pick(&mut self.rng, &members));
            }
            Atom::Group(alt) => return self.witness_alternation(alt, out),
        }
        true
    }

    /// Surround the witness with noise, but only on sides the anchors
    /// leave open — an anchored pattern with noise against the anchor
    /// would turn the guaranteed match into a coin flip.
    fn embed_in_noise(&mut self, ast: &RegexAst, witness: &[u8], alphabet: &[u8]) -> Vec<u8> {
        let mut input = Vec::new();
        if ast.has_prefix {
            input.extend(self.noise(alphabet, 8));
        }
        input.extend_from_slice(witness);
        if ast.has_suffix {
            input.extend(self.noise(alphabet, 8));
        }
        input
    }

    fn noise(&mut self, alphabet: &[u8], max_len: usize) -> Vec<u8> {
        let len = self.rng.random_range(0usize..=max_len);
        (0..len).map(|_| *pick(&mut self.rng, alphabet)).collect()
    }
}

/// Bytes worth feeding a pattern: its own literals and class members, one
/// non-member per class (to exercise rejection edges), plus a fixed set of
/// boundary bytes.
fn input_alphabet(ast: &RegexAst) -> Vec<u8> {
    let mut bytes = Vec::new();
    collect_alternation(&ast.alternation, &mut bytes);
    bytes.extend_from_slice(b"az");
    bytes.extend_from_slice(&[0x00, 0x7f, 0xff]);
    bytes.sort_unstable();
    bytes.dedup();
    bytes
}

fn collect_alternation(alt: &Alternation, out: &mut Vec<u8>) {
    for concat in &alt.alternatives {
        for piece in &concat.pieces {
            match &piece.atom {
                Atom::Char(c) => out.push(*c),
                Atom::Any => {}
                Atom::Class { set, .. } => {
                    out.extend(set.iter().take(4));
                    // One byte just outside the written set.
                    out.extend(ByteSet::FULL.difference(*set).iter().take(1));
                }
                Atom::Group(inner) => collect_alternation(inner, out),
            }
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0usize..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Generator::new(7);
        let mut b = Generator::new(7);
        for _ in 0..50 {
            let (pa, asta) = a.pattern();
            let (pb, _) = b.pattern();
            assert_eq!(pa, pb);
            assert_eq!(a.inputs(&asta), b.inputs(&asta));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let patterns = |seed| {
            let mut g = Generator::new(seed);
            (0..20).map(|_| g.pattern().0).collect::<Vec<_>>()
        };
        assert_ne!(patterns(1), patterns(2));
    }

    #[test]
    fn every_pattern_parses_and_roundtrips() {
        let mut g = Generator::new(11);
        for _ in 0..300 {
            let (text, ast) = g.pattern();
            let reparsed = regex_frontend::parse(&text).expect("generator output parses");
            assert_eq!(reparsed.to_pattern(), ast.to_pattern(), "{text:?}");
        }
    }

    #[test]
    fn grammar_coverage_is_broad() {
        let mut g = Generator::new(3);
        let joined: String = (0..400).map(|_| g.pattern().0 + "\n").collect();
        for needle in ["(", "[^", "{", "|", "^", "$", "*", "+", "?", "\\x"] {
            assert!(joined.contains(needle), "no pattern used {needle:?}");
        }
    }

    #[test]
    fn witness_inputs_actually_match() {
        let mut g = Generator::new(23);
        let mut verified = 0;
        for _ in 0..300 {
            let (text, ast) = g.pattern();
            let oracle = regex_oracle::Oracle::from_ast(&ast);
            if let Some(witness) = g.witness(&ast) {
                assert!(oracle.is_match(&witness), "witness failed to match {text:?}: {witness:?}");
                verified += 1;
            }
        }
        // The budget bail-out must stay the exception, not the rule.
        assert!(verified > 250, "only {verified}/300 witnesses completed");
    }

    #[test]
    fn splits_are_in_range_and_deterministic() {
        let inputs: Vec<Vec<u8>> = vec![b"short".to_vec(), vec![b'x'; 30]];
        let mut a = Generator::new(9);
        let mut b = Generator::new(9);
        for _ in 0..50 {
            let sa = a.splits(&inputs);
            assert_eq!(sa, b.splits(&inputs));
            assert!(!sa.is_empty());
            assert!(sa.iter().all(|&p| (1..30).contains(&p)), "{sa:?}");
        }
        // Inputs too short to split yield no points at all.
        assert!(a.splits(&[vec![b'x']]).is_empty());
        assert!(a.splits(&[]).is_empty());
    }

    #[test]
    fn inputs_include_adversarial_shapes() {
        let mut g = Generator::new(5);
        let (_, ast) = g.pattern();
        let inputs = g.inputs(&ast);
        assert!(inputs[0].is_empty(), "empty input is always exercised");
        assert!(
            inputs.iter().any(|i| i.iter().any(|b| *b >= 0x80)) || {
                // High-byte noise can be empty for one pattern, but not for
                // many consecutive ones.
                (0..20).any(|_| {
                    let (_, ast) = g.pattern();
                    g.inputs(&ast).iter().any(|i| i.iter().any(|b| *b >= 0x80))
                })
            }
        );
    }
}
