//! Divergence minimization: greedy delta debugging over the pattern AST
//! and the input set.
//!
//! The shrinker never interprets the failure itself — it is handed a
//! `still_fails` predicate (in production: "does [`check_all`] still
//! diverge?") and keeps the smallest reproducer that satisfies it.
//! Pattern candidates are *single AST edits* (drop an alternative, drop a
//! piece, unwrap a group, relax a quantifier, strip an anchor), so every
//! candidate is grammatical by construction; input candidates drop whole
//! inputs, chunks, or single bytes.
//!
//! Termination is by a strictly decreasing integer score (rendered
//! pattern length + total input bytes + input count): a candidate is only
//! accepted if it both still fails *and* lowers the score, so the loop
//! can run at most `score` iterations.
//!
//! [`check_all`]: crate::harness::check_all

use regex_frontend::{Alternation, Atom, ByteSet, Concatenation, Piece, Quantifier, RegexAst};

/// Predicate deciding whether a candidate reproducer still exhibits the
/// failure under minimization.
pub type StillFails<'a> = &'a dyn Fn(&str, &[Vec<u8>]) -> bool;

/// A minimized reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shrunk {
    /// The minimized pattern.
    pub pattern: String,
    /// The minimized input set.
    pub inputs: Vec<Vec<u8>>,
    /// Number of accepted shrink steps.
    pub steps: usize,
}

impl Shrunk {
    /// The reproducer's size: pattern chars + input bytes.
    pub fn size(&self) -> usize {
        self.pattern.len() + self.inputs.iter().map(Vec::len).sum::<usize>()
    }
}

fn score(pattern: &str, inputs: &[Vec<u8>]) -> usize {
    pattern.len() + inputs.iter().map(Vec::len).sum::<usize>() + inputs.len()
}

/// Greedily minimize `(pattern, inputs)` while `still_fails` holds.
///
/// The initial reproducer is assumed to fail; if it does not, it is
/// returned unchanged with zero steps.
pub fn shrink(pattern: &str, inputs: &[Vec<u8>], still_fails: StillFails<'_>) -> Shrunk {
    let mut pattern = pattern.to_owned();
    let mut inputs = inputs.to_vec();
    let mut steps = 0usize;
    loop {
        let current = score(&pattern, &inputs);
        let mut improved = false;

        if let Ok(ast) = regex_frontend::parse(&pattern) {
            for variant in ast_variants(&ast) {
                let candidate = variant.to_pattern();
                if score(&candidate, &inputs) < current
                    && regex_frontend::parse(&candidate).is_ok()
                    && still_fails(&candidate, &inputs)
                {
                    pattern = candidate;
                    steps += 1;
                    improved = true;
                    break;
                }
            }
        }
        if improved {
            continue;
        }

        let current = score(&pattern, &inputs);
        for candidate in input_set_variants(&inputs) {
            if score(&pattern, &candidate) < current && still_fails(&pattern, &candidate) {
                inputs = candidate;
                steps += 1;
                improved = true;
                break;
            }
        }
        if !improved {
            return Shrunk { pattern, inputs, steps };
        }
    }
}

/// Predicate for minimizing stream-axis failures: does the candidate
/// `(pattern, inputs)` still fail when streamed at the candidate splits?
pub type StillFailsStreamed<'a> = &'a dyn Fn(&str, &[Vec<u8>], &[usize]) -> bool;

/// A minimized streamed reproducer: [`Shrunk`] plus the minimized split
/// vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrunkStreamed {
    /// The minimized pattern and inputs.
    pub shrunk: Shrunk,
    /// The minimized chunk-split points.
    pub splits: Vec<usize>,
}

/// Minimize a stream-axis failure: alternate [`shrink`] passes over the
/// pattern and inputs (with the splits held fixed) with greedy passes
/// that drop split points (with the pattern and inputs held fixed), until
/// neither makes progress.
///
/// Termination: every accepted candidate strictly shrinks either the
/// `(pattern, inputs)` score or the split count, and neither pass ever
/// grows the other's quantity.
pub fn shrink_streamed(
    pattern: &str,
    inputs: &[Vec<u8>],
    splits: &[usize],
    still_fails: StillFailsStreamed<'_>,
) -> ShrunkStreamed {
    let mut pattern = pattern.to_owned();
    let mut inputs = inputs.to_vec();
    let mut splits = splits.to_vec();
    let mut steps = 0usize;
    loop {
        let fixed = splits.clone();
        let pass = shrink(&pattern, &inputs, &|p, i| still_fails(p, i, &fixed));
        let improved_case = pass.steps > 0;
        steps += pass.steps;
        pattern = pass.pattern;
        inputs = pass.inputs;

        let mut improved_splits = false;
        'splits: loop {
            for i in 0..splits.len() {
                let mut candidate = splits.clone();
                candidate.remove(i);
                if still_fails(&pattern, &inputs, &candidate) {
                    splits = candidate;
                    steps += 1;
                    improved_splits = true;
                    continue 'splits;
                }
            }
            break;
        }
        if !improved_case && !improved_splits {
            return ShrunkStreamed { shrunk: Shrunk { pattern, inputs, steps }, splits };
        }
    }
}

// ---------------------------------------------------------------------------
// Pattern variants: one AST edit each.
// ---------------------------------------------------------------------------

fn ast_variants(ast: &RegexAst) -> Vec<RegexAst> {
    let mut out = Vec::new();
    if !ast.has_prefix {
        out.push(RegexAst { has_prefix: true, ..ast.clone() });
    }
    if !ast.has_suffix {
        out.push(RegexAst { has_suffix: true, ..ast.clone() });
    }
    for alt in alternation_variants(&ast.alternation) {
        out.push(RegexAst { alternation: alt, ..ast.clone() });
    }
    out
}

fn alternation_variants(alt: &Alternation) -> Vec<Alternation> {
    let mut out = Vec::new();
    if alt.alternatives.len() > 1 {
        for i in 0..alt.alternatives.len() {
            let mut v = alt.clone();
            v.alternatives.remove(i);
            out.push(v);
        }
    }
    for (i, concat) in alt.alternatives.iter().enumerate() {
        for cv in concatenation_variants(concat) {
            let mut v = alt.clone();
            v.alternatives[i] = cv;
            out.push(v);
        }
    }
    out
}

fn concatenation_variants(concat: &Concatenation) -> Vec<Concatenation> {
    let mut out = Vec::new();
    for i in 0..concat.pieces.len() {
        let mut v = concat.clone();
        v.pieces.remove(i);
        out.push(v);
    }
    for (i, piece) in concat.pieces.iter().enumerate() {
        for pv in piece_variants(piece) {
            let mut v = concat.clone();
            v.pieces[i] = pv;
            out.push(v);
        }
    }
    out
}

fn piece_variants(piece: &Piece) -> Vec<Piece> {
    let mut out = Vec::new();
    if let Some(q) = piece.quantifier {
        out.push(Piece { quantifier: None, ..piece.clone() });
        if q.max.is_none() {
            // Bound the repetition: `a{2,}` → `a{2,2}`, `a*` → `a?`.
            let cap = q.min.max(1);
            out.push(Piece {
                quantifier: Some(Quantifier::range(q.min, Some(cap))),
                ..piece.clone()
            });
        } else if let Some(max) = q.max {
            if max > q.min {
                out.push(Piece {
                    quantifier: Some(Quantifier::range(q.min, Some(q.min.max(1)))),
                    ..piece.clone()
                });
            }
        }
        if q.min > 1 {
            out.push(Piece { quantifier: Some(Quantifier::range(1, q.max)), ..piece.clone() });
        }
    }
    match &piece.atom {
        Atom::Group(alt) => {
            // Unwrap a trivial group: `(x)` → `x` (keeping the quantifier
            // only when the inner piece has none).
            if alt.alternatives.len() == 1 && alt.alternatives[0].pieces.len() == 1 {
                let inner = &alt.alternatives[0].pieces[0];
                if piece.quantifier.is_none() {
                    out.push(inner.clone());
                } else if inner.quantifier.is_none() {
                    out.push(Piece {
                        atom: inner.atom.clone(),
                        quantifier: piece.quantifier,
                        span: piece.span,
                    });
                }
            }
            for av in alternation_variants(alt) {
                out.push(Piece { atom: Atom::Group(Box::new(av)), ..piece.clone() });
            }
        }
        // Collapse a class to one of its members (or, when negated, to one
        // byte it rejects as a literal probe of the complement lowering).
        Atom::Class { negated, set } => {
            let member = if *negated { ByteSet::FULL.difference(*set) } else { *set };
            let first = member.iter().next();
            if let Some(b) = first {
                out.push(Piece { atom: Atom::Char(b), ..piece.clone() });
            }
        }
        Atom::Any => {
            out.push(Piece { atom: Atom::Char(b'a'), ..piece.clone() });
        }
        Atom::Char(c) if !c.is_ascii_graphic() => {
            // `\xff` renders as four chars; `a` as one.
            out.push(Piece { atom: Atom::Char(b'a'), ..piece.clone() });
        }
        Atom::Char(_) => {}
    }
    out
}

// ---------------------------------------------------------------------------
// Input variants.
// ---------------------------------------------------------------------------

fn input_set_variants(inputs: &[Vec<u8>]) -> Vec<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    for i in 0..inputs.len() {
        let mut v = inputs.to_vec();
        v.remove(i);
        out.push(v);
    }
    for (i, input) in inputs.iter().enumerate() {
        for reduced in byte_variants(input) {
            let mut v = inputs.to_vec();
            v[i] = reduced;
            out.push(v);
        }
    }
    out
}

fn byte_variants(input: &[u8]) -> Vec<Vec<u8>> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    out.push(input[..n / 2].to_vec());
    out.push(input[n / 2..].to_vec());
    let chunk = (n / 4).max(1);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        let mut v = Vec::with_capacity(n - (end - start));
        v.extend_from_slice(&input[..start]);
        v.extend_from_slice(&input[end..]);
        out.push(v);
        start = end;
    }
    if n <= 24 {
        for i in 0..n {
            let mut v = input.to_vec();
            v.remove(i);
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "bug": fails whenever the pattern contains a literal
    /// `b` and some input contains `0xff`.
    fn synthetic_bug(pattern: &str, inputs: &[Vec<u8>]) -> bool {
        pattern.contains('b') && inputs.iter().any(|i| i.contains(&0xff))
    }

    #[test]
    fn shrinks_a_synthetic_bug_to_its_essence() {
        let pattern = "x(a?|a*)y|ab{2,5}c|[^q]+";
        let inputs: Vec<Vec<u8>> = vec![
            b"irrelevant noise".to_vec(),
            [b"padding ".as_slice(), &[0xff], b" more padding"].concat(),
            vec![b'z'; 40],
        ];
        assert!(synthetic_bug(pattern, &inputs));
        let shrunk = shrink(pattern, &inputs, &synthetic_bug);
        assert!(synthetic_bug(&shrunk.pattern, &shrunk.inputs), "shrinker lost the failure");
        assert!(
            shrunk.size() <= 3,
            "expected an essentially minimal reproducer, got {:?} / {:?}",
            shrunk.pattern,
            shrunk.inputs
        );
        assert!(shrunk.steps > 0);
    }

    #[test]
    fn a_minimal_reproducer_is_a_fixed_point() {
        let shrunk = shrink("b", &[vec![0xff]], &synthetic_bug);
        assert_eq!(shrunk.pattern, "b");
        assert_eq!(shrunk.inputs, vec![vec![0xff]]);
        assert_eq!(shrunk.steps, 0);
    }

    #[test]
    fn a_passing_case_is_returned_unchanged() {
        let always_passes = |_: &str, _: &[Vec<u8>]| false;
        let shrunk = shrink("a+b", &[b"aab".to_vec()], &always_passes);
        assert_eq!(shrunk.pattern, "a+b");
        assert_eq!(shrunk.steps, 0);
    }

    #[test]
    fn shrink_streamed_minimizes_the_split_vector_too() {
        // Synthetic stream-axis bug: needs a `b` in the pattern, a 0xff
        // byte in some input, and at least one split point to fire.
        fn streamed_bug(pattern: &str, inputs: &[Vec<u8>], splits: &[usize]) -> bool {
            pattern.contains('b') && inputs.iter().any(|i| i.contains(&0xff)) && !splits.is_empty()
        }

        let pattern = "ab{2,5}c|[^q]+";
        let inputs: Vec<Vec<u8>> =
            vec![b"noise".to_vec(), [b"pad ".as_slice(), &[0xff], b" pad"].concat()];
        let splits = vec![1, 3, 5, 7];
        assert!(streamed_bug(pattern, &inputs, &splits));
        let minimized = shrink_streamed(pattern, &inputs, &splits, &streamed_bug);
        assert!(
            streamed_bug(&minimized.shrunk.pattern, &minimized.shrunk.inputs, &minimized.splits),
            "shrinker lost the failure"
        );
        assert_eq!(minimized.splits.len(), 1, "splits not minimized: {:?}", minimized.splits);
        assert!(minimized.shrunk.size() <= 3, "{:?}", minimized.shrunk);
        assert!(minimized.shrunk.steps > 0);
    }

    #[test]
    fn shrink_streamed_drops_all_splits_when_they_are_irrelevant() {
        let splitless_bug = |pattern: &str, _: &[Vec<u8>], _: &[usize]| pattern.contains('b');
        let minimized = shrink_streamed("ab", &[b"x".to_vec()], &[1, 2], &splitless_bug);
        assert_eq!(minimized.splits, Vec::<usize>::new());
    }

    #[test]
    fn every_pattern_variant_reparses() {
        for pattern in ["x(a?|a*)y", "^a{2,5}(b|[^cd])*$", "(ab(c|d)){1,3}e?", "\\xff[a-c]+"] {
            let ast = regex_frontend::parse(pattern).unwrap();
            for variant in ast_variants(&ast) {
                let rendered = variant.to_pattern();
                assert!(
                    regex_frontend::parse(&rendered).is_ok(),
                    "variant {rendered:?} of {pattern:?} does not reparse"
                );
            }
        }
    }
}
