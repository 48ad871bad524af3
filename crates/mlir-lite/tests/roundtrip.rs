//! Seeded random round-trip tests: the printer and parser are exact
//! inverses over the whole attribute and region space.

use mlir_lite::{Attribute, ByteSet, Operation, Region};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

const SEED: u64 = 42;
const CASES: usize = 128;

/// `[a-z][a-z0-9_]{0,max_tail}`.
fn ident(rng: &mut StdRng, max_tail: usize) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut name = String::from(char::from(b'a' + rng.random_range(0..26u8)));
    for _ in 0..rng.random_range(0..=max_tail) {
        name.push(char::from(TAIL[rng.random_range(0..TAIL.len())]));
    }
    name
}

fn attr(rng: &mut StdRng) -> Attribute {
    match rng.random_range(0..6u8) {
        0 => Attribute::Bool(rng.random_bool(0.5)),
        1 => Attribute::Int(rng.next_u64() as i64),
        2 => Attribute::Char(rng.next_u64() as u8),
        // Printable ASCII plus the characters that need escaping.
        3 => Attribute::Str(
            (0..rng.random_range(0..12))
                .map(|_| match rng.random_range(0..8u8) {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    _ => char::from(rng.random_range(b' '..=b'~')),
                })
                .collect::<String>()
                .into(),
        ),
        4 => Attribute::Symbol(ident(rng, 8).into()),
        _ => Attribute::ByteSet(ByteSet([
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ])),
    }
}

/// A random op nested at most `depth` regions deep: up to three
/// attributes (four on a leaf) and, above the leaves, up to two regions
/// of up to two ops each, every child at a random smaller depth.
fn op(rng: &mut StdRng, depth: u32) -> Operation {
    let mut op = Operation::new(format!("t.{}", ident(rng, 6)).as_str());
    let max_attrs = if depth == 0 { 3 } else { 2 };
    for _ in 0..rng.random_range(0..=max_attrs) {
        op.set_attr(ident(rng, 6).as_str(), attr(rng));
    }
    if depth > 0 {
        for _ in 0..rng.random_range(0..3) {
            let ops = (0..rng.random_range(0..3)).map(|_| {
                let child_depth = rng.random_range(0..depth);
                self::op(rng, child_depth)
            });
            op.push_region(Region::with_ops(ops.collect()));
        }
    }
    op
}

/// `CASES` seeded ops, nested up to three regions deep.
fn ops() -> impl Iterator<Item = Operation> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..CASES).map(move |_| {
        let depth = rng.random_range(0..=3);
        op(&mut rng, depth)
    })
}

#[test]
fn print_parse_roundtrip() {
    for (case, op) in ops().enumerate() {
        let text = op.to_text();
        let parsed = mlir_lite::parse(&text)
            .unwrap_or_else(|e| panic!("seed {SEED} case {case}: unparsable output {text:?}: {e}"));
        assert_eq!(parsed, op, "seed {SEED} case {case}");
    }
}

#[test]
fn printing_is_deterministic() {
    for (case, op) in ops().enumerate() {
        assert_eq!(op.to_text(), op.clone().to_text(), "seed {SEED} case {case}");
    }
}

#[test]
fn subtree_size_consistent_with_walk() {
    for (case, op) in ops().enumerate() {
        let mut visited = 0usize;
        op.walk(&mut |_| visited += 1);
        assert_eq!(visited, op.subtree_size(), "seed {SEED} case {case}");
    }
}
