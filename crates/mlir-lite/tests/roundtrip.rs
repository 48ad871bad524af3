//! Seeded random round-trip tests: the printer and parser are exact
//! inverses over the whole attribute, region, block and successor space.

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
    match rng.random_range(0..5u8) {
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
        _ => Attribute::ByteSet(ByteSet([
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ])),
    }
}

/// A random op nested at most `depth` regions deep, in a parent region of
/// `blocks` blocks: a successor naming any of them or none (always none
/// for a root), up to three attributes (four on a leaf) and, above the leaves,
/// up to two regions of one to three blocks of up to two ops each, every
/// child at a random smaller depth. Blocks may be empty, the last one
/// too, and a successor may name its own block or an earlier one.
fn op(rng: &mut StdRng, depth: u32, blocks: u32) -> Operation {
    let mut op = Operation::new(format!("t.{}", ident(rng, 6)).as_str());
    if blocks > 0 && rng.random_bool(0.5) {
        op = op.with_successor(rng.random_range(0..blocks));
    }
    let max_attrs = if depth == 0 { 3 } else { 2 };
    for _ in 0..rng.random_range(0..=max_attrs) {
        op.set_attr(ident(rng, 6).as_str(), attr(rng));
    }
    if depth > 0 {
        for _ in 0..rng.random_range(0..3) {
            let blocks = rng.random_range(1..=3);
            let region = (0..blocks).map(|_| {
                let ops = (0..rng.random_range(0..3)).map(|_| {
                    let child_depth = rng.random_range(0..depth);
                    self::op(rng, child_depth, blocks)
                });
                ops.collect::<Vec<_>>()
            });
            op.push_region(Region::from_blocks(region.collect::<Vec<_>>()));
        }
    }
    op
}

/// `CASES` seeded ops, nested up to three regions deep.
fn ops() -> impl Iterator<Item = Operation> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..CASES).map(move |_| {
        let depth = rng.random_range(0..=3);
        op(&mut rng, depth, 0)
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

#[test]
fn some_generated_regions_have_several_blocks_and_branches() {
    let mut blocks = 0;
    let mut branches = 0;
    for op in ops() {
        op.walk(&mut |op| {
            blocks += op.regions().iter().filter(|region| region.block_count() > 1).count();
            branches += usize::from(!op.successors().is_empty());
        });
    }
    assert!(blocks > 50 && branches > 100, "{blocks} multi-block regions, {branches} branches");
}

/// A loop the entry block jumps over: `^bb1` is reached only by the
/// backward branch from `^bb2`, which falls through to `^bb3`, the exit,
/// an empty last block.
fn loop_region() -> Operation {
    let op = |name: &str| Operation::new(name);
    let region = Region::from_blocks([
        vec![op("t.entry").with_successor(2)],
        vec![op("t.body").with_attr("n", 1i64)],
        vec![op("t.test").with_successor(1)],
        vec![],
    ]);
    op("t.func").with_region(region)
}

#[test]
fn multi_block_regions_print_block_headers_and_parse_back() {
    let func = loop_region();
    let text = func.to_text();
    let expected = "\
t.func (
  {
  ^bb0:
    t.entry ^bb2
  ^bb1:
    t.body {n = 1}
  ^bb2:
    t.test ^bb1
  ^bb3:
  }
)
";
    assert_eq!(text, expected);
    assert_eq!(mlir_lite::parse(&text).unwrap(), func);
}

#[test]
fn a_successor_past_the_last_block_is_refused() {
    let text = loop_region().to_text().replace("t.entry ^bb2", "t.entry ^bb4");
    let err = mlir_lite::parse(&text).unwrap_err();
    assert!(err.message.contains("successor ^bb4 names no block"), "{err}");
}
