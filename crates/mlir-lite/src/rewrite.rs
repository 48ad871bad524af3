//! Rewrite patterns and the greedy fixed-point driver.
//!
//! This is the `mlir-lite` analogue of MLIR's
//! `applyPatternsAndFoldGreedily`, which backs the `regex` dialect's
//! canonicalization (§3.2 of the paper). The driver walks the tree once,
//! innermost first: each op is offered to the patterns after its regions
//! have settled, so a pattern sees its op's children already rewritten.
//! A pattern sees only the op it is offered and that op's subtree, so an
//! op that no pattern rewrote stays at the fixed point until something
//! below it changes. A pattern builds its replacement from the offered
//! op's settled descendants and new leaves, so, as in MLIR, only the
//! replacement ops themselves are offered again, not the ops inside
//! them, and the walk reaches their parents after them. One walk
//! therefore ends at the fixed point that repeated whole-tree sweeps
//! would reach.

use std::collections::BTreeMap;

use crate::op::{Ident, Operation, Region};

/// What a pattern makes of an operation it matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// The pattern changed the operation in place (MLIR's
    /// `modifyOpInPlace`), or replaced it with this one op.
    Modified(Operation),
    /// Replace the operation with the given sequence (empty = erase).
    Replace(Vec<Operation>),
}

/// A local rewrite on one operation, split as in MLIR into a match half
/// ([`matches`](RewritePattern::matches)), which only looks and is where a
/// pattern declines, and a rewrite half
/// ([`apply`](RewritePattern::apply)), which consumes the matched op and
/// always rewrites it: it hands back a changed op ([`Rewrite::Modified`])
/// or produces replacement ops spliced into the op's block in its place
/// ([`Rewrite::Replace`]). Patterns must be
/// *terminating*: a pattern whose output it would itself rewrite again
/// forever exhausts the driver's budget. The replacement's regions are
/// not offered again, so they may hold only ops taken from the offered
/// op's regions, which have settled, or ops that no pattern rewrites.
pub trait RewritePattern {
    /// Stable diagnostic name, reported in [`RewriteStats`].
    fn name(&self) -> &'static str;

    /// Whether the pattern rewrites `op`, looking only: the driver moves
    /// an op that no pattern matches nowhere.
    fn matches(&self, op: &Operation) -> bool;

    /// Rewrite `op`, which [`matches`](RewritePattern::matches) accepted.
    fn apply(&self, op: Operation) -> Rewrite;
}

/// The driver's work bound: it applies patterns at most this many times
/// as often as it has met ops of the tree it started with.
pub const MAX_REWRITES_PER_OP: usize = 64;

/// Statistics from one driver run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RewriteStats {
    /// Number of ops offered to the patterns.
    pub offers: usize,
    /// Applications per pattern name.
    pub applications: BTreeMap<&'static str, usize>,
    /// True if the run stopped because it used up its rewrite budget
    /// rather than reaching a fixed point.
    pub hit_rewrite_cap: bool,
}

/// Apply `patterns` to the regions **inside** `root` (and, recursively, the
/// whole subtree below them) until a fixed point.
///
/// The root operation itself is never replaced — like MLIR, the driver
/// anchors at a module-like op. Patterns are tried in order and the first
/// that matches rewrites the op.
pub fn apply_patterns_greedily(
    root: &mut Operation,
    patterns: &[&dyn RewritePattern],
) -> RewriteStats {
    let mut driver = Driver { patterns, budget: 0, stats: RewriteStats::default() };
    for region in root.regions_mut() {
        driver.rewrite_region(region);
    }
    driver.stats
}

/// The name of the op that holds a region slot while its op is offered.
static VACANT: &Ident = &Ident::new("rewrite.vacant");

struct Driver<'p> {
    patterns: &'p [&'p dyn RewritePattern],
    /// Pattern applications left before the run gives up: the ops of the
    /// starting tree met so far earn [`MAX_REWRITES_PER_OP`] each.
    budget: usize,
    stats: RewriteStats,
}

impl Driver<'_> {
    /// Settle every op of `region` in order: its regions first, then the
    /// op itself; a replacement takes the op's place and is offered next,
    /// without its regions, which settled before the op was offered.
    fn rewrite_region(&mut self, region: &mut Region) {
        let mut index = 0;
        // Ops from `index` on that are replacements, whose regions settled.
        let mut replacements = 0;
        while index < region.ops.len() {
            if replacements == 0 {
                for child in region.ops[index].regions_mut() {
                    self.rewrite_region(child);
                }
                self.budget = self.budget.saturating_add(MAX_REWRITES_PER_OP);
            } else {
                replacements -= 1;
            }
            if self.stats.hit_rewrite_cap {
                return;
            }
            self.stats.offers += 1;
            let op = &region.ops[index];
            let Some(pattern) = self.patterns.iter().find(|pattern| pattern.matches(op)) else {
                index += 1;
                continue;
            };
            *self.stats.applications.entry(pattern.name()).or_insert(0) += 1;
            let op = std::mem::replace(&mut region.ops[index], Operation::new(VACANT));
            match pattern.apply(op) {
                Rewrite::Modified(op) => {
                    replacements += 1;
                    region.ops[index] = op;
                }
                Rewrite::Replace(ops) => {
                    replacements += ops.len();
                    region.splice_op(index, ops);
                }
            }
            if self.budget == 0 {
                self.stats.hit_rewrite_cap = true;
                return;
            }
            self.budget -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    static PAIR: &Ident = &Ident::new("t.pair");
    static ONE: &Ident = &Ident::new("t.one");
    static NOP: &Ident = &Ident::new("t.nop");
    static COUNT: &Ident = &Ident::new("t.count");
    static LOOP: &Ident = &Ident::new("t.loop");
    static WRAP: &Ident = &Ident::new("t.wrap");
    static N: &Ident = &Ident::new("n");

    /// Rewrites `t.pair` into two `t.one` ops.
    struct SplitPair;
    impl RewritePattern for SplitPair {
        fn name(&self) -> &'static str {
            "split-pair"
        }
        fn matches(&self, op: &Operation) -> bool {
            op.is(PAIR)
        }
        fn apply(&self, _op: Operation) -> Rewrite {
            Rewrite::Replace(vec![Operation::new(ONE), Operation::new(ONE)])
        }
    }

    /// Erases `t.nop` ops.
    struct EraseNop;
    impl RewritePattern for EraseNop {
        fn name(&self) -> &'static str {
            "erase-nop"
        }
        fn matches(&self, op: &Operation) -> bool {
            op.is(NOP)
        }
        fn apply(&self, _op: Operation) -> Rewrite {
            Rewrite::Replace(vec![])
        }
    }

    /// Decrements a counter attribute until it reaches zero (convergent
    /// self-rewrite).
    struct CountDown;
    impl RewritePattern for CountDown {
        fn name(&self) -> &'static str {
            "count-down"
        }
        fn matches(&self, op: &Operation) -> bool {
            op.is(COUNT) && count(op) > 0
        }
        fn apply(&self, op: Operation) -> Rewrite {
            Rewrite::Replace(vec![Operation::new(COUNT).with_attr(N, count(&op) - 1)])
        }
    }

    fn count(op: &Operation) -> i64 {
        op.attr(N).and_then(Attribute::as_int).unwrap_or(0)
    }

    /// Always rewrites `t.loop` to itself: non-terminating.
    struct Diverge;
    impl RewritePattern for Diverge {
        fn name(&self) -> &'static str {
            "diverge"
        }
        fn matches(&self, op: &Operation) -> bool {
            op.is(LOOP)
        }
        fn apply(&self, _op: Operation) -> Rewrite {
            Rewrite::Replace(vec![Operation::new(LOOP)])
        }
    }

    fn module(ops: Vec<Operation>) -> Operation {
        Operation::new("t.module").with_region(Region::with_ops(ops))
    }

    #[test]
    fn replacement_and_erasure() {
        let mut m = module(vec![
            Operation::new("t.nop"),
            Operation::new("t.pair"),
            Operation::new("t.keep"),
        ]);
        let stats = apply_patterns_greedily(&mut m, &[&SplitPair, &EraseNop]);
        let names: Vec<&str> = m.regions()[0].ops.iter().map(|o| o.name().as_str()).collect();
        assert_eq!(names, vec!["t.one", "t.one", "t.keep"]);
        assert_eq!(stats.applications["split-pair"], 1);
        assert_eq!(stats.applications["erase-nop"], 1);
        assert!(!stats.hit_rewrite_cap);
    }

    #[test]
    fn nested_regions_are_rewritten() {
        let inner = module(vec![Operation::new("t.pair")]);
        let mut m = module(vec![inner]);
        apply_patterns_greedily(&mut m, &[&SplitPair]);
        let inner = &m.regions()[0].ops[0];
        assert_eq!(inner.regions()[0].len(), 2);
    }

    #[test]
    fn convergent_self_rewrite_reaches_fixpoint() {
        let mut m = module(vec![Operation::new(COUNT).with_attr(N, 5i64)]);
        let stats = apply_patterns_greedily(&mut m, &[&CountDown]);
        assert_eq!(stats.applications["count-down"], 5);
        assert!(!stats.hit_rewrite_cap);
        assert_eq!(m.regions()[0].ops[0].attr(N), Some(&Attribute::Int(0)));
    }

    #[test]
    fn divergent_pattern_hits_cap() {
        let mut m = module(vec![Operation::new("t.loop")]);
        let stats = apply_patterns_greedily(&mut m, &[&Diverge]);
        assert!(stats.hit_rewrite_cap);
        // One op's budget of rewrites; the next one stops the run.
        assert_eq!(stats.applications["diverge"], MAX_REWRITES_PER_OP + 1);
    }

    #[test]
    fn no_patterns_is_a_noop() {
        let mut m = module(vec![Operation::new("t.keep")]);
        let before = m.clone();
        let stats = apply_patterns_greedily(&mut m, &[]);
        assert_eq!(m, before);
        assert_eq!(stats.applications.values().sum::<usize>(), 0);
        assert_eq!(stats.offers, 1);
    }

    /// Unwraps a `t.wrap` into the ops it holds.
    struct Unwrap;
    impl RewritePattern for Unwrap {
        fn name(&self) -> &'static str {
            "unwrap"
        }
        fn matches(&self, op: &Operation) -> bool {
            op.is(WRAP)
        }
        fn apply(&self, mut op: Operation) -> Rewrite {
            Rewrite::Replace(std::mem::take(&mut op.only_region_mut().ops))
        }
    }

    #[test]
    fn one_walk_settles_replacements_and_their_parents() {
        // wrap(wrap(keep)): the inner wrap unwraps to `keep`, which is
        // offered again; the outer wrap, offered after its region settled,
        // then unwraps too.
        let keep = || Operation::new("t.keep");
        let inner = Operation::new(WRAP).with_region(Region::with_ops(vec![keep()]));
        let outer = Operation::new(WRAP).with_region(Region::with_ops(vec![inner]));
        let mut m = module(vec![outer]);
        let stats = apply_patterns_greedily(&mut m, &[&Unwrap, &SplitPair]);
        assert_eq!(m, module(vec![keep()]));
        // keep, the inner wrap, keep, the outer wrap, keep.
        assert_eq!(stats.offers, 5);
        assert_eq!(stats.applications["unwrap"], 2);
    }

    #[test]
    fn replacements_are_offered_again_without_their_regions() {
        // 200 wraps around 200 modules of one op each: each unwrap
        // re-offers the 200 settled modules it splices in, not what they
        // hold, and the budget counts the 200 rewrites, not the offers,
        // which outnumber the budget of MAX_REWRITES_PER_OP per op.
        const N: usize = 200;
        let leaf = || module(vec![Operation::new("t.keep")]);
        let mut body = (0..N).map(|_| leaf()).collect();
        for _ in 0..N {
            body = vec![Operation::new(WRAP).with_region(Region::with_ops(body))];
        }
        let mut m = module(body);
        let stats = apply_patterns_greedily(&mut m, &[&Unwrap]);
        assert!(!stats.hit_rewrite_cap);
        assert_eq!(m, module((0..N).map(|_| leaf()).collect()));
        assert_eq!(stats.applications["unwrap"], N);
        assert_eq!(stats.offers, 2 * N + N * (N + 1));
        assert!(stats.offers > MAX_REWRITES_PER_OP * 3 * N);
    }

    static BR: &Ident = &Ident::new("t.br");

    /// Retargets a `t.br` naming block 1 to block 0, in place.
    struct Retarget;
    impl RewritePattern for Retarget {
        fn name(&self) -> &'static str {
            "retarget"
        }
        fn matches(&self, op: &Operation) -> bool {
            op.is(BR) && op.successors() == [1]
        }
        fn apply(&self, mut op: Operation) -> Rewrite {
            op.successors_mut()[0] = 0;
            Rewrite::Modified(op)
        }
    }

    #[test]
    fn a_modified_op_is_offered_again_in_place() {
        let region = Region::from_blocks([vec![Operation::new(BR).with_successor(1)], vec![]]);
        let mut m = Operation::new("t.module").with_region(region);
        let stats = apply_patterns_greedily(&mut m, &[&Retarget]);
        assert_eq!(m.regions()[0].ops[0].successors(), &[0]);
        assert_eq!((stats.offers, stats.applications["retarget"]), (2, 1));
    }

    #[test]
    fn replacements_stay_in_their_block() {
        let region = Region::from_blocks([
            vec![Operation::new(PAIR)],
            vec![],
            vec![Operation::new(NOP), Operation::new("t.keep")],
        ]);
        let mut m = Operation::new("t.module").with_region(region);
        apply_patterns_greedily(&mut m, &[&SplitPair, &EraseNop]);
        let lengths: Vec<usize> = m.regions()[0].blocks().map(<[Operation]>::len).collect();
        assert_eq!(lengths, [2, 0, 1]);
        assert_eq!(m.regions()[0].block(2)[0].name().as_str(), "t.keep");
    }
}
