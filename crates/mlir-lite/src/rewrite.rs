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

/// The outcome of offering an operation to a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// The pattern did not apply; the operation is returned unchanged.
    Unchanged(Operation),
    /// Replace the operation with the given sequence (empty = erase).
    Replace(Vec<Operation>),
}

/// A local rewrite on one operation.
///
/// Patterns consume the matched op and either hand it back
/// ([`Rewrite::Unchanged`]) or produce replacement ops spliced into the
/// parent region in its place ([`Rewrite::Replace`]). Patterns must be
/// *terminating*: a pattern whose output it would itself rewrite again
/// forever exhausts the driver's budget. The replacement's regions are
/// not offered again, so they may hold only ops taken from the offered
/// op's regions, which have settled, or ops that no pattern rewrites.
pub trait RewritePattern {
    /// Stable diagnostic name, reported in [`RewriteStats`].
    fn name(&self) -> &'static str;

    /// Offer `op` to the pattern.
    fn apply(&self, op: Operation) -> Rewrite;
}

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteConfig {
    /// The driver's work bound: it applies patterns at most this many
    /// times as often as the tree holds ops when it starts.
    pub max_rewrites_per_op: usize,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig { max_rewrites_per_op: 64 }
    }
}

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
/// that applies wins.
pub fn apply_patterns_greedily(
    root: &mut Operation,
    patterns: &[&dyn RewritePattern],
    config: RewriteConfig,
) -> RewriteStats {
    let budget = config.max_rewrites_per_op.saturating_mul(root.subtree_size() - 1);
    let mut driver = Driver { patterns, budget, stats: RewriteStats::default() };
    for region in root.regions_mut() {
        driver.rewrite_region(region);
    }
    driver.stats
}

/// The name of the op that holds a region slot while its op is offered.
static VACANT: &Ident = &Ident::new("rewrite.vacant");

struct Driver<'p> {
    patterns: &'p [&'p dyn RewritePattern],
    /// Pattern applications left before the run gives up.
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
            } else {
                replacements -= 1;
            }
            if self.stats.hit_rewrite_cap {
                return;
            }
            self.stats.offers += 1;
            let op = std::mem::replace(&mut region.ops[index], Operation::new(VACANT));
            match self.offer(op) {
                Rewrite::Unchanged(op) => {
                    region.ops[index] = op;
                    index += 1;
                }
                Rewrite::Replace(ops) => {
                    replacements += ops.len();
                    drop(region.ops.splice(index..=index, ops));
                    if self.budget == 0 {
                        self.stats.hit_rewrite_cap = true;
                        return;
                    }
                    self.budget -= 1;
                }
            }
        }
    }

    /// Offer `op` to the patterns in order; the first that applies wins.
    fn offer(&mut self, mut op: Operation) -> Rewrite {
        for pattern in self.patterns {
            match pattern.apply(op) {
                Rewrite::Unchanged(back) => op = back,
                Rewrite::Replace(ops) => {
                    *self.stats.applications.entry(pattern.name()).or_insert(0) += 1;
                    return Rewrite::Replace(ops);
                }
            }
        }
        Rewrite::Unchanged(op)
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
        fn apply(&self, op: Operation) -> Rewrite {
            if op.is(PAIR) {
                Rewrite::Replace(vec![Operation::new(ONE), Operation::new(ONE)])
            } else {
                Rewrite::Unchanged(op)
            }
        }
    }

    /// Erases `t.nop` ops.
    struct EraseNop;
    impl RewritePattern for EraseNop {
        fn name(&self) -> &'static str {
            "erase-nop"
        }
        fn apply(&self, op: Operation) -> Rewrite {
            if op.is(NOP) {
                Rewrite::Replace(vec![])
            } else {
                Rewrite::Unchanged(op)
            }
        }
    }

    /// Decrements a counter attribute until it reaches zero (convergent
    /// self-rewrite).
    struct CountDown;
    impl RewritePattern for CountDown {
        fn name(&self) -> &'static str {
            "count-down"
        }
        fn apply(&self, op: Operation) -> Rewrite {
            if !op.is(COUNT) {
                return Rewrite::Unchanged(op);
            }
            let n = op.attr(N).and_then(Attribute::as_int).unwrap_or(0);
            if n <= 0 {
                Rewrite::Unchanged(op)
            } else {
                Rewrite::Replace(vec![Operation::new(COUNT).with_attr(N, n - 1)])
            }
        }
    }

    /// Always rewrites `t.loop` to itself: non-terminating.
    struct Diverge;
    impl RewritePattern for Diverge {
        fn name(&self) -> &'static str {
            "diverge"
        }
        fn apply(&self, op: Operation) -> Rewrite {
            if op.is(LOOP) {
                Rewrite::Replace(vec![Operation::new(LOOP)])
            } else {
                Rewrite::Unchanged(op)
            }
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
        let stats =
            apply_patterns_greedily(&mut m, &[&SplitPair, &EraseNop], RewriteConfig::default());
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
        apply_patterns_greedily(&mut m, &[&SplitPair], RewriteConfig::default());
        let inner = &m.regions()[0].ops[0];
        assert_eq!(inner.regions()[0].len(), 2);
    }

    #[test]
    fn convergent_self_rewrite_reaches_fixpoint() {
        let mut m = module(vec![Operation::new(COUNT).with_attr(N, 5i64)]);
        let stats = apply_patterns_greedily(&mut m, &[&CountDown], RewriteConfig::default());
        assert_eq!(stats.applications["count-down"], 5);
        assert!(!stats.hit_rewrite_cap);
        assert_eq!(m.regions()[0].ops[0].attr(N), Some(&Attribute::Int(0)));
    }

    #[test]
    fn divergent_pattern_hits_cap() {
        let mut m = module(vec![Operation::new("t.loop")]);
        let config = RewriteConfig { max_rewrites_per_op: 8 };
        let stats = apply_patterns_greedily(&mut m, &[&Diverge], config);
        assert!(stats.hit_rewrite_cap);
        // Eight rewrites inside the budget; the ninth stops the run.
        assert_eq!(stats.applications["diverge"], 9);
    }

    #[test]
    fn no_patterns_is_a_noop() {
        let mut m = module(vec![Operation::new("t.keep")]);
        let before = m.clone();
        let stats = apply_patterns_greedily(&mut m, &[], RewriteConfig::default());
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
        fn apply(&self, mut op: Operation) -> Rewrite {
            if op.is(WRAP) {
                Rewrite::Replace(std::mem::take(&mut op.only_region_mut().ops))
            } else {
                Rewrite::Unchanged(op)
            }
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
        let stats =
            apply_patterns_greedily(&mut m, &[&Unwrap, &SplitPair], RewriteConfig::default());
        assert_eq!(m, module(vec![keep()]));
        // keep, the inner wrap, keep, the outer wrap, keep.
        assert_eq!(stats.offers, 5);
        assert_eq!(stats.applications["unwrap"], 2);
    }

    #[test]
    fn replacements_are_offered_again_without_their_regions() {
        // Fifty wraps around fifty ops: each unwrap re-offers the fifty
        // settled ops it splices in, not what they hold, and the budget
        // counts the fifty rewrites, not the offers.
        let leaf = || module(vec![Operation::new("t.keep")]);
        let mut body = (0..50).map(|_| leaf()).collect();
        for _ in 0..50 {
            body = vec![Operation::new(WRAP).with_region(Region::with_ops(body))];
        }
        let mut m = module(body);
        let config = RewriteConfig { max_rewrites_per_op: 1 };
        let stats = apply_patterns_greedily(&mut m, &[&Unwrap], config);
        assert!(!stats.hit_rewrite_cap);
        assert_eq!(m, module((0..50).map(|_| leaf()).collect()));
        assert_eq!(stats.applications["unwrap"], 50);
        assert_eq!(stats.offers, 100 + 50 * 51);
    }
}
