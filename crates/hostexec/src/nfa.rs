//! Epsilon elimination: `cicero` ISA programs to a byte-predicate NFA,
//! and prefix factoring, which every lowering shares.
//!
//! Un-lowering the ISA is for programs with no `regex` IR to lower from
//! (hand-built ones, the legacy compiler's, the benchmark ledger's
//! `hostexec.lower` probe): a compiled program's engine comes from its
//! position automaton (`positions.rs`), which needs no closure walk.
//!
//! The lowering walks every non-consuming path (`Split`, `Jump`,
//! `NotMatch`) of the program once per entry PC, accumulating the byte
//! constraint the path imposes on the *current* input byte (`NotMatch(u)`
//! removes `u`; the other control instructions leave it alone). Reaching
//! a consuming instruction emits an epsilon-free transition; reaching an
//! acceptance emits an *accept arm* — a byte-conditional acceptance,
//! because an acceptance guarded by `NotMatch` fires only while a
//! permitted byte is current, and never at end of input (`NotMatch` kills
//! its thread there, so only constraint-free paths accept at EOI).
//!
//! States are keyed by `(target PC, path predicate)`. Keeping the
//! predicate in the state identity restores the Glushkov property the
//! bit-parallel step relies on: every path *into* a state agrees on the
//! byte predicate, so one shared table `enter[class]` can gate the whole
//! next-state set with a single AND.
//!
//! States are numbered in program order (by PC; the start state, PC 0,
//! stays state 0), so a pattern's atoms sit on consecutive ids: the
//! multi-word engine steps the resulting chains and gap windows by shift
//! and carry instead of per-state rows.
//!
//! The closure is memoized per PC (the constraint always restarts at the
//! full alphabet after a byte is consumed) and budgeted: a pathological
//! `NotMatch` lattice that would explode the `(pc, constraint)` space
//! aborts the lowering, and the caller falls back to the reference
//! interpreter instead of miscompiling.

use std::collections::{HashMap, HashSet};

use cicero_isa::{Instruction, Program};

use crate::bytes::ByteSet;

/// One byte-conditional acceptance attached to a state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct AcceptArm {
    /// `AcceptPartialId` identifier; `None` for `Accept`/`AcceptPartial`.
    pub id: Option<u16>,
    /// Current bytes under which the arm fires mid-input.
    pub bytes: ByteSet,
    /// Whether the arm fires at end of input (only constraint-free paths
    /// do — any `NotMatch` on the path dies at EOI).
    pub eoi: bool,
}

/// The epsilon-free automaton. State 0 is the start configuration (active
/// only at position 0, entry predicate empty so it is never re-entered);
/// every other state is one `(pc, predicate)` group, numbered in program
/// order.
#[derive(Debug, Clone)]
pub(crate) struct Nfa {
    /// Entry byte predicate per state.
    pub preds: Vec<ByteSet>,
    /// Consuming successors per state (deduplicated, discovery order
    /// normalized by sorting — the engines are order-insensitive).
    pub follow: Vec<Vec<u32>>,
    /// Accept arms per state, merged by identifier.
    pub arms: Vec<Vec<AcceptArm>>,
}

/// Cap on closure work (distinct `(pc, constraint)` pairs visited across
/// the whole lowering). Real compiler output is linear in the program;
/// only adversarial `NotMatch`/`Split` lattices approach this.
const CLOSURE_BUDGET: usize = 1 << 18;

/// Lower `program`; `None` when the closure budget is exhausted (caller
/// falls back to the interpreter).
pub(crate) fn lower(program: &Program) -> Option<Nfa> {
    let mut builder = Builder {
        program,
        groups: vec![(0, ByteSet::EMPTY)],
        plain_groups: vec![u32::MAX; program.len()],
        narrowed_groups: HashMap::new(),
        follow: Vec::new(),
        arms: Vec::new(),
        closed_by: vec![u32::MAX; program.len()],
        visited_full: vec![u16::MAX; program.len()],
        visited_narrowed: HashSet::new(),
        stack: Vec::new(),
        budget: CLOSURE_BUDGET,
    };
    // Closing a state discovers new groups, which are states of their
    // own; `groups` only ever grows, so this is a worklist.
    let mut state = 0;
    while state < builder.groups.len() {
        builder.close(state)?;
        state += 1;
    }
    // Renumber in program order (groups at one PC in discovery order).
    // The start is the only group at PC 0 (every other group is the PC
    // after a consuming instruction), so it stays state 0.
    let n = builder.groups.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&state| (builder.groups[state as usize].0, state));
    let mut renumber = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        renumber[old as usize] = new as u32;
    }
    for follows in &mut builder.follow {
        for target in follows.iter_mut() {
            *target = renumber[*target as usize];
        }
        follows.sort_unstable();
    }
    Some(Nfa {
        preds: order.iter().map(|&old| builder.groups[old as usize].1).collect(),
        follow: order
            .iter()
            .map(|&old| std::mem::take(&mut builder.follow[old as usize]))
            .collect(),
        arms: order.iter().map(|&old| std::mem::take(&mut builder.arms[old as usize])).collect(),
    })
}

struct Builder<'p> {
    program: &'p Program,
    /// Discovered `(pc, predicate)` groups, by NFA state id; state 0 is
    /// the start (PC 0 under the empty predicate: never re-entered).
    groups: Vec<(u16, ByteSet)>,
    /// State id by PC for the group `pc - 1` consumes into under its own
    /// predicate (a `Match`'s byte, a `MatchAny`'s full alphabet);
    /// `u32::MAX` until discovered. `NotMatch`-narrowed groups hash.
    plain_groups: Vec<u32>,
    narrowed_groups: HashMap<(u16, ByteSet), u32>,
    /// Follow lists and accept arms of the states closed so far.
    follow: Vec<Vec<u32>>,
    arms: Vec<Vec<AcceptArm>>,
    /// Per PC, the state whose closure is the PC's (closures are per PC:
    /// the constraint restarts at the full alphabet after each consumed
    /// byte); `u32::MAX` until closed.
    closed_by: Vec<u32>,
    /// Per PC, the entry PC of the last closure that visited it under the
    /// full alphabet (nearly every visit; each PC is closed once, and
    /// `u16::MAX` is past every program's end); narrowed visits hash.
    visited_full: Vec<u16>,
    visited_narrowed: HashSet<(u16, ByteSet)>,
    stack: Vec<(u16, ByteSet)>,
    budget: usize,
}

impl Builder<'_> {
    /// Push the follow list and accept arms of `state`, the next one.
    fn close(&mut self, state: usize) -> Option<()> {
        let entry = self.groups[state].0;
        let closed = self.closed_by[usize::from(entry)];
        if closed != u32::MAX {
            self.follow.push(self.follow[closed as usize].clone());
            self.arms.push(self.arms[closed as usize].clone());
            return Some(());
        }
        self.closed_by[usize::from(entry)] = state as u32;
        let mut follow: Vec<u32> = Vec::new();
        let mut arms: Vec<AcceptArm> = Vec::new();
        self.visited_narrowed.clear();
        self.stack.push((entry, ByteSet::FULL));
        while let Some((pc, constraint)) = self.stack.pop() {
            let first_visit = if constraint.is_full() {
                std::mem::replace(&mut self.visited_full[usize::from(pc)], entry) != entry
            } else {
                self.visited_narrowed.insert((pc, constraint))
            };
            if !first_visit {
                continue;
            }
            self.budget = self.budget.checked_sub(1)?;
            match self.program.get(pc).expect("validated program") {
                Instruction::Match(expected) => {
                    if constraint.contains(expected) {
                        follow.push(self.group(pc + 1, ByteSet::single(expected), true));
                    }
                }
                Instruction::MatchAny => {
                    follow.push(self.group(pc + 1, constraint, constraint.is_full()));
                }
                Instruction::NotMatch(unexpected) => {
                    let narrowed = constraint.without(unexpected);
                    if !narrowed.is_empty() {
                        self.stack.push((pc + 1, narrowed));
                    }
                }
                Instruction::Split(target) => {
                    self.stack.push((pc + 1, constraint));
                    self.stack.push((target, constraint));
                }
                Instruction::Jump(target) => {
                    self.stack.push((target, constraint));
                }
                Instruction::Accept => {
                    if constraint.is_full() {
                        arms.push(AcceptArm { id: None, bytes: ByteSet::EMPTY, eoi: true });
                    }
                }
                Instruction::AcceptPartial => {
                    arms.push(AcceptArm { id: None, bytes: constraint, eoi: constraint.is_full() });
                }
                Instruction::AcceptPartialId(id) => {
                    arms.push(AcceptArm {
                        id: Some(id),
                        bytes: constraint,
                        eoi: constraint.is_full(),
                    });
                }
            }
        }
        follow.sort_unstable();
        follow.dedup();
        self.follow.push(follow);
        self.arms.push(merge_arms(arms));
        Some(())
    }

    /// The state of group `(pc, pred)`; `plain` when `pred` is the
    /// consuming instruction's own predicate.
    fn group(&mut self, pc: u16, pred: ByteSet, plain: bool) -> u32 {
        let next = self.groups.len() as u32;
        let id = if plain {
            let slot = &mut self.plain_groups[usize::from(pc)];
            if *slot == u32::MAX {
                *slot = next;
            }
            *slot
        } else {
            *self.narrowed_groups.entry((pc, pred)).or_insert(next)
        };
        if id == next {
            self.groups.push((pc, pred));
        }
        id
    }
}

/// Merge arms that report the same identifier: union the byte conditions,
/// OR the EOI flags. One arm per identifier keeps the engines' per-arm
/// bookkeeping proportional to the pattern-set size, not the path count.
pub(crate) fn merge_arms(arms: Vec<AcceptArm>) -> Vec<AcceptArm> {
    let mut merged: Vec<AcceptArm> = Vec::new();
    for arm in arms {
        if let Some(existing) = merged.iter_mut().find(|a| a.id == arm.id) {
            existing.bytes = existing.bytes.union(arm.bytes);
            existing.eoi |= arm.eoi;
        } else {
            merged.push(arm);
        }
    }
    // Deterministic arm order: unidentified acceptance first, then ids
    // ascending (this is also the `matched_id` resolution order).
    merged.sort_by_key(|arm| arm.id.map_or(-1i32, i32::from));
    merged
}

/// Prefix factoring: merge states that are provably *co-active*, and
/// *siblings*.
///
/// Two states with the same entry predicate and the same incoming source
/// set are activated under exactly the same conditions (induction over
/// input positions), so replacing them with one state carrying the union
/// of their follow sets and arms changes nothing observable. On
/// `compile_set` programs this folds the duplicated per-member scan loops
/// and shared literal prefixes (`abcd|abce|…`) into one spine, shrinking
/// the automaton — often below the 64-state line that selects the fastest
/// engine.
///
/// Siblings are states with the same incoming sources, the same follow
/// set and the same arms: the members of a character class, which the
/// ISA spells as a `Split` chain of `Match`es (`[LIVM]` comes back as four
/// states). One state whose predicate is the union of theirs is active
/// exactly when one of them would be (induction again), and each of them
/// contributes the same successors and arms. A state a co-active merge
/// touches sits out the round's sibling merges: a representative that
/// absorbed both would hand its sibling's bytes the other state's
/// successors.
///
/// Unreachable states are pruned on the way. Runs to fixpoint: each round
/// either merges/prunes something (state count strictly drops) or stops,
/// and every round leaves an equivalent automaton, so the rounds stop
/// early, unfinished, once they have walked [`FACTOR_BUDGET`] edges.
/// Kept states keep their relative order, so program order survives.
pub(crate) fn factor(nfa: &mut Nfa) {
    let mut budget = FACTOR_BUDGET;
    loop {
        let edges: usize = nfa.follow.iter().map(Vec::len).sum();
        let Some(left) = budget.checked_sub(edges) else { return };
        budget = left;
        let n = nfa.preds.len();
        // Incoming sources of every state, flat: state `t` owns
        // `incoming[start[t]..start[t + 1]]`. Follow lists are sorted and
        // duplicate-free, so walking sources upward leaves each state's
        // sources sorted and duplicate-free too.
        let mut start = vec![0usize; n + 1];
        for &target in nfa.follow.iter().flatten() {
            start[target as usize + 1] += 1;
        }
        for state in 0..n {
            start[state + 1] += start[state];
        }
        let mut fill = start.clone();
        let mut incoming = vec![0u32; start[n]];
        for (source, follows) in nfa.follow.iter().enumerate() {
            for &target in follows {
                incoming[fill[target as usize]] = source as u32;
                fill[target as usize] += 1;
            }
        }

        let sources = |state: usize| &incoming[start[state]..start[state + 1]];
        // Merged states have equal sources, so equal first sources: a
        // state alone with its first source has no partner.
        let mut sharing = vec![0u32; n];
        for state in 1..n {
            if let Some(&first) = sources(state).first() {
                sharing[first as usize] += 1;
            }
        }
        // alias[s] = the representative s collapses into (itself if kept);
        // u32::MAX marks an unreachable state scheduled for pruning.
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut candidates = Vec::new();
        for (state, target) in alias.iter_mut().enumerate().skip(1) {
            match sources(state).first() {
                None => *target = u32::MAX,
                Some(&first) if sharing[first as usize] > 1 => candidates.push(state),
                Some(_) => {}
            }
        }
        // States a co-active merge touched this round (representatives
        // and merged alike) sit out the sibling merges.
        let mut coactive = vec![false; n];
        for (repr, state) in equal_runs(&mut candidates, |s| (sources(s), nfa.preds[s])) {
            alias[state] = repr as u32;
            coactive[repr] = true;
            coactive[state] = true;
        }
        candidates.retain(|&state| !coactive[state]);
        for (repr, state) in
            equal_runs(&mut candidates, |s| (sources(s), &nfa.follow[s], &nfa.arms[s]))
        {
            alias[state] = repr as u32;
        }
        let changed = alias.iter().enumerate().any(|(state, &target)| target != state as u32);
        if !changed {
            return;
        }

        // Fold merged states into their representatives: a co-active one
        // takes the union of the follow sets and arms, a sibling one the
        // union of the predicates (its follow set and arms are the
        // representative's already).
        for (state, &target) in alias.iter().enumerate().take(n).skip(1) {
            if target == state as u32 || target == u32::MAX {
                continue;
            }
            let target = target as usize;
            if !coactive[state] {
                nfa.preds[target] = nfa.preds[target].union(nfa.preds[state]);
                continue;
            }
            let follows = std::mem::take(&mut nfa.follow[state]);
            nfa.follow[target].extend(follows);
            let arms = std::mem::take(&mut nfa.arms[state]);
            let mut merged = std::mem::take(&mut nfa.arms[target]);
            merged.extend(arms);
            nfa.arms[target] = merge_arms(merged);
        }

        // Renumber the kept states and rewrite every follow edge through
        // the alias map.
        // Kept states move down in place, in order, so no list is
        // reallocated.
        let mut renumber: Vec<u32> = vec![u32::MAX; n];
        let mut kept = 0;
        for (state, &target) in alias.iter().enumerate() {
            if target == state as u32 {
                renumber[state] = kept as u32;
                nfa.preds.swap(kept, state);
                nfa.follow.swap(kept, state);
                nfa.arms.swap(kept, state);
                kept += 1;
            }
        }
        nfa.preds.truncate(kept);
        nfa.follow.truncate(kept);
        nfa.arms.truncate(kept);
        for follows in &mut nfa.follow {
            for target in follows.iter_mut() {
                let repr = alias[*target as usize];
                *target = if repr == u32::MAX { u32::MAX } else { renumber[repr as usize] };
            }
            follows.retain(|&target| target != u32::MAX);
            follows.sort_unstable();
            follows.dedup();
        }
    }
}

/// The follow edges factoring may walk, summed over its rounds: four
/// rounds over the densest automaton the direct lowering admits
/// (`positions::MAX_FOLLOW_EDGES`). Real automata finish in a handful of
/// rounds over a few hundred edges; a dense one such as `(.?){400}c`'s,
/// which merges a few states a round, stops here.
const FACTOR_BUDGET: usize = 1 << 20;

/// Sort `states` by `key` and pair each state with the first (lowest)
/// state of its run of equal keys: `(representative, state)` for every
/// state that is not one. Sorting rather than hashing keeps the cost
/// `n log n` comparisons whatever the program.
fn equal_runs<K: Ord>(states: &mut [usize], key: impl Fn(usize) -> K) -> Vec<(usize, usize)> {
    states.sort_unstable_by_key(|&state| (key(state), state));
    let mut pairs = Vec::new();
    let mut repr = 0;
    for next in 1..states.len() {
        if key(states[next]) == key(states[repr]) {
            pairs.push((states[repr], states[next]));
        } else {
            repr = next;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_isa::Instruction::*;

    fn lowered(instructions: Vec<Instruction>) -> Nfa {
        let program = Program::from_instructions(instructions).unwrap();
        lower(&program).expect("lowering within budget")
    }

    #[test]
    fn anchored_literal_is_a_chain() {
        // `^ab$`
        let nfa = lowered(vec![Match(b'a'), Match(b'b'), Accept]);
        assert_eq!(nfa.preds.len(), 3);
        assert_eq!(nfa.follow[0], vec![1]);
        assert!(nfa.preds[1].contains(b'a') && nfa.preds[1].len() == 1);
        assert_eq!(nfa.follow[1], vec![2]);
        // The accepting state fires only at EOI (plain `Accept`).
        assert_eq!(nfa.arms[2].len(), 1);
        assert!(nfa.arms[2][0].eoi && nfa.arms[2][0].bytes.is_empty());
    }

    #[test]
    fn notmatch_guards_narrow_acceptance() {
        // `[^ab]c`-ish shape: NotMatch a; NotMatch b; MatchAny; AcceptPartial
        let nfa = lowered(vec![NotMatch(b'a'), NotMatch(b'b'), MatchAny, AcceptPartial]);
        // Start consumes one byte under the narrowed predicate.
        assert_eq!(nfa.follow[0].len(), 1);
        let state = nfa.follow[0][0] as usize;
        assert!(!nfa.preds[state].contains(b'a'));
        assert!(!nfa.preds[state].contains(b'b'));
        assert!(nfa.preds[state].contains(b'c'));
        // The arm on the consumed state is unconditional (the guard was on
        // the previous position) and fires at EOI too.
        assert!(nfa.arms[state][0].bytes.is_full() && nfa.arms[state][0].eoi);
    }

    #[test]
    fn notmatch_guarded_acceptance_never_fires_at_eoi() {
        // Match x; NotMatch a; AcceptPartial — accepting only while a
        // non-`a` byte is current.
        let nfa = lowered(vec![Match(b'x'), NotMatch(b'a'), AcceptPartial]);
        let state = nfa.follow[0][0] as usize;
        let arm = &nfa.arms[state][0];
        assert!(!arm.eoi, "NotMatch kills the thread at end of input");
        assert!(!arm.bytes.contains(b'a') && arm.bytes.contains(b'b'));
    }

    #[test]
    fn split_loops_close_within_budget() {
        // Pathological `(a*)*` loop shape closes fine (dedup on (pc, set)).
        let nfa = lowered(vec![Split(2), Jump(0), Match(b'a'), Jump(0), Accept]);
        assert!(nfa.preds.len() >= 2);
    }

    #[test]
    fn factoring_merges_shared_prefixes() {
        // `^(ab|ac)$` written as two duplicated branches: the two `a`
        // states have identical predicate + incoming and must merge.
        let mut nfa = lowered(vec![
            Split(4),
            Match(b'a'),
            Match(b'b'),
            Jump(7),
            Match(b'a'),
            Match(b'c'),
            Jump(7),
            Accept,
        ]);
        let before = nfa.preds.len();
        factor(&mut nfa);
        assert!(nfa.preds.len() < before, "shared `a` prefix must fold");
        // Exactly one state is entered on `a`.
        let a_states = nfa.preds.iter().filter(|p| p.contains(b'a') && p.len() == 1).count();
        assert_eq!(a_states, 1);
    }

    /// The states entered on exactly the bytes of `bytes`.
    fn entered_on(nfa: &Nfa, bytes: &[u8]) -> Vec<usize> {
        let mut want = ByteSet::EMPTY;
        for &b in bytes {
            want.insert(b);
        }
        (0..nfa.preds.len()).filter(|&s| nfa.preds[s] == want).collect()
    }

    #[test]
    fn factoring_merges_a_class_into_one_state() {
        // `x[abc]y`: the ISA's class is a `Split` chain of `Match`es, one
        // state per member, all entered from `x` and all leading to `y`.
        let mut nfa = lowered(vec![
            Match(b'x'),
            Split(4),
            Match(b'a'),
            Jump(8),
            Split(7),
            Match(b'b'),
            Jump(8),
            Match(b'c'),
            Match(b'y'),
            Accept,
        ]);
        assert_eq!(nfa.preds.len(), 6);
        factor(&mut nfa);
        assert_eq!(nfa.preds.len(), 4, "start, x, [abc], y");
        let (x, class, y) =
            (entered_on(&nfa, b"x"), entered_on(&nfa, b"abc"), entered_on(&nfa, b"y"));
        assert_eq!((x.len(), class.len(), y.len()), (1, 1, 1));
        assert_eq!(nfa.follow[x[0]], vec![class[0] as u32]);
        assert_eq!(nfa.follow[class[0]], vec![y[0] as u32]);
        // Program order: start, x, the class, y.
        assert_eq!((x[0], class[0], y[0]), (1, 2, 3));
    }

    #[test]
    fn factoring_keeps_siblings_of_different_sources_apart() {
        // `(a|xb)c`: `a` and `b` both lead to `c` but are entered from
        // different states, so a `b` without the `x` must not count.
        let mut nfa = lowered(vec![
            Split(3),
            Match(b'a'),
            Jump(5),
            Match(b'x'),
            Match(b'b'),
            Match(b'c'),
            Accept,
        ]);
        factor(&mut nfa);
        assert_eq!(entered_on(&nfa, b"a").len(), 1);
        assert_eq!(entered_on(&nfa, b"b").len(), 1);
        assert!(entered_on(&nfa, b"ab").is_empty());
        // Nor do `a` and `x`: same source, different successors.
        assert!(entered_on(&nfa, b"ax").is_empty());
    }

    #[test]
    fn factoring_merges_self_looping_siblings() {
        // `[ab]*c`: each member's state loops to both and leads to `c`;
        // its sources include both members. The merged state loops to
        // itself.
        let mut nfa = lowered(vec![
            Split(6),
            Split(4),
            Match(b'a'),
            Jump(0),
            Match(b'b'),
            Jump(0),
            Match(b'c'),
            Accept,
        ]);
        factor(&mut nfa);
        assert_eq!(nfa.preds.len(), 3, "start, [ab], c");
        let (class, c) = (entered_on(&nfa, b"ab"), entered_on(&nfa, b"c"));
        assert_eq!((class.len(), c.len()), (1, 1));
        assert_eq!(nfa.follow[0], vec![class[0] as u32, c[0] as u32]);
        assert_eq!(nfa.follow[class[0]], vec![class[0] as u32, c[0] as u32]);
    }

    #[test]
    fn a_coactive_representative_sits_out_sibling_merges() {
        // `x(a1|b1|a2)`: the two `a` states are co-active, and the first
        // is also a sibling of `b` (both lead to `1`). Merging all three
        // would let `xb2` through.
        let mut nfa = lowered(vec![
            Match(b'x'),
            Split(4),
            Match(b'a'),
            Jump(10),
            Split(7),
            Match(b'b'),
            Jump(10),
            Match(b'a'),
            Match(b'2'),
            Jump(12),
            Match(b'1'),
            Jump(12),
            Accept,
        ]);
        factor(&mut nfa);
        let (a, b) = (entered_on(&nfa, b"a"), entered_on(&nfa, b"b"));
        assert_eq!((a.len(), b.len()), (1, 1));
        let one = entered_on(&nfa, b"1")[0] as u32;
        let two = entered_on(&nfa, b"2")[0] as u32;
        assert_eq!(nfa.follow[a[0]], vec![one.min(two), one.max(two)]);
        assert_eq!(nfa.follow[b[0]], vec![one]);
    }

    #[test]
    fn factoring_prunes_unreachable_states() {
        // Match(z) at PC 3 is reachable only through Match(a)'s successor;
        // shape chosen so pruning has something to do after merging.
        let mut nfa = lowered(vec![Match(b'a'), Match(b'b'), AcceptPartial, Accept]);
        factor(&mut nfa);
        for follows in &nfa.follow {
            for &t in follows {
                assert!((t as usize) < nfa.preds.len());
            }
        }
    }
}
