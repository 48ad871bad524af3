//! Multi-word bit-parallel execution for automata wider than one
//! machine word (> 128 states).
//!
//! The step is the one [`BitEngine`](crate::engine::BitEngine) takes,
//!
//! ```text
//! D' = (⋃ follow[s] for s in D)  ∩  enter[class(byte)]
//! ```
//!
//! over a state mask of `ceil(states / 64)` `u64` words. `BitEngine`'s
//! byte-chunked follow tables cannot simply be instantiated wider: they
//! are 4·n² bytes (165 KB at 203 states, 268 MB at the ISA's
//! 8,192-instruction ceiling). Instead the follow union is split, at
//! build time, into three parts that partition every state's follow set
//! (Navarro & Raffinot's bit-parallel treatment of bounded gaps):
//!
//! - **Chain edges** `s → s + 1`. States are numbered in program order,
//!   so a pattern's consecutive atoms are consecutive bits, and the part
//!   is one shift across words: `(D & chain) << 1`.
//! - **Gap runs**: a run `[a..b]` of states that all have an edge to
//!   `b + 1`, as the states of a `.{m,n}` window do. With `G` the runs'
//!   bits and `Y` their targets' bits, the part is `((D & G) + G) & Y`:
//!   any active state of a run carries out of it into its target. The
//!   add carries across words; runs are kept only while their spans
//!   `[a..b + 1]` are pairwise disjoint, so no carry reaches another run.
//! - **Residual edges**, everything else (scan loops, back edges, a
//!   member's first atoms): per-state rows of `(word index, mask)` pairs
//!   holding only the non-zero words of the state's remaining follow
//!   mask, ORed for the active states of `D & residual` alone.
//!
//! The shift and the carry cost a few word operations per mask word,
//! whatever is active; the row walk touches the handful of active
//! residual sources. Memory is `4 × words` words of step masks, `16`
//! bytes per residual row pair, and `2 × classes × words` words of entry
//! and acceptance masks (on the 203-state, 16-signature protein set:
//! 13 residual sources, 26 row pairs).
//!
//! Acceptance is checked before the byte is consumed and once more at
//! end of input, a dead frontier ends the run, identifiers resolve to
//! the lowest firing id, and `run_all` retires arms as they fire — the
//! same observable semantics as the one-word engines, so the tier a
//! program lands on never shows in its results. Accept arms are kept
//! sparse (a handful of `(state, bytes)` sites per identifier): they are
//! consulted only when an acceptance fires, and a dense per-arm,
//! per-class mask would cost `arms × classes × words` words.

use crate::bytes::ByteSet;
use crate::engine::{byte_classes, Classes};
use crate::nfa::Nfa;
use crate::{accepted_at, HostAllOutcome, HostOutcome, REJECTED};

/// Why a [`WideEngine::scan`] stopped.
enum Stop {
    /// An acceptance fires before the byte at this index is consumed.
    Accept(usize),
    /// The frontier died consuming the byte at this index.
    Dead(usize),
    /// The input ended.
    End,
}

/// One identifier's acceptance sites.
#[derive(Debug, Clone)]
struct WideArm {
    id: Option<u16>,
    /// `(state, current bytes the arm fires under, fires at EOI)`.
    sites: Vec<(u32, ByteSet, bool)>,
}

/// One `u64` word of the step's masks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StepWord {
    /// States with the chain edge `s → s + 1`.
    chain: u64,
    /// States of the gap runs.
    gap: u64,
    /// The gap runs' targets (`b + 1` of each run `[a..b]`).
    gap_to: u64,
    /// States with residual rows.
    residual: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct WideEngine {
    pub classes: Classes,
    pub n_states: usize,
    /// `u64` words per state mask.
    words: usize,
    /// Chain, gap and residual masks, one entry per mask word.
    step: Vec<StepWord>,
    /// The non-zero words of every state's residual follow mask, as
    /// `(word index, mask)`; state `s` owns `rows[row_start[s]..row_start[s + 1]]`.
    rows: Vec<(u32, u64)>,
    row_start: Vec<u32>,
    /// `enter[class * words..][..words]`: states enterable on the class.
    enter: Vec<u64>,
    /// `accept_any[class * words..][..words]`: states with any arm firing
    /// under the class.
    accept_any: Vec<u64>,
    /// States with any arm firing at end of input.
    accept_eoi: Vec<u64>,
    /// Arms in resolution order (unidentified first, then ids ascending).
    arms: Vec<WideArm>,
}

#[inline]
fn set_bit(mask: &mut [u64], state: usize) {
    mask[state / 64] |= 1u64 << (state % 64);
}

#[inline]
fn has_bit(mask: &[u64], state: usize) -> bool {
    mask[state / 64] & (1u64 << (state % 64)) != 0
}

#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).fold(0, |acc, (&x, &y)| acc | (x & y)) != 0
}

impl WideEngine {
    pub(crate) fn build(nfa: &Nfa) -> WideEngine {
        let n = nfa.preds.len();
        let words = n.div_ceil(64);
        let classes = byte_classes(
            nfa.preds.iter().copied().chain(nfa.arms.iter().flatten().map(|arm| arm.bytes)),
        );

        let (step, rows, row_start) = split_follow(&nfa.follow);

        let mut enter = vec![0u64; classes.count * words];
        for (class, &byte) in classes.repr.iter().enumerate() {
            let row = &mut enter[class * words..][..words];
            for (state, pred) in nfa.preds.iter().enumerate() {
                if pred.contains(byte) {
                    set_bit(row, state);
                }
            }
        }

        // Arms grouped by id across states.
        let mut arms: Vec<WideArm> = Vec::new();
        for (state, state_arms) in nfa.arms.iter().enumerate() {
            for arm in state_arms {
                let site = (state as u32, arm.bytes, arm.eoi);
                match arms.iter_mut().find(|a| a.id == arm.id) {
                    Some(entry) => entry.sites.push(site),
                    None => arms.push(WideArm { id: arm.id, sites: vec![site] }),
                }
            }
        }
        arms.sort_by_key(|arm| arm.id.map_or(-1i32, i32::from));

        let mut engine = WideEngine {
            classes,
            n_states: n,
            words,
            step,
            rows,
            row_start,
            enter,
            accept_any: Vec::new(),
            accept_eoi: Vec::new(),
            arms,
        };
        let mut any = vec![0u64; engine.classes.count * words];
        let mut eoi = vec![0u64; words];
        engine.accept_masks(&vec![true; engine.arms.len()], &mut any, &mut eoi);
        engine.accept_any = any;
        engine.accept_eoi = eoi;
        engine
    }

    /// Rebuild the acceptance masks from the arms still `live`.
    fn accept_masks(&self, live: &[bool], any: &mut [u64], eoi: &mut [u64]) {
        any.fill(0);
        eoi.fill(0);
        for (arm, _) in self.arms.iter().zip(live).filter(|(_, &is_live)| is_live) {
            for &(state, bytes, at_eoi) in &arm.sites {
                for (class, &byte) in self.classes.repr.iter().enumerate() {
                    if bytes.contains(byte) {
                        set_bit(&mut any[class * self.words..][..self.words], state as usize);
                    }
                }
                if at_eoi {
                    set_bit(eoi, state as usize);
                }
            }
        }
    }

    #[inline]
    fn class_of(&self, byte: u8) -> usize {
        usize::from(self.classes.of[usize::from(byte)])
    }

    fn start(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.words];
        d[0] = 1;
        d
    }

    /// The follow union of `cur`, into `nxt`: chain shift, gap carries,
    /// then the residual rows of the active residual sources.
    #[inline]
    fn follow(&self, cur: &[u64], nxt: &mut [u64]) {
        let mut shifted_out = 0u64;
        let mut carry = false;
        for ((to, &active), masks) in nxt.iter_mut().zip(cur).zip(&self.step) {
            let chain = active & masks.chain;
            let (sum, over) = (active & masks.gap).overflowing_add(masks.gap);
            let (sum, carried) = sum.overflowing_add(u64::from(carry));
            carry = over | carried;
            *to = (chain << 1) | shifted_out | (sum & masks.gap_to);
            shifted_out = chain >> 63;
        }
        for (word, (&active, masks)) in cur.iter().zip(&self.step).enumerate() {
            let mut bits = active & masks.residual;
            while bits != 0 {
                let state = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = self.row_start[state] as usize..self.row_start[state + 1] as usize;
                for &(to, mask) in &self.rows[row] {
                    nxt[to as usize] |= mask;
                }
            }
        }
    }

    /// Step `d` over `input[from..]` until it dies, the input ends, or a
    /// state in `any` (per-class acceptance masks) is about to consume a
    /// byte. `next` is scratch.
    fn scan(
        &self,
        any: &[u64],
        d: &mut Vec<u64>,
        next: &mut Vec<u64>,
        input: &[u8],
        from: usize,
    ) -> Stop {
        let words = self.words;
        let (mut cur, mut nxt) = (d.as_mut_slice(), next.as_mut_slice());
        let mut flipped = false;
        let mut stop = Stop::End;
        for (pos, &byte) in input.iter().enumerate().skip(from) {
            let class = self.class_of(byte);
            if intersects(cur, &any[class * words..][..words]) {
                stop = Stop::Accept(pos);
                break;
            }
            self.follow(cur, nxt);
            let mut alive = 0u64;
            for (to, &gate) in nxt.iter_mut().zip(&self.enter[class * words..][..words]) {
                *to &= gate;
                alive |= *to;
            }
            std::mem::swap(&mut cur, &mut nxt);
            flipped = !flipped;
            if alive == 0 {
                stop = Stop::Dead(pos);
                break;
            }
        }
        if flipped {
            std::mem::swap(d, next);
        }
        stop
    }

    /// Whether `arm` fires from `d`; `class == None` means end of input.
    fn fires(&self, arm: &WideArm, d: &[u64], class: Option<usize>) -> bool {
        arm.sites.iter().any(|&(state, bytes, eoi)| {
            let firing = match class {
                Some(class) => bytes.contains(self.classes.repr[class]),
                None => eoi,
            };
            firing && has_bit(d, state as usize)
        })
    }

    /// First arm (resolution order) firing from `d`.
    fn resolve_id(&self, d: &[u64], class: Option<usize>) -> Option<u16> {
        self.arms.iter().find(|arm| self.fires(arm, d, class)).and_then(|arm| arm.id)
    }

    /// Exhaustive multi-match scan (the host analogue of
    /// [`cicero_isa::run_all`]): collects every distinct identifier,
    /// retiring arms as they fire, and stops early once nothing remains
    /// to learn. Its first scan is [`WideMatcher::feed`]'s, over at most
    /// `byte_cap` bytes (`None` if that stop lies past them).
    pub(crate) fn run_all(&self, input: &[u8], byte_cap: usize) -> Option<HostAllOutcome> {
        let mut ids = Vec::new();
        let mut live = vec![true; self.arms.len()];
        let mut any = self.accept_any.clone();
        let mut eoi = self.accept_eoi.clone();
        let mut d = self.start();
        let mut next = vec![0u64; self.words];
        // `run`'s outcome and the bytes it examined, once known; until
        // then the scan stops at the cap.
        let mut first = None;
        let mut end = byte_cap.min(input.len());
        let mut from = 0;
        loop {
            match self.scan(&any, &mut d, &mut next, &input[..end], from) {
                Stop::Dead(pos) => {
                    let (first, examined) = first.unwrap_or((REJECTED, pos));
                    return Some(HostAllOutcome { first, examined, matched_ids: ids });
                }
                Stop::End => break,
                Stop::Accept(pos) => {
                    let class = self.class_of(input[pos]);
                    if first.is_none() {
                        first = Some((accepted_at(pos, self.resolve_id(&d, Some(class))), pos));
                        end = input.len();
                    }
                    self.fire(&d, Some(class), &mut ids, &mut live);
                    if !live.contains(&true) {
                        break;
                    }
                    // Every arm firing here is retired, so the rebuilt
                    // masks let the scan step past `pos`.
                    self.accept_masks(&live, &mut any, &mut eoi);
                    from = pos;
                }
            }
        }
        let (first, examined) = match first {
            Some(stop) => stop,
            None if end < input.len() => return None,
            // `run` read the whole input: its end-of-input check is the
            // first stop.
            None if intersects(&d, &eoi) => {
                (accepted_at(input.len(), self.resolve_id(&d, None)), input.len())
            }
            None => (REJECTED, input.len()),
        };
        if live.contains(&true) && intersects(&d, &eoi) {
            self.fire(&d, None, &mut ids, &mut live);
        }
        Some(HostAllOutcome { first, examined, matched_ids: ids })
    }

    /// Record and retire every live arm firing from `d`. The caller saw
    /// `d` intersect the live acceptance mask, so at least one does.
    fn fire(&self, d: &[u64], class: Option<usize>, ids: &mut Vec<u16>, live: &mut [bool]) {
        for (arm, live) in self.arms.iter().zip(live) {
            if !*live || !self.fires(arm, d, class) {
                continue;
            }
            if let Some(id) = arm.id {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
            *live = false;
        }
    }
}

/// Split every state's follow set into chain edges, gap runs and
/// residual rows (see the module docs). States are in program order.
fn split_follow(follow: &[Vec<u32>]) -> (Vec<StepWord>, Vec<(u32, u64)>, Vec<u32>) {
    let n = follow.len();
    let has_edge = |from: usize, to: usize| follow[from].binary_search(&(to as u32)).is_ok();
    // run_to[s]: the target of the gap run holding `s`. Targets ascend, so
    // a run ending before `target` may start no earlier than one past
    // the previous run's target, which keeps the spans disjoint; a run
    // of one state is a chain edge.
    let mut run_to = vec![usize::MAX; n];
    let mut free_from = 0;
    for target in 1..n {
        let mut first = target;
        while first > free_from && has_edge(first - 1, target) {
            first -= 1;
        }
        if target - first >= 2 {
            run_to[first..target].fill(target);
            free_from = target + 1;
        }
    }

    let mut step = vec![StepWord::default(); n.div_ceil(64)];
    let mut rows: Vec<(u32, u64)> = Vec::new();
    let mut row_start = Vec::with_capacity(n + 1);
    for (state, follows) in follow.iter().enumerate() {
        let (word, bit) = (state / 64, 1u64 << (state % 64));
        if run_to[state] != usize::MAX {
            step[word].gap |= bit;
            step[run_to[state] / 64].gap_to |= 1u64 << (run_to[state] % 64);
        }
        row_start.push(rows.len() as u32);
        let first = rows.len();
        for &t in follows {
            let t = t as usize;
            if t == run_to[state] {
                continue;
            }
            if t == state + 1 {
                step[word].chain |= bit;
                continue;
            }
            step[word].residual |= bit;
            let (to, mask) = ((t / 64) as u32, 1u64 << (t % 64));
            match rows[first..].last_mut() {
                Some((w, m)) if *w == to => *m |= mask,
                _ => rows.push((to, mask)),
            }
        }
    }
    row_start.push(rows.len() as u32);
    debug_assert!(
        (0..n).all(|state| rejoined(&step, &rows, &row_start, state) == follow[state]),
        "chain, gap and residual edges must partition every follow set"
    );
    (step, rows, row_start)
}

/// `state`'s follow set put back together from the step masks and rows:
/// its chain edge, the target its gap run carries into (the first clear
/// bit of `gap` above it, which `gap_to` must hold) and its residual
/// rows, each edge once per part it is in.
fn rejoined(step: &[StepWord], rows: &[(u32, u64)], row_start: &[u32], state: usize) -> Vec<u32> {
    let has = |mask: fn(&StepWord) -> u64, s: usize| {
        step.get(s / 64).is_some_and(|word| mask(word) & (1u64 << (s % 64)) != 0)
    };
    let mut follows = Vec::new();
    if has(|word| word.chain, state) {
        follows.push(state as u32 + 1);
    }
    if has(|word| word.gap, state) {
        let target = (state..).find(|&s| !has(|word| word.gap, s)).expect("a clear bit");
        assert!(has(|word| word.gap_to, target), "gap run into {target} has no target bit");
        follows.push(target as u32);
    }
    for &(word, mask) in &rows[row_start[state] as usize..row_start[state + 1] as usize] {
        let mut bits = mask;
        while bits != 0 {
            follows.push(word * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    follows.sort_unstable();
    follows
}

/// Resumable matcher state over a [`WideEngine`]: the live mask and a
/// scratch mask for the step.
#[derive(Debug, Clone)]
pub(crate) struct WideMatcher {
    d: Vec<u64>,
    next: Vec<u64>,
}

impl WideMatcher {
    pub(crate) fn new(engine: &WideEngine) -> WideMatcher {
        WideMatcher { d: engine.start(), next: vec![0u64; engine.words] }
    }

    /// Feed `chunk`, starting at absolute position `*position`.
    /// Returns `Some(outcome)` when the run concludes (acceptance or dead
    /// frontier); `position` is updated to the bytes consumed.
    pub(crate) fn feed(
        &mut self,
        engine: &WideEngine,
        chunk: &[u8],
        position: &mut usize,
    ) -> Option<HostOutcome> {
        let stop = engine.scan(&engine.accept_any, &mut self.d, &mut self.next, chunk, 0);
        let consumed = match stop {
            Stop::Accept(at) | Stop::Dead(at) => at,
            Stop::End => chunk.len(),
        };
        *position += consumed;
        match stop {
            Stop::Accept(at) => Some(accepted_at(
                *position,
                engine.resolve_id(&self.d, Some(engine.class_of(chunk[at]))),
            )),
            Stop::Dead(_) => Some(REJECTED),
            Stop::End => None,
        }
    }

    pub(crate) fn finish(&self, engine: &WideEngine, position: usize) -> HostOutcome {
        if intersects(&self.d, &engine.accept_eoi) {
            accepted_at(position, engine.resolve_id(&self.d, None))
        } else {
            REJECTED
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A random follow relation over `n` program-ordered states, built
    /// from the shapes a lowering yields: literal chains, gap windows
    /// into the next atom (mostly one to six states, now and then one
    /// over a whole mask word; adjacent ones included), pattern ends with
    /// no edge onward, and stray edges anywhere (back, self, far
    /// forward). Windows straddle bits 63/64 and 127/128.
    fn relation(rng: &mut StdRng, n: usize) -> Vec<Vec<u32>> {
        let mut follow = vec![Vec::new(); n];
        let mut state = 0;
        while state + 1 < n {
            match rng.random_range(0..8) {
                0..=2 => {
                    follow[state].push(state as u32 + 1);
                    state += 1;
                }
                3..=5 => {
                    let width = match rng.random_range(0..8) {
                        0 => rng.random_range(60..=140),
                        _ => rng.random_range(1..=6),
                    };
                    let target = (state + width).min(n - 1);
                    for (s, follows) in follow.iter_mut().enumerate().take(target).skip(state) {
                        follows.push(target as u32);
                        if s + 1 < target && rng.random_range(0..3) != 0 {
                            follows.push(s as u32 + 1);
                        }
                    }
                    state = target;
                }
                6 => state += 1,
                _ => follow[state].push(rng.random_range(0..n) as u32),
            }
        }
        for boundary in [64, 128] {
            if boundary + 2 < n {
                for follows in &mut follow[boundary - 3..boundary + 2] {
                    follows.push(boundary as u32 + 2);
                }
            }
        }
        for follows in &mut follow {
            follows.sort_unstable();
            follows.dedup();
        }
        follow
    }

    /// The plain step: one follow row ORed per active state.
    fn row_union(follow: &[Vec<u32>], d: &[u64]) -> Vec<u64> {
        let mut next = vec![0u64; d.len()];
        for (state, follows) in follow.iter().enumerate() {
            if has_bit(d, state) {
                for &t in follows {
                    set_bit(&mut next, t as usize);
                }
            }
        }
        next
    }

    #[test]
    fn shift_carry_and_residual_rows_equal_the_row_union() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CA22);
        let mut gaps = 0;
        for n in [1usize, 2, 3, 63, 64, 65, 66, 127, 128, 129, 130, 131, 200, 257, 300] {
            for _ in 0..40 {
                let follow = relation(&mut rng, n);
                let nfa = Nfa {
                    preds: vec![ByteSet::FULL; n],
                    follow: follow.clone(),
                    arms: vec![Vec::new(); n],
                };
                let engine = WideEngine::build(&nfa);
                gaps += engine.step.iter().filter(|word| word.gap != 0).count();
                let words = n.div_ceil(64);
                let mut masks = vec![vec![u64::MAX; words], vec![0; words]];
                for state in 0..n {
                    let mut single = vec![0; words];
                    set_bit(&mut single, state);
                    masks.push(single);
                }
                for density in [2, 8, 32] {
                    for _ in 0..16 {
                        let mut d = vec![0; words];
                        for state in 0..n {
                            if rng.random_range(0..density) == 0 {
                                set_bit(&mut d, state);
                            }
                        }
                        masks.push(d);
                    }
                }
                for d in &mut masks {
                    if n % 64 != 0 {
                        d[words - 1] &= (1u64 << (n % 64)) - 1;
                    }
                    let mut next = vec![0; words];
                    engine.follow(d, &mut next);
                    assert_eq!(next, row_union(&follow, d), "n {n}, d {d:x?}, follow {follow:?}");
                }
            }
        }
        assert!(gaps > 100, "the relations must exercise gap runs: {gaps} gap words");
    }

    #[test]
    fn gap_runs_carry_across_mask_words() {
        // A window of states 61..=66, all into 67, straddles bits 63/64.
        // Windows 118..=123 into 124 and 124..=129 into 130 share state
        // 124: the second run starts one past the first's target, so it
        // still straddles bits 127/128, and 124 → 130 is a residual row.
        let n = 140;
        let mut follow = vec![Vec::new(); n];
        for (window, target) in [(61..67, 67), (118..124, 124), (124..130, 130)] {
            for s in window {
                follow[s].push(target);
            }
        }
        let nfa = Nfa { preds: vec![ByteSet::FULL; n], follow, arms: vec![Vec::new(); n] };
        let engine = WideEngine::build(&nfa);
        let mask = |states: &mut dyn Iterator<Item = usize>| {
            let mut mask = vec![0u64; 3];
            states.for_each(|s| set_bit(&mut mask, s));
            mask
        };
        let gap: Vec<u64> = engine.step.iter().map(|word| word.gap).collect();
        assert_eq!(gap, mask(&mut (61..67).chain(118..124).chain(125..130)));
        let residual: Vec<u64> = engine.step.iter().map(|word| word.residual).collect();
        assert_eq!(residual, mask(&mut [124].into_iter()));
        assert!(engine.step.iter().all(|word| word.chain == 0));
        for (sources, targets) in [
            (vec![61], vec![67]),
            (vec![63, 64], vec![67]),
            (vec![66], vec![67]),
            (vec![123], vec![124]),
            (vec![124], vec![130]),
            (vec![127, 128], vec![130]),
            (vec![66, 118, 129], vec![67, 124, 130]),
        ] {
            let mut next = vec![0u64; 3];
            engine.follow(&mask(&mut sources.iter().copied()), &mut next);
            assert_eq!(next, mask(&mut targets.iter().copied()), "{sources:?}");
        }
    }
}
