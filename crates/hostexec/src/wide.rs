//! Bit-parallel execution of the epsilon-free NFA over a multi-word
//! state mask: every automaton of at most [`MAX_STATES`] states.
//!
//! One active state is one bit of a mask of `W` `u64` words. A step is
//!
//! ```text
//! D' = (⋃ follow[s] for s in D)  ∩  enter[class(byte)]
//! ```
//!
//! `enter` and acceptance are indexed by *byte class* (bytes no
//! predicate distinguishes share a class), so those tables stay small.
//! The follow union is not table-driven: a table of pre-ORed follow masks
//! per byte of `D` would be 4·n² bytes (165 KB at 203 states, 268 MB at
//! the ISA's 8,192-instruction ceiling). Instead it is split, at build
//! time, into three parts that partition every state's follow set
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
//!   member's first atoms): each state with any keeps one dense `W`-word
//!   row of its remaining follow mask, found through a per-state residual
//!   ordinal, and the rows of the active states of `D & residual` are
//!   ORed whole into `D'`.
//!
//! **The step is generic over `W`** (`scan::<W>`): the frontier and the
//! next mask are `[u64; W]` locals, so for the widths served sets take
//! they stay in registers, the per-word loops unroll and carry no bounds
//! checks, and a residual row is a fixed-length OR rather than a walk of
//! `(word, mask)` pairs into a next mask held in memory. `W` is the state
//! count's `ceil(states / 64)` rounded up to the next of [`WIDTHS`] (pad
//! words are zero in every table, so nothing enters them, and cost as
//! much as live ones), and one match per scan picks the instantiation.
//!
//! The shift and the carry cost a few word operations per mask word,
//! whatever is active; the residual part costs `W` ORs per active
//! residual source. Memory is `4 × W` words of step masks, **`residual
//! sources × W × 8` bytes** of rows plus a 4-byte ordinal per state, and
//! `(2 × classes + 1) × W` words of entry and acceptance masks. On the
//! 203-state, 16-signature protein set that is 13 sources × 4 words, 416
//! bytes of rows. A dense row never outgrows the sparse `(word, mask)`
//! form's worst case: at most `4/3 × ceil(states / 64)` words of 8 bytes
//! against `ceil(states / 64)` pairs of 16.
//!
//! **The state cap**: [`MAX_STATES`] is 8,192 states (128 words), the
//! ISA's address space. A larger automaton runs on the reference
//! interpreter instead, as one does whose position automaton passes
//! [`MAX_FOLLOW_EDGES`](crate::MAX_FOLLOW_EDGES) or whose ISA un-lowering
//! trips its closure budget, so the engine's tables are bounded: at most
//! 1 KiB of row per residual source and 2 KiB of entry and acceptance
//! masks per byte class. Each residual source costs `W` ORs per byte it
//! is active, so a dense automaton under those caps (`(a?){512}c`: 515
//! states, every `a` a residual source over 10 words) can cost up to
//! `states × W` word operations per byte.
//!
//! Acceptance is checked before the byte is consumed and once more at
//! end of input (which reproduces the reference interpreter's
//! earliest-end semantics exactly), a dead frontier ends the run,
//! identifiers resolve to the lowest firing id, and `run_all` retires
//! arms as they fire. While the frontier is the automaton's steady scan
//! configuration, the step hands the bytes that leave it unchanged to the
//! prefilter (`prefilter.rs`), which finds the next byte that does not.
//! Accept arms are kept sparse (a handful of `(state, bytes)` sites per
//! identifier): they are consulted only when an acceptance fires, and a
//! dense per-arm, per-class mask would cost `arms × classes × W` words.

use crate::bytes::{byte_classes, ByteSet, Classes};
use crate::nfa::Nfa;
use crate::prefilter::Prefilter;
use crate::{accepted_at, HostAllOutcome, HostOutcome, REJECTED};

/// The mask widths, in `u64` words, that the step is instantiated for:
/// dense enough that a mask pads at most a third more words than its
/// states need (a pad word costs what a live one does), sparse enough to
/// keep the instantiations few. [`WideEngine::scan`]'s match names each
/// one.
pub(crate) const WIDTHS: [usize; 19] =
    [1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 64, 80, 96, 128];

/// The most states the engine steps: 128 words, the ISA's 8,192-instruction
/// address space. Larger automata run on the interpreter.
pub(crate) const MAX_STATES: usize = 128 * 64;

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
    /// States with a residual row.
    residual: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct WideEngine {
    pub classes: Classes,
    pub n_states: usize,
    /// `u64` words per state mask: one of [`WIDTHS`].
    pub words: usize,
    /// Chain, gap and residual masks, one entry per mask word.
    step: Vec<StepWord>,
    /// Per state with a residual bit, the index of its row in
    /// `residual_rows` (0 for the others, which never look it up).
    residual_ordinal: Vec<u32>,
    /// One dense `words`-word follow mask per residual source, the edges
    /// neither a shift nor a carry takes.
    residual_rows: Vec<u64>,
    /// `enter[class * words..][..words]`: states enterable on the class.
    enter: Vec<u64>,
    /// `accept_any[class * words..][..words]`: states with any arm firing
    /// under the class.
    accept_any: Vec<u64>,
    /// States with any arm firing at end of input.
    accept_eoi: Vec<u64>,
    /// Arms in resolution order (unidentified first, then ids ascending).
    arms: Vec<WideArm>,
    pub prefilter: Option<Prefilter>,
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
    /// The engine for `nfa`, which has at most [`MAX_STATES`] states.
    pub(crate) fn build(nfa: &Nfa) -> WideEngine {
        let n = nfa.preds.len();
        assert!(n <= MAX_STATES, "{n} states is over the multi-word cap of {MAX_STATES}");
        let words = *WIDTHS.iter().find(|&&w| w * 64 >= n).expect("the widest mask holds the cap");
        let classes = byte_classes(
            nfa.preds.iter().copied().chain(nfa.arms.iter().flatten().map(|arm| arm.bytes)),
        );

        let (step, residual_ordinal, residual_rows) = split_follow(&nfa.follow, words);

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
        let prefilter = Prefilter::build(nfa, &classes, words);

        let mut engine = WideEngine {
            classes,
            n_states: n,
            words,
            step,
            residual_ordinal,
            residual_rows,
            enter,
            accept_any: Vec::new(),
            accept_eoi: Vec::new(),
            arms,
            prefilter,
        };
        let mut any = vec![0u64; engine.classes.count * words];
        let mut eoi = vec![0u64; words];
        engine.accept_masks(&vec![true; engine.arms.len()], &mut any, &mut eoi);
        engine.accept_any = any;
        engine.accept_eoi = eoi;
        engine
    }

    /// Heap bytes of the engine's tables.
    pub(crate) fn table_bytes(&self) -> usize {
        let sites: usize = self.arms.iter().map(|arm| size_of_val(&arm.sites[..])).sum();
        size_of_val(&self.classes.repr[..])
            + size_of_val(&self.step[..])
            + size_of_val(&self.residual_ordinal[..])
            + size_of_val(&self.residual_rows[..])
            + size_of_val(&self.enter[..])
            + size_of_val(&self.accept_any[..])
            + size_of_val(&self.accept_eoi[..])
            + size_of_val(&self.arms[..])
            + sites
            + self.prefilter.as_ref().map_or(0, Prefilter::heap_bytes)
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

    /// Step `d` over `input[from..]` until it dies, the input ends, or a
    /// state in `any` (per-class acceptance masks) is about to consume a
    /// byte, in the instantiation for the engine's width.
    fn scan(&self, any: &[u64], d: &mut [u64], input: &[u8], from: usize) -> Stop {
        match self.words {
            1 => self.scan_words::<1>(any, d, input, from),
            2 => self.scan_words::<2>(any, d, input, from),
            3 => self.scan_words::<3>(any, d, input, from),
            4 => self.scan_words::<4>(any, d, input, from),
            6 => self.scan_words::<6>(any, d, input, from),
            8 => self.scan_words::<8>(any, d, input, from),
            10 => self.scan_words::<10>(any, d, input, from),
            12 => self.scan_words::<12>(any, d, input, from),
            16 => self.scan_words::<16>(any, d, input, from),
            20 => self.scan_words::<20>(any, d, input, from),
            24 => self.scan_words::<24>(any, d, input, from),
            28 => self.scan_words::<28>(any, d, input, from),
            32 => self.scan_words::<32>(any, d, input, from),
            40 => self.scan_words::<40>(any, d, input, from),
            48 => self.scan_words::<48>(any, d, input, from),
            64 => self.scan_words::<64>(any, d, input, from),
            80 => self.scan_words::<80>(any, d, input, from),
            96 => self.scan_words::<96>(any, d, input, from),
            128 => self.scan_words::<128>(any, d, input, from),
            words => unreachable!("{words} words is not one of the widths {WIDTHS:?}"),
        }
    }

    /// [`scan`](WideEngine::scan) over `[u64; W]` masks: per byte the
    /// prefilter's skip while the frontier is its steady state, the
    /// acceptance check, the chain shift and gap carries, the residual
    /// rows of the active residual sources, then the entry gate. Kept out
    /// of line: each width has one call site, in `scan`'s match, which
    /// would otherwise absorb every instantiation into one function.
    #[inline(never)]
    fn scan_words<const W: usize>(
        &self,
        any: &[u64],
        d: &mut [u64],
        input: &[u8],
        from: usize,
    ) -> Stop {
        let (any, _) = any.as_chunks::<W>();
        let (enter, _) = self.enter.as_chunks::<W>();
        let (rows, _) = self.residual_rows.as_chunks::<W>();
        let step: &[StepWord; W] = self.step.as_slice().try_into().expect("a word per mask word");
        let steady = self.prefilter.as_ref().map(|pf| {
            let state: &[u64; W] = pf.state.as_slice().try_into().expect("a mask word per word");
            (state, pf)
        });
        let mut cur: [u64; W] = (&*d).try_into().expect("a mask of the engine's width");
        // The follow union before the entry gate; the shift-and-carry
        // pass writes every word, and the gate writes `cur` back, so no
        // mask is zeroed or copied per byte.
        let mut next = [0u64; W];
        let mut stop = Stop::End;
        let mut pos = from;
        while pos < input.len() {
            if let Some((state, pf)) = steady {
                if cur == *state {
                    pos = pf.find_stop(input, pos);
                    if pos >= input.len() {
                        break;
                    }
                }
            }
            let class = self.class_of(input[pos]);
            if intersects(&cur, &any[class]) {
                stop = Stop::Accept(pos);
                break;
            }
            let mut shifted_out = 0u64;
            let mut carry = false;
            for ((to, &active), masks) in next.iter_mut().zip(&cur).zip(step) {
                let chain = active & masks.chain;
                let (sum, over) = (active & masks.gap).overflowing_add(masks.gap);
                let (sum, carried) = sum.overflowing_add(u64::from(carry));
                carry = over | carried;
                *to = (chain << 1) | shifted_out | (sum & masks.gap_to);
                shifted_out = chain >> 63;
            }
            for (word, (&active, masks)) in cur.iter().zip(step).enumerate() {
                let mut sources = active & masks.residual;
                while sources != 0 {
                    let state = word * 64 + sources.trailing_zeros() as usize;
                    sources &= sources - 1;
                    let row = &rows[self.residual_ordinal[state] as usize];
                    for (to, &mask) in next.iter_mut().zip(row) {
                        *to |= mask;
                    }
                }
            }
            let mut alive = 0u64;
            for ((to, &union), &gate) in cur.iter_mut().zip(&next).zip(&enter[class]) {
                *to = union & gate;
                alive |= *to;
            }
            if alive == 0 {
                stop = Stop::Dead(pos);
                break;
            }
            pos += 1;
        }
        d.copy_from_slice(&cur);
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
        // `run`'s outcome and the bytes it examined, once known; until
        // then the scan stops at the cap.
        let mut first = None;
        let mut end = byte_cap.min(input.len());
        let mut from = 0;
        loop {
            match self.scan(&any, &mut d, &input[..end], from) {
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

/// Split every state's follow set into chain edges, gap runs and dense
/// residual rows of `words` words (see the module docs): the step masks,
/// each state's residual ordinal and the rows. States are in program
/// order.
fn split_follow(follow: &[Vec<u32>], words: usize) -> (Vec<StepWord>, Vec<u32>, Vec<u64>) {
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

    let mut step = vec![StepWord::default(); words];
    let mut ordinal = vec![0u32; n];
    let mut rows: Vec<u64> = Vec::new();
    for (state, follows) in follow.iter().enumerate() {
        let (word, bit) = (state / 64, 1u64 << (state % 64));
        if run_to[state] != usize::MAX {
            step[word].gap |= bit;
            step[run_to[state] / 64].gap_to |= 1u64 << (run_to[state] % 64);
        }
        for &t in follows {
            let t = t as usize;
            if t == run_to[state] {
                continue;
            }
            if t == state + 1 {
                step[word].chain |= bit;
                continue;
            }
            if step[word].residual & bit == 0 {
                step[word].residual |= bit;
                ordinal[state] = (rows.len() / words) as u32;
                rows.resize(rows.len() + words, 0);
            }
            let row = rows.len() - words;
            set_bit(&mut rows[row..], t);
        }
    }
    debug_assert!(
        (0..n).all(|state| rejoined(&step, &ordinal, &rows, state) == follow[state]),
        "chain, gap and residual edges must partition every follow set"
    );
    (step, ordinal, rows)
}

/// `state`'s follow set put back together from the step masks and rows:
/// its chain edge, the target its gap run carries into (the first clear
/// bit of `gap` above it, which `gap_to` must hold) and its residual
/// row, each edge once per part it is in.
fn rejoined(step: &[StepWord], ordinal: &[u32], rows: &[u64], state: usize) -> Vec<u32> {
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
    if has(|word| word.residual, state) {
        let words = step.len();
        let row = &rows[ordinal[state] as usize * words..][..words];
        for (word, &mask) in row.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                follows.push((word * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
    follows.sort_unstable();
    follows
}

/// Resumable matcher state over a [`WideEngine`]: the live mask.
#[derive(Debug, Clone)]
pub(crate) struct WideMatcher {
    d: Vec<u64>,
}

impl WideMatcher {
    pub(crate) fn new(engine: &WideEngine) -> WideMatcher {
        WideMatcher { d: engine.start() }
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
        let stop = engine.scan(&engine.accept_any, &mut self.d, chunk, 0);
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
    use crate::bytes::tests::random_set;
    use crate::nfa::AcceptArm;
    use crate::prefilter::{steady, MAX_STOP_BYTES};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A random follow relation over `n` program-ordered states, built
    /// from the shapes a lowering yields: literal chains, gap windows
    /// into the next atom (mostly one to six states, now and then one
    /// over a whole mask word; adjacent ones included), pattern ends with
    /// no edge onward, and stray edges anywhere (back, self, far
    /// forward). Windows straddle every mask-word boundary.
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
        for boundary in (64..n).step_by(64) {
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

    /// One byte of the generic scan from `d`, on an engine whose states
    /// all enter on every byte and carry no arms: the follow union.
    fn stepped(engine: &WideEngine, d: &[u64]) -> Vec<u64> {
        let mut next = d.to_vec();
        engine.scan(&engine.accept_any, &mut next, &[0], 0);
        next
    }

    #[test]
    fn shift_carry_and_residual_rows_equal_the_row_union() {
        let mut rng = StdRng::seed_from_u64(0x5EED_CA22);
        let mut gaps = 0;
        let mut widths = Vec::new();
        // Every instantiation boundary from both sides, a few sizes inside
        // the narrow widths, and the cap.
        let mut sizes = vec![1usize, 2, 3, 63, 66, 130, 131, 200, 300];
        for width in WIDTHS {
            sizes.extend([width * 64 - 1, width * 64, width * 64 + 1]);
        }
        sizes.retain(|&n| n <= MAX_STATES);
        sizes.sort_unstable();
        sizes.dedup();
        for n in sizes {
            // The wide relations are costly to check state by state: fewer
            // of them, and single states only around each word boundary.
            let (relations, all_singles) = if n <= 300 { (40, true) } else { (2, false) };
            for _ in 0..relations {
                let follow = relation(&mut rng, n);
                let nfa = Nfa {
                    preds: vec![ByteSet::FULL; n],
                    follow: follow.clone(),
                    arms: vec![Vec::new(); n],
                };
                let engine = WideEngine::build(&nfa);
                let words = engine.words;
                assert!(words * 64 >= n && WIDTHS.contains(&words), "n {n}: {words} words");
                assert_eq!(words, *WIDTHS.iter().find(|&&w| w * 64 >= n).unwrap(), "n {n}");
                widths.push(words);
                gaps += engine.step.iter().filter(|word| word.gap != 0).count();
                let sources: u32 = engine.step.iter().map(|w| w.residual.count_ones()).sum();
                assert_eq!(engine.residual_rows.len(), sources as usize * words, "n {n}");
                let mut masks = vec![vec![u64::MAX; words], vec![0; words]];
                for state in 0..n {
                    if all_singles || state % 64 < 2 || state % 64 > 61 {
                        let mut single = vec![0; words];
                        set_bit(&mut single, state);
                        masks.push(single);
                    }
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
                    for state in n..words * 64 {
                        d[state / 64] &= !(1u64 << (state % 64));
                    }
                    let next = stepped(&engine, d);
                    assert_eq!(next, row_union(&follow, d), "n {n}, d {d:x?}, follow {follow:?}");
                }
            }
        }
        widths.dedup();
        assert_eq!(widths, WIDTHS, "every instantiation must be stepped");
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
        // State 124's one residual edge is a dense row of the mask's width.
        assert_eq!(engine.residual_rows, mask(&mut [130].into_iter()));
        for (sources, targets) in [
            (vec![61], vec![67]),
            (vec![63, 64], vec![67]),
            (vec![66], vec![67]),
            (vec![123], vec![124]),
            (vec![124], vec![130]),
            (vec![127, 128], vec![130]),
            (vec![66, 118, 129], vec![67, 124, 130]),
        ] {
            let next = stepped(&engine, &mask(&mut sources.iter().copied()));
            assert_eq!(next, mask(&mut targets.iter().copied()), "{sources:?}");
        }
    }

    #[test]
    fn the_steady_state_steps_to_itself_on_exactly_the_skipped_classes() {
        // The wide step's relations behind a scan loop (state 1 loops on
        // itself and enters a few member starts; the start enters what it
        // does), with random entry predicates and a few arm sites, on
        // sizes either side of every width boundary. Stepped without the
        // prefilter, the steady configuration goes back to itself and
        // fires no arm on exactly the classes outside its stop set, and
        // the engine keeps that prefilter exactly when the stop set is
        // small enough.
        let mut rng = StdRng::seed_from_u64(0x57EA_D1E7);
        let mut sizes = vec![3usize, 5, 40];
        for width in WIDTHS {
            sizes.extend([width * 64, width * 64 + 1]);
        }
        sizes.retain(|&n| n <= MAX_STATES);
        sizes.sort_unstable();
        sizes.dedup();
        let (mut steadies, mut kept, mut memchr, mut armed) = (0, 0, 0, 0);
        let mut widths = Vec::new();
        for n in sizes {
            for _ in 0..if n <= 300 { 30 } else { 3 } {
                let mut follow = relation(&mut rng, n);
                let mut scan = vec![1u32];
                scan.extend((0..rng.random_range(1..5)).map(|_| rng.random_range(2..n) as u32));
                scan.sort_unstable();
                scan.dedup();
                follow[1] = scan.clone();
                follow[0] = scan;
                let mut preds: Vec<ByteSet> = (0..n).map(|_| random_set(&mut rng)).collect();
                preds[0] = ByteSet::EMPTY;
                if rng.random_range(0..2) == 0 {
                    preds[1] = ByteSet::FULL;
                }
                let mut arms = vec![Vec::new(); n];
                for _ in 0..rng.random_range(0..4) {
                    let state = match rng.random_range(0..3) {
                        0 => 1,
                        _ => rng.random_range(0..n),
                    };
                    arms[state].push(AcceptArm {
                        id: Some(rng.random_range(0..4)),
                        bytes: random_set(&mut rng),
                        eoi: rng.random_range(0..2) == 0,
                    });
                }
                armed += usize::from(!arms[1].is_empty());
                let nfa = Nfa { preds, follow, arms };
                let engine = WideEngine::build(&nfa);
                let Some((states, skip)) = steady(&nfa, &engine.classes) else {
                    assert!(engine.prefilter.is_none(), "n {n}");
                    continue;
                };
                steadies += 1;
                widths.push(engine.words);
                let mut state = vec![0u64; engine.words];
                states.iter().for_each(|&s| set_bit(&mut state, s as usize));
                let stops: Vec<u8> = ByteSet::FULL.difference(skip).iter().collect();
                match &engine.prefilter {
                    Some(pf) => {
                        kept += 1;
                        memchr += usize::from(stops.len() <= 3);
                        assert_eq!(pf.state, state, "n {n}");
                        assert_eq!(pf.stop_bytes(), stops, "n {n}");
                    }
                    None => assert!(stops.len() > MAX_STOP_BYTES, "n {n}: {stops:?}"),
                }
                let mut plain = engine.clone();
                plain.prefilter = None;
                for (class, &byte) in engine.classes.repr.iter().enumerate() {
                    let mut d = state.clone();
                    let stop = plain.scan(&plain.accept_any, &mut d, &[byte], 0);
                    let kept_still = matches!(stop, Stop::End) && d == state;
                    assert_eq!(kept_still, skip.contains(byte), "n {n}, class {class}");
                    // The skip set is a union of classes.
                    for b in (0..=255u8).filter(|&b| plain.class_of(b) == class) {
                        assert_eq!(skip.contains(b), skip.contains(byte), "n {n}, byte {b}");
                    }
                }
            }
        }
        widths.dedup();
        assert_eq!(widths, WIDTHS, "a steady state on every width");
        assert!(steadies > 200 && kept > 50 && memchr > 10, "{steadies} {kept} {memchr}");
        assert!(armed > 50, "{armed} scan loops carry an arm");
    }
}
