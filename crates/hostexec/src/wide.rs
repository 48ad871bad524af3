//! Multi-word bit-parallel execution for automata wider than one
//! machine word (> 128 states).
//!
//! The step is the one [`BitEngine`](crate::engine::BitEngine) takes,
//!
//! ```text
//! D' = (⋃ follow[s] for s in D)  ∩  enter[class(byte)]
//! ```
//!
//! over a state mask of `ceil(states / 64)` `u64` words. The follow
//! union walks the set bits of the non-zero words of `D` and ORs one
//! row per active state. `BitEngine`'s byte-chunked follow tables cannot
//! simply be instantiated wider: they are 4·n² bytes (490 KB at 350
//! states, 268 MB at the ISA's 8,192-instruction ceiling). Per-state
//! rows are n²/8 bytes dense, and they are mostly zero — a state has a
//! handful of successors — so a row keeps only its non-zero words, as
//! `(word index, mask)` pairs: 16 bytes per pair, one or two pairs for
//! most states however wide the automaton is (6.6 KB of rows for a
//! 350-state, 16-signature protein set; n²/4 bytes if every row were
//! full).
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

#[derive(Debug, Clone)]
pub(crate) struct WideEngine {
    pub classes: Classes,
    pub n_states: usize,
    /// `u64` words per state mask.
    words: usize,
    /// The non-zero words of every state's follow mask, as `(word index,
    /// mask)`; state `s` owns `rows[row_start[s]..row_start[s + 1]]`.
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

        let mut rows: Vec<(u32, u64)> = Vec::new();
        let mut row_start = Vec::with_capacity(n + 1);
        for follows in &nfa.follow {
            row_start.push(rows.len() as u32);
            let first = rows.len();
            for &t in follows {
                let word = t / 64;
                let bit = 1u64 << (t % 64);
                match rows[first..].last_mut() {
                    Some((w, mask)) if *w == word => *mask |= bit,
                    _ => rows.push((word, bit)),
                }
            }
        }
        row_start.push(rows.len() as u32);

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

    /// Step `d` over `input[from..]` until it dies, the input ends, or a
    /// state in `any` (per-class acceptance masks) is about to consume a
    /// byte. `next` is scratch: all zero on entry and on exit.
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
            // Taking each word of `cur` as it is read leaves it zeroed:
            // it is the next step's scratch.
            for (word, active) in cur.iter_mut().enumerate() {
                let mut bits = std::mem::take(active);
                while bits != 0 {
                    let state = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row = self.row_start[state] as usize..self.row_start[state + 1] as usize;
                    for &(to, mask) in &self.rows[row] {
                        nxt[to as usize] |= mask;
                    }
                }
            }
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
