//! Literal-prefilter extraction: memchr-style skipping of non-candidate
//! bytes.
//!
//! Unanchored programs spend almost all their time in a *steady scan
//! state* — the configuration reached after a byte that starts no match
//! (for the canonical scan loop, the self-looping `.*` state). From that
//! state, any byte that (a) steps the configuration back to itself and
//! (b) fires no acceptance is provably skippable: the engine's state and
//! output are identical whether the byte is stepped or skipped. The
//! prefilter precomputes that skip set; at run time, whenever the live
//! configuration equals the steady state, the scan degrades to "find the
//! next *stop* byte" — a memchr.
//!
//! The skip set is read off the automaton, not stepped through an engine:
//! a byte steps a configuration `S` to itself exactly when every state of
//! `S` is a successor of `S` entering on it and no other successor of `S`
//! does, so the set is an intersection and differences of predicates.
//! A prefilter is kept only while its stop set has at most
//! [`MAX_STOP_BYTES`] members: a state comparison per byte buys nothing
//! when nearly every byte stops the skip.
//!
//! When the stop set has at most three members (the typical literal-led
//! pattern: `th(is|at)` stops only on `t`), the search is a hand-rolled
//! SWAR memchr over 8-byte words; larger stop sets fall back to a
//! 256-entry table scan. Both are exact: the prefilter never skips a
//! position the engine would have treated differently, so it is safe for
//! `run`, `run_all`, and the resumable stream matcher alike (skips never
//! cross a chunk boundary — state is re-checked per chunk).

use crate::bytes::{ByteSet, Classes};
use crate::nfa::Nfa;

/// The most stop bytes a kept prefilter has.
pub(crate) const MAX_STOP_BYTES: usize = 16;

#[derive(Debug, Clone)]
pub(crate) struct Prefilter {
    /// The steady scan configuration the skip set was derived for, as a
    /// mask of the engine's width.
    pub state: Vec<u64>,
    /// `stop[b]`: the scan must re-enter the engine at `b`.
    stop: [bool; 256],
    kind: SkipKind,
}

#[derive(Debug, Clone)]
enum SkipKind {
    /// Stop set of 1–3 bytes: SWAR word-at-a-time search.
    Memchr(Vec<u8>),
    /// Larger stop sets: table-driven scalar scan.
    Table,
}

impl Prefilter {
    /// The prefilter of `nfa` (whose byte classes are `classes`) over
    /// masks of `words` words, if a steady state stops on at most
    /// [`MAX_STOP_BYTES`] bytes.
    pub(crate) fn build(nfa: &Nfa, classes: &Classes, words: usize) -> Option<Prefilter> {
        let (states, skip) = steady(nfa, classes)?;
        let stop_bytes: Vec<u8> = ByteSet::FULL.difference(skip).iter().collect();
        if stop_bytes.len() > MAX_STOP_BYTES {
            return None;
        }
        let mut state = vec![0u64; words];
        for s in states {
            state[s as usize / 64] |= 1u64 << (s % 64);
        }
        let mut stop = [false; 256];
        for &b in &stop_bytes {
            stop[usize::from(b)] = true;
        }
        let kind = if (1..=3).contains(&stop_bytes.len()) {
            SkipKind::Memchr(stop_bytes)
        } else {
            SkipKind::Table
        };
        Some(Prefilter { state, stop, kind })
    }

    /// First index `>= from` holding a stop byte, or `hay.len()`.
    #[inline]
    pub(crate) fn find_stop(&self, hay: &[u8], from: usize) -> usize {
        match &self.kind {
            SkipKind::Memchr(needles) => from + swar_find(needles, &hay[from..]),
            SkipKind::Table => {
                from + hay[from..]
                    .iter()
                    .position(|&b| self.stop[usize::from(b)])
                    .unwrap_or(hay.len() - from)
            }
        }
    }

    /// Heap bytes: the steady state's mask and a memchr stop set's
    /// needles.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&self.state[..])
            + match &self.kind {
                SkipKind::Memchr(needles) => needles.len(),
                SkipKind::Table => 0,
            }
    }

    /// The stop bytes (the extracted literal candidates), for
    /// introspection and tests.
    pub(crate) fn stop_bytes(&self) -> Vec<u8> {
        (0u16..256).map(|b| b as u8).filter(|&b| self.stop[usize::from(b)]).collect()
    }
}

/// The steady configuration with the largest skip set, as its states
/// (ascending) and the bytes it skips, whatever the skip set's size;
/// `None` when no candidate skips a byte. The candidates are every
/// configuration one non-accepting byte from the start (for the canonical
/// scan loop, the self-looping `.*` state and whatever else that byte
/// enters); the start itself, entered on no byte, never steps to itself.
pub(crate) fn steady(nfa: &Nfa, classes: &Classes) -> Option<(Vec<u32>, ByteSet)> {
    let fires = |states: &[u32]| {
        states
            .iter()
            .flat_map(|&s| &nfa.arms[s as usize])
            .fold(ByteSet::EMPTY, |bytes, arm| bytes.union(arm.bytes))
    };
    let start_fires = fires(&[0]);
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    for &byte in &classes.repr {
        if start_fires.contains(byte) {
            continue;
        }
        let next: Vec<u32> = nfa.follow[0]
            .iter()
            .copied()
            .filter(|&t| nfa.preds[t as usize].contains(byte))
            .collect();
        if !next.is_empty() && !candidates.contains(&next) {
            candidates.push(next);
        }
    }

    let mut best: Option<(Vec<u32>, ByteSet)> = None;
    for states in candidates {
        // A byte steps `states` to itself when each of them enters on it
        // (so it must be a successor of one of them) and no other
        // successor does; an acceptance from `states` stops the skip.
        let mut successors: Vec<u32> =
            states.iter().flat_map(|&s| nfa.follow[s as usize].iter().copied()).collect();
        successors.sort_unstable();
        successors.dedup();
        if !states.iter().all(|s| successors.binary_search(s).is_ok()) {
            continue;
        }
        let mut skip = states
            .iter()
            .fold(ByteSet::FULL, |bytes, &s| bytes.intersection(nfa.preds[s as usize]))
            .difference(fires(&states));
        for t in successors.iter().filter(|t| states.binary_search(t).is_err()) {
            skip = skip.difference(nfa.preds[*t as usize]);
        }
        if !skip.is_empty() && best.as_ref().is_none_or(|(_, most)| skip.len() > most.len()) {
            best = Some((states, skip));
        }
    }
    best
}

/// SWAR multi-needle memchr: first index of any of the (at most three)
/// needles in `hay`, or `hay.len()`. Words are read little-endian so the
/// zero-byte locator's `trailing_zeros / 8` is the in-word byte offset.
fn swar_find(needles: &[u8], hay: &[u8]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut splats = [0u64; 3];
    for (splat, &needle) in splats.iter_mut().zip(needles) {
        *splat = LO * u64::from(needle);
    }
    let splats = &splats[..needles.len()];
    let mut chunks = hay.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mut found = 0u64;
        for &splat in splats {
            let x = word ^ splat;
            found |= x.wrapping_sub(LO) & !x & HI;
        }
        if found != 0 {
            return offset + (found.trailing_zeros() / 8) as usize;
        }
        offset += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if needles.contains(&b) {
            return offset + i;
        }
    }
    hay.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swar_finds_first_needle_across_word_boundaries() {
        let hay: Vec<u8> = (0..50).map(|i| if i == 37 { b't' } else { b'x' }).collect();
        assert_eq!(swar_find(b"t", &hay), 37);
        assert_eq!(swar_find(b"q", &hay), hay.len());
        assert_eq!(swar_find(b"qt", &hay), 37);
        assert_eq!(swar_find(b"t", b""), 0);
        // Needle in the sub-word tail.
        let mut tail = vec![b'x'; 10];
        tail.push(b't');
        assert_eq!(swar_find(b"t", &tail), 10);
    }

    #[test]
    fn swar_handles_high_bytes() {
        let mut hay = vec![0x7fu8; 20];
        hay[13] = 0xff;
        assert_eq!(swar_find(&[0xff], &hay), 13);
        assert_eq!(swar_find(&[0x00], &hay), hay.len());
    }
}
