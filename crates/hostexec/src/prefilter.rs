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
//! When the stop set has at most three members (the typical literal-led
//! pattern: `th(is|at)` stops only on `t`), the search is a hand-rolled
//! SWAR memchr over 8-byte words; larger stop sets fall back to a
//! 256-entry table scan. Both are exact: the prefilter never skips a
//! position the engine would have treated differently, so it is safe for
//! `run`, `run_all`, and the resumable stream matcher alike (skips never
//! cross a chunk boundary — state is re-checked per chunk).

use crate::engine::{BitEngine, Mask};

/// Minimum skippable bytes (out of 256) for the prefilter to pay for its
/// per-byte state comparison.
const MIN_SKIP_BYTES: usize = 128;

#[derive(Debug, Clone)]
pub(crate) struct Prefilter<M> {
    /// The steady scan configuration the skip set was derived for.
    pub state: M,
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

impl<M: Mask> Prefilter<M> {
    /// First index `>= from` holding a stop byte, or `hay.len()`.
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

    /// Heap bytes: a memchr stop set's needles.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.kind {
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

/// SWAR multi-needle memchr: first index of any needle in `hay`, or
/// `hay.len()`. Words are read little-endian so the zero-byte locator's
/// `trailing_zeros / 8` is the in-word byte offset.
fn swar_find(needles: &[u8], hay: &[u8]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splats: Vec<u64> = needles.iter().map(|&n| LO * u64::from(n)).collect();
    let mut chunks = hay.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mut found = 0u64;
        for &splat in &splats {
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

/// Derive a prefilter for `engine`, if a steady state with a large
/// enough skip set exists.
pub(crate) fn derive<M: Mask>(engine: &BitEngine<M>) -> Option<Prefilter<M>> {
    let start = engine.start();
    // Candidate steady states: the start configuration itself plus every
    // configuration one non-accepting byte away from it (for the
    // canonical scan loop that is the self-looping `.*` state).
    let mut candidates: Vec<M> = vec![start];
    for class in 0..engine.classes.count {
        if !engine.accepts_on(start, class) {
            let next = engine.step(start, class);
            if !next.is_zero() && !candidates.contains(&next) {
                candidates.push(next);
            }
        }
    }

    let mut class_sizes = vec![0usize; engine.classes.count];
    for &class in &engine.classes.of {
        class_sizes[usize::from(class)] += 1;
    }
    let mut best: Option<(M, Vec<usize>, usize)> = None;
    for state in candidates {
        let mut skip_classes: Vec<usize> = Vec::new();
        let mut skip_bytes = 0usize;
        for (class, &size) in class_sizes.iter().enumerate() {
            if engine.step(state, class) == state && !engine.accepts_on(state, class) {
                skip_classes.push(class);
                skip_bytes += size;
            }
        }
        if skip_bytes >= MIN_SKIP_BYTES
            && best.as_ref().is_none_or(|(_, _, bytes)| skip_bytes > *bytes)
        {
            best = Some((state, skip_classes, skip_bytes));
        }
    }

    let (state, skip_classes, _) = best?;
    let mut stop = [true; 256];
    for b in 0u16..256 {
        let class = usize::from(engine.classes.of[usize::from(b as u8)]);
        if skip_classes.contains(&class) {
            stop[usize::from(b as u8)] = false;
        }
    }
    let stop_bytes: Vec<u8> =
        (0u16..256).map(|b| b as u8).filter(|&b| stop[usize::from(b)]).collect();
    let kind = if (1..=3).contains(&stop_bytes.len()) {
        SkipKind::Memchr(stop_bytes)
    } else {
        SkipKind::Table
    };
    Some(Prefilter { state, stop, kind })
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
