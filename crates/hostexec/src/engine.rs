//! Bit-parallel execution of the epsilon-free NFA.
//!
//! One active state = one bit of a machine word (`u64` up to 64 states,
//! `u128` up to 128). A step is:
//!
//! ```text
//! D' = (⋃ follow[s] for s in D)  ∩  enter[class(byte)]
//! ```
//!
//! The follow union is table-driven: states are grouped eight to a
//! *chunk*, and `chunk_follow[chunk][m]` holds the pre-ORed follow masks
//! of the chunk's states selected by the 8-bit slice `m` of `D`. A step
//! is then at most `states/8` table lookups and ORs plus one AND — no
//! per-state work. `enter`, acceptance, and the prefilter are all indexed
//! by *byte class* (bytes no predicate distinguishes share a class), so
//! the tables stay small and cache-resident.
//!
//! Acceptance is checked *before* consuming the byte at each position
//! (and once more at end of input), which reproduces the reference
//! interpreter's earliest-end semantics exactly: `accept_any[class]`
//! holds the states with an arm firing under that class, and per-arm
//! masks resolve identifiers for `run_all`.

use crate::bytes::ByteSet;
use crate::nfa::Nfa;
use crate::prefilter::{self, Prefilter};
use crate::{accepted_at, HostAllOutcome, HostOutcome, REJECTED};

/// Byte-class partition: bytes that every predicate and accept arm treat
/// identically share a class.
#[derive(Debug, Clone)]
pub(crate) struct Classes {
    /// Byte value → class index.
    pub of: [u8; 256],
    /// Number of classes (≤ 256).
    pub count: usize,
    /// One representative byte per class.
    pub repr: Vec<u8>,
}

pub(crate) fn byte_classes<I: Iterator<Item = ByteSet>>(sets: I) -> Classes {
    // The partition is the common refinement of every set's, whatever the
    // order, so each distinct set refines once (the predicates and arms of
    // an automaton repeat a few sets hundreds of times). Empty and full
    // sets distinguish nothing.
    let mut distinct: Vec<ByteSet> = sets.filter(|s| !s.is_empty() && !s.is_full()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut of = [0u8; 256];
    for set in &distinct {
        // (old class, membership) → refined class, numbered in first-byte
        // order.
        let mut refined = [u16::MAX; 512];
        let mut next = 0u16;
        for b in 0..=255u8 {
            let key = usize::from(of[usize::from(b)]) * 2 + usize::from(set.contains(b));
            if refined[key] == u16::MAX {
                refined[key] = next;
                next += 1;
            }
            of[usize::from(b)] = refined[key] as u8;
        }
    }
    // Numbered in first-byte order, each class first shows up as the next
    // number: its lowest byte.
    let mut repr = Vec::new();
    for b in 0..=255u8 {
        if usize::from(of[usize::from(b)]) == repr.len() {
            repr.push(b);
        }
    }
    Classes { of, count: repr.len(), repr }
}

/// The state-mask word: implemented for `u64` and `u128`.
pub(crate) trait Mask:
    Copy + Eq + std::ops::BitAnd<Output = Self> + std::ops::BitOr<Output = Self> + std::ops::BitOrAssign
{
    const ZERO: Self;
    fn bit(index: usize) -> Self;
    fn is_zero(self) -> bool;
    /// Lowest eight bits, as a table index.
    fn low8(self) -> usize;
    /// Logical shift right by eight.
    fn shr8(self) -> Self;
}

impl Mask for u64 {
    const ZERO: u64 = 0;
    fn bit(index: usize) -> u64 {
        1u64 << index
    }
    fn is_zero(self) -> bool {
        self == 0
    }
    fn low8(self) -> usize {
        (self & 0xff) as usize
    }
    fn shr8(self) -> u64 {
        self >> 8
    }
}

impl Mask for u128 {
    const ZERO: u128 = 0;
    fn bit(index: usize) -> u128 {
        1u128 << index
    }
    fn is_zero(self) -> bool {
        self == 0
    }
    fn low8(self) -> usize {
        (self & 0xff) as usize
    }
    fn shr8(self) -> u128 {
        self >> 8
    }
}

/// One identifier's acceptance masks.
#[derive(Debug, Clone)]
pub(crate) struct EngineArm<M> {
    pub id: Option<u16>,
    /// Per class: states whose arm for this id fires under the class.
    pub by_class: Vec<M>,
    /// States whose arm for this id fires at end of input.
    pub eoi: M,
}

#[derive(Debug, Clone)]
pub(crate) struct BitEngine<M> {
    pub classes: Classes,
    /// `chunk_follow[chunk * 256 + m]`: union of follow masks of the
    /// chunk's states selected by slice `m`.
    chunk_follow: Vec<M>,
    /// Per class: states enterable on a byte of the class.
    enter: Vec<M>,
    /// Per class: states with any arm firing under the class.
    accept_any: Vec<M>,
    /// States with any arm firing at end of input.
    accept_eoi: M,
    /// Arms in resolution order (unidentified first, then ids ascending).
    arms: Vec<EngineArm<M>>,
    /// Start configuration (bit 0).
    start: M,
    pub prefilter: Option<Prefilter<M>>,
    pub n_states: usize,
}

impl<M: Mask> BitEngine<M> {
    pub(crate) fn build(nfa: &Nfa) -> BitEngine<M> {
        let n = nfa.preds.len();
        let classes = byte_classes(
            nfa.preds.iter().copied().chain(nfa.arms.iter().flatten().map(|arm| arm.bytes)),
        );

        let follow_mask: Vec<M> = nfa
            .follow
            .iter()
            .map(|follows| {
                let mut mask = M::ZERO;
                for &t in follows {
                    mask |= M::bit(t as usize);
                }
                mask
            })
            .collect();

        // Subset-sum DP per chunk: table[m] = table[m without lowest bit]
        // | follow_mask[lowest state of m].
        let chunks = n.div_ceil(8);
        let mut chunk_follow = vec![M::ZERO; chunks * 256];
        for chunk in 0..chunks {
            let base = chunk * 256;
            for m in 1usize..256 {
                let low = m.trailing_zeros() as usize;
                let state = chunk * 8 + low;
                let from_states = if state < n { follow_mask[state] } else { M::ZERO };
                chunk_follow[base + m] = chunk_follow[base + (m & (m - 1))] | from_states;
            }
        }

        let mut enter = vec![M::ZERO; classes.count];
        for (class, &byte) in classes.repr.iter().enumerate() {
            for (state, pred) in nfa.preds.iter().enumerate() {
                if pred.contains(byte) {
                    enter[class] |= M::bit(state);
                }
            }
        }

        // Arms grouped by id across states.
        let mut arms: Vec<EngineArm<M>> = Vec::new();
        for (state, state_arms) in nfa.arms.iter().enumerate() {
            for arm in state_arms {
                let entry = match arms.iter_mut().find(|a| a.id == arm.id) {
                    Some(entry) => entry,
                    None => {
                        arms.push(EngineArm {
                            id: arm.id,
                            by_class: vec![M::ZERO; classes.count],
                            eoi: M::ZERO,
                        });
                        arms.last_mut().expect("just pushed")
                    }
                };
                for (class, &byte) in classes.repr.iter().enumerate() {
                    if arm.bytes.contains(byte) {
                        entry.by_class[class] |= M::bit(state);
                    }
                }
                if arm.eoi {
                    entry.eoi |= M::bit(state);
                }
            }
        }
        arms.sort_by_key(|arm| arm.id.map_or(-1i32, i32::from));

        let mut accept_any = vec![M::ZERO; classes.count];
        let mut accept_eoi = M::ZERO;
        for arm in &arms {
            for (class, &mask) in arm.by_class.iter().enumerate() {
                accept_any[class] |= mask;
            }
            accept_eoi |= arm.eoi;
        }

        let mut engine = BitEngine {
            classes,
            chunk_follow,
            enter,
            accept_any,
            accept_eoi,
            arms,
            start: M::bit(0),
            prefilter: None,
            n_states: n,
        };
        engine.prefilter = prefilter::derive(&engine);
        engine
    }

    /// Heap bytes of the engine's tables.
    pub(crate) fn table_bytes(&self) -> usize {
        let arms: usize = self.arms.iter().map(|arm| size_of_val(&arm.by_class[..])).sum();
        size_of_val(&self.classes.repr[..])
            + size_of_val(&self.chunk_follow[..])
            + size_of_val(&self.enter[..])
            + size_of_val(&self.accept_any[..])
            + size_of_val(&self.arms[..])
            + arms
            + self.prefilter.as_ref().map_or(0, Prefilter::heap_bytes)
    }

    #[inline]
    pub(crate) fn step(&self, d: M, class: usize) -> M {
        let mut union = M::ZERO;
        let mut rest = d;
        let mut chunk = 0;
        while !rest.is_zero() {
            union |= self.chunk_follow[chunk * 256 + rest.low8()];
            rest = rest.shr8();
            chunk += 1;
        }
        union & self.enter[class]
    }

    #[inline]
    pub(crate) fn class_of(&self, byte: u8) -> usize {
        usize::from(self.classes.of[usize::from(byte)])
    }

    pub(crate) fn start(&self) -> M {
        self.start
    }

    #[inline]
    pub(crate) fn accepts_on(&self, d: M, class: usize) -> bool {
        !(d & self.accept_any[class]).is_zero()
    }

    pub(crate) fn accepts_eoi(&self, d: M) -> bool {
        !(d & self.accept_eoi).is_zero()
    }

    /// First arm (resolution order) firing from `d`; `class == None`
    /// means end of input.
    pub(crate) fn resolve_id(&self, d: M, class: Option<usize>) -> Option<u16> {
        for arm in &self.arms {
            let mask = match class {
                Some(class) => arm.by_class[class],
                None => arm.eoi,
            };
            if !(d & mask).is_zero() {
                return arm.id;
            }
        }
        None
    }

    /// Exhaustive multi-match scan (the host analogue of
    /// [`cicero_isa::run_all`]): collects every distinct identifier,
    /// retiring arms as they fire, and stops early once nothing remains
    /// to learn. Until the first stop the loop is [`BitMatcher::feed`]'s,
    /// over at most `byte_cap` bytes (`None` if that stop lies past them).
    pub(crate) fn run_all(&self, input: &[u8], byte_cap: usize) -> Option<HostAllOutcome> {
        let mut ids = Vec::new();
        let mut live: Vec<bool> = vec![true; self.arms.len()];
        let mut live_count = self.arms.len();
        let mut any = self.accept_any.clone();
        let mut eoi = self.accept_eoi;
        let mut d = self.start;
        let mut pos = 0usize;
        // `run`'s outcome and the bytes it examined, once known; until
        // then the scan stops at the cap.
        let mut first = None;
        let mut end = byte_cap.min(input.len());
        while pos < end {
            if let Some(pf) = &self.prefilter {
                if d == pf.state {
                    pos = pf.find_stop(&input[..end], pos);
                    if pos >= end {
                        break;
                    }
                }
            }
            let class = self.class_of(input[pos]);
            if !(d & any[class]).is_zero() {
                if first.is_none() {
                    first = Some((accepted_at(pos, self.resolve_id(d, Some(class))), pos));
                    end = input.len();
                }
                self.fire(d, Some(class), &mut ids, &mut live, &mut live_count, &mut any, &mut eoi);
                if live_count == 0 {
                    break;
                }
            }
            d = self.step(d, class);
            if d.is_zero() {
                let (first, examined) = first.unwrap_or((REJECTED, pos));
                return Some(HostAllOutcome { first, examined, matched_ids: ids });
            }
            pos += 1;
        }
        let (first, examined) = match first {
            Some(stop) => stop,
            None if end < input.len() => return None,
            // `run` read the whole input: its end-of-input check is the
            // first stop.
            None if !(d & eoi).is_zero() => {
                (accepted_at(input.len(), self.resolve_id(d, None)), input.len())
            }
            None => (REJECTED, input.len()),
        };
        if !(d & eoi).is_zero() {
            self.fire(d, None, &mut ids, &mut live, &mut live_count, &mut any, &mut eoi);
        }
        Some(HostAllOutcome { first, examined, matched_ids: ids })
    }

    /// Record and retire every live arm firing from `d`.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        d: M,
        class: Option<usize>,
        ids: &mut Vec<u16>,
        live: &mut [bool],
        live_count: &mut usize,
        any: &mut [M],
        eoi: &mut M,
    ) {
        let mut retired = false;
        for (index, arm) in self.arms.iter().enumerate() {
            if !live[index] {
                continue;
            }
            let mask = match class {
                Some(class) => arm.by_class[class],
                None => arm.eoi,
            };
            if (d & mask).is_zero() {
                continue;
            }
            if let Some(id) = arm.id {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
            live[index] = false;
            *live_count -= 1;
            retired = true;
        }
        // Retiring an unidentified arm loses nothing: the caller recorded
        // the first stop before firing.
        if retired {
            for mask in any.iter_mut() {
                *mask = M::ZERO;
            }
            *eoi = M::ZERO;
            for (index, arm) in self.arms.iter().enumerate() {
                if !live[index] {
                    continue;
                }
                for (class, &mask) in arm.by_class.iter().enumerate() {
                    any[class] |= mask;
                }
                *eoi |= arm.eoi;
            }
        }
    }
}

/// Resumable matcher state over a [`BitEngine`] (the chunk-split
/// invariant engine core shared by `run` and the stream matcher).
#[derive(Debug, Clone)]
pub(crate) struct BitMatcher<M> {
    d: M,
}

impl<M: Mask> BitMatcher<M> {
    pub(crate) fn new(engine: &BitEngine<M>) -> BitMatcher<M> {
        BitMatcher { d: engine.start() }
    }

    /// Feed `chunk`, starting at absolute position `*position`.
    /// Returns `Some(outcome)` when the run concludes (acceptance or dead
    /// frontier); `position` is updated to the bytes consumed.
    pub(crate) fn feed(
        &mut self,
        engine: &BitEngine<M>,
        chunk: &[u8],
        position: &mut usize,
    ) -> Option<HostOutcome> {
        let mut offset = 0usize;
        while offset < chunk.len() {
            if let Some(pf) = &engine.prefilter {
                if self.d == pf.state {
                    let stop = pf.find_stop(chunk, offset);
                    *position += stop - offset;
                    offset = stop;
                    if offset >= chunk.len() {
                        return None;
                    }
                }
            }
            let class = engine.class_of(chunk[offset]);
            if engine.accepts_on(self.d, class) {
                return Some(accepted_at(*position, engine.resolve_id(self.d, Some(class))));
            }
            self.d = engine.step(self.d, class);
            if self.d.is_zero() {
                return Some(REJECTED);
            }
            offset += 1;
            *position += 1;
        }
        None
    }

    pub(crate) fn finish(&self, engine: &BitEngine<M>, position: usize) -> HostOutcome {
        if engine.accepts_eoi(self.d) {
            accepted_at(position, engine.resolve_id(self.d, None))
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

    /// One random set of the shapes automata carry: a singleton, a letter
    /// range, a near-full set (a `NotMatch` constraint), empty or full.
    fn random_set(rng: &mut StdRng) -> ByteSet {
        match rng.random_range(0..5) {
            0 => ByteSet::single(rng.random_range(0..=255u8)),
            1 => {
                let lo = rng.random_range(b'A'..=b'z');
                let hi = rng.random_range(lo..=b'z');
                let mut set = ByteSet::EMPTY;
                (lo..=hi).for_each(|b| set.insert(b));
                set
            }
            2 => (0..rng.random_range(1..4))
                .fold(ByteSet::FULL, |set, _| set.without(rng.random_range(0..=255u8))),
            3 => ByteSet::EMPTY,
            _ => ByteSet::FULL,
        }
    }

    #[test]
    fn byte_classes_is_the_common_refinement_numbered_by_first_byte() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let sets: Vec<ByteSet> =
                (0..rng.random_range(0..40)).map(|_| random_set(&mut rng)).collect();
            let classes = byte_classes(sets.iter().copied());
            // Same class exactly when every set agrees: the map from a
            // byte's membership signature to its class is one-to-one.
            let mut class_of_signature = std::collections::HashMap::new();
            let mut signature_of_class = std::collections::HashMap::new();
            for b in 0..=255u8 {
                let class = classes.of[usize::from(b)];
                let signature: Vec<bool> = sets.iter().map(|s| s.contains(b)).collect();
                let seen_class = *class_of_signature.entry(signature.clone()).or_insert(class);
                assert_eq!(seen_class, class, "byte {b} splits its agreement group: {sets:?}");
                let seen = signature_of_class.entry(class).or_insert_with(|| signature.clone());
                assert_eq!(*seen, signature, "class {class} merges bytes the sets tell apart");
            }
            // Classes appear in first-byte order: scanning the bytes
            // upward, each new class is the next number.
            let mut next = 0usize;
            for b in 0..=255u8 {
                let class = usize::from(classes.of[usize::from(b)]);
                assert!(class <= next, "class {class} of byte {b} out of first-byte order");
                if class == next {
                    assert_eq!(classes.repr[class], b, "repr of class {class} is its lowest byte");
                    next += 1;
                }
            }
            assert_eq!(classes.count, next);
            assert_eq!(classes.repr.len(), next);
        }
    }
}
