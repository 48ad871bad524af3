//! A 256-bit byte set — the predicate alphabet of the epsilon-free NFA.
//!
//! Every consuming transition of the lowered automaton carries one of
//! these as its byte predicate, and every mid-input acceptance carries one
//! as the set of current bytes under which it may fire (`NotMatch` guards
//! narrow it below the full alphabet). The set is `Copy`, `Eq`, and
//! `Hash` because it is part of the identity of a lowered state: two
//! paths reaching the same PC under different `NotMatch` constraints must
//! stay distinct states or the bit-parallel step would over-approximate.

/// A set of byte values, stored as four 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSet([u64; 4]);

impl ByteSet {
    /// The empty set.
    pub const EMPTY: ByteSet = ByteSet([0; 4]);
    /// All 256 byte values.
    pub const FULL: ByteSet = ByteSet([u64::MAX; 4]);

    /// The singleton `{b}`.
    pub fn single(b: u8) -> ByteSet {
        let mut set = ByteSet::EMPTY;
        set.insert(b);
        set
    }

    /// Add `b` to the set.
    pub fn insert(&mut self, b: u8) {
        self.0[usize::from(b >> 6)] |= 1u64 << (b & 63);
    }

    /// The set without `b`.
    #[must_use]
    pub fn without(mut self, b: u8) -> ByteSet {
        self.0[usize::from(b >> 6)] &= !(1u64 << (b & 63));
        self
    }

    /// Whether `b` is a member.
    pub fn contains(&self, b: u8) -> bool {
        self.0[usize::from(b >> 6)] & (1u64 << (b & 63)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Whether the set contains every byte value.
    pub fn is_full(&self) -> bool {
        self.0 == [u64::MAX; 4]
    }

    /// Set union.
    #[must_use]
    pub fn union(mut self, other: ByteSet) -> ByteSet {
        for (word, other) in self.0.iter_mut().zip(other.0) {
            *word |= other;
        }
        self
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256).map(|b| b as u8).filter(|&b| self.contains(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_and_cardinality() {
        let mut set = ByteSet::EMPTY;
        assert!(set.is_empty() && !set.is_full());
        set.insert(0);
        set.insert(63);
        set.insert(64);
        set.insert(255);
        assert_eq!(set.len(), 4);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 255]);
        assert!(set.contains(64) && !set.contains(65));
        assert_eq!(set.without(64).len(), 3);
    }

    #[test]
    fn full_without_one_byte_is_the_notmatch_constraint() {
        let set = ByteSet::FULL.without(b'a');
        assert!(!set.is_full() && !set.is_empty());
        assert_eq!(set.len(), 255);
        assert!(!set.contains(b'a') && set.contains(b'b'));
        // Removing the same byte twice is idempotent, so a chain of
        // identical NotMatch guards maps to one constraint (and one state).
        assert_eq!(set.without(b'a'), set);
    }

    #[test]
    fn union_and_single() {
        let ab = ByteSet::single(b'a').union(ByteSet::single(b'b'));
        assert_eq!(ab.len(), 2);
        assert!(ab.contains(b'a') && ab.contains(b'b'));
    }
}
