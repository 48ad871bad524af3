//! A 256-bit byte set: the `regex.group` character class, carried as an
//! [`Attribute::ByteSet`](crate::Attribute::ByteSet), and the byte
//! predicate of the host engine's automaton (`cicero-hostexec` uses this
//! type, so there is one definition).

/// A set of byte values, stored as four 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSet(pub [u64; 4]);

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
    #[inline]
    pub fn insert(&mut self, b: u8) {
        self.0[usize::from(b >> 6)] |= 1u64 << (b & 63);
    }

    /// The set without `b`.
    #[inline]
    #[must_use]
    pub fn without(mut self, b: u8) -> ByteSet {
        self.0[usize::from(b >> 6)] &= !(1u64 << (b & 63));
        self
    }

    /// Whether `b` is a member.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.0[usize::from(b >> 6)] & (1u64 << (b & 63)) != 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Whether the set contains every byte value.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.0 == [u64::MAX; 4]
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub fn union(mut self, other: ByteSet) -> ByteSet {
        for (word, other) in self.0.iter_mut().zip(other.0) {
            *word |= other;
        }
        self
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub fn intersection(mut self, other: ByteSet) -> ByteSet {
        for (word, other) in self.0.iter_mut().zip(other.0) {
            *word &= other;
        }
        self
    }

    /// The members of `self` not in `other`.
    #[inline]
    #[must_use]
    pub fn difference(mut self, other: ByteSet) -> ByteSet {
        for (word, other) in self.0.iter_mut().zip(other.0) {
            *word &= !other;
        }
        self
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256).map(|b| b as u8).filter(|&b| self.contains(b))
    }
}
