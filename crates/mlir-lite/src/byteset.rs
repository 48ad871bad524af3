//! A 256-bit byte set: the frontend's character class, the `regex.group`
//! byte set carried as an [`Attribute::ByteSet`](crate::Attribute::ByteSet),
//! and the byte predicate of the host engine's automaton
//! (`regex-frontend` and `cicero-hostexec` use this type, so there is one
//! definition).

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

    /// Add every byte in `lo..=hi` to the set.
    pub fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
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

#[cfg(test)]
mod tests {
    use super::ByteSet;

    #[test]
    fn ranges_land_in_the_word_layout() {
        let mut set = ByteSet::single(b'a');
        set.insert_range(b'x', b'z');
        set.insert_range(0xff, 0xff);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![b'a', b'x', b'y', b'z', 0xff]);
        // Byte `b` is bit `b % 64` of word `b / 64`.
        let letters = 1 << (b'a' - 64) | 0b111 << (b'x' - 64);
        assert_eq!(set, ByteSet([0, letters, 0, 1 << 63]));
        assert_eq!(ByteSet::FULL.difference(set).len(), 251);
    }
}
