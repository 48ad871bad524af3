//! The 256-bit byte set (`mlir_lite::ByteSet`, the type the `regex`
//! dialect's character classes carry) as the predicate alphabet of the
//! epsilon-free NFA.
//!
//! Every consuming transition of the lowered automaton carries one of
//! these as its byte predicate, and every mid-input acceptance carries one
//! as the set of current bytes under which it may fire (`NotMatch` guards
//! narrow it below the full alphabet). The set is `Copy`, `Eq`, and
//! `Hash` because it is part of the identity of a lowered state: two
//! paths reaching the same PC under different `NotMatch` constraints must
//! stay distinct states or the bit-parallel step would over-approximate.
//!
//! [`byte_classes`] partitions the alphabet by those sets: bytes that no
//! predicate or arm tells apart share a class, and the engine's entry and
//! acceptance masks are indexed by class.

pub use mlir_lite::ByteSet;

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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// One random set of the shapes automata carry: a singleton, a letter
    /// range, a near-full set (a `NotMatch` constraint), empty or full.
    pub(crate) fn random_set(rng: &mut StdRng) -> ByteSet {
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
        let bc = ByteSet::single(b'b').union(ByteSet::single(b'c'));
        assert_eq!(ab.intersection(bc), ByteSet::single(b'b'));
        assert_eq!(ab.difference(bc), ByteSet::single(b'a'));
    }
}
