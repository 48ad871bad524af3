//! Operations and regions — the IR's structural core.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::attribute::Attribute;

/// A name declared once, in a `static`, by the dialect that owns it: an
/// op name such as `regex.root` or an attribute key such as `min`.
///
/// Like MLIR's context-uniqued `OperationName` and `StringAttr`, the name
/// is compared by identity, not by text: a dialect declares each name as
/// `pub static ROOT: &Ident = &Ident::new("regex.root");` and every op
/// built from it holds that one address. There is no interner table, so
/// nothing grows with the input; a text such as `target_char` shared by
/// two dialects is declared once and reused
/// ([`Context::register_dialect`](crate::Context::register_dialect)
/// refuses a second declaration at another address; the compiler may also
/// merge equal declarations into one, which is then one name).
#[derive(Debug)]
pub struct Ident(&'static str);

impl Ident {
    /// Declare a name; keep the result in a `static`.
    pub const fn new(text: &'static str) -> Ident {
        Ident(text)
    }

    /// The name's text.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// An op name or attribute key held by an op: a dialect's [`Ident`], or
/// the owned text of a name no dialect declared (the parser builds these,
/// so printed IR parses back without a context).
///
/// Two declared names are equal exactly when they are the same `static`,
/// a pointer compare; a name held as text equals any name with its text.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Declared(&'static Ident),
    Owned(Box<str>),
}

impl Name {
    /// The full text, e.g. `regex.match_char`.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Declared(ident) => ident.0,
            Repr::Owned(text) => text,
        }
    }

    /// The dialect prefix of an op name (empty if it has none).
    pub fn dialect(&self) -> &str {
        self.as_str().split_once('.').map_or("", |(dialect, _)| dialect)
    }

    /// Whether this is the declared name `ident` (for a declared name, a
    /// pointer compare).
    pub fn is(&self, ident: &Ident) -> bool {
        match &self.0 {
            Repr::Declared(declared) => std::ptr::eq(*declared, ident),
            Repr::Owned(text) => **text == *ident.0,
        }
    }
}

impl From<&'static Ident> for Name {
    fn from(ident: &'static Ident) -> Name {
        Name(Repr::Declared(ident))
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name(Repr::Owned(text.into()))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        match (&self.0, &other.0) {
            (Repr::Declared(a), Repr::Declared(b)) => std::ptr::eq(*a, *b),
            _ => self.as_str() == other.as_str(),
        }
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A region: a list of blocks, each a list of operations.
///
/// The blocks' operations are stored back to back in layout order, the
/// order a back end lays them out in memory, with the index at which each
/// block after the entry block starts. A region of one block, as every
/// `regex` region is, is therefore just its op list: `ops` is that block.
/// A branch op names the block it may transfer control to by its index in
/// the op's parent region ([`Operation::successors`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Region {
    /// The operations of every block, block after block. Pushing an op
    /// appends it to the last block.
    pub ops: Vec<Operation>,
    /// Where each block after the entry block starts in `ops`, in order.
    starts: Vec<u32>,
}

impl Region {
    /// An empty region: one empty block.
    pub fn new() -> Region {
        Region::default()
    }

    /// A region of one block holding the given operations.
    pub fn with_ops(ops: Vec<Operation>) -> Region {
        Region { ops, starts: Vec::new() }
    }

    /// A region holding the given blocks in layout order (no block at all
    /// makes one empty block).
    pub fn from_blocks(blocks: impl IntoIterator<Item = Vec<Operation>>) -> Region {
        let mut region = Region::new();
        for (index, ops) in blocks.into_iter().enumerate() {
            if index > 0 {
                region.push_block();
            }
            region.ops.extend(ops);
        }
        region
    }

    /// Number of operations in all blocks of this region.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the region holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of blocks (at least one).
    pub fn block_count(&self) -> usize {
        self.starts.len() + 1
    }

    /// Start a new, empty last block, which the ops pushed after it land
    /// in; returns its index.
    pub fn push_block(&mut self) -> u32 {
        let start = u32::try_from(self.ops.len()).expect("a region holds fewer than 2^32 ops");
        self.starts.push(start);
        self.starts.len() as u32
    }

    /// The positions in [`Region::ops`] of block `block`'s operations. The
    /// start is the block's address when the region is laid out as stored:
    /// the sum of the lengths of the blocks before it.
    ///
    /// # Panics
    ///
    /// Panics if the region has no such block.
    pub fn block_range(&self, block: usize) -> Range<usize> {
        let start = if block == 0 { 0 } else { self.starts[block - 1] as usize };
        let end = self.starts.get(block).map_or(self.ops.len(), |&end| end as usize);
        start..end
    }

    /// The operations of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if the region has no such block.
    pub fn block(&self, block: usize) -> &[Operation] {
        &self.ops[self.block_range(block)]
    }

    /// The blocks in layout order.
    pub fn blocks(&self) -> impl Iterator<Item = &[Operation]> {
        (0..self.block_count()).map(|block| self.block(block))
    }

    /// Replace the op at `index` with `ops`, in the op's block.
    pub(crate) fn splice_op(&mut self, index: usize, ops: Vec<Operation>) {
        let added = ops.len();
        drop(self.ops.splice(index..=index, ops));
        for start in self.starts.iter_mut().filter(|start| **start as usize > index) {
            *start = (*start as usize + added - 1) as u32;
        }
    }

    /// Keep of each block the number of leading ops `keep` returns for it,
    /// or drop the block where it returns `None`, and renumber the kept
    /// ops' successors to the kept blocks.
    ///
    /// # Panics
    ///
    /// Panics if every block is dropped or a kept op names a dropped block.
    pub fn retain_blocks(&mut self, mut keep: impl FnMut(usize) -> Option<usize>) {
        let blocks: Vec<(Range<usize>, Option<usize>)> = (0..self.block_count())
            .map(|block| {
                let range = self.block_range(block);
                let kept = keep(block).map(|n| n.min(range.len()));
                (range, kept)
            })
            .collect();
        self.starts.clear();
        let (mut renumbered, mut kept_blocks, mut len) = (Vec::with_capacity(blocks.len()), 0, 0);
        for (_, kept) in &blocks {
            renumbered.push(kept.map(|_| kept_blocks));
            if let Some(kept) = kept {
                if kept_blocks > 0 {
                    self.starts.push(len as u32);
                }
                kept_blocks += 1;
                len += kept;
            }
        }
        assert!(kept_blocks > 0, "a region keeps at least one block");
        let (mut index, mut block) = (0, 0);
        self.ops.retain_mut(|op| {
            while index == blocks[block].0.end {
                block += 1;
            }
            let (range, kept) = &blocks[block];
            let keep = kept.is_some_and(|kept| index - range.start < kept);
            index += 1;
            for successor in op.successors_mut().iter_mut().filter(|_| keep) {
                *successor = renumbered[*successor as usize].expect("a kept op names a kept block");
            }
            keep
        });
    }
}

/// An operation: a name, its successor block, its attributes and its
/// nested regions.
///
/// The attributes are a small vector sorted by key text, the order the
/// printer writes them in; an op carries at most a few. The successor is
/// the index of a block in the op's parent region; an op names at most
/// one, since a `cicero` branch names one block and falls through to the
/// next in layout order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    name: Name,
    successor: Option<u32>,
    attrs: Vec<(Name, Attribute)>,
    regions: Vec<Region>,
}

impl Operation {
    /// Create an operation with no successors, attributes or regions.
    pub fn new(name: impl Into<Name>) -> Operation {
        Operation { name: name.into(), successor: None, attrs: Vec::new(), regions: Vec::new() }
    }

    /// The operation name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Whether the op is named `name`: a pointer compare for an op built
    /// from a dialect's declared name.
    pub fn is(&self, name: &Ident) -> bool {
        self.name.is(name)
    }

    /// Set (or replace) an attribute. Returns `self` for chaining during
    /// construction.
    pub fn set_attr(&mut self, key: impl Into<Name>, value: impl Into<Attribute>) -> &mut Self {
        let (key, value) = (key.into(), value.into());
        match self.attrs.iter().position(|(k, _)| k.as_str() >= key.as_str()) {
            Some(i) if self.attrs[i].0 == key => self.attrs[i].1 = value,
            at => {
                // Two slots hold every op the dialects define in one allocation.
                self.attrs.reserve_exact(if self.attrs.capacity() == 0 { 2 } else { 1 });
                self.attrs.insert(at.unwrap_or(self.attrs.len()), (key, value));
            }
        }
        self
    }

    /// The block of the parent region this op may branch to, by index, if
    /// any (a slice, to iterate with the rest of a walk).
    pub fn successors(&self) -> &[u32] {
        self.successor.as_slice()
    }

    /// Mutable access to the successor, to retarget a branch.
    pub fn successors_mut(&mut self) -> &mut [u32] {
        self.successor.as_mut_slice()
    }

    /// Builder-style successor setter: the op branches to block `block`.
    pub fn with_successor(mut self, block: u32) -> Self {
        self.successor = Some(block);
        self
    }

    /// Builder-style attribute setter.
    pub fn with_attr(mut self, key: impl Into<Name>, value: impl Into<Attribute>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Builder-style region appender.
    pub fn with_region(mut self, region: Region) -> Self {
        self.push_region(region);
        self
    }

    /// Look up an attribute.
    pub fn attr(&self, key: &Ident) -> Option<&Attribute> {
        self.attrs.iter().find(|(k, _)| k.is(key)).map(|(_, v)| v)
    }

    /// Remove an attribute, returning it if present.
    pub fn take_attr(&mut self, key: &Ident) -> Option<Attribute> {
        let i = self.attrs.iter().position(|(k, _)| k.is(key))?;
        Some(self.attrs.remove(i).1)
    }

    /// The attributes, in sorted key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Attribute)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The nested regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Mutable access to the nested regions.
    pub fn regions_mut(&mut self) -> &mut [Region] {
        &mut self.regions
    }

    /// Append a region.
    pub fn push_region(&mut self, region: Region) -> &mut Self {
        self.regions.reserve_exact(1);
        self.regions.push(region);
        self
    }

    /// The single region of a one-region op.
    ///
    /// # Panics
    ///
    /// Panics if the op does not have exactly one region; callers use this
    /// for ops whose definition fixes the region count.
    pub fn only_region(&self) -> &Region {
        assert_eq!(self.regions.len(), 1, "{} must have exactly one region", self.name);
        &self.regions[0]
    }

    /// Mutable variant of [`Operation::only_region`].
    ///
    /// # Panics
    ///
    /// Panics if the op does not have exactly one region.
    pub fn only_region_mut(&mut self) -> &mut Region {
        assert_eq!(self.regions.len(), 1, "{} must have exactly one region", self.name);
        &mut self.regions[0]
    }

    /// Total number of operations in this subtree, including `self`.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .regions
            .iter()
            .flat_map(|r| r.ops.iter())
            .map(Operation::subtree_size)
            .sum::<usize>()
    }

    /// Pre-order immutable walk over the subtree rooted at `self`.
    pub fn walk<F: FnMut(&Operation)>(&self, f: &mut F) {
        f(self);
        for region in &self.regions {
            for op in &region.ops {
                op.walk(f);
            }
        }
    }

    /// Render the textual IR form (see [`crate::printer`]).
    pub fn to_text(&self) -> String {
        crate::printer::print_op(self)
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static QUANTIFIER: &Ident = &Ident::new("regex.quantifier");
    static MIN: &Ident = &Ident::new("min");
    static MAX: &Ident = &Ident::new("max");

    #[test]
    fn declared_names_compare_by_identity_and_owned_ones_by_text() {
        // A second declaration with the same text at its own address.
        let lookalike: &'static Ident = Box::leak(Box::new(Ident::new("regex.quantifier")));
        let declared = Name::from(QUANTIFIER);
        assert_eq!(declared.dialect(), "regex");
        assert!(declared.is(QUANTIFIER) && !declared.is(lookalike));
        let owned = Name::from("regex.quantifier");
        assert!(owned.is(QUANTIFIER) && owned.is(lookalike));
        assert_eq!(owned, declared);
        assert_ne!(declared, Name::from(lookalike));
        assert_eq!(Name::from("orphan").dialect(), "");
    }

    #[test]
    fn builder_chain() {
        let op = Operation::new(QUANTIFIER)
            .with_attr(MIN, 1i64)
            .with_attr(MAX, -1i64)
            .with_region(Region::new());
        assert!(op.is(QUANTIFIER));
        assert_eq!(op.attr(MIN).and_then(Attribute::as_int), Some(1));
        assert_eq!(op.attr(MAX).and_then(Attribute::as_int), Some(-1));
        assert_eq!(op.regions().len(), 1);
    }

    #[test]
    fn attributes_stay_sorted_by_key_text_and_replace_in_place() {
        let mut op = Operation::new("t.x").with_attr(MIN, 1i64).with_attr("b", 2i64);
        op.set_attr(MAX, 3i64).set_attr("min", 4i64);
        let keys: Vec<(&str, i64)> = op.attrs().map(|(k, v)| (k, v.as_int().unwrap())).collect();
        assert_eq!(keys, vec![("b", 2), ("max", 3), ("min", 4)]);
        assert_eq!(op.take_attr(MIN), Some(Attribute::Int(4)));
        assert_eq!(op.attrs().count(), 2);
    }

    #[test]
    fn subtree_size_counts_nested_ops() {
        let leaf = Operation::new("regex.match_any_char");
        let piece = Operation::new("regex.piece")
            .with_region(Region::with_ops(vec![leaf.clone(), leaf.clone()]));
        let root = Operation::new("regex.root").with_region(Region::with_ops(vec![piece]));
        assert_eq!(root.subtree_size(), 4);
    }

    #[test]
    fn walk_visits_pre_order() {
        let leaf = Operation::new("t.leaf");
        let root = Operation::new("t.root").with_region(Region::with_ops(vec![leaf]));
        let mut names = Vec::new();
        root.walk(&mut |op| names.push(op.name().as_str().to_owned()));
        assert_eq!(names, vec!["t.root", "t.leaf"]);
    }

    fn leaf(n: i64) -> Operation {
        Operation::new("t.leaf").with_attr(MIN, n)
    }

    #[test]
    fn blocks_are_ranges_of_the_layout() {
        let mut region = Region::with_ops(vec![leaf(0)]);
        assert_eq!(region.push_block(), 1);
        assert_eq!(region.push_block(), 2);
        region.ops.push(leaf(1));
        assert_eq!(region.block_count(), 3);
        assert_eq!(region.block_range(0), 0..1);
        assert!(region.block(1).is_empty());
        assert_eq!(region.block(2), &[leaf(1)]);
        assert_eq!(region, Region::from_blocks([vec![leaf(0)], vec![], vec![leaf(1)]]));
        assert_ne!(region, Region::with_ops(vec![leaf(0), leaf(1)]));
    }

    #[test]
    fn retain_blocks_keeps_prefixes_and_renumbers_successors() {
        let br = |block| Operation::new("t.br").with_successor(block);
        let mut region = Region::from_blocks([
            vec![br(3), leaf(0)],
            vec![leaf(1)],
            vec![],
            vec![leaf(2), br(0), leaf(3)],
        ]);
        region.retain_blocks(|block| match block {
            0 | 3 => Some(2),
            2 => Some(0),
            _ => None,
        });
        let br = |block| Operation::new("t.br").with_successor(block);
        assert_eq!(
            region,
            Region::from_blocks([vec![br(2), leaf(0)], vec![], vec![leaf(2), br(0)]])
        );
    }

    #[test]
    #[should_panic(expected = "a kept op names a kept block")]
    fn retain_blocks_refuses_a_dangling_successor() {
        let mut region =
            Region::from_blocks([vec![Operation::new("t.br").with_successor(1)], vec![]]);
        region.retain_blocks(|block| (block == 0).then_some(1));
    }

    #[test]
    #[should_panic(expected = "exactly one region")]
    fn only_region_guards_arity() {
        let op = Operation::new("t.noregions");
        let _ = op.only_region();
    }
}
