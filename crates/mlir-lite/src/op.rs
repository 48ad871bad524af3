//! Operations and regions — the IR's structural core.

use std::fmt;
use std::hash::{Hash, Hasher};

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

/// A single-block region: an ordered list of operations.
///
/// Full MLIR regions hold CFG block lists; the two dialects in this project
/// are structural (see the crate docs), so a region is just a sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Region {
    /// The operations in program order.
    pub ops: Vec<Operation>,
}

impl Region {
    /// An empty region.
    pub fn new() -> Region {
        Region::default()
    }

    /// A region holding the given operations.
    pub fn with_ops(ops: Vec<Operation>) -> Region {
        Region { ops }
    }

    /// Number of operations directly in this region.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the region holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// An operation: a name, its attributes and nested regions.
///
/// The attributes are a small vector sorted by key text, the order the
/// printer writes them in; an op carries at most a few.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation {
    name: Name,
    attrs: Vec<(Name, Attribute)>,
    regions: Vec<Region>,
}

impl Operation {
    /// Create an operation with no attributes or regions.
    pub fn new(name: impl Into<Name>) -> Operation {
        Operation { name: name.into(), attrs: Vec::new(), regions: Vec::new() }
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

    #[test]
    #[should_panic(expected = "exactly one region")]
    fn only_region_guards_arity() {
        let op = Operation::new("t.noregions");
        let _ = op.only_region();
    }
}
