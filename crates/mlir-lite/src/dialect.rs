//! Dialect definitions, the context/registry, and IR verification.

use std::collections::BTreeMap;
use std::fmt;

use crate::op::{Ident, Operation};

/// The kind of an attribute, for declarative verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// [`Attribute::Bool`](crate::Attribute::Bool).
    Bool,
    /// [`Attribute::Int`](crate::Attribute::Int).
    Int,
    /// [`Attribute::Char`](crate::Attribute::Char).
    Char,
    /// [`Attribute::Str`](crate::Attribute::Str).
    Str,
    /// [`Attribute::ByteSet`](crate::Attribute::ByteSet).
    ByteSet,
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrKind::Bool => "bool",
            AttrKind::Int => "int",
            AttrKind::Char => "char",
            AttrKind::Str => "str",
            AttrKind::ByteSet => "byte set",
        };
        f.write_str(s)
    }
}

/// Declarative specification of one attribute of an op.
#[derive(Debug, Clone)]
pub struct AttrSpec {
    /// Attribute key, e.g. `target_char`.
    pub name: &'static Ident,
    /// Required value kind.
    pub kind: AttrKind,
    /// Whether the attribute must be present.
    pub required: bool,
}

impl AttrSpec {
    /// A required attribute.
    pub const fn required(name: &'static Ident, kind: AttrKind) -> AttrSpec {
        AttrSpec { name, kind, required: true }
    }

    /// An optional attribute.
    pub const fn optional(name: &'static Ident, kind: AttrKind) -> AttrSpec {
        AttrSpec { name, kind, required: false }
    }
}

/// Per-op structural verifier hook: receives the op after the declarative
/// checks pass, returning a description of the violation if any.
pub type OpVerifier = fn(&Operation) -> Result<(), String>;

/// Definition of one operation within a dialect.
#[derive(Debug, Clone)]
pub struct OpDefinition {
    /// The full op name, e.g. `regex.root`.
    pub name: &'static Ident,
    /// Declarative attribute specs. Attributes not listed here are rejected.
    pub attrs: Vec<AttrSpec>,
    /// Number of regions.
    pub regions: usize,
    /// Number of successor blocks (see [`Operation::successors`]).
    pub successors: usize,
    /// Optional extra structural verifier.
    pub verifier: Option<OpVerifier>,
}

impl OpDefinition {
    /// A definition with no attributes or successors, fixed region count
    /// and no custom verifier.
    pub fn simple(name: &'static Ident, regions: usize) -> OpDefinition {
        OpDefinition { name, attrs: Vec::new(), regions, successors: 0, verifier: None }
    }
}

/// A dialect: a namespace of op definitions.
#[derive(Debug, Clone)]
pub struct Dialect {
    name: &'static str,
    ops: BTreeMap<&'static str, OpDefinition>,
}

impl Dialect {
    /// Create an empty dialect with the given namespace.
    pub fn new(name: &'static str) -> Dialect {
        Dialect { name, ops: BTreeMap::new() }
    }

    /// The dialect namespace, e.g. `regex`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Register an op definition.
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration — dialect construction is static,
    /// so a duplicate is a programming error.
    pub fn register_op(&mut self, def: OpDefinition) -> &mut Self {
        let prev = self.ops.insert(def.name.as_str(), def);
        assert!(prev.is_none(), "duplicate op registration in dialect `{}`", self.name);
        self
    }

    /// Look up an op definition by its full name.
    pub fn op(&self, name: &str) -> Option<&OpDefinition> {
        self.ops.get(name)
    }

    /// Iterate over all op definitions.
    pub fn ops(&self) -> impl Iterator<Item = &OpDefinition> {
        self.ops.values()
    }
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Path of op names from the root to the offending op (the last).
    pub path: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed at {}: {}", self.path.join(" > "), self.message)
    }
}

impl std::error::Error for VerifyError {}

/// The compilation context: a registry of dialects.
///
/// Mirrors `mlir::MLIRContext` in spirit — it owns dialect definitions and
/// provides whole-tree [verification](Context::verify). Names are uniqued
/// by the dialects' `static` [`Ident`]s, not by a table here.
#[derive(Debug, Clone, Default)]
pub struct Context {
    dialects: BTreeMap<&'static str, Dialect>,
    /// Every op name and attribute key the dialects declare, by text.
    idents: BTreeMap<&'static str, &'static Ident>,
}

impl Context {
    /// An empty context with no registered dialects.
    pub fn new() -> Context {
        Context::default()
    }

    /// Register a dialect.
    ///
    /// # Panics
    ///
    /// Panics if a dialect with the same namespace is already registered,
    /// or if it declares a name whose text another declared [`Ident`]
    /// already has (the two would compare unequal).
    pub fn register_dialect(&mut self, dialect: Dialect) -> &mut Self {
        let name = dialect.name();
        let keys = dialect.ops().flat_map(|def| def.attrs.iter().map(|spec| spec.name));
        for ident in dialect.ops().map(|def| def.name).chain(keys) {
            let seen = *self.idents.entry(ident.as_str()).or_insert(ident);
            assert!(std::ptr::eq(seen, ident), "`{}` is declared twice", ident.as_str());
        }
        let prev = self.dialects.insert(name, dialect);
        assert!(prev.is_none(), "dialect `{name}` registered twice");
        self
    }

    /// Verify the op tree rooted at `root` against the registered dialects.
    ///
    /// Checks, for each op: the dialect is registered, the op is defined,
    /// required attributes are present with the right kinds, no undeclared
    /// attributes exist, the region and successor arities match, every
    /// successor names a block of the op's parent region, and the op's
    /// custom verifier (if any) passes.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found in pre-order.
    pub fn verify(&self, root: &Operation) -> Result<(), VerifyError> {
        let mut path = Vec::new();
        // The root has no parent region, so no block to branch to.
        self.verify_rec(root, 0, &mut path)
    }

    /// Verify `op`, whose parent region has `blocks` blocks, and its
    /// subtree.
    fn verify_rec(
        &self,
        op: &Operation,
        blocks: usize,
        path: &mut Vec<String>,
    ) -> Result<(), VerifyError> {
        path.push(op.name().as_str().to_owned());
        let fail = |message: String, path: &[String]| VerifyError { path: path.to_vec(), message };
        let dialect = self.dialects.get(op.name().dialect()).ok_or_else(|| {
            fail(format!("dialect `{}` is not registered", op.name().dialect()), path)
        })?;
        let def = dialect.op(op.name().as_str()).ok_or_else(|| {
            let message =
                format!("op `{}` is not defined in dialect `{}`", op.name(), dialect.name());
            fail(message, path)
        })?;
        self.verify_against(op, def, blocks, path)?;
        for region in op.regions() {
            for child in &region.ops {
                self.verify_rec(child, region.block_count(), path)?;
            }
        }
        path.pop();
        Ok(())
    }

    fn verify_against(
        &self,
        op: &Operation,
        def: &OpDefinition,
        blocks: usize,
        path: &[String],
    ) -> Result<(), VerifyError> {
        let fail = |message: String| VerifyError { path: path.to_vec(), message };
        for spec in &def.attrs {
            match op.attr(spec.name) {
                Some(value) if value.kind() != spec.kind => {
                    return Err(fail(format!(
                        "attribute `{}` has kind {}, expected {}",
                        spec.name.as_str(),
                        value.kind(),
                        spec.kind
                    )));
                }
                None if spec.required => {
                    let key = spec.name.as_str();
                    return Err(fail(format!("missing required attribute `{key}`")));
                }
                _ => {}
            }
        }
        for (key, _) in op.attrs() {
            if !def.attrs.iter().any(|s| s.name.as_str() == key) {
                return Err(fail(format!("undeclared attribute `{key}`")));
            }
        }
        if op.regions().len() != def.regions {
            let (n, found) = (def.regions, op.regions().len());
            return Err(fail(format!("expected {n} region(s), found {found}")));
        }
        if op.successors().len() != def.successors {
            let (n, found) = (def.successors, op.successors().len());
            return Err(fail(format!("expected {n} successor(s), found {found}")));
        }
        if let Some(block) = op.successors().iter().find(|&&block| block as usize >= blocks) {
            return Err(fail(format!(
                "successor ^bb{block} is out of range: the parent region has {blocks} block(s)"
            )));
        }
        if let Some(verifier) = def.verifier {
            verifier(op).map_err(fail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Region;
    use crate::Attribute;

    static LEAF: &Ident = &Ident::new("t.leaf");
    static WRAP: &Ident = &Ident::new("t.wrap");
    static VALUE: &Ident = &Ident::new("value");
    static BR: &Ident = &Ident::new("t.br");

    fn test_dialect() -> Dialect {
        static LABEL: &Ident = &Ident::new("label");
        let mut d = Dialect::new("t");
        d.register_op(OpDefinition {
            name: LEAF,
            attrs: vec![
                AttrSpec::required(VALUE, AttrKind::Int),
                AttrSpec::optional(LABEL, AttrKind::Str),
            ],
            regions: 0,
            successors: 0,
            verifier: Some(|op| {
                let v = op.attr(VALUE).and_then(Attribute::as_int).unwrap();
                if v < 0 {
                    Err("value must be non-negative".to_owned())
                } else {
                    Ok(())
                }
            }),
        });
        d.register_op(OpDefinition::simple(WRAP, 1));
        d.register_op(OpDefinition { successors: 1, ..OpDefinition::simple(BR, 0) });
        d
    }

    fn ctx() -> Context {
        let mut c = Context::new();
        c.register_dialect(test_dialect());
        c
    }

    fn leaf(v: i64) -> Operation {
        Operation::new(LEAF).with_attr(VALUE, v)
    }

    #[test]
    #[should_panic(expected = "`value` is declared twice")]
    fn a_second_declaration_of_a_name_is_refused() {
        // The same text declared again, at its own address.
        let also_value: &'static Ident = Box::leak(Box::new(Ident::new("value")));
        let mut other = Dialect::new("u");
        let spec = AttrSpec::required(also_value, AttrKind::Int);
        static U_OP: &Ident = &Ident::new("u.op");
        other.register_op(OpDefinition { attrs: vec![spec], ..OpDefinition::simple(U_OP, 0) });
        ctx().register_dialect(other);
    }

    #[test]
    fn well_formed_tree_verifies() {
        let tree = Operation::new("t.wrap").with_region(Region::with_ops(vec![leaf(1)]));
        ctx().verify(&tree).unwrap();
    }

    #[test]
    fn missing_required_attr_fails() {
        let op = Operation::new("t.leaf");
        let err = ctx().verify(&op).unwrap_err();
        assert!(err.message.contains("missing required attribute `value`"), "{err}");
    }

    #[test]
    fn wrong_attr_kind_fails() {
        let op = Operation::new("t.leaf").with_attr("value", "oops");
        let err = ctx().verify(&op).unwrap_err();
        assert!(err.message.contains("has kind str, expected int"), "{err}");
    }

    #[test]
    fn undeclared_attr_fails() {
        let op = leaf(0).with_attr("extra", true);
        let err = ctx().verify(&op).unwrap_err();
        assert!(err.message.contains("undeclared attribute `extra`"), "{err}");
    }

    #[test]
    fn region_arity_checked() {
        let op = Operation::new("t.wrap");
        let err = ctx().verify(&op).unwrap_err();
        assert!(err.message.contains("expected 1 region(s), found 0"), "{err}");
    }

    #[test]
    fn custom_verifier_runs() {
        let err = ctx().verify(&leaf(-3)).unwrap_err();
        assert!(err.message.contains("non-negative"), "{err}");
    }

    #[test]
    fn unknown_op_fails() {
        let err = ctx().verify(&Operation::new("t.mystery")).unwrap_err();
        assert!(err.message.contains("not defined in dialect"), "{err}");
    }

    #[test]
    fn unregistered_dialect_fails() {
        let err = ctx().verify(&Operation::new("other.thing")).unwrap_err();
        assert!(err.message.contains("dialect `other` is not registered"), "{err}");
    }

    #[test]
    fn error_path_names_nesting() {
        let tree = Operation::new("t.wrap").with_region(Region::with_ops(vec![leaf(-1)]));
        let err = ctx().verify(&tree).unwrap_err();
        assert_eq!(err.path, vec!["t.wrap".to_owned(), "t.leaf".to_owned()]);
    }

    #[test]
    fn successors_name_blocks_of_the_parent_region() {
        let region = Region::from_blocks([vec![Operation::new(BR).with_successor(1)], vec![]]);
        ctx().verify(&Operation::new(WRAP).with_region(region)).unwrap();
        let region = Region::from_blocks([vec![Operation::new(BR).with_successor(2)], vec![]]);
        let err = ctx().verify(&Operation::new(WRAP).with_region(region)).unwrap_err();
        assert!(err.message.contains("successor ^bb2 is out of range"), "{err}");
        let err = ctx().verify(&Operation::new(BR).with_successor(0)).unwrap_err();
        assert!(err.message.contains("parent region has 0 block(s)"), "{err}");
    }

    #[test]
    fn successor_arity_checked() {
        let region = Region::with_ops(vec![Operation::new(BR)]);
        let err = ctx().verify(&Operation::new(WRAP).with_region(region)).unwrap_err();
        assert!(err.message.contains("expected 1 successor(s), found 0"), "{err}");
        let err = ctx().verify(&leaf(1).with_successor(0)).unwrap_err();
        assert!(err.message.contains("expected 0 successor(s), found 1"), "{err}");
    }
}
