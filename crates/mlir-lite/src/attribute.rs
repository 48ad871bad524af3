//! Attribute values attachable to operations.

use std::fmt;
use std::sync::Arc;

use crate::ByteSet;

/// An attribute value.
///
/// The variants cover the argument types used by the paper's two dialects
/// (Tables 3 and 4): booleans (`$hasPrefix`), 64-bit integers (quantifier
/// bounds, where `-1` encodes "unbounded"), 8-bit characters
/// (`$targetChar`) and byte sets (the `GroupOp` character bitmap).
/// Strings are provided for diagnostics and tooling. (`SplitOp`/`JumpOp`
/// targets are not attributes: a branch names its successor blocks.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Attribute {
    /// A boolean, e.g. `regex.root`'s `hasPrefix`.
    Bool(bool),
    /// A 64-bit signed integer, e.g. quantifier bounds.
    Int(i64),
    /// An 8-bit character, e.g. `match_char`'s target.
    Char(u8),
    /// A string, for diagnostics and tooling.
    Str(Arc<str>),
    /// A set of bytes, e.g. the `GroupOp` character class, printed as its
    /// 256-entry bitmap.
    ByteSet(ByteSet),
}

impl Attribute {
    /// The kind of this attribute, for verifier matching.
    pub fn kind(&self) -> crate::dialect::AttrKind {
        use crate::dialect::AttrKind;
        match self {
            Attribute::Bool(_) => AttrKind::Bool,
            Attribute::Int(_) => AttrKind::Int,
            Attribute::Char(_) => AttrKind::Char,
            Attribute::Str(_) => AttrKind::Str,
            Attribute::ByteSet(_) => AttrKind::ByteSet,
        }
    }

    /// Extract a boolean, if that is the variant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an integer, if that is the variant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract a character, if that is the variant.
    pub fn as_char(&self) -> Option<u8> {
        match self {
            Attribute::Char(c) => Some(*c),
            _ => None,
        }
    }

    /// Extract a string, if that is the variant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a byte set, if that is the variant.
    pub fn as_byte_set(&self) -> Option<ByteSet> {
        match self {
            Attribute::ByteSet(set) => Some(*set),
            _ => None,
        }
    }
}

impl From<bool> for Attribute {
    fn from(v: bool) -> Attribute {
        Attribute::Bool(v)
    }
}

impl From<i64> for Attribute {
    fn from(v: i64) -> Attribute {
        Attribute::Int(v)
    }
}

impl From<u8> for Attribute {
    fn from(v: u8) -> Attribute {
        Attribute::Char(v)
    }
}

impl From<&str> for Attribute {
    fn from(v: &str) -> Attribute {
        Attribute::Str(v.into())
    }
}

impl From<ByteSet> for Attribute {
    fn from(v: ByteSet) -> Attribute {
        Attribute::ByteSet(v)
    }
}

impl fmt::Display for Attribute {
    /// Textual form used by the IR printer:
    /// `true`, `42`, `'a'` / `'\x07'`, `"str"`, `bits"0101"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Int(i) => write!(f, "{i}"),
            Attribute::Char(c) => write!(f, "'{}'", escape_char(*c)),
            Attribute::Str(s) => write!(f, "\"{}\"", escape_str(s)),
            Attribute::ByteSet(set) => {
                let bits: String =
                    (0..=255).map(|b| if set.contains(b) { '1' } else { '0' }).collect();
                write!(f, "bits\"{bits}\"")
            }
        }
    }
}

/// Escape a byte for single-quoted character syntax.
pub(crate) fn escape_char(c: u8) -> String {
    match c {
        b'\'' => "\\'".to_owned(),
        b'\\' => "\\\\".to_owned(),
        c if c.is_ascii_graphic() || c == b' ' => (c as char).to_string(),
        c => format!("\\x{c:02x}"),
    }
}

/// Escape a string for double-quoted syntax.
pub(crate) fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(Attribute::Int(-1).as_int(), Some(-1));
        assert_eq!(Attribute::Char(b'x').as_char(), Some(b'x'));
        assert_eq!(Attribute::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(Attribute::ByteSet(ByteSet::single(3)).as_byte_set(), Some(ByteSet::single(3)));
        assert_eq!(Attribute::Bool(true).as_int(), None);
        assert_eq!(Attribute::Int(3).as_char(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Attribute::Bool(false).to_string(), "false");
        assert_eq!(Attribute::Int(-7).to_string(), "-7");
        assert_eq!(Attribute::Char(b'a').to_string(), "'a'");
        assert_eq!(Attribute::Char(0x07).to_string(), "'\\x07'");
        assert_eq!(Attribute::Char(b'\'').to_string(), "'\\''");
        assert_eq!(Attribute::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        let bits = Attribute::ByteSet(ByteSet::single(1).union(ByteSet::single(2))).to_string();
        assert_eq!(bits, format!("bits\"011{}\"", "0".repeat(253)));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Attribute::from(true), Attribute::Bool(true));
        assert_eq!(Attribute::from(3i64), Attribute::Int(3));
        assert_eq!(Attribute::from(b'z'), Attribute::Char(b'z'));
        assert_eq!(Attribute::from("s"), Attribute::Str("s".into()));
    }
}
