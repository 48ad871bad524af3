//! The regular-expression abstract syntax tree.
//!
//! The shape intentionally mirrors the `regex` dialect's operation nesting
//! (Table 3 of the paper): a root with prefix/suffix flags, alternated
//! concatenations, pieces wrapping an atom with an optional quantifier.

use std::fmt;

/// A byte range into the original pattern text, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Construct a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }
}

/// A parsed regular expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexAst {
    /// True unless the pattern starts with `^`: an implicit `.*` precedes
    /// the pattern (maps to `RootOp`'s `hasPrefix`).
    pub has_prefix: bool,
    /// True unless the pattern ends with `$`: an implicit `.*` follows the
    /// pattern (maps to `RootOp`'s `hasSuffix`).
    pub has_suffix: bool,
    /// The top-level alternation.
    pub alternation: Alternation,
}

/// One or more concatenations separated by `|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alternation {
    /// The alternatives, in source order. Never empty.
    pub alternatives: Vec<Concatenation>,
    /// Source span.
    pub span: Span,
}

/// A (possibly empty) sequence of pieces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Concatenation {
    /// The pieces, in source order.
    pub pieces: Vec<Piece>,
    /// Source span.
    pub span: Span,
}

/// An atom with an optional quantifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Piece {
    /// The quantified atom.
    pub atom: Atom,
    /// The quantifier, if present.
    pub quantifier: Option<Quantifier>,
    /// Source span.
    pub span: Span,
}

impl Piece {
    /// An unquantified piece.
    pub fn bare(atom: Atom, span: Span) -> Piece {
        Piece { atom, quantifier: None, span }
    }
}

/// Repetition bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quantifier {
    /// Minimum repetitions.
    pub min: u32,
    /// Maximum repetitions; `None` means unbounded (`*`, `+`, `{m,}`).
    pub max: Option<u32>,
}

impl Quantifier {
    /// `*` — zero or more.
    pub const STAR: Quantifier = Quantifier { min: 0, max: None };
    /// `+` — one or more.
    pub const PLUS: Quantifier = Quantifier { min: 1, max: None };
    /// `?` — zero or one.
    pub const OPT: Quantifier = Quantifier { min: 0, max: Some(1) };

    /// `{min,max}` with validation left to the parser.
    pub fn range(min: u32, max: Option<u32>) -> Quantifier {
        Quantifier { min, max }
    }

    /// Whether this is exactly `{1,1}` (equivalent to no quantifier).
    pub fn is_one(&self) -> bool {
        self.min == 1 && self.max == Some(1)
    }
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min, self.max) {
            (0, None) => write!(f, "*"),
            (1, None) => write!(f, "+"),
            (0, Some(1)) => write!(f, "?"),
            (m, None) => write!(f, "{{{m},}}"),
            (m, Some(n)) if m == n => write!(f, "{{{m}}}"),
            (m, Some(n)) => write!(f, "{{{m},{n}}}"),
        }
    }
}

/// A 256-entry character membership set (the `GroupOp` bitmap).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ClassSet {
    bits: [u64; 4],
}

impl ClassSet {
    /// The empty set.
    pub fn empty() -> ClassSet {
        ClassSet { bits: [0; 4] }
    }

    /// A set containing exactly the given bytes.
    pub fn of(bytes: &[u8]) -> ClassSet {
        let mut s = ClassSet::empty();
        for b in bytes {
            s.insert(*b);
        }
        s
    }

    /// Insert one byte.
    pub fn insert(&mut self, byte: u8) {
        self.bits[usize::from(byte >> 6)] |= 1u64 << (byte & 63);
    }

    /// Insert the inclusive range `lo..=hi`.
    pub fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    /// Membership test.
    pub fn contains(&self, byte: u8) -> bool {
        self.bits[usize::from(byte >> 6)] & (1u64 << (byte & 63)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no byte is a member.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=255u8).filter(|b| self.contains(*b))
    }

    /// The complement set.
    pub fn complement(&self) -> ClassSet {
        ClassSet { bits: [!self.bits[0], !self.bits[1], !self.bits[2], !self.bits[3]] }
    }

    /// The membership bitmap as four 64-bit words, byte `b` at bit
    /// `b % 64` of word `b / 64` (the layout of the `GroupOp` byte set).
    pub fn words(&self) -> [u64; 4] {
        self.bits
    }

    /// Build from [`ClassSet::words`]' layout.
    pub fn from_words(bits: [u64; 4]) -> ClassSet {
        ClassSet { bits }
    }
}

impl fmt::Debug for ClassSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassSet[")?;
        let mut first = true;
        for b in self.iter().take(16) {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 16 {
            write!(f, " …+{}", self.len() - 16)?;
        }
        write!(f, "]")
    }
}

/// The leaf constructs of a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// A literal byte.
    Char(u8),
    /// `.` — any byte.
    Any,
    /// A character class `[...]` / `[^...]`. `negated` is kept (rather than
    /// pre-complementing the set) because negated groups lower differently
    /// (`NotMatchCharOp` chains, §3.3).
    Class {
        /// Whether the class was written negated (`[^...]`).
        negated: bool,
        /// The (un-complemented) member set as written.
        set: ClassSet,
    },
    /// A parenthesized sub-expression (maps to `SubRegexOp`).
    Group(Box<Alternation>),
}

impl RegexAst {
    /// Render back to pattern text. Parsing the result yields an equal AST
    /// (property-tested); this powers `--emit=canonical-regex` style
    /// tooling and test shrinking.
    pub fn to_pattern(&self) -> String {
        let mut out = String::new();
        if !self.has_prefix {
            out.push('^');
        }
        write_alternation(&self.alternation, &mut out);
        if !self.has_suffix {
            out.push('$');
        }
        out
    }
}

fn write_alternation(alt: &Alternation, out: &mut String) {
    for (i, concat) in alt.alternatives.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        for piece in &concat.pieces {
            write_piece(piece, out);
        }
    }
}

fn write_piece(piece: &Piece, out: &mut String) {
    match &piece.atom {
        Atom::Char(c) => out.push_str(&escape_literal(*c)),
        Atom::Any => out.push('.'),
        Atom::Class { negated, set } => {
            out.push('[');
            if *negated {
                out.push('^');
            }
            for b in set.iter() {
                out.push_str(&escape_class_member(b));
            }
            out.push(']');
        }
        Atom::Group(alt) => {
            out.push('(');
            write_alternation(alt, out);
            out.push(')');
        }
    }
    if let Some(q) = &piece.quantifier {
        out.push_str(&q.to_string());
    }
}

/// Characters that must be escaped outside classes.
pub(crate) const METACHARS: &[u8] = b".*+?()[]{}|^$\\";

fn escape_literal(c: u8) -> String {
    if METACHARS.contains(&c) {
        format!("\\{}", c as char)
    } else if c.is_ascii_graphic() || c == b' ' {
        (c as char).to_string()
    } else {
        format!("\\x{c:02x}")
    }
}

fn escape_class_member(c: u8) -> String {
    match c {
        b']' | b'\\' | b'^' | b'-' => format!("\\{}", c as char),
        c if c.is_ascii_graphic() || c == b' ' => (c as char).to_string(),
        c => format!("\\x{c:02x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_set_basics() {
        let mut s = ClassSet::empty();
        assert!(s.is_empty());
        s.insert(b'a');
        s.insert_range(b'x', b'z');
        assert!(s.contains(b'a'));
        assert!(s.contains(b'y'));
        assert!(!s.contains(b'b'));
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![b'a', b'x', b'y', b'z']);
    }

    #[test]
    fn class_set_complement() {
        let s = ClassSet::of(b"ab");
        let c = s.complement();
        assert!(!c.contains(b'a'));
        assert!(c.contains(b'c'));
        assert_eq!(c.len(), 254);
    }

    #[test]
    fn class_set_bitmap_roundtrip() {
        let s = ClassSet::of(b"ac\xff");
        let words = s.words();
        assert_eq!(words, [0, 1 << (b'a' - 64) | 1 << (b'c' - 64), 0, 1 << 63]);
        assert_eq!(ClassSet::from_words(words), s);
    }

    #[test]
    fn quantifier_display() {
        assert_eq!(Quantifier::STAR.to_string(), "*");
        assert_eq!(Quantifier::PLUS.to_string(), "+");
        assert_eq!(Quantifier::OPT.to_string(), "?");
        assert_eq!(Quantifier::range(3, Some(6)).to_string(), "{3,6}");
        assert_eq!(Quantifier::range(4, Some(4)).to_string(), "{4}");
        assert_eq!(Quantifier::range(2, None).to_string(), "{2,}");
    }

    #[test]
    fn span_merge() {
        assert_eq!(Span::new(2, 5).merge(Span::new(4, 9)), Span::new(2, 9));
    }
}
