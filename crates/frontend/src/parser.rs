//! Recursive-descent parser for the supported regex grammar.

use std::fmt;

use mlir_lite::ByteSet;

use crate::ast::{Alternation, Atom, Concatenation, Piece, Quantifier, RegexAst, Span};

/// Upper bound on counted-repetition bounds, guarding against quantifier
/// explosion in instruction memory (programs are capped at 8192 entries).
pub const MAX_REPEAT: u32 = 1024;

/// Upper bound on group nesting. The parser and every pass after it walk
/// a group's body by recursion, so the bound keeps the deepest admitted
/// pattern compiling on a 2 MiB thread stack (Rust's default for a
/// spawned thread) even in an unoptimized build, instead of overflowing
/// it, which aborts the whole process.
pub const MAX_GROUP_NESTING: usize = 250;

/// A parse failure with the offending source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegexError {
    /// Offending span in the pattern text.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseRegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}..{}: {}", self.span.start, self.span.end, self.message)
    }
}

impl std::error::Error for ParseRegexError {}

/// Parse a pattern into a [`RegexAst`].
///
/// # Errors
///
/// Returns [`ParseRegexError`] for empty patterns, malformed constructs,
/// unsupported operators (`^`/`$` anywhere but the pattern boundaries,
/// back-references, lazy quantifiers…), quantifier bounds above
/// [`MAX_REPEAT`] and groups nested deeper than [`MAX_GROUP_NESTING`].
pub fn parse(pattern: &str) -> Result<RegexAst, ParseRegexError> {
    let mut p = Parser { src: pattern.as_bytes(), pos: 0 };
    if p.src.is_empty() {
        return Err(p.err_here("empty pattern"));
    }
    let has_prefix = if p.peek() == Some(b'^') {
        p.pos += 1;
        false
    } else {
        true
    };
    let alternation = p.parse_alternation(0)?;
    let has_suffix = if p.peek() == Some(b'$') {
        p.pos += 1;
        false
    } else {
        true
    };
    if p.pos < p.src.len() {
        return Err(p.err_here(match p.peek() {
            Some(b')') => "unmatched `)`".to_owned(),
            Some(b'$') => "`$` is only supported at the end of the pattern".to_owned(),
            Some(c) => format!("unexpected `{}`", c as char),
            None => unreachable!(),
        }));
    }
    if alternation.alternatives.iter().all(|c| c.pieces.is_empty()) {
        return Err(ParseRegexError {
            span: Span::new(0, p.src.len()),
            message: "pattern matches only the empty string".to_owned(),
        });
    }
    Ok(RegexAst { has_prefix, has_suffix, alternation })
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn err_here(&self, message: impl Into<String>) -> ParseRegexError {
        ParseRegexError {
            span: Span::new(self.pos, (self.pos + 1).min(self.src.len().max(self.pos + 1))),
            message: message.into(),
        }
    }

    fn err_span(&self, start: usize, message: impl Into<String>) -> ParseRegexError {
        ParseRegexError { span: Span::new(start, self.pos), message: message.into() }
    }

    /// `depth` tracks group nesting: `|` and `)` terminate differently at
    /// the top level versus inside a group.
    fn parse_alternation(&mut self, depth: usize) -> Result<Alternation, ParseRegexError> {
        let start = self.pos;
        let mut alternatives = vec![self.parse_concatenation(depth)?];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            alternatives.push(self.parse_concatenation(depth)?);
        }
        Ok(Alternation { alternatives, span: Span::new(start, self.pos) })
    }

    fn parse_concatenation(&mut self, depth: usize) -> Result<Concatenation, ParseRegexError> {
        let start = self.pos;
        let mut pieces = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') => break,
                Some(b')') if depth > 0 => break,
                Some(b')') => return Err(self.err_here("unmatched `)`")),
                // `$` terminates the pattern; only valid at the very end,
                // which `parse` checks after the top-level alternation.
                Some(b'$') if depth == 0 => break,
                Some(b'$') => return Err(self.err_here("`$` inside a group is not supported")),
                Some(b'^') => {
                    return Err(self.err_here("`^` is only supported at the start of the pattern"))
                }
                _ => pieces.push(self.parse_piece(depth)?),
            }
        }
        Ok(Concatenation { pieces, span: Span::new(start, self.pos) })
    }

    fn parse_piece(&mut self, depth: usize) -> Result<Piece, ParseRegexError> {
        let start = self.pos;
        let atom = self.parse_atom(depth)?;
        let quantifier = self.parse_quantifier()?;
        Ok(Piece { atom, quantifier, span: Span::new(start, self.pos) })
    }

    fn parse_atom(&mut self, depth: usize) -> Result<Atom, ParseRegexError> {
        let start = self.pos;
        match self.peek() {
            Some(b'.') => {
                self.pos += 1;
                Ok(Atom::Any)
            }
            Some(b'(') if depth == MAX_GROUP_NESTING => {
                Err(self.err_here(format!("groups nest deeper than {MAX_GROUP_NESTING} levels")))
            }
            Some(b'(') => {
                self.pos += 1;
                let inner = self.parse_alternation(depth + 1)?;
                if self.peek() != Some(b')') {
                    return Err(self.err_span(start, "unclosed `(`"));
                }
                self.pos += 1;
                if inner.alternatives.iter().all(|c| c.pieces.is_empty()) {
                    return Err(self.err_span(start, "group matches only the empty string"));
                }
                Ok(Atom::Group(Box::new(inner)))
            }
            Some(b'[') => self.parse_class(),
            Some(b'\\') => {
                let (set, single) = self.parse_escape(false)?;
                match single {
                    Some(c) => Ok(Atom::Char(c)),
                    None => Ok(Atom::Class { negated: false, set }),
                }
            }
            Some(c) if b"*+?{".contains(&c) => {
                Err(self.err_here(format!("quantifier `{}` has nothing to repeat", c as char)))
            }
            Some(c) => {
                self.pos += 1;
                Ok(Atom::Char(c))
            }
            None => Err(self.err_here("expected an atom")),
        }
    }

    /// Parse an escape sequence starting at `\`. Returns either a single
    /// byte or a character-class set (for `\d`-style sugar). `in_class`
    /// rejects the class sugar inside `[...]` nests where the original
    /// grammar does not allow it.
    fn parse_escape(&mut self, in_class: bool) -> Result<(ByteSet, Option<u8>), ParseRegexError> {
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some(b'\\'));
        self.pos += 1;
        let c = self.peek().ok_or_else(|| self.err_span(start, "dangling `\\`"))?;
        self.pos += 1;
        let single = |c: u8| Ok((ByteSet::EMPTY, Some(c)));
        match c {
            b'n' => single(b'\n'),
            b't' => single(b'\t'),
            b'r' => single(b'\r'),
            b'0' => single(0),
            b'x' => {
                let hi = self.peek().ok_or_else(|| self.err_span(start, "truncated \\x"))?;
                self.pos += 1;
                let lo = self.peek().ok_or_else(|| self.err_span(start, "truncated \\x"))?;
                self.pos += 1;
                let hex = [hi, lo];
                let value = std::str::from_utf8(&hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err_span(start, "invalid \\x escape"))?;
                single(value)
            }
            b'd' | b'D' | b'w' | b'W' | b's' | b'S' => {
                if in_class {
                    return Err(
                        self.err_span(start, "perl classes are not supported inside `[...]`")
                    );
                }
                let mut set = ByteSet::EMPTY;
                match c.to_ascii_lowercase() {
                    b'd' => set.insert_range(b'0', b'9'),
                    b'w' => {
                        set.insert_range(b'0', b'9');
                        set.insert_range(b'a', b'z');
                        set.insert_range(b'A', b'Z');
                        set.insert(b'_');
                    }
                    _ => {
                        for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
                            set.insert(b);
                        }
                    }
                }
                if c.is_ascii_uppercase() {
                    set = ByteSet::FULL.difference(set);
                }
                Ok((set, None))
            }
            c if c.is_ascii_alphanumeric() => {
                Err(self.err_span(start, format!("unsupported escape `\\{}`", c as char)))
            }
            c => single(c),
        }
    }

    fn parse_class(&mut self) -> Result<Atom, ParseRegexError> {
        let start = self.pos;
        debug_assert_eq!(self.peek(), Some(b'['));
        self.pos += 1;
        let negated = if self.peek() == Some(b'^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut set = ByteSet::EMPTY;
        loop {
            let item_start = self.pos;
            let lo = match self.peek() {
                None => return Err(self.err_span(start, "unclosed `[`")),
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    let (_, single) = self.parse_escape(true)?;
                    single.ok_or_else(|| self.err_span(item_start, "expected a character"))?
                }
                Some(c) => {
                    self.pos += 1;
                    c
                }
            };
            // Range `lo-hi` (a trailing `-` right before `]` is literal).
            if self.peek() == Some(b'-') && self.src.get(self.pos + 1) != Some(&b']') {
                self.pos += 1;
                let hi = match self.peek() {
                    None => return Err(self.err_span(start, "unclosed `[`")),
                    Some(b'\\') => {
                        let (_, single) = self.parse_escape(true)?;
                        single.ok_or_else(|| self.err_span(item_start, "expected a character"))?
                    }
                    Some(c) => {
                        self.pos += 1;
                        c
                    }
                };
                if lo > hi {
                    return Err(self.err_span(
                        item_start,
                        format!("reversed range `{}-{}`", lo as char, hi as char),
                    ));
                }
                set.insert_range(lo, hi);
            } else {
                set.insert(lo);
            }
        }
        if set.is_empty() {
            return Err(self.err_span(start, "empty character class"));
        }
        Ok(Atom::Class { negated, set })
    }

    fn parse_quantifier(&mut self) -> Result<Option<Quantifier>, ParseRegexError> {
        let q = match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                Quantifier::STAR
            }
            Some(b'+') => {
                self.pos += 1;
                Quantifier::PLUS
            }
            Some(b'?') => {
                self.pos += 1;
                Quantifier::OPT
            }
            Some(b'{') => {
                let start = self.pos;
                self.pos += 1;
                let min = self.parse_int(start)?;
                let max = if self.peek() == Some(b',') {
                    self.pos += 1;
                    if self.peek() == Some(b'}') {
                        None
                    } else {
                        Some(self.parse_int(start)?)
                    }
                } else {
                    Some(min)
                };
                if self.peek() != Some(b'}') {
                    return Err(self.err_span(start, "unclosed `{`"));
                }
                self.pos += 1;
                if let Some(max) = max {
                    if min > max {
                        return Err(
                            self.err_span(start, format!("reversed bounds {{{min},{max}}}"))
                        );
                    }
                    if max == 0 {
                        return Err(self.err_span(start, "quantifier {0} matches nothing"));
                    }
                }
                if min > MAX_REPEAT || max.is_some_and(|m| m > MAX_REPEAT) {
                    return Err(
                        self.err_span(start, format!("repetition bound exceeds {MAX_REPEAT}"))
                    );
                }
                Quantifier::range(min, max)
            }
            _ => return Ok(None),
        };
        // Reject lazy/possessive modifiers and double quantifiers.
        if let Some(c) = self.peek() {
            if b"*+?".contains(&c) {
                return Err(self.err_here(format!(
                    "`{}` after a quantifier is not supported (lazy/possessive matching has no \
                     meaning for NFA enumeration)",
                    c as char
                )));
            }
        }
        Ok(Some(q))
    }

    fn parse_int(&mut self, start: usize) -> Result<u32, ParseRegexError> {
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err_span(start, "expected a number in `{}`"));
        }
        std::str::from_utf8(&self.src[digits_start..self.pos])
            .expect("ascii digits")
            .parse()
            .map_err(|_| self.err_span(start, "repetition bound too large"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alt_count(p: &str) -> usize {
        parse(p).unwrap().alternation.alternatives.len()
    }

    #[test]
    fn paper_running_example() {
        // `(ab)|c{3,6}d+` — Listing 1 of the paper.
        let ast = parse("(ab)|c{3,6}d+").unwrap();
        assert!(ast.has_prefix && ast.has_suffix);
        assert_eq!(ast.alternation.alternatives.len(), 2);
        let second = &ast.alternation.alternatives[1];
        assert_eq!(second.pieces.len(), 2);
        assert_eq!(second.pieces[0].quantifier, Some(Quantifier::range(3, Some(6))));
        assert_eq!(second.pieces[1].quantifier, Some(Quantifier::PLUS));
    }

    #[test]
    fn anchors_toggle_prefix_suffix() {
        let ast = parse("^abc$").unwrap();
        assert!(!ast.has_prefix && !ast.has_suffix);
        let ast = parse("abc$").unwrap();
        assert!(ast.has_prefix && !ast.has_suffix);
        let ast = parse("^abc").unwrap();
        assert!(!ast.has_prefix && ast.has_suffix);
    }

    #[test]
    fn misplaced_anchors_rejected() {
        assert!(parse("a^b").is_err());
        assert!(parse("a$b").is_err());
        assert!(parse("(a$)").is_err());
    }

    #[test]
    fn class_parsing() {
        let ast = parse("[a-cx]").unwrap();
        let piece = &ast.alternation.alternatives[0].pieces[0];
        match &piece.atom {
            Atom::Class { negated, set } => {
                assert!(!negated);
                assert_eq!(set.iter().collect::<Vec<_>>(), vec![b'a', b'b', b'c', b'x']);
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn negated_class_keeps_written_set() {
        let ast = parse("[^ab]").unwrap();
        match &ast.alternation.alternatives[0].pieces[0].atom {
            Atom::Class { negated: true, set } => {
                assert_eq!(set.len(), 2);
                assert!(set.contains(b'a'));
            }
            other => panic!("expected negated class, got {other:?}"),
        }
    }

    #[test]
    fn trailing_dash_is_literal() {
        let ast = parse("[a-]").unwrap();
        match &ast.alternation.alternatives[0].pieces[0].atom {
            Atom::Class { set, .. } => {
                assert!(set.contains(b'a') && set.contains(b'-'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn perl_class_sugar() {
        let ast = parse(r"\d+").unwrap();
        match &ast.alternation.alternatives[0].pieces[0].atom {
            Atom::Class { negated: false, set } => {
                assert_eq!(set.len(), 10);
                assert!(set.contains(b'7'));
            }
            other => panic!("{other:?}"),
        }
        let ast = parse(r"\W").unwrap();
        match &ast.alternation.alternatives[0].pieces[0].atom {
            Atom::Class { negated: false, set } => {
                assert!(!set.contains(b'a'));
                assert!(set.contains(b'!'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn escapes() {
        let ast = parse(r"\.\*\\\x41\n").unwrap();
        let bytes: Vec<u8> = ast.alternation.alternatives[0]
            .pieces
            .iter()
            .map(|p| match p.atom {
                Atom::Char(c) => c,
                ref other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(bytes, vec![b'.', b'*', b'\\', b'A', b'\n']);
    }

    #[test]
    fn nested_groups() {
        let ast = parse("a(b(c|d))e").unwrap();
        assert_eq!(ast.alternation.alternatives[0].pieces.len(), 3);
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&nested(MAX_GROUP_NESTING)).is_ok());
        let err = parse(&nested(MAX_GROUP_NESTING + 1)).unwrap_err();
        assert_eq!(err.span, Span::new(MAX_GROUP_NESTING, MAX_GROUP_NESTING + 1), "{err}");
        assert!(err.message.contains("nest deeper"), "{err}");
    }

    #[test]
    fn errors_are_reported() {
        for (pattern, needle) in [
            ("", "empty pattern"),
            ("(", "unclosed `(`"),
            ("a)", "unmatched `)`"),
            ("[", "unclosed `["),
            ("[]", "empty character class"),
            ("[z-a]", "reversed range"),
            ("a{3,1}", "reversed bounds"),
            ("a{0}", "matches nothing"),
            ("a{2000}", "exceeds"),
            ("*a", "nothing to repeat"),
            ("a**", "after a quantifier"),
            ("a+?", "after a quantifier"),
            (r"\q", "unsupported escape"),
            (r"a\", "dangling"),
            ("|", "empty string"),
            ("()", "empty string"),
        ] {
            let err = parse(pattern).unwrap_err();
            assert!(
                err.message.contains(needle),
                "pattern {pattern:?}: expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn empty_alternative_is_allowed_when_another_matches() {
        // `a|` has an empty second branch; with a non-empty first branch
        // the pattern is accepted (the empty branch makes it always-match,
        // which the dialect verifier flags separately if undesirable).
        assert_eq!(alt_count("ab|"), 2);
    }

    #[test]
    fn pattern_roundtrip() {
        for p in
            ["(ab)|c{3,6}d+", "th(is|at|ose)", "^abc$", "[^ab]x*", r"\d{2,}[a-f-]", "a(b(c|d))e?"]
        {
            // Spans shift when re-printing, so compare by canonical form:
            // printing must be a fixed point of parse∘print.
            let printed = parse(p).unwrap().to_pattern();
            let reprinted = parse(&printed).unwrap().to_pattern();
            assert_eq!(reprinted, printed, "roundtrip failed: {p} -> {printed}");
        }
    }

    #[test]
    fn brace_without_digits_is_error() {
        assert!(parse("a{").is_err());
        assert!(parse("a{}").is_err());
        assert!(parse("a{,3}").is_err());
    }
}
