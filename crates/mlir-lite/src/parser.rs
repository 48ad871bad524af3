//! Textual IR parser, inverse of [`crate::printer`].

use std::fmt;

use crate::attribute::Attribute;
use crate::op::{Operation, Region};
use crate::ByteSet;

/// A parse failure, with a 1-based line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column of the error.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single operation (with its whole subtree) from text.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending token; trailing
/// input after the operation is also an error.
pub fn parse(text: &str) -> Result<Operation, ParseError> {
    let mut p = Parser::new(text);
    let op = p.parse_op()?;
    p.expect_eof()?;
    Ok(op)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { src: text.as_bytes(), pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let consumed = &self.src[..self.pos.min(self.src.len())];
        let line = consumed.iter().filter(|b| **b == b'\n').count() + 1;
        let column = consumed.iter().rev().take_while(|b| **b != b'\n').count() + 1;
        ParseError { line, column, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn at_eof(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error("trailing input after operation"))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || (b == b'.' && self.pos > start) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn parse_op(&mut self) -> Result<Operation, ParseError> {
        self.skip_ws();
        let name = self.ident()?;
        if !name.contains('.') {
            return Err(self.error(format!("op name `{name}` lacks a dialect prefix")));
        }
        let mut op = Operation::new(name.as_str());
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.parse_attr_dict(&mut op)?;
        }
        self.skip_ws();
        if self.peek() == Some(b'(') {
            self.expect(b'(')?;
            loop {
                op.push_region(self.parse_region()?);
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b')')?;
        }
        Ok(op)
    }

    fn parse_attr_dict(&mut self, op: &mut Operation) -> Result<(), ParseError> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.ident()?;
            self.expect(b'=')?;
            let value = self.parse_attr_value()?;
            op.set_attr(key.as_str(), value);
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')
    }

    fn parse_region(&mut self) -> Result<Region, ParseError> {
        self.expect(b'{')?;
        let mut region = Region::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(region);
            }
            if self.peek().is_none() {
                return Err(self.error("unterminated region"));
            }
            region.ops.push(self.parse_op()?);
        }
    }

    fn parse_attr_value(&mut self) -> Result<Attribute, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                Ok(Attribute::Symbol(self.ident()?.into()))
            }
            Some(b'\'') => self.parse_char(),
            Some(b'"') => Ok(Attribute::Str(self.parse_string()?.into())),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_int(),
            Some(b't') | Some(b'f') | Some(b'b') => {
                // `true`, `false`, or `bits"..."`.
                let word = self.ident()?;
                match word.as_str() {
                    "true" => Ok(Attribute::Bool(true)),
                    "false" => Ok(Attribute::Bool(false)),
                    "bits" => {
                        let s = self.parse_string()?;
                        if s.len() != 256 || s.bytes().any(|b| b != b'0' && b != b'1') {
                            return Err(self.error("a bits literal is 256 digits `0` or `1`"));
                        }
                        let mut set = ByteSet::EMPTY;
                        (0..=255)
                            .filter(|&b| s.as_bytes()[usize::from(b)] == b'1')
                            .for_each(|b| set.insert(b));
                        Ok(Attribute::ByteSet(set))
                    }
                    other => Err(self.error(format!("unknown attribute value `{other}`"))),
                }
            }
            _ => Err(self.error("expected attribute value")),
        }
    }

    fn parse_int(&mut self) -> Result<Attribute, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        text.parse::<i64>()
            .map(Attribute::Int)
            .map_err(|e| self.error(format!("invalid integer `{text}`: {e}")))
    }

    fn parse_char(&mut self) -> Result<Attribute, ParseError> {
        self.expect(b'\'')?;
        let c = match self.bump().ok_or_else(|| self.error("unterminated char literal"))? {
            b'\\' => match self.bump().ok_or_else(|| self.error("unterminated escape"))? {
                b'\'' => b'\'',
                b'\\' => b'\\',
                b'x' => {
                    let hi = self.bump().ok_or_else(|| self.error("truncated \\x escape"))?;
                    let lo = self.bump().ok_or_else(|| self.error("truncated \\x escape"))?;
                    let hex = [hi, lo];
                    let hex =
                        std::str::from_utf8(&hex).ok().and_then(|h| u8::from_str_radix(h, 16).ok());
                    hex.ok_or_else(|| self.error("invalid \\x escape"))?
                }
                other => return Err(self.error(format!("unknown escape `\\{}`", other as char))),
            },
            raw => raw,
        };
        self.expect(b'\'')?;
        Ok(Attribute::Char(c))
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.error("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => match self.bump().ok_or_else(|| self.error("unterminated escape"))? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    other => {
                        return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                    }
                },
                other => out.push(other as char),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Ident, Region};

    static MIN: &Ident = &Ident::new("min");
    static MAX: &Ident = &Ident::new("max");

    #[test]
    fn parse_bare_op() {
        let op = parse("regex.match_any_char").unwrap();
        assert!(op.is(&Ident::new("regex.match_any_char")));
        assert_eq!(op.attrs().count(), 0);
        assert!(op.regions().is_empty());
    }

    #[test]
    fn parse_attrs() {
        let op = parse("regex.quantifier {min = 3, max = -1}").unwrap();
        assert_eq!(op.attr(MIN), Some(&Attribute::Int(3)));
        assert_eq!(op.attr(MAX), Some(&Attribute::Int(-1)));
    }

    #[test]
    fn parse_all_value_kinds() {
        let bits = format!("0110{}", "0".repeat(252));
        let op = parse(&format!(
            "t.x {{a = true, b = false, c = 12, d = 'q', e = \"hi\\\"there\", f = @sym, g = bits\"{bits}\"}}"
        ))
        .unwrap();
        let values: Vec<String> = op.attrs().map(|(k, v)| format!("{k}={v:?}")).collect();
        let set = ByteSet::single(1).union(ByteSet::single(2));
        assert_eq!(
            values,
            [
                "a=Bool(true)".to_owned(),
                "b=Bool(false)".to_owned(),
                "c=Int(12)".to_owned(),
                "d=Char(113)".to_owned(),
                format!("e={:?}", Attribute::Str("hi\"there".into())),
                format!("f={:?}", Attribute::Symbol("sym".into())),
                format!("g={:?}", Attribute::ByteSet(set)),
            ]
        );
    }

    #[test]
    fn bits_literals_must_have_256_digits() {
        let err = parse("t.x {g = bits\"0110\"}").unwrap_err();
        assert!(err.message.contains("256 digits"), "{err}");
    }

    #[test]
    fn parse_nested_regions() {
        let text = "t.root ( { t.a\n t.b } , { } )";
        let op = parse(text).unwrap();
        assert_eq!(op.regions().len(), 2);
        assert_eq!(op.regions()[0].len(), 2);
        assert!(op.regions()[1].is_empty());
    }

    #[test]
    fn comments_are_ignored() {
        let op = parse("t.root ( { // comment\n t.a } )").unwrap();
        assert_eq!(op.regions()[0].len(), 1);
    }

    #[test]
    fn roundtrip_printer_output() {
        let leaf =
            Operation::new("regex.match_char").with_attr("target_char", Attribute::Char(b'\\'));
        let root = Operation::new("regex.root")
            .with_attr("has_prefix", true)
            .with_attr("label", "an \"odd\" name")
            .with_region(Region::with_ops(vec![leaf]))
            .with_region(Region::new());
        let text = root.to_text();
        assert_eq!(parse(&text).unwrap(), root);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse("t.a t.b").unwrap_err();
        assert!(err.message.contains("trailing input"), "{err}");
    }

    #[test]
    fn missing_dialect_prefix_rejected() {
        let err = parse("lonely").unwrap_err();
        assert!(err.message.contains("lacks a dialect prefix"), "{err}");
    }

    #[test]
    fn unterminated_region_rejected() {
        let err = parse("t.a ( { t.b ").unwrap_err();
        assert!(
            err.message.contains("unterminated region") || err.message.contains("expected"),
            "{err}"
        );
    }

    #[test]
    fn error_positions_are_1_based() {
        let err = parse("t.x {a = }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.column > 1);
    }

    #[test]
    fn hex_char_escape() {
        let op = parse("t.x {c = '\\x0a'}").unwrap();
        assert_eq!(op.attr(&Ident::new("c")), Some(&Attribute::Char(0x0a)));
    }
}
