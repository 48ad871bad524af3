//! The legacy front-end: a dynamically typed recursive-descent parser.
//!
//! Grammar-compatible with the new front-end (`regex-frontend`) so the two
//! compilers accept the same patterns, but producing dictionary-shaped AST
//! nodes in the original compiler's style:
//!
//! ```text
//! root  = {"type": "root", "has_prefix": Bool, "has_suffix": Bool,
//!          "alternatives": [concat…]}
//! concat= {"type": "concat", "pieces": [piece…]}
//! piece = {"type": "piece", "atom": atom, "min"?: Int, "max"?: Int}
//! atom  = {"type": "char", "value": Int}
//!       | {"type": "any"}
//!       | {"type": "class", "chars": [Int…]}       (membership resolved)
//!       | {"type": "group", "alternatives": [concat…]}
//! ```

use crate::value::Value;
use crate::LegacyError;

/// Maximum counted-repetition bound (mirrors the new front-end).
const MAX_REPEAT: i64 = 1024;

/// Maximum group nesting (mirrors the new front-end).
const MAX_GROUP_NESTING: usize = 250;

/// Parse a pattern into a dynamic AST.
///
/// # Errors
///
/// Returns [`LegacyError`] with a plain-string message (the original
/// compiler had no spans).
pub fn parse(pattern: &str) -> Result<Value, LegacyError> {
    let mut p = P { src: pattern.as_bytes(), pos: 0 };
    if p.src.is_empty() {
        return Err(LegacyError::new("empty pattern"));
    }
    let has_prefix = !p.eat(b'^');
    let alternatives = p.alternation(0)?;
    let has_suffix = !p.eat(b'$');
    if p.pos < p.src.len() {
        return Err(LegacyError::new(format!(
            "unexpected `{}` at {}",
            p.src[p.pos] as char, p.pos
        )));
    }
    let all_empty = alternatives
        .as_list()
        .expect("alternation is a list")
        .iter()
        .all(|c| c.get("pieces").and_then(Value::as_list).is_some_and(|l| l.is_empty()));
    if all_empty {
        return Err(LegacyError::new("pattern matches only the empty string"));
    }
    let mut root = Value::node("root");
    root.set("has_prefix", Value::Bool(has_prefix));
    root.set("has_suffix", Value::Bool(has_suffix));
    root.set("alternatives", alternatives);
    Ok(root)
}

struct P<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alternation(&mut self, depth: usize) -> Result<Value, LegacyError> {
        let mut alternatives = vec![self.concat(depth)?];
        while self.eat(b'|') {
            alternatives.push(self.concat(depth)?);
        }
        Ok(Value::List(alternatives))
    }

    fn concat(&mut self, depth: usize) -> Result<Value, LegacyError> {
        let mut pieces = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') => break,
                Some(b')') if depth > 0 => break,
                Some(b')') => return Err(LegacyError::new("unmatched `)`")),
                Some(b'$') if depth == 0 => break,
                Some(b'$') => return Err(LegacyError::new("`$` inside a group")),
                Some(b'^') => return Err(LegacyError::new("`^` not at pattern start")),
                _ => pieces.push(self.piece(depth)?),
            }
        }
        let mut concat = Value::node("concat");
        concat.set("pieces", Value::List(pieces));
        Ok(concat)
    }

    fn piece(&mut self, depth: usize) -> Result<Value, LegacyError> {
        let atom = self.atom(depth)?;
        let mut piece = Value::node("piece");
        piece.set("atom", atom);
        if let Some((min, max)) = self.quantifier()? {
            // `{1,1}` is the same as no quantifier — normalized away, as
            // the new front-end does.
            if !(min == 1 && max == 1) {
                piece.set("min", Value::Int(min));
                piece.set("max", Value::Int(max));
            }
        }
        Ok(piece)
    }

    fn atom(&mut self, depth: usize) -> Result<Value, LegacyError> {
        match self.peek() {
            Some(b'.') => {
                self.pos += 1;
                Ok(Value::node("any"))
            }
            Some(b'(') if depth == MAX_GROUP_NESTING => {
                Err(LegacyError::new(format!("groups nest deeper than {MAX_GROUP_NESTING} levels")))
            }
            Some(b'(') => {
                self.pos += 1;
                let alternatives = self.alternation(depth + 1)?;
                if !self.eat(b')') {
                    return Err(LegacyError::new("unclosed `(`"));
                }
                let all_empty = alternatives.as_list().expect("list").iter().all(|c| {
                    c.get("pieces").and_then(Value::as_list).is_some_and(|l| l.is_empty())
                });
                if all_empty {
                    return Err(LegacyError::new("group matches only the empty string"));
                }
                let mut group = Value::node("group");
                group.set("alternatives", alternatives);
                Ok(group)
            }
            Some(b'[') => self.class(),
            Some(b'\\') => {
                let (chars, single) = self.escape(false)?;
                match single {
                    Some(c) => {
                        let mut node = Value::node("char");
                        node.set("value", Value::Int(i64::from(c)));
                        Ok(node)
                    }
                    None => {
                        let mut node = Value::node("class");
                        node.set("chars", Value::List(chars));
                        Ok(node)
                    }
                }
            }
            Some(c) if b"*+?{".contains(&c) => {
                Err(LegacyError::new(format!("`{}` has nothing to repeat", c as char)))
            }
            Some(c) => {
                self.pos += 1;
                let mut node = Value::node("char");
                node.set("value", Value::Int(i64::from(c)));
                Ok(node)
            }
            None => Err(LegacyError::new("expected an atom")),
        }
    }

    /// Returns `(class member list, None)` or `(_, Some(single char))`.
    fn escape(&mut self, in_class: bool) -> Result<(Vec<Value>, Option<u8>), LegacyError> {
        debug_assert_eq!(self.peek(), Some(b'\\'));
        self.pos += 1;
        let c = self.peek().ok_or_else(|| LegacyError::new("dangling `\\`"))?;
        self.pos += 1;
        let single = |c: u8| Ok((Vec::new(), Some(c)));
        match c {
            b'n' => single(b'\n'),
            b't' => single(b'\t'),
            b'r' => single(b'\r'),
            b'0' => single(0),
            b'x' => {
                let hi = self.peek().ok_or_else(|| LegacyError::new("truncated \\x"))?;
                self.pos += 1;
                let lo = self.peek().ok_or_else(|| LegacyError::new("truncated \\x"))?;
                self.pos += 1;
                let hex = [hi, lo];
                std::str::from_utf8(&hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .map_or_else(|| Err(LegacyError::new("invalid \\x escape")), single)
            }
            b'd' | b'D' | b'w' | b'W' | b's' | b'S' => {
                if in_class {
                    return Err(LegacyError::new("perl classes not supported inside `[...]`"));
                }
                let mut member = [false; 256];
                match c.to_ascii_lowercase() {
                    b'd' => (b'0'..=b'9').for_each(|b| member[usize::from(b)] = true),
                    b'w' => {
                        (b'0'..=b'9').for_each(|b| member[usize::from(b)] = true);
                        (b'a'..=b'z').for_each(|b| member[usize::from(b)] = true);
                        (b'A'..=b'Z').for_each(|b| member[usize::from(b)] = true);
                        member[usize::from(b'_')] = true;
                    }
                    _ => {
                        for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
                            member[usize::from(b)] = true;
                        }
                    }
                }
                let negate = c.is_ascii_uppercase();
                let chars: Vec<Value> = (0..256)
                    .filter(|i| member[*i] != negate)
                    .map(|i| Value::Int(i as i64))
                    .collect();
                Ok((chars, None))
            }
            c if c.is_ascii_alphanumeric() => {
                Err(LegacyError::new(format!("unsupported escape `\\{}`", c as char)))
            }
            c => single(c),
        }
    }

    fn class(&mut self) -> Result<Value, LegacyError> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.pos += 1;
        let negated = self.eat(b'^');
        let mut member = [false; 256];
        let mut any = false;
        loop {
            let lo = match self.peek() {
                None => return Err(LegacyError::new("unclosed `[`")),
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    let (_, single) = self.escape(true)?;
                    single.ok_or_else(|| LegacyError::new("expected a character"))?
                }
                Some(c) => {
                    self.pos += 1;
                    c
                }
            };
            if self.peek() == Some(b'-') && self.src.get(self.pos + 1) != Some(&b']') {
                self.pos += 1;
                let hi = match self.peek() {
                    None => return Err(LegacyError::new("unclosed `[`")),
                    Some(b'\\') => {
                        let (_, single) = self.escape(true)?;
                        single.ok_or_else(|| LegacyError::new("expected a character"))?
                    }
                    Some(c) => {
                        self.pos += 1;
                        c
                    }
                };
                if lo > hi {
                    return Err(LegacyError::new(format!(
                        "reversed range `{}-{}`",
                        lo as char, hi as char
                    )));
                }
                for b in lo..=hi {
                    member[usize::from(b)] = true;
                    any = true;
                }
            } else {
                member[usize::from(lo)] = true;
                any = true;
            }
        }
        if !any {
            return Err(LegacyError::new("empty character class"));
        }
        let chars: Vec<Value> =
            (0..256).filter(|i| member[*i] != negated).map(|i| Value::Int(i as i64)).collect();
        let mut node = Value::node("class");
        node.set("chars", Value::List(chars));
        Ok(node)
    }

    /// Returns `(min, max)` with `max = -1` for unbounded.
    fn quantifier(&mut self) -> Result<Option<(i64, i64)>, LegacyError> {
        let q = match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                (0, -1)
            }
            Some(b'+') => {
                self.pos += 1;
                (1, -1)
            }
            Some(b'?') => {
                self.pos += 1;
                (0, 1)
            }
            Some(b'{') => {
                self.pos += 1;
                let min = self.int()?;
                let max = if self.eat(b',') {
                    if self.peek() == Some(b'}') {
                        -1
                    } else {
                        self.int()?
                    }
                } else {
                    min
                };
                if !self.eat(b'}') {
                    return Err(LegacyError::new("unclosed `{`"));
                }
                if max != -1 && min > max {
                    return Err(LegacyError::new(format!("reversed bounds {{{min},{max}}}")));
                }
                if max == 0 {
                    return Err(LegacyError::new("quantifier {0} matches nothing"));
                }
                if min > MAX_REPEAT || max > MAX_REPEAT {
                    return Err(LegacyError::new(format!("repetition bound exceeds {MAX_REPEAT}")));
                }
                (min, max)
            }
            _ => return Ok(None),
        };
        if matches!(self.peek(), Some(c) if b"*+?".contains(&c)) {
            return Err(LegacyError::new("modifier after a quantifier is not supported"));
        }
        Ok(Some(q))
    }

    fn int(&mut self) -> Result<i64, LegacyError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(LegacyError::new("expected a number in `{}`"));
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii digits")
            .parse()
            .map_err(|_| LegacyError::new("repetition bound too large"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_shapes() {
        let root = parse("a+|[bc]").unwrap();
        assert_eq!(root.node_type(), Some("root"));
        assert_eq!(root.get("has_prefix").and_then(Value::as_bool), Some(true));
        let alts = root.get("alternatives").and_then(Value::as_list).unwrap();
        assert_eq!(alts.len(), 2);
        let piece = &alts[0].get("pieces").and_then(Value::as_list).unwrap()[0];
        assert_eq!(piece.get("min").and_then(Value::as_int), Some(1));
        assert_eq!(piece.get("max").and_then(Value::as_int), Some(-1));
        let class =
            alts[1].get("pieces").and_then(Value::as_list).unwrap()[0].get("atom").unwrap().clone();
        assert_eq!(class.node_type(), Some("class"));
        assert_eq!(class.get("chars").and_then(Value::as_list).unwrap().len(), 2);
    }

    #[test]
    fn negated_class_is_resolved() {
        let root = parse("[^ab]").unwrap();
        let alts = root.get("alternatives").and_then(Value::as_list).unwrap();
        let atom =
            alts[0].get("pieces").and_then(Value::as_list).unwrap()[0].get("atom").unwrap().clone();
        assert_eq!(atom.get("chars").and_then(Value::as_list).unwrap().len(), 254);
    }

    #[test]
    fn anchors() {
        let root = parse("^a$").unwrap();
        assert_eq!(root.get("has_prefix").and_then(Value::as_bool), Some(false));
        assert_eq!(root.get("has_suffix").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn rejects_like_the_new_frontend() {
        for bad in ["", "(", "a)", "[", "[]", "[z-a]", "a{3,1}", "a{0}", "*a", "a**", r"\q", "()"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse(&nested(MAX_GROUP_NESTING)).is_ok());
        assert!(parse(&nested(MAX_GROUP_NESTING + 1)).is_err());
    }
}
