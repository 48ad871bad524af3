//! Minimal hand-rolled JSON *parser* for request bodies (the workspace
//! has no serde; `cicero-telemetry` owns the serializer side).
//!
//! Full JSON grammar — objects, arrays, strings with escapes (incl.
//! `\uXXXX` and surrogate pairs), numbers, booleans, null — with a
//! recursion-depth cap so hostile bodies cannot overflow the stack.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing non-whitespace is an error).
///
/// # Errors
///
/// A human-readable message with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), at: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes, for single-byte peeks.
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.at));
        }
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, self.at)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        while matches!(self.bytes.get(self.at), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self.bytes.get(self.at).copied();
                    self.at += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.bytes.get(self.at) == Some(&b'\\')
                                    && self.bytes.get(self.at + 1) == Some(&b'u')
                                {
                                    self.at += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape before byte {}", self.at)
                            })?);
                        }
                        other => {
                            return Err(format!("bad escape {other:?} before byte {}", self.at))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole plain run at once. It ends on a stop
                    // byte or the end of the text; the stop bytes are
                    // ASCII, so both ends are char boundaries of `text`.
                    let start = self.at;
                    while let Some(&b) = self.bytes.get(self.at) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        if b < 0x20 {
                            return Err(format!("unescaped control character at byte {}", self.at));
                        }
                        self.at += 1;
                    }
                    out.push_str(&self.text[start..self.at]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.at.checked_add(4).filter(|e| *e <= self.bytes.len());
        let slice = end.map(|e| &self.bytes[self.at..e]).ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_owned())?;
        let unit = u16::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape {text:?}"))?;
        self.at += 4;
        Ok(unit)
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let doc = parse(r#"{"patterns": ["ab|cd", "x+"], "input": "scan me", "config": "16x1"}"#)
            .unwrap();
        let patterns: Vec<&str> = doc
            .get("patterns")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(patterns, vec!["ab|cd", "x+"]);
        assert_eq!(doc.get("input").unwrap().as_str(), Some("scan me"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            parse(r#"[1, [2, {"a": 3}]]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0), Json::Obj(vec![("a".to_owned(), Json::Num(3.0))])]),
            ])
        );
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        assert_eq!(parse(r#""a\"b\\c\ndA😀""#).unwrap(), Json::Str("a\"b\\c\ndA😀".to_owned()));
    }

    #[test]
    fn round_trips_the_telemetry_serializer() {
        let line = cicero_telemetry::JsonObject::new()
            .field("name", "sim.cycles")
            .field("count", 3u64)
            .field("ratio", 0.5f64)
            .finish();
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("sim.cycles"));
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "{\"a\":1}x"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn rejects_unescaped_control_characters() {
        assert!(parse("\"a\u{1}b\"").is_err());
        // Mid-run, after multi-byte scalars: the offset is the control
        // byte's own (quote + 2-byte é + 4-byte 😀 + `x` = byte 8).
        assert_eq!(parse("\"é😀x\u{1f}y\"").unwrap_err(), "unescaped control character at byte 8");
        assert!(parse("\"tab\there\"").unwrap_err().ends_with("at byte 4"));
    }

    #[test]
    fn plain_runs_keep_multibyte_scalars_around_escapes_and_quotes() {
        assert_eq!(parse(r#""é\n😀""#).unwrap(), Json::Str("é\n😀".to_owned()));
        assert_eq!(parse(r#""😀éé\\ß""#).unwrap(), Json::Str("😀éé\\ß".to_owned()));
        assert_eq!(parse(r#"["aé", "ß"]"#).unwrap().as_arr().unwrap().len(), 2);
        // Every rejection inside a string survives the run copy.
        assert!(parse(r#""é\x""#).unwrap_err().contains("bad escape"));
        assert!(parse(r#""é\ud800é""#).unwrap_err().contains("invalid \\u escape"));
        assert_eq!(parse("\"é😀").unwrap_err(), "unterminated string");
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // Re-validating the rest of the body per character was quadratic:
        // minutes for this body in a debug build.
        let body = format!("{{\"input\": \"{}é\"}}", "x".repeat(1 << 20));
        let doc = parse(&body).unwrap();
        assert_eq!(doc.get("input").unwrap().as_str().unwrap().len(), (1 << 20) + 2);
    }
}
