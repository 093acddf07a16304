//! A minimal JSON parser and string escaper.
//!
//! The workspace builds offline with no serialization crate, so
//! every JSON document in the repo — Prometheus-adjacent exposition,
//! Chrome trace events, `BENCH_JSON` lines — is hand-written. That is
//! fine for emitters, but tests asserting "the emitted trace is valid
//! JSON and the spans nest" need a real parser. This module is that
//! parser: a small recursive-descent implementation over [`JsonValue`],
//! strict enough to catch malformed output (trailing commas, bad
//! escapes, truncation) while staying dependency-free.
//!
//! This is a *validation* parser for tests and tooling, not a
//! serving-path component — it allocates freely.

/// A parsed JSON value. Numbers are uniformly `f64`, matching how the
/// workspace's emitters write them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved, duplicate keys kept as-is.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps a hostile document from
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Errors carry the byte offset and a
/// short description; trailing non-whitespace after the document, and
/// arrays or objects nested more than 128 deep, are errors.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

/// The value of exactly four hex digits (`from_str_radix` alone would
/// also take a sign).
fn hex4(digits: &[u8]) -> Option<u32> {
    if digits.len() != 4 || !digits.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let mut code = hex4(hex)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low
                            // one is one code point; a lone or reversed
                            // surrogate maps to the replacement character.
                            let low = self
                                .bytes
                                .get(self.pos + 1..self.pos + 7)
                                .filter(|next| next.starts_with(b"\\u"))
                                .and_then(|next| hex4(&next[2..]))
                                .filter(|low| (0xdc00..0xe000).contains(low));
                            if let (0xd800..=0xdbff, Some(low)) = (code, low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                self.pos += 6;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The cursor only ever
                    // steps over ASCII bytes or whole scalars, so it sits
                    // on a char boundary of the input.
                    let c = self.src[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse(
            r#"{"traceEvents":[{"name":"step","ts":1.5,"args":{"depth":0}},
                {"name":"admit","ok":true,"note":null}],"n":-2e3}"#,
        )
        .expect("valid");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ts").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("depth"))
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(events[1].get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(events[1].get("note"), Some(&JsonValue::Null));
        assert_eq!(doc.get("n").and_then(JsonValue::as_f64), Some(-2000.0));
    }

    #[test]
    fn escape_then_parse_round_trips() {
        let nasty = "he said \"hi\"\n\tback\\slash \u{1} π";
        let doc = parse(&format!("{{\"k\":\"{}\"}}", escape(nasty))).expect("valid");
        assert_eq!(doc.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":1,}").is_err(), "trailing comma");
        assert!(parse("[1 2]").is_err(), "missing comma");
        assert!(parse("{\"a\":}").is_err(), "missing value");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} extra").is_err(), "trailing content");
        assert!(parse("").is_err(), "empty input");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(parse(&deeper).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""\u00e9x""#).unwrap().as_str(), Some("éx"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u04""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_code_point() {
        let s = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_owned();
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""a\uD834\uDD1Eb""#), "a𝄞b");
        // Lone, reversed or split surrogates stay U+FFFD.
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(s(r#""\ud83dx\ude00""#), "\u{fffd}x\u{fffd}");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert!(parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn multibyte_text_survives_string_parsing() {
        let doc = parse("[\"π ≈ 3\", \"日本\", \"🦀\"]").unwrap();
        let strs: Vec<_> = doc
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(strs, ["π ≈ 3", "日本", "🦀"]);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap().as_f64(), Some(42.0));
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("  null ").unwrap(), JsonValue::Null);
        assert_eq!(parse("1.25e2").unwrap().as_f64(), Some(125.0));
    }
}
