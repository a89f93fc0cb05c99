//! The workspace's one JSON codec.
//!
//! Every JSON artifact the reproduction writes or reads (the bench
//! baseline, cycle profiles, campaign reports, the leakage report, the
//! bench trajectory and the Perfetto trace) goes through this crate:
//!
//! * [`Json`], a value tree whose objects keep key order, so output is a
//!   pure function of the value;
//! * one string escaper, shared by both renderers;
//! * two renderers: [`Json::pretty`] indents by two spaces and puts a
//!   container inline on one line exactly when it holds no nested
//!   container (an empty array still opens onto its own line), and
//!   [`Json::line`] puts the whole value on one line. Both separate with
//!   `", "` and `": "`, and both write a non-finite float as the `1e308`
//!   sentinel, since JSON has no Infinity or NaN;
//! * one recursive-descent reader, [`parse`], which caps nesting at
//!   [`MAX_DEPTH`] and reports the byte offset of the first bad byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer (wide enough for every `u64` and `i64`).
    Int(i128),
    /// A float in shortest round-trip form (`42.0` renders as `42`).
    Float(f64),
    /// A float with a fixed number of decimals (`Fixed(1.5, 3)` renders
    /// as `1.500`). Write-only: the reader never returns it.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in key order.
    Object(Vec<(String, Json)>),
}

/// Build an object from `(key, value)` pairs, keeping their order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(v as i128)
            }
        }
    )*};
}
from_unsigned!(u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// The value under `key` when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, when `self` is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) | Json::Fixed(x, _) => Some(*x),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render on one line, without a trailing newline.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render indented, with a trailing newline (see the crate docs for
    /// which containers go inline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Write `self`; `depth` is the indent level, `None` for one line.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', items.collect())
            }
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Float(x) if x.is_finite() => return out.push_str(&x.to_string()),
            Json::Fixed(x, decimals) if x.is_finite() => {
                return out.push_str(&format!("{x:.decimals$}"))
            }
            Json::Float(_) | Json::Fixed(..) => return out.push_str("1e308"),
            Json::Str(s) => return write_escaped(out, s),
        };
        let nested = items
            .iter()
            .any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_)));
        // Multi-line only when pretty-printing a nested container or an
        // empty array.
        let depth = depth.filter(|_| nested || (items.is_empty() && open == '['));
        let indent = |extra: usize| match depth {
            Some(d) => format!("\n{}", "  ".repeat(d + extra)),
            None => String::new(),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if depth.is_some() { "," } else { ", " });
            }
            out.push_str(&indent(1));
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(": ");
            }
            value.write(out, depth.map(|d| d + 1));
        }
        out.push_str(&indent(0));
        out.push(close);
    }
}

/// The string escaper: quotes, backslashes and control characters.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest container nesting [`parse`] accepts. The workspace's
/// artifacts nest at most three deep; the cap keeps hostile input from
/// exhausting the stack.
pub const MAX_DEPTH: usize = 64;

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the first byte not accepted (the input length when
    /// the input ended early).
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON value, which only whitespace may surround.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    reader.skip_ws();
    if reader.pos < text.len() {
        return Err(reader.error("trailing characters after the value"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &'static str) -> ParseError {
        let eof = self.pos >= self.text.len();
        let what = if eof { "unexpected end of input" } else { what };
        ParseError {
            offset: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn digits(&mut self) -> usize {
        let n = self.text[self.pos..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        self.pos += n;
        n
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.skip_ws();
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => {
                let items = self.elements(depth + 1, false)?;
                Ok(Json::Array(items.into_iter().map(|(_, v)| v).collect()))
            }
            Some(b'{') => self.elements(depth + 1, true).map(Json::Object),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The elements of the array or object whose opening bracket is at
    /// the cursor (array elements get empty keys).
    fn elements(&mut self, depth: usize, keyed: bool) -> Result<Vec<(String, Json)>, ParseError> {
        let close = if keyed { b'}' } else { b']' };
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            let mut key = String::new();
            if keyed {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected a string key"));
                }
                key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return Err(self.error("expected ':'"));
                }
            }
            items.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    /// The string whose opening quote is at the cursor.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control character
            // in one go (all ASCII, so the run ends on a char boundary).
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("control character in string"));
            }
            let c = match self.peek() {
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                _ => return Err(self.error("invalid escape")),
            };
            self.pos += 1;
            out.push(c);
        }
    }

    /// The character of a `\u` escape whose `u` was just consumed,
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let code = (self.text.get(self.pos..self.pos + 4))
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A number per the JSON grammar; integer literals stay exact.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && self.text.as_bytes()[int_start] != b'0');
        let fraction = self.eat(b'.');
        if fraction {
            ok &= self.digits() > 0;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let literal = &self.text[start..self.pos];
        let int = (!fraction && !exponent).then(|| literal.parse().ok().map(Json::Int));
        int.flatten()
            .or_else(|| literal.parse().ok().map(Json::Float))
            .filter(|_| ok)
            .ok_or(ParseError {
                offset: start,
                what: "malformed number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        object([
            ("version", Json::from(1u64)),
            ("name", "a \"quoted\"\nname\\".into()),
            ("ratio", Json::Fixed(2.0 / 3.0, 3)),
            ("none", Json::Null),
            ("flag", Json::Bool(false)),
            (
                "rows",
                Json::Array(vec![
                    object([("k", Json::from(1u64)), ("v", Json::Float(0.5))]),
                    object([("k", Json::from(2u64)), ("v", Json::Float(f64::INFINITY))]),
                ]),
            ),
            (
                "pair",
                Json::Array(vec![Json::Float(1.0), Json::Float(-2.25)]),
            ),
            ("empty", Json::Array(Vec::new())),
            ("map", Json::Object(Vec::new())),
        ])
    }

    #[test]
    fn pretty_inlines_exactly_the_flat_containers() {
        assert_eq!(
            sample().pretty(),
            "{\n  \"version\": 1,\n  \"name\": \"a \\\"quoted\\\"\\nname\\\\\",\n  \
             \"ratio\": 0.667,\n  \"none\": null,\n  \"flag\": false,\n  \"rows\": [\n    \
             {\"k\": 1, \"v\": 0.5},\n    {\"k\": 2, \"v\": 1e308}\n  ],\n  \
             \"pair\": [1, -2.25],\n  \"empty\": [\n  ],\n  \"map\": {}\n}\n"
        );
    }

    #[test]
    fn line_puts_everything_on_one_line() {
        let line = sample().line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"version\": 1, \"name\": "));
        assert!(line.ends_with("\"empty\": [], \"map\": {}}"));
    }

    #[test]
    fn both_renderings_parse_back_to_the_same_tree() {
        let pretty = parse(&sample().pretty()).expect("pretty parses");
        let line = parse(&sample().line()).expect("line parses");
        assert_eq!(pretty, line);
        assert_eq!(
            pretty.get("name").and_then(Json::as_str),
            Some("a \"quoted\"\nname\\")
        );
        assert_eq!(pretty.get("version").and_then(Json::as_u64), Some(1));
        // Re-rendering the parsed tree is byte-stable (Fixed reads back
        // as the Float it printed, which prints the same digits).
        assert_eq!(parse(&pretty.pretty()).expect("reparse"), pretty);
    }

    #[test]
    fn sentinel_and_fixed_decimals_round_trip() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let text = Json::Float(x).line();
            assert_eq!(text, "1e308");
            assert_eq!(parse(&text).expect("sentinel parses"), Json::Float(1e308));
        }
        for (x, decimals, text) in [
            (38240.5, 3, "38240.500"),
            (1.591_666_6, 6, "1.591667"),
            (0.0, 4, "0.0000"),
        ] {
            let rendered = Json::Fixed(x, decimals).line();
            assert_eq!(rendered, text);
            let back = parse(&rendered)
                .expect("fixed parses")
                .as_f64()
                .expect("number");
            assert_eq!(Json::Fixed(back, decimals).line(), rendered);
        }
        for x in [0.1, 339211.075, 20011.9575, -7.5e-9, 42.0] {
            let back = parse(&Json::Float(x).line()).expect("parses");
            assert_eq!(back.as_f64(), Some(x), "shortest round-trip of {x}");
        }
    }

    #[test]
    fn reader_accepts_general_layouts() {
        let v =
            parse(" {\"a\":[1,2.5e1,-0,true,null],\"b\":{\"c\":\"\\u00e9\\ud83d\\ude00\\/\"}} ")
                .expect("parses");
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(5)
        );
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(|a| a[1].as_f64()),
            Some(Some(25.0))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("é😀/")
        );
        assert_eq!(
            parse("18446744073709551615").expect("u64 max").as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn reader_rejects_bad_input_with_offsets() {
        let cases: [(&str, usize); 12] = [
            ("", 0),
            ("{", 1),
            ("[1,]", 3),
            ("{\"a\" 1}", 5),
            ("{\"a\": 1,}", 8),
            ("{a: 1}", 1),
            ("01", 0),
            ("1.", 0),
            ("\"tab\there\"", 4),
            ("\"\\x\"", 2),
            ("\"\\ud800\"", 7),
            ("[1] 2", 4),
        ];
        for (text, offset) in cases {
            let err = parse(text).expect_err(text);
            assert_eq!(err.offset, offset, "{text:?}: {err}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn every_proper_prefix_of_a_document_is_rejected() {
        let sample = sample().pretty();
        let mut documents = vec![
            sample.as_str(),
            include_str!("../../../baselines/bench-v1.json"),
            include_str!("../../../baselines/profile-v1.json"),
        ];
        documents.extend(include_str!("../../../baselines/BENCH_HISTORY.jsonl").lines());
        for text in documents {
            // Trailing whitespace is not part of the value: cutting it
            // off leaves a complete document.
            let body = text.trim_end();
            assert!(parse(body).is_ok(), "{body}");
            for cut in (0..body.len()).filter(|&cut| body.is_char_boundary(cut)) {
                let err = parse(&body[..cut]).expect_err("proper prefix parsed");
                assert!(
                    err.offset <= cut,
                    "{err} past the end of a {cut}-byte prefix"
                );
            }
        }
    }
}
