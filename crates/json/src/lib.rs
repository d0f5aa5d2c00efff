//! The workspace's one JSON reader and one JSON writer.
//!
//! The workspace ships no external dependencies, so JSON is hand-rolled
//! here, in a leaf crate every other crate can use. Every JSON document
//! the workspace writes comes out of one streaming [`Writer`]: the server's
//! replies, loadgen's requests and report, the metrics export, the Chrome
//! trace, `results/fig10.json` and xgs-lint's JSON and SARIF reports. So
//! string escaping and the non-finite → `null` rule live in one place.
//! [`JsonValue::to_json_string`] is a walk over the same writer. The
//! *reader* is a strict recursive-descent parser over the JSON grammar
//! (RFC 8259) minus one liberty: numbers are parsed as `f64` only, which
//! every producer in this repository satisfies. The `xgs-server` wire
//! protocol and the `metrics-diff` tool parse with it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    /// Object members in a sorted map (duplicate keys: last one wins).
    Object(BTreeMap<String, JsonValue>),
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> JsonValue {
        JsonValue::Number(n)
    }
}

/// Counts are written as JSON numbers (exact up to 2^53).
impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::Number(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::String(s.to_string())
    }
}

impl JsonValue {
    /// An object from `(key, value)` pairs — the writers' constructor.
    pub fn object<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as an integer count (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|o| o.get(key))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serialize back to compact JSON through [`Writer::value`]. Numbers
    /// use Rust's shortest round-trip `f64` formatting, so parse →
    /// serialize → parse is lossless.
    pub fn to_json_string(&self) -> String {
        let mut w = Writer::new();
        w.value(self);
        w.finish()
    }
}

/// A streaming JSON writer: each call appends one token to a `String`,
/// with no tree built in between. Commas are placed from the last byte
/// written, so the writer keeps no per-container state. Every call
/// returns the writer, so members chain: `w.key("ok").bool(true)`.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Open containers.
    depth: usize,
    /// The outermost container is an array written one item per line
    /// ([`Writer::begin_array_lines`]).
    lines: bool,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Comma (unless this is the first item of its container or the
    /// value of a key), then the line break of a one-item-per-line array.
    fn item(&mut self) -> &mut Writer {
        if !matches!(self.out.as_bytes().last(), None | Some(b'[' | b'{' | b':')) {
            self.out.push(',');
        }
        if self.lines && self.depth == 1 {
            self.out.push_str("\n  ");
        }
        self
    }

    fn open(&mut self, bracket: char) -> &mut Writer {
        self.item().out.push(bracket);
        self.depth += 1;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Writer {
        self.depth -= 1;
        if self.lines && self.depth == 0 {
            self.out.push('\n');
        }
        self.out.push(bracket);
        self
    }

    pub fn begin_object(&mut self) -> &mut Writer {
        self.open('{')
    }

    pub fn end_object(&mut self) -> &mut Writer {
        self.close('}')
    }

    pub fn begin_array(&mut self) -> &mut Writer {
        self.open('[')
    }

    /// Open the document as an array with each item on its own line,
    /// indented two spaces, and the closing `]` on a line of its own (an
    /// empty one reads `[\n]`). Only the outermost container may be one.
    pub fn begin_array_lines(&mut self) -> &mut Writer {
        debug_assert_eq!(self.depth, 0, "only the outermost array goes by lines");
        self.lines = true;
        self.begin_array()
    }

    pub fn end_array(&mut self) -> &mut Writer {
        self.close(']')
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        escape(&mut self.item().out, key);
        self.out.push(':');
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Writer {
        escape(&mut self.item().out, s);
        self
    }

    /// Shortest round-trip digits, so the reader gets the same bits back:
    /// plain decimal in between, exponent form (`1e300`, `2.5e-8`) for
    /// magnitudes of at least 1e21 or below 1e-7, so no number takes more
    /// than 24 bytes. JSON has no NaN or infinity literals, so a
    /// non-finite value is written as `null`.
    pub fn f64(&mut self, x: f64) -> &mut Writer {
        if !x.is_finite() {
            return self.null();
        }
        let out = &mut self.item().out;
        let _ = if x != 0.0 && !(1e-7..1e21).contains(&x.abs()) {
            write!(out, "{x:e}")
        } else {
            write!(out, "{x}")
        };
        self
    }

    pub fn u64(&mut self, n: u64) -> &mut Writer {
        let _ = write!(self.item().out, "{n}");
        self
    }

    pub fn bool(&mut self, b: bool) -> &mut Writer {
        self.item().out.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Writer {
        self.item().out.push_str("null");
        self
    }

    /// A whole [`JsonValue`], object members in key order.
    pub fn value(&mut self, v: &JsonValue) -> &mut Writer {
        match v {
            JsonValue::Null => self.null(),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::Number(n) => self.f64(*n),
            JsonValue::String(s) => self.string(s),
            JsonValue::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            JsonValue::Object(members) => {
                self.begin_object();
                for (k, v) in members {
                    self.key(k).value(v);
                }
                self.end_object()
            }
        }
    }
}

/// Write `s` as a quoted JSON string: `"`, `\` and the control
/// characters escaped, everything else copied through.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with the byte offset where parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth [`parse_json`] accepts. Each level of
/// array/object nesting costs one native stack frame in the recursive-
/// descent parser, so an attacker-supplied `[[[[…]]]]` must hit a parse
/// error long before it can overflow the thread stack.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth (bounded by [`MAX_JSON_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Enter one container level; errors once the document nests deeper
    /// than [`MAX_JSON_DEPTH`] (recursion-bomb guard).
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        let mut members = BTreeMap::new();
        self.container(b'{', b'}', "object", |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            members.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Object(members))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        let mut items = Vec::new();
        self.container(b'[', b']', "array", |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    /// One bracketed, comma-separated container; `member` reads each
    /// member (an array item, or an object's key and value).
    fn container(
        &mut self,
        open: u8,
        close: u8,
        what: &str,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.descend()?;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                member(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        let close = close as char;
                        return Err(self.err(&format!("expected ',' or '{close}' in {what}")));
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is valid UTF-8 by &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap().as_f64(), Some(42.0));
        assert_eq!(parse_json("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse_json("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert!(v.get("a").unwrap().as_array().unwrap()[2]
            .get("b")
            .unwrap()
            .is_null());
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn whitespace_tolerated_everywhere() {
        let v = parse_json(" { \"k\" :\n[ 1 ,\t2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn writer_places_commas_keys_and_lines() {
        let mut w = Writer::new();
        w.begin_object();
        w.key("a").begin_array().u64(1).f64(-2.5).null().end_array();
        w.key("b").begin_object().end_object();
        w.key("c")
            .begin_array()
            .begin_array()
            .end_array()
            .bool(true)
            .end_array();
        w.key("d").string("x");
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[1,-2.5,null],"b":{},"c":[[],true],"d":"x"}"#
        );

        let mut w = Writer::new();
        w.begin_array_lines();
        w.begin_object()
            .key("k")
            .begin_array()
            .u64(1)
            .u64(2)
            .end_array()
            .end_object();
        w.string("s");
        w.end_array();
        assert_eq!(w.finish(), "[\n  {\"k\":[1,2]},\n  \"s\"\n]");
        let mut w = Writer::new();
        w.begin_array_lines().end_array();
        assert_eq!(w.finish(), "[\n]");
    }

    #[test]
    fn every_control_character_is_escaped() {
        for c in (0u32..0x80)
            .chain([0xe9, 0x2192, 0x1f600])
            .filter_map(char::from_u32)
        {
            let s = format!("a{c}b");
            let mut w = Writer::new();
            w.string(&s);
            let text = w.finish();
            let want = match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            };
            assert_eq!(text, format!("\"a{want}b\""));
            assert_eq!(parse_json(&text).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash → unicode";
        let mut w = Writer::new();
        w.string(original);
        let parsed = parse_json(&w.finish()).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // \u escapes, including a surrogate pair.
        let v = parse_json(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} trailing",
            "{\"a\" 1}",
            "[1 2]",
            "\"\\x\"",
            "\"\\ud800\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_bomb_is_an_error_not_a_stack_overflow() {
        // 1M unclosed brackets: without the depth guard this recursion
        // would blow the thread stack; with it, a JsonError at level 129.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let bomb = open.repeat(1_000_000);
            let err = parse_json(&bomb).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            // Exactly MAX_JSON_DEPTH levels still parse.
            let ok = format!(
                "{}0{}",
                open.repeat(MAX_JSON_DEPTH),
                close.repeat(MAX_JSON_DEPTH)
            );
            assert!(parse_json(&ok).is_ok(), "depth {MAX_JSON_DEPTH} rejected");
            let too_deep = format!(
                "{}0{}",
                open.repeat(MAX_JSON_DEPTH + 1),
                close.repeat(MAX_JSON_DEPTH + 1)
            );
            assert!(parse_json(&too_deep).is_err());
        }
        // Sibling containers don't accumulate depth.
        let wide = format!("[{}]", vec!["[0]"; 1000].join(","));
        assert!(parse_json(&wide).is_ok());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = JsonValue::Array(vec![JsonValue::Number(bad), JsonValue::Number(1.5)]);
            let s = v.to_json_string();
            assert_eq!(s, "[null,1.5]", "{bad} must not reach the wire");
            parse_json(&s).expect("output stays valid JSON");
        }
        // Overflowing literals parse to infinity (grammar-valid input)…
        let inf = parse_json("1e999").unwrap();
        assert_eq!(inf.as_f64(), Some(f64::INFINITY));
        // …and round-trip to null rather than to an invalid document.
        assert_eq!(inf.to_json_string(), "null");
    }

    #[test]
    fn extreme_magnitudes_use_the_exponent_form_and_round_trip() {
        for (x, text) in [
            (1e300, "1e300"),
            (-1e21, "-1e21"),
            (2.5e-8, "2.5e-8"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (f64::MAX, "1.7976931348623157e308"),
            (5e-324, "5e-324"),
            // The plain range keeps its plain digits.
            (1e-7, "0.0000001"),
            (9.999999999999999e20, "999999999999999900000"),
            (-0.0, "-0"),
            (0.5, "0.5"),
        ] {
            let s = JsonValue::Number(x).to_json_string();
            assert_eq!(s, text);
            let back = parse_json(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(parse_json("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse_json("3.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-3").unwrap().as_u64(), None);
        assert_eq!(parse_json("true").unwrap().as_u64(), None);
    }

    #[test]
    fn serializer_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x\"y","d":true,"e":1e300}"#;
        let v = parse_json(text).unwrap();
        let re = v.to_json_string();
        assert_eq!(parse_json(&re).unwrap(), v);
    }
}
