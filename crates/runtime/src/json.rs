//! A small hand-rolled JSON reader and writer.
//!
//! The workspace ships no external dependencies, so machine-readable
//! output is built as a [`JsonValue`] and written by
//! [`JsonValue::to_json_string`] — the metrics, loadgen, projection and
//! bench result dumps all go through it, so string escaping and the
//! non-finite → `null` rule live in one place. The *reader* is a strict
//! recursive-descent parser over the JSON grammar (RFC 8259) minus one
//! liberty: numbers are parsed as `f64` only, which every producer in this
//! repository satisfies. The `xgs-server` wire protocol and the
//! `metrics-diff` tool parse with it.

use std::collections::BTreeMap;

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

    /// Serialize back to compact JSON. Numbers use Rust's shortest
    /// round-trip `f64` formatting, so parse → serialize → parse is
    /// lossless (the server relies on this to re-embed sub-documents).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/Infinity literals; `n.to_string()` would emit
            // them verbatim and corrupt the document, so non-finite numbers
            // serialize as null (the only lossless-ish option RFC 8259
            // leaves us).
            JsonValue::Number(n) if !n.is_finite() => out.push_str("null"),
            JsonValue::Number(n) => out.push_str(&n.to_string()),
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":");
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
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
        self.expect(b'{')?;
        self.descend()?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
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

/// Escape a string for embedding in hand-rolled JSON output (the writer
/// counterpart used by the server protocol).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash → unicode";
        let encoded = format!("\"{}\"", escape_json(original));
        let parsed = parse_json(&encoded).unwrap();
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

    #[test]
    fn parses_own_metrics_export() {
        // The reader must accept what MetricsReport::to_json emits.
        let mut m = crate::metrics::MetricsReport {
            wall_seconds: 1.25,
            tasks: 7,
            workers: 2,
            worker_stats: vec![Default::default(); 2],
            ..Default::default()
        };
        let mut k = crate::metrics::KernelStats::new("gemm");
        k.record(3.5e-4);
        m.kernels.push(k);
        let v = parse_json(&m.to_json()).unwrap();
        assert_eq!(v.get("tasks").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("kernels").unwrap().as_array().unwrap()[0]
                .get("kind")
                .unwrap()
                .as_str(),
            Some("gemm")
        );
    }
}
