//! A small, strict JSON implementation: value model, writer, parser.
//!
//! The browser protocol is a handful of small documents; a hand-rolled
//! implementation keeps the server free of heavyweight dependencies and
//! is easy to audit. The parser is recursive-descent with a depth limit;
//! the writer appends to one `String` and escapes per RFC 8259.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects use a `BTreeMap` so serialisation is
/// deterministic (sorted keys) — handy for tests and caching.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers round-trip up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Json>),
    /// A pre-serialized JSON fragment, written verbatim by the writer.
    ///
    /// Hot responses (browse rows, search communities and their scenes)
    /// are written straight from graph-resident slices into one buffer
    /// through the same writer a tree uses ([`escape_into`],
    /// [`number_into`]) instead of being built as a tree first. The parser
    /// never produces this variant, and the caller is responsible for the
    /// fragment being the canonical JSON a tree of the same value would
    /// serialise to — keys ascending, numbers and strings in the writer's
    /// forms.
    Raw(String),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds an array.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// A number value.
    pub fn num(n: f64) -> Json {
        Json::Number(n)
    }

    /// Member access for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Parses a JSON document (strict: rejects trailing input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError { pos: p.pos, message: "trailing characters".into() });
        }
        Ok(v)
    }
}

/// Parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// The writer: one `String` sink under every response. A tree, a fragment
// and a streamed row all serialise through `escape_into` / `number_into`,
// so there is exactly one spelling of each string and number on the wire.

impl Json {
    /// Appends this value's serialisation to `out`.
    pub(crate) fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => number_into(out, *n),
            Json::String(s) => escape_into(out, s),
            Json::Array(a) => array_into(out, a, |out, v| v.write_into(out)),
            Json::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }

    /// A cheap estimate of the serialised length, so a response buffer is
    /// sized once: exact for fragments, which are what make a body large,
    /// and close for the small tree around them.
    pub(crate) fn size_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Number(_) => 8,
            Json::String(s) => s.len() + 2,
            Json::Raw(s) => s.len(),
            Json::Array(a) => 2 + a.iter().map(|v| v.size_hint() + 1).sum::<usize>(),
            Json::Object(m) => {
                2 + m.iter().map(|(k, v)| k.len() + 4 + v.size_hint()).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(self.size_hint());
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` to `out` as a quoted JSON string. Clean runs are copied
/// whole; only `"`, `\` and the control characters are escaped (`\n`,
/// `\r`, `\t` by name, the rest as `\u00xx`), everything else — U+2028
/// and all other non-ASCII included — passes through as UTF-8.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean..i]);
        clean = i + 1;
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(named);
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Appends a JSON number to `out`: non-finite values become `null` (JSON
/// has no NaN/Infinity, and `JSON.stringify` does the same), integral
/// values below 9e15 print as integers, anything else in Rust's shortest
/// round-trip form.
pub fn number_into(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        integer_into(out, n as i64);
    } else {
        use fmt::Write;
        // Writing to a String is infallible.
        let _ = write!(out, "{n}");
    }
}

/// Appends `n` in decimal.
fn integer_into(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `items` as a JSON array, each element written by `each`.
pub(crate) fn array_into<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut each: impl FnMut(&mut String, I::Item),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// [`array_into`] a fresh buffer, as a fragment for a tree.
pub(crate) fn raw_array<I: IntoIterator>(items: I, each: impl FnMut(&mut String, I::Item)) -> Json {
    let mut out = String::new();
    array_into(&mut out, items, each);
    Json::Raw(out)
}

/// Writes one JSON object straight into a buffer. Members must come in
/// the order a [`Json::Object`] serialises them — ascending byte order of
/// the key — so a fragment reads exactly like the tree it replaces; debug
/// builds assert it. Keys are plain literals and are not escaped.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl<'a> ObjectWriter<'a> {
    /// Opens the object.
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, last: None }
    }

    /// Writes `"key":` and returns the buffer for the value.
    pub(crate) fn key(&mut self, key: &'static str) -> &mut String {
        if let Some(last) = self.last {
            debug_assert!(last < key, "object keys out of order: {last:?} before {key:?}");
            self.out.push(',');
        }
        self.last = Some(key);
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A number member.
    pub(crate) fn num(&mut self, key: &'static str, n: f64) -> &mut Self {
        number_into(self.key(key), n);
        self
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &'static str, s: &str) -> &mut Self {
        escape_into(self.key(key), s);
        self
    }

    /// A boolean member.
    pub(crate) fn bool(&mut self, key: &'static str, b: bool) -> &mut Self {
        self.key(key).push_str(if b { "true" } else { "false" });
        self
    }

    /// Closes the object.
    pub(crate) fn close(&mut self) {
        self.out.push('}');
    }
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, message: message.into() }
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
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected {word})")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Number).map_err(|_| self.err("invalid number"))
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                    .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are rejected rather than
                            // combined: the protocol never emits them.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid code point"))?;
                            out.push(ch);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
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
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, again, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn builders_and_accessors() {
        let v = Json::obj([
            ("name", Json::str("jim")),
            ("k", Json::num(4.0)),
            ("tags", Json::arr([Json::str("db")])),
        ]);
        assert_eq!(v.get("name").and_then(Json::as_str), Some("jim"));
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("tags").and_then(Json::as_array).map(|a| a.len()), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::num(1.0).as_bool(), None);
    }

    #[test]
    fn serialisation_is_deterministic_sorted_keys() {
        let v = Json::obj([("zeta", Json::num(1.0)), ("alpha", Json::num(2.0))]);
        assert_eq!(v.to_string(), "{\"alpha\":2,\"zeta\":1}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::str("line1\nline2\t\"quoted\" \\slash\u{1}");
        let text = original.to_string();
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::str("A"));
        assert_eq!(Json::parse("\"caf\u{e9}\"").unwrap(), Json::str("café"));
    }

    #[test]
    fn numbers_parse_with_exponents() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5E-1").unwrap().as_f64(), Some(-0.25));
    }

    #[test]
    fn integer_display_has_no_fraction() {
        assert_eq!(Json::num(42.0).to_string(), "42");
        assert_eq!(Json::num(1.5).to_string(), "1.5");
    }

    #[test]
    fn errors_are_positioned() {
        let e = Json::parse("[1, 2,,]").unwrap_err();
        assert!(e.pos > 0);
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("[1] tail").unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn depth_limit_stops_bombs() {
        let bomb = "[".repeat(100) + &"]".repeat(100);
        let e = Json::parse(&bomb).unwrap_err();
        assert!(e.message.contains("deep"));
    }

    #[test]
    fn whitespace_everywhere() {
        let v = Json::parse("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).map(|a| a.len()), Some(2));
    }

    #[test]
    fn raw_fragments_write_verbatim_and_compose() {
        let mut buf = String::from("[");
        escape_into(&mut buf, "line\n\"q\"");
        buf.push(',');
        number_into(&mut buf, 42.0);
        buf.push(',');
        number_into(&mut buf, 1.5);
        buf.push(',');
        number_into(&mut buf, f64::NAN);
        buf.push(']');
        let v = Json::obj([("items", Json::Raw(buf))]);
        let text = v.to_string();
        // The composed document is valid JSON and matches the tree the
        // non-streaming builders would have produced.
        let parsed = Json::parse(&text).unwrap();
        let items = parsed.get("items").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].as_str(), Some("line\n\"q\""));
        assert_eq!(items[1].as_f64(), Some(42.0));
        assert_eq!(items[2].as_f64(), Some(1.5));
        assert_eq!(items[3], Json::Null);
    }

    #[test]
    fn escape_into_matches_string_serialisation() {
        for s in ["plain", "uni: café", "ctl\u{1}\t\\", ""] {
            let mut buf = String::new();
            escape_into(&mut buf, s);
            assert_eq!(buf, Json::str(s).to_string());
        }
    }

    /// The writer as it was before it became one `String` sink — `write!`
    /// per char and per number through `fmt::Formatter` — kept as the
    /// reference the fast writer must match byte for byte.
    fn oracle(v: &Json) -> String {
        struct Old<'a>(&'a Json);
        fn escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
            write!(f, "\"")?;
            for ch in s.chars() {
                match ch {
                    '"' => write!(f, "\\\"")?,
                    '\\' => write!(f, "\\\\")?,
                    '\n' => write!(f, "\\n")?,
                    '\r' => write!(f, "\\r")?,
                    '\t' => write!(f, "\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            write!(f, "\"")
        }
        impl fmt::Display for Old<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Json::Null => write!(f, "null"),
                    Json::Bool(b) => write!(f, "{b}"),
                    Json::Number(n) => {
                        if !n.is_finite() {
                            write!(f, "null")
                        } else if n.fract() == 0.0 && n.abs() < 9e15 {
                            write!(f, "{}", *n as i64)
                        } else {
                            write!(f, "{n}")
                        }
                    }
                    Json::String(s) => escaped(f, s),
                    Json::Array(a) => {
                        write!(f, "[")?;
                        for (i, v) in a.iter().enumerate() {
                            if i > 0 {
                                write!(f, ",")?;
                            }
                            write!(f, "{}", Old(v))?;
                        }
                        write!(f, "]")
                    }
                    Json::Object(m) => {
                        write!(f, "{{")?;
                        for (i, (k, v)) in m.iter().enumerate() {
                            if i > 0 {
                                write!(f, ",")?;
                            }
                            escaped(f, k)?;
                            write!(f, ":{}", Old(v))?;
                        }
                        write!(f, "}}")
                    }
                    Json::Raw(s) => write!(f, "{s}"),
                }
            }
        }
        Old(v).to_string()
    }

    /// splitmix64: a seeded stream, so a failing tree can be replayed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// Numbers at every edge of the writer's three forms.
    const EDGE_NUMBERS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.5e-7,
        9e15,
        -9e15,
        9e15 - 1.0,
        -(9e15 - 1.0),
        9_007_199_254_740_992.0,
        1e21,
        -1e21,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        123_456_789.125,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    fn random_string(rng: &mut Rng) -> String {
        const SPECIAL: &[char] =
            &['"', '\\', '/', 'a', 'Z', ' ', 'é', '你', '😀', '\u{2028}', '\u{2029}', '\u{7f}'];
        (0..rng.below(7))
            .map(|_| {
                if rng.below(2) == 0 {
                    char::from(rng.below(0x20) as u8)
                } else {
                    rng.pick(SPECIAL)
                }
            })
            .collect()
    }

    fn random_number(rng: &mut Rng) -> f64 {
        match rng.below(4) {
            0 => rng.pick(EDGE_NUMBERS),
            1 => f64::from_bits(rng.next()),
            2 => (rng.next() as i64 >> rng.below(64)) as f64,
            _ => (rng.next() % 2_000_001) as f64 / 1000.0 - 1000.0,
        }
    }

    fn random_tree(rng: &mut Rng, depth: u32) -> Json {
        let leaf = depth == 0 || rng.below(3) == 0;
        match if leaf { rng.below(5) } else { 5 + rng.below(2) } {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Number(random_number(rng)),
            3 => Json::String(random_string(rng)),
            4 => Json::Raw(oracle(&Json::String(random_string(rng)))),
            5 => Json::Array((0..rng.below(5)).map(|_| random_tree(rng, depth - 1)).collect()),
            _ => Json::Object(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn writer_matches_the_char_by_char_oracle() {
        // Every edge number and every control character on its own first.
        for &n in EDGE_NUMBERS {
            assert_eq!(Json::num(n).to_string(), oracle(&Json::num(n)), "{n:?}");
        }
        for c in (0..0x20u8).map(char::from).chain(['"', '\\', '\u{2028}', 'é']) {
            let s = Json::str(format!("a{c}b{c}"));
            assert_eq!(s.to_string(), oracle(&s), "{c:?}");
        }
        assert_eq!(Json::str("").to_string(), "\"\"");
        let mut rng = Rng(42);
        for case in 0..3_000 {
            let tree = random_tree(&mut rng, 4);
            let want = oracle(&tree);
            assert_eq!(tree.to_string(), want, "case {case}: {tree:?}");
            let mut buf = String::new();
            tree.write_into(&mut buf);
            assert_eq!(buf, want, "case {case}");
        }
    }

    /// `v` with what the writer cannot give back as written: a `Raw`
    /// fragment parses as the value it spells, a non-finite number as
    /// `null`.
    fn parseable(v: Json) -> Json {
        match v {
            Json::Number(n) if !n.is_finite() => Json::Null,
            Json::Raw(text) => Json::parse(&text).unwrap(),
            Json::Array(a) => Json::Array(a.into_iter().map(parseable).collect()),
            Json::Object(m) => {
                Json::Object(m.into_iter().map(|(k, v)| (k, parseable(v))).collect())
            }
            v => v,
        }
    }

    #[test]
    fn parse_inverts_the_writer() {
        let mut rng = Rng(7);
        for case in 0..3_000 {
            let tree = parseable(random_tree(&mut rng, 4));
            let text = tree.to_string();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&tree), "case {case}: {text}");
        }
    }

    /// Any input is an `Ok` or an `Err`, never a panic: arbitrary chars,
    /// and garbage made of JSON's own punctuation, which reaches the
    /// recursive paths.
    #[test]
    fn parse_is_total() {
        const SHAPED: &[char] = &[
            '[', ']', '{', '}', '"', ',', ':', '0', '7', 'a', 'e', 'E', '+', '-', '.', ' ', '\\',
            'n', 'u', 't',
        ];
        let mut rng = Rng(11);
        for _ in 0..5_000 {
            let garbage: String = (0..rng.below(64))
                .map(|_| match rng.below(3) {
                    0 => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                    _ => rng.pick(SHAPED),
                })
                .collect();
            let _ = Json::parse(&garbage);
        }
    }

    #[test]
    fn object_writer_reads_like_the_tree() {
        let mut buf = String::new();
        let mut o = ObjectWriter::new(&mut buf);
        o.num("a", 1.0).str("b", "x\n").bool("c", false);
        array_into(o.key("d"), [1.0, 2.5], number_into);
        o.close();
        let tree = Json::obj([
            ("d", Json::arr([Json::num(1.0), Json::num(2.5)])),
            ("c", Json::Bool(false)),
            ("b", Json::str("x\n")),
            ("a", Json::num(1.0)),
        ]);
        assert_eq!(buf, tree.to_string());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of order")]
    fn object_writer_refuses_keys_out_of_order() {
        let mut buf = String::new();
        ObjectWriter::new(&mut buf).num("id", 1.0).num("edges", 2.0);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = Json::obj([("x", Json::num(bad))]).to_string();
            assert_eq!(s, "{\"x\":null}");
            // Round-trips: the output is still valid JSON.
            assert!(Json::parse(&s).is_ok(), "{s}");
        }
    }
}
