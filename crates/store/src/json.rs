//! A self-contained JSON value type, parser and serializer.
//!
//! MISCELA's output format is JSON (Section 3.4); the store persists
//! documents as JSON lines; the server's responses are JSON. This module
//! implements the subset of JSON needed for those paths: the full value
//! model, a recursive-descent parser with escape handling, and compact /
//! pretty serializers. Numbers are stored as `f64`, which is sufficient for
//! sensor measurements, counts and parameters.
//!
//! Most numbers the system writes and reads are integers (sensor indexes,
//! timestamps, supports, revisions), so both directions have an integer
//! fast path: [`write_number`] appends an integer's digits without
//! allocating, and the parser reads a plain integer of at most 15 digits,
//! which `f64` holds exactly, without `str::parse::<f64>`. Both give the
//! same bytes and bits as the general path.
//!
//! Strings are copied in runs. The writer and the parser find the next
//! byte that ends a run (`"`, `\`, and for the writer a control byte) eight
//! bytes at a time, with `u64` arithmetic on each word, and copy the run
//! whole; long strings such as `data.csv` chunk bodies stop only at their
//! line breaks. The bytes written and the strings parsed are those of a
//! byte-at-a-time loop.
//!
//! [`Json::Raw`] holds compact text that this process wrote itself, such as
//! a cached CAP set's encoding, so it can be embedded in a response or a
//! stored document without rebuilding a tree. Both serializers copy it
//! verbatim; [`Json::parse`] never returns it, so parsed input is always a
//! tree.
//!
//! The parser reads untrusted bytes (request bodies, WAL records, persisted
//! store files), so its recursion is bounded by [`MAX_DEPTH`]: deeper input
//! is a [`JsonError`], never a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// How deeply arrays and objects may nest in a parsed document. Every
/// document the system writes stays within single digits; the bound keeps
/// hostile input such as 200,000 `[` bytes from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// The longest plain integer the parser reads without `str::parse::<f64>`:
/// every integer of at most 15 digits is below 2^53, so `f64` holds it
/// exactly.
const FAST_INTEGER_DIGITS: usize = 15;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys (deterministic serialization).
    Object(BTreeMap<String, Json>),
    /// Compact JSON text this process wrote itself, copied verbatim by both
    /// serializers. Only the process's own writers make it (for example
    /// `miscela_cache::codec::capset_to_text`); [`Json::parse`] never
    /// returns it. The accessors treat it as opaque, and it equals only the
    /// same text: to read inside it, serialize and parse.
    Raw(Arc<str>),
}

impl Json {
    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Builds an object from key/value pairs.
    pub fn from_pairs<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Returns the value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number rounded to i64, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|n| n.round() as i64)
    }

    /// Returns the value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable object access.
    pub fn as_object_mut(&mut self) -> Option<&mut BTreeMap<String, Json>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Member access for objects: `json.get("field")`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Inserts a field (only meaningful on objects; other variants are
    /// converted to an object containing just the new field).
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        if !matches!(self, Json::Object(_)) {
            *self = Json::object();
        }
        if let Json::Object(o) = self {
            o.insert(key.into(), value);
        }
    }

    /// Serializes to compact JSON.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact JSON text to `out`.
    pub(crate) fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serializes to pretty-printed JSON with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Raw(text) => out.push_str(text),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(p.pos, "trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Number(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(x) => x.into(),
            None => Json::Null,
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

/// Formats a number the way JSON expects (integers without a fraction).
/// [`write_number`] appends the same bytes.
pub fn format_number(n: f64) -> String {
    if n.is_nan() || n.is_infinite() {
        // JSON has no NaN/Infinity; store represents them as null at a higher
        // level, but be defensive here.
        return "null".to_string();
    }
    if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        s
    }
}

/// Appends a number as [`format_number`] formats it, writing an integer's
/// digits without allocating.
pub fn write_number(out: &mut String, n: f64) {
    if n.is_nan() || n.is_infinite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        write_integer(out, n as i64);
    } else {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{n}");
    }
}

/// Appends an integer's decimal digits.
fn write_integer(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn write_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    // Copy unescaped runs whole: only `"`, `\` and control bytes (all ASCII,
    // so never inside a multi-byte character) end a run.
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        let end = run_end(bytes, run, true);
        out.push_str(&s[run..end]);
        let Some(&b) = bytes.get(end) else { break };
        run = end + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push('"');
}

/// `0x01` in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;
/// The low seven bits of every byte of a word.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
/// The high bit of every byte of a word.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `word` that equals `b`, and no other bit.
/// Exact: adding to the low seven bits of a byte never carries into the
/// next byte.
fn bytes_equal(word: u64, b: u8) -> u64 {
    let diff = word ^ (ONES * u64::from(b));
    !(((diff & LOW7) + LOW7) | diff) & HIGH
}

/// The high bit of each byte of `word` below 0x20, and no other bit.
fn bytes_below_space(word: u64) -> u64 {
    !(((word & LOW7) + ONES * 0x60) | word) & HIGH
}

/// The end of the run of plain string bytes starting at `from`: the offset
/// of the next `"` or `\`, or, when `controls`, of the next byte below
/// 0x20; `bytes.len()` if there is none. Tests eight bytes per step as one
/// `u64`. Every byte it stops at is ASCII, so a run starts and ends on
/// character boundaries.
#[inline]
fn run_end(bytes: &[u8], from: usize, controls: bool) -> usize {
    let rest = bytes.get(from..).unwrap_or_default();
    let (words, tail) = rest.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let mut stops = bytes_equal(word, b'"') | bytes_equal(word, b'\\');
        if controls {
            stops |= bytes_below_space(word);
        }
        if stops != 0 {
            // Little-endian load: the lowest flagged byte comes first.
            return from + i * 8 + (stops.trailing_zeros() / 8) as usize;
        }
    }
    let tail_start = bytes.len() - tail.len();
    tail.iter()
        .position(|&b| b == b'"' || b == b'\\' || (controls && b < 0x20))
        .map_or(bytes.len(), |i| tail_start + i)
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl JsonError {
    fn new(position: usize, message: impl Into<String>) -> Self {
        JsonError {
            position,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open; bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                format!("expected {:?}", b as char),
            ))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(JsonError::new(
                self.pos,
                format!("unexpected {:?}", c as char),
            )),
            None => Err(JsonError::new(self.pos, "unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(JsonError::new(self.pos, format!("expected {kw}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        // May wrap beyond 19 digits; only values of at most 15 are used.
        let mut value = 0u64;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            value = value.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - digits_start;
        if (1..=FAST_INTEGER_DIGITS).contains(&digits)
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            // Exact in f64, so this is the value `str::parse` would give,
            // `-0` included.
            let n = value as f64;
            return Ok(Json::Number(if negative { -n } else { n }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new(start, "invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError::new(start, format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole; raw
            // control bytes are accepted as they are.
            let run = self.pos;
            self.pos = run_end(self.bytes, run, false);
            out.push_str(&self.input[run..self.pos]);
            match self.peek() {
                None => return Err(JsonError::new(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    self.parse_escape(&mut out)?;
                }
            }
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn parse_escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(esc) = self.peek() else {
            return Err(JsonError::new(self.pos, "unterminated escape"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'u' => {
                if self.pos + 4 > self.bytes.len() {
                    return Err(JsonError::new(self.pos, "truncated \\u escape"));
                }
                let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                    .map_err(|_| JsonError::new(self.pos, "invalid \\u escape"))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| JsonError::new(self.pos, "invalid \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are unlikely in our data; map lone
                // surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            other => {
                return Err(JsonError::new(
                    self.pos,
                    format!("invalid escape \\{}", other as char),
                ))
            }
        }
        Ok(())
    }

    /// Opens one array or object level, failing beyond [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(JsonError::new(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

/// The byte-at-a-time string loops the word scans replaced, retained
/// verbatim as the equivalence oracle. Only compiled into test builds.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The original escaper: tests every byte for a run end.
    pub(crate) fn write_escaped(out: &mut String, s: &str) {
        out.reserve(s.len() + 2);
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => out.push_str(&format!("\\u{b:04x}")),
            }
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// The original string parser, advancing one byte at a time: reads
    /// the string literal at the start of `input` and returns it with the
    /// offset after its closing quote.
    pub(crate) fn parse_string(input: &str) -> Result<(String, usize), JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = p.pos;
            while !matches!(p.peek(), None | Some(b'"') | Some(b'\\')) {
                p.pos += 1;
            }
            out.push_str(&p.input[run..p.pos]);
            match p.peek() {
                None => return Err(JsonError::new(p.pos, "unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok((out, p.pos));
                }
                _ => {
                    p.pos += 1;
                    p.parse_escape(&mut out)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Parser::parse_string` on the string literal at the start of
    /// `input`, with the offset after it, in the reference's shape.
    fn parse_string(input: &str) -> Result<(String, usize), JsonError> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let s = p.parse_string()?;
        Ok((s, p.pos))
    }

    /// Holds the word scans to the byte loops on `s`: the writer's bytes,
    /// the round trip, and the parser on `s` escaped and raw, closed and
    /// unterminated (same value, end offset or error position).
    fn assert_matches_reference(s: &str) {
        let mut written = String::new();
        write_escaped(&mut written, s);
        let mut expected = String::new();
        reference::write_escaped(&mut expected, s);
        assert_eq!(written, expected, "writer on {s:?}");
        assert_eq!(Json::parse(&written), Ok(Json::String(s.to_string())));
        let unterminated = &written[..written.len() - 1];
        for input in [
            written.clone(),
            unterminated.to_string(),
            format!("\"{s}\""),
            format!("\"{s}"),
        ] {
            assert_eq!(
                parse_string(&input),
                reference::parse_string(&input),
                "parser on {input:?}"
            );
        }
    }

    #[test]
    fn word_scans_match_the_byte_loops_at_every_offset() {
        let specials: Vec<char> = (0u8..0x20).chain([b'"', b'\\']).map(char::from).collect();
        for &special in &specials {
            for pad in ['a', 'é', '大', '𝄞'] {
                for offset in 0..24 {
                    // Multi-byte padding first or last, so a character
                    // both straddles word boundaries and sits right
                    // before the special byte.
                    let ascii = offset % pad.len_utf8();
                    let wide = String::from(pad).repeat(offset / pad.len_utf8());
                    let fill = "x".repeat(ascii);
                    for prefix in [format!("{wide}{fill}"), format!("{fill}{wide}")] {
                        assert_eq!(prefix.len(), offset);
                        for suffix in [0, 1, 7, 8, 9, 17] {
                            let mut s = prefix.clone();
                            s.push(special);
                            s.extend(std::iter::repeat_n(pad, suffix));
                            assert_matches_reference(&s);
                        }
                    }
                }
            }
        }
        // Two special bytes at any pair of offsets.
        let pairs = ['"', '\\', '\n', '\u{0}', '\u{1f}'];
        for first in pairs {
            for second in pairs {
                for i in 0..24 {
                    for j in i + 1..24 {
                        let mut s: Vec<char> = std::iter::repeat_n('a', 26).collect();
                        s[i] = first;
                        s[j] = second;
                        assert_matches_reference(&s.into_iter().collect::<String>());
                    }
                }
            }
        }
        for s in ["", "a", "\u{7f}", "é", "0123456789abcdef", "01234567\\"] {
            assert_matches_reference(s);
        }
        // Near misses never end a run: 0x20 and the bytes beside `"` and
        // `\`, and multi-byte characters holding a special byte's value
        // with the high bit set (`¢` holds 0xa2, U+071C 0xdc, U+0085 0x85).
        for near in [' ', '!', '#', '[', ']', '\u{7f}', '\u{85}', '¢', '\u{71c}'] {
            for offset in 0..24 {
                let mut s = "a".repeat(offset);
                s.push(near);
                s.push_str("0123456789");
                assert_matches_reference(&s);
                s.push('"');
                assert_matches_reference(&s);
            }
        }
    }

    #[test]
    fn unterminated_strings_fail_at_the_end() {
        for input in ["\"", "\"abc", "\"0123456789abcdef", "\"a\\\"", "\"é\\n大"] {
            let err = parse_string(input).unwrap_err();
            assert_eq!(err.position, input.len(), "{input:?}");
            assert_eq!(Err(err), reference::parse_string(input));
        }
        // A raw control byte does not end a string.
        assert_eq!(parse_string("\"a\nb\tc\"x"), Ok(("a\nb\tc".to_string(), 7)));
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Number(-350.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parse_nested_structure() {
        let doc = r#"{"dataset":"santander","params":{"epsilon":0.5,"psi":10},"caps":[[0,1],[2,3,4]],"ok":true,"note":null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("dataset").unwrap().as_str(), Some("santander"));
        let params = v.get("params").unwrap();
        assert_eq!(params.get("epsilon").unwrap().as_f64(), Some(0.5));
        assert_eq!(params.get("psi").unwrap().as_i64(), Some(10));
        let caps = v.get("caps").unwrap().as_array().unwrap();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[1].as_array().unwrap().len(), 3);
        assert!(v.get("note").unwrap().is_null());
        assert_eq!(v.get("missing"), None);
        assert_eq!(params.get("missing"), None);
    }

    #[test]
    fn parse_string_escapes() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn parse_unicode_passthrough() {
        let v = Json::parse("\"大阪 Santander\"").unwrap();
        assert_eq!(v.as_str(), Some("大阪 Santander"));
    }

    #[test]
    fn parse_errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(200_000);
        let err = Json::parse(&arrays).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.position, MAX_DEPTH + 1);
        let objects = "{\"a\":".repeat(200_000);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &Json::parse(&at_limit).unwrap();
        for _ in 1..MAX_DEPTH {
            v = &v.as_array().unwrap()[0];
        }
        assert_eq!(v, &Json::Array(Vec::new()));
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
        // The bound is on open levels: closed siblings do not add up.
        let siblings = format!("[{at_limit},{at_limit}]");
        assert!(Json::parse(&siblings).is_err());
        let inner = &at_limit[1..at_limit.len() - 1];
        assert!(Json::parse(&format!("[{inner},{inner}]")).is_ok());
    }

    #[test]
    fn strings_round_trip_runs_escapes_and_multibyte() {
        for s in [
            "",
            "plain run",
            "\"quoted\" and \\ back\\slash",
            "tab\tnew\nline\rcr\u{0}nul\u{1f}unit\u{7f}del",
            "大阪 Santander ✓ 𝄞",
            "id,attribute,time,data\n00000,temperature,2016-03-01 00:00:00,null\n",
        ] {
            let encoded = Json::from(s).to_string_compact();
            assert!(!encoded[1..encoded.len() - 1].bytes().any(|b| b < 0x20));
            assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(s));
        }
        assert_eq!(Json::from("\u{1}").to_string_compact(), "\"\\u0001\"");
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let doc = r#"{"b":[1,2,{"c":"x, y","d":null}],"a":-1.25,"e":{}}"#;
        let v = Json::parse(doc).unwrap();
        let compact = v.to_string_compact();
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
        assert!(!compact.contains('\n'));
    }

    #[test]
    fn object_keys_sorted_deterministically() {
        let v = Json::from_pairs([("zeta", Json::from(1i64)), ("alpha", Json::from(2i64))]);
        assert_eq!(v.to_string_compact(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(-0.5), "-0.5");
        assert_eq!(format_number(f64::NAN), "null");
        assert_eq!(
            Json::Number(1e20).to_string_compact(),
            "100000000000000000000"
        );
    }

    #[test]
    fn raw_text_is_written_verbatim() {
        let raw = Json::Raw(Arc::from(r#"[{"a":1}]"#));
        let doc = Json::from_pairs([("caps", raw.clone()), ("n", Json::from(1i64))]);
        assert_eq!(doc.to_string_compact(), r#"{"caps":[{"a":1}],"n":1}"#);
        assert!(doc.to_string_pretty().contains(r#""caps": [{"a":1}]"#));
        // Parsing gives the tree back, never the raw variant.
        let parsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(
            parsed.get("caps"),
            Some(&Json::parse(r#"[{"a":1}]"#).unwrap())
        );
        assert_eq!(raw.as_array(), None);
    }

    #[test]
    fn from_impls_and_set() {
        let mut v = Json::object();
        v.set("name", "santander".into());
        v.set("count", 552usize.into());
        v.set("flags", vec![true, false].into());
        v.set("maybe", Option::<i64>::None.into());
        assert_eq!(v.get("name").unwrap().as_str(), Some("santander"));
        assert_eq!(v.get("count").unwrap().as_i64(), Some(552));
        assert_eq!(v.get("flags").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("maybe").unwrap().is_null());
        // set on a non-object converts it
        let mut s = Json::from("x");
        s.set("k", Json::Null);
        assert!(s.as_object().is_some());
    }

    #[test]
    fn display_matches_compact() {
        let v = Json::from_pairs([("a", Json::from(1i64))]);
        assert_eq!(format!("{v}"), v.to_string_compact());
    }
}
