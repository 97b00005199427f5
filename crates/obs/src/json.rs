//! JSON value model, serializer and parser.
//!
//! The writer escapes per RFC 8259 (`"`/`\`, the short escapes, and
//! `\u00XX` for the remaining control characters) and renders non-finite
//! floats as `null` (JSON has no NaN/Infinity). The parser is a plain
//! recursive-descent parser over the full grammar, including `\uXXXX`
//! escapes with surrogate pairs, with a nesting-depth limit so hostile
//! inputs cannot blow the stack.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum array/object nesting accepted by the parser.
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Objects keep insertion order (a `Vec` of pairs, not a map) so emitted
/// artifacts are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers up to 2^53 render without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Conversion into the [`Json`] value model.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each item.
    pub fn arr<T: ToJson, I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(|x| x.to_json()).collect())
    }

    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index into an array; `None` out of range or on non-arrays.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes without whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }

    /// Parses a JSON document (must consume the entire input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

// ---------------------------------------------------------------- writer

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, level: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline(out, indent, level);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline(out, indent, level);
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, level: usize) {
    const SPACES: &str = "                                                                ";
    if let Some(width) = indent {
        out.push('\n');
        let mut left = width * level;
        while left > 0 {
            let run = left.min(SPACES.len());
            out.push_str(&SPACES[..run]);
            left -= run;
        }
    }
}

/// Non-finite values have no JSON representation and become `null`;
/// integral values within the f64-exact range print without a fraction.
fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write_integer(out, n as i64);
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        let _ = write!(out, "{n:?}");
    }
}

fn write_integer(out: &mut String, n: i64) {
    // Sign and the 19 digits of `i64::MIN`.
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
        at -= 1;
        digits[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between
    // them are whole characters and are copied as slices.
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "\\u",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        copied = i + 1;
        out.push_str(escape);
        if escape == "\\u" {
            let _ = write!(out, "{b:04x}");
        }
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

// ---------------------------------------------------------------- parser

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest run without escapes or terminators in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and the run breaks only at
                // ASCII bytes, so the slice falls on char boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

/// Conversion from the [`Json`] value model, the inverse of [`ToJson`].
///
/// Errors are plain strings naming what was expected — decoders layer
/// their own context on top.
pub trait FromJson: Sized {
    /// Decodes `v` into `Self`.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v}"))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_f64()
            .ok_or_else(|| format!("expected number, got {v}"))
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v}"))
    }
}

macro_rules! int_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("expected integer, got {v}"))?;
                <$t>::try_from(n).map_err(|_| format!("integer {n} out of range"))
            }
        }
    )*};
}
int_from_json!(u8, u16, u32, u64, usize);

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

// --------------------------------------------------------- ToJson impls

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let compact = Json::parse(&v.to_compact()).expect("compact parses");
        assert_eq!(&compact, v);
        let pretty = Json::parse(&v.to_pretty()).expect("pretty parses");
        assert_eq!(&pretty, v);
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.5),
            Json::Num(1e-9),
            Json::Num(1.0e18),
            Json::Str(String::new()),
            Json::Str("plain".into()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn escaping_round_trips_control_chars_quotes_and_unicode() {
        let nasty = "quote\" backslash\\ newline\n tab\t cr\r bell\u{7} nul\0 \
                     bs\u{8} ff\u{c} slash/ ünïcødé 💾 \u{2028}";
        let v = Json::Str(nasty.to_string());
        round_trip(&v);
        // Control characters never appear raw in the output.
        assert!(v.to_compact().chars().all(|c| c >= ' '));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_parse() {
        let parsed = Json::parse(r#""\u0041\u00e9\ud83d\ude00\u2028""#).unwrap();
        assert_eq!(parsed, Json::Str("A\u{e9}\u{1f600}\u{2028}".into()));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_compact(), "null");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_compact(), "42");
        assert_eq!(Json::Num(-3.0).to_compact(), "-3");
        assert_eq!(Json::Num(0.5).to_compact(), "0.5");
        assert_eq!(
            9_007_199_254_740_991u64.to_json().to_compact(),
            "9007199254740991"
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::Str("run".into())),
            ("ok", Json::Bool(true)),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("x".into())]),
            ),
            (
                "nested",
                Json::obj([
                    ("empty_arr", Json::Arr(vec![])),
                    ("empty_obj", Json::obj::<&str, _>([])),
                ]),
            ),
        ]);
        round_trip(&v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn accessors_navigate_documents() {
        let v = Json::parse(r#"{"a": [1, {"b": "c"}], "n": null, "t": true}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.at(0)).and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.at(1))
                .and_then(|o| o.get("b"))
                .and_then(Json::as_str),
            Some("c")
        );
        assert!(v.get("n").unwrap().is_null());
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            r#""unterminated"#,
            "01x",
            "{\"a\" 1}",
            "[1] garbage",
            r#""\ud800""#,
            r#""\q""#,
            "1.e5",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_enforces_depth_limit() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::obj([("a", Json::Arr(vec![Json::Num(1.0)]))]);
        assert_eq!(v.to_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    /// The writer as it was when it pushed one `char`, one space and
    /// one `fmt::Write` integer at a time.
    mod reference {
        use std::fmt::Write;

        pub fn newline(out: &mut String, indent: Option<usize>, level: usize) {
            if let Some(width) = indent {
                out.push('\n');
                for _ in 0..width * level {
                    out.push(' ');
                }
            }
        }

        pub fn write_number(out: &mut String, n: f64) {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n:?}");
            }
        }

        pub fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    '\u{8}' => out.push_str("\\b"),
                    '\u{c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    fn written(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn writer_matches_the_char_by_char_reference() {
        let mut strings: Vec<String> = (0u8..0x80).map(|b| char::from(b).to_string()).collect();
        strings.extend((0u8..0x80).map(|b| format!("añ{}→𝄞", char::from(b))));
        strings.extend(
            [
                "",
                "plain",
                "\"\"",
                "\\\\n",
                "tab\there",
                "ünï→𝄞",
                "\u{7f}\u{80}\u{9f}",
            ]
            .map(String::from),
        );
        strings.push((0u8..0x80).map(char::from).collect());
        for s in &strings {
            assert_eq!(
                written(|out| write_string(out, s)),
                written(|out| reference::write_string(out, s)),
                "{s:?}"
            );
        }
        let two_53 = 9_007_199_254_740_992.0;
        let numbers = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            -10.0,
            1e15,
            -1e15,
            1234567890123.0,
            two_53,
            -two_53,
            two_53 - 1.0,
            1.0 - two_53,
            two_53 + 2.0,
            1e300,
            -1e300,
            0.5,
            -0.5,
            0.1,
            1e-7,
            3.75,
            -123.456,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for n in numbers {
            assert_eq!(
                written(|out| write_number(out, n)),
                written(|out| reference::write_number(out, n)),
                "{n:?}"
            );
        }
        for level in 0..80 {
            for indent in [None, Some(0), Some(2), Some(3)] {
                assert_eq!(
                    written(|out| newline(out, indent, level)),
                    written(|out| reference::newline(out, indent, level)),
                    "{indent:?} × {level}"
                );
            }
        }
    }
}
