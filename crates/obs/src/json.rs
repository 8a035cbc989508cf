//! Minimal JSON support: the [`Json`] value, its writer ([`Json::render`])
//! and a small recursive-descent parser ([`parse`]).
//!
//! Every file the repository persists — run manifests, `BENCH_repro.json`,
//! strict-abort health dumps, `runs list --json` — is built as a [`Json`]
//! value and written by [`Json::render`]; the parser reads them back and
//! validates emitted JSON-lines (tests, the `trace_check` tool, and
//! `results/verify.sh`). The event sink's hot-path line writer skips the
//! tree and appends with [`escape_into`] / [`number_into`] directly.

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Appends a JSON number for `v`; non-finite values become `null`.
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A JSON value, as [`parse`] returns it and [`Json::render`] writes it.
/// Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; non-finite values are written as `null`.
    Num(f64),
    /// An unsigned integer, written with all its digits (an `f64` holds
    /// integers exactly only up to 2^53). Write-only: [`parse`] reads every
    /// number as [`Json::Num`].
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value as JSON text, with `", "` between members and `": "` after
    /// keys. Objects, and arrays holding objects or arrays, break one member
    /// per line (two-space indent) for the outermost `levels` levels;
    /// deeper values and arrays of scalars stay on one line, so
    /// `render(0)` is a single line.
    pub fn render(&self, levels: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, levels, 0);
        out
    }

    fn write(&self, out: &mut String, levels: usize, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => number_into(out, *v),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                let nested = items.iter().any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let members = items.iter().map(|v| (None, v));
                write_members(out, ('[', ']'), members, nested && depth < levels, levels, depth);
            }
            Json::Obj(members) => {
                let broken = !members.is_empty() && depth < levels;
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, ('{', '}'), members, broken, levels, depth);
            }
        }
    }
}

/// Writes a bracketed member list: keyed for objects, bare for arrays.
fn write_members<'a>(
    out: &mut String,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    broken: bool,
    levels: usize,
    depth: usize,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
            if !broken {
                out.push(' ');
            }
        }
        if broken {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        value.write(out, levels, depth + 1);
    }
    if broken {
        newline(out, depth);
    }
    out.push(close);
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::U64(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<&[f64]> for Json {
    fn from(values: &[f64]) -> Self {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` becomes `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Parses one complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
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
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source slice.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let mut line = String::from("{\"k\":");
        escape_into(&mut line, nasty);
        line.push('}');
        let parsed = parse(&line).expect("parses");
        assert_eq!(parsed.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_parse_including_exponents() {
        let v = parse("[0, -1.5, 2e3, 6.02e-2]").unwrap();
        match v {
            Json::Arr(items) => {
                let nums: Vec<f64> = items.iter().map(|j| j.as_f64().unwrap()).collect();
                assert_eq!(nums, vec![0.0, -1.5, 2000.0, 0.0602]);
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let mut s = String::new();
        number_into(&mut s, f64::NAN);
        s.push(',');
        number_into(&mut s, f64::INFINITY);
        s.push(',');
        number_into(&mut s, 1.25);
        assert_eq!(s, "null,null,1.25");
    }

    #[test]
    fn written_values_parse_back_equal() {
        let v = Json::obj([
            ("z", Json::obj([("b", Json::Arr(vec![])), ("a", Json::obj([]))])),
            ("nasty \"key\"\n", "a\"b\\c\nd\te\u{1}f — ünïcode".into()),
            ("nums", Json::from(&[0.0, -1.5, 2e-300, 6.02e23, 1e21][..])),
            (
                "mixed",
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::Bool(false),
                    Json::obj([("deep", Json::Arr(vec![Json::Arr(vec![1.0.into()])]))]),
                ]),
            ),
            ("a", "last key stays last".into()),
        ]);
        for levels in [0, 1, 2, 5] {
            let text = v.render(levels);
            assert_eq!(parse(&text), Ok(v.clone()), "levels {levels}:\n{text}");
        }
        assert!(!v.render(0).contains('\n'));
    }

    #[test]
    fn render_breaks_the_outer_levels_only() {
        let v = Json::obj([
            ("env", Json::obj([])),
            ("health", Json::obj([("verdict", "healthy".into()), ("violations", 0u64.into())])),
            ("rows", Json::Arr(vec![Json::obj([("id", 1u64.into())]), Json::obj([])])),
            ("series", Json::from(&[1.0, 0.5][..])),
        ]);
        assert_eq!(
            v.render(1),
            "{\n  \"env\": {},\n  \"health\": {\"verdict\": \"healthy\", \"violations\": 0},\n  \
             \"rows\": [{\"id\": 1}, {}],\n  \"series\": [1, 0.5]\n}"
        );
        assert_eq!(
            v.render(2),
            "{\n  \"env\": {},\n  \"health\": {\n    \"verdict\": \"healthy\",\n    \
             \"violations\": 0\n  },\n  \"rows\": [\n    {\"id\": 1},\n    {}\n  ],\n  \
             \"series\": [1, 0.5]\n}"
        );
    }

    #[test]
    fn writer_maps_non_finite_to_null_and_keeps_u64_digits() {
        let v = Json::Arr(vec![f64::NAN.into(), f64::INFINITY.into(), f64::NEG_INFINITY.into()]);
        assert_eq!(v.render(0), "[null, null, null]");
        let seed = u64::MAX - 1;
        let text = Json::obj([("seed", seed.into())]).render(0);
        assert_eq!(text, format!("{{\"seed\": {seed}}}"));
        assert_eq!(text, "{\"seed\": 18446744073709551614}");
        assert_eq!(Json::from(None::<f64>), Json::Null);
        assert_eq!(Json::from(Some("x")), Json::Str("x".into()));
    }

    #[test]
    fn objects_support_lookup_and_nesting() {
        let v = parse(r#"{"a": {"b": [1, true, null]}, "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let inner = v.get("a").unwrap().get("b").unwrap();
        assert_eq!(inner, &Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{} extra", "01a"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
