//! The workspace's one JSON report model: a small typed tree, its reader
//! and its writer.
//!
//! Every report in this repository (sweeps, campaigns, metrics-only
//! replays, obs summaries, `trace stat`) is built as a [`Json`] tree and
//! rendered by this module, and analysis tools (`obs report`) read the
//! same reports back with [`Json::parse`] — no JSON dependency enters
//! the workspace.
//!
//! * **Reader.** A plain recursive-descent parser over the full JSON
//!   grammar. Objects keep their field order (reports have fixed field
//!   order, and diffs read better that way), an integer literal that
//!   fits in `u64` stays exact as [`Json::Int`] (seeds exceed 2^53),
//!   every other number is an `f64`, and duplicate keys resolve to the
//!   first occurrence. Nesting is capped at [`MAX_DEPTH`] so hostile
//!   input fails with an error instead of exhausting the stack.
//! * **Writer.** [`Json::render`] is compact: integers as written, floats
//!   via `{:?}` (shortest round-trip; non-finite values become `null`),
//!   strings through one escaper. [`Json::render_report`] adds the
//!   report envelope on top: top-level members one per line, and a
//!   top-level non-empty array of objects one element per line. Output
//!   is a pure function of the tree, so equal trees render to equal
//!   bytes, and `render_report(parse(report)) == report` for every
//!   report this module wrote.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts (reports nest
/// about 6 levels deep).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits in `u64`, held exactly.
    Int(u64),
    /// Any other number (held as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Member `key` of an object (first occurrence), if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in source order, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Appends member `key` to an object, converting `value` with
    /// [`Json::from`].
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            _ => panic!("Json::push on a non-object"),
        }
    }

    /// An array of `items`, each converted with [`Json::from`].
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value compactly (no whitespace at all).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders a whole report: an object's members one per line at
    /// 2-space indent, a member that is a non-empty array of objects with
    /// one element per line at 4-space indent, everything else compact,
    /// and a trailing newline.
    pub fn render_report(&self) -> String {
        let Json::Obj(members) = self else {
            return self.render() + "\n";
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str("  ");
            write_str(&mut out, key);
            out.push_str(": ");
            match value {
                Json::Arr(items)
                    if !items.is_empty() && items.iter().all(|v| matches!(v, Json::Obj(_))) =>
                {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str(if j == 0 { "    " } else { ",\n    " });
                        item.write(&mut out);
                    }
                    out.push_str("\n  ]");
                }
                _ => value.write(&mut out),
            }
            out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(n) => write!(out, "{n}").unwrap(),
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a quoted JSON string: `"`, `\` and newline get their
/// short escapes, every other control character a `\u00XX` escape.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds a [`Json::Obj`] from `"key": value` pairs in the given order,
/// converting each value with [`Json::from`].
#[macro_export]
macro_rules! json_obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $((::std::string::String::from($key), $crate::json::Json::from($value))),*
        ])
    };
}

macro_rules! from_impls {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
from_impls! {
    u64 => |n| Json::Int(n),
    u32 => |n| Json::Int(n.into()),
    usize => |n| Json::Int(n as u64),
    f64 => |x| Json::Num(x),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    &String => |s| Json::Str(s.clone()),
    String => |s| Json::Str(s),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::arr(items)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
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
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in our own reports;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character; `pos` only ever stops
                    // on ASCII structure bytes, so it is a char boundary.
                    let c = self.text[self.pos..].chars().next().unwrap();
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
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_dialect() {
        let doc = r#"{
  "format_version": 2,
  "base_seed": 42,
  "scenarios": [
    {"name":"a","metrics":{"aggregate_ipc":1.25,"flips":0}},
    {"name":"b","error":"no \"config\""}
  ]
}
"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("format_version").unwrap().as_u64(), Some(2));
        let scenarios = v.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(
            scenarios[0]
                .get("metrics")
                .unwrap()
                .get("aggregate_ipc")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(
            scenarios[1].get("error").unwrap().as_str(),
            Some("no \"config\"")
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn numbers_and_literals() {
        assert_eq!(Json::parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("1e999").unwrap().as_u64(), None);
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7").unwrap().as_f64(), Some(7.0));
        assert_eq!(Json::parse("7.0").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
    }

    #[test]
    fn integers_beyond_2_pow_53_stay_exact() {
        let seed = 18_236_358_221_596_474_284u64;
        let v = Json::parse(&seed.to_string()).unwrap();
        assert_eq!(v, Json::Int(seed));
        assert_eq!(v.as_u64(), Some(seed));
        assert_eq!(v.render(), seed.to_string());
        // One past u64::MAX no longer fits: it is a float.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn compact_rendering() {
        let v = json_obj! {
            "i": 3u64,
            "f": 0.25,
            "whole": 2.0,
            "nan": f64::NAN,
            "s": "a\"b\\c\nd\u{1}",
            "none": None::<u64>,
            "list": vec![1u64, 2],
            "empty": Json::Arr(vec![]),
            "flag": true,
        };
        assert_eq!(
            v.render(),
            r#"{"i":3,"f":0.25,"whole":2.0,"nan":null,"s":"a\"b\\c\nd\u0001","none":null,"list":[1,2],"empty":[],"flag":true}"#
        );
    }

    #[test]
    fn report_envelope_layout() {
        let v = json_obj! {
            "format_version": 2u64,
            "rows": vec![json_obj! {"a": 1u64}, json_obj! {"a": 2u64}],
            "none": Json::Arr(vec![]),
            "ints": vec![1u64, 2],
            "totals": json_obj! {"x": 1u64},
        };
        assert_eq!(
            v.render_report(),
            "{\n  \"format_version\": 2,\n  \"rows\": [\n    {\"a\":1},\n    {\"a\":2}\n  ],\n  \
             \"none\": [],\n  \"ints\": [1,2],\n  \"totals\": {\"x\":1}\n}\n"
        );
    }

    #[test]
    fn rendering_is_a_fixed_point_of_parsing() {
        let v = json_obj! {
            "seed": u64::MAX,
            "x": 1e300,
            "y": -0.5,
            "tiny": 5e-324,
            "s": "tab\there \u{7f} é",
            "rows": vec![json_obj! {"nested": vec![json_obj! {}]}],
        };
        for text in [v.render(), v.render_report()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, v);
            assert_eq!(back.render(), v.render());
            assert_eq!(back.render_report(), v.render_report());
        }
    }

    #[test]
    fn escapes_decode() {
        let v = Json::parse(r#""a\n\tA\\""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\tA\\"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past any stack budget: an error, not an abort.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }
}
