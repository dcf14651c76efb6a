//! A minimal, dependency-free JSON reader/writer.
//!
//! Manifests, job-log lines, and server replies are all JSON; the workspace
//! is deliberately dependency-free, so this module provides the one parser
//! they share. Numbers keep their raw token (no float round-trip), so u64
//! seeds and byte counts survive parsing exactly; objects keep insertion
//! order, so re-rendering a parsed document is deterministic.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep the raw source token so integer
/// payloads (64-bit seeds, byte counts, content hashes) never go through a
/// lossy float.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, stored as its raw token (`"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match, `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integer number token.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an f64 number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), deterministically:
    /// object fields keep their stored order, numbers re-emit their raw
    /// token.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Arrays and objects nested deeper than this are an error. Every document
/// the workspace reads nests a handful of levels; the cap bounds the
/// parser's recursion, so no input line can overflow a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry the byte offset and a short
/// description; trailing non-whitespace after the document and nesting
/// deeper than [`MAX_DEPTH`] are errors. The cost is linear in the input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    if matches!(b, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b {
        b'n' => lit(bytes, pos, "null", Value::Null),
        b't' => lit(bytes, pos, "true", Value::Bool(true)),
        b'f' => lit(bytes, pos, "false", Value::Bool(false)),
        b'"' => Ok(Value::Str(parse_string(text, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte {other:#x} at byte {pos}")),
    }
}

fn lit(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if raw.parse::<f64>().is_err() {
        return Err(format!("bad number {raw:?} at byte {start}"));
    }
    Ok(Value::Num(raw.to_owned()))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
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
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("bad low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy the run up to the next quote or backslash verbatim.
                // Both are ASCII, so the run ends on a char boundary, and
                // `pos` sits on one here: after a quote or an escape.
                let rest = &text[*pos..];
                let run = rest
                    .bytes()
                    .position(|b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(&rest[..run]);
                *pos += run;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = pos.checked_add(4).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err("truncated \\u escape".into());
    };
    let hex = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
    *pos = end;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let src = r#"{"a":[1,2.5,-3e2],"b":"x\"\\\n","c":null,"d":true,"e":{}}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"\\\n"));
    }

    #[test]
    fn big_integers_survive_exactly() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_json(), "18446744073709551615");
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("nul").is_err());
    }

    /// `n` nested arrays, or `n` nested objects around a number.
    fn nested(n: usize, objects: bool) -> String {
        if objects {
            format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n))
        } else {
            "[".repeat(n) + &"]".repeat(n)
        }
    }

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        assert!(parse(&nested(MAX_DEPTH, false)).is_ok());
        assert!(parse(&nested(MAX_DEPTH, true)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1, false)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        assert!(parse(&nested(MAX_DEPTH + 1, true)).is_err());
        // A spawned thread's default stack is 2 MiB; uncapped recursion
        // overflowed it at 10,000 levels and aborted the process.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let arrays = parse(&nested(100_000, false));
                let objects = parse(&nested(100_000, true));
                (arrays.is_err(), objects.is_err())
            })
            .expect("spawn")
            .join()
            .expect("the parser must not overflow a 2 MiB stack");
        assert_eq!(deep, (true, true));
    }

    #[test]
    fn long_multibyte_strings_round_trip() {
        let s: String = "aé😀\"\\\nz".chars().cycle().take(1 << 20).collect();
        let v = Value::Str(s);
        assert_eq!(parse(&v.to_json()), Ok(v));
    }

    /// Every committed JSON document the workspace reads back: the golden
    /// canonical rows and the perf ledger.
    #[test]
    fn committed_documents_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let golden = root.join("crates/bench/tests/golden");
        let mut fixtures = 0;
        for entry in std::fs::read_dir(&golden).expect("golden dir") {
            let path = entry.expect("golden entry").path();
            let text = std::fs::read_to_string(&path).expect("read fixture");
            parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            fixtures += 1;
        }
        assert!(fixtures >= 10, "found {fixtures} golden fixtures");
        let history = std::fs::read_to_string(root.join("BENCH_history.jsonl")).expect("ledger");
        for (i, line) in history.lines().enumerate() {
            parse(line).unwrap_or_else(|e| panic!("BENCH_history.jsonl line {}: {e}", i + 1));
        }
    }
}
