//! A minimal JSON reader/writer for the bench tooling.
//!
//! `bench-diff` has to parse what `figures --json` and the
//! `BENCH_figures.json` self-profile emit, and the figures binary has
//! to carry the perf trajectory forward across rewrites of that file —
//! all in an offline build with no serde. This module implements just
//! enough of RFC 8259 for those documents: objects keep member order,
//! and numbers keep their original text (`Num::raw`) so re-emission
//! never changes a byte of a value we merely pass through.

/// A parsed JSON value. Object members stay in document order;
/// numbers carry both the parsed `f64` and the exact source text.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: exact source text plus its parsed value.
    Num {
        /// The token exactly as it appeared in the document.
        raw: String,
        /// The token parsed as `f64`.
        val: f64,
    },
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key, if this is an object and has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num { val, .. } => Some(*val),
            _ => None,
        }
    }

    /// The numeric payload as an exact `u64`, if this is a
    /// non-negative integer that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num { raw, .. } => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A number value whose raw text is its canonical base-10 form.
    pub fn num_u64(v: u64) -> Value {
        Value::Num {
            raw: v.to_string(),
            val: v as f64,
        }
    }

    /// A number value formatted like the figure emitter (`{v:?}`,
    /// which round-trips `f64` exactly).
    pub fn num_f64(v: f64) -> Value {
        Value::Num {
            raw: format!("{v:?}"),
            val: v,
        }
    }
}

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos]).unwrap().to_string();
            let val: f64 = raw
                .parse()
                .map_err(|_| format!("bad number '{raw}' at byte {start}"))?;
            Ok(Value::Num { raw, val })
        }
        Some(c) => Err(format!("unexpected byte '{}' at {}", *c as char, *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs never appear in our documents;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte sequences are
                // opaque to the scanner above).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Append `v` as compact JSON. Numbers re-emit their exact source
/// text, so a parse → write round trip never perturbs a value.
pub fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        Value::Num { raw, .. } => out.push_str(raw),
        Value::Str(s) => crate::json::push_str_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                crate::json::push_str_escaped(out, k);
                out.push(':');
                write_compact(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_documents_and_accessors_work() {
        let doc = r#"{"id": "fig1a", "n": 42, "mean": 2.5, "ok": true,
                      "none": null, "xs": [1, 2, 3]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig1a"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("mean").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn strings_unescape() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn numbers_round_trip_their_source_text() {
        let doc = "[1, 2.5, 8000.0, 0.123, -7, 1e3]";
        let v = parse(doc).unwrap();
        let mut out = String::new();
        write_compact(&mut out, &v);
        assert_eq!(out, "[1,2.5,8000.0,0.123,-7,1e3]");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parses_real_figure_json() {
        let doc = "[\n  {\n    \"id\": \"f\",\n    \"series\": [\n      {\"label\": \"base\", \"points\": [\n        [4, 8000.0],\n        [8, 2.5]\n      ]}\n    ]\n  }\n]\n";
        let v = parse(doc).unwrap();
        let figs = v.as_arr().unwrap();
        let pts = figs[0].get("series").unwrap().as_arr().unwrap()[0]
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].as_arr().unwrap()[1].as_f64(), Some(8000.0));
    }
}
