//! Vendored subset of `serde_json`: `to_string`, `to_string_pretty`,
//! and `from_str` over the mini-serde [`Value`] data model.

#![forbid(unsafe_code)]

use serde::{Number, Value};
use std::fmt;

/// Errors from JSON encoding/decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = serde::to_value(value).map_err(|e| Error::new(e.to_string()))?;
    let mut out = String::new();
    write_value(&mut out, &v)?;
    Ok(out)
}

/// Serializes `value` as indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = serde::to_value(value).map_err(|e| Error::new(e.to_string()))?;
    let mut out = String::new();
    write_value_pretty(&mut out, &v, 0)?;
    Ok(out)
}

/// Parses a `T` out of a JSON string.
pub fn from_str<T: serde::DeserializeOwned>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    serde::from_value(value).map_err(|e| Error::new(e.to_string()))
}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

fn write_number(out: &mut String, n: &Number) -> Result<(), Error> {
    match n {
        Number::U64(v) => out.push_str(&v.to_string()),
        Number::I64(v) => out.push_str(&v.to_string()),
        Number::F64(v) => {
            if !v.is_finite() {
                return Err(Error::new("cannot serialize non-finite float as JSON"));
            }
            // `{}` on f64 loses no information for round-tripping and
            // prints integers without an exponent; re-parsing treats
            // fraction-free numbers as integers, which the value-level
            // deserializer coerces back to float where needed. Negative
            // zero prints as "-0.0" so the re-parse stays a float and
            // the sign bit survives.
            if *v == 0.0 && v.is_sign_negative() {
                out.push_str("-0.0");
            } else {
                out.push_str(&v.to_string());
            }
        }
    }
    Ok(())
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, n)?,
        Value::String(s) => write_escaped(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) -> Result<(), Error> {
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_value_pretty(out, item, indent + 1)?;
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, val, indent + 1)?;
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push('}');
        }
        other => write_value(out, other)?,
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts — the real crate's
/// default recursion limit. Deeper input is a parse error instead of a
/// stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') | Some(b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "recursion limit exceeded at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.parse_seq()
                } else {
                    self.parse_map()
                };
                self.depth -= 1;
                value
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
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
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // printer; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty checked");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I64(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::F64(f)))
            .map_err(|_| Error::new(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(to_string("a\"b").unwrap(), "\"a\\\"b\"");
        assert_eq!(from_str::<String>("\"a\\\"b\"").unwrap(), "a\"b");
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1u64, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u64>>(&json).unwrap(), v);

        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        let json = to_string(&m).unwrap();
        assert_eq!(json, "{\"a\":1}");
        assert_eq!(from_str::<std::collections::BTreeMap<String, u64>>(&json).unwrap(), m);
    }

    #[test]
    fn options_and_tuples_round_trip() {
        assert_eq!(to_string(&Option::<u64>::None).unwrap(), "null");
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u64>>("5").unwrap(), Some(5));
        let t = (1u64, 2.5f64);
        assert_eq!(from_str::<(u64, f64)>(&to_string(&t).unwrap()).unwrap(), t);
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error() {
        let parse = |json: &str| {
            Parser {
                bytes: json.as_bytes(),
                pos: 0,
                depth: 0,
            }
            .parse_value()
        };
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
        // Objects count too, mixed with arrays.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH / 2 + 1);
        assert!(parse(&mixed).unwrap_err().to_string().contains("recursion limit"));
        // Far past the limit: an error, not a stack overflow.
        let err = from_str::<Vec<u8>>(&"[".repeat(200_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v: Vec<String> = from_str(" [ \"a\\n\" , \"\\u0041\" ] ").unwrap();
        assert_eq!(v, vec!["a\n".to_string(), "A".to_string()]);
    }

    #[test]
    fn pretty_prints_nested() {
        let v = vec![vec![1u64], vec![]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("[\n"));
        assert_eq!(from_str::<Vec<Vec<u64>>>(&s).unwrap(), v);
    }
}

#[cfg(test)]
mod derive_default_tests {
    use super::*;

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct WithDefault {
        required: u64,
        #[serde(default)]
        extra: u64,
        #[serde(default)]
        maybe: Option<String>,
    }

    #[test]
    fn missing_defaulted_fields_fall_back_to_default() {
        let v: WithDefault = from_str("{\"required\": 3}").unwrap();
        assert_eq!(
            v,
            WithDefault {
                required: 3,
                extra: 0,
                maybe: None,
            }
        );
    }

    #[test]
    fn present_defaulted_fields_still_parse_and_round_trip() {
        let v = WithDefault {
            required: 1,
            extra: 9,
            maybe: Some("x".into()),
        };
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<WithDefault>(&json).unwrap(), v);
    }

    #[test]
    fn missing_required_field_still_errors() {
        assert!(from_str::<WithDefault>("{\"extra\": 9}").is_err());
    }

    #[test]
    fn repeated_fields_are_refused_and_unknown_ones_ignored() {
        for (json, field) in [
            ("{\"required\": 6, \"required\": 7}", "required"),
            ("{\"required\": 1, \"extra\": 2, \"extra\": 3}", "extra"),
        ] {
            let err = from_str::<WithDefault>(json).unwrap_err().to_string();
            let want = format!("duplicate field `{field}`");
            assert!(err.contains(&want), "{json}: {err}");
        }
        let v: WithDefault = from_str("{\"required\": 3, \"other\": 1, \"other\": 2}").unwrap();
        assert_eq!(v.required, 3);
    }
}

#[cfg(test)]
mod derive_skip_serializing_tests {
    use super::*;

    fn is_zero(v: &f64) -> bool {
        *v == 0.0
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct WithSkip {
        kept: u64,
        #[serde(default, skip_serializing_if = "is_zero")]
        speed: f64,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum SkipEnum {
        Window {
            from: u64,
            #[serde(default, skip_serializing_if = "is_zero")]
            vx: f64,
        },
    }

    #[test]
    fn default_valued_fields_are_omitted_from_output() {
        let json = to_string(&WithSkip { kept: 7, speed: 0.0 }).unwrap();
        assert_eq!(json, "{\"kept\":7}");
        assert_eq!(
            from_str::<WithSkip>(&json).unwrap(),
            WithSkip { kept: 7, speed: 0.0 }
        );
    }

    #[test]
    fn non_default_fields_still_round_trip() {
        let v = WithSkip { kept: 1, speed: 0.25 };
        let json = to_string(&v).unwrap();
        assert!(json.contains("speed"), "{json}");
        assert_eq!(from_str::<WithSkip>(&json).unwrap(), v);
    }

    #[test]
    fn enum_struct_variants_skip_too() {
        let json = to_string(&SkipEnum::Window { from: 3, vx: 0.0 }).unwrap();
        assert!(!json.contains("vx"), "{json}");
        let v = SkipEnum::Window { from: 3, vx: -0.5 };
        let json = to_string(&v).unwrap();
        assert!(json.contains("vx"), "{json}");
        assert_eq!(from_str::<SkipEnum>(&json).unwrap(), v);
    }
}

#[cfg(test)]
mod negative_zero_tests {
    use super::*;

    #[test]
    fn negative_zero_round_trips() {
        let s = to_string(&-0.0f64).unwrap();
        assert_eq!(s, "-0.0");
        let back: f64 = from_str(&s).unwrap();
        assert!(back == 0.0 && back.is_sign_negative());
    }
}

#[cfg(test)]
mod boundary_and_ordering_tests {
    use super::*;

    #[test]
    fn out_of_range_floats_error_instead_of_saturating() {
        // 2^63 is out of i64 range; 2^64 is out of u64 range.
        assert!(from_str::<i64>("9223372036854775808.0").is_err());
        assert!(from_str::<u64>("18446744073709551616.0").is_err());
        // In-range boundary values still work.
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    }

    #[test]
    fn hash_collections_serialize_deterministically() {
        let mut m = std::collections::HashMap::new();
        for i in 0..32u64 {
            m.insert(format!("k{i:02}"), i);
        }
        let first = to_string(&m).unwrap();
        for _ in 0..4 {
            assert_eq!(to_string(&m).unwrap(), first);
        }
        // Keys come out sorted regardless of hash order.
        assert!(first.starts_with("{\"k00\":0,\"k01\":1"));

        let s: std::collections::HashSet<u64> = (0..32).collect();
        let first = to_string(&s).unwrap();
        for _ in 0..4 {
            assert_eq!(to_string(&s).unwrap(), first);
        }
    }
}
