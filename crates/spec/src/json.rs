//! A minimal hand-rolled JSON codec.
//!
//! The workspace's serde is an offline no-op shim (marker traits, empty
//! derives), so the spec types carry their own wire format, the same way
//! `tdigest::wire` hand-rolls the checkpoint codec. The subset here is
//! full JSON minus nothing we need: objects keep insertion order, numbers
//! are `f64`, and the writer is deterministic — the same [`Value`] always
//! renders to the same bytes, which is what lets the serve daemon compare
//! run artifacts byte-for-byte across thread counts and kill/resume.
//!
//! Floats render via Rust's shortest round-trip `Display`, so
//! `write → parse` reproduces the exact bit pattern for every finite
//! `f64`. Non-finite values render as `null` (JSON has no spelling for
//! them); writers that need them must sanitize upstream.

use netsim::SimError;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; fields keep insertion order (deterministic writer).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions/negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
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

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_f64(*n, out),
            Value::Str(s) => write_str(s, out),
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
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Renders compactly (no whitespace). Deterministic: object fields appear
/// in insertion order, floats use shortest round-trip form, non-finite
/// floats become `null`.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Build an object value from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_f64(n: f64, out: &mut String) {
    use std::fmt::Write;
    if n.is_finite() {
        // Rust's `Display` for f64 is the shortest string that parses back
        // to the same bits — this is what makes checkpoints bit-exact.
        write!(out, "{n}").expect("string write");
    } else {
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a request body of `[`s overflows the
/// stack and aborts the process; no spec nests deeper than a handful.
const MAX_DEPTH: usize = 128;

/// Longest number token [`parse`] accepts, in bytes. [`Value`] renders an
/// `f64` positionally, never with an exponent, so the longest thing it
/// writes is 327 bytes (`-2.2250738585072014e-308`: a sign, `0.`, 307
/// zeros, 17 digits); this is above that, so `parse ∘ render` loses
/// nothing, while a body that is one endless digit run is never handed to
/// `str::parse::<f64>`.
const MAX_NUMBER_LEN: usize = 512;

/// Parse a JSON document. Trailing non-whitespace, nesting deeper than
/// [`MAX_DEPTH`] and number tokens longer than [`MAX_NUMBER_LEN`] are
/// errors.
pub fn parse(input: &str) -> Result<Value, SimError> {
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
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> SimError {
        SimError::Parse {
            what: "json",
            input: snippet(self.bytes, self.pos),
            reason: format!("{reason} at byte {}", self.pos),
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

    fn expect(&mut self, b: u8) -> Result<(), SimError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, SimError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, SimError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, SimError>,
    ) -> Result<Value, SimError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, SimError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, SimError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, SimError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair: \uD800-\uDBFF must be followed
                            // by a low surrogate escape.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 advanced pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 is copied through verbatim.
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = text.chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, SimError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259 `number`: `[-] (0 | 1-9 digits) [. digits] [e [+-] digits]`,
    /// and its value must be finite — `str::parse` answers `inf` on
    /// overflow, which would render back as `null`.
    fn number(&mut self) -> Result<Value, SimError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(self.err("number needs an integer part with no leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("number has no digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("number has no exponent digits"));
            }
        }
        if self.pos - start > MAX_NUMBER_LEN {
            self.pos = start;
            return Err(self.err(&format!("number longer than {MAX_NUMBER_LEN} bytes")));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("number out of range"))
            }
        }
    }
}

fn snippet(bytes: &[u8], pos: usize) -> String {
    let start = pos.saturating_sub(12);
    let end = (pos + 12).min(bytes.len());
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rewrites_compound_document() {
        let text = r#"{"a":[1,2.5,-3e2],"b":{"c":"hi\n","d":true},"e":null}"#;
        let v = parse(text).unwrap();
        // Rewrite normalizes numbers (-3e2 -> -300) but is otherwise stable.
        let rendered = v.to_string();
        assert_eq!(
            rendered,
            r#"{"a":[1,2.5,-300],"b":{"c":"hi\n","d":true},"e":null}"#
        );
        assert_eq!(parse(&rendered).unwrap().to_string(), rendered);
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for x in [
            0.1,
            1.0 / 3.0,
            std::f64::consts::PI,
            -0.0,
            1e-300,
            9.007_199_254_740_993e15,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
        ] {
            let s = Value::Num(x).to_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t unicode\u{1f600} ctrl\u{1}";
        let rendered = Value::Str(s.to_string()).to_string();
        assert_eq!(parse(&rendered).unwrap().as_str().unwrap(), s);
        // Escaped input forms parse too.
        assert_eq!(
            parse(r#""\u0041\ud83d\ude00""#).unwrap().as_str().unwrap(),
            "A\u{1f600}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "\"\\ud800x\"",
            // RFC 8259 numbers: no leading zero, no empty integer part or
            // fraction, and nothing `f64` cannot hold (it would render as
            // `null` and fail to re-parse as a number).
            "01",
            "1.",
            "-.5",
            "1e999",
            "{\"c0\":-1e999}",
        ] {
            let e = parse(bad);
            assert!(e.is_err(), "should reject {bad:?}");
            let msg = e.unwrap_err().to_string();
            assert!(msg.contains("json"), "error names the format: {msg}");
        }
        // The accepted neighbours of those number forms still parse, and
        // what parses re-parses from its own rendering.
        for ok in [
            "0",
            "-0",
            "10",
            "0.5",
            "-0.5e-7",
            "1E308",
            "[1e308,-1e-999]",
        ] {
            let v = parse(ok).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{ok}");
        }
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let msg = parse(&nest(MAX_DEPTH + 1)).unwrap_err().to_string();
        assert!(
            msg.contains(&format!("at byte {MAX_DEPTH}")),
            "offset of the first bracket too deep: {msg}"
        );
        // A number token may be `MAX_NUMBER_LEN` bytes and no longer; the
        // error points at its first byte.
        let long = |len: usize| format!("[1.{}]", "0".repeat(len - 2));
        assert_eq!(
            parse(&long(MAX_NUMBER_LEN)).unwrap(),
            Value::Arr(vec![Value::Num(1.0)])
        );
        let msg = parse(&long(MAX_NUMBER_LEN + 1)).unwrap_err().to_string();
        assert!(
            msg.contains(&format!("longer than {MAX_NUMBER_LEN} bytes at byte 1")),
            "offset of the token's first byte: {msg}"
        );
        assert!(parse(&format!("0.{}", "7".repeat(1 << 20))).is_err());
        // A full-size request body of openers must be an error, not a
        // stack overflow.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat((1 << 20) / 5)).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }
}
