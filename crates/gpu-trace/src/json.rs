//! A minimal JSON value type with writer and parser.
//!
//! The workspace is dependency-free by policy, so the Chrome-trace and
//! JSONL exporters cannot use `serde_json`. This module implements the
//! small subset of JSON the trace formats need: objects, arrays, strings
//! with escapes, `f64` numbers, booleans, and null. The parser is a
//! recursive-descent reader used by `trace_inspect` and by the round-trip
//! validation tests.

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers round-trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer. Non-integral numbers are not
    /// integers (`7.9` is `None`, not `7`); integral values at or above
    /// 2^64 saturate to `u64::MAX`, which is how `u64::MAX` itself reads
    /// back after [`write_u64`] spells it as `1.8446744073709552e19`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Appends the compact serialisation to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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

    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The object field `key` as a non-negative integer, for reconstructing
    /// event payloads. When a key repeats, the last integer-valued
    /// occurrence wins.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .rev()
                .filter(|(k, _)| k == key)
                .find_map(|(_, v)| v.as_u64()),
            _ => None,
        }
    }
}

/// 2^53: below it every integer is exactly representable as an `f64`.
const EXACT_INT_LIMIT: u64 = 1 << 53;

/// Appends the decimal digits of `v`.
fn write_digits(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Byte-wise: cheaper than validating the buffer as UTF-8 first.
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Appends a number the way every trace format spells it: integral values
/// of magnitude below 2^53 as plain digits, other finite values in the
/// shortest form that round-trips, non-finite values as `0`.
pub(crate) fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push('0');
    } else if n == n.trunc() && n.abs() < EXACT_INT_LIMIT as f64 {
        if n < 0.0 {
            out.push('-');
        }
        write_digits(n.abs() as u64, out);
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{n:?}");
    }
}

/// Appends exactly the bytes `write_num(v as f64, out)` produces, without
/// the trip through `f64` and `fmt` below 2^53; at and above 2^53 the
/// value takes that trip, so it is rounded to the nearest `f64` and
/// spelled as a float (`9007199254740992.0`, `1.8446744073709552e19`).
/// Writers that bypass the [`Json`] tree use it to stay byte-exact with
/// `Json::Num(v as f64)`.
pub fn write_u64(v: u64, out: &mut String) {
    if v < EXACT_INT_LIMIT {
        write_digits(v, out);
    } else {
        write_num(v as f64, out);
    }
}

/// Appends `s` as a quoted JSON string. Runs that need no escape are
/// copied whole; `"`, backslash and control characters below 0x20 are the
/// only escaped bytes, all ASCII, so every run boundary is a char
/// boundary. The same bytes [`Json::Str`] writes.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
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
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl std::fmt::Display for Json {
    /// Compact JSON serialisation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// this workspace writes nests a handful of levels; the bound keeps a
/// hostile input (a request line of nothing but `[`) from recursing the
/// parser off its thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.text.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Everything up to the next quote or backslash is
                    // copied as one run; both are ASCII, so the run ends
                    // on a char boundary of the (already valid) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    s.push_str(&self.text[start..self.pos]);
                }
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
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            ("name".to_string(), Json::Str("tb \"quoted\"\n".to_string())),
            ("cycle".to_string(), Json::Num(123456789.0)),
            ("ratio".to_string(), Json::Num(0.125)),
            ("flag".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
            (
                "items".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5)]),
            ),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big = (1u64 << 52) + 12345;
        let v = Json::Num(big as f64);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(big));
    }

    #[test]
    fn as_u64_rejects_fractions_and_saturates_above_u64() {
        let read = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(read("7.9"), None);
        assert_eq!(read("2.5"), None);
        assert_eq!(read("0.5"), None);
        assert_eq!(read("-1"), None);
        assert_eq!(read("7"), Some(7));
        assert_eq!(read("7.0"), Some(7));
        assert_eq!(read("7e0"), Some(7));
        assert_eq!(read("-0"), Some(0));
        assert_eq!(read("1.8446744073709552e19"), Some(u64::MAX));
        assert_eq!(read("1e30"), Some(u64::MAX));
        let mut spelled = String::new();
        write_u64(u64::MAX, &mut spelled);
        assert_eq!(read(&spelled), Some(u64::MAX));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(Json::parse(&nested(open, close, MAX_DEPTH)).is_ok());
            let err = Json::parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
            // Deep enough to overflow a thread's stack without the bound.
            assert!(Json::parse(&nested(open, close, 1 << 20)).is_err());
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("A\n")
        );
    }

    #[test]
    fn parses_multibyte_utf8_strings() {
        let v = Json::parse("{\"name\":\"héllo → 世界\"}").unwrap();
        assert_eq!(v.get("name").and_then(|s| s.as_str()), Some("héllo → 世界"));
        assert!(Json::parse("[\"\u{1F600}\"]").is_ok());
    }

    #[test]
    fn u64_field_extracts_integers() {
        let v = Json::parse("{\"cycle\":12,\"name\":\"x\",\"smx\":3,\"smx\":\"y\",\"cycle\":13}")
            .unwrap();
        assert_eq!(v.u64_field("cycle"), Some(13));
        assert_eq!(v.u64_field("smx"), Some(3));
        assert_eq!(v.u64_field("name"), None);
        assert_eq!(v.u64_field("absent"), None);
    }

    /// The number and string writers as first written — `fmt` for every
    /// integer, one `char` at a time for strings. They define the bytes.
    fn reference_num(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push('0');
        } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
            let _ = write!(out, "{}", n as i64);
        } else {
            let _ = write!(out, "{n:?}");
        }
    }

    fn reference_str(s: &str, out: &mut String) {
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

    #[test]
    fn number_writers_match_the_fmt_reference() {
        let mut ints: Vec<u64> = vec![0, 1, 9, 10, 99, 100, u32::MAX as u64, u64::MAX];
        for shift in 0..64 {
            ints.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        let mut pow10 = 1u64;
        for _ in 0..19 {
            pow10 *= 10;
            ints.extend([pow10 - 1, pow10, pow10 + 1]);
        }
        let check_num = |n: f64| {
            let (mut got, mut want) = (String::new(), String::new());
            write_num(n, &mut got);
            reference_num(n, &mut want);
            assert_eq!(got, want, "write_num({n:?})");
        };
        for v in ints {
            let (mut got, mut want) = (String::new(), String::new());
            write_u64(v, &mut got);
            reference_num(v as f64, &mut want);
            assert_eq!(got, want, "write_u64({v})");
            for n in [v as f64, -(v as f64), v as f64 + 0.5, -(v as f64) - 0.25] {
                check_num(n);
            }
        }
        for n in [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            5e-324,
        ] {
            check_num(n);
        }
    }

    #[test]
    fn string_writer_matches_the_char_reference() {
        let every_escape: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "plain",
            "\"",
            "\\",
            "a\"b\\c\nd\re\tf",
            "\"\"\\\\",
            "h\u{e9}llo \u{2192} \u{4e16}\u{754c}\u{1f600}",
            "\u{4e16}\"\u{754c}\u{1}\u{1f600}\\",
            every_escape.as_str(),
        ] {
            let (mut got, mut want) = (String::new(), String::new());
            write_str(s, &mut got);
            reference_str(s, &mut want);
            assert_eq!(got, want, "{s:?}");
            assert_eq!(Json::parse(&got), Ok(Json::Str(s.to_string())), "{s:?}");
        }
    }
}
