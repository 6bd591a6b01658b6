//! Minimal hand-rolled JSON for the `sweepd` wire protocol.
//!
//! The workspace is offline and serde-free by policy, and the protocol only
//! needs flat objects, arrays, strings, booleans, and unsigned integers — so
//! this is a small recursive-descent parser plus a writer, not a general
//! JSON library. Numbers are kept as raw text and parsed on demand, which
//! keeps round-trips lossless without dragging floats into a protocol that
//! only carries cycle counts.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the protocol never relies on key order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { s: src.as_bytes(), i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a `u64`, if this is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize (compact, single line — the protocol is line-delimited).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// A number value from a `u64`.
    pub fn num(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from field pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(Json::Num(std::str::from_utf8(&self.s[start..self.i]).unwrap().to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by this protocol;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next '"' or '\\' at once.
                    // Both are ASCII, so the run ends on a char boundary of
                    // the valid UTF-8 input and `from_utf8` cannot fail.
                    let run = self.s[self.i..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.s.len() - self.i);
                    let bytes = &self.s[self.i..self.i + run];
                    out.push_str(std::str::from_utf8(bytes).map_err(|e| e.to_string())?);
                    self.i += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let v = Json::obj([
            ("op", Json::str("sweep")),
            ("cells", Json::Arr(vec![Json::obj([("lat", Json::num(128))])])),
            ("stream", Json::Bool(true)),
            ("nothing", Json::Null),
        ]);
        let line = v.to_line();
        assert!(!line.contains('\n'), "must stay line-delimited: {line}");
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(
            back.get("cells").and_then(Json::as_arr).unwrap()[0]
                .get("lat")
                .and_then(Json::as_u64),
            Some(128)
        );
        assert_eq!(back.get("stream").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("nothing"), Some(&Json::Null));
        assert_eq!(back.get("absent"), None);
    }

    #[test]
    fn escapes_survive_round_trip() {
        let nasty = "quote\" back\\slash \nnewline \ttab \u{1} low";
        let line = Json::str(nasty).to_line();
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn numbers_are_lossless_text() {
        // u64::MAX survives (an f64 round-trip would not preserve it).
        let raw = u64::MAX.to_string();
        let v = Json::parse(&raw).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_line(), raw);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn multi_byte_characters_round_trip_in_keys_and_values() {
        // 2-, 3- and 4-byte UTF-8 scalars, alone and in runs.
        for text in ["é", "€", "𝄞", "aé€𝄞z", "ééé€€€𝄞𝄞𝄞"] {
            let v = Json::Obj(vec![(text.to_string(), Json::str(text))]);
            let back = Json::parse(&v.to_line()).unwrap();
            assert_eq!(back, v, "{text:?}");
            assert_eq!(back.get(text).and_then(Json::as_str), Some(text));
        }
    }

    #[test]
    fn escapes_next_to_multi_byte_characters_decode() {
        let v = Json::parse(r#""é\"€\\𝄞\n\té""#).unwrap();
        assert_eq!(v.as_str(), Some("é\"€\\𝄞\n\té"));
        // `\u` escapes of 1-, 2- and 3-byte scalars, next to literal ones.
        let v = Json::parse(r#""\u0041é\u00e9€\u20AC𝄞""#).unwrap();
        assert_eq!(v.as_str(), Some("Aéé€€𝄞"));
        let line = Json::str("€\u{1}𝄞\"").to_line();
        assert_eq!(line, r#""€\u0001𝄞\"""#);
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some("€\u{1}𝄞\""));
    }

    #[test]
    fn unterminated_strings_and_bad_escapes_are_rejected() {
        for bad in [
            r#"""#,
            r#""abc"#,
            r#""é€𝄞"#,
            r#""ends in escape\"#,
            r#""\x""#,
            r#""é\q""#,
            r#""\u12""#,
            r#""\uZZZZ""#,
            r#""\u€€""#,
            r#"{"é": "𝄞}"#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn long_strings_and_wide_objects_parse_correctly() {
        // A 1 MiB value: 256 chunks of 4 KiB, each ending in multi-byte
        // characters and an escaped quote.
        let chunk = format!("{}é€𝄞\"", "x".repeat(4096 - 10));
        let big = chunk.repeat(256);
        assert_eq!(big.len(), 1 << 20);
        let line = Json::obj([("v", Json::str(big.as_str()))]).to_line();
        assert_eq!(Json::parse(&line).unwrap().get("v").and_then(Json::as_str), Some(&big[..]));

        let wide = Json::Obj((0..10_000u64).map(|i| (format!("stat.{i}"), Json::num(i))).collect());
        let back = Json::parse(&wide.to_line()).unwrap();
        assert_eq!(back, wide);
        assert_eq!(back.get("stat.9999").and_then(Json::as_u64), Some(9999));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
