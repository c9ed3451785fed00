//! The workspace's one JSON reader and string escaper.
//!
//! The workspace vendors a no-op `serde` facade, so every persisted and
//! wire format — checkpoint records, unit-record sidecars, anomaly logs,
//! service job files, HTTP bodies and verify reports — is written by a
//! hand-kept `format!` template over [`escape`] and read back with
//! [`Json::parse`]. Numbers keep their raw text so 64-bit seeds round-trip
//! without passing through `f64`. Nesting is bounded (the deepest document
//! the workspace writes is three levels), so a hostile body gets an `Err`
//! instead of overflowing the reader's stack.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (surrounding whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the first problem.
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
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (the first member named `key`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        if raw.parse::<f64>().is_err() {
            return Err(format!("malformed number '{raw}' at byte {start}"));
        }
        Ok(Json::Num(raw.to_owned()))
    }

    /// Four hex digits at byte `at`, exactly (no sign, no short forms).
    fn hex4(&self, at: usize) -> Option<u32> {
        self.text
            .as_bytes()
            .get(at..at + 4)?
            .iter()
            .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
    }

    /// Decode a `\uXXXX` escape whose `u` is at `self.pos`, joining a
    /// high surrogate with the `\uXXXX` low surrogate that must follow it.
    /// Leaves `self.pos` on the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        let bad = || format!("bad \\u escape at byte {at}");
        let hi = self.hex4(self.pos + 1).ok_or_else(bad)?;
        self.pos += 4;
        let code = if (0xD800..0xDC00).contains(&hi) {
            let lo = self
                .text
                .as_bytes()
                .get(self.pos + 1..self.pos + 3)
                .filter(|u| *u == b"\\u")
                .and_then(|_| self.hex4(self.pos + 3))
                .filter(|lo| (0xDC00..0xE000).contains(lo))
                .ok_or_else(bad)?;
            self.pos += 6;
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        // A lone low surrogate is no scalar value.
        char::from_u32(code).ok_or_else(bad)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash; both
                    // are ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
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
}

/// Escape a string for embedding inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parses_nested_spec_shape() {
        let v = Json::parse(
            r#"{"name":"n","workloads":["matmul","kmeans"],
               "trials": 240, "seed": 18446744073709551615,
               "nested": {"a": [1, 2.5, -3], "b": true, "c": null}}"#,
        )
        .expect("parses");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("n"));
        assert_eq!(v.get("trials").and_then(Json::as_u64), Some(240));
        // u64::MAX survives without an f64 round-trip.
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        let arr = v
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads array");
        assert_eq!(arr.len(), 2);
        let nested = v.get("nested").expect("nested obj");
        assert_eq!(
            nested.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(nested.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(nested.get("c"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\nA""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn rejects_torn_lines() {
        assert!(Json::parse("{\"a\":1").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\"}").is_err());
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let v = Json::parse("{\"panic\":\"index \\\"x\\\" out of range\"}").expect("parses");
        assert_eq!(
            v.get("panic").and_then(Json::as_str),
            Some("index \"x\" out of range")
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#), Ok(Json::Str("A".to_owned())));
        assert_eq!(Json::parse(r#""\u00411""#), Ok(Json::Str("A1".to_owned())));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u00g1""#] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_fail() {
        // What Python's default `json.dumps` emits for U+1F680.
        assert_eq!(
            Json::parse(r#""\ud83d\ude80""#),
            Ok(Json::Str("\u{1f680}".to_owned()))
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ude80""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude80\ud83d""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!(err, "nesting deeper than 64 at byte 64");
        let err = Json::parse(&objects(MAX_DEPTH + 1)).expect_err("too deep");
        assert!(err.starts_with("nesting deeper than 64 at byte"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 1 MiB string (the service's body cap) takes milliseconds; a
        // reader that re-validates the rest of the input per character
        // takes tens of seconds here.
        let body = format!("{{\"name\":\"{}\"}}", "é".repeat(1 << 19));
        let start = std::time::Instant::now();
        let v = Json::parse(&body).expect("parses");
        let took = start.elapsed();
        assert!(took.as_secs() < 5, "1 MiB string took {took:?}");
        assert_eq!(
            v.get("name").and_then(Json::as_str).map(str::len),
            Some(1 << 20)
        );
    }

    /// Characters that break hand-rolled JSON codecs: quotes, backslashes,
    /// control characters, structural delimiters, and multi-byte UTF-8.
    const HOSTILE: [char; 22] = [
        '"', '\\', ',', '{', '}', ':', '\n', '\r', '\t', ' ', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1b}', '\u{1f}', '\u{7f}', 'a', 'é', '€', '😀', '\u{2028}',
    ];

    /// Strings of up to 32 characters, each a [`HOSTILE`] one or (half the
    /// time) an arbitrary Unicode scalar value.
    fn adversarial_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0..HOSTILE.len() * 2, any::<u32>()), 0..32).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(i, raw)| {
                    HOSTILE.get(i).copied().unwrap_or_else(|| {
                        char::from_u32(raw % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER)
                    })
                })
                .collect()
        })
    }

    /// Fragments of JSON syntax, valid and broken, to splice into texts.
    const TOKENS: [&str; 24] = [
        "[",
        "]",
        "{",
        "}",
        "\"",
        "\\",
        ":",
        ",",
        "\\u",
        "d83d",
        "\\ude80",
        "00",
        "1",
        "-",
        "e",
        ".",
        "true",
        "nul",
        " ",
        "\"k\":",
        "é",
        "😀",
        "\u{0}",
        "18446744073709551616",
    ];

    /// Texts spliced together from up to 48 [`TOKENS`].
    fn json_ish_text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..TOKENS.len(), 0..48)
            .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Everything `escape` emits, the reader decodes back to the
        /// original string.
        #[test]
        fn escape_round_trips_adversarial_strings(s in adversarial_string()) {
            let literal = format!("\"{}\"", escape(&s));
            prop_assert!(!literal.contains('\n'), "escaped text stays on one line");
            prop_assert_eq!(Json::parse(&literal), Ok(Json::Str(s)));
        }

        /// String members of a flat record (the checkpoint and anomaly-line
        /// shape) read back unchanged, next to a number member.
        #[test]
        fn flat_json_string_fields_roundtrip(
            workload in adversarial_string(),
            scheme in adversarial_string(),
            mix in adversarial_string(),
            panic_msg in adversarial_string(),
        ) {
            let line = format!(
                "{{\"workload\":\"{}\",\"scheme\":\"{}\",\"faultmix\":\"{}\",\"item\":7,\"panic\":\"{}\"}}",
                escape(&workload),
                escape(&scheme),
                escape(&mix),
                escape(&panic_msg)
            );
            let f = Json::parse(&line).expect("record parses");
            prop_assert_eq!(f.get("workload").and_then(Json::as_str), Some(workload.as_str()));
            prop_assert_eq!(f.get("scheme").and_then(Json::as_str), Some(scheme.as_str()));
            prop_assert_eq!(f.get("faultmix").and_then(Json::as_str), Some(mix.as_str()));
            prop_assert_eq!(f.get("item").and_then(Json::as_u64), Some(7));
            prop_assert_eq!(f.get("panic").and_then(Json::as_str), Some(panic_msg.as_str()));
        }

        /// The reader answers every text with a value or an error.
        #[test]
        fn parse_never_panics(text in json_ish_text(), s in adversarial_string()) {
            let _ = Json::parse(&text);
            let _ = Json::parse(&s);
        }
    }
}
