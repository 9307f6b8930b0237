//! The workspace's one JSON module: rendering and reading.
//!
//! The workspace vendors no JSON library. Everything that writes JSON —
//! journals, manifests, `droplet-serve` responses, the bench reports —
//! renders through [`quote`], [`object`] and [`num`]; everything that
//! reads it — experiment-spec bodies (`droplet::RunSpec::parse`), the
//! section merge in `droplet-bench::bench_json` and `droplet-bench-diff` —
//! goes through one string- and nesting-aware scanner,
//! [`split_top_level`], which hands back an object's top-level members
//! with their values as raw JSON text. [`scalar`] and [`scalars`] decode a
//! raw value when a caller wants the value itself rather than its text.

/// Renders a JSON string literal: `"` and `\` escaped, `\n` as `\n`, every
/// other control character as `\uXXXX`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a single-line object from key/value pairs whose values are
/// already JSON.
pub fn object<K: AsRef<str>>(pairs: &[(K, String)]) -> String {
    let body = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k.as_ref())))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Renders an `f64` as a JSON number: finite values with six decimals,
/// non-finite values (which JSON cannot represent) as `0.0`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Splits a JSON object into its top-level members, in source order: each
/// key decoded, each value as its raw, trimmed JSON text (nested objects
/// and arrays included, unparsed). Returns a description of the first
/// syntax error — unbalanced or stray closing brackets, bad escapes,
/// unterminated strings, a missing value, or content after the object.
pub fn split_top_level(text: &str) -> Result<Vec<(String, &str)>, String> {
    let mut c = Cursor { text, pos: 0 };
    let members = c.items('{', '}')?;
    c.at_end()?;
    Ok(members)
}

/// Decodes a raw value holding one scalar: a string (unescaped), or a bare
/// token — a number, `true`, `false`, `null`, or any other run of ASCII
/// letters, digits and `-+._` — as written. `None` for anything else,
/// arrays and objects included.
pub fn scalar(raw: &str) -> Option<String> {
    if raw.starts_with('"') {
        let mut c = Cursor { text: raw, pos: 0 };
        let s = c.string().ok()?;
        return c.at_end().ok().map(|()| s);
    }
    let bare = |ch: char| ch.is_ascii_alphanumeric() || matches!(ch, '-' | '+' | '.' | '_');
    (!raw.is_empty() && raw.chars().all(bare)).then(|| raw.to_string())
}

/// Decodes a raw array whose items are all scalars (see [`scalar`]).
pub fn scalars(raw: &str) -> Option<Vec<String>> {
    let mut c = Cursor { text: raw, pos: 0 };
    let items = c.items('[', ']').ok()?;
    c.at_end().ok()?;
    items.into_iter().map(|(_, item)| scalar(item)).collect()
}

/// A byte position in the text being scanned (always on a char boundary).
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: char) -> bool {
        let hit = self.peek() == Some(want);
        if hit {
            self.pos += want.len_utf8();
        }
        hit
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let at = self.pos;
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected '{want}' at byte {at}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn at_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(c) => Err(format!("trailing content at byte {}: '{c}'", self.pos)),
        }
    }

    /// An object (`{` … `}`: `"key": value` members) or an array (`[` …
    /// `]`: items, with empty keys), each value as raw trimmed text.
    fn items(&mut self, open: char, close: char) -> Result<Vec<(String, &'a str)>, String> {
        self.skip_ws();
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            let mut key = String::new();
            if open == '{' {
                key = self.string()?;
                self.skip_ws();
                self.expect(':')?;
            }
            items.push((key, self.raw_value(close)?));
            if !self.eat(',') {
                self.expect(close)?;
                return Ok(items);
            }
        }
    }

    /// A quoted string, decoding every JSON escape (`\uXXXX` and
    /// surrogate pairs included).
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => {
                    let at = self.pos;
                    out.push(match self.bump() {
                        Some('"') => '"',
                        Some('\\') => '\\',
                        Some('/') => '/',
                        Some('b') => '\u{8}',
                        Some('f') => '\u{c}',
                        Some('n') => '\n',
                        Some('r') => '\r',
                        Some('t') => '\t',
                        Some('u') => self
                            .unicode_escape()
                            .ok_or_else(|| format!("bad escape '\\u' at byte {at}"))?,
                        Some(c) => return Err(format!("bad escape '\\{c}' at byte {at}")),
                        None => return Err("unterminated escape".into()),
                    });
                }
                Some(c) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// The code point of a `\u` escape whose `\u` was just consumed.
    fn unicode_escape(&mut self) -> Option<char> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi);
        }
        self.text[self.pos..].starts_with("\\u").then_some(())?;
        self.pos += 2;
        let lo = self.hex4()?;
        (0xDC00..0xE000).contains(&lo).then_some(())?;
        char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.get(self.pos..self.pos + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).ok()
    }

    /// One member or array item: the trimmed text up to the next `,` or
    /// `close` outside strings and brackets. Brackets must pair up.
    fn raw_value(&mut self, close: char) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        let mut open = Vec::new();
        while let Some(c) = self.peek() {
            match c {
                '"' => {
                    self.string()?;
                    continue;
                }
                '{' => open.push('}'),
                '[' => open.push(']'),
                '}' | ']' if open.last() == Some(&c) => {
                    open.pop();
                }
                ',' if open.is_empty() => break,
                c if open.is_empty() && c == close => break,
                '}' | ']' => return Err(format!("stray '{c}' at byte {}", self.pos)),
                _ => {}
            }
            self.pos += c.len_utf8();
        }
        if let Some(want) = open.last() {
            return Err(format!("expected '{want}', found end of input"));
        }
        let raw = self.text[start..self.pos].trim_end();
        if raw.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        Ok(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_and_quote_render() {
        let o = object(&[("a", "1".into()), ("b\"c", quote("v\n"))]);
        assert_eq!(o, r#"{"a": 1, "b\"c": "v\n"}"#);
    }

    #[test]
    fn quote_round_trips_specials() {
        assert_eq!(quote("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        // Tabs and carriage returns take the generic control escape.
        assert_eq!(quote("\t\r\u{1}"), r#""\u0009\u000d\u0001""#);
        assert_eq!(scalar(&quote("\t\r\u{1}")).unwrap(), "\t\r\u{1}");
    }

    #[test]
    fn num_handles_non_finite() {
        assert_eq!(num(1.5), "1.500000");
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(num(f64::INFINITY), "0.0");
    }

    #[test]
    fn parses_flat_spec_objects() {
        let body = r#"{"algo": "pr", "budget": 30000, "stream": true,
                       "prefetchers": ["none", "droplet"], "a": {"x": [1, {"y": "s,]"}]}}"#;
        let members = split_top_level(body).unwrap();
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["algo", "budget", "stream", "prefetchers", "a"]);
        assert_eq!(scalar(members[0].1).unwrap(), "pr");
        assert_eq!(scalar(members[1].1).unwrap(), "30000");
        assert_eq!(scalar(members[2].1).unwrap(), "true");
        assert_eq!(scalar(members[3].1), None);
        assert_eq!(scalars(members[3].1).unwrap(), ["none", "droplet"]);
        assert_eq!(members[4].1, r#"{"x": [1, {"y": "s,]"}]}"#);
        assert_eq!(scalars(members[4].1), None);
        assert_eq!(scalars("[]").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn parses_empty_object_and_escapes() {
        assert!(split_top_level(" {} ").unwrap().is_empty());
        let members = split_top_level(r#"{"a": "x\"y\\z\té😀"}"#).unwrap();
        assert_eq!(scalar(members[0].1).unwrap(), "x\"y\\z\té😀");
        assert_eq!(scalar(r#""\ud83d""#), None, "lone surrogate");
        assert_eq!(scalar(r#""\u12g4""#), None);
    }

    #[test]
    fn rejects_malformed_bodies() {
        for bad in [
            "",
            "[1,2]",
            r#"{"a": 1"#,
            r#"{"a": 1,}"#,
            r#"{"a" 1}"#,
            r#"{"a": 1} trailing"#,
            r#"{"a": "unterminated}"#,
            r#"{"a": "\q"}"#,
            // Stray or mismatched closers never cancel out.
            r#"{"a": 1]}"#,
            r#"{"a": [1]], "b": 2}"#,
            r#"{"a": }}"#,
            r#"{"a": [1}}"#,
        ] {
            assert!(split_top_level(bad).is_err(), "{bad}");
        }
        assert_eq!(
            split_top_level("not json").unwrap_err(),
            "expected '{' at byte 0, found 'n'"
        );
    }

    /// Every string — control characters, quotes, backslashes, non-ASCII —
    /// survives `object(quote(..))` → `split_top_level` → `scalar`.
    #[test]
    fn quoted_strings_round_trip_through_the_scanner() {
        let alphabet: Vec<char> = "a\"\\/\n\t\r\u{0}\u{1f},{]: é😀".chars().collect();
        let mut rng = proptest::TestRng::for_test("quoted_strings_round_trip");
        let text = |rng: &mut proptest::TestRng| -> String {
            (0..rng.below(12))
                .map(|_| match rng.below(4) {
                    0 => char::from(rng.below(0x80) as u8),
                    _ => alphabet[rng.below(alphabet.len() as u64) as usize],
                })
                .collect()
        };
        for _ in 0..500 {
            let pairs: Vec<(String, String)> = (0..3)
                .map(|_| (text(&mut rng), quote(&text(&mut rng))))
                .collect();
            let body = object(&pairs);
            let members = split_top_level(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(members.len(), pairs.len(), "{body}");
            for ((k, v), (key, raw)) in pairs.iter().zip(&members) {
                assert_eq!((k, v), (key, &quote(&scalar(raw).unwrap())), "{body}");
            }
        }
    }
}
