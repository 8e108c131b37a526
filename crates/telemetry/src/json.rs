//! The workspace's one JSON grammar.
//!
//! The workspace is offline (no serde), so every JSON document is written
//! and read here:
//!
//! * **Writer**: [`push_str`] and [`push_f64`]. Identical inputs produce
//!   byte-identical output.
//! * **Scanner**: a cursor whose `object` and `array` methods hand each
//!   member to a callback, so a caller walks a document without building
//!   anything. It looks at each byte once; strings copy unescaped runs
//!   whole.
//! * **Value tree**: [`JsonValue`] and [`parse`], built on the scanner.
//!   Numbers keep their raw source text, so a `u64` seed never detours
//!   through `f64`, and [`JsonValue::render`] reuses [`push_str`], so
//!   identical trees render to byte-identical documents.
//! * **Schema tables**: declarative document shapes that one walk over the
//!   scanner checks without building a tree. The typed validators
//!   (`validate_stats_json`, `validate_heartbeat_json`, ...) are such
//!   tables.

use std::borrow::Cow;
use std::fmt::{self, Display};

/// Appends `s` as a JSON string literal (quoted, escaped). Runs of bytes
/// that need no escape are copied whole.
pub fn push_str(buf: &mut String, s: &str) {
    buf.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..0x20 => None,
            _ => continue,
        };
        // `i` indexes an ASCII byte, which is always a char boundary.
        buf.push_str(&s[run..i]);
        match escape {
            Some(escape) => buf.push_str(escape),
            None => {
                use std::fmt::Write;
                let _ = write!(buf, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    buf.push_str(&s[run..]);
    buf.push('"');
}

/// Appends `v` as a JSON number. Non-finite values (which JSON cannot
/// represent) are written as `null`.
pub fn push_f64(buf: &mut String, v: f64) {
    use std::fmt::Write;
    if v.is_finite() {
        let _ = write!(buf, "{v}");
    } else {
        buf.push_str("null");
    }
}

/// A cursor over one JSON document (RFC 8259 grammar). Errors read
/// `"<message> at byte <offset>"`.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn error(&self, msg: impl Display) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = b.get(self.pos) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    fn expected(&mut self, what: &str) -> String {
        match self.peek() {
            None => self.error(format_args!("expected {what}, found end of input")),
            Some(_) => self.error(format_args!("expected {what}")),
        }
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `word` (`null`, `true` or `false`) if it comes next.
    fn keyword(&mut self, word: &str) -> bool {
        let word = word.as_bytes();
        let hit =
            self.peek() == Some(word[0]) && self.text.as_bytes()[self.pos..].starts_with(word);
        self.pos += if hit { word.len() } else { 0 };
        hit
    }

    /// Requires the document to end here, apart from whitespace.
    fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing garbage")),
        }
    }

    /// Scans `open item (',' item)* close` or `open close`, where `open`
    /// is the next byte.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.expected(&format!("`,` or `{}`", close as char)));
            }
        }
    }

    /// Scans the object that comes next, calling `member(key, scanner)`
    /// to scan each member's value.
    fn object(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'}', |sc| {
            let key = sc.string()?;
            if !sc.eat(b':') {
                return Err(sc.expected("`:`"));
            }
            member(key, sc)
        })
    }

    /// Scans the array that comes next, calling `item` to scan each element.
    fn array(&mut self, item: impl FnMut(&mut Self) -> Result<(), String>) -> Result<(), String> {
        self.sequence(b']', item)
    }

    /// Scans a string and returns its unescaped value, borrowed from the
    /// input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let mut owned = String::new();
        let tail = self.scan_string(|run, c| {
            owned.push_str(run);
            owned.push(c);
        })?;
        Ok(match owned.is_empty() {
            true => Cow::Borrowed(tail),
            false => Cow::Owned(owned + tail),
        })
    }

    /// The string grammar. Calls `escaped(run, c)` for each escape, with
    /// the unescaped run before it and the character it decodes to, and
    /// returns the run after the last escape.
    fn scan_string(&mut self, mut escaped: impl FnMut(&'a str, char)) -> Result<&'a str, String> {
        if !self.eat(b'"') {
            return Err(self.expected("a string"));
        }
        let text = self.text;
        let b = text.as_bytes();
        let mut run = self.pos;
        loop {
            // `"`, `\` and control bytes are ASCII, so every run ends on a
            // UTF-8 character boundary.
            let Some(len) = b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            else {
                self.pos = b.len();
                return Err(self.error("unterminated string"));
            };
            self.pos += len;
            match b[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(&text[run..self.pos - 1]);
                }
                b'\\' => {
                    let before = &text[run..self.pos];
                    self.pos += 1;
                    escaped(before, self.escape()?);
                    run = self.pos;
                }
                _ => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape after a `\`. No document here needs surrogate
    /// pairs, so a `\u` surrogate decodes to U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        let b = self.text.as_bytes();
        let c = match b.get(self.pos) {
            Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = b
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .ok_or_else(|| self.error("malformed \\u escape"))?;
                self.pos += 4;
                let code = hex.iter().fold(0, |acc, &h| {
                    acc * 16 + (h as char).to_digit(16).unwrap_or(0)
                });
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Scans a number and returns its raw text.
    fn number(&mut self) -> Result<&'a str, String> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected("a number"));
        }
        let b = self.text.as_bytes();
        let start = self.pos;
        let mut p = start + usize::from(b[start] == b'-');
        let digits = |p: &mut usize| {
            let from = *p;
            while b.get(*p).is_some_and(u8::is_ascii_digit) {
                *p += 1;
            }
            *p > from
        };
        let int = p;
        // No leading zeros; a fraction and an exponent need digits.
        let mut ok = digits(&mut p) && (b[int] != b'0' || p == int + 1);
        if ok && b.get(p) == Some(&b'.') {
            p += 1;
            ok = digits(&mut p);
        }
        if ok && matches!(b.get(p), Some(b'e' | b'E')) {
            p += 1 + usize::from(matches!(b.get(p + 1), Some(b'+' | b'-')));
            ok = digits(&mut p);
        }
        if !ok {
            return Err(self.error("malformed number"));
        }
        self.pos = p;
        Ok(&self.text[start..p])
    }

    /// Scans one value of any kind, checking its syntax without keeping it.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|_, sc| sc.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'"') => self.scan_string(|_, _| {}).map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ if self.keyword("null") || self.keyword("true") || self.keyword("false") => Ok(()),
            _ => Err(self.expected("a value")),
        }
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name for the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Num(_) => "a number",
            JsonValue::Str(_) => "a string",
            JsonValue::Arr(_) => "an array",
            JsonValue::Obj(_) => "an object",
        }
    }

    /// Renders the tree as compact JSON (deterministic; preserves object
    /// key order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => push_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn scan(sc: &mut Scanner) -> Result<JsonValue, String> {
        Ok(match sc.peek() {
            Some(b'{') => {
                let mut fields: Vec<(String, JsonValue)> = Vec::new();
                sc.object(|key, sc| {
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(sc.error(format_args!("duplicate key {key:?}")));
                    }
                    let value = JsonValue::scan(sc)?;
                    fields.push((key.into_owned(), value));
                    Ok(())
                })?;
                JsonValue::Obj(fields)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                sc.array(|sc| {
                    items.push(JsonValue::scan(sc)?);
                    Ok(())
                })?;
                JsonValue::Arr(items)
            }
            Some(b'"') => JsonValue::Str(sc.string()?.into_owned()),
            Some(b'-' | b'0'..=b'9') => JsonValue::Num(sc.number()?.to_owned()),
            _ if sc.keyword("null") => JsonValue::Null,
            _ if sc.keyword("true") => JsonValue::Bool(true),
            _ if sc.keyword("false") => JsonValue::Bool(false),
            _ => return Err(sc.expected("a value")),
        })
    }
}

/// Parses one JSON document into a value tree, in time linear in its
/// length apart from the duplicate-key check, which compares each key with
/// the keys before it in the same object.
///
/// # Errors
///
/// Returns `"<message> at byte <offset>"` on malformed input, including a
/// key repeated within one object.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut sc = Scanner { text: s, pos: 0 };
    let v = JsonValue::scan(&mut sc)?;
    sc.finish()?;
    Ok(v)
}

/// One entry of a schema table: the shape a JSON value must have.
#[derive(Debug)]
pub(crate) enum Schema {
    /// A non-negative integer that fits a `u64`.
    U64,
    /// A number, or `null` ([`push_f64`] writes non-finite values so).
    Num,
    /// A string.
    Str,
    /// `true` or `false`.
    Bool,
    /// Exactly this integer: a schema version.
    Version(u32),
    /// Exactly this string: a `type` tag.
    Tag(&'static str),
    /// `null` or the inner shape.
    Nullable(&'static Schema),
    /// As an object field: the field may be absent.
    Opt(&'static Schema),
    /// An object with these fields, each required unless wrapped in
    /// [`Schema::Opt`]. Unknown keys are skipped after a syntax check, so
    /// documents may grow fields; a known key may appear only once.
    Obj(&'static [(&'static str, Schema)]),
    /// An array whose every element has the inner shape.
    ArrOf(&'static Schema),
}

/// Where a value sits in a document, for error messages: `runs[3].l1`.
#[derive(Clone, Copy)]
enum Path<'p> {
    Root,
    Key(&'p Path<'p>, &'static str),
    Index(&'p Path<'p>, usize),
}

impl Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => Ok(()),
            Path::Key(Path::Root, key) => f.write_str(key),
            Path::Key(up, key) => write!(f, "{up}.{key}"),
            Path::Index(up, i) => write!(f, "{up}[{i}]"),
        }
    }
}

impl Schema {
    /// Checks that `text` is one JSON document of this shape, without
    /// building a tree: it allocates only to unescape a key or tag that
    /// holds an escape, or to report a failure. The error names the path
    /// of the offending value, e.g. `runs[3]: missing "quality"`.
    pub(crate) fn validate(&self, text: &str) -> Result<(), String> {
        let mut sc = Scanner { text, pos: 0 };
        self.check(&mut sc, Path::Root)?;
        sc.finish()
    }

    fn check(&self, sc: &mut Scanner, path: Path) -> Result<(), String> {
        let at = |e: String| match path {
            Path::Root => e,
            _ => format!("{path}: {e}"),
        };
        sc.peek();
        let start = sc.pos;
        let found = |expected: String, found: &str| {
            at(format!(
                "expected {expected}, found {found} at byte {start}"
            ))
        };
        match self {
            Schema::U64 => {
                let raw = sc.number().map_err(at)?;
                if raw.parse::<u64>().is_err() {
                    return Err(found("an unsigned integer".into(), raw));
                }
            }
            Schema::Num if sc.keyword("null") => {}
            Schema::Num => drop(sc.number().map_err(at)?),
            Schema::Str => drop(sc.scan_string(|_, _| {}).map_err(at)?),
            Schema::Bool if sc.keyword("true") || sc.keyword("false") => {}
            Schema::Bool => return Err(at(sc.expected("a boolean"))),
            Schema::Version(v) => {
                let raw = sc.number().map_err(at)?;
                if raw.parse::<u64>() != Ok(u64::from(*v)) {
                    return Err(found(format!("version {v}"), raw));
                }
            }
            Schema::Tag(tag) => {
                let s = sc.string().map_err(at)?;
                if s != *tag {
                    return Err(found(format!("{tag:?}"), &format!("{s:?}")));
                }
            }
            Schema::Nullable(_) if sc.keyword("null") => {}
            Schema::Nullable(inner) | Schema::Opt(inner) => inner.check(sc, path)?,
            Schema::Obj(fields) => {
                if sc.peek() != Some(b'{') {
                    return Err(at(sc.expected("an object")));
                }
                debug_assert!(fields.len() <= 64, "`seen` has one bit per field");
                let mut seen = 0u64; // bit i: fields[i] was present
                sc.object(|key, sc| {
                    let Some(i) = fields.iter().position(|(name, _)| *name == key) else {
                        return sc.skip();
                    };
                    let (name, field) = &fields[i];
                    if seen & (1 << i) != 0 {
                        return Err(at(sc.error(format_args!("duplicate key {name:?}"))));
                    }
                    seen |= 1 << i;
                    field.check(sc, Path::Key(&path, name))
                })?;
                let missing = fields.iter().enumerate().find(|(i, (_, field))| {
                    seen & (1 << i) == 0 && !matches!(field, Schema::Opt(_))
                });
                if let Some((_, (name, _))) = missing {
                    return Err(at(format!("missing {name:?}")));
                }
            }
            Schema::ArrOf(item) => {
                if sc.peek() != Some(b'[') {
                    return Err(at(sc.expected("an array")));
                }
                let mut i = 0;
                sc.array(|sc| {
                    i += 1;
                    item.check(sc, Path::Index(&path, i - 1))
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn escaping_round_trips_through_parse() {
        let original = "a \"quoted\"\nline\twith \\ control \u{1} é";
        let mut s = String::new();
        push_str(&mut s, original);
        assert!(s.starts_with('"') && s.ends_with('"'));
        assert!(s.contains("\\u0001"));
        assert_eq!(parse(&s).unwrap(), JsonValue::Str(original.into()));
        let v = JsonValue::Str(original.into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn push_str_matches_per_char_escaping() {
        // The per-char escaper `push_str` replaced, kept as the reference.
        fn per_char(s: &str) -> String {
            let mut buf = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => buf.push_str("\\\""),
                    '\\' => buf.push_str("\\\\"),
                    '\n' => buf.push_str("\\n"),
                    '\r' => buf.push_str("\\r"),
                    '\t' => buf.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(buf, "\\u{:04x}", c as u32);
                    }
                    c => buf.push(c),
                }
            }
            buf.push('"');
            buf
        }
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for text in [
            "",
            "plain",
            "\"",
            "\\\\",
            "a \"quoted\"\nline\twith \\ control \u{1} é\r",
            "é\u{7f}\u{80}ü\u{1f}€\u{10348}\"",
            "\u{1f}trailing escape\n",
            &every_control,
        ] {
            let mut fast = String::new();
            push_str(&mut fast, text);
            assert_eq!(fast, per_char(text), "{text:?}");
        }
    }

    #[test]
    fn numbers_and_nonfinite() {
        let mut s = String::new();
        push_f64(&mut s, 1.5);
        assert_eq!(s, "1.5");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
        s.clear();
        let _ = write!(s, "{}", 0.25f64);
        assert_eq!(parse(&s).unwrap().render(), "0.25");
    }

    #[test]
    fn parses_and_rerenders_compactly() {
        let doc =
            r#" { "a" : [ 1 , 2.5 , -3e2 ] , "b" : { "c" : null , "d" : true } , "e" : "x\ny" } "#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.render(),
            r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\ny"}"#
        );
        // Rendering is a fixed point: parse(render(v)) == v.
        assert_eq!(parse(&v.render()).unwrap(), v);
        for ok in [
            "{}",
            "[]",
            "null",
            "-0",
            "0.5E+2",
            r#""\u00e9\/\b\f""#,
            "  [ 1 , 2 ]  ",
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn numbers_keep_their_raw_text() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v, JsonValue::Num("18446744073709551615".into()));
        assert_eq!(v.render(), "18446744073709551615");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"1}",
            "{\"a\":1,}",
            "\"unterminated",
            "{} x",
            "1.",
            "-",
            "1e",
            "{'k':1}",
            "nul",
            "01",
            "[1-2e+.]",
            "\"\\q\"",
            "\"\\u12g4\"",
            "\"tab\there\"",
            "{\"a\":1,\"a\":2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.contains("duplicate key"), "{err}");
    }

    #[test]
    fn get_walks_objects() {
        let v = parse(r#"{"a":{"b":7}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")),
            Some(&JsonValue::Num("7".into()))
        );
        assert_eq!(v.get("missing"), None);
    }

    static POINT: Schema = Schema::Obj(&[("x", Schema::U64), ("tag", Schema::Opt(&Schema::Str))]);
    static DOC: Schema = Schema::Obj(&[
        ("v", Schema::Version(2)),
        ("kind", Schema::Tag("pts")),
        ("scale", Schema::Num),
        ("on", Schema::Bool),
        ("origin", Schema::Nullable(&POINT)),
        ("points", Schema::ArrOf(&POINT)),
    ]);

    #[test]
    fn schema_walk_checks_types_paths_and_unknown_keys() {
        let ok = r#"{"v":2,"kind":"pts","scale":null,"on":true,"origin":null,"extra":{"y":[1]},"points":[{"x":1},{"x":2,"tag":"b"}]}"#;
        DOC.validate(ok).unwrap();
        for (bad, want) in [
            (ok.replace(r#"{"x":2,"#, "{"), r#"points[1]: missing "x""#),
            (
                ok.replace(r#""x":2"#, r#""x":-2"#),
                "points[1].x: expected an unsigned integer, found -2",
            ),
            (
                ok.replace(r#""v":2"#, r#""v":21"#),
                "v: expected version 2, found 21",
            ),
            (
                ok.replace(r#""pts""#, r#""pt""#),
                r#"kind: expected "pts", found "pt""#,
            ),
            (
                ok.replace("null,\"on\"", "\"1\",\"on\""),
                "scale: expected a number",
            ),
            (
                ok.replace(r#""origin":null"#, r#""origin":{"tag":"o"}"#),
                r#"origin: missing "x""#,
            ),
            (
                ok.replace(r#""on":true"#, r#""on":true,"on":false"#),
                r#"duplicate key "on""#,
            ),
            (ok.replace("[1]", "[1,]"), "expected a value"),
            (ok.to_string() + "x", "trailing garbage"),
        ] {
            let err = DOC.validate(&bad).unwrap_err();
            assert!(err.contains(want), "{bad}: {err}");
        }
    }

    /// Every field a schema table names must be documented in its
    /// SCHEMA.md section.
    #[test]
    fn schema_tables_match_schema_md() {
        fn names(schema: &Schema, out: &mut Vec<&'static str>) {
            match schema {
                Schema::Nullable(inner) | Schema::Opt(inner) | Schema::ArrOf(inner) => {
                    names(inner, out)
                }
                Schema::Obj(fields) => {
                    for (name, field) in *fields {
                        out.push(*name);
                        names(field, out);
                    }
                }
                _ => {}
            }
        }
        let doc = include_str!("../../../SCHEMA.md");
        let section = |heading: &str| {
            let start = doc
                .find(heading)
                .unwrap_or_else(|| panic!("no section {heading:?}"));
            let body = &doc[start + heading.len()..];
            // A `##` section runs to the next `## `; a `###` one to the next heading.
            let next = if heading.starts_with("### ") {
                "\n##"
            } else {
                "\n## "
            };
            &body[..body.find(next).unwrap_or(body.len())]
        };
        for (table, heading) in [
            (&crate::stats::STATS_DOC, "## Version history"),
            (&crate::stats::HOST_BENCH_DOC, "## Version history"),
            (
                &crate::campaign::PROFILE_DOC,
                "### `<out>/<name>.campaign_profile.json`",
            ),
            (&crate::campaign::HEARTBEAT_DOC, "### Heartbeat lines"),
            (
                &crate::campaign::BENCH_HISTORY_DOC,
                "### `results/BENCH_history.jsonl`",
            ),
        ] {
            let text = section(heading);
            let mut fields = Vec::new();
            names(table, &mut fields);
            assert!(!fields.is_empty());
            for name in fields {
                assert!(
                    text.contains(&format!("`{name}`")) || text.contains(&format!("\"{name}\"")),
                    "SCHEMA.md section {heading:?} does not document field {name:?}"
                );
            }
        }
    }
}
