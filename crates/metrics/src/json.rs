//! The one JSON codec: the writer and reader of `summary.json`, the trace
//! JSONL and the timeline JSONL, and the reader `xtask bench-record` uses
//! for `BENCHMARK.json` and hostbench's result line.
//!
//! The three documents are built from one shape: a flat object whose
//! values are scalars (string, number or bool). The reader keeps numbers
//! and bools as their *raw token*, so integer and float fields convert
//! exactly and exact comparison is token equality, with no float round
//! trip in between. [`Json`] is the same reader for nested documents: its
//! scalars are raw tokens too. The JSONL frame (header line, point
//! markers, per-point record lines) is shared by the trace and timeline
//! documents.
//!
//! Everything here is dependency-free: the workspace is hermetic, and this
//! subset of JSON (no `null`) is small enough to own.

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Escapes `s` for use inside a JSON string literal.
pub fn esc(s: &str) -> String {
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

/// One scalar to write. Strings render quoted and escaped, floats with a
/// fixed six-decimal precision.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Val<'a> {
    /// A string.
    S(&'a str),
    /// An unsigned integer.
    U(u64),
    /// A float, rendered `{:.6}`.
    F(f64),
    /// A bool.
    B(bool),
}

impl fmt::Display for Val<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Val::S(s) => write!(f, "\"{}\"", esc(s)),
            Val::U(n) => write!(f, "{n}"),
            Val::F(x) => write!(f, "{x:.6}"),
            Val::B(b) => write!(f, "{b}"),
        }
    }
}

/// Appends `fields` as one compact JSON object line.
pub(crate) fn line(out: &mut String, fields: &[(&str, Val<'_>)]) {
    out.push('{');
    for (i, (name, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{name}\":{v}");
    }
    out.push_str("}\n");
}

/// A parse failure of any JSON document, with the 1-based line it happened
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or found.
    pub msg: String,
    /// 1-based line number in the document (0 for a document-level
    /// failure such as a missing header).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

/// A cursor over one JSON document.
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Self { src, pos: 0 }
    }

    fn err<T>(&self, msg: &str) -> Result<T, ParseError> {
        let line = 1 + self.src.as_bytes()[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        Err(ParseError {
            msg: format!("{msg} at byte {}", self.pos),
            line,
        })
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consumes `c` if it comes next (after whitespace).
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    pub(crate) fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    /// Fails unless only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.err("trailing characters"),
        }
    }

    /// A string literal, unescaped.
    pub(crate) fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.src[self.pos..].char_indices();
        loop {
            let Some((i, c)) = chars.next() else {
                return self.err("unterminated string");
            };
            let c = match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('/') => '/',
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok();
                        match code.filter(|_| hex.len() == 4).and_then(char::from_u32) {
                            Some(c) => c,
                            None => {
                                self.pos += i;
                                return self.err("bad \\u escape");
                            }
                        }
                    }
                    _ => {
                        self.pos += i;
                        return self.err("bad escape");
                    }
                },
                c => c,
            };
            out.push(c);
        }
    }

    /// One scalar as its token: numbers and bools raw, strings re-rendered
    /// quoted and escaped, so token equality is content equality.
    pub(crate) fn value(&mut self) -> Result<String, ParseError> {
        if self.peek() == Some(b'"') {
            return Ok(format!("\"{}\"", esc(&self.string()?)));
        }
        let rest = &self.src[self.pos..];
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.')))
            .unwrap_or(rest.len());
        let tok = &rest[..len];
        let number = tok.starts_with(|c: char| c == '-' || c.is_ascii_digit());
        if !(number || tok == "true" || tok == "false") {
            return self.err("expected a string, number or bool");
        }
        self.pos += len;
        Ok(tok.to_string())
    }

    /// Reads `item (',' item)* close`, or just `close`; the opening
    /// bracket is already consumed.
    pub(crate) fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    /// One object as `(name, value)` pairs in document order, each value
    /// read by `value`.
    fn object<T>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<(String, T)>, ParseError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.list(b'}', |r| {
            let name = r.string()?;
            r.expect(b':')?;
            out.push((name, value(r)?));
            Ok(())
        })?;
        Ok(out)
    }

    /// One flat object of scalars as `(name, token)` pairs.
    pub(crate) fn flat_object(&mut self) -> Result<Vec<(String, String)>, ParseError> {
        self.object(Self::value)
    }

    /// Any value: a scalar as its token, or a nested array or object.
    fn any(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(Self::any).map(Json::Object),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.list(b']', |r| r.any().map(|v| items.push(v)))?;
                Ok(Json::Array(items))
            }
            _ => self.value().map(Json::Scalar),
        }
    }
}

/// A parsed JSON document: a scalar kept as its raw token (numbers and
/// bools as written, strings quoted and escaped), an array, or an object
/// with its fields in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// A string, number or bool, as its token.
    Scalar(String),
    /// An array's items.
    Array(Vec<Json>),
    /// An object's `(name, value)` fields.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Reads one whole document.
    ///
    /// # Errors
    ///
    /// The first syntax error, `null`, or trailing input, with its line.
    pub fn read(src: &str) -> Result<Self, ParseError> {
        let mut r = Reader::new(src);
        let v = r.any()?;
        r.end()?;
        Ok(v)
    }

    /// Field `name` of an object; `None` when missing or not an object.
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An array's items; empty for anything else.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    /// A number or bool converted from its token.
    pub fn to<T: FromStr>(&self) -> Option<T> {
        match self {
            Json::Scalar(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// A string, unescaped.
    pub fn str(&self) -> Option<String> {
        match self {
            Json::Scalar(tok) => Reader::new(tok).string().ok(),
            _ => None,
        }
    }
}

/// The raw token of field `name`.
pub(crate) fn field<'f>(fields: &'f [(String, String)], name: &str) -> Option<&'f str> {
    fields
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Field `name` converted from its raw token (numbers and bools).
pub(crate) fn get<T: FromStr>(fields: &[(String, String)], name: &str) -> Result<T, String> {
    let tok = field(fields, name).ok_or_else(|| format!("missing field '{name}'"))?;
    tok.parse()
        .map_err(|_| format!("field '{name}' is not a {}", std::any::type_name::<T>()))
}

/// String field `name`, unescaped.
pub(crate) fn get_str(fields: &[(String, String)], name: &str) -> Result<String, String> {
    let tok = field(fields, name).ok_or_else(|| format!("missing field '{name}'"))?;
    Reader::new(tok)
        .string()
        .map_err(|_| format!("field '{name}' is not a string"))
}

/// Renders a JSONL document: the header line, then for each point its
/// marker line followed by whatever `record` appends for each of its items.
pub(crate) fn write_jsonl<T>(
    schema_version: u64,
    points: &[(String, Vec<T>)],
    mut record: impl FnMut(&mut String, &T),
) -> String {
    let mut out = String::new();
    line(
        &mut out,
        &[
            ("event", Val::S("header")),
            ("schema_version", Val::U(schema_version)),
            ("clock", Val::S("virtual-ns")),
        ],
    );
    for (key, items) in points {
        line(
            &mut out,
            &[("event", Val::S("point")), ("key", Val::S(key))],
        );
        for item in items {
            record(&mut out, item);
        }
    }
    out
}

/// Parses a JSONL document written by [`write_jsonl`]: the header (whose
/// `schema_version` must equal `schema_version`), point markers, and
/// record lines, each handed to `record` with its `event` kind, its fields
/// and the current point's items.
pub(crate) fn parse_jsonl<T>(
    src: &str,
    what: &str,
    schema_version: u64,
    mut record: impl FnMut(&str, &[(String, String)], &mut Vec<T>) -> Result<(), String>,
) -> Result<Vec<(String, Vec<T>)>, ParseError> {
    let mut points: Vec<(String, Vec<T>)> = Vec::new();
    let mut saw_header = false;
    for (idx, text) in src.lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        let at = |msg: String| ParseError { msg, line: idx + 1 };
        let mut r = Reader::new(text);
        let fields = r
            .flat_object()
            .and_then(|f| r.end().map(|()| f))
            .map_err(|e| at(e.msg))?;
        let event = get_str(&fields, "event").map_err(at)?;
        match (saw_header, event.as_str()) {
            (false, "header") => {
                let v: u64 = get(&fields, "schema_version").map_err(at)?;
                if v != schema_version {
                    return Err(at(format!(
                        "unsupported {what} schema {v} (expected {schema_version})"
                    )));
                }
                saw_header = true;
            }
            (false, _) => return Err(at("missing header line".into())),
            (true, "point") => points.push((get_str(&fields, "key").map_err(at)?, Vec::new())),
            (true, kind) => match points.last_mut() {
                Some((_, items)) => record(kind, &fields, items).map_err(at)?,
                None => return Err(at(format!("{kind} before first point marker"))),
            },
        }
    }
    if !saw_header {
        return Err(ParseError {
            msg: "missing header line".into(),
            line: 0,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::Json;
    use crate::summary::{self, PointSummary, RunSummary, SCHEMA_VERSION};
    use crate::timeline::{self, StateSample, TIMELINE_SCHEMA_VERSION};
    use crate::trace::{self, TraceEvent, TRACE_SCHEMA_VERSION};

    const ODD_KEYS: [&str; 3] = ["fig/ÄÖ/日本", "\u{1}\t", "we\"ird\nkey\\"];

    #[test]
    fn odd_point_keys_roundtrip_through_all_three_documents() {
        for key in ODD_KEYS {
            let run = RunSummary {
                schema_version: SCHEMA_VERSION,
                capacity_bytes: 1,
                seed: 2,
                total_wall_secs: 0.5,
                points: vec![PointSummary {
                    key: key.to_string(),
                    workload: key.to_string(),
                    ..PointSummary::default()
                }],
            };
            let parsed = summary::parse(&run.to_json()).expect("summary");
            assert_eq!(parsed.points[0].key, key);

            let events = vec![TraceEvent::Span {
                kind: key.to_string(),
                label: String::new(),
                level: 1,
                id: 2,
                start: 3,
                end: 4,
                pages_read: 5,
                pages_written: 6,
            }];
            let doc = trace::write_jsonl(&[(key.to_string(), events)]);
            let parsed = trace::parse_jsonl(&doc).expect("trace");
            assert_eq!(parsed.points[0].0, key);
            assert_eq!(trace::write_jsonl(&parsed.points), doc);

            let samples = vec![StateSample::default()];
            let doc = timeline::write_jsonl(&[(key.to_string(), samples)]);
            let parsed = timeline::parse_jsonl(&doc).expect("timeline");
            assert_eq!(parsed.points[0].0, key);
            assert_eq!(timeline::write_jsonl(&parsed.points), doc);
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_line_number() {
        // `H` stands for a valid header line, `R` for a record kind.
        let cases = [
            (
                "H\n{\"event\":\"point\",\"key\":\"p",
                2,
                "unterminated string",
            ),
            ("H\n{\"event\":\"point\",\"key\":\"\\q\"}", 2, "bad escape"),
            ("H\n{\"event\"\"point\"}", 2, "expected ':'"),
            ("H\n{\"event\":\"point\"} x", 2, "trailing"),
            ("\n{\"event\":\"point\",\"key\":\"p\"}", 2, "missing header"),
            (
                "{\"event\":\"header\",\"schema_version\":99}",
                1,
                "unsupported",
            ),
            ("H\n\n{\"event\":\"R\"}", 3, "before first point marker"),
        ];
        let header = |v: u64| format!("{{\"event\":\"header\",\"schema_version\":{v}}}");
        for (doc, line, msg) in cases {
            let trace_doc = doc.replace('H', &header(TRACE_SCHEMA_VERSION));
            let timeline_doc = doc.replace('H', &header(TIMELINE_SCHEMA_VERSION));
            let errs = [
                trace::parse_jsonl(&trace_doc.replace('R', "flash")).map(drop),
                timeline::parse_jsonl(&timeline_doc.replace('R', "sample")).map(drop),
            ];
            for err in errs {
                let err = err.expect_err(doc);
                assert!(err.line == line && err.msg.contains(msg), "{doc:?}: {err}");
            }
        }
        let doc = "{\n  \"seed\": 1,\n  \"points\": [\n    {\"k\" 1}\n  ]\n}";
        let err = summary::parse(doc).expect_err(doc);
        assert!(err.line == 4 && err.msg.contains("expected ':'"), "{err}");
    }

    #[test]
    fn reads_nested_values() {
        let doc = "{\"a\": [1, -2.5e1, \"s\\\"q\", []],\n \"b\": {\"c\": true, \"d\": {}}}";
        let v = Json::read(doc).unwrap();
        let a = v.get("a").unwrap().items();
        assert_eq!(a[0].to::<u64>(), Some(1));
        assert_eq!(a[1].to::<f64>(), Some(-25.0));
        assert_eq!(a[2].str().as_deref(), Some("s\"q"));
        assert_eq!(a[2].to::<f64>(), None);
        assert_eq!(a[3], Json::Array(Vec::new()));
        let b = v.get("b").unwrap();
        assert_eq!(b.get("c").and_then(Json::to::<bool>), Some(true));
        assert_eq!(b.get("d"), Some(&Json::Object(Vec::new())));
        assert_eq!(b.get("x"), None);
        assert!(b.items().is_empty() && a[0].get("c").is_none() && b.str().is_none());

        let cases = [
            ("{\"a\": 1}\n x", 2, "trailing"),
            ("[1,\n 2", 2, "expected ','"),
            ("{\"a\": [1, 2}", 1, "expected ','"),
            ("\n\n{\"a\": null}", 3, "expected a string, number or bool"),
        ];
        for (doc, line, msg) in cases {
            let err = Json::read(doc).expect_err(doc);
            assert!(err.line == line && err.msg.contains(msg), "{doc:?}: {err}");
        }
    }

    #[test]
    fn reads_every_string_escape() {
        let doc = r#"["\"\\\/\b\f\n\r\t\u00e9"]"#;
        let s = Json::read(doc).unwrap().items()[0].str();
        assert_eq!(s.as_deref(), Some("\"\\/\u{8}\u{c}\n\r\t\u{e9}"));
    }
}
