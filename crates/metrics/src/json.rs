//! The one JSON codec: the writer and reader of `summary.json`, the trace
//! JSONL and the timeline JSONL, and the reader `xtask bench-record` uses
//! for `BENCHMARK.json` and hostbench's result line.
//!
//! The three documents are built from one shape: a flat object whose
//! values are scalars (string, number or bool). The one reader yields the
//! one parsed form, [`Json`], which keeps each scalar as its *raw token*,
//! so integer and float fields convert exactly and exact comparison is
//! token equality, with no float round trip in between. The JSONL frame
//! (header line, point markers, per-point record lines) is shared by the
//! trace and timeline documents and read a line, one flat object, at a time.
//!
//! Everything here is dependency-free: the workspace is hermetic, and this
//! subset of JSON (no `null`) is small enough to own.

use std::fmt::{self, Write as _};
use std::io::BufRead;
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
struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str) -> Self {
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

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    /// Fails unless only whitespace is left.
    fn end(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.err("trailing characters"),
        }
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let rest = &self.src[self.pos..];
        if let Some(end) = rest
            .find(['"', '\\'])
            .filter(|&i| rest.as_bytes()[i] == b'"')
        {
            self.pos += end + 1;
            return Ok(rest[..end].to_string());
        }
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
    fn value(&mut self) -> Result<String, ParseError> {
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
    fn list(
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

    /// Any value: a scalar as its token, or a nested array or object.
    fn any(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.list(b'}', |r| {
                    let name = r.string()?;
                    r.expect(b':')?;
                    fields.push((name, r.any()?));
                    Ok(())
                })?;
                Ok(Json::Object(fields))
            }
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

    /// Whether this is an object whose values are all scalars: the shape
    /// of a JSONL line and of a `summary.json` point.
    pub(crate) fn is_flat_object(&self) -> bool {
        match self {
            Json::Object(fields) => fields.iter().all(|(_, v)| matches!(v, Json::Scalar(_))),
            _ => false,
        }
    }

    /// Field `name` of an object as `read` ([`Json::to`] or [`Json::str`])
    /// converts it; the error names the field.
    pub(crate) fn required<T>(
        &self,
        name: &str,
        read: impl FnOnce(&Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .get(name)
            .ok_or_else(|| format!("missing field '{name}'"))?;
        read(v).ok_or_else(|| format!("field '{name}' is malformed"))
    }
}

/// Renders a JSONL document: the header line, then for each point its
/// marker line followed by whatever `record` appends for each of its items.
pub(crate) fn write_jsonl<T, K: AsRef<str>, I: AsRef<[T]>>(
    schema_version: u64,
    points: &[(K, I)],
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
            &[("event", Val::S("point")), ("key", Val::S(key.as_ref()))],
        );
        for item in items.as_ref() {
            record(&mut out, item);
        }
    }
    out
}

/// Reads a JSONL document written by [`write_jsonl`] one line at a time,
/// holding no more than that line: checks the header (whose
/// `schema_version` must equal `schema_version`), then hands `visit` each
/// point marker's key (with `None`) and each record line of that point, a
/// flat object, with its `event` kind.
pub(crate) fn read_jsonl(
    mut src: impl BufRead,
    what: &str,
    schema_version: u64,
    mut visit: impl FnMut(&str, Option<(&str, &Json)>) -> Result<(), String>,
) -> Result<(), ParseError> {
    let mut saw_header = false;
    let mut point: Option<String> = None;
    let mut text = String::new();
    for line in 1.. {
        text.clear();
        let at = |msg: String| ParseError { msg, line };
        if src.read_line(&mut text).map_err(|e| at(e.to_string()))? == 0 {
            break;
        }
        if text.trim().is_empty() {
            continue;
        }
        let fields = Json::read(&text).map_err(|e| at(e.msg))?;
        if !fields.is_flat_object() {
            return Err(at("expected an object of scalars".into()));
        }
        let event = fields.required("event", Json::str).map_err(at)?;
        match (saw_header, event.as_str(), &point) {
            (false, "header", _) => {
                let v: u64 = fields.required("schema_version", Json::to).map_err(at)?;
                if v != schema_version {
                    return Err(at(format!(
                        "unsupported {what} schema {v} (expected {schema_version})"
                    )));
                }
                saw_header = true;
            }
            (false, _, _) => return Err(at("missing header line".into())),
            (true, "point", _) => {
                let key = point.insert(fields.required("key", Json::str).map_err(at)?);
                visit(key, None).map_err(at)?
            }
            (true, kind, Some(key)) => visit(key, Some((kind, &fields))).map_err(at)?,
            (true, kind, None) => return Err(at(format!("{kind} before first point marker"))),
        }
    }
    if !saw_header {
        return Err(ParseError {
            msg: "missing header line".into(),
            line: 0,
        });
    }
    Ok(())
}

/// Parses a JSONL document written by [`write_jsonl`] into its `(point
/// key, items)` pairs, in document order; `record` decodes each record
/// line, with its `event` kind, onto the current point's items.
pub(crate) fn parse_jsonl<T>(
    src: impl BufRead,
    what: &str,
    schema_version: u64,
    mut record: impl FnMut(&str, &Json, &mut Vec<T>) -> Result<(), String>,
) -> Result<Vec<(String, Vec<T>)>, ParseError> {
    let mut points: Vec<(String, Vec<T>)> = Vec::new();
    read_jsonl(src, what, schema_version, |key, line| {
        match (line, points.last_mut()) {
            (None, _) => points.push((key.to_string(), Vec::new())),
            (Some((kind, fields)), Some((_, items))) => record(kind, fields, items)?,
            (Some(_), None) => {}
        }
        Ok(())
    })?;
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
            let point = &parsed.get("points").expect("points").items()[0];
            assert_eq!(point.get("key").and_then(Json::str).as_deref(), Some(key));

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
            let mut parsed: Vec<(String, Vec<TraceEvent>)> = Vec::new();
            trace::visit_jsonl(doc.as_bytes(), |point, event| match event {
                None => parsed.push((point.to_string(), Vec::new())),
                Some(e) => parsed[0].1.push(e),
            })
            .expect("trace");
            assert_eq!(parsed[0].0, key);
            assert_eq!(trace::write_jsonl(&parsed), doc);

            let samples = vec![StateSample::default()];
            let doc = timeline::write_jsonl(&[(key.to_string(), samples)]);
            let parsed = timeline::parse_jsonl(doc.as_bytes()).expect("timeline");
            assert_eq!(parsed[0].0, key);
            assert_eq!(timeline::write_jsonl(&parsed), doc);
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
            (
                "H\n{\"event\":\"point\",\"key\":[\"p\"]}",
                2,
                "object of scalars",
            ),
            ("H\n[1]", 2, "object of scalars"),
            ("H\n{\"event\":\"point\"}", 2, "missing field 'key'"),
            (
                "{\"event\":\"header\",\"schema_version\":\"1\"}",
                1,
                "is malformed",
            ),
        ];
        let header = |v: u64| format!("{{\"event\":\"header\",\"schema_version\":{v}}}");
        for (doc, line, msg) in cases {
            let trace_doc = doc.replace('H', &header(TRACE_SCHEMA_VERSION));
            let timeline_doc = doc.replace('H', &header(TIMELINE_SCHEMA_VERSION));
            let errs = [
                trace::visit_jsonl(trace_doc.replace('R', "flash").as_bytes(), |_, _| {}),
                timeline::parse_jsonl(timeline_doc.replace('R', "sample").as_bytes()).map(drop),
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
