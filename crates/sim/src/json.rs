//! A minimal JSON document model, rendered without dependencies.
//!
//! The observability layer ([`crate::metrics::Registry`] snapshots, the
//! bench crate's schema-versioned reports) needs machine-readable output,
//! and the build environment cannot fetch serde. This module covers the
//! subset of JSON the workspace emits: objects with ordered keys, arrays,
//! strings, booleans, null, and IEEE-754 numbers.
//!
//! Rendering is deterministic: object keys keep insertion order, floats
//! use the shortest round-trippable form (`{:?}` on `f64`), and
//! non-finite floats render as `null` (JSON has no NaN/Infinity).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 render exactly, with no `.0`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Builds a number from a `u64` (lossy above 2^53, as in all JSON).
    pub fn uint(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Builds a number from a `usize`.
    pub fn size(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// An empty object, for builder-style assembly.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects) and returns
    /// `self` for chaining.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: Json) -> Json {
        match &mut self {
            Json::Object(entries) => entries.push((key.into(), value)),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if *n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
                    // Integral values print without a trailing ".0".
                    fmt::Write::write_fmt(out, format_args!("{}", *n as i64))
                        .expect("string write");
                } else {
                    fmt::Write::write_fmt(out, format_args!("{n:?}")).expect("string write");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    write_escaped(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    entries[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
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
            c if (c as u32) < 0x20 => {
                fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32))
                    .expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Converts a map into a JSON object with sorted keys.
impl From<&BTreeMap<String, f64>> for Json {
    fn from(map: &BTreeMap<String, f64>) -> Json {
        Json::Object(
            map.iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::str("a\"b\\c\n").render(), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn renders_nested_pretty() {
        let doc = Json::object()
            .with("name", Json::str("fig5"))
            .with("rows", Json::Array(vec![Json::Num(1.0), Json::Num(2.5)]));
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\"name\": \"fig5\""));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(doc.render(), "{\"name\":\"fig5\",\"rows\":[1,2.5]}");
    }

    #[test]
    fn renders_a_nested_document_exactly() {
        let doc = Json::object()
            .with("schema_version", Json::uint(1))
            .with("ok", Json::Bool(false))
            .with("x", Json::Null)
            .with(
                "nested",
                Json::Array(vec![
                    Json::str("päyload \"quoted\""),
                    Json::Num(-1.5e-3),
                    Json::object().with("k", Json::Num(9007199254740991.0)),
                    Json::Array(Vec::new()),
                ]),
            );
        assert_eq!(
            doc.render(),
            r#"{"schema_version":1,"ok":false,"x":null,"nested":["päyload \"quoted\"",-0.0015,{"k":9007199254740991},[]]}"#
        );
        let pretty = r#"{
  "schema_version": 1,
  "ok": false,
  "x": null,
  "nested": [
    "päyload \"quoted\"",
    -0.0015,
    {
      "k": 9007199254740991
    },
    []
  ]
}
"#;
        assert_eq!(doc.render_pretty(), pretty);
    }

    #[test]
    fn renders_control_characters_escaped_and_non_finite_as_null() {
        assert_eq!(Json::str("A\t\r\u{1}é").render(), r#""A\t\r\u0001é""#);
        let non_finite = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].map(Json::Num);
        assert_eq!(
            Json::Array(non_finite.to_vec()).render(),
            "[null,null,null]"
        );
    }

    #[test]
    fn get_and_accessors() {
        let doc = Json::object()
            .with("n", Json::Num(2.0))
            .with("s", Json::str("x"));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
    }
}
