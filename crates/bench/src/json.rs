//! The one JSON emitter behind every report of the harness: the
//! `BENCH_*.json` artifacts and `remap verify --format json`.
//!
//! The workspace carries no serialization dependency, so this module is
//! deliberately small. [`Json`] is a value to *write*; nothing in the
//! workspace reads JSON.
//!
//! # Layout
//!
//! [`render`] lays a document out by one rule:
//!
//! * the top-level object has one member per line at a 2-space indent;
//! * an array whose elements are objects or arrays has one element per
//!   line, indented 2 more than the line that opens it;
//! * everything else is inline, with `": "` and `", "` separators.
//!
//! [`Json`]'s `Display` is the all-inline form, used for one-line records.
//! Strings have one escaper: `"`, `\`, `\n`, `\r`, and `\t` get their short
//! escapes, every other control character becomes `\u00XX`.

use std::fmt::{self, Write};

/// A JSON value to render. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float printed with a fixed number of decimals (`{:.N}`); a
    /// non-finite value renders as `null`.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Writes the value; `indent` is the indentation of the current line
    /// of a document (0 only for the document itself), `None` for the
    /// all-inline form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Fixed(v, _) if !v.is_finite() => out.push_str("null"),
            Json::Fixed(v, d) => out.push_str(&format!("{v:.d$}")),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                let block = items
                    .iter()
                    .any(|v| matches!(v, Json::Obj(_) | Json::Arr(_)));
                let items = items.iter().map(|v| (None, v));
                write_seq(out, "[]", items, indent, indent.filter(|_| block));
            }
            Json::Obj(members) => {
                let items = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                let top = indent.filter(|&n| n == 0 && !members.is_empty());
                write_seq(out, "{}", items, indent, top);
            }
        }
    }
}

/// Writes a bracketed sequence of optionally keyed items: one per line at
/// `block + 2` when `block` is set, otherwise inline on a line indented
/// `indent`.
fn write_seq<'a>(
    out: &mut String,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    indent: Option<usize>,
    block: Option<usize>,
) {
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match block {
            Some(n) => out.push_str(&format!("\n{:w$}", "", w = n + 2)),
            None if i > 0 => out.push(' '),
            None => {}
        }
        if let Some(k) = key {
            escape(k, out);
            out.push_str(": ");
        }
        v.write(out, block.map_or(indent, |n| Some(n + 2)));
    }
    if let Some(n) = block {
        out.push_str(&format!("\n{:n$}", ""));
    }
    out.push_str(&brackets[1..]);
}

/// The all-inline form: one line, no trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None);
        f.write_str(&s)
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}
json_int!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Renders a document by the layout rule of the module docs, ending in a
/// newline.
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    doc.write(&mut out, Some(0));
    out.push('\n');
    out
}

/// Appends `s` as a quoted JSON string.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_rule() {
        let doc = Json::obj([
            ("n", 2u32.into()),
            ("xs", Json::Arr(vec![1u32.into(), 2u32.into()])),
            (
                "rows",
                Json::Arr(vec![Json::obj([
                    ("a", Json::Fixed(0.5, 2)),
                    ("pts", Json::Arr(vec![Json::obj([("t", Json::Null)])])),
                ])]),
            ),
            ("none", Json::Arr(vec![])),
            ("o", Json::obj([("s", "x".into()), ("b", true.into())])),
        ]);
        assert_eq!(
            render(&doc),
            "{\n  \"n\": 2,\n  \"xs\": [1, 2],\n  \"rows\": [\n    {\"a\": 0.50, \"pts\": [\n      \
             {\"t\": null}\n    ]}\n  ],\n  \"none\": [],\n  \
             \"o\": {\"s\": \"x\", \"b\": true}\n}\n"
        );
        assert_eq!(render(&Json::Arr(vec![])), "[]\n");
        assert_eq!(
            Json::obj([("v", Json::Fixed(f64::NAN, 1)), ("w", Some(3u64).into())]).to_string(),
            "{\"v\": null, \"w\": 3}"
        );
    }

    #[test]
    fn strings_escape_every_control_character() {
        let s = Json::from("q\"b\\n\nr\rt\tesc\u{1b}nul\0é").to_string();
        assert_eq!(s, "\"q\\\"b\\\\n\\nr\\rt\\tesc\\u001bnul\\u0000é\"");
    }
}
