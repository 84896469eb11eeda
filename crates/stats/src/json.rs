//! A minimal JSON writer for the `BENCH_*.json` documents (the workspace
//! is std-only). Build a [`Json`] tree and [`render`](Json::render) it;
//! a container holding only scalars prints on one line, so a record per
//! workload stays a line per workload.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An unsigned integer, printed exactly.
    Int(u64),
    /// A real number: six decimals when finite, `null` otherwise (JSON
    /// has no NaN or infinity).
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An ordered list.
    Array(Vec<Json>),
    /// Key/value pairs in insertion order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// Renders the value as a document: two-space indentation and a
    /// trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) if v.is_finite() => out.push_str(&format!("{v:.6}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                let items = items.iter().map(|v| (None, v)).collect();
                write_container(out, indent, ['[', ']'], items);
            }
            Json::Object(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(*k), v)).collect();
                write_container(out, indent, ['{', '}'], items);
            }
        }
    }
}

/// Array elements (`None` keys) or object fields, inline when every
/// value is a scalar and one per line otherwise.
fn write_container(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    items: Vec<(Option<&str>, &Json)>,
) {
    let inline = !items
        .iter()
        .any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_)));
    let (sep, inner) = if inline {
        (", ", indent)
    } else {
        (",", indent + 2)
    };
    out.push(open);
    for (i, (key, value)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        if !inline {
            let _ = write!(out, "\n{:inner$}", "");
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, inner);
    }
    if !inline {
        let _ = write!(out, "\n{:indent$}", "");
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::Json::{Array, Int, Num, Object, Str};

    #[test]
    fn renders_escapes_non_finite_numbers_and_nesting() {
        let doc = Object(vec![
            ("schema", Str("a \"q\" \\ \n\u{1}".into())),
            ("empty", Array(vec![])),
            (
                "rows",
                Array(vec![
                    Object(vec![
                        ("n", Int(7)),
                        ("x", Num(0.25)),
                        ("bad", Num(f64::NAN)),
                    ]),
                    Object(vec![
                        ("inf", Num(f64::INFINITY)),
                        ("ids", Array(vec![Int(1), Int(2)])),
                    ]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"a \\\"q\\\" \\\\ \\n\\u0001\",\n  \"empty\": [],\n  \"rows\": [\n    \
             {\"n\": 7, \"x\": 0.250000, \"bad\": null},\n    \
             {\n      \"inf\": null,\n      \"ids\": [1, 2]\n    }\n  ]\n}\n"
        );
    }
}
