//! Minimal JSON writer for the result lines and the trace file.

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Shortest round-trip form keeps every measured digit.
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(xs) => {
                f.write_char('[')?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_char(']')
            }
            Json::Obj(kvs) => {
                f.write_char('{')?;
                for (i, (k, v)) in kvs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            (
                "b",
                Json::Arr(vec![Json::Int(2), Json::Bool(true), Json::Null]),
            ),
            ("c", Json::str("x\"y")),
            ("d", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.5, "b": [2, true, null], "c": "x\"y", "d": null}"#
        );
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
    }
}
