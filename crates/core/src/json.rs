//! A minimal, escaping-correct JSON writer.
//!
//! The workspace's zero-external-dependency policy rules out `serde`.
//! The report types write themselves straight into one `String` through
//! this module's routines ([`push_str`], [`push_int`], [`push_float`],
//! [`push_rational`]); everything else builds a [`Json`] value tree and
//! renders it with [`Json::render`] (or `Display`), which runs the same
//! routines, so there is one set of formatting rules. A report embedded
//! in a tree is a [`Json::Raw`] fragment from its own writer. The writer
//! covers exactly what RFC 8259 requires of an emitter:
//!
//! * strings escape `"` and `\`, the short forms `\b \f \n \r \t`, and all
//!   other control characters below `U+0020` as `\u00XX`;
//! * non-finite floats have no JSON representation and render as `null`;
//! * object member order is preserved (deterministic output for diffing).
//!
//! Exact rationals ([`Q`]) are rendered as `{"num": …, "den": …,
//! "approx": …}` so consumers can choose between the exact value and a
//! ready-made float.

use srtw_minplus::Q;
use std::fmt::{self, Write as _};

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i128),
    /// A float; NaN and infinities render as `null`.
    Float(f64),
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; member order is preserved.
    Object(Vec<(String, Json)>),
    /// A fragment already rendered by this module's routines, emitted
    /// verbatim (a report embedded in a tree).
    Raw(String),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn object(members: Vec<(&str, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// An exact rational as `{"num", "den", "approx"}`.
    pub fn rational(q: Q) -> Json {
        Json::writing(|out| push_rational(out, q))
    }

    /// The verbatim fragment `write` appends to an empty buffer.
    pub fn writing(write: impl FnOnce(&mut String)) -> Json {
        let mut out = String::new();
        write(&mut out);
        Json::Raw(out)
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Appends the compact rendering to `out`: the one writer behind
    /// [`Json::render`] and `Display`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => push_bool(out, *b),
            Json::Int(i) => push_int(out, *i),
            Json::Float(x) => push_float(out, *x),
            Json::Str(s) => push_str(out, s),
            Json::Raw(s) => out.push_str(s),
            Json::Array(xs) => push_array(out, xs, |out, x| x.write_to(out)),
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends `true` or `false`.
pub fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends the object `{"key":value,…}`: each key a literal written as
/// is (so it must need no escape), each value written into `$out` by its
/// expression.
#[macro_export]
macro_rules! push_object {
    ($out:ident, $key:literal => $value:expr $(, $keys:literal => $values:expr)* $(,)?) => {{
        $out.push_str(concat!("{\"", $key, "\":"));
        $value;
        $(
            $out.push_str(concat!(",\"", $keys, "\":"));
            $values;
        )*
        $out.push('}');
    }};
}

/// Appends an integer; values that fit `i64` (every count and nearly
/// every rational part) format through the cheaper `i64` path.
pub fn push_int(out: &mut String, i: i128) {
    // Writing into a `String` cannot fail.
    let _ = match i64::try_from(i) {
        Ok(v) => write!(out, "{v}"),
        Err(_) => write!(out, "{i}"),
    };
}

/// Appends a float; NaN and infinities have no JSON form and render as
/// `null`, and integral values keep a `.0` so they stay float-typed.
pub fn push_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // What `{x:.1}` prints (the exact integer, `.0`, the sign of
        // `-0.0`), without its precision formatter: ≈15× faster.
        if x == 0.0 && x.is_sign_negative() {
            out.push('-');
        }
        push_int(out, x as i128);
        out.push_str(".0");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends an exact rational as `{"num":…,"den":…,"approx":…}`.
pub fn push_rational(out: &mut String, q: Q) {
    push_object!(out,
        "num" => push_int(out, q.numer()),
        "den" => push_int(out, q.denom()),
        "approx" => push_float(out, q.to_f64()),
    );
}

/// Appends `[item,…]`, each item written by `write`.
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, x);
    }
    out.push(']');
}

/// Appends `s` as a quoted JSON string, copying each run of bytes that
/// needs no escape with one `push_str`. Every byte of a multi-byte UTF-8
/// sequence is ≥ 0x80, so runs only ever end on character boundaries.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-42).render(), "-42");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(3.0).render(), "3.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_correctly() {
        assert_eq!(Json::str("plain").render(), "\"plain\"");
        assert_eq!(
            Json::str("say \"hi\"\\now").render(),
            r#""say \"hi\"\\now""#
        );
        assert_eq!(Json::str("a\nb\tc\r").render(), r#""a\nb\tc\r""#);
        assert_eq!(Json::str("\u{08}\u{0C}\u{01}").render(), r#""\b\f\u0001""#);
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(Json::str("β → δ").render(), "\"β → δ\"");
    }

    #[test]
    fn arrays_and_objects_render_in_order() {
        let v = Json::object(vec![
            ("b", Json::Int(1)),
            ("a", Json::Array(vec![Json::Int(2), Json::Null])),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[2,null]}"#);
        assert_eq!(Json::Array(vec![]).render(), "[]");
        assert_eq!(Json::Object(vec![]).render(), "{}");
    }

    #[test]
    fn rationals_carry_exact_and_approx() {
        assert_eq!(
            Json::rational(q(3, 4)).render(),
            r#"{"num":3,"den":4,"approx":0.75}"#
        );
        assert_eq!(
            Json::rational(Q::int(5)).render(),
            r#"{"num":5,"den":1,"approx":5.0}"#
        );
    }

    #[test]
    fn multi_byte_text_next_to_escapes_keeps_its_bytes() {
        assert_eq!(
            Json::str("→\"é\\😀\"").render(),
            r#""→\"é\\😀\"""#
        );
        assert_eq!(Json::str("\\→").render(), r#""\\→""#);
        assert_eq!(Json::str("😀\n").render(), r#""😀\n""#);
        assert_eq!(Json::str("a→b").render(), "\"a→b\"");
    }

    #[test]
    fn every_control_character_escapes_and_del_does_not() {
        let controls: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        assert_eq!(
            Json::str(controls).render(),
            concat!(
                r#""\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
                r#"\b\t\n\u000b\f\r\u000e\u000f"#,
                r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017"#,
                r#"\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
                "\u{7f}\""
            )
        );
    }

    #[test]
    fn empty_strings_and_escaped_keys() {
        assert_eq!(Json::str("").render(), r#""""#);
        let v = Json::Object(vec![
            (String::new(), Json::str("")),
            ("é\"\\\u{1}".to_owned(), Json::Array(vec![Json::str("\t")])),
        ]);
        assert_eq!(v.render(), r#"{"":"","é\"\\\u0001":["\t"]}"#);
        assert_eq!(v.to_string(), v.render());
    }

    #[test]
    fn integral_floats_print_like_the_precision_formatter() {
        let big = 1e15 - 1.0;
        for x in [0.0f64, -0.0, 1.0, -1.0, 3.0, 1e14, -1e14, big, -big] {
            assert_eq!(Json::Float(x).render(), format!("{x:.1}"));
        }
    }

    #[test]
    fn integers_keep_their_digits_on_both_paths() {
        let edges = [i64::MAX as i128, i64::MIN as i128, i128::MAX, i128::MIN];
        for i in [0, 7, -7, edges[0] + 1, edges[1] - 1]
            .into_iter()
            .chain(edges)
        {
            assert_eq!(Json::Int(i).render(), i.to_string());
        }
    }

    #[test]
    fn written_fragments_embed_verbatim() {
        let v = Json::Array(vec![
            Json::rational(q(1, 3)),
            Json::writing(
                |out| push_object!(out, "k" => push_str(out, "\\"), "n" => out.push_str("null")),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"[{"num":1,"den":3,"approx":0.3333333333333333},{"k":"\\","n":null}]"#
        );
        assert_eq!(v.to_string(), v.render());
    }

    #[test]
    fn keys_are_escaped_too() {
        let v = Json::Object(vec![("we\"ird".to_owned(), Json::Null)]);
        assert_eq!(v.render(), r#"{"we\"ird":null}"#);
    }
}
