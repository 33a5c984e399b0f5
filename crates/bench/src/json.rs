//! The one JSON writer of the bench tooling: `BENCH_sim.json` and the
//! figure dumps under `results/` are built as [`Json`] values and rendered
//! here (the workspace has no JSON library).
//!
//! Floats carry the number of decimals they print with, so every number
//! renders byte-equal to `format!("{:.N}")` and the `make bench-smoke` gate
//! can exact-match rounded values. A NaN or infinite float is a bug in the
//! producer; rendering it panics with its key instead of writing invalid
//! JSON.

use std::fmt::Write as _;
use stepstone_core::engine::{RunCounters, FB_LABELS};

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u128),
    /// A float and the number of decimals it prints with.
    Fixed(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// An object literal with fields in the order written:
/// `obj! { "m": 512u64, "level": "BG", "drop": Json::Fixed(3.0, 1) }`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $val:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($val))),*])
    };
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

macro_rules! from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(v as u128)
            }
        }
    )*};
}
from_uint!(u32, u64, u128, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The engine's run-granularity counters, as `BENCH_sim.json` records them.
impl From<&RunCounters> for Json {
    fn from(c: &RunCounters) -> Self {
        let fallback = FB_LABELS.iter().zip(c.fallback).map(|(l, n)| (l.to_string(), n.into()));
        obj! {
            "runs": c.runs,
            "run_blocks": c.run_blocks,
            "mean_run_len": Json::Fixed(c.mean_run_len(), 2),
            "hist": c.hist.to_vec(),
            "fallback": Json::Obj(fallback.collect()),
        }
    }
}

impl Json {
    /// The document text with a trailing newline. A container whose
    /// children are all scalars (or empty) prints on one line; any other
    /// puts each child on its own line, indented two spaces per level.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, "", 0);
        out.push('\n');
        out
    }

    /// `key` is the innermost object key enclosing this value, named by
    /// the non-finite-float panic.
    fn write(&self, out: &mut String, key: &str, indent: usize) {
        let (brackets, items): ([char; 2], Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Fixed(v, decimals) => {
                assert!(v.is_finite(), "non-finite float {v} under JSON key \"{key}\"");
                return out.push_str(&format!("{v:.decimals$}"));
            }
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                (['{', '}'], fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let nested = items.iter().any(|(_, v)| match v {
            Json::Arr(items) => !items.is_empty(),
            Json::Obj(fields) => !fields.is_empty(),
            _ => false,
        });
        let newline = |out: &mut String, indent: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent));
        };
        out.push(brackets[0]);
        for (i, (k, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if nested {
                newline(out, indent + 2);
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(k) = k {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write(out, k.unwrap_or(key), indent + 2);
        }
        if nested {
            newline(out, indent);
        }
        out.push(brackets[1]);
    }
}

/// `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Json::from("a\"b\\c\nd\te\rf\u{1}g\u{1f}h é");
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh é\"\n");
        // Keys are escaped the same way.
        let o = Json::Obj(vec![("k\"".into(), true.into())]);
        assert_eq!(o.render(), "{\"k\\\"\": true}\n");
    }

    #[test]
    fn nested_containers_keep_key_order_and_indent() {
        let doc = obj! {
            "z": 1u64,
            "a": vec![obj! { "y": "s", "b": false }, obj! {}],
            "m": obj! { "list": vec![1u64, 2, 3], "empty": Vec::<Json>::new() },
        };
        assert_eq!(
            doc.render(),
            "{\n  \"z\": 1,\n  \"a\": [\n    {\"y\": \"s\", \"b\": false},\n    {}\n  ],\n  \
             \"m\": {\n    \"list\": [1, 2, 3],\n    \"empty\": []\n  }\n}\n"
        );
        assert_eq!(Json::from(u128::MAX).render(), format!("{}\n", u128::MAX));
    }

    #[test]
    fn fixed_floats_render_like_format_precision() {
        // The precisions `make bench-smoke` exact-matches, on values that
        // round (half-way, carry, tiny, large).
        for v in [0.0, 0.125, 0.5, 1.005, 2.675, 114.695, 19.2, 1562500.0, 9.99995, 1e-7, 127.875] {
            for d in [0, 1, 2, 3, 4, 6] {
                assert_eq!(Json::Fixed(v, d).render(), format!("{v:.d$}\n"), "{v} at {d} decimals");
            }
        }
        let doc = obj! {
            "knee_factor": Json::Fixed(3.0, 1),
            "mean_gap_cycles": Json::Fixed(1562500.0, 0),
            "gbps": Json::Fixed(19.2, 3),
        };
        assert_eq!(
            doc.render(),
            "{\"knee_factor\": 3.0, \"mean_gap_cycles\": 1562500, \"gbps\": 19.200}\n"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite float NaN under JSON key \"mean_run_len\"")]
    fn non_finite_float_panics_with_its_key() {
        obj! { "outer": obj! { "mean_run_len": Json::Fixed(f64::NAN, 2) } }.render();
    }

    #[test]
    #[should_panic(expected = "non-finite float inf under JSON key \"range\"")]
    fn non_finite_float_in_an_array_names_the_array_key() {
        obj! { "range": vec![Json::Fixed(1.0, 3), Json::Fixed(f64::INFINITY, 3)] }.render();
    }

    #[test]
    fn run_counters_keep_field_and_cause_order() {
        let c = RunCounters { runs: 2, run_blocks: 7, hist: [0; 16], fallback: [1, 2, 3, 4, 5] };
        let Json::Obj(fields) = Json::from(&c) else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["runs", "run_blocks", "mean_run_len", "hist", "fallback"]);
        assert_eq!(fields[2].1, Json::Fixed(3.5, 2));
        let Json::Obj(fb) = &fields[4].1 else { panic!("fallback not an object") };
        assert_eq!(fb.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), FB_LABELS);
    }
}
