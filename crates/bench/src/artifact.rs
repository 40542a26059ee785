//! The one writer behind every committed `BENCH_*.json` artifact.
//!
//! An `Artifact` has two top-level sections: `"deterministic"`, a pure
//! function of the simulated workload that must be byte-identical across
//! hosts, runs and `MICROEDGE_WORKERS` settings, and then `"host"`, the
//! host measurements, mirroring the deterministic structure
//! (`host.points[i]` belongs to `deterministic.points[i]`).
//!
//! Layout: a container whose children are all scalars goes on one line;
//! every other container puts one child per line, indented 2 spaces per
//! level. So the host section starts its own `  "host": ` line, and the
//! determinism gate cuts there: [`deterministic_part`] here,
//! `sed '/^  "host": /,$d'` in `scripts/check.sh`.

/// A JSON value. Floats carry the decimal count they render with, chosen
/// at the call site, so every printed digit is pinned by the code.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// An integer.
    Int(i128),
    /// A float with a fixed number of decimals (non-finite: `null`).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Obj),
}

/// A float rendered with `decimals` digits after the point.
#[must_use]
pub(crate) fn fixed(value: f64, decimals: usize) -> Json {
    Json::Fixed(value, decimals)
}

/// An [`Obj`] from `"key": value` pairs, in order; each value is anything
/// with an `Into<Json>`.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::artifact::Obj(vec![$(($key, $crate::artifact::Json::from($value))),*])
    };
}
pub(crate) use obj;

impl Json {
    /// An array of `items`.
    pub(crate) fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    fn render(&self, indent: usize, out: &mut String) {
        let (brackets, children): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Int(v) => return out.push_str(&v.to_string()),
            Json::Fixed(v, decimals) if v.is_finite() => {
                return out.push_str(&format!("{v:.decimals$}"))
            }
            Json::Null | Json::Fixed(..) => return out.push_str("null"),
            Json::Str(s) => return escape_into(s, out),
            Json::Array(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Object(obj) => ("{}", obj.0.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        let multiline = children
            .iter()
            .any(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_)));
        let (inner, outer) = match multiline {
            true => (
                format!("\n{:1$}", "", indent + 2),
                format!("\n{:1$}", "", indent),
            ),
            false => (String::new(), String::new()),
        };
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in children.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            out.push_str(&inner);
            if let Some(key) = key {
                escape_into(key, out);
                out.push_str(": ");
            }
            value.render(indent + 2, out);
        }
        out.push_str(&outer);
        out.push_str(&brackets[1..]);
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON object, keys in insertion order; build one with `obj!`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Obj(pub(crate) Vec<(&'static str, Json)>);

macro_rules! json_from {
    ($($t:ty => |$v:ident| $make:expr),* $(,)?) => {
        $(impl From<$t> for Json { fn from($v: $t) -> Json { $make } })*
    };
}
json_from! {
    u32 => |v| Json::Int(i128::from(v)),
    u64 => |v| Json::Int(i128::from(v)),
    usize => |v| Json::Int(i128::try_from(v).expect("usize fits i128")),
    &str => |s| Json::Str(s.to_owned()),
    String => |s| Json::Str(s),
    Obj => |obj| Json::Object(obj),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// A benchmark artifact: the deterministic section, then the host section.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Artifact {
    /// Pure functions of the simulated workload.
    pub(crate) deterministic: Obj,
    /// Host measurements; rendered last, cut off by [`deterministic_part`].
    pub(crate) host: Obj,
}

impl Artifact {
    /// Renders the document, newline-terminated.
    #[must_use]
    pub(crate) fn render(self) -> String {
        let mut out = String::new();
        Json::from(obj! {"deterministic": self.deterministic, "host": self.host})
            .render(0, &mut out);
        out.push('\n');
        out
    }
}

/// Everything of a rendered `Artifact` before its `  "host": ` line: the
/// bytes the determinism gate compares. String values are escaped (no raw
/// newlines), so only the top-level key can match.
#[must_use]
pub fn deterministic_part(json: &str) -> &str {
    json.find("\n  \"host\": ").map_or(json, |i| &json[..=i])
}

/// [`deterministic_part`], after asserting that the cut ends exactly
/// where the host section begins and holds the whole deterministic
/// section: outside strings, its brackets nest and balance except for the
/// document's own opening brace.
#[cfg(test)]
pub(crate) fn assert_deterministic_cut(json: &str) -> &str {
    let cut = deterministic_part(json);
    assert!(
        json[cut.len()..].starts_with("  \"host\": "),
        "the cut must stop at the host section"
    );
    assert!(cut.starts_with("{\n  \"deterministic\": "), "{cut}");
    let mut open = Vec::new();
    let (mut in_str, mut escaped) = (false, false);
    for c in cut.chars() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') | (false, _, '"') => in_str = !in_str,
            (false, _, '{' | '[') => open.push(c),
            (false, _, '}') => assert_eq!(open.pop(), Some('{'), "unbalanced cut: {cut}"),
            (false, _, ']') => assert_eq!(open.pop(), Some('['), "unbalanced cut: {cut}"),
            _ => {}
        }
    }
    assert!(!in_str, "the cut ends inside a string");
    assert_eq!(open, ['{'], "only the document brace stays open: {cut}");
    cut
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(value: impl Into<Json>) -> String {
        let mut out = String::new();
        value.into().render(0, &mut out);
        out
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(one("plain w/ w.p."), r#""plain w/ w.p.""#);
        assert_eq!(one(r#"say "hi" \ bye"#), r#""say \"hi\" \\ bye""#);
        assert_eq!(one("a\nb\tc\r\u{1}\u{1f}"), r#""a\nb\tc\r\u0001\u001f""#);
    }

    #[test]
    fn floats_keep_the_requested_decimals() {
        assert_eq!(one(fixed(0.5, 3)), "0.500");
        assert_eq!(one(fixed(-1.25, 1)), "-1.2");
        assert_eq!(one(fixed(-2.0, 2)), "-2.00");
        assert_eq!(one(fixed(0.0, 4)), "0.0000");
        assert_eq!(one(fixed(18_085_071.4, 0)), "18085071");
        assert_eq!(one(fixed(0.007_812_5, 7)), "0.0078125");
        assert_eq!(one(fixed(f64::INFINITY, 2)), "null");
        assert_eq!(one(fixed(f64::NAN, 2)), "null");
    }

    #[test]
    fn none_renders_null() {
        assert_eq!(one(None::<u64>), "null");
        assert_eq!(one(Some(7u64)), "7");
        assert_eq!(one(None::<Json>), "null");
        assert_eq!(one(Some(fixed(1.0, 1))), "1.0");
    }

    #[test]
    fn scalar_only_containers_stay_on_one_line() {
        let flat = obj! {"a": 1u32, "b": "x", "c": None::<u64>};
        assert_eq!(one(flat), r#"{"a": 1, "b": "x", "c": null}"#);
        assert_eq!(
            one(Json::array([fixed(1.0, 1), fixed(0.5, 1)])),
            "[1.0, 0.5]"
        );
        assert_eq!(one(obj! {}), "{}");
        assert_eq!(one(Json::array(Vec::<Json>::new())), "[]");
    }

    #[test]
    fn nested_containers_put_one_child_per_line() {
        let doc = obj! {
            "n": 1u64,
            "points": Json::array([obj! {"x": 1u64}, obj! {"x": 2u64}]),
            "empty": obj! {},
        };
        assert_eq!(
            one(doc),
            "{\n  \"n\": 1,\n  \"points\": [\n    {\"x\": 1},\n    {\"x\": 2}\n  ],\n  \"empty\": {}\n}"
        );
    }

    #[test]
    fn artifact_renders_host_last() {
        let json = Artifact {
            deterministic: obj! {"events": 3u64},
            host: obj! {"wall_s": fixed(0.25, 3)},
        }
        .render();
        assert_eq!(
            json,
            "{\n  \"deterministic\": {\"events\": 3},\n  \"host\": {\"wall_s\": 0.250}\n}\n"
        );
    }

    #[test]
    fn deterministic_part_stops_exactly_at_the_host_section() {
        let render = |wall: f64| {
            Artifact {
                deterministic: obj! {
                    "benchmark": "x \"host\": y",
                    "points": Json::array([obj! {"events": 9u64}]),
                },
                host: obj! {"points": Json::array([obj! {"wall_s": fixed(wall, 3)}])},
            }
            .render()
        };
        let (a, b) = (render(0.1), render(0.2));
        assert_ne!(a, b);
        let cut = assert_deterministic_cut(&a);
        assert_eq!(cut, assert_deterministic_cut(&b));
        assert_eq!(
            cut,
            "{\n  \"deterministic\": {\n    \"benchmark\": \"x \\\"host\\\": y\",\n    \
             \"points\": [\n      {\"events\": 9}\n    ]\n  },\n"
        );
        assert!(a[cut.len()..].starts_with("  \"host\": {\n    \"points\""));
        // An empty host section is still a section of its own.
        let bare = Artifact::default().render();
        assert_eq!(
            assert_deterministic_cut(&bare),
            "{\n  \"deterministic\": {},\n"
        );
        // Text without a host section is returned whole.
        assert_eq!(deterministic_part("{}\n"), "{}\n");
    }
}
