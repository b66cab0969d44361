//! Deterministic JSON report for the analyzer: every pass's outcome in
//! one machine-readable, committed-diff-friendly artifact.
//!
//! Guarantees: object keys are emitted sorted, arrays preserve the
//! (already deterministic) pass ordering, there are no timestamps,
//! hostnames, or absolute paths, and two runs over the same tree
//! produce byte-identical output — CI diffs the committed copy.

use std::collections::BTreeMap;

use crate::conformance;
use crate::lint::LintFinding;
use crate::proto_model::Dir;
use crate::reach;

/// Minimal JSON value: just what the report needs, no dependency.
#[derive(Clone, Debug)]
pub enum Json {
    Num(i64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys are sorted at render time.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Renders with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

fn finding_json(file: &str, line: usize, rule: &str, message: &str) -> Json {
    Json::obj(vec![
        ("file", Json::Str(file.to_string())),
        ("line", Json::Num(line as i64)),
        ("message", Json::Str(message.to_string())),
        ("rule", Json::Str(rule.to_string())),
    ])
}

/// Builds the full report document.
pub fn build(lint: &[LintFinding], conf: &conformance::Outcome, reach: &reach::Outcome) -> Json {
    let lint_json = Json::obj(vec![(
        "findings",
        Json::Arr(
            lint.iter()
                .map(|f| finding_json(&f.file, f.line, f.rule, &f.excerpt))
                .collect(),
        ),
    )]);

    let dead_json = Json::obj(vec![
        (
            "edges",
            Json::Arr(
                conf.dead_edges
                    .iter()
                    .map(|f| finding_json(&f.file, f.line, f.rule, &f.message))
                    .collect(),
            ),
        ),
        (
            "glob_warnings",
            Json::Arr(
                conf.glob_warnings
                    .iter()
                    .map(|g| {
                        finding_json(
                            &g.file,
                            g.line,
                            "glob-import",
                            &format!("use ...proto::{}::* treated conservatively", g.module),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);

    // Slot registry rendered as kind -> { "slot" -> field }.
    let slots_json = Json::Obj(
        conf.kinds
            .iter()
            .filter(|k| !k.fields.is_empty())
            .map(|k| {
                let fields = k.fields.iter();
                let slots =
                    fields.map(|(slot, field)| (slot.to_string(), Json::Str(field.clone())));
                (k.key(), Json::Obj(slots.collect()))
            })
            .collect(),
    );

    let kinds_json = Json::Arr(
        conf.kinds
            .iter()
            .map(|k| {
                let mut pairs = vec![
                    ("dir", Json::Str(k.dir.name().to_string())),
                    ("kind", Json::Str(k.key())),
                ];
                if let Some(r) = &k.reply {
                    pairs.push(("reply", Json::Str(format!("{}::{}", k.module, r))));
                }
                // A value is not a message: its row says it is named, no more.
                if let Some(u) = conf.usage.get(&k.key()).filter(|_| k.dir != Dir::Value) {
                    pairs.push(("handles", Json::Num(u.handles as i64)));
                    pairs.push(("sends", Json::Num(u.sends as i64)));
                }
                Json::obj(pairs)
            })
            .collect(),
    );

    let conf_json = Json::obj(vec![
        (
            "findings",
            Json::Arr(
                conf.findings
                    .iter()
                    .map(|f| finding_json(&f.file, f.line, f.rule, &f.message))
                    .collect(),
            ),
        ),
        ("kinds", kinds_json),
        ("slot_registry", slots_json),
        (
            "suppressed",
            Json::Arr(
                conf.suppressed
                    .iter()
                    .map(|f| finding_json(&f.file, f.line, f.rule, &f.message))
                    .collect(),
            ),
        ),
    ]);

    let reach_json = Json::obj(vec![
        (
            "findings",
            Json::Arr(
                reach
                    .findings
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("file", Json::Str(f.file.clone())),
                            ("line", Json::Num(f.line as i64)),
                            ("path", Json::Str(f.path.join(" -> "))),
                            ("rule", Json::Str("panic-reach".to_string())),
                            ("what", Json::Str(f.what.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("functions", Json::Num(reach.functions as i64)),
        ("reachable", Json::Num(reach.reachable as i64)),
        (
            "roots",
            Json::Arr(reach.roots.iter().map(|r| Json::Str(r.clone())).collect()),
        ),
        (
            "suppressed",
            Json::Arr(
                reach
                    .suppressed
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("file", Json::Str(s.file.clone())),
                            ("in", Json::Str(s.in_fn.clone())),
                            ("line", Json::Num(s.line as i64)),
                            ("what", Json::Str(s.what.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    Json::obj(vec![
        ("conformance", conf_json),
        ("dead_edges", dead_json),
        ("lint", lint_json),
        ("reach", reach_json),
        ("schema", Json::Str("phoenix-analyze/v1".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_keys_and_escapes() {
        let j = Json::obj(vec![
            ("b", Json::Num(2)),
            ("a", Json::Str("x\"y\n".to_string())),
        ]);
        assert_eq!(j.render(), "{\n  \"a\": \"x\\\"y\\n\",\n  \"b\": 2\n}\n");
    }

    #[test]
    fn empty_containers_render_compact() {
        let j = Json::obj(vec![
            ("arr", Json::Arr(vec![])),
            ("obj", Json::Obj(BTreeMap::new())),
        ]);
        assert_eq!(j.render(), "{\n  \"arr\": [],\n  \"obj\": {}\n}\n");
    }
}
