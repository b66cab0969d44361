//! Deterministic JSON report for the analyzer: every pass's outcome in
//! one machine-readable, committed-diff-friendly artifact.
//!
//! Guarantees: object keys are emitted sorted, arrays preserve the
//! (already deterministic) pass ordering, there are no timestamps,
//! hostnames, or absolute paths, and two runs over the same tree
//! produce byte-identical output — CI diffs the committed copy.

use phoenix_simcore::json::Json;

use crate::conformance;
use crate::lint::LintFinding;
use crate::loc;
use crate::proto_model::Dir;
use crate::reach;

fn finding_json(file: &str, line: usize, rule: &str, message: &str) -> Json {
    Json::obj([
        ("file", file.into()),
        ("line", line.into()),
        ("message", message.into()),
        ("rule", rule.into()),
    ])
}

/// Builds the full report document.
pub fn build(
    lint: &[LintFinding],
    conf: &conformance::Outcome,
    reach: &reach::Outcome,
    lines: &loc::Counted,
) -> Json {
    let findings = |fs: &[conformance::Finding]| {
        let rows = fs
            .iter()
            .map(|f| finding_json(&f.file, f.line, f.rule, &f.message));
        Json::Arr(rows.collect())
    };
    let lint_rows = lint
        .iter()
        .map(|f| finding_json(&f.file, f.line, f.rule, &f.excerpt));
    let lint_json = Json::obj([("findings", Json::Arr(lint_rows.collect()))]);

    let globs = conf.glob_warnings.iter().map(|g| {
        let message = format!("use ...proto::{}::* treated conservatively", g.module);
        finding_json(&g.file, g.line, "glob-import", &message)
    });
    let dead_json = Json::obj([
        ("edges", findings(&conf.dead_edges)),
        ("glob_warnings", Json::Arr(globs.collect())),
    ]);

    // Slot registry rendered as kind -> { "slot" -> field }, one entry
    // for each slot a field fills.
    let registry = conf.kinds.iter().filter(|k| !k.fields.is_empty()).map(|k| {
        let slots = k.fields.iter().flat_map(|(slot, slots, field)| {
            (*slot..slot + slots).map(|slot| (slot.to_string(), field.as_str().into()))
        });
        (k.key(), Json::Obj(slots.collect()))
    });
    let kinds = conf.kinds.iter().map(|k| {
        let mut pairs = vec![("dir", k.dir.name().into()), ("kind", Json::Str(k.key()))];
        if let Some(r) = &k.reply {
            pairs.push(("reply", Json::Str(format!("{}::{}", k.module, r))));
        }
        // A value is not a message: its row says it is named, no more.
        if let Some(u) = conf.usage.get(&k.key()).filter(|_| k.dir != Dir::Value) {
            pairs.push(("handles", u.handles.into()));
            pairs.push(("sends", u.sends.into()));
        }
        Json::obj(pairs)
    });
    let conf_suppressed = conf
        .suppressed
        .iter()
        .map(|f| finding_json(&f.file, f.line, f.rule, &f.message));
    let conf_json = Json::obj([
        ("findings", findings(&conf.findings)),
        ("kinds", Json::Arr(kinds.collect())),
        ("slot_registry", Json::Obj(registry.collect())),
        ("suppressed", Json::Arr(conf_suppressed.collect())),
    ]);

    let reach_findings = reach.findings.iter().map(|f| {
        Json::obj([
            ("file", f.file.as_str().into()),
            ("line", f.line.into()),
            ("path", Json::Str(f.path.join(" -> "))),
            ("rule", "panic-reach".into()),
            ("what", f.what.as_str().into()),
        ])
    });
    let reach_suppressed = reach.suppressed.iter().map(|s| {
        Json::obj([
            ("file", s.file.as_str().into()),
            ("in", s.in_fn.as_str().into()),
            ("line", s.line.into()),
            ("what", s.what.as_str().into()),
        ])
    });
    let roots = reach.roots.iter().map(|r| r.as_str().into());
    let reach_json = Json::obj([
        ("findings", Json::Arr(reach_findings.collect())),
        ("functions", reach.functions.into()),
        ("reachable", reach.reachable.into()),
        ("roots", Json::Arr(roots.collect())),
        ("suppressed", Json::Arr(reach_suppressed.collect())),
    ]);

    // Fig. 9: each component's lines and every recovery unit in it.
    let fig9 = lines.fig9().into_iter().filter(|&(_, total, ..)| total > 0);
    let fig9 = fig9.map(|(name, total, recovery, units)| {
        let units = units.iter().map(|u| {
            let (file, unit) = (u.file.as_str().into(), u.what.as_str().into());
            Json::obj([
                ("file", file),
                ("line", u.line.into()),
                ("lines", u.lines.into()),
                ("unit", unit),
            ])
        });
        Json::obj([
            ("component", name.into()),
            ("recovery", recovery.into()),
            ("total", total.into()),
            ("units", Json::Arr(units.collect())),
        ])
    });
    let loc_json = Json::obj([
        ("fig9", Json::Arr(fig9.collect())),
        ("findings", findings(&lines.findings)),
    ]);

    Json::obj([
        ("conformance", conf_json),
        ("dead_edges", dead_json),
        ("lint", lint_json),
        ("loc", loc_json),
        ("reach", reach_json),
        ("schema", "phoenix-analyze/v1".into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_keys_and_escapes() {
        let j = Json::obj(vec![("b", Json::Num(2)), ("a", "x\"y\n".into())]);
        assert_eq!(j.pretty(), "{\n  \"a\": \"x\\\"y\\n\",\n  \"b\": 2\n}\n");
    }

    #[test]
    fn empty_containers_render_compact() {
        let j = Json::obj(vec![("arr", Json::Arr(vec![])), ("obj", Json::Obj(vec![]))]);
        assert_eq!(j.pretty(), "{\n  \"arr\": [],\n  \"obj\": {}\n}\n");
    }
}
