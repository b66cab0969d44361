//! Deterministic trace exporters: JSONL and Chrome-trace-format dumps.
//!
//! Both formats are written through [`crate::json`] in a fixed key order,
//! so two same-seed runs produce byte-identical output. Timestamps are
//! virtual microseconds — Chrome's `about:tracing` / Perfetto render the
//! simulation clock directly.
//!
//! [`parse_jsonl`] reads an export back, so CI can round-trip every export
//! (`parse_jsonl(export_jsonl(events)) == events`), catching writer and
//! escaping regressions without external tooling.

use crate::json::Json;
use crate::obs::Timeline;
use crate::time::{SimDuration, SimTime};
use crate::trace::{FieldValue, RecoveryId, SpanId, TraceEvent, TraceLevel};

// ---------------------------------------------------------------------------
// JSONL export

/// Serializes one event as a single JSON line (no trailing newline).
///
/// Key order is fixed: `at`, `level`, `component`, `message`, then
/// optionally `fields` (an object in author order), `recovery`, `span`,
/// `parent` — absent keys are omitted entirely.
pub fn event_to_json(e: &TraceEvent) -> String {
    let mut pairs: Vec<(&str, Json)> = vec![
        ("at", e.at.as_micros().into()),
        ("level", Json::Str(e.level.to_string())),
        ("component", e.component.as_str().into()),
        ("message", e.message.as_str().into()),
    ];
    if !e.fields.is_empty() {
        let fields = e.fields.iter().map(|(k, v)| {
            let v = match v {
                FieldValue::U64(n) => Json::Num(*n),
                FieldValue::Str(s) => s.as_str().into(),
            };
            (k.as_str(), v)
        });
        pairs.push(("fields", Json::obj(fields)));
    }
    let ids = [
        ("recovery", e.recovery.map(RecoveryId::as_u64)),
        ("span", e.span.map(SpanId::as_u64)),
        ("parent", e.parent.map(SpanId::as_u64)),
    ];
    pairs.extend(ids.into_iter().filter_map(|(k, id)| Some((k, id?.into()))));
    Json::obj(pairs).compact()
}

/// Serializes events as JSONL: one JSON object per line, oldest first.
// analyze:recovery-root
pub fn export_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSONL parsing (round-trip check)

fn level_from_str(s: &str) -> Result<TraceLevel, String> {
    match s {
        "INFO" => Ok(TraceLevel::Info),
        "WARN" => Ok(TraceLevel::Warn),
        "ERROR" => Ok(TraceLevel::Error),
        other => Err(format!("unknown level {other:?}")),
    }
}

fn num(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{key:?} is not a number"))
}

fn text(key: &str, v: Json) -> Result<String, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{key:?} is not a string")),
    }
}

fn fields_from_json(v: Json) -> Result<Vec<(String, FieldValue)>, String> {
    let Json::Obj(pairs) = v else {
        return Err("\"fields\" is not an object".to_string());
    };
    let field = |(k, v): (String, Json)| match v {
        Json::Num(n) => Ok((k, FieldValue::U64(n))),
        Json::Str(s) => Ok((k, FieldValue::Str(s))),
        _ => Err(format!("field {k:?} is neither a number nor a string")),
    };
    pairs.into_iter().map(field).collect()
}

/// Parses one JSON line produced by [`event_to_json`].
pub fn event_from_json(line: &str) -> Result<TraceEvent, String> {
    let Json::Obj(pairs) = Json::parse(line).map_err(|e| e.to_string())? else {
        return Err("expected an object".to_string());
    };
    let mut at = None;
    let mut level = None;
    let mut component = None;
    let mut message = None;
    let mut fields = Vec::new();
    let mut recovery = None;
    let mut span = None;
    let mut parent = None;
    for (key, v) in pairs {
        match key.as_str() {
            "at" => at = Some(num(&key, &v)?),
            "level" => level = Some(level_from_str(&text(&key, v)?)?),
            "component" => component = Some(text(&key, v)?),
            "message" => message = Some(text(&key, v)?),
            "fields" => fields = fields_from_json(v)?,
            "recovery" => recovery = RecoveryId::from_wire(num(&key, &v)?),
            "span" => span = SpanId::from_wire(num(&key, &v)?),
            "parent" => parent = SpanId::from_wire(num(&key, &v)?),
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    let mut e = TraceEvent::new(
        SimTime::from_micros(at.ok_or("missing 'at'")?),
        level.ok_or("missing 'level'")?,
        component.ok_or("missing 'component'")?,
        message.ok_or("missing 'message'")?,
    );
    e.fields = fields;
    e.recovery = recovery;
    e.span = span;
    e.parent = parent;
    Ok(e)
}

/// Parses a full JSONL export back into events. Fails on the first
/// malformed line (1-based line number in the error).
// analyze:recovery-root
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Chrome trace format

/// Renders a [`Timeline`] as a Chrome-trace-format JSON array (load in
/// `about:tracing` or Perfetto), one entry per line. Each service gets a
/// virtual thread; each episode contributes an instant marker at the
/// defect plus one complete (`ph:"X"`) slice per phase. Timestamps are
/// virtual microseconds.
// analyze:recovery-root
pub fn export_chrome_trace(timeline: &Timeline) -> String {
    // Thread ids in first-appearance order (deterministic: episodes are
    // rid-ordered).
    let mut services: Vec<&str> = Vec::new();
    let mut entries = Vec::new();
    for ep in &timeline.episodes {
        let service = if ep.service.is_empty() {
            "?"
        } else {
            &ep.service
        };
        let tid = match services.iter().position(|s| *s == service) {
            Some(i) => i + 1,
            None => {
                services.push(service);
                services.len()
            }
        };
        let class = if ep.class.is_empty() { "?" } else { &ep.class };
        let args = Json::obj([
            ("rid", ep.rid.as_u64().into()),
            ("service", service.into()),
            ("class", class.into()),
        ]);
        // An instant marker (thread-scoped) without a duration, a
        // complete slice with one.
        let entry = |name: &str, ts: SimTime, dur: Option<SimDuration>| {
            let mut pairs: Vec<(&str, Json)> =
                vec![("name", name.into()), ("cat", "recovery".into())];
            match dur {
                None => pairs.extend([("ph", "i".into()), ("s", "t".into())]),
                Some(_) => pairs.push(("ph", "X".into())),
            }
            pairs.push(("ts", ts.as_micros().into()));
            pairs.extend(dur.map(|d| ("dur", d.as_micros().into())));
            pairs.extend([
                ("pid", 1u64.into()),
                ("tid", tid.into()),
                ("args", args.clone()),
            ]);
            Json::obj(pairs)
        };
        if let Some(noticed) = ep.noticed_at {
            let defect = ep.defect_at.unwrap_or(noticed);
            entries.push(entry("defect", defect, None));
            if let Some(d) = ep.detection() {
                entries.push(entry("detect", defect, Some(d)));
            }
        }
        if let (Some(noticed), Some(d)) = (ep.noticed_at, ep.repair()) {
            entries.push(entry("repair", noticed, Some(d)));
        }
        if let (Some(published), Some(d)) = (ep.published_at, ep.reintegration()) {
            entries.push(entry("reintegrate", published, Some(d)));
        }
    }
    for (i, service) in services.iter().enumerate() {
        entries.push(Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", (i + 1).into()),
            ("args", Json::obj([("name", (*service).into())])),
        ]));
    }
    let mut out = String::from("[");
    for (i, entry) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&entry.compact());
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{fold_timeline, kind};
    use crate::time::SimTime;
    use crate::trace::tests::{rid, span};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(
                SimTime::from_micros(100),
                TraceLevel::Warn,
                "kernel",
                "died",
            )
            .with_field("ev", kind::DEATH)
            .with_field("proc", "eth.rtl8139"),
            TraceEvent::new(
                SimTime::from_micros(110),
                TraceLevel::Warn,
                "rs",
                "defect in eth.rtl8139: \"exit\"\n(failure #1)",
            )
            .with_field("ev", kind::DEFECT)
            .with_field("service", "eth.rtl8139")
            .with_field("class", "exit")
            .in_recovery(rid(1))
            .with_span(span(4)),
            TraceEvent::new(SimTime::from_micros(500), TraceLevel::Info, "rs", "alive")
                .with_field("ev", kind::ALIVE)
                .in_recovery(rid(1))
                .with_span(span(5))
                .with_parent(span(4)),
            TraceEvent::new(SimTime::from_micros(510), TraceLevel::Info, "ds", "publish")
                .with_field("ev", kind::PUBLISH)
                .in_recovery(rid(1)),
            TraceEvent::new(
                SimTime::from_micros(900),
                TraceLevel::Info,
                "inet",
                "resumed",
            )
            .with_field("ev", kind::RESUME)
            .in_recovery(rid(1)),
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let events = sample_events();
        let jsonl = export_jsonl(events.iter());
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, events);
        // And the re-export is byte-identical.
        assert_eq!(export_jsonl(parsed.iter()), jsonl);
    }

    #[test]
    fn jsonl_escapes_specials() {
        let e = TraceEvent::new(
            SimTime::from_micros(1),
            TraceLevel::Info,
            "c\\o",
            "say \"hi\"\tnow\n\u{1}",
        )
        .with_field("k\"ey", "v\\al");
        let line = event_to_json(&e);
        let back = event_from_json(&line).unwrap();
        assert_eq!(back, e);
        assert!(line.contains("\\u0001"));
    }

    #[test]
    fn jsonl_omits_absent_identity() {
        let e = TraceEvent::new(SimTime::from_micros(1), TraceLevel::Info, "c", "m");
        let line = event_to_json(&e);
        assert!(!line.contains("recovery"));
        assert!(!line.contains("fields"));
        assert_eq!(event_from_json(&line).unwrap(), e);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = parse_jsonl("{\"at\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}"); // line 1 lacks keys
        let err = parse_jsonl(
            "{\"at\":1,\"level\":\"INFO\",\"component\":\"c\",\"message\":\"m\"}\nnope\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn chrome_trace_contains_phases_and_thread_names() {
        let events = sample_events();
        let tl = fold_timeline(events.iter());
        let json = export_chrome_trace(&tl);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        for needle in [
            "\"name\":\"detect\"",
            "\"name\":\"repair\"",
            "\"name\":\"reintegrate\"",
            "\"name\":\"thread_name\"",
            "\"eth.rtl8139\"",
            "\"ph\":\"X\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let jsonl = export_jsonl(sample_events().iter());
        assert_eq!(
            jsonl,
            r#"{"at":100,"level":"WARN","component":"kernel","message":"died","fields":{"ev":"death","proc":"eth.rtl8139"}}
{"at":110,"level":"WARN","component":"rs","message":"defect in eth.rtl8139: \"exit\"\n(failure #1)","fields":{"ev":"defect","service":"eth.rtl8139","class":"exit"},"recovery":1,"span":4}
{"at":500,"level":"INFO","component":"rs","message":"alive","fields":{"ev":"alive"},"recovery":1,"span":5,"parent":4}
{"at":510,"level":"INFO","component":"ds","message":"publish","fields":{"ev":"publish"},"recovery":1}
{"at":900,"level":"INFO","component":"inet","message":"resumed","fields":{"ev":"resume"},"recovery":1}
"#
        );
    }

    #[test]
    fn escaped_line_bytes_are_pinned() {
        let e = TraceEvent::new(
            SimTime::from_micros(1),
            TraceLevel::Info,
            "c\\o",
            "say \"hi\"\tnow\r\n\u{1}é",
        )
        .with_field("k\"ey", "v\\al")
        .with_field("n", 7u64);
        assert_eq!(
            event_to_json(&e),
            r#"{"at":1,"level":"INFO","component":"c\\o","message":"say \"hi\"\tnow\r\n\u0001é","fields":{"k\"ey":"v\\al","n":7}}"#
        );
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let trace = export_chrome_trace(&fold_timeline(sample_events().iter()));
        assert_eq!(
            trace,
            r#"[
{"name":"defect","cat":"recovery","ph":"i","s":"t","ts":100,"pid":1,"tid":1,"args":{"rid":1,"service":"eth.rtl8139","class":"exit"}},
{"name":"detect","cat":"recovery","ph":"X","ts":100,"dur":10,"pid":1,"tid":1,"args":{"rid":1,"service":"eth.rtl8139","class":"exit"}},
{"name":"repair","cat":"recovery","ph":"X","ts":110,"dur":390,"pid":1,"tid":1,"args":{"rid":1,"service":"eth.rtl8139","class":"exit"}},
{"name":"reintegrate","cat":"recovery","ph":"X","ts":510,"dur":390,"pid":1,"tid":1,"args":{"rid":1,"service":"eth.rtl8139","class":"exit"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"eth.rtl8139"}}
]
"#
        );
    }

    #[test]
    fn chrome_trace_of_empty_timeline_is_valid() {
        let tl = fold_timeline(std::iter::empty());
        let json = export_chrome_trace(&tl);
        assert_eq!(json, "[\n]\n");
    }
}
