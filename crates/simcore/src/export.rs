//! Deterministic trace exporters: JSONL and Chrome-trace-format dumps.
//!
//! Both formats are emitted with a hand-rolled writer (the workspace takes
//! no serialization dependency) in a fixed key order, so two same-seed runs
//! produce byte-identical output. Timestamps are virtual microseconds —
//! Chrome's `about:tracing` / Perfetto render the simulation clock directly.
//!
//! A minimal parser for the JSONL schema is included so CI can round-trip
//! every export (`parse_jsonl(export_jsonl(events)) == events`), catching
//! writer/escaping regressions without external tooling.

use std::fmt::Write as _;

use crate::obs::Timeline;
use crate::trace::{FieldValue, RecoveryId, SpanId, TraceEvent, TraceLevel};

// ---------------------------------------------------------------------------
// JSON string escaping

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// JSONL export

/// Serializes one event as a single JSON line (no trailing newline).
///
/// Key order is fixed: `at`, `level`, `component`, `message`, then
/// optionally `fields` (an object in author order), `recovery`, `span`,
/// `parent` — absent keys are omitted entirely.
pub fn event_to_json(e: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"at\":");
    let _ = write!(out, "{}", e.at.as_micros());
    out.push_str(",\"level\":");
    escape_into(&mut out, &e.level.to_string());
    out.push_str(",\"component\":");
    escape_into(&mut out, &e.component);
    out.push_str(",\"message\":");
    escape_into(&mut out, &e.message);
    if !e.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            match v {
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::Str(s) => escape_into(&mut out, s),
            }
        }
        out.push('}');
    }
    if let Some(rid) = e.recovery {
        let _ = write!(out, ",\"recovery\":{}", rid.as_u64());
    }
    if let Some(span) = e.span {
        let _ = write!(out, ",\"span\":{}", span.as_u64());
    }
    if let Some(parent) = e.parent {
        let _ = write!(out, ",\"parent\":{}", parent.as_u64());
    }
    out.push('}');
    out
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad utf8 in number"))?
            .parse::<u64>()
            .map_err(|_| self.err("number out of range"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad utf8 in \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad hex in \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                            self.pos += 3; // the final +1 below consumes the 4th digit
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("bad utf8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the `fields` object: string keys, number-or-string values.
    fn parse_fields(&mut self) -> Result<Vec<(String, FieldValue)>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.eat(b':')?;
            self.skip_ws();
            let value = if self.peek() == Some(b'"') {
                FieldValue::Str(self.parse_string()?)
            } else {
                FieldValue::U64(self.parse_u64()?)
            };
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(self.err("expected ',' or '}' in fields")),
            }
        }
    }
}

fn level_from_str(s: &str) -> Result<TraceLevel, String> {
    match s {
        "INFO" => Ok(TraceLevel::Info),
        "WARN" => Ok(TraceLevel::Warn),
        "ERROR" => Ok(TraceLevel::Error),
        other => Err(format!("unknown level {other:?}")),
    }
}

/// Parses one JSON line produced by [`event_to_json`].
pub fn event_from_json(line: &str) -> Result<TraceEvent, String> {
    let mut p = Parser::new(line);
    p.eat(b'{')?;
    let mut at = None;
    let mut level = None;
    let mut component = None;
    let mut message = None;
    let mut fields = Vec::new();
    let mut recovery = None;
    let mut span = None;
    let mut parent = None;
    loop {
        p.skip_ws();
        if p.peek() == Some(b'}') {
            break;
        }
        let key = p.parse_string()?;
        p.eat(b':')?;
        match key.as_str() {
            "at" => at = Some(p.parse_u64()?),
            "level" => level = Some(level_from_str(&p.parse_string()?)?),
            "component" => component = Some(p.parse_string()?),
            "message" => message = Some(p.parse_string()?),
            "fields" => fields = p.parse_fields()?,
            "recovery" => recovery = RecoveryId::from_wire(p.parse_u64()?),
            "span" => span = SpanId::from_wire(p.parse_u64()?),
            "parent" => parent = SpanId::from_wire(p.parse_u64()?),
            other => return Err(format!("unknown key {other:?}")),
        }
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => break,
            _ => return Err(p.err("expected ',' or '}'")),
        }
    }
    let mut e = TraceEvent::new(
        crate::time::SimTime::from_micros(at.ok_or("missing 'at'")?),
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
/// `about:tracing` or Perfetto). Each service gets a virtual thread; each
/// episode contributes one complete (`ph:"X"`) slice per phase, plus an
/// instant marker at the defect. Timestamps are virtual microseconds.
// analyze:recovery-root
pub fn export_chrome_trace(timeline: &Timeline) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut emit = |obj: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&obj);
    };
    // Thread-name metadata: one virtual thread per service, tids assigned
    // in first-appearance order (deterministic: episodes are rid-ordered).
    let mut tids: Vec<String> = Vec::new();
    let tid_of = |service: &str, tids: &mut Vec<String>| -> usize {
        match tids.iter().position(|s| s == service) {
            Some(i) => i + 1,
            None => {
                tids.push(service.to_string());
                tids.len()
            }
        }
    };
    let mut body = String::new();
    for ep in &timeline.episodes {
        let service = if ep.service.is_empty() {
            "?"
        } else {
            &ep.service
        };
        let tid = tid_of(service, &mut tids);
        let mut esc_service = String::new();
        escape_into(&mut esc_service, service);
        let mut esc_class = String::new();
        escape_into(
            &mut esc_class,
            if ep.class.is_empty() { "?" } else { &ep.class },
        );
        let args = format!(
            "{{\"rid\":{},\"service\":{esc_service},\"class\":{esc_class}}}",
            ep.rid.as_u64()
        );
        if let Some(noticed) = ep.noticed_at {
            emit(
                format!(
                    "{{\"name\":\"defect\",\"cat\":\"recovery\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    ep.defect_at.unwrap_or(noticed).as_micros()
                ),
                &mut body,
            );
            if let Some(d) = ep.detection() {
                emit(
                    format!(
                        "{{\"name\":\"detect\",\"cat\":\"recovery\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                        ep.defect_at.unwrap_or(noticed).as_micros(),
                        d.as_micros()
                    ),
                    &mut body,
                );
            }
        }
        if let (Some(noticed), Some(d)) = (ep.noticed_at, ep.repair()) {
            emit(
                format!(
                    "{{\"name\":\"repair\",\"cat\":\"recovery\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    noticed.as_micros(),
                    d.as_micros()
                ),
                &mut body,
            );
        }
        if let (Some(published), Some(d)) = (ep.published_at, ep.reintegration()) {
            emit(
                format!(
                    "{{\"name\":\"reintegrate\",\"cat\":\"recovery\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    published.as_micros(),
                    d.as_micros()
                ),
                &mut body,
            );
        }
    }
    for (i, service) in tids.iter().enumerate() {
        let mut esc = String::new();
        escape_into(&mut esc, service);
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{esc}}}}}",
                i + 1
            ),
            &mut body,
        );
    }
    out.push_str(&body);
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{fold_timeline, kind};
    use crate::time::SimTime;

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
            .in_recovery(RecoveryId(1))
            .with_span(SpanId(4)),
            TraceEvent::new(SimTime::from_micros(500), TraceLevel::Info, "rs", "alive")
                .with_field("ev", kind::ALIVE)
                .in_recovery(RecoveryId(1))
                .with_span(SpanId(5))
                .with_parent(SpanId(4)),
            TraceEvent::new(SimTime::from_micros(510), TraceLevel::Info, "ds", "publish")
                .with_field("ev", kind::PUBLISH)
                .in_recovery(RecoveryId(1)),
            TraceEvent::new(
                SimTime::from_micros(900),
                TraceLevel::Info,
                "inet",
                "resumed",
            )
            .with_field("ev", kind::RESUME)
            .in_recovery(RecoveryId(1)),
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
    fn chrome_trace_of_empty_timeline_is_valid() {
        let tl = fold_timeline(std::iter::empty());
        let json = export_chrome_trace(&tl);
        assert_eq!(json, "[\n]\n");
    }
}
