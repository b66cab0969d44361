//! Bounded execution tracing with causal identity.
//!
//! Components emit trace events tagged with the originating component's name
//! and a severity. Tests use the ring to assert *ordering* properties of the
//! recovery procedure (e.g. "the data store published the new endpoint
//! before the file server reissued pending I/O", §5.3).
//!
//! Beyond the flat message, an event can carry structure:
//!
//! * typed key=value **fields** ([`FieldValue`]) for machine consumption —
//!   the timeline analyzer in [`crate::obs`] keys off a conventional `ev`
//!   field rather than parsing message strings;
//! * a **span** identity ([`SpanId`]) with an optional parent link, forming
//!   a causality tree within one run;
//! * a **recovery correlation token** ([`RecoveryId`]), minted by the
//!   reincarnation server when it detects a defect and threaded through the
//!   data store and every dependent server, so all events belonging to one
//!   recovery episode share an id and can be folded into per-phase timings.
//!
//! Everything here is deterministic: ids come from monotonic counters, time
//! from [`SimTime`], so two same-seed runs produce byte-identical traces.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::num::NonZeroU64;

use crate::metrics::with_named;
use crate::time::SimTime;

/// Severity of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// Normal operational milestones (driver started, transfer done).
    Info,
    /// Something failed but the system is handling it (driver crash).
    Warn,
    /// Unrecoverable problems (recovery itself failed).
    Error,
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceLevel::Info => "INFO",
            TraceLevel::Warn => "WARN",
            TraceLevel::Error => "ERROR",
        };
        f.write_str(s)
    }
}

/// Correlation token for one recovery episode (§5.2): minted by RS at
/// defect detection, carried through DS publish and dependent-server
/// reintegration. Every event with the same `RecoveryId` belongs to the
/// same crash→detect→repair→reintegrate chain.
///
/// Ids start at 1; 0 is the wire encoding of "none" so the token can ride
/// in a spare IPC message parameter, and the same spare value is the
/// niche that keeps `Option<RecoveryId>` at 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecoveryId(NonZeroU64);

impl RecoveryId {
    /// Raw value (for packing into message parameters).
    pub const fn as_u64(self) -> u64 {
        self.0.get()
    }

    /// Decodes a wire value where 0 means "no episode".
    pub const fn from_wire(raw: u64) -> Option<RecoveryId> {
        match NonZeroU64::new(raw) {
            Some(raw) => Some(RecoveryId(raw)),
            None => None,
        }
    }

    /// The id minted after `last`, or the first one (1) if none was.
    pub const fn after(last: Option<RecoveryId>) -> RecoveryId {
        match last {
            Some(RecoveryId(raw)) => RecoveryId(raw.saturating_add(1)),
            None => RecoveryId(NonZeroU64::MIN),
        }
    }
}

impl fmt::Display for RecoveryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identity of one span in the causality tree. Allocated from a monotonic
/// counter in the [`TraceRing`], so allocation order — and therefore every
/// id — is a pure function of the seed.
///
/// Ids start at 1; 0 is the wire encoding of "none" and the niche of
/// `Option<SpanId>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(NonZeroU64);

impl SpanId {
    /// Raw value (for packing into message parameters).
    pub const fn as_u64(self) -> u64 {
        self.0.get()
    }

    /// Decodes a wire value where 0 means "no span".
    pub const fn from_wire(raw: u64) -> Option<SpanId> {
        match NonZeroU64::new(raw) {
            Some(raw) => Some(SpanId(raw)),
            None => None,
        }
    }

    /// The id minted after `last`, or the first one (1) if none was.
    pub const fn after(last: Option<SpanId>) -> SpanId {
        match last {
            Some(SpanId(raw)) => SpanId(raw.saturating_add(1)),
            None => SpanId(NonZeroU64::MIN),
        }
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A typed field value: structured events carry integers and strings, not
/// pre-formatted text. Durations and timestamps are recorded as `U64`
/// microseconds by convention (key suffix `_us`).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, endpoints, microsecond durations).
    U64(u64),
    /// A string (service names, defect classes, DS keys).
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time at which the event was emitted.
    pub at: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Emitting component, e.g. `"rs"` or `"driver.rtl8139"`.
    pub component: String,
    /// Human-readable description.
    pub message: String,
    /// Typed key=value fields in author order (a `Vec` keeps iteration
    /// deterministic; the analyzer looks keys up linearly — events carry a
    /// handful of fields at most).
    pub fields: Vec<(String, FieldValue)>,
    /// Recovery episode this event belongs to, if any.
    pub recovery: Option<RecoveryId>,
    /// Span identity of this event, if any.
    pub span: Option<SpanId>,
    /// Parent span, linking this event into the causality tree.
    pub parent: Option<SpanId>,
}

impl TraceEvent {
    /// Creates a bare event with no fields or causal identity.
    pub fn new(
        at: SimTime,
        level: TraceLevel,
        component: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        TraceEvent {
            at,
            level,
            component: component.into(),
            message: message.into(),
            fields: Vec::new(),
            recovery: None,
            span: None,
            parent: None,
        }
    }

    /// Appends a typed field (builder style).
    pub fn with_field(mut self, key: &str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Tags the event with a recovery episode (builder style).
    pub fn in_recovery(mut self, rid: RecoveryId) -> Self {
        self.recovery = Some(rid);
        self
    }

    /// Tags the event with a recovery episode, if one is known.
    pub fn in_recovery_opt(mut self, rid: Option<RecoveryId>) -> Self {
        self.recovery = rid;
        self
    }

    /// Sets the event's span identity (builder style).
    pub fn with_span(mut self, span: SpanId) -> Self {
        self.span = Some(span);
        self
    }

    /// Links the event to a parent span (builder style).
    pub fn with_parent(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Links the event to a parent span, if one is known.
    pub fn with_parent_opt(mut self, parent: Option<SpanId>) -> Self {
        self.parent = parent;
        self
    }

    /// Value of the first field named `key`, if any.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String value of the field named `key`, if present and a string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The conventional event-kind field (`ev`), used by the timeline
    /// analyzer to recognize phase boundaries without parsing messages.
    pub fn kind(&self) -> Option<&str> {
        self.field_str("ev")
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {:>5} {}] {}",
            self.at, self.level, self.component, self.message
        )?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        if let Some(rid) = self.recovery {
            write!(f, " {rid}")?;
        }
        match (self.span, self.parent) {
            (Some(s), Some(p)) => write!(f, " {s}<-{p}")?,
            (Some(s), None) => write!(f, " {s}")?,
            (None, Some(p)) => write!(f, " <-{p}")?,
            (None, None) => {}
        }
        Ok(())
    }
}

/// A bounded ring buffer of trace events.
///
/// When full, the oldest events are discarded; nothing else filters what
/// is emitted.
#[derive(Debug)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Evictions broken down by the evicted event's `ev` kind field
    /// (events without one count under `"(untyped)"`). Under request
    /// load the ring saturates with high-volume traffic; this makes it
    /// visible *which* kinds were lost, so a digest can warn when
    /// recovery-relevant events were among the evicted.
    dropped_by_kind: BTreeMap<String, u64>,
    last_span: Option<SpanId>,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(65_536)
    }
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events. It allocates
    /// nothing: the buffer grows with the events emitted, so a machine
    /// that emits few pays for few.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        TraceRing {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            dropped_by_kind: BTreeMap::new(),
            last_span: None,
        }
    }

    /// Allocates a fresh span id from the ring's monotonic counter.
    pub fn new_span(&mut self) -> SpanId {
        let span = SpanId::after(self.last_span);
        self.last_span = Some(span);
        span
    }

    /// Records an event.
    pub fn emit(&mut self, at: SimTime, level: TraceLevel, component: &str, message: String) {
        self.emit_event(TraceEvent::new(at, level, component, message));
    }

    /// Records a structured event.
    pub fn emit_event(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            if let Some(evicted) = self.events.pop_front() {
                let kind = evicted.kind().unwrap_or("(untyped)");
                with_named(&mut self.dropped_by_kind, kind, |n| *n += 1);
            }
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Retained events belonging to recovery episode `rid`, oldest first,
    /// with their ring indices (for ordering assertions).
    pub fn events_for(&self, rid: RecoveryId) -> impl Iterator<Item = (usize, &TraceEvent)> {
        self.events
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.recovery == Some(rid))
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evictions broken down by the evicted event's `ev` kind (events
    /// without one count under `"(untyped)"`), in kind order.
    pub fn dropped_by_kind(&self) -> impl Iterator<Item = (&str, u64)> {
        self.dropped_by_kind.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Index of the first retained event whose message contains `needle`,
    /// searching from `start`. Tests use this to assert event ordering.
    pub fn find_from(&self, start: usize, needle: &str) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .skip(start)
            .find(|(_, e)| e.message.contains(needle))
            .map(|(i, _)| i)
    }

    /// Convenience: `find_from(0, needle)`.
    pub fn find(&self, needle: &str) -> Option<usize> {
        self.find_from(0, needle)
    }

    /// Renders all retained events, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Discards all retained events (the drop counter is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The recovery id `raw`, which a test names by a nonzero literal.
    pub(crate) fn rid(raw: u64) -> RecoveryId {
        RecoveryId::from_wire(raw).expect("a test's id is nonzero")
    }

    /// The span id `raw`, which a test names by a nonzero literal.
    pub(crate) fn span(raw: u64) -> SpanId {
        SpanId::from_wire(raw).expect("a test's id is nonzero")
    }

    fn ev(ring: &mut TraceRing, us: u64, level: TraceLevel, msg: &str) {
        ring.emit(SimTime::from_micros(us), level, "test", msg.to_string());
    }

    #[test]
    fn records_and_renders() {
        let mut r = TraceRing::new(8);
        ev(&mut r, 1, TraceLevel::Info, "driver started");
        ev(&mut r, 2, TraceLevel::Warn, "driver crashed");
        assert_eq!(r.len(), 2);
        let s = r.render();
        assert!(s.contains("driver started"));
        assert!(s.contains("WARN"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = TraceRing::new(2);
        ev(&mut r, 1, TraceLevel::Info, "a");
        ev(&mut r, 2, TraceLevel::Info, "b");
        ev(&mut r, 3, TraceLevel::Info, "c");
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        assert!(r.find("a").is_none());
        assert!(r.find("b").is_some());
    }

    #[test]
    fn eviction_accounts_drops_per_kind() {
        let mut r = TraceRing::new(2);
        r.emit_event(
            TraceEvent::new(SimTime::from_micros(1), TraceLevel::Info, "inet", "req")
                .with_field("ev", "request"),
        );
        r.emit_event(
            TraceEvent::new(SimTime::from_micros(2), TraceLevel::Info, "rs", "defect")
                .with_field("ev", "defect"),
        );
        // Untyped filler evicts both typed events, then one of itself.
        for us in 3..6 {
            ev(&mut r, us, TraceLevel::Info, "noise");
        }
        assert_eq!(r.dropped(), 3);
        let by_kind: Vec<(&str, u64)> = r.dropped_by_kind().collect();
        assert_eq!(
            by_kind,
            vec![("(untyped)", 1), ("defect", 1), ("request", 1)],
            "each eviction is attributed to the evicted event's kind"
        );
    }

    /// A ring starts empty and grows with its events, past the 4,096 it
    /// once preallocated, up to a bound that is not a power of two; from
    /// there it evicts oldest first and counts each eviction by kind.
    #[test]
    fn a_ring_grows_from_empty_to_its_bound() {
        let mut r = TraceRing::new(5_000);
        assert!(r.is_empty());
        for i in 0..6_000u64 {
            let kind = if i % 3 == 0 { "defect" } else { "request" };
            r.emit_event(
                TraceEvent::new(SimTime::from_micros(i), TraceLevel::Info, "t", "e")
                    .with_field("ev", kind),
            );
        }
        assert_eq!(r.len(), 5_000);
        assert_eq!(r.dropped(), 1_000);
        let by_kind: Vec<(&str, u64)> = r.dropped_by_kind().collect();
        assert_eq!(by_kind, vec![("defect", 334), ("request", 666)]);
        let first = r.events().next().expect("a full ring has a first event");
        assert_eq!(first.at, SimTime::from_micros(1_000), "the 1,001st event");
    }

    #[test]
    fn find_from_orders_events() {
        let mut r = TraceRing::new(8);
        ev(&mut r, 1, TraceLevel::Info, "publish endpoint");
        ev(&mut r, 2, TraceLevel::Info, "reissue pending io");
        let pub_idx = r.find("publish endpoint").unwrap();
        let redo_idx = r.find_from(pub_idx, "reissue pending io").unwrap();
        assert!(redo_idx > pub_idx);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TraceRing::new(0);
    }

    #[test]
    fn structured_fields_and_lookup() {
        let e = TraceEvent::new(SimTime::ZERO, TraceLevel::Info, "rs", "defect")
            .with_field("ev", "defect")
            .with_field("service", "eth.rtl8139")
            .with_field("failures", 3u64);
        assert_eq!(e.kind(), Some("defect"));
        assert_eq!(e.field_str("service"), Some("eth.rtl8139"));
        assert_eq!(e.field("failures"), Some(&FieldValue::U64(3)));
        assert_eq!(e.field_str("failures"), None, "type mismatch is None");
        assert_eq!(e.field("absent"), None);
    }

    #[test]
    fn display_appends_fields_and_identity() {
        let e = TraceEvent::new(SimTime::from_micros(5), TraceLevel::Warn, "rs", "defect")
            .with_field("service", "eth")
            .in_recovery(rid(3))
            .with_span(span(7))
            .with_parent(span(6));
        let s = e.to_string();
        assert!(s.contains("service=eth"), "{s}");
        assert!(s.contains("r3"), "{s}");
        assert!(s.contains("s7<-s6"), "{s}");
        // A bare event renders exactly as before the structured extension.
        let bare = TraceEvent::new(SimTime::from_micros(5), TraceLevel::Info, "c", "msg");
        assert_eq!(bare.to_string(), "[T+0.000005s INFO c] msg");
    }

    #[test]
    fn span_ids_are_monotonic() {
        let mut r = TraceRing::new(8);
        let a = r.new_span();
        let b = r.new_span();
        assert!(b > a);
        assert_eq!(a, span(1), "ids start at 1 so 0 can mean none on wire");
    }

    #[test]
    fn wire_encoding_reserves_zero() {
        assert_eq!(RecoveryId::from_wire(0), None);
        assert_eq!(RecoveryId::from_wire(9).map(RecoveryId::as_u64), Some(9));
        assert_eq!(SpanId::from_wire(0), None);
        assert_eq!(SpanId::from_wire(2).map(SpanId::as_u64), Some(2));
        assert_eq!(rid(9).as_u64(), 9);
    }

    /// Each event carries three optional ids, and a ring holds up to
    /// 65,536 events, so an id's `None` costs bytes per retained event.
    #[test]
    fn optional_ids_and_events_have_pinned_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<RecoveryId>>(), 8);
        assert_eq!(size_of::<Option<SpanId>>(), 8);
        assert_eq!(size_of::<TraceEvent>(), 112);
    }

    #[test]
    fn events_for_filters_by_recovery_id() {
        let mut r = TraceRing::new(8);
        r.emit_event(
            TraceEvent::new(SimTime::from_micros(1), TraceLevel::Info, "rs", "a")
                .in_recovery(rid(1)),
        );
        r.emit_event(TraceEvent::new(
            SimTime::from_micros(2),
            TraceLevel::Info,
            "rs",
            "b",
        ));
        r.emit_event(
            TraceEvent::new(SimTime::from_micros(3), TraceLevel::Info, "ds", "c")
                .in_recovery(rid(1)),
        );
        let hits: Vec<usize> = r.events_for(rid(1)).map(|(i, _)| i).collect();
        assert_eq!(hits, vec![0, 2]);
    }
}
