//! Discrete-event simulation substrate for the Phoenix failure-resilient OS.
//!
//! This crate contains everything the simulated operating system needs that
//! is not operating-system specific:
//!
//! * [`time`] — a virtual clock ([`SimTime`], [`SimDuration`]) decoupled from
//!   wall-clock time so every experiment is deterministic and can model
//!   second-scale I/O transfers in milliseconds of host time.
//! * [`event`] — a cancellable priority event queue, the heart of the
//!   discrete-event engine.
//! * [`rng`] — a seedable, splittable random number generator wrapper so that
//!   fault-injection campaigns are reproducible.
//! * [`metrics`] — counters and histograms used by the
//!   experiment harness to regenerate the paper's figures.
//! * [`trace`] — a lightweight bounded trace ring used for debugging and for
//!   asserting recovery-order properties in tests; events carry typed fields
//!   and causal identity (spans, recovery correlation tokens).
//! * [`obs`] — folds a trace into per-recovery-episode phase timings
//!   (detection / repair / reintegration latency, §7.1).
//! * [`json`] — the one JSON value, writer and total parser every JSON
//!   artefact of the workspace goes through.
//! * [`export`] — deterministic JSONL and Chrome-trace-format dumps of a
//!   trace, with a round-trip reader for CI checks.
//! * [`digest`] — minimal MD5 and SHA-1 implementations used to verify data
//!   integrity across driver crashes, mirroring the paper's use of `md5sum`
//!   (Fig. 7) and `sha1sum` (Fig. 8).
//!
//! # Example
//!
//! ```
//! use phoenix_simcore::event::EventQueue;
//! use phoenix_simcore::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_after(SimDuration::from_millis(5), "world");
//! q.schedule_after(SimDuration::from_millis(1), "hello");
//! let (t1, e1) = q.pop().unwrap();
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((e1, e2), ("hello", "world"));
//! assert!(t1 < t2);
//! assert_eq!(q.now(), SimTime::ZERO + SimDuration::from_millis(5));
//! ```

pub mod digest;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod rng;
pub mod time;
pub mod trace;
pub mod wire;

pub use event::{EventId, EventQueue};
pub use export::{export_chrome_trace, export_jsonl, parse_jsonl};
pub use metrics::{LogHistogram, MetricsRegistry};
pub use obs::{fold_timeline, Episode, Timeline};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{FieldValue, RecoveryId, SpanId, TraceEvent, TraceLevel, TraceRing};
