//! `phoenix-ckpt`: driver state checkpointing and write-ahead message
//! logging for transparent character-driver recovery.
//!
//! The paper (§6.3) declares character-driver recovery the one case that
//! cannot be transparent: after a restart "it is undecidable how much of
//! the stream was consumed," so errors are pushed to the application.
//! This subsystem closes that gap by making consumption *decidable*
//! through three cooperating mechanisms:
//!
//! 1. **Write-ahead request log** ([`wal::WriteAheadLog`]) — the caller
//!    (application/VFS side) sequence-numbers every side-effecting
//!    stream request and keeps the entry until the driver acknowledges
//!    *consumed progress* (bytes committed to hardware), which rides in
//!    spare reply parameters separately from IPC completion. Because the
//!    log lives outside the driver, it survives the driver's death; the
//!    aborted tail is simply replayed into the fresh incarnation.
//!
//! 2. **Driver-side dedup cursor** ([`wal::ConsumedCursor`]) — every
//!    logged request carries its absolute stream offset, so a restarted
//!    driver can discard the already-committed prefix of a replayed
//!    request. Replay is therefore idempotent: at-least-once delivery
//!    plus offset dedup yields exactly-once hardware effects.
//!
//! 3. **Checkpoint store** ([`store::CheckpointStore`], hosted by DS) —
//!    drivers publish small versioned snapshots ([`snapshot::Snapshot`])
//!    of their consumed watermark (and any state that exists only in the
//!    driver, e.g. the keyboard line buffer) at quiescent points. Each
//!    snapshot is CRC-protected and tagged with the writer's endpoint
//!    generation, so a ghost of a previous incarnation cannot clobber
//!    the live state and a corrupted record is rejected rather than
//!    restored. The snapshot covers the one window the caller-held log
//!    cannot: progress committed to hardware whose acknowledgment never
//!    reached the caller.
//!
//! [`gate::StateGate`] is the per-component client gluing these
//! together, and the crash-only contract servers and drivers share: lazy
//! snapshot restore on the first request after a (re)start with requests
//! parked behind it, apply then replay, fire-and-forget quiescent-point
//! saves, and `RecoveryId` threading so restore/replay show up as a
//! `replay` phase on the causal recovery timeline.

pub mod gate;
pub mod proto;
pub mod snapshot;
pub mod spare;
pub mod store;
pub mod wal;

pub use gate::StateGate;
pub use snapshot::{crc32, Snapshot, SnapshotError};
pub use spare::SpareTail;
pub use store::{CheckpointStore, RestoreOutcome, SaveOutcome, StoredCheckpoint};
pub use wal::{ConsumedCursor, IngestPlan, WalEntry, WriteAheadLog};
