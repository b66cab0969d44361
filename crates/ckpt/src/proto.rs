//! Checkpoint-store protocol: message kinds spoken between checkpointed
//! drivers and the data store. (The write-ahead-log tags a checkpointed
//! client puts on an ordinary `cdev` write are fields of the `cdev` rows of
//! `phoenix_drivers::proto`.)
//!
//! The message kinds live here (rather than in `servers/proto.rs`)
//! because the protocol's *clients* are drivers and the drivers crate
//! cannot depend on the servers crate; `phoenix-analyze`'s conformance
//! pass reads this file alongside the other proto modules.

/// Checkpoint save/restore message kinds (0x0A00 range).
pub mod ckpt {
    use phoenix_simcore::trace::{RecoveryId, SpanId};

    phoenix_kernel::protocol! {
        /// Driver -> store: persist a snapshot. `data` is the key
        /// (`key_len` bytes) followed by the [`crate::snapshot::Snapshot`]
        /// wire encoding. Authenticated by the caller's stable published
        /// name in DS's naming records, so the next incarnation finds the
        /// record.
        request SAVE = 0x0A00 -> SAVE_REPLY, Save { key_len: 0 }
        /// Store -> driver: the [`super::ckpt_status`] and the stored
        /// sequence.
        reply SAVE_REPLY = 0x0A01, SaveReply { status: 0, seq: 1 }
        /// Driver -> store: fetch the last snapshot for the key in `data`.
        request RESTORE = 0x0A02 -> RESTORE_REPLY;
        /// Store -> driver: the status, the snapshot wire encoding in
        /// `data` when OK, and always the episode of the owner's most
        /// recent re-publish (`None` for a boot-time publish), so the
        /// fresh incarnation can tag its restore/replay trace events.
        reply RESTORE_REPLY = 0x0A03, RestoreReply {
            status: 0,
            recovery: 1 as Option<RecoveryId>,
            span: 2 as Option<SpanId>,
        }
        /// Warm spare -> store: poll the latest snapshot frame of the
        /// *primary's* key in `data`. Only a spare published under
        /// `standby.<key>` may tail `<key>`; the owner-name binding
        /// authenticates the caller's live endpoint generation.
        request TAIL = 0x0A04 -> TAIL_REPLY;
        /// Store -> spare: the status; the snapshot wire encoding in `data`
        /// when OK. The spare keeps its own monotone (incarnation, seq)
        /// cursor and drops non-advancing frames, so duplicated or
        /// reordered replies cannot rewind it.
        reply TAIL_REPLY = 0x0A05, TailReply { status: 0 }
        /// RS -> store: re-frame every record of the owner named in `data`
        /// with a clamped incarnation, so the promoted spare's own saves
        /// pass the ghost check. Authenticated as the store host's
        /// publisher.
        request PROMOTE = 0x0A06 -> PROMOTE_REPLY;
        /// Store -> RS: the status and the records adopted.
        reply PROMOTE_REPLY = 0x0A07, PromoteReply {
            status: 0,
            adopted: 1,
        }
    }
}

/// Status codes of the checkpoint replies' `status` field.
pub mod ckpt_status {
    /// Stored / snapshot returned.
    pub const OK: u64 = 0;
    /// No snapshot recorded under this key.
    pub const NOT_FOUND: u64 = 1;
    /// Save rejected: the offered snapshot is from an older incarnation
    /// (or replays an already-stored sequence) — a ghost of a previous
    /// incarnation must not clobber the live state.
    pub const STALE: u64 = 2;
    /// The record failed CRC validation; nothing restored.
    pub const CORRUPT: u64 = 3;
    /// Caller is not the published owner of the name.
    pub const DENIED: u64 = 4;
}
