//! Checkpoint-store protocol: message kinds spoken between checkpointed
//! drivers and the data store, plus the parameter conventions that carry
//! write-ahead-log metadata on ordinary `cdev` messages.
//!
//! The message kinds live here (rather than in `servers/proto.rs`)
//! because the protocol's *clients* are drivers and the drivers crate
//! cannot depend on the servers crate; `phoenix-analyze`'s conformance
//! pass reads this file alongside the other proto modules.

use phoenix_kernel::types::Message;

/// Checkpoint save/restore message kinds (0x0A00 range).
///
/// Wire layout:
/// - `SAVE`: param 0 = key length K; data = K key bytes followed by the
///   [`crate::snapshot::Snapshot`] wire encoding. Authenticated by the
///   caller's stable published name (like `ds::STORE`).
/// - `SAVE_REPLY`: param 0 = [`ckpt_status`]; param 1 = stored sequence.
/// - `RESTORE`: data = key bytes. The reply always carries the episode
///   correlation of the owner's most recent re-publish so the fresh
///   incarnation can tag its restore/replay trace events.
/// - `RESTORE_REPLY`: param 0 = [`ckpt_status`]; param 1 = `RecoveryId`
///   wire value (0 = none); param 2 = `SpanId` wire value; data =
///   snapshot wire encoding when param 0 is `OK`.
/// - `TAIL`: data = the *primary's* key bytes. Only a warm spare
///   published under `standby.<key>` may tail `<key>`; the owner-name
///   binding authenticates the caller's live endpoint generation.
/// - `TAIL_REPLY`: param 0 = [`ckpt_status`]; data = snapshot wire
///   encoding when param 0 is `OK`. The spare keeps its own monotone
///   (incarnation, seq) cursor and drops non-advancing frames, so
///   duplicated or reordered replies cannot rewind it.
/// - `PROMOTE`: data = the primary's *owner name* bytes; RS-only
///   (authenticated as the store host's publisher). Re-frames every
///   record of that owner with a clamped incarnation so the promoted
///   spare's own saves pass the ghost check.
pub mod ckpt {
    /// Driver -> store: persist a snapshot.
    /// proto: request, reply=SAVE_REPLY, params 0=key-len
    pub const SAVE: u32 = 0x0A00;
    /// Store -> driver: save outcome.
    /// proto: reply, params 0=status, params 1=sequence
    pub const SAVE_REPLY: u32 = 0x0A01;
    /// Driver -> store: fetch the last snapshot for a key.
    /// proto: request, reply=RESTORE_REPLY
    pub const RESTORE: u32 = 0x0A02;
    /// Store -> driver: restore outcome (+ recovery correlation).
    /// proto: reply, params 0=status, params 1/2=recovery-token
    pub const RESTORE_REPLY: u32 = 0x0A03;
    /// Warm spare -> store: poll the primary's latest snapshot frame.
    /// proto: request, reply=TAIL_REPLY
    pub const TAIL: u32 = 0x0A04;
    /// Store -> spare: tail outcome (snapshot wire in data when OK).
    /// proto: reply, params 0=status
    pub const TAIL_REPLY: u32 = 0x0A05;
    /// RS -> store: re-frame an owner's records for a promoted
    /// incarnation.
    /// proto: request, reply=PROMOTE_REPLY
    pub const PROMOTE: u32 = 0x0A06;
    /// Store -> RS: promote outcome.
    /// proto: reply, params 0=status, params 1=records-adopted
    pub const PROMOTE_REPLY: u32 = 0x0A07;
}

/// Status codes for `SAVE_REPLY` / `RESTORE_REPLY` param 0.
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

/// Parameter conventions that piggyback write-ahead-log metadata on the
/// existing `cdev` request/reply messages. Parameters 5/6 are unused by
/// `cdev` requests (param 7 routes the device index through VFS), and
/// success replies use only params 0/1, so both directions pass through
/// VFS untouched.
pub mod wal_params {
    /// Request param: caller's monotone WAL sequence number (0 = the
    /// caller opted out of checkpointing; the request is served with the
    /// paper's original error-push semantics).
    pub const REQ_SEQ: usize = 5;
    /// Request param: absolute stream offset of the first payload byte.
    pub const REQ_OFFSET: usize = 6;
    /// Reply param: the driver's cumulative consumed watermark — bytes
    /// committed to hardware, acknowledged separately from IPC
    /// completion.
    pub const ACK_CONSUMED: usize = 3;
    /// Reply param: echo of the request's sequence number.
    pub const ACK_SEQ: usize = 4;
}

/// Tags a `cdev` request with its WAL sequence number and stream offset.
pub fn tag_request(msg: Message, seq: u64, offset: u64) -> Message {
    msg.with_param(wal_params::REQ_SEQ, seq)
        .with_param(wal_params::REQ_OFFSET, offset)
}

/// Extracts `(seq, offset)` from a checkpointed request; `None` when the
/// caller opted out (seq 0).
pub fn request_wal(msg: &Message) -> Option<(u64, u64)> {
    let seq = msg.param(wal_params::REQ_SEQ);
    (seq != 0).then(|| (seq, msg.param(wal_params::REQ_OFFSET)))
}

/// Attaches a consumed-progress acknowledgment to a `cdev` reply.
pub fn ack_reply(reply: Message, consumed: u64, seq: u64) -> Message {
    reply
        .with_param(wal_params::ACK_CONSUMED, consumed)
        .with_param(wal_params::ACK_SEQ, seq)
}

/// Extracts `(consumed, seq)` from an acknowledged reply; `None` when
/// the reply carries no acknowledgment (seq echo 0).
pub fn reply_ack(reply: &Message) -> Option<(u64, u64)> {
    let seq = reply.param(wal_params::ACK_SEQ);
    (seq != 0).then(|| (reply.param(wal_params::ACK_CONSUMED), seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_tagging_round_trips() {
        let m = tag_request(Message::new(0x0401), 7, 4096);
        assert_eq!(request_wal(&m), Some((7, 4096)));
        assert_eq!(request_wal(&Message::new(0x0401)), None, "seq 0 = opt-out");
    }

    #[test]
    fn reply_ack_round_trips() {
        let r = ack_reply(Message::new(0x0402), 8192, 9);
        assert_eq!(reply_ack(&r), Some((8192, 9)));
        assert_eq!(reply_ack(&Message::new(0x0402)), None);
    }
}
