//! Warm-spare WAL tailing: the driver-side client a hot-standby
//! incarnation uses to continuously shadow its primary's checkpoint
//! record.
//!
//! A spare is spawned by RS next to a healthy primary and polls the
//! checkpoint store for the primary's latest snapshot frame on a fixed
//! period (the period rides in RS's `drv::STANDBY` message, so the
//! cadence stays a policy decision). Each reply is *sequence-gated*: the
//! tail keeps a monotone `(incarnation, seq)` cursor and drops frames
//! that do not advance it, so duplicated, reordered, or replayed store
//! replies can never rewind the shadow state. Authentication is on the
//! store side — only the endpoint published under `standby.<key>` may
//! tail `<key>`, which ties the read capability to the spare's live
//! endpoint generation.
//!
//! At promotion the driver hands the adopted frame to its own
//! [`crate::StateGate`] via `adopt_warm` and continues exactly where
//! the primary's last quiescent point left off — the restore round-trip
//! of a cold restart is never paid.

use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::TraceLevel;

use crate::proto::{ckpt, ckpt_status};
use crate::snapshot::Snapshot;

/// Driver-side tail cursor over the primary's checkpoint record.
#[derive(Debug)]
pub struct SpareTail {
    ds: Endpoint,
    /// The *primary's* checkpoint key (not the standby name).
    key: String,
    poll_call: Option<CallId>,
    /// Highest `(incarnation, seq)` adopted so far; later frames must
    /// strictly advance it.
    cursor: Option<(u32, u64)>,
    /// The most recent adopted frame.
    latest: Option<Snapshot>,
}

impl SpareTail {
    /// A tail over the primary's record `key`, served by the checkpoint
    /// store hosted at `ds`.
    pub fn new(ds: Endpoint, key: impl Into<String>) -> Self {
        SpareTail {
            ds,
            key: key.into(),
            poll_call: None,
            cursor: None,
            latest: None,
        }
    }

    /// The tailed sequence number (0 until the first frame lands).
    pub fn seq(&self) -> u64 {
        self.cursor.map_or(0, |(_, s)| s)
    }

    /// The consumed watermark of the latest adopted frame, if it is a
    /// watermark snapshot.
    pub fn watermark(&self) -> Option<u64> {
        self.latest.as_ref().and_then(Snapshot::as_watermark)
    }

    /// Issues one tail poll (called from the spare's tail alarm). At
    /// most one poll is in flight; a tick that lands while the previous
    /// reply is outstanding is skipped rather than queued.
    // analyze:recovery-root
    pub fn poll(&mut self, ctx: &mut Ctx) {
        if self.poll_call.is_some() {
            return;
        }
        let req = Message::new(ckpt::TAIL).with_data(self.key.clone().into_bytes());
        match ctx.sendrec(self.ds, req) {
            Ok(call) => {
                self.poll_call = Some(call);
                ctx.metrics().incr("ckpt.tail_polls");
            }
            Err(_) => {
                // DS unreachable this tick; the next alarm retries.
                ctx.metrics().incr("ckpt.tail_send_failed");
            }
        }
    }

    /// Routes a `ProcEvent::Reply`. Returns `true` when the reply was a
    /// tail reply (consumed here), `false` when it belongs to someone
    /// else. A frame is adopted only if it strictly advances the
    /// `(incarnation, seq)` cursor.
    // analyze:recovery-root
    pub fn on_reply(
        &mut self,
        ctx: &mut Ctx,
        call: CallId,
        result: &Result<Message, IpcError>,
    ) -> bool {
        if self.poll_call != Some(call) {
            return false;
        }
        self.poll_call = None;
        let (tail, data) = match result {
            Ok(reply) => match ckpt::TailReply::from_message(reply) {
                Some(tail) => (tail, &reply.data),
                None => {
                    ctx.metrics().incr("ckpt.tail_bad_reply");
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("tail poll got reply type {:#x}", reply.mtype),
                    );
                    return true;
                }
            },
            Err(_) => {
                // DS died mid-poll; the next alarm retries.
                ctx.metrics().incr("ckpt.tail_aborted");
                return true;
            }
        };
        match tail.status {
            s if s == ckpt_status::OK => match Snapshot::decode(data) {
                Ok(snap) => {
                    let frame = (snap.incarnation, snap.seq);
                    if self.cursor.is_some_and(|cur| frame <= cur) {
                        // Duplicated or reordered reply: the cursor only
                        // moves forward.
                        ctx.metrics().incr("ckpt.tail_stale");
                    } else {
                        self.cursor = Some(frame);
                        self.latest = Some(snap);
                        ctx.metrics().incr("ckpt.tail_adopted");
                    }
                }
                Err(_) => {
                    ctx.metrics().incr("ckpt.tail_corrupt");
                }
            },
            s if s == ckpt_status::NOT_FOUND => {
                // The primary has not checkpointed yet; nothing to shadow.
            }
            _ => {
                ctx.metrics().incr("ckpt.tail_corrupt");
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tail() -> SpareTail {
        SpareTail::new(Endpoint::new(1, 1), "printer")
    }

    #[test]
    fn cursor_is_monotone_over_incarnation_then_seq() {
        let mut t = tail();
        assert_eq!(t.seq(), 0);
        t.cursor = Some((2, 5));
        assert!((2u32, 5u64) <= t.cursor.unwrap());
        assert!((2u32, 4u64) <= t.cursor.unwrap(), "older seq is stale");
        assert!(
            (1u32, 9u64) <= t.cursor.unwrap(),
            "older incarnation is stale"
        );
        assert!((2u32, 6u64) > t.cursor.unwrap(), "next seq advances");
        assert!((3u32, 1u64) > t.cursor.unwrap(), "new incarnation advances");
    }

    #[test]
    fn watermark_reads_the_latest_frame() {
        let mut t = tail();
        assert_eq!(t.watermark(), None);
        t.latest = Some(Snapshot::watermark(1, 3, 4096));
        t.cursor = Some((1, 3));
        assert_eq!(t.watermark(), Some(4096));
        assert_eq!(t.seq(), 3);
    }
}
