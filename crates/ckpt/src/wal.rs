//! The write-ahead request log (caller side) and the consumed-progress
//! cursor (driver side).
//!
//! Together these two halves make stream consumption decidable. The
//! caller appends each chunk to its [`WriteAheadLog`] *before* sending
//! it, stamped with a monotone sequence number and its absolute stream
//! offset. The driver commits bytes to hardware and acknowledges its
//! cumulative consumed watermark in the reply. Entries survive in the
//! log until the watermark passes them; after a driver death the caller
//! simply resends the first unacknowledged entry — the fresh driver's
//! [`ConsumedCursor`] discards any already-committed prefix, so replay
//! duplicates nothing and loses nothing.

use std::collections::VecDeque;

/// One logged request: sequence number, absolute stream offset, payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalEntry {
    /// Monotone per-client sequence number (1-based; 0 is "no WAL").
    pub seq: u64,
    /// Stream offset of `data[0]`.
    pub offset: u64,
    /// The chunk payload.
    pub data: Vec<u8>,
}

/// Caller-held write-ahead log for one stream.
///
/// Invariants: entries are contiguous and offset-ordered; the head entry
/// is the first one not fully covered by the acknowledged watermark.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    entries: VecDeque<WalEntry>,
    next_seq: u64,
    next_offset: u64,
    acked: u64,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Appends a chunk, assigning its sequence number and offset.
    /// Returns the assigned sequence number.
    // analyze:recovery-root
    pub fn append(&mut self, data: Vec<u8>) -> u64 {
        self.next_seq += 1;
        let entry = WalEntry {
            seq: self.next_seq,
            offset: self.next_offset,
            data,
        };
        self.next_offset += entry.data.len() as u64;
        self.entries.push_back(entry);
        self.next_seq
    }

    /// Applies a consumed-progress acknowledgment (an absolute
    /// watermark). Regressions are ignored — an old in-flight reply must
    /// not roll progress back. Returns the number of newly acknowledged
    /// bytes.
    // analyze:recovery-root
    pub fn ack(&mut self, consumed: u64) -> u64 {
        let consumed = consumed.min(self.next_offset);
        if consumed <= self.acked {
            return 0;
        }
        let gained = consumed - self.acked;
        self.acked = consumed;
        while let Some(front) = self.entries.front() {
            if front.offset + front.data.len() as u64 <= self.acked {
                self.entries.pop_front();
            } else {
                break;
            }
        }
        gained
    }

    /// The first entry not fully acknowledged — what to (re)send next.
    /// A partially consumed entry is returned whole; the driver's cursor
    /// discards the committed prefix.
    // analyze:recovery-root
    pub fn next_unacked(&self) -> Option<&WalEntry> {
        self.entries.front()
    }

    /// Acknowledged consumed watermark.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Total bytes ever appended.
    pub fn appended(&self) -> u64 {
        self.next_offset
    }

    /// Whether every appended byte has been acknowledged.
    pub fn is_drained(&self) -> bool {
        self.acked == self.next_offset
    }
}

/// How an incoming logged request relates to the driver's committed
/// watermark: which bytes are fresh, which are replay duplicates, and
/// whether the request sits past a lost watermark (gap).
#[derive(Debug, PartialEq, Eq)]
pub struct IngestPlan<'a> {
    /// Bytes not yet committed (suffix of the request payload). Empty
    /// for a pure duplicate.
    pub fresh: &'a [u8],
    /// Stream offset of `fresh[0]` (meaningful when `fresh` is
    /// non-empty); pass it to [`ConsumedCursor::commit_at`].
    pub start: u64,
    /// Prefix bytes of this request already committed by a previous
    /// incarnation — replay duplicates to discard.
    pub dup_bytes: u64,
    /// Bytes between the cursor and the request offset. Non-zero only
    /// when the driver's watermark was lost (missing/corrupt snapshot):
    /// the caller's log is authoritative — acknowledgments are only ever
    /// sent for committed bytes — so the cursor jumps forward.
    pub gap_bytes: u64,
}

/// Driver-side consumed-progress watermark with replay deduplication.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConsumedCursor {
    committed: u64,
}

impl ConsumedCursor {
    /// A cursor at stream position zero.
    pub fn new() -> Self {
        ConsumedCursor::default()
    }

    /// Restores the watermark from a snapshot.
    pub fn restore(&mut self, committed: u64) {
        self.committed = committed;
    }

    /// Bytes committed to hardware so far (the acknowledgment value).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Classifies a logged request at `offset` against the watermark.
    pub fn plan<'a>(&self, offset: u64, data: &'a [u8]) -> IngestPlan<'a> {
        let len = data.len() as u64;
        let start = offset.max(self.committed);
        let dup = (self.committed.saturating_sub(offset)).min(len);
        let gap = offset.saturating_sub(self.committed);
        let fresh = if dup >= len {
            &data[data.len()..]
        } else {
            &data[dup as usize..]
        };
        IngestPlan {
            fresh,
            start,
            dup_bytes: dup,
            gap_bytes: gap,
        }
    }

    /// Records `n` bytes committed starting at `start` (from a plan).
    pub fn commit_at(&mut self, start: u64, n: u64) {
        self.committed = self.committed.max(start + n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_contiguous_offsets_and_seqs() {
        let mut wal = WriteAheadLog::new();
        assert_eq!(wal.append(vec![0; 100]), 1);
        assert_eq!(wal.append(vec![0; 50]), 2);
        let e = wal.next_unacked().expect("head entry");
        assert_eq!((e.seq, e.offset), (1, 0));
        assert_eq!(wal.appended(), 150);
    }

    #[test]
    fn ack_trims_fully_consumed_entries_and_ignores_regressions() {
        let mut wal = WriteAheadLog::new();
        wal.append(vec![0; 100]);
        wal.append(vec![0; 100]);
        assert_eq!(wal.ack(130), 130);
        // Entry 1 trimmed; entry 2 partially consumed stays replayable.
        let e = wal.next_unacked().expect("partial entry retained");
        assert_eq!((e.seq, e.offset), (2, 100));
        assert_eq!(wal.ack(120), 0, "stale ack must not regress");
        assert_eq!(wal.acked(), 130);
        assert_eq!(wal.ack(500), 70, "acks clamp to appended bytes");
        assert!(wal.is_drained());
        assert_eq!(wal.next_unacked(), None);
    }

    #[test]
    fn cursor_discards_replayed_prefix() {
        let mut c = ConsumedCursor::new();
        c.restore(130);
        let data = vec![7u8; 100];
        // Entry at offset 100: 30 bytes already committed, 70 fresh.
        let plan = c.plan(100, &data);
        assert_eq!(plan.dup_bytes, 30);
        assert_eq!(plan.gap_bytes, 0);
        assert_eq!(plan.start, 130);
        assert_eq!(plan.fresh.len(), 70);
        c.commit_at(plan.start, plan.fresh.len() as u64);
        assert_eq!(c.committed(), 200);
    }

    #[test]
    fn cursor_reports_pure_duplicates_and_gaps() {
        let mut c = ConsumedCursor::new();
        c.restore(200);
        let dup = c.plan(100, &[0u8; 100]);
        assert!(dup.fresh.is_empty());
        assert_eq!(dup.dup_bytes, 100);
        // Lost watermark: caller replays from its acked offset 300.
        c.restore(0);
        let gap = c.plan(300, &[0u8; 10]);
        assert_eq!(gap.gap_bytes, 300);
        assert_eq!(gap.start, 300);
        assert_eq!(gap.fresh.len(), 10);
        c.commit_at(gap.start, 10);
        assert_eq!(c.committed(), 310, "cursor jumps past the gap");
    }
}
