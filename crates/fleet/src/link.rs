//! Reliable snapshot transfer over the fleet wire: a poll-driven
//! go-back-N sender/receiver pair speaking [`netproto`] segments — the
//! same sliding-window machinery the remote file peer uses, re-hosted
//! on the inter-node links so snapshot replication survives the loss
//! and partition windows node chaos opens.
//!
//! The sender chunks a snapshot image into `MSS`-sized `DATA` segments
//! (the last one also flagged `FIN`), keeps at most [`WINDOW`] segments
//! in flight, and goes back to the lowest unacknowledged byte on RTO
//! expiry (exponential backoff, capped; fresh progress resets it) or on
//! three duplicate cumulative ACKs (once per stall). The receiver
//! accepts only in-order data and always answers with its cumulative
//! ACK. A new `conn` id resets the receiver: transfers on a link are
//! serialized, and the id disambiguates a late retransmission of the
//! previous image from the start of the next.
//!
//! Neither end allocates per image. The sender keeps its image buffer
//! and writes the next image into it ([`SnapSender::restart`]); a segment
//! carries a shared range of that buffer ([`Chunk`]), not a copy. The
//! receiver reassembles into a buffer it keeps and lends the completed
//! image out, so a caller can swap it for the buffer of the image it
//! held before.

use std::array;
use std::fmt;
use std::iter::Flatten;
use std::ops::Range;
use std::rc::Rc;

use phoenix_servers::netproto::{flags, Segment, MSS};
use phoenix_simcore::time::{SimDuration, SimTime};

/// Maximum segments in flight.
pub const WINDOW: usize = 8;
/// Initial retransmission timeout.
pub const RTO_BASE: SimDuration = SimDuration::from_millis(200);
/// Backoff cap.
pub const RTO_MAX: SimDuration = SimDuration::from_secs(2);

/// The segments one [`SnapSender::tick`] emits, held inline: never more
/// than a window.
pub type Flight = Flatten<array::IntoIter<Option<Segment<Chunk>>, WINDOW>>;

/// The payload of a data segment: a range of the sender's image, shared
/// with it. The sender refills its image through `Rc::make_mut`, which
/// copies the image first while a segment still shares it, so a segment
/// in flight keeps the bytes it was sent with.
#[derive(Clone)]
pub struct Chunk {
    image: Rc<Vec<u8>>,
    range: Range<usize>,
}

impl AsRef<[u8]> for Chunk {
    fn as_ref(&self) -> &[u8] {
        &self.image[self.range.clone()]
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// Go-back-N sender of one snapshot image at a time. The default sender
/// has no image and is done.
#[derive(Debug)]
pub struct SnapSender {
    conn: u16,
    data: Rc<Vec<u8>>,
    snd_una: usize,
    snd_nxt: usize,
    rto: SimDuration,
    deadline: Option<SimTime>,
    dup_acks: u32,
    fast_retx_armed: bool,
    go_back: bool,
    /// Go-back-N events (timeout or fast retransmit).
    pub retransmissions: u64,
    done: bool,
}

impl SnapSender {
    /// Starts a transfer of `data` (must be non-empty) on connection
    /// `conn`.
    pub fn new(conn: u16, data: Vec<u8>) -> SnapSender {
        assert!(!data.is_empty(), "empty snapshot transfer");
        SnapSender::over(conn, Rc::new(data))
    }

    /// Abandons the transfer in progress, writes the next image into the
    /// buffer the last one left (`write` replaces its contents) and starts
    /// its transfer on connection `conn`, as [`SnapSender::new`] would.
    pub fn restart(&mut self, conn: u16, write: impl FnOnce(&mut Vec<u8>)) {
        write(Rc::make_mut(&mut self.data));
        assert!(!self.data.is_empty(), "empty snapshot transfer");
        *self = SnapSender::over(conn, Rc::clone(&self.data));
    }

    /// A sender at the start of the transfer of `data`.
    fn over(conn: u16, data: Rc<Vec<u8>>) -> SnapSender {
        SnapSender {
            conn,
            data,
            snd_una: 0,
            snd_nxt: 0,
            rto: RTO_BASE,
            deadline: None,
            dup_acks: 0,
            fast_retx_armed: true,
            go_back: false,
            retransmissions: 0,
            done: false,
        }
    }

    /// Whether the whole image has been acknowledged, or the transfer
    /// was abandoned.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Abandons the transfer in progress: the sender is done, and keeps
    /// its buffer for the next image.
    pub fn abandon(&mut self) {
        self.done = true;
        self.deadline = None;
    }

    /// A lower bound on the next instant at which [`tick`] emits a
    /// segment: `None` once the image is acknowledged, the epoch (that
    /// is, now) while a go-back is pending or the window has room for
    /// unsent data, otherwise the RTO deadline.
    ///
    /// [`tick`]: SnapSender::tick
    pub fn next_due(&self) -> Option<SimTime> {
        if self.done {
            return None;
        }
        let sendable = self.snd_nxt < self.data.len() && self.in_flight() < WINDOW;
        if self.go_back || sendable {
            return Some(SimTime::ZERO);
        }
        self.deadline
    }

    /// Processes a cumulative ACK.
    pub fn on_ack(&mut self, now: SimTime, seg: &Segment<()>) {
        if seg.conn != self.conn || self.done {
            return;
        }
        let ack = seg.ack as usize;
        if ack > self.snd_una {
            // Fresh progress: slide the window, reset the backoff and
            // re-arm fast retransmit for the next stall.
            self.snd_una = ack.min(self.data.len());
            self.dup_acks = 0;
            self.fast_retx_armed = true;
            self.rto = RTO_BASE;
            if self.snd_una >= self.data.len() {
                self.done = true;
                self.deadline = None;
            } else {
                self.deadline = Some(now + self.rto);
            }
        } else if ack == self.snd_una {
            self.dup_acks += 1;
            if self.dup_acks >= 3 && self.fast_retx_armed {
                // One fast retransmit per stall; further dup-ACKs wait
                // for the timer.
                self.fast_retx_armed = false;
                self.go_back = true;
            }
        }
    }

    /// Advances the sender: retransmits on RTO expiry or a pending fast
    /// retransmit, then fills the window with new segments.
    pub fn tick(&mut self, now: SimTime) -> Flight {
        let mut flight: [Option<Segment<Chunk>>; WINDOW] = Default::default();
        if self.done {
            return flight.into_iter().flatten();
        }
        if let Some(d) = self.deadline {
            if now >= d {
                self.go_back = true;
                self.rto = (self.rto * 2).min(RTO_MAX);
            }
        }
        if self.go_back {
            self.go_back = false;
            self.retransmissions += 1;
            self.snd_nxt = self.snd_una;
            self.deadline = Some(now + self.rto);
        }
        // A window of segments at most, so the flight has room for each.
        for slot in &mut flight {
            if self.snd_nxt >= self.data.len() || self.in_flight() >= WINDOW {
                break;
            }
            let end = (self.snd_nxt + MSS).min(self.data.len());
            let mut seg_flags = flags::DATA;
            if end == self.data.len() {
                seg_flags |= flags::FIN;
            }
            *slot = Some(Segment {
                flags: seg_flags,
                conn: self.conn,
                seq: self.snd_nxt as u32,
                ack: 0,
                payload: Chunk {
                    image: Rc::clone(&self.data),
                    range: self.snd_nxt..end,
                },
            });
            self.snd_nxt = end;
        }
        if flight[0].is_some() && self.deadline.is_none() {
            self.deadline = Some(now + self.rto);
        }
        flight.into_iter().flatten()
    }

    fn in_flight(&self) -> usize {
        (self.snd_nxt - self.snd_una).div_ceil(MSS)
    }
}

impl Default for SnapSender {
    fn default() -> SnapSender {
        SnapSender {
            done: true,
            ..SnapSender::over(0, Rc::default())
        }
    }
}

/// In-order go-back-N receiver.
#[derive(Debug, Default)]
pub struct SnapReceiver {
    conn: Option<u16>,
    rcv_nxt: usize,
    buf: Vec<u8>,
    done: bool,
}

impl SnapReceiver {
    /// A fresh receiver with no transfer in progress.
    pub fn new() -> SnapReceiver {
        SnapReceiver::default()
    }

    /// Abandons the transfer in progress, keeping the buffer: the next
    /// segment starts a new one, as at a fresh receiver.
    pub fn abandon(&mut self) {
        self.conn = None;
    }

    /// Processes one data segment; returns the cumulative ACK to send
    /// back and, once the `FIN` segment completes the image, the
    /// reassembled bytes, lent: the receiver reads them no more until the
    /// next transfer clears them, so a caller may swap them for a buffer
    /// of its own, which the next transfer reassembles into.
    pub fn on_segment<P: AsRef<[u8]>>(
        &mut self,
        seg: &Segment<P>,
    ) -> (Segment<()>, Option<&mut Vec<u8>>) {
        if self.conn != Some(seg.conn) {
            // New transfer on this link: reset reassembly.
            self.conn = Some(seg.conn);
            self.rcv_nxt = 0;
            self.buf.clear();
            self.done = false;
        }
        let payload = seg.payload.as_ref();
        let mut complete = false;
        if seg.flags & flags::DATA != 0 && !self.done && seg.seq as usize == self.rcv_nxt {
            self.buf.extend_from_slice(payload);
            self.rcv_nxt += payload.len();
            // `done` stops every later read of `buf`.
            self.done = seg.flags & flags::FIN != 0;
            complete = self.done;
        }
        let ack = Segment {
            flags: flags::ACK,
            conn: seg.conn,
            seq: 0,
            ack: self.rcv_nxt as u32,
            payload: (),
        };
        (ack, complete.then_some(&mut self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn image(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 % 251) as u8).collect()
    }

    /// What `tx` sends at `now`.
    fn sent(tx: &mut SnapSender, now: SimTime) -> Vec<Segment<Chunk>> {
        tx.tick(now).collect()
    }

    /// Lossless in-order delivery completes in one window pass.
    #[test]
    fn transfer_completes_without_loss() {
        let data = image(4000);
        let mut tx = SnapSender::new(1, data.clone());
        let mut rx = SnapReceiver::new();
        let segs = sent(&mut tx, t(0));
        assert_eq!(segs.len(), 3, "4000 bytes / MSS 1460 = 3 segments");
        assert!(segs[2].flags & flags::FIN != 0);
        for seg in &segs {
            let (ack, complete) = rx.on_segment(seg);
            if let Some(img) = complete {
                assert_eq!(*img, data);
            }
            tx.on_ack(t(1), &ack);
        }
        assert!(tx.is_done());
        assert!(sent(&mut tx, t(2)).is_empty());
        assert_eq!(tx.retransmissions, 0);
    }

    /// A dropped middle segment: later segments are discarded out of
    /// order, dup-ACKs trigger one fast go-back-N, the image completes.
    #[test]
    fn fast_retransmit_recovers_a_dropped_segment() {
        let data = image(4000);
        let mut tx = SnapSender::new(2, data.clone());
        let mut rx = SnapReceiver::new();
        let segs = sent(&mut tx, t(0));
        let mut acks = Vec::new();
        for (i, seg) in segs.iter().enumerate() {
            if i == 1 {
                continue; // drop segment 1
            }
            acks.push(rx.on_segment(seg).0);
        }
        for ack in &acks {
            tx.on_ack(t(1), ack);
        }
        // 1 fresh ACK (seg 0) + 1 dup: not yet at the dup-ACK threshold.
        assert!(sent(&mut tx, t(2)).is_empty());
        tx.on_ack(t(2), &acks[1].clone());
        tx.on_ack(t(2), &acks[1].clone());
        let resent = sent(&mut tx, t(3));
        assert_eq!(tx.retransmissions, 1);
        assert_eq!(resent[0].seq as usize, MSS, "go back to the hole");
        let mut img = None;
        for seg in &resent {
            let (ack, complete) = rx.on_segment(seg);
            img = img.or(complete.cloned());
            tx.on_ack(t(4), &ack);
        }
        assert_eq!(img, Some(data));
        assert!(tx.is_done());
    }

    /// Everything dropped: RTO fires, backoff doubles, the retransmitted
    /// window completes the transfer after the outage.
    #[test]
    fn rto_recovers_after_total_outage() {
        let data = image(2000);
        let mut tx = SnapSender::new(3, data.clone());
        let mut rx = SnapReceiver::new();
        let first = sent(&mut tx, t(0));
        assert_eq!(first.len(), 2);
        // Outage: nothing arrives. First RTO at +200ms, second at +600ms.
        assert!(sent(&mut tx, t(100)).is_empty());
        let retx1 = sent(&mut tx, t(200));
        assert_eq!(retx1.len(), 2);
        assert_eq!(retx1[0].seq, 0);
        let retx2 = sent(&mut tx, t(600));
        assert_eq!(retx2.len(), 2, "backoff doubled to 400ms");
        assert_eq!(tx.retransmissions, 2);
        let mut img = None;
        for seg in &retx2 {
            let (ack, complete) = rx.on_segment(seg);
            img = img.or(complete.cloned());
            tx.on_ack(t(601), &ack);
        }
        assert_eq!(img, Some(data));
        assert!(tx.is_done());
    }

    /// The receiver lends its buffer out on `FIN`: a retransmitted `FIN`
    /// after completion still acks the whole image and completes
    /// nothing, and the next connection starts from an empty buffer.
    #[test]
    fn retransmitted_fin_after_completion_acks_and_returns_nothing() {
        let data = image(3000);
        let mut tx = SnapSender::new(4, data.clone());
        let mut rx = SnapReceiver::new();
        let segs = sent(&mut tx, t(0));
        let mut img = None;
        for seg in &segs {
            img = img.or(rx.on_segment(seg).1.cloned());
        }
        assert_eq!(img, Some(data));
        let fin = segs.last().expect("the image has a last segment");
        assert!(fin.flags & flags::FIN != 0);
        let (ack, complete) = rx.on_segment(fin);
        assert_eq!(ack.ack, 3000);
        assert_eq!(complete, None);
        let short = image(100);
        let segs = sent(&mut SnapSender::new(5, short.clone()), t(10));
        let (ack, complete) = rx.on_segment(&segs[0]);
        assert_eq!(ack.ack, 100);
        assert_eq!(complete.cloned(), Some(short));
    }

    /// `next_due` never trails what `tick` would do: immediately while
    /// there is something to send, the RTO deadline while the window is
    /// in flight, nothing once the image is acknowledged.
    #[test]
    fn next_due_is_now_then_the_rto_deadline_then_nothing() {
        let mut tx = SnapSender::new(6, image(2000));
        assert_eq!(tx.next_due(), Some(SimTime::ZERO), "unsent data");
        let segs = sent(&mut tx, t(5));
        assert_eq!(tx.next_due(), Some(t(5) + RTO_BASE));
        assert!(sent(&mut tx, t(204)).is_empty(), "not before the deadline");
        assert_eq!(sent(&mut tx, t(205)).len(), 2, "at the deadline");
        assert_eq!(tx.next_due(), Some(t(205) + RTO_BASE * 2));
        let mut rx = SnapReceiver::new();
        let ack = rx.on_segment(&segs[0]).0;
        tx.on_ack(t(206), &ack);
        assert_eq!(tx.next_due(), Some(t(206) + RTO_BASE), "fresh progress");
        for _ in 0..3 {
            tx.on_ack(t(207), &ack);
        }
        assert_eq!(tx.next_due(), Some(SimTime::ZERO), "fast retransmit owed");
        let resent = sent(&mut tx, t(207));
        let ack = rx.on_segment(&resent[0]).0;
        tx.on_ack(t(208), &ack);
        assert!(tx.is_done());
        assert_eq!(tx.next_due(), None);
    }

    /// A sender's next image goes into the buffer of its last one once no
    /// segment shares it; a segment still in flight keeps the bytes it
    /// was sent with, and the new image goes into a copy.
    #[test]
    fn a_restart_reuses_the_image_buffer_and_spares_a_segment_in_flight() {
        let first = image(3000);
        let mut tx = SnapSender::new(1, first.clone());
        let at = tx.data.as_ptr();
        let mut rx = SnapReceiver::new();
        for seg in sent(&mut tx, t(0)) {
            tx.on_ack(t(1), &rx.on_segment(&seg).0);
        }
        assert!(tx.is_done());
        tx.restart(2, |buf| {
            buf.clear();
            buf.extend_from_slice(&image(2000));
        });
        assert_eq!(tx.data.as_ptr(), at, "written in place");
        let in_flight = sent(&mut tx, t(2));
        assert_eq!(tx.conn, 2);
        assert_eq!(in_flight[0].payload.as_ref(), &image(2000)[..MSS]);
        tx.restart(3, |buf| buf.fill(0xEE));
        assert_ne!(tx.data.as_ptr(), at, "a copy, while segments share it");
        assert_eq!(in_flight[0].payload.as_ref(), &image(2000)[..MSS]);
        let mut img = None;
        for seg in sent(&mut tx, t(3)) {
            img = img.or(rx.on_segment(&seg).1.cloned());
        }
        assert_eq!(img, Some(vec![0xEE; 2000]));
    }

    /// A receiver reassembles the next image into the buffer its caller
    /// swapped in for the last one.
    #[test]
    fn a_receiver_reassembles_into_the_buffer_swapped_in() {
        let mut rx = SnapReceiver::new();
        let mut held = Vec::with_capacity(4000);
        let spare = held.as_ptr();
        for (conn, len) in [(1, 3000), (2, 2500)] {
            let data = image(len);
            let mut img = None;
            for seg in sent(&mut SnapSender::new(conn, data.clone()), t(0)) {
                if let Some(buf) = rx.on_segment(&seg).1 {
                    std::mem::swap(&mut held, buf);
                    img = Some(held.as_ptr());
                }
            }
            assert_eq!(held, data);
            if conn == 2 {
                assert_eq!(img, Some(spare), "the first swap's buffer, reused");
            }
        }
    }

    /// An abandoned transfer is done: it sends nothing, owes no wake and
    /// ignores a late ACK; the default sender is one.
    #[test]
    fn an_abandoned_sender_is_done() {
        let mut tx = SnapSender::new(9, image(2000));
        let segs = sent(&mut tx, t(0));
        tx.abandon();
        assert!(tx.is_done());
        assert_eq!(tx.next_due(), None);
        assert!(sent(&mut tx, t(500)).is_empty());
        let ack = SnapReceiver::new().on_segment(&segs[0]).0;
        tx.on_ack(t(501), &ack);
        assert!(tx.is_done() && tx.next_due().is_none());
        let idle = SnapSender::default();
        assert!(idle.is_done() && idle.next_due().is_none());
    }

    /// A new conn id resets the receiver even when the previous image
    /// never completed.
    #[test]
    fn new_conn_resets_receiver() {
        let mut rx = SnapReceiver::new();
        let mut tx1 = SnapSender::new(7, image(3000));
        let segs = sent(&mut tx1, t(0));
        let _ = rx.on_segment(&segs[0]); // partial image, then sender dies
        let short = image(100);
        let mut tx2 = SnapSender::new(8, short.clone());
        let segs = sent(&mut tx2, t(10));
        let (ack, complete) = rx.on_segment(&segs[0]);
        assert_eq!(complete.cloned(), Some(short));
        assert_eq!(ack.ack, 100);
    }
}
