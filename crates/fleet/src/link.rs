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

use std::array;
use std::iter::Flatten;

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
pub type Flight = Flatten<array::IntoIter<Option<Segment>, WINDOW>>;

/// Go-back-N sender for one snapshot image.
#[derive(Debug)]
pub struct SnapSender {
    conn: u16,
    data: Vec<u8>,
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

    /// Whether the whole image has been acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
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
    pub fn on_ack(&mut self, now: SimTime, seg: &Segment) {
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
        let mut flight: [Option<Segment>; WINDOW] = Default::default();
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
                payload: self.data[self.snd_nxt..end].to_vec(),
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

    /// Processes one data segment; returns the cumulative ACK to send
    /// back and, once the `FIN` segment completes the image, the
    /// reassembled bytes.
    pub fn on_segment(&mut self, seg: &Segment) -> (Segment, Option<Vec<u8>>) {
        if self.conn != Some(seg.conn) {
            // New transfer on this link: reset reassembly.
            self.conn = Some(seg.conn);
            self.rcv_nxt = 0;
            self.buf.clear();
            self.done = false;
        }
        let mut complete = None;
        if seg.flags & flags::DATA != 0 && !self.done && seg.seq as usize == self.rcv_nxt {
            self.buf.extend_from_slice(&seg.payload);
            self.rcv_nxt += seg.payload.len();
            if seg.flags & flags::FIN != 0 {
                self.done = true;
                // `done` stops every later read of `buf`: hand it out.
                complete = Some(std::mem::take(&mut self.buf));
            }
        }
        let ack = Segment {
            flags: flags::ACK,
            conn: seg.conn,
            seq: 0,
            ack: self.rcv_nxt as u32,
            payload: Vec::new(),
        };
        (ack, complete)
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
    fn sent(tx: &mut SnapSender, now: SimTime) -> Vec<Segment> {
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
                assert_eq!(img, data);
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
            img = img.or(complete);
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
            img = img.or(complete);
            tx.on_ack(t(601), &ack);
        }
        assert_eq!(img, Some(data));
        assert!(tx.is_done());
    }

    /// The receiver hands its buffer out on `FIN`: a retransmitted `FIN`
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
            img = img.or(rx.on_segment(seg).1);
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
        assert_eq!(complete, Some(short));
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
        assert_eq!(complete, Some(short));
        assert_eq!(ack.ack, 100);
    }
}
