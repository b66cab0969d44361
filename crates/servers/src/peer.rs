//! The remote peer: the "Internet server" `wget` downloads from (Fig. 7).
//!
//! Implements the server side of the [`crate::netproto`] transport with a
//! go-back-N window, paced transmission at the uplink rate, and
//! an exponentially backed-off retransmission timeout. While the host's
//! Ethernet driver is dead, segments go unacknowledged and the peer backs
//! off; once the restarted driver is reintegrated, the retransmitted
//! window flows again — no byte is ever lost end-to-end.

use std::any::Any;
use std::collections::BTreeMap;

use phoenix_hw::bus::{PeerCtx, RemotePeer};
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::netproto::{flags, stream_extend, Segment, HEADER, MSS};

/// Payload pacing rate in bytes/second (the peer's uplink).
const RATE: u64 = 11_000_000;
/// Initial retransmission timeout.
const RTO: SimDuration = SimDuration::from_millis(300);
/// Maximum RTO after backoff.
const RTO_MAX: SimDuration = SimDuration::from_secs(3);
/// Send window in segments.
const WINDOW: usize = 64;

#[derive(Debug)]
struct PeerConn {
    // Receive side (for the request).
    rcv_nxt: u32,
    // Send side.
    serving: Option<(u64, u64)>, // (seed, total bytes)
    snd_una: u32,
    snd_nxt: u32,
    fin_acked: bool,
    rto: SimDuration,
    timer_epoch: u32,
    timer_armed: bool,
    /// Consecutive duplicate ACKs at `snd_una` — three trigger a fast
    /// retransmit, so one dropped segment does not cost a full RTO.
    dup_acks: u32,
}

/// The remote file-serving peer; `default()` is one with no connection
/// open.
#[derive(Default)]
pub struct FilePeer {
    conns: BTreeMap<u16, PeerConn>,
    tx_clock: SimTime,
    retransmissions: u64,
    dgrams_echoed: u64,
}

impl FilePeer {
    /// Total segment retransmissions performed (a measure of how much the
    /// driver outages cost end-to-end).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Datagrams echoed (UDP-path liveness indicator).
    pub fn dgrams_echoed(&self) -> u64 {
        self.dgrams_echoed
    }

    /// Paced transmit: frames leave at most at [`RATE`] payload bytes per
    /// second; `tx_clock` is when the uplink is next free.
    fn paced_send(tx_clock: &mut SimTime, ctx: &mut PeerCtx<'_, '_>, frame: Vec<u8>) {
        let now = ctx.now();
        *tx_clock = (*tx_clock).max(now);
        let delay = tx_clock.since(now);
        let payload_len = frame.len() - HEADER;
        *tx_clock += SimDuration::for_transfer(payload_len.max(64) as u64, RATE);
        ctx.send_to_host_after(delay, frame);
    }

    fn token(conn: u16, epoch: u32) -> u64 {
        (u64::from(conn) << 32) | u64::from(epoch)
    }

    fn arm_timer(&mut self, ctx: &mut PeerCtx<'_, '_>, conn_id: u16) {
        let now = ctx.now();
        let backlog = self.tx_clock.since(now);
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        conn.timer_epoch += 1;
        conn.timer_armed = true;
        let delay = backlog + conn.rto;
        let tok = Self::token(conn_id, conn.timer_epoch);
        ctx.set_timer_after(delay, tok);
    }

    /// Sends (or resends) everything from `snd_una` up to the window,
    /// each segment's content written straight into its frame.
    fn fill_window(&mut self, ctx: &mut PeerCtx<'_, '_>, conn_id: u16, from_una: bool) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let Some((seed, total)) = conn.serving else {
            return;
        };
        if from_una {
            conn.snd_nxt = conn.snd_una;
        }
        let window_end = conn.snd_una as u64 + (WINDOW * MSS) as u64;
        while u64::from(conn.snd_nxt) < total && u64::from(conn.snd_nxt) < window_end {
            let off = u64::from(conn.snd_nxt);
            let len = (total - off).min(MSS as u64) as usize;
            let head = Segment {
                flags: flags::DATA | flags::ACK,
                conn: conn_id,
                seq: conn.snd_nxt,
                ack: conn.rcv_nxt,
                payload: (),
            };
            let frame = head.encode_with(ctx.lend_buf(), len, |out| {
                stream_extend(seed, off, len, out);
            });
            Self::paced_send(&mut self.tx_clock, ctx, frame);
            conn.snd_nxt += len as u32;
        }
        if u64::from(conn.snd_una) >= total && !conn.fin_acked {
            let fin = Segment {
                flags: flags::FIN | flags::ACK,
                conn: conn_id,
                seq: total as u32,
                ack: conn.rcv_nxt,
                payload: (),
            };
            let frame = fin.encode_with(ctx.lend_buf(), 0, |_| {});
            Self::paced_send(&mut self.tx_clock, ctx, frame);
        }
        if !conn.fin_acked {
            self.arm_timer(ctx, conn_id);
        }
    }
}

impl RemotePeer for FilePeer {
    // analyze:recovery-root
    fn frame_from_host(&mut self, ctx: &mut PeerCtx<'_, '_>, frame: &[u8]) {
        let Some(seg) = Segment::parse(frame) else {
            return;
        };
        if seg.flags & flags::DGRAM != 0 {
            // UDP analogue: echo the datagram back immediately.
            self.dgrams_echoed += 1;
            let echo = Segment {
                flags: flags::DGRAM,
                conn: seg.conn,
                seq: seg.seq,
                ack: 0,
                payload: seg.payload,
            };
            let frame = echo.encode_into(ctx.lend_buf());
            ctx.send_to_host(frame);
            return;
        }
        if seg.flags & flags::SYN != 0 {
            // Passive open. A SYN always starts (or restarts) the session
            // for this id: the host sends nothing else on a session until
            // its SYN is answered, and delivery is in order, so an id
            // reused after a close must not resurrect the predecessor's
            // state. Retransmitted SYNs of the current session reset
            // nothing of consequence — no request can have preceded them.
            // The timer epoch carries over so alarms armed for the old
            // session stay dead.
            let epoch = self.conns.get(&seg.conn).map_or(0, |c| c.timer_epoch);
            self.conns.insert(
                seg.conn,
                PeerConn {
                    rcv_nxt: 0,
                    serving: None,
                    snd_una: 0,
                    snd_nxt: 0,
                    fin_acked: false,
                    rto: RTO,
                    timer_epoch: epoch,
                    timer_armed: false,
                    dup_acks: 0,
                },
            );
            let synack = Segment {
                flags: flags::SYN | flags::ACK,
                conn: seg.conn,
                seq: 0,
                ack: 0,
                payload: Vec::new(),
            };
            let frame = synack.encode_into(ctx.lend_buf());
            ctx.send_to_host(frame);
            return;
        }
        let conn_id = seg.conn;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if seg.flags & flags::DATA != 0 {
            if seg.seq == conn.rcv_nxt {
                conn.rcv_nxt += seg.payload.len() as u32;
                // The only request we understand: "GET <bytes> <seed>".
                let req = String::from_utf8_lossy(seg.payload);
                let mut parts = req.split_whitespace();
                if parts.next() == Some("GET") {
                    let size: Option<u64> = parts.next().and_then(|s| s.parse().ok());
                    let seed: Option<u64> = parts.next().and_then(|s| s.parse().ok());
                    if let (Some(size), Some(seed)) = (size, seed) {
                        assert!(size < u64::from(u32::MAX), "stream exceeds sequence space");
                        conn.serving = Some((seed, size));
                        conn.snd_una = 0;
                        conn.snd_nxt = 0;
                    }
                }
            }
            // Pure ACK for the request bytes.
            let ack = Segment {
                flags: flags::ACK,
                conn: conn_id,
                seq: 0,
                ack: conn.rcv_nxt,
                payload: Vec::new(),
            };
            let frame = ack.encode_into(ctx.lend_buf());
            ctx.send_to_host(frame);
            self.fill_window(ctx, conn_id, false);
            return;
        }
        if seg.flags & flags::ACK != 0 {
            let Some((_, total)) = conn.serving else {
                return;
            };
            let fin_seq = total as u32;
            if seg.ack > conn.snd_una {
                conn.snd_una = seg.ack.min(fin_seq.wrapping_add(1));
                conn.rto = RTO; // fresh progress resets backoff
                conn.dup_acks = 0;
                if seg.ack > fin_seq {
                    // Session complete: drop the state so the id can be
                    // reused by a later connection (the host recycles
                    // ids; a fresh SYN rebuilds the slot).
                    self.conns.remove(&conn_id);
                    return;
                }
                self.fill_window(ctx, conn_id, false);
            } else if seg.ack == conn.snd_una && conn.snd_nxt > conn.snd_una && !conn.fin_acked {
                // Fast retransmit: three duplicate ACKs mean a segment was
                // lost but later ones arrived — go back to snd_una now
                // instead of burning a full RTO. Fire at most once per
                // stall (counter keeps climbing past 3 without
                // re-triggering), or each retransmitted window's own dup
                // ACKs would spawn another full go-back-N — a storm.
                conn.dup_acks += 1;
                if conn.dup_acks == 3 {
                    self.retransmissions += 1;
                    self.fill_window(ctx, conn_id, true);
                }
            }
        }
    }

    // analyze:recovery-root
    fn timer(&mut self, ctx: &mut PeerCtx<'_, '_>, token: u64) {
        let conn_id = (token >> 32) as u16;
        let epoch = (token & 0xFFFF_FFFF) as u32;
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if !conn.timer_armed || conn.timer_epoch != epoch || conn.fin_acked {
            return;
        }
        // Retransmission timeout: go back to snd_una, double the RTO.
        conn.rto = (conn.rto * 2).min(RTO_MAX);
        self.retransmissions += 1;
        self.fill_window(ctx, conn_id, true);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_hw::bus::wire_to_host_channel;
    use phoenix_kernel::memory::MemoryPool;
    use phoenix_kernel::platform::{HwCtx, HwSideEffect};
    use phoenix_kernel::types::DeviceId;
    use phoenix_simcore::rng::SimRng;

    const DEV: DeviceId = DeviceId(9);
    const LATENCY: SimDuration = SimDuration::from_micros(200);

    /// Splits side effects into (frames towards the host, peer timer
    /// tokens) — the two external channels a peer can emit on.
    fn split_fx(fx: &[HwSideEffect]) -> (Vec<Vec<u8>>, Vec<u64>) {
        let mut frames = Vec::new();
        let mut timers = Vec::new();
        for e in fx {
            if let HwSideEffect::External {
                channel, payload, ..
            } = e
            {
                if *channel == wire_to_host_channel(DEV) {
                    frames.push(payload.clone());
                } else {
                    timers.push(u64::from_le_bytes(payload.clone().try_into().unwrap()));
                }
            }
        }
        (frames, timers)
    }

    fn feed(
        peer: &mut FilePeer,
        at: SimTime,
        loss_to_host: f64,
        cut_to_host: bool,
        seg: &Segment,
    ) -> (Vec<Vec<u8>>, Vec<u64>) {
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        {
            let mut hw = HwCtx::new(at, &mut mem, &mut rng, &mut fx);
            let mut ctx = PeerCtx::new(DEV, LATENCY, loss_to_host, cut_to_host, &mut hw);
            peer.frame_from_host(&mut ctx, &seg.encode());
        }
        split_fx(&fx)
    }

    fn fire_timer(
        peer: &mut FilePeer,
        at: SimTime,
        loss_to_host: f64,
        token: u64,
    ) -> (Vec<Vec<u8>>, Vec<u64>) {
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        {
            let mut hw = HwCtx::new(at, &mut mem, &mut rng, &mut fx);
            let mut ctx = PeerCtx::new(DEV, LATENCY, loss_to_host, false, &mut hw);
            peer.timer(&mut ctx, token);
        }
        split_fx(&fx)
    }

    /// One-way loss (peer→host fully lost, host→peer intact): the peer
    /// still receives and parses requests, its replies vanish, and once
    /// the direction heals the backed-off RTO retransmits the whole
    /// window — no byte is lost end-to-end.
    #[test]
    fn one_way_loss_to_host_recovers_via_rto_after_heal() {
        let mut peer = FilePeer::default();
        let syn = Segment {
            flags: flags::SYN,
            conn: 1,
            seq: 0,
            ack: 0,
            payload: Vec::new(),
        };
        let (frames, _) = feed(&mut peer, SimTime::ZERO, 1.0, false, &syn);
        assert!(frames.is_empty(), "SYN-ACK must be lost on the broken leg");

        // The request still arrives: loss is asymmetric.
        let get = Segment {
            flags: flags::DATA,
            conn: 1,
            seq: 0,
            ack: 0,
            payload: b"GET 4000 5".to_vec(),
        };
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        let (frames, timers) = feed(&mut peer, at, 1.0, false, &get);
        assert!(frames.is_empty(), "data segments lost towards the host");
        assert_eq!(timers.len(), 1, "an RTO must be armed for the window");
        assert_eq!(peer.retransmissions(), 0);

        // Heal the direction, fire the RTO: the full go-back-N window
        // (3 segments of a 4000-byte stream) flows to the host.
        let later = at + SimDuration::from_secs(1);
        let (frames, timers) = fire_timer(&mut peer, later, 0.0, timers[0]);
        assert_eq!(peer.retransmissions(), 1);
        assert_eq!(frames.len(), 3, "whole window retransmitted after heal");
        assert_eq!(timers.len(), 1, "window re-arms its next RTO");
        let first = Segment::parse(&frames[0]).expect("valid segment");
        assert_eq!(first.seq, 0, "go-back-N restarts from snd_una");
        assert_eq!(first.payload.len(), MSS);
    }

    /// A hard one-way partition behaves like loss-probability 1.0: the
    /// cut leg drops everything, and the peer's state still advances.
    #[test]
    fn one_way_partition_cut_drops_replies_but_state_advances() {
        let mut peer = FilePeer::default();
        let dgram = Segment::dgram(3, 42, b"ping".to_vec());
        let (frames, _) = feed(&mut peer, SimTime::ZERO, 0.0, true, &dgram);
        assert!(frames.is_empty(), "echo dropped by the cut");
        assert_eq!(peer.dgrams_echoed(), 1, "peer still processed the ping");
    }
}
