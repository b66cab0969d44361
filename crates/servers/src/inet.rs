//! The network server (INET) with transparent Ethernet-driver recovery
//! (§6.1).
//!
//! INET subscribes to `eth.*` in the data store. Whenever a matching
//! record changes — first start or recovery — INET reinitializes the
//! driver (promiscuous mode, resume I/O), "closely mimicking the steps
//! that are taken when the driver is first started". Reliable streams ride
//! out the outage through retransmission; unreliable datagrams are lost,
//! to be recovered at the application layer if need be (Fig. 4).

use std::collections::BTreeSet;

use phoenix_drivers::proto::eth;
use phoenix_kernel::process::ProcEvent;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, Message};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};
use phoenix_simcore::wire::{Len, Reader, Writer};

use crate::libserver::{DsUpdate, Names, ServerLogic, Shell};
use crate::netproto::{flags, Segment};
use crate::proto::{evidence, sock};

const RTO: SimDuration = SimDuration::from_millis(300);
const RTO_MAX: SimDuration = SimDuration::from_secs(3);

/// Garbled frames per complaint: the wire itself loses/corrupts frames,
/// so INET first retransmits quietly; only a *sustained* stream of
/// undecodable frames escalates to a (low-confidence) RS complaint.
// analyze:recovery
const GARBLE_COMPLAINT_THRESHOLD: u64 = 8;

/// Consecutive wrong-type WRITE replies before a complaint. The chaos
/// fabric corrupts reply headers too, so one bad type proves nothing; a
/// *streak* cannot plausibly be the wire (independent ~0.1% flips), only
/// a driver stuck answering garbage.
// analyze:recovery
const BAD_REPLY_COMPLAINT_THRESHOLD: u64 = 3;

/// How long INET waits for an `eth::INIT` reply before re-sending it — a
/// lost or corrupted INIT exchange must not leave the driver unused
/// forever.
// analyze:recovery
const INIT_RETRY: SimDuration = SimDuration::from_millis(100);

#[derive(Debug)]
struct Conn {
    app: Endpoint,
    connect_call: Option<CallId>,
    established: bool,
    closed: bool,
    rcv_nxt: u32,
    /// Outgoing bytes not yet acknowledged (client requests are small).
    snd_buf: Vec<u8>,
    /// Sequence number of `snd_buf[0]`.
    snd_base: u32,
    rto: SimDuration,
    timer_epoch: u32,
}

/// INET's externalised state (crash-only contract): the connection slab
/// and the datagram binding, checkpointed after every change and
/// rehydrated by a restarted incarnation.
#[derive(Debug)]
pub struct Session {
    /// Flat per-connection slab indexed by connection id. Slot 0 is
    /// permanently reserved — the INIT retry alarm shares the timer-token
    /// space under conn id 0 — and closed slots return to `free_conns`
    /// for reuse: at 10⁴⁺-session load the old monotonic 16-bit ids
    /// would exhaust within a single campaign.
    conns: Vec<Option<Conn>>,
    dgram_app: Option<Endpoint>,
}

impl Session {
    fn conn(&self, id: u16) -> Option<&Conn> {
        self.conns.get(usize::from(id)).and_then(Option::as_ref)
    }

    fn conn_mut(&mut self, id: u16) -> Option<&mut Conn> {
        self.conns.get_mut(usize::from(id)).and_then(Option::as_mut)
    }

    /// Occupied slots, ascending by connection id.
    fn live(&self) -> impl Iterator<Item = (u16, &Conn)> {
        let slots = self.conns.iter().enumerate();
        slots.filter_map(|(i, c)| Some((u16::try_from(i).ok()?, c.as_ref()?)))
    }

    fn conn_ids(&self) -> Vec<u16> {
        self.live().map(|(id, _)| id).collect()
    }

    /// Serialises the slab high-water mark, the datagram binding and each
    /// live connection's transport state (layout: DESIGN §5e, "what is on
    /// the wire"). Timers, in-flight connect calls and the free list are
    /// per-incarnation and rebuilt, not externalised.
    // analyze:recovery
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(u32::try_from(self.conns.len()).unwrap_or(u32::MAX));
        Endpoint::put_opt(self.dgram_app, &mut w);
        let live: Vec<(u16, &Conn)> = self.live().collect();
        w.seq(Len::U16, live.into_iter(), |w, (id, c)| {
            w.u16(id);
            c.app.put(w);
            w.u8(u8::from(c.established) | (u8::from(c.closed) << 1));
            w.u32(c.rcv_nxt);
            w.u32(c.snd_base);
            w.bytes(Len::U32, &c.snd_buf);
        });
        w.into_bytes()
    }
}

/// The network server's logic; run it as `Server<Inet>`.
pub struct Inet {
    rs: Endpoint,
    driver_key: String,
    driver: Option<Endpoint>,
    driver_ready: bool,
    /// Undecodable frames since the last complaint (or driver restart).
    garbled_streak: u64,
    /// Consecutive wrong-type WRITE replies (reset by any good reply,
    /// a complaint, or a driver restart).
    bad_reply_streak: u64,
    init_call: Option<CallId>,
    /// Bumped on every INIT send and on success, so only the newest retry
    /// alarm may re-send (stale alarms are ignored).
    init_epoch: u32,
    eth_calls: BTreeSet<CallId>,
    session: Session,
    /// Recycled connection ids, each with the timer epoch it retired at,
    /// so a reused slot keeps its epoch monotone and alarms armed before
    /// the close can never fire into the successor session.
    free_conns: Vec<(u16, u32)>,
    /// Recovery episode behind the driver update currently being
    /// reintegrated (from the DS CHECK reply), used to tag our own
    /// reinit/resume trace events with the causing episode.
    recovery: Option<RecoveryId>,
    recovery_parent: Option<SpanId>,
}

impl Inet {
    /// Creates INET bound to the Ethernet driver published under
    /// `driver_key` (e.g. `"eth.rtl8139"`); `rs` receives its complaints.
    pub fn new(rs: Endpoint, driver_key: &str) -> Self {
        Inet {
            rs,
            driver_key: driver_key.to_string(),
            driver: None,
            driver_ready: false,
            garbled_streak: 0,
            bad_reply_streak: 0,
            init_call: None,
            init_epoch: 0,
            eth_calls: BTreeSet::new(),
            session: Session {
                conns: vec![None],
                dgram_app: None,
            },
            free_conns: Vec::new(),
            recovery: None,
            recovery_parent: None,
        }
    }

    // ---------------- connection slab ----------------

    /// Places a connection in the slab, preferring a recycled id (which
    /// inherits the retired slot's timer epoch). Returns `None` when the
    /// 16-bit id space is fully live.
    fn alloc_conn(&mut self, mut conn: Conn) -> Option<u16> {
        if let Some((id, epoch)) = self.free_conns.pop() {
            conn.timer_epoch = epoch;
            self.session.conns[usize::from(id)] = Some(conn);
            return Some(id);
        }
        if self.session.conns.len() > usize::from(u16::MAX) {
            return None;
        }
        let id = self.session.conns.len() as u16;
        self.session.conns.push(Some(conn));
        Some(id)
    }

    /// Releases a connection id back to the free list.
    fn free_conn(&mut self, id: u16) {
        if id == 0 {
            return;
        }
        if let Some(slot) = self.session.conns.get_mut(usize::from(id)) {
            if let Some(conn) = slot.take() {
                self.free_conns.push((id, conn.timer_epoch));
            }
        }
    }

    /// Sends a frame through the Ethernet driver. Failures flip
    /// `driver_ready`; the transport's retransmissions make up for the
    /// loss once the driver is back (§6.1: "the request fails and is
    /// postponed until the driver is back").
    fn eth_write(&mut self, ctx: &mut Ctx<'_>, frame: Vec<u8>) {
        if !self.driver_ready {
            return;
        }
        let Some(driver) = self.driver else { return };
        match ctx.sendrec(driver, Message::new(eth::WRITE).with_data(frame)) {
            Ok(call) => {
                self.eth_calls.insert(call);
            }
            Err(_) => {
                self.driver_ready = false;
                ctx.metrics().incr("inet.postponed_writes");
            }
        }
    }

    fn send_segment(&mut self, ctx: &mut Ctx<'_>, seg: Segment<impl AsRef<[u8]>>) {
        self.eth_write(ctx, seg.encode());
    }

    fn token(conn: u16, epoch: u32) -> u64 {
        (u64::from(conn) << 32) | u64::from(epoch)
    }

    fn arm_timer(&mut self, ctx: &mut Ctx<'_>, conn_id: u16) {
        let Some(conn) = self.session.conn_mut(conn_id) else {
            return;
        };
        conn.timer_epoch += 1;
        let tok = Self::token(conn_id, conn.timer_epoch);
        let delay = conn.rto;
        let _ = ctx.set_alarm(delay, tok);
    }

    fn send_syn(&mut self, ctx: &mut Ctx<'_>, conn_id: u16) {
        self.send_segment(
            ctx,
            Segment {
                flags: flags::SYN,
                conn: conn_id,
                seq: 0,
                ack: 0,
                payload: Vec::new(),
            },
        );
        self.arm_timer(ctx, conn_id);
    }

    /// (Re)transmits all unacknowledged outgoing bytes of a connection.
    fn send_unacked(&mut self, ctx: &mut Ctx<'_>, conn_id: u16) {
        let Some(conn) = self.session.conn_mut(conn_id) else {
            return;
        };
        if conn.snd_buf.is_empty() {
            return;
        }
        let seg = Segment {
            flags: flags::DATA,
            conn: conn_id,
            seq: conn.snd_base,
            ack: conn.rcv_nxt,
            payload: conn.snd_buf.as_slice(),
        };
        let frame = seg.encode();
        self.eth_write(ctx, frame);
        self.arm_timer(ctx, conn_id);
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, conn_id: u16) {
        let Some(conn) = self.session.conn(conn_id) else {
            return;
        };
        let seg = Segment {
            flags: flags::ACK,
            conn: conn_id,
            seq: 0,
            ack: conn.rcv_nxt,
            payload: Vec::new(),
        };
        self.send_segment(ctx, seg);
    }

    fn on_driver_published(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        // analyze:recovery
        let recovered = self.driver.is_some_and(|old| old != ep);
        self.driver = Some(ep);
        self.driver_ready = false;
        // The new incarnation starts with a clean slate.
        // analyze:recovery
        self.garbled_streak = 0;
        // analyze:recovery
        self.bad_reply_streak = 0;
        // analyze:recovery
        if recovered {
            ctx.metrics().incr("inet.driver_reintegrations");
            let ev = ctx
                .event(
                    TraceLevel::Info,
                    format!("ethernet driver recovered as {ep}; reinitializing"),
                )
                .with_field("ev", "reintegrate")
                .with_field("driver", self.driver_key.as_str())
                .in_recovery_opt(self.recovery)
                .with_parent_opt(self.recovery_parent);
            ctx.trace_event(ev);
        }
        // (Re)initialize: put the card in promiscuous mode and resume I/O
        // — the same steps as a first start (§6.1).
        self.send_init(ctx, ep);
    }

    /// Sends `eth::INIT` and arms a retry alarm: if the request or its
    /// reply is lost in the fabric, INET tries again rather than leaving
    /// the driver permanently unused.
    fn send_init(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        self.init_call = ctx.sendrec(ep, Message::new(eth::INIT)).ok();
        // analyze:recovery
        self.init_epoch += 1;
        // Connection ids start at 1, so conn 0 is free for the INIT timer.
        // analyze:recovery
        let _ = ctx.set_alarm(INIT_RETRY, Self::token(0, self.init_epoch));
    }

    /// A sustained streak of wrong-type WRITE replies — beyond what
    /// independent wire corruption can plausibly produce. Filed as
    /// `SUSPECT_REPLY`, low-confidence evidence that accumulates toward
    /// RS's quorum (§5.1): a driver that *keeps* answering with garbage
    /// gets replaced, a flipped bit on the wire does not flap it.
    // analyze:recovery
    fn complain_bad_reply(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        let trace = format!(
            "wrong-type reply to an ethernet WRITE from {}; complaining to RS",
            self.driver_key
        );
        let accused = (self.driver_key.as_str(), self.driver);
        sh.complain(ctx, self.rs, accused, evidence::SUSPECT_REPLY, trace);
    }

    /// A frame failed to decode. Dropping it is normal (the chaotic wire
    /// corrupts frames too), but a driver that *keeps* delivering garbage
    /// is babbling: once the streak reaches the threshold, escalate from
    /// silent retransmission to a low-confidence RS complaint and let
    /// arbitration decide.
    // analyze:recovery
    fn on_garbled(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        ctx.metrics().incr("inet.garbled_frames");
        self.garbled_streak += 1;
        if self.garbled_streak < GARBLE_COMPLAINT_THRESHOLD {
            return;
        }
        self.garbled_streak = 0;
        let trace = format!(
            "sustained garbled frames from {}; complaining to RS",
            self.driver_key
        );
        let accused = (self.driver_key.as_str(), self.driver);
        sh.complain(ctx, self.rs, accused, evidence::GARBLED_FRAMES, trace);
    }

    /// A frame the driver delivered; it becomes the payload handed on to
    /// the application, the header removed in place.
    fn on_frame(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, frame: Vec<u8>) {
        let Some(seg) = Segment::from_frame(frame) else {
            self.on_garbled(sh, ctx);
            return;
        };
        // analyze:recovery
        self.garbled_streak = 0;
        if seg.flags & flags::DGRAM != 0 {
            if let Some(app) = self.session.dgram_app {
                sh.push(
                    ctx,
                    app,
                    Message::new(sock::DGRAM_DATA).with_data(seg.payload),
                );
            }
            return;
        }
        let conn_id = seg.conn;
        if self.session.conn(conn_id).is_none() {
            if seg.flags & flags::FIN != 0 {
                // The slot was already released by an app-side CLOSE; ack
                // the peer's FIN retransmission so it stops resending
                // into the void.
                let ack = Segment {
                    flags: flags::ACK,
                    conn: conn_id,
                    seq: 0,
                    ack: seg.seq.wrapping_add(1),
                    payload: Vec::new(),
                };
                self.send_segment(ctx, ack);
            }
            return;
        }
        let Some(conn) = self.session.conn_mut(conn_id) else {
            return;
        };
        if seg.flags & flags::SYN != 0 && seg.flags & flags::ACK != 0 {
            let mut reply_call = None;
            if !conn.established {
                conn.established = true;
                conn.timer_epoch += 1; // disarm SYN retransmit
                reply_call = conn.connect_call.take();
                sh.gate.mark_dirty();
            }
            if let Some(call) = reply_call {
                let conn = u64::from(conn_id);
                let reply = sock::ConnectReply {
                    conn,
                    ..Default::default()
                };
                sh.reply(ctx, call, reply.into_message());
            }
            return;
        }
        if seg.flags & flags::ACK != 0 {
            let acked = seg.ack.saturating_sub(conn.snd_base) as usize;
            if acked > 0 && !conn.snd_buf.is_empty() {
                let n = acked.min(conn.snd_buf.len());
                conn.snd_buf.drain(..n);
                conn.snd_base += n as u32;
                conn.rto = RTO;
                conn.timer_epoch += 1; // disarm; re-armed if data remains
                let more = !conn.snd_buf.is_empty();
                sh.gate.mark_dirty();
                if more {
                    self.send_unacked(ctx, conn_id);
                    return;
                }
            }
        }
        let Some(conn) = self.session.conn_mut(conn_id) else {
            return;
        };
        if seg.flags & flags::DATA != 0 {
            if seg.seq == conn.rcv_nxt {
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                let app = conn.app;
                sh.gate.mark_dirty();
                ctx.metrics()
                    .add("inet.stream_bytes", seg.payload.len() as u64);
                let conn = u64::from(conn_id);
                let data = sock::Data { conn }.into_message();
                sh.push(ctx, app, data.with_data(seg.payload));
            } else {
                ctx.metrics().incr("inet.out_of_order");
            }
            self.send_ack(ctx, conn_id);
            return;
        }
        if seg.flags & flags::FIN != 0 {
            if seg.seq == conn.rcv_nxt && !conn.closed {
                conn.closed = true;
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
                let app = conn.app;
                sh.gate.mark_dirty();
                let conn = u64::from(conn_id);
                sh.push(ctx, app, sock::Closed { conn }.into_message());
            }
            self.send_ack(ctx, conn_id);
        }
    }
}

/// The socket acknowledgement of `status`.
fn ack(status: u64) -> Message {
    let ack = sock::Ack {
        status,
        driver_died: 0,
    };
    ack.into_message()
}

impl ServerLogic for Inet {
    const NAMES: Names = Names {
        server: "inet",
        state_key: "session",
        injected_crash: "inet.injected_crash",
        stalled_events: "inet.stalled_events",
        garbled_replies: "inet.garbled_replies",
        restore_garbage: "inet.session_restore_garbage",
    };

    // analyze:recovery
    type Saved = Session;

    // analyze:recovery
    fn encode(&self) -> Vec<u8> {
        self.session.encode()
    }

    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<Session> {
        let mut r = Reader::new(payload);
        let slab_len = usize::try_from(r.u32()?).ok()?;
        if slab_len == 0 || slab_len > usize::from(u16::MAX) + 1 {
            return None;
        }
        let dgram_app = Endpoint::get_opt(&mut r)?;
        let mut conns: Vec<Option<Conn>> = Vec::new();
        conns.resize_with(slab_len, || None);
        // Each connection goes straight into its slot; nothing to keep.
        let () = r.seq(Len::U16, |r| {
            let id = r.u16()?;
            let app = Endpoint::get(r)?;
            let bits = r.u8()?;
            let rcv_nxt = r.u32()?;
            let snd_base = r.u32()?;
            let snd_buf = r.bytes(Len::U32)?.to_vec();
            let slot = conns.get_mut(usize::from(id)).filter(|_| id != 0)?;
            *slot = Some(Conn {
                app,
                connect_call: None,
                established: bits & 1 != 0,
                closed: bits & 2 != 0,
                rcv_nxt,
                snd_buf,
                snd_base,
                rto: RTO,
                timer_epoch: 0,
            });
            Some(())
        })?;
        r.finish()?;
        Some(Session { conns, dgram_app })
    }

    /// Takes over the restored session and nudges retransmission for the
    /// rebuilt connections.
    // analyze:recovery
    fn adopt(&mut self, ctx: &mut Ctx<'_>, saved: Session) {
        self.session = Session {
            conns: saved.conns,
            dgram_app: saved.dgram_app.or(self.session.dgram_app),
        };
        // Rebuild the free list: every unoccupied slot below the restored
        // high-water mark is reusable, recycled smallest-id first.
        self.free_conns = (1..self.session.conns.len())
            .rev()
            .filter(|&i| self.session.conns[i].is_none())
            .map(|i| (i as u16, 0))
            .collect();
        ctx.metrics().incr("inet.session_restored");
        if self.driver_ready {
            for id in self.session.conn_ids() {
                let Some((needs_syn, needs_data)) = self
                    .session
                    .conn(id)
                    .map(|c| (!c.established && !c.closed, !c.snd_buf.is_empty()))
                else {
                    continue;
                };
                if needs_syn {
                    self.send_syn(ctx, id);
                } else if needs_data {
                    self.send_unacked(ctx, id);
                }
            }
        }
    }

    fn ds_update(&mut self, _sh: &mut Shell, ctx: &mut Ctx<'_>, (key, update): DsUpdate) {
        if key == self.driver_key {
            // analyze:recovery
            self.recovery = update.recovery;
            // analyze:recovery
            self.recovery_parent = update.span;
            self.on_driver_published(ctx, update.endpoint);
        }
    }

    fn event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            // §5.3: "the network server subscribes to updates about the
            // configuration of Ethernet drivers by registering the
            // expression 'eth.*'".
            ProcEvent::Start => sh.watch.subscribe(ctx, "eth.*"),
            ProcEvent::Message(msg) if matches!(eth::Msg::decode(&msg), Some(eth::Msg::RECV)) => {
                // A restarted incarnation drops frames that race its
                // session restore; the peer's retransmission covers them.
                // analyze:recovery
                if !sh.gate.ready() {
                    sh.gate.ensure_restore(ctx);
                    ctx.metrics().incr("inet.frames_dropped_prerestore");
                    return;
                }
                self.on_frame(sh, ctx, msg.data);
            }
            ProcEvent::Reply { call, result } => {
                if Some(call) == self.init_call {
                    self.init_call = None;
                    let init = result.as_ref().ok().and_then(eth::InitReply::from_message);
                    match init {
                        Some(init) if init.status == 0 => {
                            self.driver_ready = true;
                            // analyze:recovery
                            self.init_epoch += 1; // disarm the retry alarm
                            let ev = ctx
                                .event(TraceLevel::Info, "ethernet driver initialized".to_string())
                                .with_field("ev", "resume")
                                .with_field("driver", self.driver_key.as_str())
                                .in_recovery_opt(self.recovery.take())
                                .with_parent_opt(self.recovery_parent.take());
                            ctx.trace_event(ev);
                            // Nudge retransmission so streams resume
                            // promptly after reintegration.
                            // analyze:recovery
                            for id in self.session.conn_ids() {
                                let Some((needs_syn, needs_data)) = self
                                    .session
                                    .conn(id)
                                    .map(|c| (!c.established, !c.snd_buf.is_empty()))
                                else {
                                    continue;
                                };
                                if needs_syn {
                                    self.send_syn(ctx, id);
                                } else if needs_data {
                                    self.send_unacked(ctx, id);
                                }
                            }
                        }
                        _ => {
                            // Driver could not initialize the hardware;
                            // it will panic and RS will try again, or the
                            // policy gives up (§7.2 wedged-card case).
                            ctx.trace(
                                TraceLevel::Warn,
                                "ethernet driver failed to initialize".to_string(),
                            );
                        }
                    }
                    return;
                }
                if self.eth_calls.remove(&call) {
                    // analyze:recovery
                    match result {
                        Err(_) => {
                            // Rendezvous aborted: the driver died with
                            // our frame; transport retransmission will
                            // cover it.
                            self.driver_ready = false;
                            ctx.metrics().incr("inet.postponed_writes");
                        }
                        Ok(reply) if eth::WriteReply::from_message(&reply).is_none() => {
                            // Wrong-type reply to our WRITE. The chaos
                            // fabric flips reply headers too, so treat
                            // an isolated one like a lost frame (the
                            // transport retransmits); only a streak is
                            // a defective driver worth a complaint.
                            ctx.metrics().incr("inet.bad_replies");
                            self.bad_reply_streak += 1;
                            if self.bad_reply_streak >= BAD_REPLY_COMPLAINT_THRESHOLD {
                                self.bad_reply_streak = 0;
                                self.complain_bad_reply(sh, ctx);
                            }
                        }
                        Ok(_) => {
                            self.bad_reply_streak = 0;
                        }
                    }
                }
            }
            ProcEvent::Alarm { token } => {
                let conn_id = (token >> 32) as u16;
                let epoch = (token & 0xFFFF_FFFF) as u32;
                // analyze:recovery
                if conn_id == 0 {
                    // INIT retry timer: still not ready and no newer
                    // attempt superseded this alarm -> resend INIT.
                    if epoch == self.init_epoch && !self.driver_ready {
                        if let Some(ep) = self.driver {
                            ctx.metrics().incr("inet.init_retries");
                            ctx.trace(
                                TraceLevel::Warn,
                                "ethernet INIT went unanswered; retrying".to_string(),
                            );
                            self.send_init(ctx, ep);
                        }
                    }
                    return;
                }
                let Some(conn) = self.session.conn_mut(conn_id) else {
                    return;
                };
                if conn.timer_epoch != epoch {
                    return;
                }
                conn.rto = (conn.rto * 2).min(RTO_MAX);
                if !conn.established {
                    ctx.metrics().incr("inet.syn_retransmits");
                    self.send_syn(ctx, conn_id);
                } else if !conn.snd_buf.is_empty() {
                    ctx.metrics().incr("inet.retransmits");
                    self.send_unacked(ctx, conn_id);
                }
            }
            _ => {}
        }
    }

    /// Serves one socket request (also the replay path for requests that
    /// were parked behind a session restore).
    fn request(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        match sock::Msg::decode(&msg) {
            Some(sock::Msg::CONNECT) => {
                let conn = Conn {
                    app: msg.source,
                    connect_call: Some(call),
                    established: false,
                    closed: false,
                    rcv_nxt: 0,
                    snd_buf: Vec::new(),
                    snd_base: 0,
                    rto: RTO,
                    timer_epoch: 0,
                };
                match self.alloc_conn(conn) {
                    Some(conn_id) => {
                        sh.gate.mark_dirty();
                        self.send_syn(ctx, conn_id);
                    }
                    None => {
                        // Every 16-bit id is live: refuse rather than
                        // silently reuse an open session's id.
                        ctx.metrics().incr("inet.conns_exhausted");
                        let refused = sock::ConnectReply {
                            status: 1,
                            ..Default::default()
                        };
                        sh.reply(ctx, call, refused.into_message());
                    }
                }
            }
            Some(sock::Msg::SEND(send)) => {
                let conn_id = send.conn as u16;
                let ok = match self.session.conn_mut(conn_id) {
                    Some(conn) if conn.established => {
                        conn.snd_buf.extend_from_slice(&msg.data);
                        true
                    }
                    _ => false,
                };
                if ok {
                    sh.gate.mark_dirty();
                    self.send_unacked(ctx, conn_id);
                }
                sh.reply(ctx, call, ack(u64::from(!ok)));
            }
            Some(sock::Msg::CLOSE(close)) => {
                let conn_id = close.conn as u16;
                if self.session.conn(conn_id).is_some() {
                    self.free_conn(conn_id);
                    sh.gate.mark_dirty();
                    ctx.metrics().incr("inet.conns_closed");
                }
                // Idempotent: a CLOSE replayed after a session restore
                // (or re-sent by the app) is status 0 as well.
                sh.reply(ctx, call, ack(0));
            }
            Some(sock::Msg::DGRAM_SEND(dgram)) => {
                if self.session.dgram_app != Some(msg.source) {
                    self.session.dgram_app = Some(msg.source);
                    sh.gate.mark_dirty();
                }
                let seg = Segment {
                    flags: flags::DGRAM,
                    conn: 0,
                    seq: dgram.seq as u32,
                    ack: 0,
                    payload: msg.data.as_slice(),
                };
                // Unreliable: fire and forget; loss is explicitly
                // tolerated (§6.1).
                self.send_segment(ctx, seg);
                sh.reply(ctx, call, ack(0));
            }
            // The replies and pushes INET itself sends, or another table's kind.
            Some(sock::Msg::CONNECT_REPLY(_) | sock::Msg::ACK(_))
            | Some(sock::Msg::DATA(_) | sock::Msg::CLOSED(_) | sock::Msg::DGRAM_DATA)
            | None => sh.reply(ctx, call, ack(22)),
        }
    }
}
