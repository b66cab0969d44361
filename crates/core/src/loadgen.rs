//! Deterministic open-loop load generation for SLO measurement.
//!
//! The paper's evaluation (§6) drives recovery with single-client
//! workloads; a production system is judged by what *thousands* of
//! concurrent clients observe while drivers die. This module provides two
//! multiplexed load generators:
//!
//! * [`InetLoadGen`] — one process modeling 10⁴⁺ concurrent client
//!   sessions over INET: connection churn (every session is
//!   connect → request → response → close, recycling its id through
//!   INET's flat connection slab), mixed request sizes drawn from a
//!   weighted distribution, and seeded **open-loop** arrivals — each
//!   session slot's arrival clock advances from the previous *arrival*,
//!   never from a completion, so a driver outage cannot silently slow the
//!   offered load down (the classic coordinated-omission trap). Arrivals
//!   that land on a busy slot queue behind it (bounded backlog, then
//!   shed), which is exactly the head-of-line behavior the SLO fold
//!   attributes to recovery phases.
//! * [`VfsJobMix`] — a multi-client VFS/disk job mix: independent reader
//!   slots over one on-disk file, open-loop read arrivals with mixed
//!   chunk sizes.
//!
//! Both run on one `OpenLoop` slot array — arrival clocks, backlog and
//! shed, client deadlines, drain accounting — and keep only how a request
//! is served. It records one [`RequestRecord`] per request (arrival time,
//! completion time, payload bytes, outcome) into a harness-shared status
//! cell; the campaign joins those records against the folded recovery
//! timeline (`Timeline::record_requests_into`) to produce per-phase
//! latency percentiles, goodput and head-of-line depth.
//!
//! Determinism: all randomness comes from the process's own forked
//! [`SimRng`] stream (`ctx.rng()`), all time from virtual time, so two
//! same-seed runs produce byte-identical request logs.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, Message};
use phoenix_servers::proto::{self, classify, fs, sock, File, ReplyClass};
use phoenix_simcore::obs::RequestRecord;
use phoenix_simcore::time::{SimDuration, SimTime};

/// Weighted request-size mix: `(payload_bytes, weight)`.
pub type SizeMix = Vec<(u64, u32)>;

/// The default mixed request sizes: mostly small API-style responses,
/// a mid-size asset tier, and an occasional bulk object.
pub fn default_size_mix() -> SizeMix {
    vec![(256, 60), (2048, 30), (16 * 1024, 9), (64 * 1024, 1)]
}

fn draw_size(rng: &mut phoenix_simcore::rng::SimRng, mix: &[(u64, u32)]) -> u64 {
    let total: u32 = mix.iter().map(|(_, w)| *w).sum();
    if total == 0 {
        return 256;
    }
    let mut roll = rng.range_u64(0..u64::from(total));
    for (size, w) in mix {
        if roll < u64::from(*w) {
            return *size;
        }
        roll -= u64::from(*w);
    }
    mix.last().map_or(256, |(s, _)| *s)
}

/// Uniform draw on `[mean/2, 3·mean/2)` — integer-only "jittered mean"
/// interarrival, open-loop friendly and float-free.
fn draw_interval(rng: &mut phoenix_simcore::rng::SimRng, mean: SimDuration) -> SimDuration {
    let mean_us = mean.as_micros().max(2);
    SimDuration::from_micros(mean_us / 2 + rng.range_u64(0..mean_us))
}

/// Tuning for [`InetLoadGen`].
#[derive(Debug, Clone)]
pub struct InetLoadConfig {
    /// Concurrent session slots the generator multiplexes. Each slot is
    /// one client: at any instant it holds at most one open connection.
    pub sessions: u32,
    /// Mean per-slot open-loop interarrival between session starts.
    pub interarrival: SimDuration,
    /// First arrivals are staggered uniformly across this ramp window so
    /// 10⁴ slots do not all CONNECT on the same microsecond.
    pub ramp: SimDuration,
    /// After the response completes, the session lingers (connection held
    /// open, keep-alive style) for a seeded delay with this mean before
    /// closing — this is what keeps ~`sessions` connections concurrently
    /// live in INET's slab.
    pub linger: SimDuration,
    /// Weighted response-size mix.
    pub sizes: SizeMix,
    /// Arrivals queued behind a busy slot before further arrivals are
    /// shed (recorded as failed requests at their arrival instant).
    pub backlog_cap: usize,
    /// Client-side request deadline, measured from the instant the slot
    /// begins serving the request. A request that neither completes nor
    /// fails by then is recorded as failed and its connection abandoned —
    /// real clients have timeouts, and a server-side wedge must show up
    /// as an SLO violation, not hang the fleet.
    pub deadline: SimDuration,
    /// Arrival horizon: no new arrivals are scheduled at or beyond this
    /// virtual time (sessions already queued still drain).
    pub horizon: SimDuration,
}

impl Default for InetLoadConfig {
    fn default() -> Self {
        InetLoadConfig {
            sessions: 14_000,
            interarrival: SimDuration::from_secs(3),
            ramp: SimDuration::from_secs(3),
            linger: SimDuration::from_millis(2800),
            sizes: default_size_mix(),
            backlog_cap: 4,
            deadline: SimDuration::from_secs(10),
            horizon: SimDuration::from_secs(20),
        }
    }
}

/// Shared observable state of an [`InetLoadGen`] (or [`VfsJobMix`]) run.
#[derive(Debug, Default)]
pub struct LoadStatus {
    /// Requests started (arrivals actually admitted to a slot).
    pub started: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed (error status or aborted call).
    pub failed: u64,
    /// Arrivals shed because the slot's backlog was full.
    pub shed: u64,
    /// Response payload bytes received.
    pub bytes: u64,
    /// Connections currently open.
    pub live: u64,
    /// Peak concurrently-open connections.
    pub peak_live: u64,
    /// All arrivals scheduled up to the horizon have been admitted, shed
    /// or drained — nothing is in flight.
    pub drained: bool,
    /// One record per admitted or shed request, in completion order.
    pub records: Vec<RequestRecord>,
}

/// Alarm-token tag bits (upper byte): arrival clock, linger timer,
/// request deadline. Below the tag: the low 24 bits of the slot epoch
/// the alarm was armed under, then the slot index.
const TOK_ARRIVAL: u64 = 1 << 56;
const TOK_LINGER: u64 = 2 << 56;
const TOK_DEADLINE: u64 = 3 << 56;
const TOK_TAG: u64 = 0xFF << 56;

/// The metric names one generator reports under.
struct LoadNames {
    requests: &'static str,
    completed: &'static str,
    bytes: &'static str,
    failed: &'static str,
    shed: &'static str,
    timeouts: &'static str,
}

/// One client slot. The open-loop half: its arrival clock, the arrivals
/// waiting behind the request in service, and the epoch that retires
/// that request's deadline alarm and late replies. `client` is whatever
/// serving a request needs on top (`()` for a single read).
#[derive(Debug, Default)]
struct Slot<C> {
    /// A request is in service (for INET: the session is not idle).
    busy: bool,
    /// Arrival instant of the request currently in service.
    arrival: SimTime,
    /// Next scheduled arrival for this slot (the open-loop clock).
    next_arrival: SimTime,
    /// Arrivals that landed while the slot was busy, oldest first.
    backlog: VecDeque<SimTime>,
    /// Monotone alarm epoch: stale deadline and linger alarms, and
    /// replies to requests the client gave up on, are ignored by it.
    epoch: u32,
    client: C,
}

/// The open-loop slot machinery both generators run on: per-slot arrival
/// clocks that advance from the previous *arrival*, bounded backlog then
/// shed, one client deadline per request, O(1) drain accounting, and the
/// one place a [`RequestRecord`] is written.
struct OpenLoop<C> {
    slots: Vec<Slot<C>>,
    names: LoadNames,
    status: Rc<RefCell<LoadStatus>>,
    /// Load epoch zero: the process's `Start` instant. Horizons are
    /// relative to it, not to boot (boot itself takes virtual seconds).
    t0: SimTime,
    /// Arrival chains that have run past the horizon (drain bookkeeping:
    /// the drained check is O(1) counters, never a slot scan).
    chains_done: u32,
    /// Slots with a request in service.
    busy_slots: u32,
    /// Arrivals queued across all slot backlogs.
    backlog_total: u64,
}

impl<C: Default> OpenLoop<C> {
    fn new(slots: u32, names: LoadNames, status: Rc<RefCell<LoadStatus>>) -> Self {
        OpenLoop {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            names,
            status,
            t0: SimTime::ZERO,
            chains_done: 0,
            busy_slots: 0,
            backlog_total: 0,
        }
    }

    fn slot(&mut self, idx: u32) -> &mut Slot<C> {
        &mut self.slots[idx as usize]
    }

    /// Splits an alarm token into `(tag, slot, epoch)`; `None` for a
    /// slot this generator does not have.
    fn decode(&self, token: u64) -> Option<(u64, u32, u32)> {
        let idx = (token & 0xFFFF_FFFF) as u32;
        let epoch = ((token >> 32) & 0xFF_FFFF) as u32;
        ((idx as usize) < self.slots.len()).then_some((token & TOK_TAG, idx, epoch))
    }

    /// Whether an alarm or call tagged `epoch` still belongs to what the
    /// slot is doing now.
    fn current(&self, idx: u32, epoch: u32) -> bool {
        self.slots[idx as usize].epoch & 0xFF_FFFF == epoch & 0xFF_FFFF
    }

    /// Fixes the slot's next arrival at `at` and arms the wakeup
    /// (saturating: a past-due arrival fires immediately).
    fn arm_arrival(&mut self, ctx: &mut Ctx<'_>, idx: u32, at: SimTime) {
        self.slot(idx).next_arrival = at;
        let _ = ctx.set_alarm(at.since(ctx.now()), TOK_ARRIVAL | u64::from(idx));
    }

    /// Queues the arrival that just fired behind the request in service.
    fn queue(&mut self, idx: u32) {
        let at = self.slot(idx).next_arrival;
        self.slot(idx).backlog.push_back(at);
        self.backlog_total += 1;
    }

    /// One arrival fired on a busy slot: queue it, or past `cap` queued
    /// arrivals shed it — the client gave up before being served.
    /// Recorded at the arrival instant so the failure attributes to the
    /// phase that caused the queue.
    fn queue_or_shed(&mut self, ctx: &mut Ctx<'_>, idx: u32, cap: usize) {
        if self.slots[idx as usize].backlog.len() < cap {
            return self.queue(idx);
        }
        self.status.borrow_mut().shed += 1;
        let at = self.slot(idx).next_arrival;
        self.record(ctx, at, 0, false);
        ctx.metrics().incr(self.names.shed);
    }

    /// Open loop: the next arrival advances from this arrival by a draw
    /// around `mean`, never from any completion; past `horizon` the chain
    /// ends. Called once the arrival that fired has been served, queued
    /// or shed.
    fn next_arrival(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: u32,
        mean: SimDuration,
        horizon: SimDuration,
    ) {
        let next = self.slot(idx).next_arrival + draw_interval(ctx.rng(), mean);
        if next.since(self.t0) < horizon {
            self.arm_arrival(ctx, idx, next);
        } else {
            self.slot(idx).next_arrival = next;
            self.chains_done += 1;
        }
    }

    /// Puts the request that arrived at `arrival` in service on an idle
    /// slot and arms its client `deadline`. The latency clock starts at
    /// the *arrival* instant (open loop), not at the instant the slot got
    /// around to serving it. Returns the epoch to tag its calls with.
    fn begin(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: u32,
        arrival: SimTime,
        deadline: SimDuration,
    ) -> u32 {
        self.busy_slots += 1;
        let slot = self.slot(idx);
        slot.busy = true;
        slot.arrival = arrival;
        slot.epoch += 1;
        let epoch = slot.epoch;
        self.status.borrow_mut().started += 1;
        ctx.metrics().incr(self.names.requests);
        let tok = TOK_DEADLINE | (u64::from(epoch & 0xFF_FFFF) << 32) | u64::from(idx);
        let _ = ctx.set_alarm(deadline, tok);
        epoch
    }

    /// The request in service is over: records its outcome.
    fn finish(&mut self, ctx: &mut Ctx<'_>, idx: u32, bytes: u64, ok: bool) {
        let arrival = self.slot(idx).arrival;
        self.record(ctx, arrival, bytes, ok);
        let mut st = self.status.borrow_mut();
        if ok {
            st.completed += 1;
            st.bytes += bytes;
            ctx.metrics().incr(self.names.completed);
            ctx.metrics().add(self.names.bytes, bytes);
        } else {
            st.failed += 1;
            ctx.metrics().incr(self.names.failed);
        }
    }

    fn record(&mut self, ctx: &mut Ctx<'_>, start: SimTime, bytes: u64, ok: bool) {
        self.status.borrow_mut().records.push(RequestRecord {
            start,
            end: ctx.now(),
            bytes,
            ok,
        });
    }

    /// A deadline alarm tagged `epoch` fired: `true` if the request it
    /// was armed for is still in service — the client gives up, and the
    /// wedge becomes a measured failure.
    fn timed_out(&mut self, ctx: &mut Ctx<'_>, idx: u32, epoch: u32) -> bool {
        let due = self.slots[idx as usize].busy && self.current(idx, epoch);
        if due {
            ctx.metrics().incr(self.names.timeouts);
        }
        due
    }

    /// The slot is free again: returns the oldest queued arrival, if
    /// any, for the caller to serve next.
    fn release(&mut self, idx: u32) -> Option<SimTime> {
        self.slot(idx).busy = false;
        self.busy_slots -= 1;
        let next = self.slot(idx).backlog.pop_front();
        self.backlog_total -= u64::from(next.is_some());
        next
    }

    /// True when every arrival chain has run past the horizon, no slot is
    /// mid-request and no arrival is queued. O(1): pure counters.
    fn drained(&self) -> bool {
        self.chains_done as usize == self.slots.len()
            && self.busy_slots == 0
            && self.backlog_total == 0
    }

    fn update_drained(&mut self) {
        if self.drained() {
            self.status.borrow_mut().drained = true;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum SessionState {
    /// No connection, no request in flight.
    #[default]
    Idle,
    /// CONNECT issued, waiting for CONNECT_REPLY.
    Connecting,
    /// GET sent (or queued for its ACK), response streaming in.
    Streaming,
    /// Response complete; connection held open until the linger alarm.
    Lingering,
    /// CLOSE issued, waiting for its ACK.
    Closing,
}

/// What an outstanding `sendrec` call of a session was for.
#[derive(Debug, Clone, Copy)]
enum CallKind {
    Connect,
    Send,
    Close,
    /// Cleanup CLOSE for a connection whose request already timed out
    /// (the CONNECT succeeded after the client gave up). Reply ignored.
    CloseOrphan,
}

/// What one slot's client is doing over INET.
#[derive(Debug, Default)]
struct Session {
    state: SessionState,
    /// Connection id while one is open.
    conn: Option<u64>,
    /// Response bytes expected / received for the current request.
    want: u64,
    got: u64,
    /// Content seed of the current request (distinct per request so the
    /// peer's stream generator is exercised, not a cache).
    content_seed: u64,
}

/// The multiplexed INET client fleet. See the module docs for the model.
pub struct InetLoadGen {
    inet: Endpoint,
    cfg: InetLoadConfig,
    lp: OpenLoop<Session>,
    /// In-flight `sendrec` calls: slot, purpose, and the slot epoch the
    /// call was issued under (stale replies — e.g. for a request that
    /// timed out — are discarded by epoch mismatch).
    calls: BTreeMap<CallId, (u32, CallKind, u32)>,
    /// Open connection id → slot (DATA/CLOSED pushes carry the conn id).
    by_conn: BTreeMap<u64, u32>,
    /// Monotone per-request content-seed counter.
    seed_seq: u64,
}

impl InetLoadGen {
    /// Creates the fleet; observe progress through `status`.
    pub fn new(inet: Endpoint, cfg: InetLoadConfig, status: Rc<RefCell<LoadStatus>>) -> Self {
        let names = LoadNames {
            requests: "loadgen.inet.requests",
            completed: "loadgen.inet.completed",
            bytes: "loadgen.inet.bytes",
            failed: "loadgen.inet.failed",
            shed: "loadgen.inet.shed",
            timeouts: "loadgen.inet.timeouts",
        };
        InetLoadGen {
            inet,
            lp: OpenLoop::new(cfg.sessions, names, status),
            cfg,
            calls: BTreeMap::new(),
            by_conn: BTreeMap::new(),
            seed_seq: 0,
        }
    }

    fn session(&mut self, idx: u32) -> &mut Session {
        &mut self.lp.slot(idx).client
    }

    /// Issues one call of session `idx`; `false` if the kernel refused
    /// the send.
    fn call(&mut self, ctx: &mut Ctx<'_>, idx: u32, kind: CallKind, msg: Message) -> bool {
        let epoch = self.lp.slots[idx as usize].epoch;
        let sent = ctx.sendrec(self.inet, msg);
        if let Ok(call) = sent {
            self.calls.insert(call, (idx, kind, epoch));
        }
        sent.is_ok()
    }

    /// Begins one session for the request that arrived at `arrival`.
    fn begin_session(&mut self, ctx: &mut Ctx<'_>, idx: u32, arrival: SimTime) {
        self.seed_seq += 1;
        let content_seed = self.seed_seq;
        let want = draw_size(ctx.rng(), &self.cfg.sizes);
        let session = self.session(idx);
        session.state = SessionState::Connecting;
        session.want = want;
        session.got = 0;
        session.content_seed = content_seed;
        self.lp.begin(ctx, idx, arrival, self.cfg.deadline);
        if !self.call(ctx, idx, CallKind::Connect, proto::connect()) {
            self.finish_failed(ctx, idx);
        }
    }

    /// Records the in-service request as failed and returns the slot to
    /// idle (serving its backlog if any). The connection, if one was
    /// established, is left for the close path.
    fn finish_failed(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        // Retire the request: its deadline alarm and any still-in-flight
        // reply for it are stale from here on.
        self.lp.slot(idx).epoch += 1;
        self.lp.finish(ctx, idx, 0, false);
        self.close_or_idle(ctx, idx);
    }

    /// Closes the slot's connection if one is open, else goes idle.
    fn close_or_idle(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        match self.session(idx).conn {
            Some(conn) => {
                self.session(idx).state = SessionState::Closing;
                if !self.call(ctx, idx, CallKind::Close, proto::close(conn)) {
                    self.conn_gone(ctx, idx);
                }
            }
            None => self.idle(ctx, idx),
        }
    }

    /// The connection is gone (closed, or INET lost it): drop the
    /// mapping, update the live gauge, go idle.
    fn conn_gone(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        if let Some(conn) = self.session(idx).conn.take() {
            // INET may have recycled the id to another slot's CONNECT
            // between our CLOSE and its ACK — only drop the mapping if
            // it is still ours, or the new owner's pushes would be lost.
            if self.by_conn.get(&conn) == Some(&idx) {
                self.by_conn.remove(&conn);
            }
            let mut st = self.lp.status.borrow_mut();
            st.live = st.live.saturating_sub(1);
        }
        self.idle(ctx, idx);
    }

    /// Goes idle, then starts the next queued request, if any.
    fn idle(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        self.session(idx).state = SessionState::Idle;
        if let Some(arrival) = self.lp.release(idx) {
            self.begin_session(ctx, idx, arrival);
        }
    }

    /// One arrival fired for `idx`: admit it (or shed it), then schedule
    /// the slot's next arrival strictly from the arrival clock.
    fn on_arrival(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        match self.session(idx).state {
            SessionState::Idle => {
                let at = self.lp.slot(idx).next_arrival;
                self.begin_session(ctx, idx, at);
            }
            SessionState::Lingering => {
                // A fresh request ends the keep-alive: close the idle
                // connection now and serve this arrival when the close
                // completes. Only genuinely-working slots queue arrivals,
                // so steady-state load never sheds — only outages do.
                self.lp.slot(idx).epoch += 1; // the pending linger alarm is stale
                self.lp.queue(idx);
                self.close_or_idle(ctx, idx);
            }
            _ => self.lp.queue_or_shed(ctx, idx, self.cfg.backlog_cap),
        }
        self.lp
            .next_arrival(ctx, idx, self.cfg.interarrival, self.cfg.horizon);
    }

    /// Response complete: record the latency sample and begin the
    /// keep-alive linger before closing.
    fn on_response_done(&mut self, ctx: &mut Ctx<'_>, idx: u32) {
        let got = self.session(idx).got;
        self.lp.finish(ctx, idx, got, true);
        let linger = draw_interval(ctx.rng(), self.cfg.linger);
        self.session(idx).state = SessionState::Lingering;
        let slot = self.lp.slot(idx);
        slot.epoch += 1; // retires the request's deadline alarm
        let tok = TOK_LINGER | (u64::from(slot.epoch & 0xFF_FFFF) << 32) | u64::from(idx);
        let _ = ctx.set_alarm(linger, tok);
    }

    fn note_live(&mut self) {
        let mut st = self.lp.status.borrow_mut();
        st.live += 1;
        st.peak_live = st.peak_live.max(st.live);
    }
}

impl Process for InetLoadGen {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                // Stagger first arrivals uniformly across the ramp window.
                self.lp.t0 = ctx.now();
                let ramp_us = self.cfg.ramp.as_micros().max(1);
                for idx in 0..self.cfg.sessions {
                    let offset = SimDuration::from_micros(ctx.rng().range_u64(0..ramp_us));
                    self.lp.arm_arrival(ctx, idx, self.lp.t0 + offset);
                }
            }
            ProcEvent::Alarm { token } => {
                let Some((tag, idx, epoch)) = self.lp.decode(token) else {
                    return;
                };
                let state = self.session(idx).state;
                match tag {
                    TOK_ARRIVAL => self.on_arrival(ctx, idx),
                    TOK_LINGER
                        if state == SessionState::Lingering && self.lp.current(idx, epoch) =>
                    {
                        self.close_or_idle(ctx, idx);
                    }
                    // Client timeout: the request is still in flight with
                    // no response in sight — give up, record the failure,
                    // abandon the connection.
                    TOK_DEADLINE
                        if matches!(state, SessionState::Connecting | SessionState::Streaming)
                            && self.lp.timed_out(ctx, idx, epoch) =>
                    {
                        self.finish_failed(ctx, idx);
                    }
                    _ => {}
                }
                self.lp.update_drained();
            }
            ProcEvent::Reply { call, result } => {
                let Some((idx, kind, epoch)) = self.calls.remove(&call) else {
                    return;
                };
                let ok = ReplyClass::Ok
                    == match kind {
                        CallKind::Connect => classify(sock::CONNECT_REPLY, &result),
                        _ => classify(sock::ACK, &result),
                    };
                // A reply for a request the client already gave up on:
                // ignore it — except a late-established connection, which
                // must be closed or it would leak in INET's slab.
                let stale = !matches!(kind, CallKind::Close | CallKind::CloseOrphan)
                    && self.lp.slots[idx as usize].epoch != epoch;
                match (kind, result) {
                    (CallKind::Connect, Ok(reply)) if ok && stale => {
                        let conn = sock::ConnectReply::from_message(&reply).map_or(0, |r| r.conn);
                        if let Ok(call) = ctx.sendrec(self.inet, proto::close(conn)) {
                            self.calls.insert(call, (idx, CallKind::CloseOrphan, epoch));
                        }
                        return;
                    }
                    _ if stale => return,
                    (CallKind::Connect, Ok(reply)) if ok => {
                        let conn = sock::ConnectReply::from_message(&reply).map_or(0, |r| r.conn);
                        self.session(idx).conn = Some(conn);
                        self.by_conn.insert(conn, idx);
                        self.note_live();
                        let session = self.session(idx);
                        session.state = SessionState::Streaming;
                        let get = proto::get(conn, session.want, session.content_seed);
                        if !self.call(ctx, idx, CallKind::Send, get) {
                            self.finish_failed(ctx, idx);
                        }
                    }
                    // Request accepted; response arrives as DATA pushes,
                    // completion as got >= want.
                    (CallKind::Send, _) if ok => {}
                    // Refused (slab exhausted), garbled, or aborted.
                    (CallKind::Connect | CallKind::Send, _) => self.finish_failed(ctx, idx),
                    (CallKind::Close, _) => {
                        // Closed (or the close call died with INET —
                        // either way this client is done with the conn).
                        self.conn_gone(ctx, idx);
                    }
                    (CallKind::CloseOrphan, _) => {}
                }
                self.lp.update_drained();
            }
            ProcEvent::Message(msg) => match sock::Msg::decode(&msg) {
                Some(sock::Msg::DATA(sock::Data { conn })) => {
                    if let Some(&idx) = self.by_conn.get(&conn) {
                        let session = self.session(idx);
                        if session.state == SessionState::Streaming {
                            session.got += msg.data.len() as u64;
                            if session.got >= session.want {
                                self.on_response_done(ctx, idx);
                            }
                        }
                    }
                    // Consumed: the frame's buffer goes back to the kernel.
                    ctx.return_buf(msg.data);
                }
                Some(sock::Msg::CLOSED(sock::Closed { conn })) => {
                    // Peer FIN. Normally arrives while lingering (the stream
                    // completed); a FIN racing an unfinished request means the
                    // response was cut short.
                    let Some(&idx) = self.by_conn.get(&conn) else {
                        return;
                    };
                    if self.session(idx).state == SessionState::Streaming {
                        self.finish_failed(ctx, idx);
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Tuning for [`VfsJobMix`].
#[derive(Debug, Clone)]
pub struct VfsLoadConfig {
    /// Concurrent reader slots (each an independent client of VFS).
    pub clients: u32,
    /// Mean per-slot open-loop interarrival between reads.
    pub interarrival: SimDuration,
    /// Weighted read-chunk mix.
    pub chunks: SizeMix,
    /// Path of the file all readers share.
    pub path: String,
    /// Arrival horizon (see [`InetLoadConfig::horizon`]).
    pub horizon: SimDuration,
    /// Client-side request deadline (see [`InetLoadConfig::deadline`]).
    /// VFS/MFS can silently lose an in-flight read across a block-driver
    /// restart; the deadline turns such a wedge into a measured failure.
    pub deadline: SimDuration,
    /// Per-client queued-arrival bound (see [`InetLoadConfig::backlog_cap`]):
    /// arrivals beyond it shed as failures at their arrival instant.
    pub backlog_cap: usize,
}

impl Default for VfsLoadConfig {
    fn default() -> Self {
        VfsLoadConfig {
            clients: 32,
            interarrival: SimDuration::from_millis(40),
            chunks: vec![(4 * 1024, 70), (16 * 1024, 25), (64 * 1024, 5)],
            path: "stream".to_string(),
            horizon: SimDuration::from_secs(20),
            deadline: SimDuration::from_secs(10),
            backlog_cap: 4,
        }
    }
}

/// The multi-client VFS/disk job mix: `clients` readers issue open-loop
/// random-offset reads of mixed chunk sizes against one shared file.
/// Reads of different slots overlap, so each slot reads into a buffer of
/// its own: slot `i`'s is at `i * buf_len` of the mix's address space.
pub struct VfsJobMix {
    vfs: Endpoint,
    cfg: VfsLoadConfig,
    /// The largest chunk the mix draws: one slot's buffer.
    buf_len: u64,
    file: Option<File>,
    lp: OpenLoop<()>,
    /// In-flight calls: `call -> (slot, issue epoch)`.
    calls: BTreeMap<CallId, (u32, u32)>,
}

impl VfsJobMix {
    /// Creates the job mix; observe progress through `status`.
    pub fn new(vfs: Endpoint, cfg: VfsLoadConfig, status: Rc<RefCell<LoadStatus>>) -> Self {
        let names = LoadNames {
            requests: "loadgen.vfs.requests",
            completed: "loadgen.vfs.completed",
            bytes: "loadgen.vfs.bytes",
            failed: "loadgen.vfs.failed",
            shed: "loadgen.vfs.shed",
            timeouts: "loadgen.vfs.timeouts",
        };
        let buf_len = cfg.chunks.iter().map(|&(size, _)| size).fold(256, u64::max);
        VfsJobMix {
            vfs,
            buf_len,
            file: None,
            lp: OpenLoop::new(cfg.clients, names, status),
            cfg,
            calls: BTreeMap::new(),
        }
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_>, idx: u32, arrival: SimTime) {
        let Some(file) = self.file else { return };
        let chunk = draw_size(ctx.rng(), &self.cfg.chunks).min(file.size.max(1));
        let offset = if file.size > chunk {
            ctx.rng().range_u64(0..(file.size - chunk))
        } else {
            0
        };
        let epoch = self.lp.begin(ctx, idx, arrival, self.cfg.deadline);
        let buf = u64::from(idx) * self.buf_len;
        match ctx.sendrec(self.vfs, file.read(offset, chunk, buf)) {
            Ok(call) => {
                self.calls.insert(call, (idx, epoch));
            }
            Err(_) => self.finish(ctx, idx, 0, false),
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, idx: u32, bytes: u64, ok: bool) {
        self.lp.finish(ctx, idx, bytes, ok);
        if let Some(arrival) = self.lp.release(idx) {
            self.issue_read(ctx, idx, arrival);
        }
        self.lp.update_drained();
    }

    /// The file must exist for the mix to run; give up loudly rather
    /// than hang the campaign.
    fn open_failed(&mut self, ctx: &mut Ctx<'_>) {
        ctx.metrics().incr("loadgen.vfs.open_failed");
        self.lp.status.borrow_mut().drained = true;
    }
}

impl Process for VfsJobMix {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                self.lp.t0 = ctx.now();
                if ctx.sendrec(self.vfs, proto::open(&self.cfg.path)).is_err() {
                    self.open_failed(ctx);
                }
            }
            ProcEvent::Reply { result, .. } if self.file.is_none() => {
                let (ReplyClass::Ok, Ok(reply)) = (classify(fs::OPEN_REPLY, &result), result)
                else {
                    return self.open_failed(ctx);
                };
                self.file = File::opened(&self.cfg.path, &reply);
                for idx in 0..self.cfg.clients {
                    let offset = draw_interval(ctx.rng(), self.cfg.interarrival);
                    self.lp.arm_arrival(ctx, idx, ctx.now() + offset);
                }
            }
            ProcEvent::Alarm { token } => {
                let Some((tag, idx, epoch)) = self.lp.decode(token) else {
                    return;
                };
                match tag {
                    TOK_ARRIVAL => {
                        let slot = &self.lp.slots[idx as usize];
                        if slot.busy {
                            self.lp.queue_or_shed(ctx, idx, self.cfg.backlog_cap);
                        } else {
                            self.issue_read(ctx, idx, slot.next_arrival);
                        }
                        self.lp
                            .next_arrival(ctx, idx, self.cfg.interarrival, self.cfg.horizon);
                    }
                    // The read wedged (e.g. lost across a block driver
                    // restart).
                    TOK_DEADLINE if self.lp.timed_out(ctx, idx, epoch) => {
                        self.finish(ctx, idx, 0, false);
                    }
                    _ => {}
                }
                self.lp.update_drained();
            }
            ProcEvent::Reply { call, result } => {
                let Some((idx, epoch)) = self.calls.remove(&call) else {
                    return;
                };
                // A reply for a read the client already timed out on.
                let slot = &self.lp.slots[idx as usize];
                if slot.epoch != epoch || !slot.busy {
                    return;
                }
                match (classify(fs::DATA_REPLY, &result), result) {
                    (ReplyClass::Ok, Ok(reply)) => {
                        let count = fs::DataReply::from_message(&reply).map_or(0, |r| r.count);
                        self.finish(ctx, idx, count, true);
                    }
                    _ => self.finish(ctx, idx, 0, false),
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_simcore::rng::SimRng;

    #[test]
    fn size_mix_draws_only_listed_sizes() {
        let mix = default_size_mix();
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            let s = draw_size(&mut rng, &mix);
            assert!(mix.iter().any(|(size, _)| *size == s), "unknown size {s}");
        }
    }

    #[test]
    fn interval_draws_stay_in_band() {
        let mut rng = SimRng::new(9);
        let mean = SimDuration::from_millis(100);
        for _ in 0..1000 {
            let d = draw_interval(&mut rng, mean);
            assert!(d >= SimDuration::from_millis(50));
            assert!(d < SimDuration::from_millis(150));
        }
    }

    #[test]
    fn size_and_interval_draws_are_deterministic() {
        let mix = default_size_mix();
        let run = || {
            let mut rng = SimRng::new(42);
            let sizes: Vec<u64> = (0..64).map(|_| draw_size(&mut rng, &mix)).collect();
            let gaps: Vec<u64> = (0..64)
                .map(|_| draw_interval(&mut rng, SimDuration::from_millis(10)).as_micros())
                .collect();
            (sizes, gaps)
        };
        assert_eq!(run(), run());
    }
}
