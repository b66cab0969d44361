//! The fleet: N independent `Os` instances in one deterministic event
//! loop, joined by the inter-node wire, the per-node watchdog agents,
//! and the snapshot-replication links.
//!
//! Time advances on a grid of quanta, and one quantum's round (in fixed
//! node-id order) applies due node-level faults, delivers wire payloads,
//! ticks the due agents, drives snapshot replication, and completes
//! pending reboots. The loop is due-driven: a stretch of quanta in which
//! no fault, delivery, agent, transfer or reboot falls due only moves
//! the clock, and the round runs at the first instant something is due.
//! A node's machine runs only when the loop reads or changes it, up to
//! the fleet time it would have reached had every machine run every
//! quantum, and `run_for` ends by bringing every live machine to fleet
//! time. Each node's `Os` is seeded from its own forked RNG stream,
//! every link has its own, and all cross-node state is indexed by node
//! id and iterated in id order — so the same fleet seed replays
//! byte-identically.
//!
//! Recover-the-recoverer: when a quorum convicts a node (its RS fell
//! silent, or the whole machine died), the ring-successor arbiter's
//! verdict makes the fleet microreboot the node crash-only-style — the
//! old machine is discarded, a fresh one boots at the next generation,
//! and the peer-held snapshot of its checkpoint-store records is adopted
//! into the newborn, incarnation-clamped so live drivers supersede it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::iter;
use std::mem;
use std::rc::Rc;

use phoenix::apps::{CkptLpd, CkptLpdStatus};
use phoenix::campaign::metrics_digest;
use phoenix::{names, Os};
use phoenix_fault::{NodeChaosPlan, NodeFault, NodeFaultKind};
use phoenix_servers::netproto::{stream_chunk, Segment};
use phoenix_servers::proto::evidence;
use phoenix_simcore::digest::Md5;
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::agent::{FleetAction, FleetAgent, LocalView};
use crate::link::{SnapReceiver, SnapSender};
use crate::proto::NodeSnapshot;
use crate::wire::{FleetWire, Payload};

/// Fleet shape and pacing.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of nodes (at least 2).
    pub nodes: u8,
    /// Fleet root seed; every node and link stream forks off it.
    pub seed: u64,
    /// Event-loop quantum: the grid the rounds run on; each round covers
    /// one quantum.
    pub quantum: SimDuration,
}

/// One-way inter-node link latency.
const LINK_LATENCY: SimDuration = SimDuration::from_millis(1);
/// How often each node replicates its snapshot to its successor.
const SNAP_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Modeled outage between a conviction and the reborn node's boot.
const REBOOT_DELAY: SimDuration = SimDuration::from_millis(250);
/// Per-node checkpointed print-job size (keeps real records in the
/// checkpoint store for replication to carry).
const JOB_BYTES: usize = 6144;

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 4,
            seed: 0xF1EE7,
            quantum: SimDuration::from_millis(1),
        }
    }
}

/// A pending crash-only node reboot ordered by a conviction.
#[derive(Debug)]
struct Reboot {
    ready_at: SimTime,
    snapshot: Option<NodeSnapshot>,
    convict_at: SimTime,
}

/// One node slot: the machine (when up), its agent, its workload, and
/// what the fleet tracks about the node.
struct NodeSlot {
    gen: u32,
    seed: u64,
    os: Option<Os>,
    /// The fleet time `os` has been run up to: [`NodeSlot::machine`]
    /// brings it forward when the loop reads the machine.
    at: SimTime,
    /// How often `machine` ran the machine forward (the loop-work test
    /// sums it; not a metric, because fleet counters are in the digest).
    #[cfg(test)]
    advances: u64,
    agent: FleetAgent,
    status: Rc<RefCell<CkptLpdStatus>>,
    reboot: Option<Reboot>,
    /// The transfer of the node's latest snapshot to its successor. It
    /// keeps the image's buffer and writes the next image into it.
    sender: SnapSender,
    /// The transfer from its predecessor, reassembling.
    receiver: SnapReceiver,
    /// The latest snapshot image of its predecessor, as it arrived and
    /// passed [`NodeSnapshot::check`], or nothing (empty): replication
    /// always goes to the ring successor, so this is the only copy of it.
    /// Decoded only when a conviction adopts it. Swapped with the
    /// receiver's buffer at each image, so the two buffers take turns.
    held: Vec<u8>,
    /// When the node next exports a snapshot.
    next_snap_at: SimTime,
    /// When the injected fault the node awaits a conviction for struck.
    pending_fault: Option<SimTime>,
}

impl NodeSlot {
    /// The node's machine, first run up to fleet time `to`; `None` while
    /// the node is down. Every read or change of a machine goes through
    /// here, at the fleet time the machine would have reached had every
    /// machine run every quantum.
    fn machine(&mut self, to: SimTime) -> Option<&mut Os> {
        let os = self.os.as_mut()?;
        debug_assert!(
            self.at <= to,
            "machine read at {to:?}, behind its clock {:?}",
            self.at
        );
        if self.at < to {
            os.run_for(to - self.at);
            self.at = to;
            #[cfg(test)]
            {
                self.advances += 1;
            }
        }
        Some(os)
    }
}

/// The multi-node simulation.
pub struct Fleet {
    cfg: FleetConfig,
    now: SimTime,
    /// Indexed by node id.
    slots: Vec<NodeSlot>,
    wire: FleetWire,
    plan: NodeChaosPlan,
    next_conn: u16,
    /// The acks a round's transfer deliveries owe, `(from, to, ack)`, sent
    /// once the due payloads are drained; kept across rounds.
    acks: Vec<(u8, u8, Segment<()>)>,
    reint_watch: Vec<(u8, u32, SimTime)>,
    finalized: bool,
    /// When each round ran (the wake-source tests read it; not a metric,
    /// because fleet counters are in the digest).
    #[cfg(test)]
    stepped_at: Vec<SimTime>,
    /// Fleet-level counters and MTTR histograms.
    pub metrics: MetricsRegistry,
}

/// Boots one node machine for `(seed, gen)` with the checkpointed
/// printer workload installed.
fn boot_node(seed: u64, gen: u32) -> (Os, Rc<RefCell<CkptLpdStatus>>) {
    // analyze:allow(rng-construction): incarnation seed is a pure
    // function of the node's forked stream seed and its generation.
    let inc_seed = SimRng::new(seed).fork_indexed("gen", u64::from(gen)).seed();
    let mut os = Os::builder()
        .seed(inc_seed)
        .heartbeat(SimDuration::from_millis(500), 3)
        .with_checkpointing()
        .boot();
    let status = Rc::new(RefCell::new(CkptLpdStatus::default()));
    // A node that somehow boots without VFS still rejoins the ring and
    // lets its own RS recover the filesystem; only the workload is lost.
    if let Some(vfs) = os.endpoint(names::VFS) {
        let job = stream_chunk(seed ^ u64::from(gen), 0, JOB_BYTES);
        os.spawn_app("ckpt-lpd", Box::new(CkptLpd::new(vfs, job, status.clone())));
    }
    (os, status)
}

impl Fleet {
    /// Boots `cfg.nodes` machines and wires them together; `plan` is the
    /// node-level fault schedule (empty for a no-fault control).
    pub fn new(cfg: FleetConfig, plan: NodeChaosPlan) -> Fleet {
        assert!(cfg.nodes >= 2, "a fleet needs at least 2 nodes");
        assert!(!cfg.quantum.is_zero(), "a fleet needs a non-zero quantum");
        // analyze:allow(rng-construction): the fleet root stream; every
        // node and link stream is forked off it by domain and index.
        let root = SimRng::new(cfg.seed);
        let wire = FleetWire::new(cfg.nodes, LINK_LATENCY, &root);
        let mut slots = Vec::with_capacity(usize::from(cfg.nodes));
        for id in 0..cfg.nodes {
            let seed = root.fork_indexed("fleet-node", u64::from(id)).seed();
            let (os, status) = boot_node(seed, 1);
            slots.push(NodeSlot {
                gen: 1,
                seed,
                os: Some(os),
                at: SimTime::ZERO,
                #[cfg(test)]
                advances: 0,
                agent: FleetAgent::new(id, cfg.nodes, 1, SimTime::ZERO),
                status,
                reboot: None,
                sender: SnapSender::default(),
                receiver: SnapReceiver::new(),
                held: Vec::new(),
                // Stagger first exports so transfers do not all collide
                // on the same quanta (purely cosmetic; still deterministic).
                next_snap_at: SimTime::ZERO + SimDuration::from_millis(100 * u64::from(id) + 200),
                pending_fault: None,
            });
        }
        Fleet {
            cfg,
            now: SimTime::ZERO,
            slots,
            wire,
            plan,
            next_conn: 0,
            acks: Vec::new(),
            reint_watch: Vec::new(),
            finalized: false,
            #[cfg(test)]
            stepped_at: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Current fleet time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether node `id` is currently up.
    pub fn is_up(&self, id: u8) -> bool {
        self.slots
            .get(usize::from(id))
            .is_some_and(|s| s.os.is_some())
    }

    /// Node `id`'s current boot generation.
    pub fn generation(&self, id: u8) -> u32 {
        self.slots[usize::from(id)].gen
    }

    /// Node `id`'s workload status handle.
    pub fn workload(&self, id: u8) -> Rc<RefCell<CkptLpdStatus>> {
        Rc::clone(&self.slots[usize::from(id)].status)
    }

    /// Advances the whole fleet by `d`, rounded up to whole quanta. On
    /// return every live machine has been run up to fleet time.
    // analyze:recovery-root
    pub fn run_for(&mut self, d: SimDuration) {
        let end = self.now + SimDuration::from_micros(self.whole_quanta(d.as_micros()));
        loop {
            // Nothing is due before the wake, so the gap only moves the
            // clock: no machine is read in it.
            self.now = self.next_wake(end);
            if self.now >= end {
                break;
            }
            self.step_quantum();
        }
        for slot in &mut self.slots {
            slot.machine(end);
        }
    }

    /// The first grid instant in `now..=end` at which a round could do
    /// anything. Each source is a lower bound on when it next acts: the
    /// plan's next fault, the head of the wire queue, every pending
    /// reboot, and per live node its agent's [`FleetAgent::next_due`] and
    /// either its transfer in flight or, when none is, its next export. (Reintegration is watched by every
    /// round and needs no wake of its own: agent views change only in a
    /// round with a delivery or a tick, generations only in one with a
    /// reboot.)
    fn next_wake(&self, end: SimTime) -> SimTime {
        let now = self.now;
        let shared = [self.plan.next_at(), self.wire.next_delivery_at()];
        let per_node = self.slots.iter().flat_map(|slot| {
            let reboot = slot.reboot.as_ref().map(|r| r.ready_at);
            let live = slot.os.is_some().then(|| {
                let transfer = slot.sender.next_due();
                slot.agent
                    .next_due(now)
                    .min(transfer.unwrap_or(slot.next_snap_at))
            });
            [reboot, live]
        });
        let wake = shared
            .into_iter()
            .chain(per_node)
            .flatten()
            .fold(end, SimTime::min)
            .max(now);
        SimTime::from_micros(self.whole_quanta(wake.as_micros()))
    }

    /// `micros` rounded up to a whole number of quanta.
    fn whole_quanta(&self, micros: u64) -> u64 {
        let quantum = self.cfg.quantum.as_micros();
        micros.div_ceil(quantum) * quantum
    }

    /// One event-loop round at `now` in fixed node-id order: faults, wire,
    /// agents, replication, reboots. The round covers the quantum that
    /// starts at `now`: a fault reads its machine at `now`, and what runs
    /// after it (an agent's sample, an export, a conviction's discard)
    /// reads it at the quantum's end. A machine nothing reads does not
    /// run.
    // analyze:recovery-root
    fn step_quantum(&mut self) {
        #[cfg(test)]
        self.stepped_at.push(self.now);
        let now = self.now;
        for fault in self.plan.pop_due(now) {
            self.apply_fault(now, &fault);
        }
        self.deliver_wire(now);
        self.tick_agents(now);
        self.replicate_snapshots(now);
        self.complete_reboots(now);
        self.watch_reintegration(now);
        self.now = now + self.cfg.quantum;
    }

    /// Applies one scheduled node-level fault.
    fn apply_fault(&mut self, now: SimTime, fault: &NodeFault) {
        match &fault.kind {
            NodeFaultKind::KillRs { node } => {
                let slot = &mut self.slots[usize::from(*node)];
                let killable = slot.reboot.is_none()
                    && slot.pending_fault.is_none()
                    && slot.machine(now).is_some_and(|os| os.kill_by_user("rs"));
                if killable {
                    slot.pending_fault = Some(now);
                    self.metrics.incr("fleet.fault.kill_rs");
                } else {
                    self.metrics.incr("fleet.fault.skipped");
                }
            }
            NodeFaultKind::NodeCrash { node } => {
                let slot = &mut self.slots[usize::from(*node)];
                if slot.os.is_none() || slot.reboot.is_some() || slot.pending_fault.is_some() {
                    self.metrics.incr("fleet.fault.skipped");
                    return;
                }
                // Power failure: the machine, its in-flight transfers
                // and every snapshot it held for peers all vanish. The
                // machine runs up to the failure first: its workload
                // status outlives it until the reboot.
                slot.machine(now);
                slot.os = None;
                slot.sender.abandon();
                slot.receiver.abandon();
                slot.held.clear();
                slot.pending_fault = Some(now);
                self.metrics.incr("fleet.fault.node_crash");
            }
            NodeFaultKind::Partition {
                a,
                b,
                direction,
                duration,
            } => {
                self.wire.partition(*a, *b, *direction, now + *duration);
                self.metrics.incr("fleet.fault.partition");
            }
            NodeFaultKind::Loss {
                a,
                b,
                direction,
                prob,
                duration,
            } => {
                self.wire
                    .set_loss(*a, *b, *direction, *prob, now + *duration);
                self.metrics.incr("fleet.fault.loss");
            }
        }
    }

    /// Delivers due wire payloads to agents and transfer endpoints.
    fn deliver_wire(&mut self, now: SimTime) {
        for d in self.wire.pop_due(now) {
            let slot = &mut self.slots[usize::from(d.to)];
            if slot.os.is_none() {
                // Frames to a dead node fall on the floor.
                continue;
            }
            match d.payload {
                Payload::Gossip(frame) => slot.agent.on_frame(now, &frame),
                Payload::TransferAck(ack) => slot.sender.on_ack(now, &ack),
                Payload::Transfer(seg) => {
                    let (ack, complete) = slot.receiver.on_segment(&seg);
                    self.acks.push((d.to, d.from, ack));
                    if let Some(img) = complete {
                        if NodeSnapshot::check(img) {
                            self.metrics.incr("fleet.snap.replicated");
                            // The receiver reassembles the next image
                            // into the buffer of the one held until now.
                            mem::swap(&mut slot.held, img);
                        } else {
                            self.metrics.incr("fleet.snap.corrupt");
                        }
                    }
                }
            }
        }
        for (from, to, ack) in self.acks.drain(..) {
            self.wire.send(now, from, to, Payload::TransferAck(ack));
        }
    }

    /// Ticks every live agent that is due with a fresh local-health
    /// sample, read at the end of the quantum.
    fn tick_agents(&mut self, now: SimTime) {
        let end = now + self.cfg.quantum;
        for id in 0..self.cfg.nodes {
            let slot = &mut self.slots[usize::from(id)];
            if slot.agent.next_due(now) > now {
                continue;
            }
            let Some(os) = slot.machine(end) else {
                continue;
            };
            let local = LocalView {
                rs_beacon: os.metrics().counter("rs.beacon"),
                rs_up: os.is_up("rs"),
            };
            let out = slot.agent.tick(now, &local);
            for (to, frame) in out.frames.drain(..) {
                self.wire.send(now, id, to, Payload::Gossip(frame));
            }
            // Verdicts are rare: taking them leaves an empty buffer behind.
            for action in std::mem::take(&mut out.actions) {
                self.execute(now, action);
            }
        }
    }

    /// Executes an arbiter's verdict: the ReHype path that recovers the
    /// recoverer by rebooting the whole node from peer-held state.
    // analyze:recovery-root
    fn execute(&mut self, now: SimTime, action: FleetAction) {
        let FleetAction::Convict {
            node,
            gen,
            evidence: ev,
        } = action;
        let slot = &mut self.slots[usize::from(node)];
        if slot.reboot.is_some() || slot.gen > gen {
            self.metrics.incr("fleet.convictions.duplicate");
            return;
        }
        self.metrics.incr("fleet.convictions");
        self.metrics.incr(evidence::conviction_counter(ev));
        match slot.pending_fault.take() {
            Some(fault_at) => {
                let detect = now - fault_at;
                self.metrics.record_duration("fleet.mttr.detect", detect);
                self.metrics.incr("fleet.mttr.detect.samples");
                self.metrics
                    .add("fleet.mttr.detect.total_us", detect.as_micros());
            }
            None => {
                // No injected fault explains this verdict: a false
                // restart (the no-fault control gates on this).
                self.metrics.incr("fleet.convictions.false");
            }
        }
        // Crash-only: discard the machine now (run to the end of the
        // quantum first, as its workload status outlives it); the reborn
        // one boots after the modeled outage, seeded from a peer-held
        // snapshot.
        slot.machine(now + self.cfg.quantum);
        slot.os = None;
        slot.sender.abandon();
        slot.receiver.abandon();
        let succ = &self.slots[usize::from((node + 1) % self.cfg.nodes)];
        let snapshot = NodeSnapshot::decode(&succ.held).filter(|s| s.node == node);
        if snapshot.is_none() {
            self.metrics.incr("fleet.recover.cold");
        }
        self.slots[usize::from(node)].reboot = Some(Reboot {
            ready_at: now + REBOOT_DELAY,
            snapshot,
            convict_at: now,
        });
    }

    /// Starts due snapshot exports, each read at the end of the quantum,
    /// and pumps the transfer senders that are due.
    fn replicate_snapshots(&mut self, now: SimTime) {
        let end = now + self.cfg.quantum;
        for (id, slot) in (0..).zip(&mut self.slots) {
            if slot.os.is_none() {
                continue;
            }
            if slot.sender.is_done() && now >= slot.next_snap_at {
                slot.next_snap_at = now + SNAP_PERIOD;
                let store = slot.machine(end).and_then(|os| os.ckpt_store());
                let gen = slot.gen;
                self.next_conn = self.next_conn.wrapping_add(1);
                slot.sender.restart(self.next_conn, |buf| match store {
                    Some(store) => {
                        NodeSnapshot::image(buf, id, gen, store.borrow().records(), iter::empty());
                    }
                    None => NodeSnapshot::image(buf, id, gen, iter::empty(), iter::empty()),
                });
                self.metrics.incr("fleet.snap.exported");
            }
            // A sender that is not due would send nothing and change
            // nothing: most rounds, every sender is done or waiting.
            if slot.sender.next_due().is_none_or(|at| at > now) {
                continue;
            }
            let succ = (id + 1) % self.cfg.nodes;
            for seg in slot.sender.tick(now) {
                self.wire.send(now, id, succ, Payload::Transfer(seg));
            }
        }
    }

    /// Boots reborn nodes whose outage has elapsed and adopts their
    /// peer-held snapshot.
    // analyze:recovery-root
    fn complete_reboots(&mut self, now: SimTime) {
        for (id, slot) in (0..).zip(&mut self.slots) {
            let Some(reboot) = slot.reboot.take_if(|r| now >= r.ready_at) else {
                continue;
            };
            slot.gen += 1;
            let (os, status) = boot_node(slot.seed, slot.gen);
            if let (Some(snap), Some(store)) = (&reboot.snapshot, os.ckpt_store()) {
                let mut store = store.borrow_mut();
                for (owner, key, wire) in &snap.ckpt {
                    if store.adopt(owner, key, wire) {
                        self.metrics.incr("fleet.recover.adopted_ckpt");
                    }
                }
            }
            // The dying incarnation's agent counters are folded before
            // its replacement takes over the slot.
            slot.agent.stats.fold_into(&mut self.metrics);
            slot.agent = FleetAgent::new(id, self.cfg.nodes, slot.gen, now);
            slot.os = Some(os);
            // Booted in this round, the machine first runs in the next.
            slot.at = now + self.cfg.quantum;
            slot.status = status;
            slot.next_snap_at = now + SimDuration::from_millis(500);
            self.metrics.incr("fleet.reboots");
            let repair = now - reboot.convict_at;
            self.metrics.record_duration("fleet.mttr.repair", repair);
            self.metrics.incr("fleet.mttr.repair.samples");
            self.metrics
                .add("fleet.mttr.repair.total_us", repair.as_micros());
            self.reint_watch.push((id, slot.gen, now));
        }
    }

    /// Closes the reintegration phase once any live peer has observed a
    /// heartbeat from the reborn generation.
    fn watch_reintegration(&mut self, now: SimTime) {
        let mut closed = Vec::new();
        for (i, &(node, gen, _)) in self.reint_watch.iter().enumerate() {
            if self.slots[usize::from(node)].gen > gen {
                closed.push((i, false)); // superseded by a newer reboot
                continue;
            }
            let seen = self.slots.iter().enumerate().any(|(peer, slot)| {
                peer != usize::from(node)
                    && slot.os.is_some()
                    && slot
                        .agent
                        .view_of(node)
                        .is_some_and(|(g, seq)| g == gen && seq > 0)
            });
            if seen {
                closed.push((i, true));
            }
        }
        for &(i, reintegrated) in closed.iter().rev() {
            let (_, _, since) = self.reint_watch.remove(i);
            if reintegrated {
                let d = now - since;
                self.metrics.record_duration("fleet.mttr.reintegrate", d);
                self.metrics.incr("fleet.mttr.reintegrate.samples");
                self.metrics
                    .add("fleet.mttr.reintegrate.total_us", d.as_micros());
            }
        }
    }

    /// Folds remaining per-agent and wire counters into the registry.
    /// Call once, before digesting; further runs would double-count.
    pub fn finalize(&mut self) {
        assert!(!self.finalized, "finalize must be called once");
        self.finalized = true;
        for slot in &self.slots {
            slot.agent.stats.fold_into(&mut self.metrics);
        }
        self.metrics.add("fleet.wire.sent", self.wire.stats.sent);
        self.metrics
            .add("fleet.wire.delivered", self.wire.stats.delivered);
        self.metrics
            .add("fleet.wire.dropped_loss", self.wire.stats.dropped_loss);
        self.metrics
            .add("fleet.wire.dropped_cut", self.wire.stats.dropped_cut);
        self.metrics.add(
            "fleet.faults.unrecovered",
            self.slots
                .iter()
                .filter(|s| s.pending_fault.is_some())
                .count() as u64,
        );
        self.metrics.add(
            "fleet.nodes.down",
            self.slots.iter().filter(|s| s.os.is_none()).count() as u64,
        );
    }

    /// Per-node determinism fingerprints: each live node's sorted-counter
    /// digest, `down` for dead ones.
    pub fn node_digests(&self) -> Vec<String> {
        self.slots
            .iter()
            .map(|slot| match &slot.os {
                Some(os) => metrics_digest(os),
                None => "down".to_string(),
            })
            .collect()
    }

    /// The fleet determinism fingerprint: MD5 over every node digest
    /// plus the fleet's own sorted counters. Call after [`finalize`].
    ///
    /// [`finalize`]: Fleet::finalize
    pub fn digest(&self) -> String {
        let mut md5 = Md5::new();
        // The lines `node{id}={d}` of `node_digests`, each written
        // straight into the hash. Writing into an `Md5` cannot fail.
        for (id, slot) in self.slots.iter().enumerate() {
            let _ = write!(md5, "node{id}=");
            match &slot.os {
                Some(os) => {
                    let mut node = Md5::new();
                    os.metrics().digest_counters(&mut node);
                    for b in node.finish() {
                        let _ = write!(md5, "{b:02x}");
                    }
                }
                None => md5.update(b"down"),
            }
            md5.update(b"\n");
        }
        self.metrics.digest_counters(&mut md5);
        md5.finish_hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Frame;
    use phoenix_fault::LinkDirection;

    fn quick_cfg(seed: u64) -> FleetConfig {
        FleetConfig {
            nodes: 4,
            seed,
            ..FleetConfig::default()
        }
    }

    fn run(cfg: FleetConfig, plan: NodeChaosPlan, d: SimDuration) -> Fleet {
        let mut fleet = Fleet::new(cfg, plan);
        fleet.run_for(d);
        fleet.finalize();
        fleet
    }

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// A 4-node no-fault fleet at 205 ms with its step log cleared: the
    /// beats of 200 ms and node 0's first export have drained, so until
    /// the beats of 250 ms nothing is due anywhere.
    fn quiet_fleet() -> Fleet {
        let mut fleet = Fleet::new(quick_cfg(5), NodeChaosPlan::new());
        fleet.run_for(ms(205));
        fleet.stepped_at.clear();
        fleet
    }

    /// Every live machine's own clock, in id order.
    fn clocks(fleet: &Fleet) -> Vec<SimTime> {
        let live = fleet.slots.iter().filter_map(|slot| slot.os.as_ref());
        live.map(Os::now).collect()
    }

    /// With nothing due the loop runs no round at all, and the machines
    /// still arrive at fleet time (a machine's own clock starts at its
    /// boot settle, so it reads that much more).
    #[test]
    fn a_stretch_with_nothing_due_runs_no_round() {
        let booted = clocks(&Fleet::new(quick_cfg(5), NodeChaosPlan::new()));
        assert_eq!(booted.len(), 4);
        let mut fleet = quiet_fleet();
        fleet.run_for(ms(40));
        assert_eq!(fleet.now(), at_us(245_000));
        assert_eq!(fleet.stepped_at, []);
        let elapsed = fleet.now() - SimTime::ZERO;
        let expected: Vec<SimTime> = booted.iter().map(|&t| t + elapsed).collect();
        assert_eq!(clocks(&fleet), expected);
        // The beats of 250 ms and their deliveries one latency later.
        fleet.run_for(ms(40));
        assert_eq!(fleet.stepped_at, [at_us(250_000), at_us(251_000)]);
    }

    /// A round that only delivers frames reads no machine, so it runs
    /// none; the next `run_for` still returns with every machine at
    /// fleet time.
    #[test]
    fn a_round_of_deliveries_alone_runs_no_machine() {
        let booted = clocks(&Fleet::new(quick_cfg(5), NodeChaosPlan::new()));
        let mut fleet = quiet_fleet();
        fleet.run_for(ms(45));
        assert_eq!(fleet.now(), at_us(250_000));
        // The beats of 250 ms: every agent samples its machine.
        fleet.step_quantum();
        let beaten = clocks(&fleet);
        // Their deliveries one latency later, and nothing else.
        fleet.step_quantum();
        assert_eq!(fleet.stepped_at, [at_us(250_000), at_us(251_000)]);
        assert_eq!(clocks(&fleet), beaten, "a delivery round ran a machine");
        fleet.run_for(ms(9));
        let elapsed = fleet.now() - SimTime::ZERO;
        let expected: Vec<SimTime> = booted.iter().map(|&t| t + elapsed).collect();
        assert_eq!(clocks(&fleet), expected);
    }

    /// The return contract under faults: after every `run_for`, on the
    /// grid and off it, each live machine has run exactly the fleet time
    /// since it booted, through an RS kill, a crash, their convictions
    /// and both reboots.
    #[test]
    fn every_run_for_returns_with_each_live_machine_at_fleet_time() {
        let plan = NodeChaosPlan::new()
            .schedule(at_us(1_000_500), NodeFaultKind::KillRs { node: 1 })
            .schedule(at_us(1_500_000), NodeFaultKind::NodeCrash { node: 3 });
        let mut fleet = Fleet::new(quick_cfg(7), plan);
        // Per node: its generation, its machine's clock at boot, and the
        // fleet time the machine first ran from.
        let mut booted: Vec<(u32, SimTime, SimTime)> = fleet
            .slots
            .iter()
            .zip(clocks(&fleet))
            .map(|(slot, clock)| (slot.gen, clock, SimTime::ZERO))
            .collect();
        let slices = [ms(1), ms(7), SimDuration::from_micros(1_500)];
        while fleet.now() < at_us(8_000_000) {
            for slice in slices {
                let ready: Vec<Option<SimTime>> = fleet
                    .slots
                    .iter()
                    .map(|slot| slot.reboot.as_ref().map(|r| r.ready_at))
                    .collect();
                fleet.run_for(slice);
                let now = fleet.now();
                for (id, slot) in fleet.slots.iter().enumerate() {
                    if slot.gen != booted[id].0 {
                        // Booted by the round at `ready_at` (a grid
                        // instant: a conviction's plus the outage), the
                        // machine first ran in the next.
                        let start = ready[id].expect("a reboot was pending") + fleet.cfg.quantum;
                        let clock = boot_node(slot.seed, slot.gen).0.now();
                        booted[id] = (slot.gen, clock, start);
                    }
                    if let Some(os) = &slot.os {
                        let (_, clock, start) = booted[id];
                        assert_eq!(os.now(), clock + (now - start), "node {id} at {now:?}");
                    }
                }
            }
        }
        assert_eq!(fleet.metrics.counter("fleet.fault.kill_rs"), 1);
        assert_eq!(fleet.metrics.counter("fleet.fault.node_crash"), 1);
        assert_eq!(fleet.metrics.counter("fleet.convictions"), 2);
        assert_eq!(fleet.metrics.counter("fleet.reboots"), 2);
        assert_eq!(fleet.generation(1), 2);
        assert_eq!(fleet.generation(3), 2);
    }

    /// A scheduled fault wakes the loop at the first grid instant at or
    /// after its time, and not before.
    #[test]
    fn a_scheduled_fault_wakes_the_loop_at_its_quantum() {
        let mut fleet = quiet_fleet();
        fleet.plan = NodeChaosPlan::new().schedule(
            at_us(220_500),
            NodeFaultKind::Loss {
                a: 0,
                b: 1,
                direction: LinkDirection::Both,
                prob: 0.0,
                duration: ms(1),
            },
        );
        fleet.run_for(ms(40));
        assert_eq!(fleet.stepped_at, [at_us(221_000)]);
        assert_eq!(fleet.metrics.counter("fleet.fault.loss"), 1);
    }

    /// A queued delivery wakes the loop when it falls due.
    #[test]
    fn a_queued_delivery_wakes_the_loop_at_its_quantum() {
        let mut fleet = quiet_fleet();
        let frame = Frame::heartbeat(0, 1, Vec::new());
        fleet
            .wire
            .send(at_us(217_300), 0, 1, Payload::Gossip(frame));
        let delivered = fleet.wire.stats.delivered;
        fleet.run_for(ms(40));
        assert_eq!(fleet.stepped_at, [at_us(219_000)]);
        assert_eq!(fleet.wire.stats.delivered, delivered + 1);
    }

    /// A pending reboot wakes the loop when the outage has elapsed.
    #[test]
    fn a_pending_reboot_wakes_the_loop_at_its_quantum() {
        let mut fleet = quiet_fleet();
        fleet.slots[2].os = None;
        fleet.slots[2].reboot = Some(Reboot {
            ready_at: at_us(230_200),
            snapshot: None,
            convict_at: fleet.now(),
        });
        fleet.run_for(ms(27));
        assert_eq!(fleet.stepped_at, [at_us(231_000)]);
        assert_eq!(fleet.generation(2), 2);
        assert!(fleet.is_up(2));
    }

    /// A node's next export wakes the loop while it has no transfer in
    /// flight.
    #[test]
    fn a_due_export_wakes_the_loop_at_its_quantum() {
        let mut fleet = quiet_fleet();
        let exported = fleet.metrics.counter("fleet.snap.exported");
        fleet.slots[3].next_snap_at = at_us(225_400);
        fleet.run_for(ms(22));
        assert_eq!(fleet.stepped_at, [at_us(226_000)]);
        assert_eq!(fleet.metrics.counter("fleet.snap.exported"), exported + 1);
    }

    /// A transfer in flight wakes the loop at its RTO deadline — and its
    /// node's export time, long past, does not.
    #[test]
    fn a_sender_rto_deadline_wakes_the_loop_at_its_quantum() {
        let mut fleet = quiet_fleet();
        let mut tx = SnapSender::new(99, vec![7; 100]);
        // The first flight is lost; the RTO runs from when it was sent.
        let lost = tx.tick(at_us(22_600));
        assert_eq!(lost.count(), 1);
        fleet.slots[0].sender = tx;
        fleet.slots[0].next_snap_at = SimTime::ZERO;
        let sent = fleet.wire.stats.sent;
        fleet.run_for(ms(19));
        assert_eq!(fleet.stepped_at, [at_us(223_000)]);
        assert_eq!(fleet.wire.stats.sent, sent + 1, "the retransmission");
    }

    /// An agent whose ledger holds anything is ticked every quantum.
    #[test]
    fn an_agent_with_a_ledger_entry_is_stepped_every_quantum() {
        let mut fleet = quiet_fleet();
        let now = fleet.now();
        let complaint = Frame::complain(1, 1, 2, 1, evidence::NODE_UNREACHABLE);
        fleet.slots[0].agent.on_frame(now, &complaint);
        assert_eq!(fleet.slots[0].agent.arbiter().evidence(2).count(), 1);
        fleet.run_for(ms(20));
        let every: Vec<SimTime> = (205..225).map(|t| at_us(t * 1_000)).collect();
        assert_eq!(fleet.stepped_at, every);
    }

    /// A conviction adopts the snapshot the subject's ring successor
    /// holds and leaves what the convicted node held; a successor that
    /// crashed first held nothing, so the node reboots cold.
    #[test]
    fn a_conviction_adopts_the_snapshot_its_successor_holds() {
        let mut fleet = Fleet::new(quick_cfg(5), NodeChaosPlan::new());
        fleet.run_for(ms(2_500));
        let now = fleet.now();
        let held_by = |fleet: &Fleet, id: usize| NodeSnapshot::decode(&fleet.slots[id].held);
        let held = held_by(&fleet, 2);
        assert_eq!(held.as_ref().map(|s| s.node), Some(1));
        let convict = |node| FleetAction::Convict {
            node,
            gen: 1,
            evidence: evidence::NODE_UNREACHABLE,
        };
        fleet.execute(now, convict(1));
        let reboot = fleet.slots[1].reboot.as_ref();
        assert_eq!(reboot.map(|r| &r.snapshot), Some(&held));
        assert_eq!(held_by(&fleet, 1).map(|s| s.node), Some(0));
        assert_eq!(fleet.metrics.counter("fleet.recover.cold"), 0);

        assert!(!fleet.slots[3].held.is_empty());
        let crash = NodeFault {
            at: now,
            kind: NodeFaultKind::NodeCrash { node: 3 },
        };
        fleet.apply_fault(now, &crash);
        assert!(fleet.slots[3].held.is_empty());
        fleet.execute(now, convict(2));
        let reboot = fleet.slots[2].reboot.as_ref();
        assert!(reboot.is_some_and(|r| r.snapshot.is_none()));
        assert_eq!(fleet.metrics.counter("fleet.recover.cold"), 1);
    }

    /// The benchmark's campaign shape at 12 faults, in one `run_for`: the
    /// rounds the loop runs (every quantum ran one before the loop was
    /// due-driven) and the times it runs a machine forward (every live
    /// machine at every round and every idle gap before machines ran only
    /// when read), pinned as literals and printed.
    #[test]
    fn the_campaign_pins_its_rounds_and_machine_advances() {
        let cfg = FleetConfig {
            nodes: 8,
            seed: 2007,
            ..FleetConfig::default()
        };
        let mut rng = SimRng::new(cfg.seed).fork("fleet-campaign-plan");
        let plan = NodeChaosPlan::campaign_mix(
            cfg.nodes,
            12,
            SimTime::ZERO + SimDuration::from_secs(5),
            SimDuration::from_secs(10),
            &mut rng,
        );
        let fleet = run(cfg, plan, SimDuration::from_secs(140));
        assert_eq!(fleet.metrics.counter("fleet.faults.unrecovered"), 0);
        let quanta = 140_000;
        let rounds = fleet.stepped_at.len();
        let advances: u64 = fleet.slots.iter().map(|slot| slot.advances).sum();
        println!(
            "fleet loop: 8 nodes, 12 faults, {quanta} quanta: {rounds} rounds, \
             {advances} machine advances"
        );
        assert_eq!((rounds, advances), (15_726, 22_588));
    }

    /// A fault-free fleet never convicts anyone: every node stays up at
    /// generation 1 with zero complaints surviving to a verdict.
    #[test]
    fn no_fault_control_has_zero_convictions() {
        let fleet = run(
            quick_cfg(11),
            NodeChaosPlan::default(),
            SimDuration::from_secs(20),
        );
        assert_eq!(fleet.metrics.counter("fleet.convictions"), 0);
        assert_eq!(fleet.metrics.counter("fleet.reboots"), 0);
        for id in 0..4 {
            assert!(fleet.is_up(id));
            assert_eq!(fleet.generation(id), 1);
        }
        // Snapshot replication ran in the background the whole time.
        assert!(fleet.metrics.counter("fleet.snap.replicated") > 0);
    }

    /// Satellite 3: per-node RNG stream forking is deterministic — two
    /// runs of the same fleet seed produce byte-identical per-node and
    /// fleet digests; a different seed diverges; distinct nodes diverge
    /// from each other.
    #[test]
    fn same_seed_fleets_are_byte_identical() {
        let mk_plan = || {
            let mut rng = SimRng::new(77).fork("plan");
            NodeChaosPlan::campaign_mix(
                4,
                6,
                SimTime::ZERO + SimDuration::from_secs(3),
                SimDuration::from_secs(10),
                &mut rng,
            )
        };
        let plan_a = mk_plan();
        let plan_b = mk_plan();
        let a = run(quick_cfg(42), plan_a, SimDuration::from_secs(70));
        let b = run(quick_cfg(42), plan_b, SimDuration::from_secs(70));
        assert_eq!(a.node_digests(), b.node_digests());
        assert_eq!(a.digest(), b.digest());
        let c = run(
            quick_cfg(43),
            NodeChaosPlan::default(),
            SimDuration::from_secs(70),
        );
        assert_ne!(a.digest(), c.digest());
        // Node streams are forked by id: siblings never shadow each other.
        let digests = a.node_digests();
        assert_ne!(digests[0], digests[1]);
    }

    /// Recover-the-recoverer: a node whose RS is killed stops beaconing,
    /// peers convict it as `rs-silent`, and a surviving peer's verdict
    /// reincarnates the node at the next generation with its peer-held
    /// snapshot adopted.
    #[test]
    fn killed_rs_is_convicted_and_node_reincarnated_by_peers() {
        let plan = NodeChaosPlan::new().schedule(
            SimTime::ZERO + SimDuration::from_secs(5),
            NodeFaultKind::KillRs { node: 1 },
        );
        let fleet = run(quick_cfg(7), plan, SimDuration::from_secs(20));
        assert_eq!(fleet.metrics.counter("fleet.fault.kill_rs"), 1);
        assert_eq!(fleet.metrics.counter("fleet.convictions"), 1);
        assert_eq!(fleet.metrics.counter("fleet.convictions.rs-silent"), 1);
        assert_eq!(fleet.metrics.counter("fleet.convictions.false"), 0);
        assert_eq!(fleet.metrics.counter("fleet.reboots"), 1);
        assert!(fleet.is_up(1));
        assert_eq!(fleet.generation(1), 2);
        // The newborn got its peer-held state, not a cold start: the
        // workload's records live in the checkpoint store.
        assert_eq!(fleet.metrics.counter("fleet.recover.cold"), 0);
        assert!(fleet.metrics.counter("fleet.recover.adopted_ckpt") > 0);
        // Reintegration closed: a peer saw the new generation beat.
        assert_eq!(fleet.metrics.counter("fleet.mttr.reintegrate.samples"), 1);
        assert_eq!(fleet.metrics.counter("fleet.mttr.detect.samples"), 1);
    }

    /// A whole-node power failure is detected as unreachable by its
    /// peers and the node is rebooted from the snapshot its successor
    /// held.
    #[test]
    fn crashed_node_is_rebooted_from_peer_snapshot() {
        let plan = NodeChaosPlan::new().schedule(
            SimTime::ZERO + SimDuration::from_secs(6),
            NodeFaultKind::NodeCrash { node: 2 },
        );
        let fleet = run(quick_cfg(9), plan, SimDuration::from_secs(20));
        assert_eq!(fleet.metrics.counter("fleet.fault.node_crash"), 1);
        assert_eq!(fleet.metrics.counter("fleet.convictions"), 1);
        assert_eq!(
            fleet.metrics.counter("fleet.convictions.node-unreachable"),
            1
        );
        assert_eq!(fleet.metrics.counter("fleet.reboots"), 1);
        assert!(fleet.is_up(2));
        assert_eq!(fleet.generation(2), 2);
        assert_eq!(fleet.metrics.counter("fleet.faults.unrecovered"), 0);
    }

    /// A transient one-way partition alone must not convict anyone: the
    /// ring routes gossip around the cut link and the windows are shorter
    /// than the suspicion horizon allows a quorum to form against a node
    /// that keeps beating to its other neighbor.
    #[test]
    fn transient_one_way_partition_causes_no_false_restart() {
        let plan = NodeChaosPlan::new().schedule(
            SimTime::ZERO + SimDuration::from_secs(4),
            NodeFaultKind::Partition {
                a: 0,
                b: 1,
                direction: LinkDirection::AToB,
                duration: SimDuration::from_secs(3),
            },
        );
        let fleet = run(quick_cfg(13), plan, SimDuration::from_secs(15));
        assert_eq!(fleet.metrics.counter("fleet.fault.partition"), 1);
        assert_eq!(fleet.metrics.counter("fleet.convictions"), 0);
        assert_eq!(fleet.metrics.counter("fleet.reboots"), 0);
        assert!(fleet.metrics.counter("fleet.wire.dropped_cut") > 0);
    }
}
