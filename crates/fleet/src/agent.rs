//! The per-node fleet agent: one end of the DIR-Net-style two-level
//! backbone. Level one is each node's local RS recovering its own
//! drivers and servers; level two is this agent, gossiping RS liveness
//! beacons and node health around the watchdog ring and running the
//! federated evidence ledger that convicts a dead RS or a dead node.
//!
//! The agent is a pure protocol state machine: the fleet event loop
//! feeds it delivered frames ([`FleetAgent::on_frame`]) and ticks it
//! with a sample of its node's local state ([`FleetAgent::tick`]); it
//! hands back frames to transmit and [`FleetAction`]s for the fleet to
//! execute, in an output buffer it keeps. It never touches an `Os`
//! directly, which keeps every transition unit-testable without booting
//! machines.
//!
//! Complaints are judged by RS's own arbiter ([`Arbiter`]), keyed by node
//! id: the rules of a node and of the fleet are one rule set (DESIGN §5f
//! has the table that chose it). A complaint carries an evidence kind
//! (`rs-silent` when a node's heartbeats stay fresh but its RS beacon
//! stops advancing; `node-unreachable` when the heartbeats themselves
//! stop) and the accused generation, so a node is an incarnation
//! `(id, generation)` to the arbiter. What is the fleet's own: the peer
//! views, the reboot grace around a conviction, the liveness rebuttal
//! that withdraws evidence, and the ring-successor arbiter that alone
//! executes a verdict, checked at every tick.

use std::collections::BTreeMap;
use std::rc::Rc;

use phoenix::kernel::types::{Endpoint, Message};
use phoenix_servers::proto::evidence;
use phoenix_servers::rs::decide::{Accusation, Accused, Arbiter, Quorum, Verdict};
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::proto::{gossip, Frame, NodeStat};

// The sliding evidence window for quorum and inversion, and the distinct
// subjects inside it that invert an accuser, are the arbiter's.
pub use phoenix_servers::rs::decide::{COMPLAINT_WINDOW, INVERSION_ACCUSED};

/// Heartbeat gossip period.
pub const HB_PERIOD: SimDuration = SimDuration::from_millis(50);
/// Heartbeat-silence threshold before a `node-unreachable` complaint.
pub const NODE_SUSPECT_AFTER: SimDuration = SimDuration::from_millis(500);
/// Beacon-stall threshold before an `rs-silent` complaint. The RS audit
/// sweep advances the beacon every 750 ms, so anything past two missed
/// sweeps plus gossip propagation is a stall, not jitter.
pub const RS_SUSPECT_AFTER: SimDuration = SimDuration::from_secs(2);
/// Minimum spacing between re-complaints about the same subject.
pub const RECOMPLAIN_AFTER: SimDuration = SimDuration::from_millis(500);
/// Complaint suppression around a conviction, covering the reboot.
pub const REBOOT_GRACE: SimDuration = SimDuration::from_secs(4);

/// What convicts a node of an `n`-node fleet: `min(n − 1, 2)` distinct
/// accusers. Repeats never convict on volume alone: they are one
/// observer's view, and a partitioned node repeats itself every
/// [`RECOMPLAIN_AFTER`].
pub fn quorum(n: u8) -> Quorum {
    Quorum {
        complaints: usize::MAX,
        accusers: usize::from(n.saturating_sub(1)).min(2),
    }
}

/// What the fleet event loop must do on the agent's behalf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetAction {
    /// Quorum convicted `node` (at generation `gen`); this agent is the
    /// arbiter and the fleet must reincarnate the node from a peer-held
    /// snapshot.
    Convict {
        /// The convicted node.
        node: u8,
        /// The generation that died.
        gen: u32,
        /// Dominant evidence kind behind the verdict.
        evidence: u32,
    },
}

/// One tick's output, in a buffer the agent keeps across ticks.
#[derive(Clone, Debug, Default)]
pub struct AgentOutput {
    /// Frames to transmit, as `(destination, frame)`.
    pub frames: Vec<(u8, Frame)>,
    /// Verdicts for the fleet to execute.
    pub actions: Vec<FleetAction>,
}

/// Sample of the local node's health, taken by the fleet each tick.
#[derive(Clone, Copy, Debug)]
pub struct LocalView {
    /// The local `rs.beacon` counter.
    pub rs_beacon: u64,
    /// Whether the local RS endpoint is up.
    pub rs_up: bool,
}

/// The agent's freshest knowledge of one peer.
#[derive(Clone, Copy, Debug)]
struct PeerView {
    gen: u32,
    hb_seq: u64,
    last_change_at: SimTime,
    beacon: u64,
    beacon_change_at: SimTime,
    rs_up: bool,
}

impl PeerView {
    /// A peer presumed alive at `gen` as of `now`, nothing heard yet.
    fn presumed(gen: u32, now: SimTime) -> PeerView {
        PeerView {
            gen,
            hb_seq: 0,
            last_change_at: now,
            beacon: 0,
            beacon_change_at: now,
            rs_up: true,
        }
    }
}

/// What the agent keeps about one node id.
#[derive(Clone, Debug)]
struct Peer {
    /// `None` at the agent's own id.
    view: Option<PeerView>,
    /// Complaints about the node are suppressed before this; `ZERO` (the
    /// start) reads as no grace at all.
    grace_until: SimTime,
    last_complaint_at: Option<SimTime>,
}

/// Ledger and protocol counters, folded into the fleet's metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentStats {
    /// Complaints this agent raised.
    pub complaints_sent: u64,
    /// Complaints accepted into the ledger.
    pub complaints_accepted: u64,
    /// Complaints rejected as ghosts (stale generation).
    pub ghost_rejected: u64,
    /// Accusers inverted for mass accusation.
    pub inversions: u64,
    /// Liveness rebuttals transmitted.
    pub rebuttals_sent: u64,
    /// Complaints cleared by a peer's rebuttal.
    pub rebutted_cleared: u64,
    /// Convictions this agent arbitrated.
    pub convictions: u64,
}

impl AgentStats {
    /// Adds every counter into `metrics` under `fleet.agent.*`.
    pub fn fold_into(&self, metrics: &mut MetricsRegistry) {
        metrics.add("fleet.agent.complaints_sent", self.complaints_sent);
        metrics.add("fleet.agent.complaints_accepted", self.complaints_accepted);
        metrics.add("fleet.agent.ghost_rejected", self.ghost_rejected);
        metrics.add("fleet.agent.inversions", self.inversions);
        metrics.add("fleet.agent.rebuttals_sent", self.rebuttals_sent);
        metrics.add("fleet.agent.rebutted_cleared", self.rebutted_cleared);
        metrics.add("fleet.agent.convictions", self.convictions);
    }
}

/// The per-node watchdog agent.
#[derive(Clone, Debug)]
pub struct FleetAgent {
    /// This node's id.
    pub id: u8,
    n: u8,
    /// This node's boot generation.
    pub gen: u32,
    hb_seq: u64,
    next_hb_at: SimTime,
    /// Indexed by node id.
    peers: Vec<Peer>,
    arbiter: Arbiter<u8>,
    rebut: Option<u32>,
    /// [`FleetAgent::next_due`]'s watch term, [`FleetAgent::watch_scan`]
    /// kept fresh where `new`, `on_frame` and `tick` end: nothing else
    /// changes `next_hb_at`, a view or a grace.
    watch_due: SimTime,
    /// The gossip vector of the last beat, `n` stats: this node's, then
    /// every peer's in id order. Each beat refills it through
    /// `Rc::make_mut`, which writes in place when no frame holds it any
    /// more and into a copy when one still does (or a clone of the agent
    /// shares it), so a frame in flight keeps the stats of its send time.
    beat: Rc<[NodeStat]>,
    /// What the last [`FleetAgent::tick`] put out.
    out: AgentOutput,
    /// Protocol counters.
    pub stats: AgentStats,
}

impl FleetAgent {
    /// A fresh agent for node `id` of `n`, booting at generation `gen`
    /// at fleet time `now`. Every peer starts presumed alive as of
    /// `now`, so suspicion needs a real silence, not a cold view.
    pub fn new(id: u8, n: u8, gen: u32, now: SimTime) -> FleetAgent {
        let peers = (0..n)
            .map(|node| Peer {
                view: (node != id).then(|| PeerView::presumed(0, now)),
                grace_until: SimTime::ZERO,
                last_complaint_at: None,
            })
            .collect();
        let mut agent = FleetAgent {
            id,
            n,
            gen,
            hb_seq: 0,
            next_hb_at: now,
            peers,
            arbiter: Arbiter::default(),
            rebut: None,
            watch_due: now,
            beat: std::iter::repeat_n(NodeStat::default(), usize::from(n)).collect(),
            out: AgentOutput::default(),
            stats: AgentStats::default(),
        };
        agent.watch_due = agent.watch_scan();
        agent
    }

    /// The agent's current view of `node`: `(generation, hb sequence)`.
    pub fn view_of(&self, node: u8) -> Option<(u32, u64)> {
        self.view(node).map(|v| (v.gen, v.hb_seq))
    }

    /// The view of `node`; `None` for this agent's own id and for an id
    /// past the fleet (a frame may name one).
    fn view(&self, node: u8) -> Option<PeerView> {
        self.peers.get(usize::from(node))?.view
    }

    /// The arbiter, for a test that checks what it holds.
    pub fn arbiter(&self) -> &Arbiter<u8> {
        &self.arbiter
    }

    /// The node `step` places after `node` on the ring. Summed wide:
    /// past 128 nodes `node + step` does not fit a `u8`, though the
    /// position, below `n`, does.
    fn ring(&self, node: u8, step: u8) -> u8 {
        ((u16::from(node) + u16::from(step)) % u16::from(self.n)) as u8
    }

    /// Every node id but this agent's, in id order. Owns its two
    /// numbers, so a loop over it may mutate the agent.
    fn others(&self) -> impl Iterator<Item = u8> {
        let id = self.id;
        (0..self.n).filter(move |&p| p != id)
    }

    /// Merges one gossiped stat into the view table. Returns whether the
    /// merge advanced the peer's beacon (used by rebuttal clearing).
    fn merge_stat(&mut self, now: SimTime, stat: &NodeStat) -> bool {
        let peer = self.peers.get_mut(usize::from(stat.node));
        let Some(view) = peer.and_then(|p| p.view.as_mut()) else {
            return false;
        };
        if stat.gen > view.gen {
            // A reborn incarnation: reset the view wholesale and drop
            // complaints about the corpse.
            *view = PeerView {
                gen: stat.gen,
                hb_seq: stat.hb_seq,
                last_change_at: now,
                beacon: stat.beacon,
                beacon_change_at: now,
                rs_up: stat.rs_up,
            };
            self.arbiter.clear(usize::from(stat.node));
            return true;
        }
        if stat.gen < view.gen {
            return false; // gossip echo of a dead incarnation
        }
        let mut beacon_advanced = false;
        if stat.hb_seq > view.hb_seq {
            view.hb_seq = stat.hb_seq;
            view.last_change_at = now;
            view.rs_up = stat.rs_up;
        }
        if stat.beacon > view.beacon {
            view.beacon = stat.beacon;
            view.beacon_change_at = now;
            beacon_advanced = true;
        }
        beacon_advanced
    }

    /// Puts one complaint before the arbiter. A node's incarnation is
    /// its id and boot generation; one rebooting under a conviction's
    /// grace is no one the arbiter knows.
    fn judge(&mut self, now: SimTime, frame: &Frame) {
        let peer = self.peers.get(usize::from(frame.subject));
        let peer = peer.filter(|p| now >= p.grace_until);
        let accused = peer.and_then(|p| p.view).map(|view| Accused {
            idx: usize::from(frame.subject),
            server: false,
            endpoint: Some(Endpoint::new(u16::from(frame.subject), view.gen)),
            quorum: quorum(self.n),
        });
        let accusation = Accusation {
            source: Endpoint::new(u16::from(frame.from), frame.gen),
            accuser: frame.from,
            authorized: true,
            kind: frame.evidence,
            incarnation: Some(Endpoint::new(u16::from(frame.subject), frame.subject_gen)),
            accused,
        };
        match self.arbiter.judge(now, accusation) {
            Verdict::Ghost { .. } => self.stats.ghost_rejected += 1,
            Verdict::Inverted { .. } => self.stats.inversions += 1,
            Verdict::BelowQuorum | Verdict::Convicted { .. } => {
                self.stats.complaints_accepted += 1;
            }
            _ => {}
        }
    }

    /// The arbiter for a conviction of `subject`: walking the ring from
    /// the subject's successor (who replicates its snapshot), the first
    /// node that looks alive and is not itself under accusation.
    fn arbiter_for(&self, subject: u8, now: SimTime) -> Option<u8> {
        let mut fallback = None;
        for step in 1..self.n {
            let c = self.ring(subject, step);
            let alive = c == self.id
                || self
                    .view(c)
                    .is_some_and(|v| now - v.last_change_at <= NODE_SUSPECT_AFTER);
            if !alive {
                continue;
            }
            if fallback.is_none() {
                fallback = Some(c);
            }
            if self.arbiter.evidence(usize::from(c)).next().is_none() {
                return Some(c);
            }
        }
        fallback
    }

    /// Applies a conviction to local state: the subject's next
    /// incarnation is expected at `gen + 1`, its ledger is cleared, and
    /// complaints are suppressed while it reboots.
    fn apply_conviction(&mut self, now: SimTime, subject: u8, gen: u32) {
        self.arbiter.clear(usize::from(subject));
        let Some(peer) = self.peers.get_mut(usize::from(subject)) else {
            return;
        };
        if let Some(view) = peer.view.as_mut().filter(|v| v.gen <= gen) {
            *view = PeerView::presumed(gen + 1, now);
        }
        peer.last_complaint_at = None;
        peer.grace_until = now + REBOOT_GRACE;
    }

    /// Processes one delivered backbone frame.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame) {
        // A frame is not a message, but its kind is a row of the
        // `gossip` table all the same.
        match gossip::Msg::decode(&Message::new(frame.kind)) {
            Some(gossip::Msg::HEARTBEAT) => {
                for stat in frame.view.iter() {
                    self.merge_stat(now, stat);
                }
            }
            Some(gossip::Msg::COMPLAIN) => {
                if frame.subject == self.id {
                    // Someone thinks we are dead: schedule a rebuttal
                    // (sent from tick, where the local RS state is in
                    // hand to back it).
                    self.rebut = Some(frame.evidence);
                } else {
                    self.judge(now, frame);
                }
            }
            Some(gossip::Msg::CONVICT) if frame.subject != self.id => {
                self.apply_conviction(now, frame.subject, frame.subject_gen);
            }
            Some(gossip::Msg::ALIVE) => {
                let mut beacon_advanced = false;
                for stat in frame.view.iter() {
                    beacon_advanced |= self.merge_stat(now, stat);
                }
                // A live rebuttal at the current generation clears
                // reachability complaints; an advancing beacon clears
                // RS-silence complaints too.
                if self.view(frame.from).is_some_and(|v| v.gen == frame.gen) {
                    let withdrawn = self.arbiter.withdraw(usize::from(frame.from), |kind| {
                        kind == evidence::NODE_UNREACHABLE
                            || (kind == evidence::RS_SILENT && beacon_advanced)
                    });
                    self.stats.rebutted_cleared += withdrawn as u64;
                }
            }
            _ => {}
        }
        self.watch_due = self.watch_scan();
    }

    /// A lower bound on the next instant at which [`tick`] has anything
    /// to do. The contract: for any `t < next_due(now)` with no
    /// [`on_frame`] in between, `tick(t, _)` returns an empty
    /// [`AgentOutput`] and leaves nothing behind that a later `tick` or
    /// `on_frame` could tell from having been ticked at `t`. Waking
    /// early is always allowed, waking late never.
    ///
    /// Deliberately conservative: due *now* while a rebuttal is owed or
    /// any evidence is held, since the arbiter role can pass to this
    /// agent at any instant a peer falls silent. (The arbiter's other
    /// windows need no tick: every rule reads them pruned.) Otherwise the
    /// kept watch term: the next heartbeat, or the first instant a peer
    /// can be accused — its silence threshold, not before its grace ends.
    /// No call scans the peers; `on_frame` and `tick` refresh the term
    /// where they end, and a debug build checks it here. (The re-complaint
    /// spacing is not a term: a complaint of the agent's own sits in its
    /// ledger for the whole spacing, so the agent is due every quantum of
    /// it anyway — unless a rebuttal withdrew it or the agent stands
    /// discredited, at most a window per inversion.) The silence
    /// comparisons in `tick` are strict, so the threshold itself is one
    /// step early — early is allowed.
    ///
    /// [`tick`]: FleetAgent::tick
    /// [`on_frame`]: FleetAgent::on_frame
    pub fn next_due(&self, now: SimTime) -> SimTime {
        debug_assert_eq!(self.watch_due, self.watch_scan(), "a stale watch term");
        if self.rebut.is_some() || self.arbiter.holds_evidence() {
            return now;
        }
        self.watch_due
    }

    /// The watch term of [`FleetAgent::next_due`], scanned: the next
    /// heartbeat, or per peer the earlier silence threshold, not before
    /// the peer's grace ends.
    fn watch_scan(&self) -> SimTime {
        let mut due = self.next_hb_at;
        for peer in &self.peers {
            if let Some(view) = &peer.view {
                let silent = (view.last_change_at + NODE_SUSPECT_AFTER)
                    .min(view.beacon_change_at + RS_SUSPECT_AFTER);
                due = due.min(silent.max(peer.grace_until));
            }
        }
        due
    }

    /// One agent tick: gossip heartbeats, raise suspicions, arbitrate.
    /// The frames and verdicts go into the agent's output buffer, which is
    /// returned: the caller drains what it acts on, and what it leaves is
    /// dropped at the next tick, before the beat is refilled.
    // analyze:recovery-root
    pub fn tick(&mut self, now: SimTime, local: &LocalView) -> &mut AgentOutput {
        self.out.frames.clear();
        self.out.actions.clear();
        self.arbiter.expire(now);

        // Heartbeats to the ring neighbors, carrying the gossip vector.
        if now >= self.next_hb_at {
            self.hb_seq += 1;
            self.next_hb_at = now + HB_PERIOD;
            let own = NodeStat {
                node: self.id,
                gen: self.gen,
                hb_seq: self.hb_seq,
                beacon: local.rs_beacon,
                rs_up: local.rs_up,
            };
            // Every id but this agent's has a view.
            let peers = (0..).zip(&self.peers).filter_map(|(node, peer)| {
                peer.view.map(|view| NodeStat {
                    node,
                    gen: view.gen,
                    hb_seq: view.hb_seq,
                    beacon: view.beacon,
                    rs_up: view.rs_up,
                })
            });
            let beat = Rc::make_mut(&mut self.beat);
            for (slot, stat) in beat.iter_mut().zip(std::iter::once(own).chain(peers)) {
                *slot = stat;
            }
            let succ = self.ring(self.id, 1);
            let pred = self.ring(self.id, self.n - 1);
            // Successor first, then the predecessor, both holding the one
            // beat. (`pred != succ` only from three nodes up, where neither
            // is this node.)
            let id = self.id;
            let second = (pred != succ).then_some(pred);
            for to in std::iter::once(succ).chain(second).filter(|&to| to != id) {
                let frame = Frame::heartbeat(id, self.gen, Rc::clone(&self.beat));
                self.out.frames.push((to, frame));
            }
        }

        // Rebuttal: answer an accusation with proof of life. A node
        // whose own RS really is down does not rebut an `rs-silent`
        // complaint — the accusers are right.
        if let Some(ev) = self.rebut.take() {
            if ev != evidence::RS_SILENT || local.rs_up {
                self.stats.rebuttals_sent += 1;
                let stat = NodeStat {
                    node: self.id,
                    gen: self.gen,
                    hb_seq: self.hb_seq,
                    beacon: local.rs_beacon,
                    rs_up: local.rs_up,
                };
                for to in self.others() {
                    self.out
                        .frames
                        .push((to, Frame::alive(self.id, self.gen, stat)));
                }
            }
        }

        // Suspicion scan: typed complaints, broadcast and self-logged.
        for j in self.others() {
            let peer = &mut self.peers[usize::from(j)];
            if now < peer.grace_until {
                continue;
            }
            let Some(view) = peer.view else {
                continue;
            };
            let node_silent = now - view.last_change_at > NODE_SUSPECT_AFTER;
            let rs_silent = !node_silent && now - view.beacon_change_at > RS_SUSPECT_AFTER;
            if !node_silent && !rs_silent {
                continue;
            }
            let recomplain_ok = peer
                .last_complaint_at
                .is_none_or(|t| now - t >= RECOMPLAIN_AFTER);
            if !recomplain_ok {
                continue;
            }
            peer.last_complaint_at = Some(now);
            let ev = if node_silent {
                evidence::NODE_UNREACHABLE
            } else {
                evidence::RS_SILENT
            };
            let frame = Frame::complain(self.id, self.gen, j, view.gen, ev);
            self.stats.complaints_sent += 1;
            for to in self.others() {
                self.out.frames.push((to, frame.clone()));
            }
            // Our own observation is evidence too.
            self.judge(now, &frame);
        }

        self.arbitrate(now);
        self.watch_due = self.watch_scan();
        &mut self.out
    }

    /// Quorum check and arbitration: convicts every subject with a
    /// standing quorum against it for which this agent is the arbiter.
    fn arbitrate(&mut self, now: SimTime) {
        if !self.arbiter.holds_evidence() {
            return;
        }
        for subject in self.others() {
            let Some(view) = self.view(subject) else {
                continue;
            };
            let convicts = self.arbiter.standing(usize::from(subject), quorum(self.n));
            if convicts.is_none() || self.arbiter_for(subject, now) != Some(self.id) {
                continue;
            }
            // Dominant evidence kind: most frequent, ties to the lower
            // kind value for determinism.
            let mut tally: BTreeMap<u32, usize> = BTreeMap::new();
            for kind in self.arbiter.evidence(usize::from(subject)) {
                *tally.entry(kind).or_default() += 1;
            }
            let ev = tally
                .iter()
                .max_by_key(|&(kind, count)| (*count, std::cmp::Reverse(*kind)))
                .map(|(&kind, _)| kind)
                .unwrap_or(evidence::NODE_UNREACHABLE);
            self.stats.convictions += 1;
            let verdict = Frame::convict(self.id, self.gen, subject, view.gen, ev);
            for to in self.others() {
                self.out.frames.push((to, verdict.clone()));
            }
            self.out.actions.push(FleetAction::Convict {
                node: subject,
                gen: view.gen,
                evidence: ev,
            });
            self.apply_conviction(now, subject, view.gen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn local() -> LocalView {
        LocalView {
            rs_beacon: 1,
            rs_up: true,
        }
    }

    /// Drives `agent` with fresh heartbeats from every peer at `now`.
    fn feed_fresh(agent: &mut FleetAgent, now: SimTime, seq: u64) {
        for p in 0..agent.n {
            if p == agent.id {
                continue;
            }
            let stat = NodeStat {
                node: p,
                gen: 1,
                hb_seq: seq,
                beacon: seq,
                rs_up: true,
            };
            agent.on_frame(now, &Frame::heartbeat(p, 1, vec![stat]));
        }
    }

    #[test]
    fn fresh_peers_are_never_suspected() {
        let mut agent = FleetAgent::new(0, 4, 1, t(0));
        for ms in (0..3_000).step_by(50) {
            feed_fresh(&mut agent, t(ms), ms / 50 + 1);
            let out = agent.tick(t(ms), &local());
            assert!(out.actions.is_empty(), "no verdicts against healthy peers");
            assert!(out.frames.iter().all(|(_, f)| f.kind == gossip::HEARTBEAT));
        }
        assert_eq!(agent.stats.complaints_sent, 0);
    }

    #[test]
    fn silent_node_draws_typed_complaint_then_quorum_convicts() {
        let mut agent = FleetAgent::new(2, 4, 1, t(0));
        feed_fresh(&mut agent, t(0), 1);
        // Node 1 goes silent; the others stay fresh.
        let mut complained = false;
        for ms in (50..1_200).step_by(50) {
            for p in [0u8, 3] {
                let stat = NodeStat {
                    node: p,
                    gen: 1,
                    hb_seq: ms / 50 + 1,
                    beacon: ms / 50,
                    rs_up: true,
                };
                agent.on_frame(t(ms), &Frame::heartbeat(p, 1, vec![stat]));
            }
            let out = agent.tick(t(ms), &local());
            for (_, f) in &out.frames {
                if f.kind == gossip::COMPLAIN {
                    assert_eq!(f.subject, 1);
                    assert_eq!(f.evidence, evidence::NODE_UNREACHABLE);
                    complained = true;
                }
            }
        }
        assert!(complained, "silence past the threshold must be accused");
        // A second accuser completes the quorum. Node 2 (this agent) is
        // the ring successor of 1 and alive, so it arbitrates.
        agent.on_frame(
            t(1_200),
            &Frame::complain(0, 1, 1, 1, evidence::NODE_UNREACHABLE),
        );
        let out = agent.tick(t(1_200), &local());
        assert_eq!(
            out.actions,
            vec![FleetAction::Convict {
                node: 1,
                gen: 1,
                evidence: evidence::NODE_UNREACHABLE,
            }]
        );
        assert!(out.frames.iter().any(|(_, f)| f.kind == gossip::CONVICT));
        // Post-conviction grace: no immediate re-accusation.
        let out = agent.tick(t(1_250), &local());
        assert!(out.actions.is_empty());
        assert_eq!(agent.view_of(1), Some((2, 0)), "expects the next gen");
    }

    #[test]
    fn stuck_beacon_with_fresh_heartbeats_is_rs_silent() {
        let mut agent = FleetAgent::new(0, 4, 1, t(0));
        let mut saw_rs_silent = false;
        for ms in (0..3_000).step_by(50) {
            let seq = ms / 50 + 1;
            for p in 1..4u8 {
                // Node 3's beacon freezes at 5; everyone's hb_seq advances.
                let beacon = if p == 3 { 5 } else { seq };
                let stat = NodeStat {
                    node: p,
                    gen: 1,
                    hb_seq: seq,
                    beacon,
                    rs_up: p != 3,
                };
                agent.on_frame(t(ms), &Frame::heartbeat(p, 1, vec![stat]));
            }
            let out = agent.tick(t(ms), &local());
            for (_, f) in &out.frames {
                if f.kind == gossip::COMPLAIN {
                    assert_eq!(f.subject, 3, "only the stalled RS is accused");
                    assert_eq!(f.evidence, evidence::RS_SILENT);
                    saw_rs_silent = true;
                }
            }
        }
        assert!(saw_rs_silent);
    }

    /// The heartbeats `agent` sends at `now`, as the frames a wire would
    /// carry.
    fn beats(agent: &mut FleetAgent, now: SimTime, local: &LocalView) -> Vec<(u8, Frame)> {
        let out = agent.tick(now, local);
        assert!(out.frames.iter().all(|(_, f)| f.kind == gossip::HEARTBEAT));
        out.frames.drain(..).collect()
    }

    /// A heartbeat still in flight when its sender's view table changes
    /// delivers the stats of its send time; both neighbours got the one
    /// buffer, and once no frame holds it the next beat writes in place.
    #[test]
    fn a_heartbeat_in_flight_keeps_the_stats_of_its_send_time() {
        let mut agent = FleetAgent::new(0, 4, 1, t(0));
        feed_fresh(&mut agent, t(0), 1);
        let first = beats(&mut agent, t(0), &local());
        assert_eq!(first.len(), 2, "successor and predecessor");
        assert!(Rc::ptr_eq(&first[0].1.view, &first[1].1.view));
        let sent: Vec<NodeStat> = first[0].1.view.to_vec();
        assert_eq!(sent[0].hb_seq, 1, "its own stat leads");
        assert_eq!(sent[1].hb_seq, 1, "node 1 as of the send");

        feed_fresh(&mut agent, t(30), 7);
        let fresh = LocalView {
            rs_beacon: 9,
            rs_up: true,
        };
        let second = beats(&mut agent, t(50), &fresh);
        assert_eq!(*first[0].1.view, *sent, "the frame in flight moved");
        assert_eq!(*first[1].1.view, *sent);
        assert!(!Rc::ptr_eq(&first[0].1.view, &second[0].1.view));
        let now = &second[0].1.view;
        assert_eq!((now[0].hb_seq, now[0].beacon), (2, 9));
        assert_eq!(now[1].hb_seq, 7, "node 1 as of the second beat");

        // Delivered: no frame holds either buffer.
        drop(first);
        let buffer = Rc::as_ptr(&second[0].1.view);
        drop(second);
        let third = beats(&mut agent, t(100), &fresh);
        assert_eq!(Rc::as_ptr(&third[0].1.view), buffer, "written in place");
        assert_eq!(third[0].1.view[0].hb_seq, 3);
    }

    /// A clone of an agent shares its beat buffer, and neither writes into
    /// it while the other, or a frame, still holds it.
    #[test]
    fn a_cloned_agent_never_writes_into_a_shared_beat() {
        let mut agent = FleetAgent::new(1, 4, 1, t(0));
        feed_fresh(&mut agent, t(0), 1);
        let in_flight = beats(&mut agent, t(0), &local());
        let sent: Vec<NodeStat> = in_flight[0].1.view.to_vec();
        let mut twin = agent.clone();
        let beat_of = |agent: &mut FleetAgent, seq: u64, beacon: u64| {
            feed_fresh(agent, t(40), seq);
            let local = LocalView {
                rs_beacon: beacon,
                rs_up: true,
            };
            beats(agent, t(50), &local).swap_remove(0).1.view
        };
        let twin_beat = beat_of(&mut twin, 5, 50);
        let agent_beat = beat_of(&mut agent, 6, 60);
        assert_eq!(*in_flight[0].1.view, *sent, "the frame in flight moved");
        assert!(!Rc::ptr_eq(&twin_beat, &agent_beat));
        assert_eq!((twin_beat[0].beacon, twin_beat[1].hb_seq), (50, 5));
        assert_eq!((agent_beat[0].beacon, agent_beat[1].hb_seq), (60, 6));
    }

    #[test]
    fn ghost_complaints_about_old_generations_are_rejected() {
        let mut agent = FleetAgent::new(0, 4, 1, t(0));
        // Node 2 is known reborn at gen 3.
        let stat = NodeStat {
            node: 2,
            gen: 3,
            hb_seq: 1,
            beacon: 1,
            rs_up: true,
        };
        agent.on_frame(t(0), &Frame::heartbeat(2, 3, vec![stat]));
        // A complaint about gen 1 is about a corpse.
        agent.on_frame(
            t(10),
            &Frame::complain(1, 1, 2, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.stats.ghost_rejected, 1);
        assert_eq!(agent.arbiter().evidence(2).count(), 0);
    }

    /// Frames naming a node id past the fleet (a gossiped stat, a
    /// complaint subject, a verdict subject) are ignored: the agent reads
    /// like a twin that never saw them, and ticks like it too.
    #[test]
    fn frames_naming_a_node_past_the_fleet_are_ignored() {
        let mut seen = FleetAgent::new(1, 4, 1, t(0));
        let mut twin = FleetAgent::new(1, 4, 1, t(0));
        feed_fresh(&mut seen, t(0), 1);
        feed_fresh(&mut twin, t(0), 1);
        let stray = NodeStat {
            node: 7,
            gen: 3,
            hb_seq: 9,
            beacon: 9,
            rs_up: true,
        };
        seen.on_frame(t(10), &Frame::heartbeat(0, 1, vec![stray]));
        seen.on_frame(
            t(20),
            &Frame::complain(0, 1, 9, 1, evidence::NODE_UNREACHABLE),
        );
        seen.on_frame(
            t(30),
            &Frame::convict(2, 1, 4, 1, evidence::NODE_UNREACHABLE),
        );
        let same = |seen: &FleetAgent, twin: &FleetAgent, now: SimTime| {
            for node in 0..10 {
                assert_eq!(seen.view_of(node), twin.view_of(node));
                let held = |a: &FleetAgent| a.arbiter().evidence(usize::from(node)).count();
                assert_eq!(held(seen), held(twin));
            }
            assert_eq!(format!("{:?}", seen.stats), format!("{:?}", twin.stats));
            assert_eq!(seen.next_due(now), twin.next_due(now));
        };
        same(&seen, &twin, t(30));
        for ms in (50..1_000).step_by(50) {
            let (a, b) = (seen.tick(t(ms), &local()), twin.tick(t(ms), &local()));
            assert_eq!((&a.frames, &a.actions), (&b.frames, &b.actions));
            same(&seen, &twin, t(ms));
        }
        assert!(
            twin.stats.complaints_sent > 0,
            "the silent peers were accused"
        );
    }

    #[test]
    fn mass_accuser_is_inverted_and_struck_from_the_ledger() {
        let mut agent = FleetAgent::new(0, 5, 1, t(0));
        feed_fresh(&mut agent, t(0), 1);
        // Node 4 names one subject: accepted.
        agent.on_frame(
            t(10),
            &Frame::complain(4, 1, 1, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.arbiter().evidence(1).count(), 1);
        // Then two more distinct subjects inside the window: inverted,
        // and its earlier complaint is struck.
        agent.on_frame(
            t(20),
            &Frame::complain(4, 1, 2, 1, evidence::NODE_UNREACHABLE),
        );
        agent.on_frame(
            t(30),
            &Frame::complain(4, 1, 3, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.stats.inversions, 1);
        assert_eq!(agent.arbiter().evidence(1).count(), 0);
        assert_eq!(agent.arbiter().evidence(2).count(), 0);
        assert_eq!(agent.arbiter().evidence(3).count(), 0);
        // Further complaints from the inverted accuser are ignored for a
        // window, and are not inversions of their own ...
        agent.on_frame(
            t(40),
            &Frame::complain(4, 1, 1, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.arbiter().evidence(1).count(), 0);
        assert_eq!(agent.stats.inversions, 1);
        // ... after which the accuser is heard again.
        agent.on_frame(
            t(2_031),
            &Frame::complain(4, 1, 1, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.arbiter().evidence(1).count(), 1);
    }

    /// Ring positions are computed wide: past 128 nodes, `id + n − 1`
    /// and `subject + step` no longer fit a `u8`.
    #[test]
    fn ring_arithmetic_holds_past_128_nodes() {
        let mut agent = FleetAgent::new(200, 201, 1, t(0));
        let out = agent.tick(t(0), &local());
        let to: Vec<u8> = out.frames.iter().map(|&(to, _)| to).collect();
        assert_eq!(to, [0, 199], "successor, then predecessor");
        // Only node 150 is alive: the walk from 200 reaches it at step
        // 151, having passed node 255's place at step 55.
        let mut agent = FleetAgent::new(199, 201, 1, t(0));
        let stat = NodeStat {
            node: 150,
            gen: 1,
            hb_seq: 1,
            beacon: 1,
            rs_up: true,
        };
        agent.on_frame(t(1_000), &Frame::heartbeat(150, 1, vec![stat]));
        assert_eq!(agent.arbiter_for(200, t(1_000)), Some(150));
    }

    #[test]
    fn alive_rebuttal_clears_reachability_complaints() {
        let mut agent = FleetAgent::new(0, 4, 1, t(0));
        feed_fresh(&mut agent, t(0), 1);
        agent.on_frame(
            t(10),
            &Frame::complain(1, 1, 2, 1, evidence::NODE_UNREACHABLE),
        );
        agent.on_frame(
            t(15),
            &Frame::complain(3, 1, 2, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.arbiter().evidence(2).count(), 2);
        let stat = NodeStat {
            node: 2,
            gen: 1,
            hb_seq: 50,
            beacon: 50,
            rs_up: true,
        };
        agent.on_frame(t(20), &Frame::alive(2, 1, stat));
        assert_eq!(agent.arbiter().evidence(2).count(), 0);
        assert_eq!(agent.stats.rebutted_cleared, 2);
    }

    #[test]
    fn accused_agent_schedules_a_rebuttal() {
        let mut agent = FleetAgent::new(2, 4, 1, t(0));
        agent.on_frame(
            t(10),
            &Frame::complain(0, 1, 2, 1, evidence::NODE_UNREACHABLE),
        );
        let out = agent.tick(t(10), &local());
        let alives: Vec<_> = out
            .frames
            .iter()
            .filter(|(_, f)| f.kind == gossip::ALIVE)
            .collect();
        assert_eq!(alives.len(), 3, "rebuttal broadcast to all peers");
        // But an rs-silent accusation with RS actually down is not
        // rebutted: the accusers are right.
        agent.on_frame(t(20), &Frame::complain(0, 1, 2, 1, evidence::RS_SILENT));
        let down = LocalView {
            rs_beacon: 1,
            rs_up: false,
        };
        let out = agent.tick(t(20), &down);
        assert!(out.frames.iter().all(|(_, f)| f.kind != gossip::ALIVE));
    }

    #[test]
    fn arbiter_is_ring_successor_and_skips_dead_candidates() {
        // Subject 1: successor 2 is silent, so 3 arbitrates.
        let mut agent = FleetAgent::new(3, 4, 1, t(0));
        feed_fresh(&mut agent, t(0), 1);
        // Keep 0 fresh; let 1 and 2 both go silent.
        for ms in (50..1_500).step_by(50) {
            let stat = NodeStat {
                node: 0,
                gen: 1,
                hb_seq: ms / 50 + 1,
                beacon: ms / 50,
                rs_up: true,
            };
            agent.on_frame(t(ms), &Frame::heartbeat(0, 1, vec![stat]));
            agent.tick(t(ms), &local());
        }
        agent.on_frame(
            t(1_500),
            &Frame::complain(0, 1, 1, 1, evidence::NODE_UNREACHABLE),
        );
        let out = agent.tick(t(1_500), &local());
        assert!(
            out.actions
                .iter()
                .any(|a| matches!(a, FleetAction::Convict { node: 1, .. })),
            "node 3 arbitrates for subject 1 because successor 2 is dead, got {:?}",
            out.actions
        );
    }
}
