//! The per-node fleet agent: one end of the DIR-Net-style two-level
//! backbone. Level one is each node's local RS recovering its own
//! drivers and servers; level two is this agent, gossiping RS liveness
//! beacons and node health around the watchdog ring and running the
//! federated evidence ledger that convicts a dead RS or a dead node.
//!
//! The agent is a pure protocol state machine: the fleet event loop
//! feeds it delivered frames ([`FleetAgent::on_frame`]) and ticks it
//! with a sample of its node's local state ([`FleetAgent::tick`]); it
//! returns frames to transmit and [`FleetAction`]s for the fleet to
//! execute. It never touches an `Os` directly, which keeps every
//! transition unit-testable without booting machines.
//!
//! Ledger semantics mirror the single-node RS complaint arbitration,
//! federated across nodes:
//!
//! * **typed complaints** — accusations carry an evidence kind
//!   (`rs-silent` when a node's heartbeats stay fresh but its RS beacon
//!   stops advancing; `node-unreachable` when the heartbeats themselves
//!   stop) and the accused generation;
//! * **ghost rejection** — complaints about an older generation than
//!   the accused's current one are about a corpse and are discarded;
//! * **accuser inversion** — an accuser naming [`INVERSION_ACCUSED`]
//!   distinct subjects within the complaint window is the likelier
//!   defect (an isolated node sees *everyone* as dead); its complaints
//!   are struck and ignored;
//! * **quorum** — [`quorum`] distinct un-inverted accusers within the
//!   window convict; the ring-successor arbiter executes the verdict.

use std::collections::BTreeMap;

use phoenix::kernel::types::Message;
use phoenix_servers::proto::evidence;
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::proto::{gossip, Frame, NodeStat};

// The sliding evidence window for quorum and inversion, and the distinct
// subjects inside it that invert an accuser, are RS's own arbitration
// consts: the node level cannot drift from them.
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

/// Distinct accusers required to convict in an `n`-node fleet.
pub fn quorum(n: u8) -> usize {
    usize::from(n.saturating_sub(1)).min(2)
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

/// One tick's output.
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
#[derive(Debug)]
struct Peer {
    /// `None` at the agent's own id.
    view: Option<PeerView>,
    /// Complaints about the node are suppressed before this; `ZERO` (the
    /// start) reads as no grace at all.
    grace_until: SimTime,
    last_complaint_at: Option<SimTime>,
}

/// One accepted ledger entry.
#[derive(Clone, Copy, Debug)]
struct Complaint {
    accuser: u8,
    at: SimTime,
    evidence: u32,
    subject_gen: u32,
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
#[derive(Debug)]
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
    ledger: BTreeMap<u8, Vec<Complaint>>,
    accusations: BTreeMap<u8, Vec<(u8, SimTime)>>,
    inverted: BTreeMap<u8, SimTime>,
    rebut: Option<u32>,
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
        FleetAgent {
            id,
            n,
            gen,
            hb_seq: 0,
            next_hb_at: now,
            peers,
            ledger: BTreeMap::new(),
            accusations: BTreeMap::new(),
            inverted: BTreeMap::new(),
            rebut: None,
            stats: AgentStats::default(),
        }
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

    /// Active (windowed) complaints against `node` in this ledger.
    pub fn complaints_against(&self, node: u8) -> usize {
        self.ledger.get(&node).map_or(0, Vec::len)
    }

    /// Every node id but this agent's, in id order. Owns its two
    /// numbers, so a loop over it may mutate the agent.
    fn others(&self) -> impl Iterator<Item = u8> {
        let id = self.id;
        (0..self.n).filter(move |&p| p != id)
    }

    fn in_grace(&self, node: u8, now: SimTime) -> bool {
        self.peers
            .get(usize::from(node))
            .is_some_and(|p| now < p.grace_until)
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
            self.ledger.remove(&stat.node);
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

    fn prune(&mut self, now: SimTime) {
        let horizon = |at: SimTime| now - at <= COMPLAINT_WINDOW;
        self.inverted.retain(|_, &mut at| horizon(at));
        for log in self.accusations.values_mut() {
            log.retain(|&(_, at)| horizon(at));
        }
        self.accusations.retain(|_, log| !log.is_empty());
        let inverted = &self.inverted;
        for entries in self.ledger.values_mut() {
            entries.retain(|c| horizon(c.at) && !inverted.contains_key(&c.accuser));
        }
        self.ledger.retain(|_, entries| !entries.is_empty());
    }

    fn accept_complaint(&mut self, now: SimTime, accuser: u8, frame: &Frame) {
        let subject = frame.subject;
        if self.in_grace(subject, now) {
            return;
        }
        let Some(view) = self.view(subject) else {
            return;
        };
        if frame.subject_gen < view.gen {
            self.stats.ghost_rejected += 1;
            return;
        }
        // Accuser inversion: track the distinct subjects this accuser
        // has named inside the window; naming (nearly) everyone marks
        // the accuser itself as the defect.
        let log = self.accusations.entry(accuser).or_default();
        log.retain(|&(_, at)| now - at <= COMPLAINT_WINDOW);
        if !log.iter().any(|&(s, _)| s == subject) {
            log.push((subject, now));
        }
        let distinct = log.len();
        if distinct >= INVERSION_ACCUSED {
            self.inverted.insert(accuser, now);
            self.stats.inversions += 1;
            for entries in self.ledger.values_mut() {
                entries.retain(|c| c.accuser != accuser);
            }
            return;
        }
        if self.inverted.contains_key(&accuser) {
            return;
        }
        let entries = self.ledger.entry(subject).or_default();
        // One live entry per accuser: a repeat refreshes, not stacks.
        entries.retain(|c| c.accuser != accuser);
        entries.push(Complaint {
            accuser,
            at: now,
            evidence: frame.evidence,
            subject_gen: frame.subject_gen,
        });
        self.stats.complaints_accepted += 1;
    }

    /// The arbiter for a conviction of `subject`: walking the ring from
    /// the subject's successor (who replicates its snapshot), the first
    /// node that looks alive and is not itself under accusation.
    fn arbiter_for(&self, subject: u8, now: SimTime) -> Option<u8> {
        let mut fallback = None;
        for step in 1..self.n {
            let c = (subject + step) % self.n;
            if c == subject {
                continue;
            }
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
            if self.ledger.get(&c).is_none_or(Vec::is_empty) {
                return Some(c);
            }
        }
        fallback
    }

    /// Applies a conviction to local state: the subject's next
    /// incarnation is expected at `gen + 1`, its ledger is cleared, and
    /// complaints are suppressed while it reboots.
    fn apply_conviction(&mut self, now: SimTime, subject: u8, gen: u32) {
        self.ledger.remove(&subject);
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
                for stat in &frame.view {
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
                    self.accept_complaint(now, frame.from, frame);
                }
            }
            Some(gossip::Msg::CONVICT) if frame.subject != self.id => {
                self.apply_conviction(now, frame.subject, frame.subject_gen);
            }
            Some(gossip::Msg::ALIVE) => {
                let mut beacon_advanced = false;
                for stat in &frame.view {
                    beacon_advanced |= self.merge_stat(now, stat);
                }
                // A live rebuttal at the current generation clears
                // reachability complaints; an advancing beacon clears
                // RS-silence complaints too.
                let current = self.view(frame.from).is_some_and(|v| v.gen == frame.gen);
                if current {
                    if let Some(entries) = self.ledger.get_mut(&frame.from) {
                        let before = entries.len();
                        entries.retain(|c| {
                            c.evidence != evidence::NODE_UNREACHABLE
                                && (c.evidence != evidence::RS_SILENT || !beacon_advanced)
                        });
                        self.stats.rebutted_cleared += (before - entries.len()) as u64;
                    }
                }
            }
            _ => {}
        }
    }

    /// A lower bound on the next instant at which [`tick`] has anything
    /// to do. The contract: for any `t < next_due(now)` with no
    /// [`on_frame`] in between, `tick(t, _)` returns an empty
    /// [`AgentOutput`] and leaves nothing behind that a later `tick` or
    /// `on_frame` could tell from having been ticked at `t`. Waking
    /// early is always allowed, waking late never.
    ///
    /// Deliberately conservative: due *now* while a rebuttal is owed or
    /// the ledger or the inversion table holds anything (so whatever
    /// `prune` guards is pruned every quantum exactly when there is
    /// something to prune; `accusations` re-filters itself by the window
    /// where `accept_complaint` reads it). Otherwise the next heartbeat,
    /// or the first instant a peer can be accused: its silence threshold,
    /// not before its grace ends. (The re-complaint spacing is not a
    /// term: a complaint of the agent's own sits in its ledger for the
    /// whole spacing unless a rebuttal clears it, so the agent is due
    /// every quantum of it anyway.) The silence comparisons in `tick` are
    /// strict, so the threshold itself is one step early — early is
    /// allowed.
    ///
    /// [`tick`]: FleetAgent::tick
    /// [`on_frame`]: FleetAgent::on_frame
    pub fn next_due(&self, now: SimTime) -> SimTime {
        if self.rebut.is_some() || !self.ledger.is_empty() || !self.inverted.is_empty() {
            return now;
        }
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
    // analyze:recovery-root
    pub fn tick(&mut self, now: SimTime, local: &LocalView) -> AgentOutput {
        let mut out = AgentOutput::default();
        self.prune(now);

        // Heartbeats to the ring neighbors, carrying the gossip vector.
        if now >= self.next_hb_at {
            self.hb_seq += 1;
            self.next_hb_at = now + HB_PERIOD;
            let mut vector = Vec::with_capacity(self.peers.len());
            vector.push(NodeStat {
                node: self.id,
                gen: self.gen,
                hb_seq: self.hb_seq,
                beacon: local.rs_beacon,
                rs_up: local.rs_up,
            });
            for (node, peer) in (0..).zip(&self.peers) {
                let Some(view) = &peer.view else {
                    continue;
                };
                vector.push(NodeStat {
                    node,
                    gen: view.gen,
                    hb_seq: view.hb_seq,
                    beacon: view.beacon,
                    rs_up: view.rs_up,
                });
            }
            let succ = (self.id + 1) % self.n;
            let pred = (self.id + self.n - 1) % self.n;
            // Successor first; the last target takes the vector itself.
            // (`pred != succ` only from three nodes up, where neither is
            // this node.)
            if pred != succ {
                out.frames
                    .push((succ, Frame::heartbeat(self.id, self.gen, vector.clone())));
                out.frames
                    .push((pred, Frame::heartbeat(self.id, self.gen, vector)));
            } else if succ != self.id {
                out.frames
                    .push((succ, Frame::heartbeat(self.id, self.gen, vector)));
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
                    out.frames.push((to, Frame::alive(self.id, self.gen, stat)));
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
                out.frames.push((to, frame.clone()));
            }
            // Our own observation is evidence too.
            self.accept_complaint(now, self.id, &frame);
        }

        // Quorum check and arbitration.
        let subjects: Vec<u8> = self.ledger.keys().copied().collect();
        for subject in subjects {
            if self.in_grace(subject, now) {
                continue;
            }
            let Some(view) = self.view(subject) else {
                continue;
            };
            let Some(entries) = self.ledger.get(&subject) else {
                continue;
            };
            let mut accusers: Vec<u8> = entries
                .iter()
                .filter(|c| c.subject_gen == view.gen)
                .map(|c| c.accuser)
                .collect();
            accusers.sort_unstable();
            accusers.dedup();
            if accusers.len() < quorum(self.n) {
                continue;
            }
            if self.arbiter_for(subject, now) != Some(self.id) {
                continue;
            }
            // Dominant evidence kind: most frequent, ties to the lower
            // kind value for determinism.
            let mut tally: BTreeMap<u32, usize> = BTreeMap::new();
            for c in entries {
                *tally.entry(c.evidence).or_default() += 1;
            }
            let ev = tally
                .iter()
                .max_by_key(|&(kind, count)| (*count, std::cmp::Reverse(*kind)))
                .map(|(&kind, _)| kind)
                .unwrap_or(evidence::NODE_UNREACHABLE);
            self.stats.convictions += 1;
            let verdict = Frame::convict(self.id, self.gen, subject, view.gen, ev);
            for to in self.others() {
                out.frames.push((to, verdict.clone()));
            }
            out.actions.push(FleetAction::Convict {
                node: subject,
                gen: view.gen,
                evidence: ev,
            });
            self.apply_conviction(now, subject, view.gen);
        }
        out
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
        assert_eq!(agent.complaints_against(2), 0);
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
                assert_eq!(seen.complaints_against(node), twin.complaints_against(node));
            }
            assert_eq!(format!("{:?}", seen.stats), format!("{:?}", twin.stats));
            assert_eq!(seen.next_due(now), twin.next_due(now));
        };
        same(&seen, &twin, t(30));
        for ms in (50..1_000).step_by(50) {
            let (a, b) = (seen.tick(t(ms), &local()), twin.tick(t(ms), &local()));
            assert_eq!((a.frames, a.actions), (b.frames, b.actions));
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
        assert_eq!(agent.complaints_against(1), 1);
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
        assert_eq!(agent.complaints_against(1), 0);
        assert_eq!(agent.complaints_against(2), 0);
        assert_eq!(agent.complaints_against(3), 0);
        // Further complaints from the inverted accuser are ignored.
        agent.on_frame(
            t(40),
            &Frame::complain(4, 1, 1, 1, evidence::NODE_UNREACHABLE),
        );
        assert_eq!(agent.complaints_against(1), 0);
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
        assert_eq!(agent.complaints_against(2), 2);
        let stat = NodeStat {
            node: 2,
            gen: 1,
            hb_seq: 50,
            beacon: 50,
            rs_up: true,
        };
        agent.on_frame(t(20), &Frame::alive(2, 1, stat));
        assert_eq!(agent.complaints_against(2), 0);
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
