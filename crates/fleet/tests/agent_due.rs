//! `FleetAgent::next_due` against the agent's own full scan.
//!
//! Two identical agents receive the same `SimRng`-drawn schedule of
//! frames over 30 s of 1 ms steps: peers that beat, fall silent, stall
//! their RS beacon with the heartbeats still fresh and come back reborn;
//! complaints from one accuser, from two (a quorum) and from one naming
//! `INVERSION_ACCUSED` subjects, some about a generation already dead
//! (ghosts) and some about the agent itself (which owes a rebuttal);
//! verdicts; liveness rebuttals. Agent A is ticked every millisecond,
//! as the fleet loop did before it was due-driven. Agent B is ticked
//! only when `next_due(now) <= now`. The contract under test:
//!
//! * step (1): at every instant B was ticked, its output equals A's;
//! * step (2): at every instant B was skipped, A's output is empty;
//! * step (3): at the end, `stats`, `view_of` and the arbiter's evidence
//!   agree for every node;
//! * step (4), which the contract does not demand but the loop's cost
//!   does: B's ticks that did nothing and left an empty ledger stay under
//!   a thousandth of the steps, plus one window of quanta per inversion
//!   (an agent that inverted itself — it accused everyone — is due every
//!   quantum its complaints stay discredited).
//!
//! What a broken `next_due` trips, each tried by hand against this file:
//!
//! * ignoring `rebut`: step (2) at the first rebuttal; ignoring the
//!   arbiter's evidence: step (2) at the first verdict;
//! * a quantum added to `next_hb_at` or to `grace_until`, either silence
//!   threshold dropped, or two quanta added to one (one is still a lower
//!   bound on a 1 ms grid, because `tick` compares silences strictly):
//!   step (2) at the first late heartbeat or complaint;
//! * the `grace_until` term dropped: a wake that is early, which the
//!   contract allows, for the whole grace — step (4), at 2, 3 and 4 nodes
//!   (6 to 12 times the allowance; at 8 the inversions' allowance hides
//!   it);
//! * the arbiter reading an inverted accuser's discredit unpruned: step
//!   (3), since B, untouched for the whole discredit, still discards the
//!   accuser's next complaint where A hears it (the generator makes a
//!   mass accuser speak again just as its discredit lapses). `next_due`
//!   needs no term for a discredit;
//! * a refresh of the kept watch term dropped from `on_frame` or `tick`:
//!   in a debug build, the `debug_assert_eq!` in `next_due` at its first
//!   call after the change. In `--release`, a term not refreshed by
//!   `tick` stays at the heartbeat just sent, so B is due every step
//!   until a frame arrives: step (4), at every node count. One not
//!   refreshed by `on_frame` passes here, because a frame only moves a
//!   view or a grace later: the kept term is early, which the contract
//!   allows, and the next `tick` refreshes it. The fleet's
//!   `the_campaign_pins_its_rounds_and_machine_advances` catches it (7
//!   more machine advances).
//!
//! `next_due` has no term for `RECOMPLAIN_AFTER`, though `tick` tests that
//! spacing: a complaint of the agent's own sits in its ledger for longer,
//! which makes the agent due every quantum of it already — unless it was
//! withdrawn by a rebuttal, or the agent stands discredited. The term
//! would save the allowance of step (4) (at 8 nodes, 96,158 idle ticks in
//! 1.5 × 10⁷ steps).

use std::collections::BTreeMap;

use phoenix_fleet::agent::{COMPLAINT_WINDOW, INVERSION_ACCUSED};
use phoenix_fleet::{FleetAction, FleetAgent, Frame, LocalView, NodeStat};
use phoenix_servers::proto::evidence;
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

const STEPS: u64 = 30_000;
/// Schedules per node count. An unoptimised build steps the two agents
/// in about 1.6 µs, so it runs a fifth of the set to keep `cargo test
/// --workspace` in seconds; `ci.sh` runs the whole set with `--release`.
const SCHEDULES: u64 = if cfg!(debug_assertions) { 100 } else { 500 };

/// One scripted peer: what it would put in its own heartbeat.
#[derive(Clone, Copy)]
struct Peer {
    gen: u32,
    hb_seq: u64,
    beacon: u64,
    /// Offset of its 50 ms beat.
    phase: u64,
    /// No heartbeats before this step.
    silent_until: u64,
    /// The beacon does not advance before this step.
    stalled_until: u64,
    /// Comes back from the silence as the next generation.
    reborn: bool,
}

impl Peer {
    fn stat(&self, node: u8) -> NodeStat {
        NodeStat {
            node,
            gen: self.gen,
            hb_seq: self.hb_seq,
            beacon: self.beacon,
            rs_up: true,
        }
    }
}

/// The scripted fleet around the agent under test.
struct World {
    id: u8,
    rng: SimRng,
    /// Indexed by node id; the entry at `id` is never read.
    peers: Vec<Peer>,
    /// Frames drawn now for delivery at a later step.
    pending: BTreeMap<u64, Vec<Frame>>,
    rs_up: bool,
}

impl World {
    fn new(n: u8, mut rng: SimRng) -> World {
        let id = rng.range_u64(0..u64::from(n)) as u8;
        let peers = (0..n)
            .map(|_| Peer {
                gen: 1,
                hb_seq: 0,
                beacon: 0,
                phase: rng.range_u64(0..50),
                silent_until: 0,
                stalled_until: 0,
                reborn: false,
            })
            .collect();
        World {
            id,
            rng,
            peers,
            pending: BTreeMap::new(),
            rs_up: true,
        }
    }

    fn n(&self) -> u8 {
        self.peers.len() as u8
    }

    /// A node other than `not`, uniformly.
    fn other_than(&mut self, not: u8) -> u8 {
        let pick = self.rng.range_u64(0..u64::from(self.n() - 1)) as u8;
        pick + u8::from(pick >= not)
    }

    fn later(&mut self, t: u64, within: u64, frame: Frame) {
        let at = t + self.rng.range_u64(0..within);
        self.pending.entry(at).or_default().push(frame);
    }

    fn local(&self, t: u64) -> LocalView {
        LocalView {
            rs_beacon: t / 750,
            rs_up: self.rs_up,
        }
    }

    /// A complaint burst: one accuser naming one, two or
    /// `INVERSION_ACCUSED` subjects (the agent itself may be one), now and
    /// then about a generation that is already dead, and half the time a
    /// second accuser seconding the first accusation.
    fn draw_complaints(&mut self, t: u64) {
        let id = self.id;
        let accuser = self.other_than(id);
        let named = *self.rng.pick(&[1, 2, INVERSION_ACCUSED]);
        let mut subjects: Vec<u8> = (0..self.n()).filter(|&s| s != accuser).collect();
        while subjects.len() > named {
            let drop = self.rng.range_usize(0..subjects.len());
            subjects.remove(drop);
        }
        let kind = *self
            .rng
            .pick(&[evidence::NODE_UNREACHABLE, evidence::RS_SILENT]);
        for &subject in &subjects {
            let current = self.peers[usize::from(subject)].gen;
            let ghost = self.rng.chance(0.25);
            let subject_gen = current - u32::from(ghost);
            let gen = self.peers[usize::from(accuser)].gen;
            self.later(
                t,
                40,
                Frame::complain(accuser, gen, subject, subject_gen, kind),
            );
        }
        let first = subjects[0];
        if named == INVERSION_ACCUSED && self.rng.chance(0.5) {
            // The mass accuser speaks again just as its discredit lapses.
            let gen = self.peers[usize::from(accuser)].gen;
            let subject_gen = self.peers[usize::from(first)].gen;
            let again = Frame::complain(accuser, gen, first, subject_gen, kind);
            self.later(t + 2_000, 100, again);
        }
        if self.n() > 2 && self.rng.chance(0.5) {
            let second = loop {
                let s = self.other_than(id);
                if s != first {
                    break s;
                }
            };
            let gen = self.peers[usize::from(second)].gen;
            let subject_gen = self.peers[usize::from(first)].gen;
            self.later(
                t,
                200,
                Frame::complain(second, gen, first, subject_gen, kind),
            );
        }
    }

    /// A convicted node goes down and comes back as the next generation.
    fn reboot(&mut self, t: u64, node: u8) {
        let down_for = self.rng.range_u64(250..1_000);
        let peer = &mut self.peers[usize::from(node)];
        peer.silent_until = peer.silent_until.max(t + down_for);
        peer.reborn = true;
    }

    /// Mode changes and one-off frames drawn at step `t`.
    fn draw(&mut self, t: u64) {
        let id = self.id;
        let peers = f64::from(self.n() - 1);
        if self.rng.chance(peers / 40_000.0) {
            let p = usize::from(self.other_than(id));
            if self.rng.chance(0.5) {
                self.peers[p].silent_until = t + self.rng.range_u64(300..3_000);
                self.peers[p].reborn |= self.rng.chance(0.5);
            } else {
                self.peers[p].stalled_until = t + self.rng.range_u64(1_000..5_000);
            }
        }
        if self.rng.chance(1.0 / 10_000.0) {
            self.draw_complaints(t);
        }
        if self.rng.chance(1.0 / 20_000.0) {
            // A verdict from some peer, which the fleet carries out.
            let from = self.other_than(id);
            let subject = self.other_than(from);
            let from_gen = self.peers[usize::from(from)].gen;
            let subject_gen = self.peers[usize::from(subject)].gen;
            let kind = evidence::NODE_UNREACHABLE;
            self.later(
                t,
                5,
                Frame::convict(from, from_gen, subject, subject_gen, kind),
            );
            self.reboot(t, subject);
        }
        if self.rng.chance(1.0 / 5_000.0) {
            let from = self.other_than(id);
            let mut peer = self.peers[usize::from(from)];
            peer.hb_seq += 1;
            peer.beacon += u64::from(self.rng.chance(0.5));
            self.later(t, 5, Frame::alive(from, peer.gen, peer.stat(from)));
        }
        if self.rng.chance(1.0 / 20_000.0) {
            self.rs_up = !self.rs_up;
        }
    }

    /// Every frame delivered to the agent at step `t`, in a fixed order.
    fn frames_at(&mut self, t: u64) -> Vec<Frame> {
        self.draw(t);
        let mut frames = self.pending.remove(&t).unwrap_or_default();
        for p in 0..self.n() {
            if p == self.id {
                continue;
            }
            let idx = usize::from(p);
            if t < self.peers[idx].silent_until || t % 50 != self.peers[idx].phase {
                continue;
            }
            if std::mem::take(&mut self.peers[idx].reborn) {
                let peer = &mut self.peers[idx];
                (peer.gen, peer.hb_seq, peer.beacon) = (peer.gen + 1, 0, 0);
            }
            let peer = &mut self.peers[idx];
            peer.hb_seq += 1;
            peer.beacon += u64::from(t >= peer.stalled_until);
            let gen = peer.gen;
            // Its own stat, and now and then the whole gossip vector.
            let view = if self.rng.chance(0.3) {
                let all = (0..self.n()).filter(|&q| q != self.id);
                all.map(|q| self.peers[usize::from(q)].stat(q)).collect()
            } else {
                vec![self.peers[idx].stat(p)]
            };
            frames.push(Frame::heartbeat(p, gen, view));
        }
        frames
    }
}

/// What the schedules covered, summed so the test can insist that every
/// ingredient really occurred.
#[derive(Default)]
struct Coverage {
    ticked: u64,
    skipped: u64,
    /// Ticks of B that put out nothing and left an empty ledger.
    wasted: u64,
    /// Agent A's counters, folded under `fleet.agent.*`.
    stats: MetricsRegistry,
}

fn run_schedule(n: u8, schedule: u64, cov: &mut Coverage) {
    let rng = SimRng::new(0xA6E7).fork_indexed("agent-due", u64::from(n) << 32 | schedule);
    let mut world = World::new(n, rng);
    let mut a = FleetAgent::new(world.id, n, 1, SimTime::ZERO);
    let mut b = FleetAgent::new(world.id, n, 1, SimTime::ZERO);
    for t in 0..STEPS {
        let now = SimTime::ZERO + SimDuration::from_millis(t);
        for frame in world.frames_at(t) {
            a.on_frame(now, &frame);
            b.on_frame(now, &frame);
        }
        let local = world.local(t);
        let full = a.tick(now, &local);
        for FleetAction::Convict { node, .. } in &full.actions {
            world.reboot(t, *node);
        }
        if b.next_due(now) <= now {
            // Step (1).
            let due = b.tick(now, &local);
            assert_eq!(due.frames, full.frames, "n={n} schedule={schedule} t={t}ms");
            assert_eq!(
                due.actions, full.actions,
                "n={n} schedule={schedule} t={t}ms"
            );
            cov.ticked += 1;
            let quiet = due.frames.is_empty() && due.actions.is_empty();
            let empty = |node| b.arbiter().evidence(usize::from(node)).next().is_none();
            if quiet && (0..n).all(empty) {
                cov.wasted += 1;
            }
        } else {
            // Step (2).
            assert!(
                full.frames.is_empty() && full.actions.is_empty(),
                "n={n} schedule={schedule} t={t}ms: skipped, but A put out {full:?}"
            );
            cov.skipped += 1;
        }
    }
    // Step (3).
    let at = format!("n={n} schedule={schedule} end");
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "{at}");
    for node in 0..n {
        assert_eq!(a.view_of(node), b.view_of(node), "{at} node {node}");
        let held = |x: &FleetAgent| x.arbiter().evidence(usize::from(node)).count();
        assert_eq!(held(&a), held(&b), "{at} node {node}");
    }
    a.stats.fold_into(&mut cov.stats);
}

fn check(n: u8) {
    let mut cov = Coverage::default();
    for schedule in 0..SCHEDULES {
        run_schedule(n, schedule, &mut cov);
    }
    let seen = |name: &str| cov.stats.counter(&format!("fleet.agent.{name}")) > 0;
    let report = cov.stats.render_counters();
    for name in [
        "complaints_sent",
        "complaints_accepted",
        "rebuttals_sent",
        "convictions",
    ] {
        assert!(seen(name), "{name} never happened:\n{report}");
    }
    // With one peer every complaint delivered is about the agent itself,
    // and its own complaint is a quorum: no ghosts, nothing left to clear.
    assert_eq!(seen("ghost_rejected"), n > 2, "{report}");
    assert_eq!(seen("rebutted_cleared"), n > 2, "{report}");
    // A peer can name `INVERSION_ACCUSED` subjects that are neither itself
    // nor the agent (which answers with a rebuttal instead) from 5 nodes up.
    if usize::from(n) > INVERSION_ACCUSED + 1 {
        assert!(seen("inversions"), "{report}");
    }
    // Step (4): B's idle ticks are one early wake per strict threshold and
    // at most one discredit's quanta per inversion, not more.
    let steps = SCHEDULES * STEPS;
    let held =
        cov.stats.counter("fleet.agent.inversions") * (COMPLAINT_WINDOW.as_micros() / 1_000 + 1);
    assert!(
        cov.wasted <= held + steps / 1_000,
        "{} idle ticks in {steps} steps",
        cov.wasted
    );
    // The point of `next_due`: most instants need no tick.
    assert!(
        cov.skipped > cov.ticked,
        "{} skipped, {} ticked",
        cov.skipped,
        cov.ticked
    );
}

#[test]
fn two_nodes() {
    check(2);
}

#[test]
fn three_nodes() {
    check(3);
}

#[test]
fn four_nodes() {
    check(4);
}

#[test]
fn eight_nodes() {
    check(8);
}
