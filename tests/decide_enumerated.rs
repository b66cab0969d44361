//! Enumerates, rather than samples, the two decision cores of
//! `rs/decide.rs` at small scope.
//!
//! **Arbitration.** Every complaint sequence up to `DEPTH` steps long, by
//! up to three accusers against up to three accused (inversion needs
//! `INVERSION_ACCUSED` = 3 distinct targets), each step one of:
//!
//! * an accuser's complaint of low or high confidence about the live
//!   incarnation, filed 1 ms or exactly `COMPLAINT_WINDOW` after the step
//!   before — so every pair of entries is either inside the window, on
//!   its closed edge, or (two steps or more apart) past it;
//! * a ghost (about the incarnation before the live one) or a
//!   self-accusation. Both are rejections that change nothing, so they
//!   are tried as the last step only.
//!
//! The same sequences drive both levels: `decide::Arbiter` as RS holds it
//! (keyed by name, clearing an accused when it convicts it), and a
//! `FleetAgent` through `on_frame` + `tick` (node ids, kept fresh by a
//! heartbeat at every step, the agent the ring successor of accused 2).
//! At every step, against an independent recount of the complaints the
//! level recorded:
//!
//! * a rejected complaint (ghost, self) is never recorded;
//! * a conviction is on a high-confidence complaint as it is judged, or
//!   has a quorum of recorded low-confidence complaints about the live
//!   incarnation inside the window;
//! * an inverted accuser's complaints convict nobody in the same window:
//!   those filed inside a window either side of its inversion back no
//!   conviction;
//! * `clear` + `expire` leak nothing: a window later the arbiter is empty.
//!
//! **The restart ladder.** `RestartRecord::on_defect` over every pattern
//! of up to `LADDER_DEPTH` counted or administrative defects, 10 ms, one
//! budget window or one window and a millisecond apart, at budgets 1 to 3,
//! server-class and not, each pattern possibly ended by
//! `operator_override`: restarts are the counted defects inside the
//! window; the storm level never falls without a quiet window and never
//! skips a level, nor does the server rung; give-up holds for every later
//! defect over budget until the override or a whole quiet window, and
//! after the override the ladder starts afresh. (A defect back within
//! budget, once older ones have left the window, is restarted: RS never
//! books one, since a given-up service is not running.)
//!
//! A failure panics with the sequence as a literal, ready to paste into
//! `REGRESSIONS` below. `cargo test --release` (as `ci.sh` runs it) takes
//! the full depths; an unoptimised build takes one step less of each so
//! that tier-1 stays within seconds.

use std::time::Instant;

use phoenix_fleet::{FleetAction, FleetAgent, Frame, LocalView, NodeStat};
use phoenix_kernel::types::Endpoint;
use phoenix_servers::policy::{reason, PolicyParams};
use phoenix_servers::proto::evidence;
use phoenix_servers::rs::decide::{
    Accusation, Accused, Arbiter, Escalation, Quorum, RestartRecord, Rung, Verdict,
    COMPLAINT_WINDOW,
};
use phoenix_simcore::time::{SimDuration, SimTime};
use Gap::{Tick, Window};
use Who::{Accuser, Itself};

/// Complaint sequence length.
const DEPTH: usize = if cfg!(debug_assertions) { 4 } else { 5 };
/// Defect pattern length.
const LADDER_DEPTH: usize = if cfg!(debug_assertions) { 6 } else { 8 };

/// Time since the step before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Gap {
    /// 1 ms.
    Tick,
    /// Exactly [`COMPLAINT_WINDOW`].
    Window,
}

impl Gap {
    fn duration(self) -> SimDuration {
        match self {
            Tick => SimDuration::from_millis(1),
            Window => COMPLAINT_WINDOW,
        }
    }
}

/// Who files the complaint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Who {
    /// One of three accusers that are never accused.
    Accuser(u8),
    /// The accused itself.
    Itself,
}

/// One complaint of a sequence.
#[derive(Clone, Copy, Debug)]
struct Step {
    gap: Gap,
    who: Who,
    /// 0, 1 or 2.
    whom: u8,
    high: bool,
    /// About the incarnation before the live one.
    stale: bool,
}

/// Sequences a failure printed, pasted as regression cases. The first is
/// the conviction RS made on a discredited accuser's evidence.
#[rustfmt::skip]
const REGRESSIONS: &[&[Step]] = &[
    &[Step { gap: Tick, who: Accuser(0), whom: 0, high: false, stale: false }, Step { gap: Tick, who: Accuser(0), whom: 1, high: false, stale: false }, Step { gap: Tick, who: Accuser(0), whom: 2, high: false, stale: false }, Step { gap: Tick, who: Accuser(1), whom: 0, high: false, stale: false }],
];

/// What became of one complaint at a level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Filed {
    Recorded,
    Ghost,
    SelfAccusation,
    Inverted,
    /// Heard and set aside: a discredited accuser, a rebooting subject.
    Dropped,
}

/// A level under test: a complaint in, what became of it and who was
/// convicted out.
trait Level: Clone {
    const NAME: &'static str;
    /// What convicts an accused on low-confidence evidence.
    fn quorum() -> Quorum;
    /// The live generation of accused `whom`.
    fn gen(&self, whom: u8) -> u32;
    fn file(&mut self, now: SimTime, depth: u64, step: Step) -> (Filed, Vec<u8>);
    /// Clears every accused, lets a window pass, and says whether the
    /// arbiter is left empty.
    fn settles_empty(&self, now: SimTime, depth: u64) -> bool;
}

fn kind(high: bool) -> u32 {
    if high {
        evidence::DEADLINE
    } else {
        evidence::CRC_MISMATCH
    }
}

/// RS: services 0–2 are accused (endpoint slot 10 + i), the accusers
/// are guarded services `a`, `b`, `c`.
#[derive(Clone, Default)]
struct Node {
    arbiter: Arbiter<String>,
    gens: [u32; 3],
}

impl Node {
    fn endpoint(&self, whom: u8) -> Endpoint {
        Endpoint::new(10 + u16::from(whom), 1 + self.gens[usize::from(whom)])
    }
}

impl Level for Node {
    const NAME: &'static str = "node";

    fn quorum() -> Quorum {
        Quorum::service(PolicyParams::BASELINE.quorum_complaints)
    }

    fn gen(&self, whom: u8) -> u32 {
        self.gens[usize::from(whom)]
    }

    fn file(&mut self, now: SimTime, _: u64, step: Step) -> (Filed, Vec<u8>) {
        let live = self.endpoint(step.whom);
        let (source, name) = match step.who {
            Accuser(j) => (
                Endpoint::new(20 + u16::from(j), 1),
                ["a", "b", "c"][usize::from(j)],
            ),
            Itself => (live, ["s0", "s1", "s2"][usize::from(step.whom)]),
        };
        let stated = Endpoint::new(live.slot(), live.generation() - u32::from(step.stale));
        let accusation = Accusation {
            source,
            accuser: name.to_string(),
            authorized: true,
            kind: kind(step.high),
            incarnation: Some(stated),
            accused: Some(Accused {
                idx: usize::from(step.whom),
                server: false,
                endpoint: Some(live),
                quorum: Self::quorum(),
            }),
        };
        match self.arbiter.judge(now, accusation) {
            Verdict::BelowQuorum => (Filed::Recorded, vec![]),
            Verdict::Convicted { accused, .. } => {
                // RS kills the accused, which clears its record, and
                // restarts it as a new incarnation.
                self.arbiter.clear(accused);
                self.gens[accused] += 1;
                (Filed::Recorded, vec![accused as u8])
            }
            Verdict::Ghost { .. } => (Filed::Ghost, vec![]),
            Verdict::SelfAccusation => (Filed::SelfAccusation, vec![]),
            Verdict::Inverted { .. } => (Filed::Inverted, vec![]),
            Verdict::Discredited => (Filed::Dropped, vec![]),
            other => panic!("no step makes {other:?}"),
        }
    }

    fn settles_empty(&self, now: SimTime, _: u64) -> bool {
        let mut arbiter = self.arbiter.clone();
        for whom in 0..3 {
            arbiter.clear(whom);
        }
        arbiter.expire(now + COMPLAINT_WINDOW + SimDuration::from_millis(1));
        arbiter == Arbiter::default()
    }
}

/// The fleet: accused nodes 0–2, the agent under test is node 3 (ring
/// successor of 2, so it arbitrates 2 always and 0 or 1 while the nodes
/// between stand accused), accusers are nodes 4–6.
#[derive(Clone)]
struct Fleet {
    agent: FleetAgent,
    gens: [u32; 3],
}

const AGENT: u8 = 3;
const NODES: u8 = 7;

impl Fleet {
    fn new() -> Fleet {
        Fleet {
            agent: FleetAgent::new(AGENT, NODES, 1, SimTime::ZERO),
            gens: [0; 3],
        }
    }

    /// Every node fresh at `now`, through one gossip vector.
    fn beat(&mut self, now: SimTime, depth: u64) {
        let view: Vec<NodeStat> = (0..NODES)
            .filter(|&p| p != AGENT)
            .map(|node| NodeStat {
                node,
                gen: self.node_gen(node),
                hb_seq: depth + 1,
                beacon: depth + 1,
                rs_up: true,
            })
            .collect();
        self.agent.on_frame(now, &Frame::heartbeat(4, 1, view));
    }

    fn node_gen(&self, node: u8) -> u32 {
        self.gens.get(usize::from(node)).map_or(1, |g| 1 + g)
    }

    fn tick(&mut self, now: SimTime, depth: u64) -> Vec<u8> {
        let local = LocalView {
            rs_beacon: depth,
            rs_up: true,
        };
        let out = self.agent.tick(now, &local);
        out.actions
            .iter()
            .map(|FleetAction::Convict { node, .. }| {
                self.gens[usize::from(*node)] += 1;
                *node
            })
            .collect()
    }
}

impl Level for Fleet {
    const NAME: &'static str = "fleet";

    fn quorum() -> Quorum {
        phoenix_fleet::agent::quorum(NODES)
    }

    fn gen(&self, whom: u8) -> u32 {
        self.gens[usize::from(whom)]
    }

    fn file(&mut self, now: SimTime, depth: u64, step: Step) -> (Filed, Vec<u8>) {
        self.beat(now, depth);
        let (from, from_gen) = match step.who {
            Accuser(j) => (4 + j, 1),
            Itself => (step.whom, self.node_gen(step.whom)),
        };
        let subject_gen = self.node_gen(step.whom) - u32::from(step.stale);
        let frame = Frame::complain(from, from_gen, step.whom, subject_gen, kind(step.high));
        let before = self.agent.stats;
        self.agent.on_frame(now, &frame);
        let after = self.agent.stats;
        let filed = if after.ghost_rejected > before.ghost_rejected {
            Filed::Ghost
        } else if after.inversions > before.inversions {
            Filed::Inverted
        } else if after.complaints_accepted > before.complaints_accepted {
            Filed::Recorded
        } else if step.who == Itself {
            Filed::SelfAccusation
        } else {
            Filed::Dropped
        };
        (filed, self.tick(now, depth))
    }

    fn settles_empty(&self, now: SimTime, depth: u64) -> bool {
        let mut fleet = self.clone();
        let later = now + COMPLAINT_WINDOW + SimDuration::from_millis(1);
        fleet.beat(later, depth + 1);
        fleet.tick(later, depth + 1);
        *fleet.agent.arbiter() == Arbiter::default()
    }
}

/// A recorded low-confidence complaint, as the recount sees it.
#[derive(Clone, Copy)]
struct Record {
    at: SimTime,
    who: Who,
    whom: u8,
    gen: u32,
}

/// The independent recount: every complaint a level recorded and every
/// inversion it reported.
#[derive(Clone, Default)]
struct Recount {
    records: Vec<Record>,
    inversions: Vec<(Who, SimTime)>,
}

impl Recount {
    /// Whether `accuser`'s complaint filed at `filed` lies inside a window
    /// either side of one of its inversions.
    fn discredits(&self, accuser: Who, filed: SimTime) -> bool {
        self.inversions.iter().any(|&(who, at)| {
            who == accuser && filed.since(at).max(at.since(filed)) <= COMPLAINT_WINDOW
        })
    }

    /// The recorded evidence that may back a conviction of `whom` at
    /// generation `gen` at `now`.
    fn backing(&self, now: SimTime, whom: u8, gen: u32) -> Vec<Record> {
        self.records
            .iter()
            .filter(|r| r.whom == whom && r.gen == gen && now.since(r.at) <= COMPLAINT_WINDOW)
            .filter(|r| !self.discredits(r.who, r.at))
            .copied()
            .collect()
    }
}

/// What the enumeration reached, so the test can insist each rule ran.
#[derive(Default, Debug)]
struct Seen {
    states: u64,
    volume: u64,
    distinct: u64,
    high: u64,
    inversion: u64,
    discredited: u64,
    ghost: u64,
    self_accusation: u64,
    expiry: u64,
}

/// The steps that may follow `seq`. Accusers, and accused, are
/// interchangeable at both levels but for the accused's ring position, so
/// each is named in order of first appearance: a step names one already
/// named or the next new one. Rejections come last only.
fn steps(seq: &[Step]) -> Vec<Step> {
    let last = seq.len() + 1 == DEPTH;
    let accusers = seq.iter().filter_map(|s| match s.who {
        Accuser(j) => Some(j + 1),
        Itself => None,
    });
    let accusers = accusers.max().unwrap_or(0).min(2);
    let accused = seq.iter().map(|s| s.whom + 1).max().unwrap_or(0).min(2);
    let mut steps = Vec::new();
    for gap in [Tick, Window] {
        for whom in 0..=accused {
            let step = |who, high, stale| Step {
                gap,
                who,
                whom,
                high,
                stale,
            };
            for j in 0..=accusers {
                steps.push(step(Accuser(j), false, false));
                steps.push(step(Accuser(j), true, false));
                if last {
                    steps.push(step(Accuser(j), false, true));
                }
            }
            if last {
                steps.push(step(Itself, false, false));
            }
        }
    }
    steps
}

/// One filed complaint and what the level made of it.
struct Filing {
    at: SimTime,
    step: Step,
    /// The accused's generation when it was filed.
    gen: u32,
    filed: Filed,
    convicted: Vec<u8>,
}

impl Filing {
    fn file<L: Level>(level: &mut L, at: SimTime, depth: u64, step: Step) -> Filing {
        let gen = level.gen(step.whom);
        let (filed, convicted) = level.file(at, depth, step);
        Filing {
            at,
            step,
            gen,
            filed,
            convicted,
        }
    }
}

/// Checks one filing against the recount and folds it in; returns why
/// it is wrong.
fn check<L: Level>(
    level: &L,
    recount: &mut Recount,
    seen: &mut Seen,
    f: &Filing,
) -> Result<(), String> {
    let (now, step) = (f.at, f.step);
    let rejected = step.stale || step.who == Itself;
    match f.filed {
        Filed::Recorded if rejected => return Err("a rejected complaint was recorded".into()),
        // A high-confidence complaint convicts as it is judged or not at
        // all: it leaves no evidence behind.
        Filed::Recorded if step.high => {}
        Filed::Recorded => recount.records.push(Record {
            at: now,
            who: step.who,
            whom: step.whom,
            gen: f.gen,
        }),
        Filed::Inverted => {
            seen.inversion += 1;
            recount.inversions.push((step.who, now));
        }
        Filed::Ghost => seen.ghost += 1,
        Filed::SelfAccusation => seen.self_accusation += 1,
        Filed::Dropped => {
            let discredit = recount
                .inversions
                .iter()
                .any(|&(who, at)| who == step.who && now.since(at) <= COMPLAINT_WINDOW);
            seen.discredited += u64::from(discredit);
        }
    }
    let aged = recount.records.iter().any(|r| {
        r.whom == step.whom && r.gen == level.gen(step.whom) && now.since(r.at) > COMPLAINT_WINDOW
    });
    seen.expiry += u64::from(aged);
    for &whom in &f.convicted {
        if step.high && whom == step.whom && f.filed == Filed::Recorded {
            if recount.discredits(step.who, now) {
                return Err(format!("{whom} convicted by a discredited accuser"));
            }
            seen.high += 1;
            continue;
        }
        let backing = recount.backing(now, whom, level.gen(whom) - 1);
        let n = backing.len();
        let mut accusers: Vec<Who> = backing.iter().map(|r| r.who).collect();
        accusers.sort();
        accusers.dedup();
        let distinct = accusers.len();
        if distinct >= L::quorum().accusers {
            seen.distinct += 1;
        } else if n >= L::quorum().complaints {
            seen.volume += 1;
        } else {
            return Err(format!(
                "{whom} convicted on {n} complaints from {distinct} accusers"
            ));
        }
    }
    Ok(())
}

fn explore<L: Level>(
    level: &L,
    recount: &Recount,
    seq: &mut Vec<Step>,
    now: SimTime,
    seen: &mut Seen,
) {
    let depth = seq.len() as u64;
    if !level.settles_empty(now, depth) {
        panic!("{}: the arbiter leaks after {seq:?}", L::NAME);
    }
    if seq.len() == DEPTH {
        return;
    }
    for step in steps(seq) {
        let mut level = level.clone();
        let mut recount = recount.clone();
        let at = now + step.gap.duration();
        let filing = Filing::file(&mut level, at, depth + 1, step);
        seen.states += 1;
        seq.push(step);
        if let Err(why) = check(&level, &mut recount, seen, &filing) {
            panic!("{}: {why}; counterexample:\n&{seq:?}", L::NAME);
        }
        explore(&level, &recount, seq, at, seen);
        seq.pop();
    }
}

fn enumerate<L: Level>(root: L) -> Seen {
    let start = Instant::now();
    let mut seen = Seen::default();
    explore(
        &root,
        &Recount::default(),
        &mut Vec::new(),
        SimTime::ZERO,
        &mut seen,
    );
    println!(
        "enumerated {} {} states depth {DEPTH} wall {:.2} s",
        L::NAME,
        seen.states,
        start.elapsed().as_secs_f64()
    );
    println!("reached {} {seen:?}", L::NAME);
    seen
}

#[test]
fn node_arbitration_enumerated() {
    let seen = enumerate(Node::default());
    for (rule, n) in [
        ("volume quorum", seen.volume),
        ("distinct quorum", seen.distinct),
        ("high confidence", seen.high),
        ("inversion", seen.inversion),
        ("discredit", seen.discredited),
        ("ghost", seen.ghost),
        ("self-accusation", seen.self_accusation),
        ("window expiry", seen.expiry),
    ] {
        assert!(n > 0, "node: {rule} never reached: {seen:?}");
    }
}

#[test]
fn fleet_arbitration_enumerated() {
    let seen = enumerate(Fleet::new());
    assert_eq!(seen.volume, 0, "the fleet has no volume quorum");
    // Nor high-confidence evidence: no agent sends it, and a frame that
    // claims it is judged in `on_frame`, which cannot act.
    assert_eq!(seen.high, 0, "the fleet convicts at its ticks only");
    for (rule, n) in [
        ("distinct quorum", seen.distinct),
        ("inversion", seen.inversion),
        ("discredit", seen.discredited),
        ("ghost", seen.ghost),
        ("self-accusation", seen.self_accusation),
        ("window expiry", seen.expiry),
    ] {
        assert!(n > 0, "fleet: {rule} never reached: {seen:?}");
    }
}

fn replay<L: Level>(mut level: L, seq: &[Step]) {
    let mut recount = Recount::default();
    let mut seen = Seen::default();
    let mut now = SimTime::ZERO;
    for (depth, &step) in seq.iter().enumerate() {
        now += step.gap.duration();
        let filing = Filing::file(&mut level, now, depth as u64 + 1, step);
        if let Err(why) = check(&level, &mut recount, &mut seen, &filing) {
            panic!("{}: {why} at step {depth} of {seq:?}", L::NAME);
        }
    }
    assert!(
        level.settles_empty(now, seq.len() as u64),
        "{}: leaks",
        L::NAME
    );
}

#[test]
fn regressions_hold_at_both_levels() {
    for seq in REGRESSIONS {
        replay(Node::default(), seq);
        replay(Fleet::new(), seq);
    }
}

/// One defect of a ladder pattern.
#[derive(Clone, Copy, Debug)]
enum Defect {
    /// A crash: counted against the budget.
    Exit,
    /// An administrative kill: never counted.
    Killed,
}

/// The recount of one record: counted defect times since the last reset,
/// and the storm level.
#[derive(Clone, Default)]
struct Ladder {
    record: RestartRecord,
    counted: Vec<SimTime>,
    storm: u32,
    gave_up: bool,
}

/// Checks one escalation; returns why not.
fn climb(
    ladder: &mut Ladder,
    now: SimTime,
    defect: Defect,
    budget: u32,
    window: SimDuration,
    server: bool,
) -> Result<(), String> {
    let code = match defect {
        Defect::Exit => reason::EXIT,
        Defect::Killed => reason::KILLED,
    };
    let got = ladder.record.on_defect(now, code, budget, window, server);
    if let Defect::Killed = defect {
        return if got == Escalation::default() {
            Ok(())
        } else {
            Err(format!("an administrative kill escalated: {got:?}"))
        };
    }
    ladder.counted.retain(|&t| now.since(t) <= window);
    let quiet = ladder.counted.is_empty();
    if quiet {
        ladder.storm = 0;
        ladder.gave_up = false;
    }
    ladder.counted.push(now);
    let restarts = ladder.counted.len();
    if got.restarts != restarts {
        return Err(format!(
            "{} restarts counted, {restarts} in the window",
            got.restarts
        ));
    }
    let over = restarts as u32 > budget;
    let expected_storm = if over { ladder.storm + 1 } else { 0 };
    if got.storm != expected_storm {
        return Err(format!("storm {} after level {}", got.storm, ladder.storm));
    }
    if over {
        ladder.storm = got.storm;
    }
    if ladder.gave_up && over && !got.gives_up() {
        return Err("give-up lifted without an override".into());
    }
    ladder.gave_up |= got.gives_up();
    let rung = match (server, restarts, got.storm) {
        (false, _, _) => None,
        (true, _, 1..) => Some(Rung::Storm),
        (true, 1, 0) => Some(Rung::Micro),
        (true, n, 0) => Some(Rung::Group { reboot: n == 2 }),
    };
    if got.rung != rung {
        return Err(format!("rung {:?} at {restarts} restarts", got.rung));
    }
    Ok(())
}

fn ladder_explore(
    ladder: &Ladder,
    seq: &mut Vec<(SimDuration, Defect)>,
    now: SimTime,
    params: (u32, SimDuration, bool),
    states: &mut u64,
) {
    let (budget, window, server) = params;
    let fail = |why: String, seq: &[(SimDuration, Defect)]| -> ! {
        panic!("ladder budget {budget} server {server}: {why}; counterexample:\n&{seq:?}")
    };
    // The override ends every pattern: the next defect starts afresh.
    let mut after = ladder.record.clone();
    after.operator_override();
    let fresh = after.on_defect(now, reason::EXIT, budget, window, server);
    if fresh.restarts != 1 || fresh.storm != 0 {
        fail(format!("the override left {fresh:?}"), seq);
    }
    if seq.len() == LADDER_DEPTH {
        return;
    }
    let ms = SimDuration::from_millis;
    for gap in [ms(10), window, window + ms(1)] {
        for defect in [Defect::Exit, Defect::Killed] {
            let mut next = ladder.clone();
            let at = now + gap;
            *states += 1;
            seq.push((gap, defect));
            if let Err(why) = climb(&mut next, at, defect, budget, window, server) {
                fail(why, seq);
            }
            ladder_explore(&next, seq, at, params, states);
            seq.pop();
        }
    }
}

#[test]
fn restart_ladder_enumerated() {
    let start = Instant::now();
    let mut states = 0;
    for budget in 1..=3 {
        for server in [false, true] {
            let params = (budget, SimDuration::from_millis(1_000), server);
            ladder_explore(
                &Ladder::default(),
                &mut Vec::new(),
                SimTime::ZERO,
                params,
                &mut states,
            );
        }
    }
    println!(
        "enumerated ladder {states} states depth {LADDER_DEPTH} wall {:.2} s",
        start.elapsed().as_secs_f64()
    );
}
