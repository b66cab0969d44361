//! RS's decisions as plain values (§5.2).
//!
//! Nothing in this file touches the kernel, counts a metric or logs an
//! event (`phoenix-analyze`'s `decide-purity` rule checks that). The
//! shell in `rs.rs` *detects* a defect, asks one of these values what to
//! do, and *acts* on the answer — so tests, and a state-space explorer,
//! can drive the rules over defect and complaint sequences without an
//! event loop, and RS's decision state is data that can be checkpointed.
//!
//! * [`Window`] — the one sliding window every age-pruned history uses.
//! * [`RestartRecord::on_defect`] → [`Escalation`] — the restart ladder.
//! * [`Arbiter::judge`] → [`Verdict`] — complaint arbitration, for RS
//!   and for the fleet agent alike (`phoenix-fleet`'s `agent.rs`).
//! * [`Repair::plan`] — what becomes of the policy script's decision.
//!
//! A system without failure handling decides none of this, so the whole
//! module is recovery code in Fig. 9's count:
//! analyze:recovery

use std::collections::{BTreeMap, VecDeque};

use phoenix_kernel::types::Endpoint;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::policy::{reason, PolicyDecision};
use crate::proto::evidence;

/// Minimum time between a service's death and its restarted incarnation
/// (fork + exec + image load).
pub const EXEC_LATENCY: SimDuration = SimDuration::from_millis(10);

/// Complaint arbitration window: quorums and inversions count the
/// complaints inside it.
pub const COMPLAINT_WINDOW: SimDuration = SimDuration::from_secs(2);

/// Distinct accusers inside the window that convict a service.
const QUORUM_ACCUSERS: usize = 2;

/// Distinct accused inside the window at which an accuser is inverted.
pub const INVERSION_ACCUSED: usize = 3;

/// Timestamped entries, oldest first, pruned by age.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window<T> {
    entries: VecDeque<(SimTime, T)>,
}

impl<T> Window<T> {
    /// Appends `item`, filed at `now`.
    pub fn push(&mut self, now: SimTime, item: T) {
        self.entries.push_back((now, item));
    }

    /// Drops every entry older than `width` at `now`, and says whether
    /// any is left. [`SimTime::since`] saturates, so this is also the
    /// `t < now − width` rule with the subtraction clamped at zero.
    pub fn prune(&mut self, now: SimTime, width: SimDuration) -> bool {
        while self
            .entries
            .front()
            .is_some_and(|&(t, _)| now.since(t) > width)
        {
            self.entries.pop_front();
        }
        !self.entries.is_empty()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The held items, oldest first.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, item)| item)
    }

    /// Keeps only the items `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.entries.retain(|(_, item)| keep(item));
    }

    /// How many distinct `key`s the held items have. Quadratic and
    /// allocation-free: a window holds a handful of entries.
    pub fn distinct<U: PartialEq + ?Sized>(&self, key: impl Fn(&T) -> &U) -> usize {
        let keys = || self.items().map(&key);
        keys()
            .enumerate()
            .filter(|(i, k)| keys().take(*i).all(|e| e != *k))
            .count()
    }
}

/// One service's restart history — the ladder's only state.
#[derive(Debug, Clone, Default)]
pub struct RestartRecord {
    /// Counted restarts inside the budget window.
    times: Window<()>,
    /// Storm-ladder position (0 = calm).
    storm_level: u32,
}

/// The recursive ladder of a server-class component: reboot the smallest
/// suspect first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// First defect inside the window: single-server microreboot.
    Micro,
    /// A recurrence: the server plus its dependents, in case shared
    /// protocol state is what is poisoned. `reboot` holds on the first
    /// recurrence only — the group reboot fires once per window, later
    /// recurrences stay single-server until the storm ladder takes over,
    /// so a flapping server cannot amplify into a permanent
    /// dependency-restart loop.
    Group { reboot: bool },
    /// Budget exhausted: the storm ladder's cool-down and give-up.
    Storm,
}

/// What the ladder says about one defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Escalation {
    /// Counted restarts inside the window, this one included.
    pub restarts: usize,
    /// Storm level this defect raised the service to; 0 inside budget.
    pub storm: u32,
    /// Server-class rung; `None` for drivers.
    pub rung: Option<Rung>,
}

impl Escalation {
    /// Storm level 1: the service alone keeps failing — restart it
    /// together with its dependents.
    pub fn restarts_dependents(&self) -> bool {
        self.storm == 1
    }

    /// Storm level 2: an extended cool-down on top of the policy's delay.
    pub fn cools_down(&self) -> bool {
        self.storm == 2
    }

    /// Storm level 3: restarting, restarting with dependents and cooling
    /// down all failed to calm the service.
    pub fn gives_up(&self) -> bool {
        self.storm >= 3
    }
}

impl RestartRecord {
    /// Books one defect against `budget` restarts per `window` and says
    /// how far to escalate. User-initiated defects (kill, update) are
    /// administrative actions, not crash loops: they are never counted
    /// and never escalate.
    pub fn on_defect(
        &mut self,
        now: SimTime,
        defect: u8,
        budget: u32,
        window: SimDuration,
        server: bool,
    ) -> Escalation {
        if defect == reason::UPDATE || defect == reason::KILLED {
            return Escalation::default();
        }
        self.times.prune(now, window);
        // A long quiet period de-escalates the storm ladder.
        if self.times.is_empty() {
            self.storm_level = 0;
        }
        self.times.push(now, ());
        let restarts = self.times.len();
        let mut storm = 0;
        if restarts as u32 > budget {
            self.storm_level += 1;
            storm = self.storm_level;
        }
        let rung = server.then_some(if storm > 0 {
            Rung::Storm
        } else if restarts >= 2 {
            Rung::Group {
                reboot: restarts == 2,
            }
        } else {
            Rung::Micro
        });
        Escalation {
            restarts,
            storm,
            rung,
        }
    }

    /// The operator overrides the ladder (`service up` / `restart` on a
    /// given-up service, e.g. after fixing the hardware out of band).
    pub fn operator_override(&mut self) {
        *self = RestartRecord::default();
    }
}

/// What RS does with the policy script's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The script gave up (or did not ask for a restart).
    GiveUp,
    /// A warm spare is live: promote it instead of cold-restarting — the
    /// repair phase collapses from fork+exec+restore+replay to a publish
    /// round-trip.
    PromoteSpare,
    /// Cold restart after `delay` (before jitter). `stale_spare`: the
    /// restart loads a different binary, so a spare tailing the old one
    /// must be retired.
    Restart {
        delay: SimDuration,
        stale_spare: bool,
    },
}

impl Repair {
    /// Updates and version-pinned restarts must load a different binary,
    /// so they always cold-restart. Even a "direct" restart pays the
    /// fork+exec+image-load cost, which also keeps a component that dies
    /// at initialization from turning into an unthrottled crash loop.
    pub fn plan(
        decision: &PolicyDecision,
        defect: u8,
        escalation: &Escalation,
        spare_alive: bool,
    ) -> Repair {
        if decision.gave_up || !decision.restart {
            return Repair::GiveUp;
        }
        let stale_spare = defect == reason::UPDATE || decision.version.is_some();
        if spare_alive && !stale_spare {
            return Repair::PromoteSpare;
        }
        let mut delay = decision.delay.max(EXEC_LATENCY);
        if escalation.cools_down() {
            delay = delay.saturating_mul(16);
        }
        Repair::Restart { delay, stale_spare }
    }
}

/// Complaints inside the window that convict on low-confidence evidence:
/// `complaints` of them (repeats counted) or `accusers` distinct accusers,
/// whichever comes first. Each caller passes its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quorum {
    /// Complaints that convict on volume.
    pub complaints: usize,
    /// Distinct accusers that convict.
    pub accusers: usize,
}

impl Quorum {
    /// A service's under RS: the `quorum_complaints` of its policy, or
    /// two distinct accusers.
    pub fn service(quorum_complaints: u32) -> Quorum {
        Quorum {
            complaints: quorum_complaints as usize,
            accusers: QUORUM_ACCUSERS,
        }
    }
}

/// What the caller knows about the accused when a complaint arrives.
#[derive(Debug, Clone, Copy)]
pub struct Accused {
    /// Its index: RS's service table, the fleet's node id.
    pub idx: usize,
    /// Server-class (may be accused by any live caller).
    pub server: bool,
    /// Its live incarnation; `None` while it is down.
    pub endpoint: Option<Endpoint>,
    /// What convicts it on low-confidence evidence.
    pub quorum: Quorum,
}

/// One complaint, with the facts the rules need.
#[derive(Debug, Clone, Copy)]
pub struct Accusation<K> {
    /// The complaining incarnation.
    pub source: Endpoint,
    /// Whom the histories are keyed on: one key across the accuser's own
    /// incarnations, so a flapping accuser cannot impersonate a quorum.
    pub accuser: K,
    /// The source is on the complainant allowlist.
    pub authorized: bool,
    /// Evidence class (see [`evidence`]).
    pub kind: u32,
    /// The incarnation the evidence was gathered against, if stated.
    pub incarnation: Option<Endpoint>,
    /// The accused, `None` when there is no such component.
    pub accused: Option<Accused>,
}

/// Why an accused was convicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grounds {
    /// One complaint of a high-confidence evidence class.
    HighConfidence,
    /// Low-confidence evidence reached `n` complaints from `distinct`
    /// accusers inside the window.
    Quorum { n: usize, distinct: usize },
}

/// Outcome of arbitrating one complaint (defect class 5, §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<K> {
    /// Neither a configured complainant nor a caller of a server-class
    /// component.
    Unauthorized,
    /// No such component. Counted, not acted on.
    Unknown,
    /// A component cannot be witness against itself (and a confused
    /// server must not trigger its own restart through this path).
    SelfAccusation,
    /// Evidence against an incarnation other than the live one says
    /// nothing about the live one.
    Ghost { incarnation: Endpoint },
    /// The accused is not up.
    Down,
    /// Crash-only baseline: vetted and counted, never acted on.
    Disarmed,
    /// The accuser was inverted less than a window ago: its complaints
    /// are ignored until the window has passed.
    Discredited,
    /// The accuser blamed `distinct` components inside one window and is
    /// the more plausible defect: its evidence is struck and it is
    /// discredited for a window.
    Inverted { accuser: K, distinct: usize },
    /// Restart component `accused`.
    Convicted { accused: usize, grounds: Grounds },
    /// Evidence recorded toward a quorum.
    BelowQuorum,
}

impl<K> Verdict<K> {
    /// Authorized accuser, known accused: the complaint counts as
    /// evidence whatever becomes of it.
    pub fn vetted(&self) -> bool {
        !matches!(self, Verdict::Unauthorized | Verdict::Unknown)
    }
}

/// The complaint arbiter of both levels: a node's RS keys accusers by
/// stable name, the fleet agent by node id. Its state is the evidence per
/// accused, the accusers' recent targets and the inverted accusers, all
/// pruned to the complaint window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Arbiter<K> {
    /// Evidence is not acted on. Complaints are still vetted, so the
    /// evidence stream stays observable.
    pub disarmed: bool,
    /// `(accuser, evidence kind)` per accused, low-confidence only: one
    /// high-confidence complaint convicts as it is judged.
    ledger: BTreeMap<usize, Window<(K, u32)>>,
    /// Accused per accuser.
    history: BTreeMap<K, Window<usize>>,
    /// Accusers inverted inside the window.
    discredited: Window<K>,
}

impl<K: Ord + Clone + Default> Arbiter<K> {
    /// Rejects unauthorized, unknown, self- and ghost complaints, ignores
    /// a discredited accuser, inverts accuser-vs-accused when one accuser
    /// blames too many components, and records the rest: one complaint of
    /// a high-confidence class convicts, low-confidence evidence needs the
    /// accused's quorum.
    pub fn judge(&mut self, now: SimTime, a: Accusation<K>) -> Verdict<K> {
        if !a.authorized && !a.accused.is_some_and(|s| s.server) {
            return Verdict::Unauthorized;
        }
        let Some(accused) = a.accused else {
            return Verdict::Unknown;
        };
        if accused.endpoint == Some(a.source) {
            return Verdict::SelfAccusation;
        }
        if let Some(incarnation) = a.incarnation {
            if accused.endpoint != Some(incarnation) {
                return Verdict::Ghost { incarnation };
            }
        }
        if accused.endpoint.is_none() {
            return Verdict::Down;
        }
        if self.disarmed {
            return Verdict::Disarmed;
        }
        self.discredited.prune(now, COMPLAINT_WINDOW);
        if self.discredited.items().any(|k| *k == a.accuser) {
            return Verdict::Discredited;
        }
        let targets = self.history.entry(a.accuser.clone()).or_default();
        targets.push(now, accused.idx);
        targets.prune(now, COMPLAINT_WINDOW);
        let distinct = targets.distinct(|target| target);
        if distinct >= INVERSION_ACCUSED {
            // Its history needs no forgetting: by the time the discredit
            // lapses, the history has left the window too.
            for held in self.ledger.values_mut() {
                held.retain(|(k, _)| *k != a.accuser);
            }
            let accuser = a.accuser;
            self.discredited.push(now, accuser.clone());
            return Verdict::Inverted { accuser, distinct };
        }
        if evidence::high_confidence(a.kind) {
            return Verdict::Convicted {
                accused: accused.idx,
                grounds: Grounds::HighConfidence,
            };
        }
        let held = self.ledger.entry(accused.idx).or_default();
        held.push(now, (a.accuser, a.kind));
        held.prune(now, COMPLAINT_WINDOW);
        match self.standing(accused.idx, accused.quorum) {
            Some(grounds) => Verdict::Convicted {
                accused: accused.idx,
                grounds,
            },
            None => Verdict::BelowQuorum,
        }
    }

    /// Whether the low-confidence evidence held against `accused` makes
    /// `quorum`. Reads the window as last pruned, by [`Arbiter::judge`]
    /// or [`Arbiter::expire`].
    pub fn standing(&self, accused: usize, quorum: Quorum) -> Option<Grounds> {
        let held = self.ledger.get(&accused)?;
        let n = held.len();
        let distinct = held.distinct(|(k, _)| k);
        (n >= quorum.complaints || distinct >= quorum.accusers)
            .then_some(Grounds::Quorum { n, distinct })
    }

    /// Whether any evidence may be held: a window a strike or a
    /// withdrawal emptied stays until the next [`Arbiter::expire`].
    pub fn holds_evidence(&self) -> bool {
        !self.ledger.is_empty()
    }

    /// The evidence kinds held against `accused`, oldest first.
    pub fn evidence(&self, accused: usize) -> impl Iterator<Item = u32> + '_ {
        let held = self.ledger.get(&accused).into_iter();
        held.flat_map(|held| held.items().map(|&(_, kind)| kind))
    }

    /// Withdraws the evidence against `accused` of the kinds `rebutted`
    /// names, and returns how many complaints that was.
    pub fn withdraw(&mut self, accused: usize, rebutted: impl Fn(u32) -> bool) -> usize {
        self.ledger.get_mut(&accused).map_or(0, |held| {
            let before = held.len();
            held.retain(|&(_, kind)| !rebutted(kind));
            before - held.len()
        })
    }

    /// The incarnation under accusation is going away; its successor
    /// starts with a clean complaint record.
    pub fn clear(&mut self, accused: usize) {
        self.ledger.remove(&accused);
    }

    /// Drops everything whose window has expired, so that nothing leaks
    /// and [`Arbiter::standing`] reads only the evidence inside it.
    pub fn expire(&mut self, now: SimTime) {
        self.ledger
            .retain(|_, held| held.prune(now, COMPLAINT_WINDOW));
        self.history
            .retain(|_, named| named.prune(now, COMPLAINT_WINDOW));
        self.discredited.prune(now, COMPLAINT_WINDOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyParams;

    fn at(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn window_prune_spellings_agree() {
        // The shell used to spell the rule two ways: `now.since(t) > w`
        // and `t < now − w` with the subtraction clamped at zero.
        for (now, width) in [(5, 10), (10, 10), (11, 10), (25, 10), (0, 0), (7, 0)] {
            let mut window = Window::default();
            for t in 0..=now {
                window.push(at(t), t);
            }
            window.prune(at(now), ms(width));
            let start = now.saturating_sub(width);
            let kept: Vec<u64> = window.items().copied().collect();
            let expected: Vec<u64> = (0..=now).filter(|&t| t >= start).collect();
            assert_eq!(kept, expected, "now {now} ms, width {width} ms");
        }
    }

    /// Feeds `(time ms, defect, expected)` rows to one fresh record.
    fn ladder(budget: u32, window_ms: u64, server: bool, rows: &[(u64, u8, Escalation)]) {
        let mut record = RestartRecord::default();
        for (i, &(t, defect, expected)) in rows.iter().enumerate() {
            let got = record.on_defect(at(t), defect, budget, ms(window_ms), server);
            assert_eq!(got, expected, "row {i} (t = {t} ms)");
        }
    }

    fn esc(restarts: usize, storm: u32, rung: Option<Rung>) -> Escalation {
        Escalation {
            restarts,
            storm,
            rung,
        }
    }

    #[test]
    fn ladder_budget_boundary_and_give_up() {
        let calm = Escalation::default();
        ladder(
            2,
            30_000,
            false,
            &[
                (0, reason::EXIT, esc(1, 0, None)),
                // n == budget is still calm ...
                (100, reason::EXCEPTION, esc(2, 0, None)),
                // ... administrative defects never consume budget ...
                (150, reason::KILLED, calm),
                (160, reason::UPDATE, calm),
                // ... n + 1 is storm level 1, then 2, then the give-up.
                (200, reason::HEARTBEAT, esc(3, 1, None)),
                (300, reason::COMPLAINT, esc(4, 2, None)),
                (350, reason::KILLED, calm),
                (400, reason::EXIT, esc(5, 3, None)),
            ],
        );
        assert!(esc(3, 1, None).restarts_dependents());
        assert!(esc(4, 2, None).cools_down());
        assert!(esc(5, 3, None).gives_up() && esc(6, 4, None).gives_up());
        assert!(!calm.restarts_dependents() && !calm.cools_down() && !calm.gives_up());
    }

    #[test]
    fn ladder_quiet_window_de_escalates() {
        ladder(
            1,
            1_000,
            false,
            &[
                (0, reason::EXIT, esc(1, 0, None)),
                (100, reason::EXIT, esc(2, 1, None)),
                (200, reason::EXIT, esc(3, 2, None)),
                // Entries exactly one window old still count ...
                (1_000, reason::EXIT, esc(4, 3, None)),
                // ... a whole window of quiet resets the storm level.
                (2_001, reason::EXIT, esc(1, 0, None)),
                (2_100, reason::EXIT, esc(2, 1, None)),
            ],
        );
    }

    #[test]
    fn ladder_server_group_reboot_fires_once_per_window() {
        let group = |reboot| Some(Rung::Group { reboot });
        ladder(
            3,
            1_000,
            true,
            &[
                (0, reason::EXIT, esc(1, 0, Some(Rung::Micro))),
                (100, reason::EXIT, esc(2, 0, group(true))),
                (150, reason::KILLED, Escalation::default()),
                (200, reason::EXIT, esc(3, 0, group(false))),
                (300, reason::EXIT, esc(4, 1, Some(Rung::Storm))),
                // A new window starts the ladder over.
                (2_000, reason::EXIT, esc(1, 0, Some(Rung::Micro))),
                (2_100, reason::EXIT, esc(2, 0, group(true))),
            ],
        );
    }

    #[test]
    fn ladder_reset_is_the_operator_override() {
        let mut record = RestartRecord::default();
        for t in 0..3 {
            record.on_defect(at(t), reason::EXIT, 1, ms(1_000), false);
        }
        record.operator_override();
        let got = record.on_defect(at(10), reason::EXIT, 1, ms(1_000), false);
        assert_eq!(got, esc(1, 0, None));
    }

    #[test]
    fn repair_plan_rows() {
        let restart = |delay_ms, version| PolicyDecision {
            restart: true,
            delay: ms(delay_ms),
            version,
            ..PolicyDecision::default()
        };
        let calm = Escalation::default();
        let cool = esc(4, 2, None);
        let cold = |delay_ms, stale_spare| Repair::Restart {
            delay: ms(delay_ms),
            stale_spare,
        };
        let gave_up = PolicyDecision {
            restart: true,
            gave_up: true,
            ..PolicyDecision::default()
        };
        let rows = [
            (
                PolicyDecision::default(),
                reason::EXIT,
                calm,
                true,
                Repair::GiveUp,
            ),
            (gave_up, reason::EXIT, calm, true, Repair::GiveUp),
            (
                restart(0, None),
                reason::EXIT,
                calm,
                true,
                Repair::PromoteSpare,
            ),
            // A direct restart still pays the exec latency.
            (restart(0, None), reason::EXIT, calm, false, cold(10, false)),
            (
                restart(500, None),
                reason::EXIT,
                calm,
                false,
                cold(500, false),
            ),
            // A different binary: never promote, retire the spare.
            (restart(0, None), reason::UPDATE, calm, true, cold(10, true)),
            (
                restart(0, Some(2)),
                reason::EXIT,
                calm,
                true,
                cold(10, true),
            ),
            // Storm level 2 stretches whatever the policy decided.
            (
                restart(0, None),
                reason::EXIT,
                cool,
                false,
                cold(160, false),
            ),
            (
                restart(500, None),
                reason::EXIT,
                cool,
                false,
                cold(8_000, false),
            ),
        ];
        for (i, (decision, defect, escalation, spare_alive, expected)) in rows.iter().enumerate() {
            let got = Repair::plan(decision, *defect, escalation, *spare_alive);
            assert_eq!(got, *expected, "row {i}");
        }
    }

    const VICTIM: Endpoint = Endpoint::new(10, 1);

    fn victim(idx: usize) -> Accused {
        Accused {
            idx,
            server: false,
            endpoint: Some(VICTIM),
            quorum: Quorum {
                complaints: PolicyParams::BASELINE.quorum_complaints as usize,
                accusers: QUORUM_ACCUSERS,
            },
        }
    }

    /// An authorized complaint of `kind` by the guarded service `accuser`,
    /// currently incarnated as `source`, against `accused`.
    fn accuse(
        accuser: &'static str,
        source: Endpoint,
        kind: u32,
        accused: Accused,
    ) -> Accusation<String> {
        Accusation {
            source,
            accuser: accuser.to_string(),
            authorized: true,
            kind,
            incarnation: None,
            accused: Some(accused),
        }
    }

    const LOW: u32 = evidence::CRC_MISMATCH;
    const HIGH: u32 = evidence::DEADLINE;
    const VFS: Endpoint = Endpoint::new(5, 1);
    const MFS: Endpoint = Endpoint::new(6, 1);

    #[test]
    fn arbiter_one_row_per_verdict() {
        let base = accuse("vfs", VFS, HIGH, victim(0));
        let convicted = |grounds| Verdict::Convicted {
            accused: 0,
            grounds,
        };
        let server = Accused {
            server: true,
            ..victim(0)
        };
        let rows = [
            (
                true,
                Accusation {
                    authorized: false,
                    ..base.clone()
                },
                Verdict::Unauthorized,
            ),
            // Any live caller may accuse a server-class component.
            (
                true,
                Accusation {
                    authorized: false,
                    accused: Some(server),
                    ..base.clone()
                },
                convicted(Grounds::HighConfidence),
            ),
            (
                true,
                Accusation {
                    accused: None,
                    ..base.clone()
                },
                Verdict::Unknown,
            ),
            (
                true,
                Accusation {
                    authorized: false,
                    accused: None,
                    ..base.clone()
                },
                Verdict::Unauthorized,
            ),
            (
                true,
                Accusation {
                    source: VICTIM,
                    ..base.clone()
                },
                Verdict::SelfAccusation,
            ),
            (
                true,
                Accusation {
                    incarnation: Some(Endpoint::new(10, 0)),
                    ..base.clone()
                },
                Verdict::Ghost {
                    incarnation: Endpoint::new(10, 0),
                },
            ),
            (
                true,
                Accusation {
                    incarnation: Some(VICTIM),
                    ..base.clone()
                },
                convicted(Grounds::HighConfidence),
            ),
            (
                true,
                Accusation {
                    accused: Some(Accused {
                        endpoint: None,
                        ..victim(0)
                    }),
                    ..base.clone()
                },
                Verdict::Down,
            ),
            (false, base.clone(), Verdict::Disarmed),
            (true, base.clone(), convicted(Grounds::HighConfidence)),
            (true, Accusation { kind: LOW, ..base }, Verdict::BelowQuorum),
        ];
        for (i, (armed, accusation, expected)) in rows.iter().enumerate() {
            // A fresh arbiter per row: each verdict from a clean history.
            let mut arbiter = Arbiter {
                disarmed: !armed,
                ..Arbiter::default()
            };
            let got = arbiter.judge(at(0), accusation.clone());
            assert_eq!(got, *expected, "row {i}");
            assert_eq!(got.vetted(), i != 0 && i != 2 && i != 3, "row {i} vetted");
        }
    }

    #[test]
    fn arbiter_quorum_counts_accusers_by_stable_name() {
        let mut arbiter = Arbiter::default();
        let quorum = |n, distinct| Verdict::Convicted {
            accused: 0,
            grounds: Grounds::Quorum { n, distinct },
        };
        // One flapping accuser: three incarnations, still one name — it
        // takes the volume quorum, not the two-accusers one.
        let rows = [
            (0, accuse("vfs", VFS, LOW, victim(0)), Verdict::BelowQuorum),
            (
                100,
                accuse("vfs", Endpoint::new(5, 2), LOW, victim(0)),
                Verdict::BelowQuorum,
            ),
            (
                200,
                accuse("vfs", Endpoint::new(5, 3), LOW, victim(0)),
                quorum(3, 1),
            ),
        ];
        for (i, (t, accusation, expected)) in rows.iter().enumerate() {
            assert_eq!(
                arbiter.judge(at(*t), accusation.clone()),
                *expected,
                "row {i}"
            );
        }
        // The accused is killed: its successor starts with a clean record.
        arbiter.clear(0);
        let rows = [
            (
                300,
                accuse("vfs", VFS, LOW, victim(0)),
                Verdict::BelowQuorum,
            ),
            // A second, distinct accuser convicts at once.
            (400, accuse("mfs", MFS, LOW, victim(0)), quorum(2, 2)),
        ];
        for (i, (t, accusation, expected)) in rows.iter().enumerate() {
            assert_eq!(
                arbiter.judge(at(*t), accusation.clone()),
                *expected,
                "row {i}"
            );
        }
        // An unguarded caller is keyed on its endpoint rendering.
        arbiter.clear(0);
        let app = accuse("(40, 1)", Endpoint::new(40, 1), LOW, victim(0));
        assert_eq!(arbiter.judge(at(500), app), Verdict::BelowQuorum);
        assert_eq!(
            arbiter.judge(at(600), accuse("vfs", VFS, LOW, victim(0))),
            quorum(2, 2)
        );
    }

    #[test]
    fn arbitration_consts_match_the_historical_constants() {
        assert_eq!(COMPLAINT_WINDOW, SimDuration::from_secs(2));
        assert_eq!(QUORUM_ACCUSERS, 2);
        assert_eq!(INVERSION_ACCUSED, 3);
    }

    #[test]
    fn arbiter_window_expiry() {
        let w = COMPLAINT_WINDOW.as_micros() / 1000;
        let mut arbiter = Arbiter::default();
        let low = accuse("vfs", VFS, LOW, victim(0));
        for (i, t) in [0, 100, w + 50, w + 60].into_iter().enumerate() {
            // The third complaint finds only the second still in the
            // window; the fourth completes a fresh volume quorum.
            let expected = if i == 3 {
                Verdict::Convicted {
                    accused: 0,
                    grounds: Grounds::Quorum { n: 3, distinct: 1 },
                }
            } else {
                Verdict::BelowQuorum
            };
            assert_eq!(arbiter.judge(at(t), low.clone()), expected, "complaint {i}");
        }
    }

    #[test]
    fn arbiter_inversion_strikes_and_discredits_the_accuser() {
        let mut arbiter = Arbiter::default();
        let inverted = Verdict::Inverted {
            accuser: "vfs".to_string(),
            distinct: 3,
        };
        let rows = [
            (0, 0, Verdict::BelowQuorum),
            (10, 1, Verdict::BelowQuorum),
            // Repeating a target does not add a distinct one.
            (20, 1, Verdict::BelowQuorum),
            (30, 2, inverted.clone()),
            // Discredited for a window from the inversion ...
            (40, 3, Verdict::Discredited),
            (2_030, 0, Verdict::Discredited),
            // ... then heard again, with a fresh history.
            (2_031, 3, Verdict::BelowQuorum),
            (2_040, 4, Verdict::BelowQuorum),
            (2_050, 5, inverted.clone()),
        ];
        for (i, (t, target, expected)) in rows.iter().enumerate() {
            let accusation = accuse("vfs", VFS, LOW, victim(*target));
            assert_eq!(arbiter.judge(at(*t), accusation), *expected, "row {i}");
        }
        // The sweep leaves nothing behind once the window has passed.
        arbiter.expire(at(10_000));
        assert_eq!(arbiter, Arbiter::default());
    }

    /// An accuser's evidence dies with its inversion: a second accuser
    /// inside the window does not complete a quorum with it. (RS used to
    /// keep the discredited accuser's entries and convicted here.)
    #[test]
    fn arbiter_inverted_accuser_evidence_convicts_nobody() {
        let mut arbiter = Arbiter::default();
        for (t, target) in [(0, 0), (10, 1)] {
            let accusation = accuse("x", VFS, LOW, victim(target));
            assert_eq!(arbiter.judge(at(t), accusation), Verdict::BelowQuorum);
        }
        let verdict = arbiter.judge(at(20), accuse("x", VFS, LOW, victim(2)));
        assert!(matches!(verdict, Verdict::Inverted { .. }), "{verdict:?}");
        let verdict = arbiter.judge(at(30), accuse("y", MFS, LOW, victim(0)));
        assert_eq!(verdict, Verdict::BelowQuorum);
    }
}
