//! The reincarnation server's reconciliation paths, each driven by
//! holding one delivery on the kernel's chaos hook: a start reply that
//! outlives the start timeout, an exit report that overtakes its start
//! reply, an operator DOWN racing a start, and the warm spare's upkeep.
//! Every case states the outcome and the counters RS reports for it.

use std::collections::BTreeMap;

use phoenix_kernel::chaos::{ChaosInterposer, ChaosVerdict, IpcClass, IpcEnvelope};
use phoenix_kernel::platform::NullPlatform;
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{Endpoint, Message, Signal};
use phoenix_servers::policy::PolicyScript;
use phoenix_servers::proto::rs as rsp;
use phoenix_servers::rs::{ReincarnationServer, ServiceConfig};
use phoenix_servers::{DataStore, ProcessManager, Server};
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

/// A guarded program that ignores everything, SIGTERM included.
struct Inert;

impl Process for Inert {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: ProcEvent) {}
}

/// Sends one request to RS when it starts.
struct Operator(Endpoint, Message);

impl Process for Operator {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if matches!(event, ProcEvent::Start) {
            let _ = ctx.sendrec(self.0, self.1.clone());
        }
    }
}

/// The `nth` delivery (from 1) of `class` from `from` to `to`, and what
/// the fabric does with it.
#[derive(Clone, Copy)]
struct Hold {
    from: &'static str,
    to: &'static str,
    class: IpcClass,
    nth: u32,
    verdict: ChaosVerdict,
}

fn hold(from: &'static str, to: &'static str, class: IpcClass, nth: u32, ms: u64) -> Hold {
    let verdict = ChaosVerdict::HoldUntil(SimTime::from_micros(ms * 1000));
    Hold {
        from,
        to,
        class,
        nth,
        verdict,
    }
}

/// The holds of one run, plus an optional SIGKILL of the first `drv`
/// incarnation 1 ms after its spawn.
struct Fabric {
    holds: Vec<Hold>,
    seen: BTreeMap<(&'static str, &'static str, u8), u32>,
    kill_first_spawn: bool,
}

impl ChaosInterposer for Fabric {
    fn on_ipc(&mut self, _now: SimTime, env: &IpcEnvelope<'_>, _rng: &mut SimRng) -> ChaosVerdict {
        let key = (env.from_name, env.to_name, env.class);
        let Some(h) = self.holds.iter().find(|h| (h.from, h.to, h.class) == key) else {
            return ChaosVerdict::Deliver;
        };
        let n = self.seen.entry((h.from, h.to, h.class as u8)).or_default();
        *n += 1;
        let nth = *n;
        self.holds
            .iter()
            .find(|h| (h.from, h.to, h.class, h.nth) == (key.0, key.1, key.2, nth))
            .map_or(ChaosVerdict::Deliver, |h| h.verdict)
    }

    fn on_spawn(
        &mut self,
        _now: SimTime,
        name: &str,
        _ep: Endpoint,
        _rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let strike = self.kill_first_spawn && name == "drv";
        self.kill_first_spawn &= !strike;
        strike.then_some(SimDuration::from_millis(1))
    }
}

/// What happens during a run, at a simulated millisecond.
enum Act {
    /// The user kills the live incarnation of a program.
    Kill(&'static str),
    /// An operator sends RS a request naming `drv`.
    Ask(u32),
}

/// The guarded driver: no heartbeat, restarted directly.
fn drv() -> ServiceConfig {
    ServiceConfig::driver("drv")
        .with_policy(PolicyScript::direct_restart())
        .without_heartbeat()
}

/// One run: RS guarding `service` over a fabric of `holds` (and the
/// early kill), with `drv` and (if `spare`) `standby.drv` registered,
/// `acts` played, to `end_ms`.
struct Case {
    name: &'static str,
    service: ServiceConfig,
    spare: bool,
    holds: Vec<Hold>,
    kill_first_spawn: bool,
    acts: Vec<(u64, Act)>,
    end_ms: u64,
}

impl Case {
    fn new(name: &'static str, service: ServiceConfig, holds: Vec<Hold>) -> Self {
        Case {
            name,
            service,
            spare: false,
            holds,
            kill_first_spawn: false,
            acts: Vec::new(),
            end_ms: 200,
        }
    }

    /// Boots DS, PM and RS, plays the acts and runs to the end.
    fn run(self) -> System {
        let mut sys = System::new(SystemConfig::default());
        sys.set_chaos(Box::new(Fabric {
            holds: self.holds,
            seen: BTreeMap::new(),
            kill_first_spawn: self.kill_first_spawn,
        }));
        let mut programs = vec!["drv"];
        if self.spare {
            programs.push("standby.drv");
        }
        for name in programs {
            sys.register_program(name, Privileges::server(), Box::new(|| Box::new(Inert)));
        }
        let ds = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
        let pm = Box::new(Server::new(ProcessManager::new(), ds, None));
        let pm = sys.spawn_boot("pm", Privileges::process_manager(), pm);
        let rs = ReincarnationServer::new(pm, ds, vec![self.service]);
        let rs = sys.spawn_boot("rs", Privileges::reincarnation_server(), Box::new(rs));
        for (n, (ms, act)) in self.acts.into_iter().enumerate() {
            sys.run_until(&mut NullPlatform, SimTime::from_micros(ms * 1000));
            match act {
                Act::Kill(name) => {
                    let ep = sys.endpoint_by_name(name).expect("running");
                    assert!(sys.kill_by_user(ep, Signal::Kill));
                }
                Act::Ask(kind) => {
                    let ask = Message::new(kind).with_data(b"drv".to_vec());
                    let operator = Box::new(Operator(rs, ask));
                    sys.spawn_boot(&format!("op{n}"), Privileges::server(), operator);
                }
            }
        }
        sys.run_until(&mut NullPlatform, SimTime::from_micros(self.end_ms * 1000));
        sys
    }
}

/// The counters of the paths this file drives, and the service's
/// starts and recoveries.
const COUNTERS: [&str; 15] = [
    "rs.starts",
    "rs.recoveries",
    "rs.start_timeouts",
    "rs.ghost_kills",
    "rs.early_death_rescues",
    "rs.start_aborted",
    "rs.lost_sigchld",
    "rs.publish_retries",
    "rs.gave_up",
    "rs.standby.spares_started",
    "rs.standby.spares_retired",
    "rs.standby.spare_deaths",
    "rs.standby.spare_dead_at_promotion",
    "rs.standby.unavailable",
    "rs.standby.promote_unframed",
];

/// The nonzero entries of [`COUNTERS`] after a run.
fn nonzero(sys: &System) -> Vec<(&'static str, u64)> {
    let m = sys.metrics();
    COUNTERS
        .iter()
        .map(|&k| (k, m.counter(k)))
        .filter(|&(_, v)| v != 0)
        .collect()
}

#[test]
fn each_reconciliation_path_keeps_its_outcome_and_counters() {
    use IpcClass::Reply;
    let standby = drv().with_hot_standby();
    let cases = [
        (
            // The start reply is held past START_TIMEOUT (50 ms): RS
            // retries, and the late reply reveals a ghost, which it kills.
            Case::new(
                "start reply outlives the timeout",
                drv(),
                vec![hold("pm", "rs", Reply, 1, 80)],
            ),
            vec![
                ("rs.starts", 1),
                ("rs.start_timeouts", 1),
                ("rs.ghost_kills", 1),
            ],
        ),
        (
            // The first incarnation dies 1 ms after its spawn and its
            // exit report overtakes the start reply: RS recognizes the
            // corpse and recovers.
            Case {
                kill_first_spawn: true,
                ..Case::new(
                    "exit report before the start reply",
                    drv(),
                    vec![hold("pm", "rs", Reply, 1, 5)],
                )
            },
            vec![("rs.recoveries", 1), ("rs.early_death_rescues", 1)],
        ),
        (
            // DOWN while the start is in flight: the start still binds
            // the incarnation, which RS then guards.
            Case {
                acts: vec![(5, Act::Ask(rsp::DOWN))],
                ..Case::new(
                    "DOWN while a start is in flight",
                    drv(),
                    vec![hold("pm", "rs", Reply, 1, 20)],
                )
            },
            vec![("rs.starts", 1)],
        ),
        (
            // The warm spare dies: no recovery episode, a fresh spare.
            Case {
                spare: true,
                acts: vec![(100, Act::Kill("standby.drv"))],
                end_ms: 300,
                ..Case::new("a warm spare dies", standby.clone(), vec![])
            },
            vec![
                ("rs.starts", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.spare_deaths", 1),
            ],
        ),
        (
            // UPDATE of a hot-standby service: SIGTERM is ignored, SIGKILL
            // follows the 500 ms grace, and the spare tailing the old
            // binary is retired before the cold restart.
            Case {
                spare: true,
                acts: vec![(100, Act::Ask(rsp::UPDATE))],
                end_ms: 800,
                ..Case::new("UPDATE retires the stale spare", standby.clone(), vec![])
            },
            vec![
                ("rs.starts", 1),
                ("rs.recoveries", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.spares_retired", 1),
            ],
        ),
        (
            // No `standby.drv` program: PM refuses the spare, RS counts it
            // and clears the flag, so the audit sweep never retries.
            Case {
                end_ms: 1_000,
                ..Case::new("no standby program", standby, vec![])
            },
            vec![("rs.starts", 1), ("rs.standby.unavailable", 1)],
        ),
    ];
    for (case, expected) in cases {
        let name = case.name;
        let sys = case.run();
        assert_eq!(nonzero(&sys), expected, "{name}");
        assert!(sys.endpoint_by_name("drv").is_some(), "{name}: drv is up");
    }
}

/// A DS acknowledgement that outlives the incarnation it published must
/// not verify the successor's publish: the first incarnation dies 1 ms
/// after its bind with its ACK held, the successor's own ACK is lost, and
/// RS must re-publish for the successor.
#[test]
fn a_late_publish_ack_verifies_only_its_own_incarnation() {
    let lost = Hold {
        verdict: ChaosVerdict::Drop,
        ..hold("ds", "rs", IpcClass::Reply, 2, 0)
    };
    let sys = Case {
        acts: vec![(1, Act::Kill("drv"))],
        ..Case::new(
            "late publish ACK",
            drv(),
            vec![hold("ds", "rs", IpcClass::Reply, 1, 20), lost],
        )
    }
    .run();
    let m = sys.metrics();
    assert_eq!(m.counter("rs.recoveries"), 1);
    assert_eq!(m.counter("rs.publish_retries"), 1);
    assert_eq!(m.counter("rs.publish_verified"), 1);
}

/// PM's `NO_PROCESS` answer to a kill of a dead incarnation must not
/// convict its healthy successor: `rs restart` races the user's kill, the
/// exit report is held until 150 ms and the kill reply until 400 ms, by
/// when the successor is up.
#[test]
fn a_late_no_process_spares_the_successor() {
    let sys = Case {
        acts: vec![(100, Act::Kill("drv")), (100, Act::Ask(rsp::RESTART))],
        end_ms: 600,
        ..Case::new(
            "late NO_PROCESS",
            drv(),
            vec![
                hold("pm", "rs", IpcClass::Send, 1, 150),
                hold("pm", "rs", IpcClass::Reply, 2, 400),
            ],
        )
    }
    .run();
    assert_eq!(sys.metrics().counter("rs.recoveries"), 1);
    assert_eq!(sys.metrics().counter("rs.lost_sigchld"), 0);
}
