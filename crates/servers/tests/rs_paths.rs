//! The reincarnation server's reconciliation paths, each driven by
//! holding or dropping one delivery on the kernel's chaos hook: for each
//! role an incarnation plays (the primary, its warm spare, PM itself) a
//! start reply that outlives the start timeout, one that is lost, a lost
//! publish acknowledgement and a death before the bind; plus an operator
//! DOWN racing a start and the warm spare's upkeep. Every case states
//! the counters RS reports and which of the rig's programs are left
//! running, and no case may end with more incarnations of a guarded
//! program than RS has slots for: an orphan nobody guards.

use std::collections::BTreeMap;

use phoenix_kernel::chaos::{ChaosInterposer, ChaosVerdict, IpcClass, IpcEnvelope};
use phoenix_kernel::platform::NullPlatform;
use phoenix_kernel::privileges::{KernelCall, Privileges};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{Endpoint, Message, Signal};
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

/// The holds of one run, plus an optional SIGKILL of the `nth` spawn
/// (from 1) of one program 1 ms after it.
struct Fabric {
    holds: Vec<Hold>,
    seen: BTreeMap<(&'static str, &'static str, u8), u32>,
    strike: Option<(&'static str, u32)>,
    spawns: u32,
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
        let (program, nth) = self.strike?;
        if name != program {
            return None;
        }
        self.spawns += 1;
        (self.spawns == nth).then_some(SimDuration::from_millis(1))
    }
}

/// What happens during a run, at a simulated millisecond.
enum Act {
    /// The user kills the live incarnation of a program.
    Kill(&'static str),
    /// An operator sends RS a request naming `drv`.
    Ask(u32),
    /// A client sends the live incarnation of a program a request.
    Call(&'static str),
}

/// The guarded driver: no heartbeat, restarted directly.
fn drv() -> ServiceConfig {
    ServiceConfig::driver("drv").without_heartbeat()
}

/// One run: RS guarding `service` (and, if `server`, the server-class
/// `srv`) over a fabric of `holds` (and the strike), with `drv`, (if
/// `spare`) `standby.drv` and (if `pm_guard`) `pm` registered, `acts`
/// played, to `end_ms`. With `pm_guard` RS holds the spawn and kill
/// calls and guards PM.
struct Case {
    name: &'static str,
    service: ServiceConfig,
    server: bool,
    spare: bool,
    pm_guard: bool,
    holds: Vec<Hold>,
    strike: Option<(&'static str, u32)>,
    acts: Vec<(u64, Act)>,
    end_ms: u64,
}

impl Case {
    fn new(name: &'static str, service: ServiceConfig, holds: Vec<Hold>) -> Self {
        Case {
            name,
            service,
            server: false,
            spare: false,
            pm_guard: false,
            holds,
            strike: None,
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
            strike: self.strike,
            spawns: 0,
        }));
        let mut programs = vec!["drv"];
        let mut services = vec![self.service];
        if self.spare {
            programs.push("standby.drv");
        }
        if self.server {
            programs.push("srv");
            services.push(ServiceConfig::server("srv"));
        }
        for name in programs {
            sys.register_program(name, Privileges::server(), Box::new(|| Box::new(Inert)));
        }
        let ds = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
        let pm_logic = move || Box::new(Server::new(ProcessManager::new(), ds, None));
        let pm = sys.spawn_boot("pm", Privileges::process_manager(), pm_logic());
        let mut rs = ReincarnationServer::new(pm, ds, services);
        let mut rs_privileges = Privileges::reincarnation_server();
        if self.pm_guard {
            let pm_program = Box::new(move || pm_logic() as Box<dyn Process>);
            sys.register_program("pm", Privileges::process_manager(), pm_program);
            let calls = [KernelCall::SetAlarm, KernelCall::Spawn, KernelCall::Kill];
            rs_privileges = rs_privileges.with_calls(calls);
            rs = rs.with_pm_guard();
        }
        let rs = sys.spawn_boot("rs", rs_privileges, Box::new(rs));
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
                Act::Call(name) => {
                    let ep = sys.endpoint_by_name(name).expect("running");
                    let client = Box::new(Operator(ep, Message::new(1)));
                    sys.spawn_boot(&format!("client{n}"), Privileges::server(), client);
                }
            }
        }
        sys.run_until(&mut NullPlatform, SimTime::from_micros(self.end_ms * 1000));
        sys
    }
}

/// The counters of the paths this file drives, and the service's
/// starts and recoveries.
const COUNTERS: [&str; 20] = [
    "rs.starts",
    "rs.recoveries",
    "rs.start_timeouts",
    "rs.ghost_kills",
    "rs.orphans_reaped",
    "rs.early_death_rescues",
    "rs.start_aborted",
    "rs.lost_sigchld",
    "rs.publish_retries",
    "rs.gave_up",
    "rs.standby.spares_started",
    "rs.standby.spares_retired",
    "rs.standby.spare_deaths",
    "rs.standby.spare_dead_at_promotion",
    "rs.standby.promotions",
    "rs.standby.unavailable",
    "rs.standby.promote_unframed",
    "rs.pm_defects",
    "rs.pm_recoveries",
    "rs.pm_respawn_failed",
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

/// The rig's programs left running after a run, one entry per process,
/// sorted.
fn running(sys: &System) -> Vec<String> {
    let programs = ["drv", "standby.drv", "pm", "srv"];
    let mut names: Vec<String> = sys
        .live_processes()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| programs.contains(&name.as_str()))
        .collect();
    names.sort();
    names
}

/// How many incarnations of each guarded program the slots can hold: a
/// primary, a spare and a promoted spare (`standby.drv`, both at once),
/// PM.
const SLOTS: [(&str, usize); 3] = [("drv", 1), ("standby.drv", 2), ("pm", 1)];

/// The guarded programs with more live incarnations than slots to hold
/// them, and how many run: an unguarded orphan is one of them.
fn over_slots(sys: &System) -> Vec<(&'static str, usize)> {
    let live = running(sys);
    SLOTS
        .iter()
        .map(|&(program, slots)| {
            (
                program,
                slots,
                live.iter().filter(|n| *n == program).count(),
            )
        })
        .filter(|&(_, slots, n)| n > slots)
        .map(|(program, _, n)| (program, n))
        .collect()
}

/// A delivery the fabric drops.
fn lose(from: &'static str, to: &'static str, class: IpcClass, nth: u32) -> Hold {
    Hold {
        verdict: ChaosVerdict::Drop,
        ..hold(from, to, class, nth, 0)
    }
}

/// A case, the nonzero [`COUNTERS`] it ends with and what [`running`]
/// returns after it.
type Row = (
    Case,
    &'static [(&'static str, u64)],
    &'static [&'static str],
);

/// A hot-standby `drv` whose primary is killed at 200 ms, after any
/// start retry; the run lasts 400 ms.
fn failover(name: &'static str, holds: Vec<Hold>) -> Case {
    Case {
        spare: true,
        acts: vec![(200, Act::Kill("drv"))],
        end_ms: 400,
        ..Case::new(name, drv().with_hot_standby(), holds)
    }
}

/// One row per role (the primary, its warm spare, PM) and per loss.
fn role_rows() -> [Row; 12] {
    use IpcClass::Reply;
    let standby = drv().with_hot_standby();
    // RS guarding PM as well as `drv`.
    let guarded = |name, holds| Case {
        pm_guard: true,
        ..Case::new(name, drv(), holds)
    };
    [
        // The primary.
        (
            // The start reply is held past START_TIMEOUT (50 ms): when
            // the timeout fires RS reaps the incarnation PM spawned as an
            // orphan and retries, and the late reply names an incarnation
            // the kernel no longer runs, so no ghost kill follows.
            Case::new(
                "primary: start reply outlives the timeout",
                drv(),
                vec![hold("pm", "rs", Reply, 1, 80)],
            ),
            &[
                ("rs.starts", 1),
                ("rs.start_timeouts", 1),
                ("rs.orphans_reaped", 1),
            ],
            &["drv", "pm"],
        ),
        (
            // The START request itself is held past the timeout: nothing
            // is spawned yet when it fires, so RS only retries. The
            // delayed START spawns after that reconcile, and only its
            // reply names the incarnation: a ghost, which RS kills.
            Case::new(
                "primary: start request outlives the timeout",
                drv(),
                vec![hold("rs", "pm", IpcClass::Request, 1, 80)],
            ),
            &[
                ("rs.starts", 1),
                ("rs.start_timeouts", 1),
                ("rs.ghost_kills", 1),
            ],
            &["drv", "pm"],
        ),
        (
            // The START request is held past the retry's own timeout too
            // (to 150 ms) and its reply is lost: the spawn comes after
            // both timeouts' reconciles and no reply names it, so the
            // audit at 750 ms reaps it as an orphan.
            Case {
                end_ms: 1_000,
                ..Case::new(
                    "primary: start request outlives the retry's timeout, its reply lost",
                    drv(),
                    vec![
                        hold("rs", "pm", IpcClass::Request, 1, 150),
                        lose("pm", "rs", Reply, 2),
                    ],
                )
            },
            &[
                ("rs.starts", 1),
                ("rs.start_timeouts", 1),
                ("rs.orphans_reaped", 1),
            ],
            &["drv", "pm"],
        ),
        (
            // The start reply is lost: no reply ever names the first
            // incarnation, so when the timeout fires RS kills it as an
            // orphan the kernel runs and no slot holds, then retries.
            Case::new(
                "primary: start reply lost",
                drv(),
                vec![lose("pm", "rs", Reply, 1)],
            ),
            &[
                ("rs.starts", 1),
                ("rs.start_timeouts", 1),
                ("rs.orphans_reaped", 1),
            ],
            &["drv", "pm"],
        ),
        (
            // The publish acknowledgement is lost: RS re-publishes.
            Case::new(
                "primary: publish ACK lost",
                drv(),
                vec![lose("ds", "rs", Reply, 1)],
            ),
            &[("rs.starts", 1), ("rs.publish_retries", 1)],
            &["drv", "pm"],
        ),
        (
            // The first incarnation dies 1 ms after its spawn and its
            // exit report overtakes the start reply: RS recognizes the
            // corpse and recovers.
            Case {
                strike: Some(("drv", 1)),
                ..Case::new(
                    "primary: death before the bind",
                    drv(),
                    vec![hold("pm", "rs", Reply, 1, 5)],
                )
            },
            &[("rs.recoveries", 1), ("rs.early_death_rescues", 1)],
            &["drv", "pm"],
        ),
        // The warm spare, whose start reply is the second `pm -> rs` reply
        // and whose publish acknowledgement the second `ds -> rs` one.
        (
            // As for the primary: RS reaps the first spare as an orphan,
            // retries and binds the retry's spare, which is promoted.
            failover(
                "spare: start reply outlives the timeout",
                vec![hold("pm", "rs", Reply, 2, 80)],
            ),
            &[
                ("rs.starts", 1),
                ("rs.recoveries", 1),
                ("rs.start_timeouts", 1),
                ("rs.orphans_reaped", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.promotions", 1),
                ("rs.standby.promote_unframed", 1),
            ],
            &["pm", "standby.drv", "standby.drv"],
        ),
        (
            // As for the primary: the first spare is reaped as an orphan
            // when the timeout fires, the retry's spare is promoted at the
            // primary's death, and its slot refilled.
            failover("spare: start reply lost", vec![lose("pm", "rs", Reply, 2)]),
            &[
                ("rs.starts", 1),
                ("rs.recoveries", 1),
                ("rs.start_timeouts", 1),
                ("rs.orphans_reaped", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.promotions", 1),
                ("rs.standby.promote_unframed", 1),
            ],
            &["pm", "standby.drv", "standby.drv"],
        ),
        (
            // As for the primary: RS re-publishes.
            Case {
                spare: true,
                ..Case::new(
                    "spare: publish ACK lost",
                    standby.clone(),
                    vec![lose("ds", "rs", Reply, 2)],
                )
            },
            &[
                ("rs.starts", 1),
                ("rs.publish_retries", 1),
                ("rs.standby.spares_started", 1),
            ],
            &["drv", "pm", "standby.drv"],
        ),
        (
            // The spare dies 1 ms after its spawn, before its held start
            // reply: RS recognizes the corpse and refills the slot.
            Case {
                spare: true,
                strike: Some(("standby.drv", 1)),
                ..Case::new(
                    "spare: death before the bind",
                    standby.clone(),
                    vec![hold("pm", "rs", Reply, 2, 5)],
                )
            },
            &[
                ("rs.starts", 1),
                ("rs.early_death_rescues", 1),
                ("rs.standby.spares_started", 1),
                ("rs.standby.spare_deaths", 1),
            ],
            &["drv", "pm", "standby.drv"],
        ),
        // PM, whose publish acknowledgement is the first `ds -> rs` reply.
        // Its starter, `sys_spawn`, answers at once: no reply to hold or
        // lose.
        (
            // As for the primary: RS re-publishes.
            guarded("PM: publish ACK lost", vec![lose("ds", "rs", Reply, 1)]),
            &[("rs.starts", 1), ("rs.publish_retries", 1)],
            &["drv", "pm"],
        ),
        (
            // The user kills PM at 100 ms; the audit finds it gone at
            // 750 ms, and its replacement dies 1 ms after its spawn.
            Case {
                strike: Some(("pm", 2)),
                acts: vec![(100, Act::Kill("pm"))],
                end_ms: 1_000,
                ..guarded("PM: death right after the spawn", vec![])
            },
            &[
                ("rs.starts", 1),
                ("rs.pm_defects", 2),
                ("rs.pm_recoveries", 2),
            ],
            &["drv", "pm"],
        ),
    ]
}

#[test]
fn each_reconciliation_path_keeps_its_outcome_and_counters() {
    use IpcClass::Reply;
    let standby = drv().with_hot_standby();
    let cases: [Row; 7] = [
        (
            // DOWN while the start is in flight: the operator wins, and
            // the start's reply names a ghost.
            Case {
                acts: vec![(5, Act::Ask(rsp::DOWN))],
                ..Case::new(
                    "DOWN while a start is in flight",
                    drv(),
                    vec![hold("pm", "rs", Reply, 1, 20)],
                )
            },
            &[("rs.ghost_kills", 1)],
            &["pm"],
        ),
        (
            // The same DOWN with the start's reply lost: no reply names
            // the incarnation PM spawned, so the start timeout reaps it
            // as an orphan, and no retry follows.
            Case {
                acts: vec![(5, Act::Ask(rsp::DOWN))],
                ..Case::new(
                    "DOWN while a start is in flight, its reply lost",
                    drv(),
                    vec![lose("pm", "rs", Reply, 1)],
                )
            },
            &[("rs.orphans_reaped", 1)],
            &["pm"],
        ),
        (
            // DOWN of a running primary while its spare's start is in
            // flight: the spare's start is abandoned with it.
            Case {
                spare: true,
                acts: vec![(5, Act::Ask(rsp::DOWN))],
                ..Case::new(
                    "DOWN while a spare start is in flight",
                    standby.clone(),
                    vec![hold("pm", "rs", Reply, 2, 20)],
                )
            },
            &[("rs.starts", 1), ("rs.ghost_kills", 1)],
            &["pm"],
        ),
        (
            // The warm spare dies: no recovery episode, a fresh spare.
            Case {
                spare: true,
                acts: vec![(100, Act::Kill("standby.drv"))],
                end_ms: 300,
                ..Case::new("a warm spare dies", standby.clone(), vec![])
            },
            &[
                ("rs.starts", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.spare_deaths", 1),
            ],
            &["drv", "pm", "standby.drv"],
        ),
        (
            // A failover with nothing lost: the spare is promoted and
            // its slot refilled.
            failover("a failover", vec![]),
            &[
                ("rs.starts", 1),
                ("rs.recoveries", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.promotions", 1),
                ("rs.standby.promote_unframed", 1),
            ],
            &["pm", "standby.drv", "standby.drv"],
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
            &[
                ("rs.starts", 1),
                ("rs.recoveries", 1),
                ("rs.standby.spares_started", 2),
                ("rs.standby.spares_retired", 1),
            ],
            &["drv", "pm", "standby.drv"],
        ),
        (
            // No `standby.drv` program: PM refuses the spare, RS counts it
            // and clears the flag, so the audit sweep never retries.
            Case {
                end_ms: 1_000,
                ..Case::new("no standby program", standby, vec![])
            },
            &[("rs.starts", 1), ("rs.standby.unavailable", 1)],
            &["drv", "pm"],
        ),
    ];
    let mut wrong = Vec::new();
    for (case, counters, live) in role_rows().into_iter().chain(cases) {
        let name = case.name;
        let sys = case.run();
        let (got, running, orphans) = (nonzero(&sys), running(&sys), over_slots(&sys));
        if got != counters || running != live || !orphans.is_empty() {
            wrong.push(format!(
                "{name}: counters {got:?}, running {running:?}, over its slots {orphans:?}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// An operator DOWN of a running service leaves the progress watchdog
/// armed: `drv` is downed at 100 ms and the inert server `srv` sits on a
/// client's request from 200 ms, which RS convicts it of once the request
/// is older than the 8 s stall age. The downed service is not given up on.
#[test]
fn a_downed_service_leaves_the_progress_watchdog_armed() {
    let run = |acts| {
        Case {
            server: true,
            acts,
            end_ms: 12_000,
            ..Case::new("a wedged server", drv(), vec![])
        }
        .run()
    };
    let convictions = |sys: &System| sys.metrics().counter("rs.complaints.accepted");
    assert_eq!(convictions(&run(vec![(200, Act::Call("srv"))])), 1);
    let downed = run(vec![(100, Act::Ask(rsp::DOWN)), (200, Act::Call("srv"))]);
    assert_eq!(convictions(&downed), 1, "DOWN silenced the watchdog");
    assert_eq!(downed.metrics().counter("rs.gave_up"), 0);
    assert!(downed.endpoint_by_name("drv").is_none(), "drv stays down");
}

/// A DS acknowledgement that outlives the incarnation it published must
/// not verify the successor's publish: the first incarnation dies 1 ms
/// after its bind with its ACK held, the successor's own ACK is lost, and
/// RS must re-publish for the successor.
#[test]
fn a_late_publish_ack_verifies_only_its_own_incarnation() {
    let lost = lose("ds", "rs", IpcClass::Reply, 2);
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
