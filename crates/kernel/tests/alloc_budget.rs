//! Heap budget of the per-message path: how many allocations one IPC
//! round trip (also to a callee that already owes calls), notification,
//! alarm, park of a thousand alarms, device write, counter increment,
//! SafeCopy round trip or send the chaos plan refuses may make once the
//! containers they touch have grown.
//!
//! The counting allocator is `heap/counting.rs`, shared with the other
//! heap budgets of the workspace. It counts the whole test binary, which
//! is why the budget is a single test in a file of its own — a second test
//! running on another thread would be counted too.

use phoenix_kernel::chaos::{ChaosInterposer, ChaosVerdict, IpcEnvelope};
use phoenix_kernel::memory::{GrantAccess, GrantId};
use phoenix_kernel::platform::{HwCtx, Platform};
use phoenix_kernel::privileges::{IpcFilter, KernelCall, Privileges};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{DeviceId, Endpoint, Message, Signal};
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

#[path = "heap/counting.rs"]
mod counting;

const DEV: DeviceId = DeviceId(1);
const IRQ: u8 = 4;
/// Iterations one "go" signal starts.
const BATCH: u32 = 100;
/// Bytes one [`Op::SafeCopy`] moves each way.
const COPY: usize = 4096;
/// Request type: "grant me [`COPY`] bytes of your memory"; the reply's
/// first parameter is the grant.
const GRANT: u32 = 3;
/// Alarms one [`Op::AlarmsParked`] batch has pending at once.
const PARKED: u32 = 1_000;
/// Request type `pong` never answers: [`Op::RoundTripOwing`] opens three.
const HOLD: u32 = 4;

/// A chaos plan with one verdict for everything, so every send takes the
/// interposed branch and the envelope carries both names.
struct Always(ChaosVerdict);

impl ChaosInterposer for Always {
    fn on_ipc(&mut self, _now: SimTime, env: &IpcEnvelope<'_>, _rng: &mut SimRng) -> ChaosVerdict {
        assert!(
            matches!(
                (env.from_name, env.to_name),
                ("ping", "pong") | ("pong", "ping")
            ),
            "the interposer sees both names: {env:?}"
        );
        self.0
    }
}

/// Every register write raises the IRQ line.
struct IrqOnWrite;

impl Platform for IrqOnWrite {
    fn io_read(&mut self, _dev: DeviceId, _reg: u16, _ctx: &mut HwCtx<'_>) -> u32 {
        0
    }
    fn io_write(&mut self, _dev: DeviceId, _reg: u16, _value: u32, ctx: &mut HwCtx<'_>) {
        ctx.raise_irq(IRQ);
    }
    fn timer(&mut self, _dev: DeviceId, _token: u64, _ctx: &mut HwCtx<'_>) {}
    fn external(&mut self, _channel: u64, _payload: Vec<u8>, _ctx: &mut HwCtx<'_>) {}
    fn has_device(&self, dev: DeviceId) -> bool {
        dev == DEV
    }
}

#[derive(Clone, Copy)]
enum Op {
    RoundTrip,
    RoundTripOwing,
    Notify,
    AlarmFires,
    AlarmCancelled,
    AlarmsParked,
    DevWrite,
    Incr,
    Send,
    SafeCopy,
}

/// `ping`: SIGTERM is the test's "go" — run `op` [`BATCH`] times, each
/// completion event starting the next iteration.
struct Ping {
    pong: Endpoint,
    op: Op,
    left: u32,
    /// What `pong` granted, for [`Op::SafeCopy`].
    grant: GrantId,
}

impl Ping {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        while self.left > 0 {
            self.left -= 1;
            match self.op {
                Op::RoundTrip | Op::RoundTripOwing => {
                    ctx.sendrec(self.pong, Message::new(1)).expect("permitted");
                    return;
                }
                Op::Notify => return ctx.notify(self.pong).expect("permitted"),
                Op::AlarmFires => {
                    ctx.set_alarm(SimDuration::from_millis(1), 7)
                        .expect("permitted");
                    return;
                }
                Op::DevWrite => return ctx.devio_write(DEV, 0, 1).expect("permitted"),
                // One batch is the whole park: all pending together, all
                // fired before the run goes idle.
                Op::AlarmsParked => {
                    for _ in 0..PARKED {
                        ctx.set_alarm(SimDuration::from_secs(5), 7)
                            .expect("permitted");
                    }
                    self.left = 0;
                    return;
                }
                // These four complete within the call: no event to wait for.
                Op::AlarmCancelled => {
                    let id = ctx
                        .set_alarm(SimDuration::from_secs(1), 7)
                        .expect("permitted");
                    assert!(ctx.cancel_alarm(id));
                }
                Op::Incr => ctx.metrics().incr("ipc.sends"),
                Op::Send => ctx.send(self.pong, Message::new(1)).expect("permitted"),
                Op::SafeCopy => {
                    ctx.safecopy_from(self.pong, self.grant, 0, 0, COPY)
                        .expect("granted");
                    ctx.safecopy_to(self.pong, self.grant, 0, 0, COPY)
                        .expect("granted");
                }
            }
        }
    }
}

impl Process for Ping {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).expect("permitted");
                if matches!(self.op, Op::SafeCopy) {
                    ctx.sendrec(self.pong, Message::new(GRANT))
                        .expect("permitted");
                }
                if matches!(self.op, Op::RoundTripOwing) {
                    for _ in 0..3 {
                        ctx.sendrec(self.pong, Message::new(HOLD))
                            .expect("permitted");
                    }
                }
            }
            ProcEvent::Signal(Signal::Term) => {
                self.left = BATCH;
                self.step(ctx);
            }
            ProcEvent::Reply { result: Ok(m), .. } if matches!(self.op, Op::SafeCopy) => {
                self.grant = GrantId(m.param(0) as u32);
            }
            ProcEvent::Reply { .. }
            | ProcEvent::Notify { .. }
            | ProcEvent::Alarm { .. }
            | ProcEvent::Irq { .. } => self.step(ctx),
            _ => {}
        }
    }
}

/// `pong`: answers a request with a reply — carrying a grant if that was
/// the request, none if it was [`HOLD`] — and a notification with one back.
struct Pong;

impl Process for Pong {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Request { msg, .. } if msg.mtype == HOLD => {}
            ProcEvent::Request { call, msg } => {
                let grant = if msg.mtype == GRANT {
                    ctx.grant_create(msg.source, 0, COPY, GrantAccess::ReadWrite)
                        .expect("permitted")
                } else {
                    GrantId(0)
                };
                let reply = Message::new(2).with_param(0, u64::from(grant.0));
                ctx.reply(call, reply).expect("open");
            }
            ProcEvent::Notify { from } => ctx.notify(from).expect("permitted"),
            _ => {}
        }
    }
}

/// Allocations made while `ping` runs `op` `iters` times under `verdict`,
/// after one warm-up batch on the same kernel has grown every container
/// the loop touches.
fn allocations(verdict: ChaosVerdict, op: Op, iters: u32) -> u64 {
    let mut sys = System::new(SystemConfig::default());
    sys.set_chaos(Box::new(Always(verdict)));
    let pong = sys.spawn_boot(
        "pong",
        Privileges::server().with_ipc(IpcFilter::named(["ping"])),
        Box::new(Pong),
    );
    let ping = sys.spawn_boot(
        "ping",
        Privileges::driver(DEV, IRQ)
            .with_ipc(IpcFilter::named(["pong"]))
            .with_calls([
                KernelCall::Devio,
                KernelCall::IrqCtl,
                KernelCall::SetAlarm,
                KernelCall::SafeCopy,
            ]),
        Box::new(Ping {
            pong,
            op,
            left: 0,
            grant: GrantId(0),
        }),
    );
    let mut hw = IrqOnWrite;
    // Both started, and `ping` holds its grant, before the first "go".
    sys.run_until_idle(&mut hw, u64::MAX);
    let mut run = |batches: u32| {
        for _ in 0..batches {
            assert!(sys.kill_by_user(ping, Signal::Term));
            sys.run_until_idle(&mut hw, u64::MAX);
        }
    };
    run(1);
    let before = counting::counts().0;
    run(iters / BATCH);
    counting::counts().0 - before
}

/// At the commit before the per-message path stopped copying names the
/// same loops read, over 1,000 iterations: `sendrec` + `reply` 10,010 (5 per
/// message), `notify` 12,010 (two notifications an iteration, 6 each), an
/// alarm that fires 2,176, `set_alarm` + `cancel_alarm` 1,170, `devio_write`
/// + IRQ 5,010, `incr` 1,010. The odd tens are the ten "go" signals.
///
/// While the kernel still built a trace line for a level nothing could
/// enable, a dropped `send` read 3,000 and a corrupted one 2,000. While
/// SafeCopy bounced every copy through a `Vec`, a 4 KB `safecopy_from` +
/// `safecopy_to` round trip read 2,000. While the kernel kept a B-tree of
/// pending alarms beside the event queue, parking 1,000 and firing them
/// read 166.
#[test]
fn the_per_message_path_stays_off_the_heap() {
    const ITERS: u32 = 1_000;
    let delivered = |op| allocations(ChaosVerdict::Deliver, op, ITERS);
    let quiet = [
        ("sendrec + reply", delivered(Op::RoundTrip)),
        (
            "sendrec + reply to a callee owing three calls",
            delivered(Op::RoundTripOwing),
        ),
        ("notify", delivered(Op::Notify)),
        ("alarm that fires", delivered(Op::AlarmFires)),
        ("set_alarm + cancel_alarm", delivered(Op::AlarmCancelled)),
        (
            "1,000 alarms parked 5 s ahead, then fired",
            allocations(ChaosVerdict::Deliver, Op::AlarmsParked, BATCH),
        ),
        ("devio_write + irq", delivered(Op::DevWrite)),
        ("incr", delivered(Op::Incr)),
        ("safecopy_from + safecopy_to, 4 KB", delivered(Op::SafeCopy)),
        (
            "send, dropped",
            allocations(ChaosVerdict::Drop, Op::Send, ITERS),
        ),
        (
            "send, corrupted",
            allocations(ChaosVerdict::Corrupt, Op::Send, ITERS),
        ),
    ];
    eprintln!("{quiet:?}");
    for (what, n) in quiet {
        assert_eq!(n, 0, "{what}: allocations over {ITERS} iterations");
    }
}
