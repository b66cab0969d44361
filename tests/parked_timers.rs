//! Metamorphic: parked timers are invisible. One scripted kill-and-recover
//! scenario is run three times — alone, beside a bystander process that
//! sets no alarm, and beside one that parks 20,000 alarms beyond the end
//! of the run. Nothing the rest of the machine does, traces or counts may
//! depend on how many timers somebody else has pending.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{CkptLpd, CkptLpdStatus};
use phoenix::os::{names, NicKind, Os};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_simcore::time::SimDuration;

const BYSTANDER: &str = "bystander";

/// Parks `alarms` alarms, a millisecond apart from one minute on; the
/// scenario ends after six seconds.
struct Parker {
    alarms: u64,
}

impl Process for Parker {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        assert!(matches!(event, ProcEvent::Start), "none of them fires");
        for token in 0..self.alarms {
            let after = SimDuration::from_secs(60) + SimDuration::from_millis(token);
            ctx.set_alarm(after, token).expect("apps may set alarms");
        }
    }
}

/// What the run left behind: the rendered trace and every counter.
#[derive(PartialEq)]
struct Observed {
    trace: String,
    counters: String,
    print_job_done: bool,
}

/// A NIC driver kill and a printer driver kill under a checkpointed print
/// job. The bystander, if any, is the last process spawned, so every other
/// endpoint is the same with and without it.
fn scenario(bystander: Option<u64>) -> Observed {
    let mut os = Os::builder()
        .seed(2007)
        .with_network(NicKind::Rtl8139)
        .with_chardevs()
        .with_checkpointing()
        .boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up");
    let job: Vec<u8> = (0..128 * 1024).map(|i| (i % 251) as u8).collect();
    let lpd = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app("ckpt-lpd", Box::new(CkptLpd::new(vfs, job, lpd.clone())));
    if let Some(alarms) = bystander {
        os.spawn_app(BYSTANDER, Box::new(Parker { alarms }));
    }
    os.run_for(SimDuration::from_millis(300));
    for victim in [names::ETH_RTL8139, names::CHR_PRINTER] {
        assert!(os.kill_by_user(victim), "{victim} was up to be killed");
        os.run_for(SimDuration::from_millis(1_500));
    }
    os.run_for(SimDuration::from_secs(3));
    assert_eq!(os.metrics().counter("rs.recoveries"), 2);
    assert_eq!(os.trace_dropped(), 0, "the whole trace is compared");
    let done = lpd.borrow().done;
    Observed {
        trace: os.trace().render(),
        counters: os.metrics().render_counters(),
        print_job_done: done,
    }
}

/// `o` without what the bystander's mere existence adds: its one spawn
/// line in the trace and its one count in `kernel.spawns`.
fn without_the_bystander(o: &Observed) -> (Vec<&str>, Vec<&str>) {
    let its_own = format!("proc={BYSTANDER}");
    (
        o.trace.lines().filter(|l| !l.contains(&its_own)).collect(),
        o.counters
            .lines()
            .filter(|l| !l.starts_with("kernel.spawns "))
            .collect(),
    )
}

#[test]
fn parked_timers_are_invisible() {
    let alone = scenario(None);
    let idle = scenario(Some(0));
    let parked = scenario(Some(20_000));
    assert!(alone.print_job_done, "the scenario recovers");
    // Same processes, 0 against 20,000 pending alarms: nothing at all moves.
    assert!(
        parked == idle,
        "20,000 parked alarms moved a trace line or a counter"
    );
    // No bystander at all: everything but its spawn is the same.
    assert_eq!(
        alone.trace.lines().count() + 1,
        parked.trace.lines().count()
    );
    assert_ne!(alone.counters, parked.counters, "kernel.spawns counts it");
    assert!(
        without_the_bystander(&alone) == without_the_bystander(&parked),
        "a bystander with 20,000 parked alarms moved somebody else's trace line or counter"
    );
}
