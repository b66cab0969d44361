//! Ablations: restart policy under a crash loop, fault type vs. outcome,
//! heartbeat period vs. detection latency.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{UdpPing, UdpStatus};
use phoenix::hw::rtl8139::Rtl8139;
use phoenix::os::{hwmap, names, NicKind, Os};
use phoenix_drivers::routines;
use phoenix_fault::mutate::{apply_fault, ALL_FAULT_TYPES};
use phoenix_fault::vm::{Outcome, Trap, Vm};
use phoenix_servers::policy::PolicyScript;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::SimDuration;

use crate::Report;

/// One arm: `(restart attempts, table row)`. RS's sliding restart budget
/// is lifted so the policy script (`None`: a direct restart) is the only
/// variable between arms.
fn backoff_row(policy_name: &str, policy: Option<PolicyScript>) -> (u64, Vec<String>) {
    let mut os = Os::builder()
        .seed(2007)
        .with_network(NicKind::Rtl8139)
        .service_policy(names::ETH_RTL8139, policy, vec![])
        .restart_budget(u32::MAX, SimDuration::from_secs(30))
        .boot();
    os.device_mut::<Rtl8139>(hwmap::NIC)
        .expect("rtl8139 on the bus")
        .force_wedge();
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(60));
    let attempts = os.metrics().counter("rs.defect.exit") + 1; // +1: the kill
    let state = if os.is_up(names::ETH_RTL8139) {
        "up (wrong!)"
    } else {
        "down"
    };
    let row = vec![
        policy_name.to_string(),
        attempts.to_string(),
        os.metrics().counter("rs.gave_up").to_string(),
        os.metrics().counter("rs.alerts").to_string(),
        state.to_string(),
    ];
    (attempts, row)
}

/// Ablation: restart policy under a crash loop (§5.2, Fig. 2).
///
/// A wedged card makes every restarted driver panic during
/// initialization. The direct-restart policy hammers the system with
/// restart attempts; the Fig. 2 generic policy's binary exponential
/// backoff "prevents bogging down the system in the event of repeated
/// failures"; a give-up policy stops after a threshold and raises an
/// alert.
pub fn backoff(r: &mut Report) {
    r.line("ablation — restart policy under a crash loop (wedged card, 60 s)\n");
    let giveup = PolicyScript::parse(
        "if repetition > 5 then\n alert \"giving up on $component\"\n give-up\nelse\n sleep backoff(1s)\n restart\nend\n",
    )
    .expect("policy parses");
    let (direct, direct_row) = backoff_row("direct restart", None);
    let (generic, generic_row) = backoff_row(
        "generic (Fig. 2, exp backoff)",
        Some(PolicyScript::generic()),
    );
    let (_, giveup_row) = backoff_row("backoff + give-up after 5", Some(giveup));
    let rows = [direct_row, generic_row, giveup_row];
    r.require(
        direct >= 10 * generic,
        format!("direct restart made {direct} attempts, under 10x the generic policy's {generic}"),
    );
    r.table(
        &[
            "policy",
            "restart attempts",
            "gave up",
            "alerts",
            "final state",
        ],
        &rows,
    );
    r.line("\nexpected: direct restart makes ~1 attempt per exec latency (thousands/min);");
    r.line("backoff caps attempts logarithmically; give-up bounds them outright.");
}

const TRIALS: usize = 5_000;

fn run_rx_routine(code: &[u32]) -> (Outcome, u32) {
    let mut vm = Vm::new(2048);
    // A representative received frame: status OK, 600-byte payload.
    vm.mem[0] = 1;
    for i in 0..600 {
        vm.mem[4 + i] = (i % 251) as u8;
    }
    vm.regs[routines::reg::A0 as usize] = 600;
    vm.regs[routines::reg::A1 as usize] = 64;
    let out = vm.run(code, 50_000);
    (out, vm.regs[routines::reg::RES as usize])
}

/// Ablation: which of the seven fault types (§7.2) produce which outcome?
///
/// Runs each mutation operator many times against the DP8390 receive
/// routine (with cold-section padding, like the live campaign) and
/// classifies the pure-VM outcome: silent (correct result), wrong result,
/// panic (assert), exception (trap), or infinite loop. This explains the
/// crash-class distribution the full campaign reports.
pub fn fault_types(r: &mut Report) {
    r.line(format!(
        "ablation — fault type vs. outcome ({TRIALS} trials each, padded DP8390 rx routine)\n"
    ));
    let pristine = routines::with_cold_section(routines::net_rx(), 30);
    let (baseline, expected_res) = run_rx_routine(&pristine);
    assert!(baseline.is_ok(), "pristine routine must succeed");

    let mut rows = Vec::new();
    for fault in ALL_FAULT_TYPES {
        let mut rng = SimRng::new(2007).fork(&fault.to_string());
        let (mut silent, mut wrong, mut panic_, mut exception, mut looped, mut skipped) =
            (0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
        for _ in 0..TRIALS {
            let mut code = pristine.clone();
            if apply_fault(&mut code, fault, &mut rng).is_none() {
                skipped += 1;
                continue;
            }
            match run_rx_routine(&code) {
                (Outcome::Halted { .. }, res) if res == expected_res => silent += 1,
                (Outcome::Halted { .. }, _) => wrong += 1,
                (
                    Outcome::Trapped {
                        trap: Trap::Assert, ..
                    },
                    _,
                ) => panic_ += 1,
                (Outcome::Trapped { .. }, _) => exception += 1,
                (Outcome::OutOfGas, _) => looped += 1,
            }
        }
        let pct = |n: u32| format!("{:.1}%", 100.0 * f64::from(n) / TRIALS as f64);
        rows.push(vec![
            fault.to_string(),
            pct(silent),
            pct(wrong),
            pct(panic_),
            pct(exception),
            pct(looped),
            skipped.to_string(),
        ]);
    }
    r.table(
        &[
            "fault type",
            "silent",
            "wrong result",
            "panic",
            "exception",
            "loop",
            "n/a",
        ],
        &rows,
    );
    r.line("\nsilent + wrong-result mutations are the *undetectable* failures the paper");
    r.line("cannot recover from (silent data corruption, §3); panic/exception/loop map");
    r.line("to defect classes 1, 2 and 4 respectively.");
}

/// Ablation: heartbeat period vs. detection latency and overhead (§5.1).
///
/// "Failing to respond N consecutive times causes recovery to be
/// initiated... To prevent bogging down the system status requests and the
/// consequent replies are sent using nonblocking messages." This sweep
/// quantifies the trade-off: short periods detect a stuck driver quickly
/// but cost more messages; long periods are cheap but leave the system
/// limping longer.
pub fn heartbeat(r: &mut Report) {
    r.line("ablation — heartbeat period vs. detection latency (stuck driver)\n");
    let misses = 2;
    let mut rows = Vec::new();
    for period_ms in [100u64, 250, 500, 1000, 2000, 4000] {
        let period = SimDuration::from_millis(period_ms);
        let mut os = Os::builder()
            .seed(2007)
            .with_network(NicKind::Rtl8139)
            .heartbeat(period, misses)
            .boot();
        // Measure the steady-state heartbeat message cost over 10 s.
        let sends_before = os.metrics().counter("ipc.sends");
        os.run_for(SimDuration::from_secs(10));
        let hb_msgs_per_s = (os.metrics().counter("ipc.sends") - sends_before) as f64 / 10.0;

        // Wedge the driver in an infinite loop on its request path. The
        // heartbeat ping is handled by libdriver *before* the hot path,
        // so it takes traffic to trigger the loop: datagrams via INET.
        let stuck_at = os.now();
        os.wedge_driver_in_loop(names::ETH_RTL8139);
        let inet = os.endpoint(names::INET).expect("inet up after boot");
        let status = Rc::new(RefCell::new(UdpStatus::default()));
        os.spawn_app(
            "poke",
            Box::new(UdpPing::new(
                inet,
                1_000,
                SimDuration::from_millis(50),
                status,
            )),
        );
        let old = os.endpoint(names::ETH_RTL8139);
        let detected = os.run_until(SimDuration::from_millis(100), 400, |os| {
            os.endpoint(names::ETH_RTL8139) != old
        });
        let latency = if detected {
            format!("{:.2}s", os.now().since(stuck_at).as_secs_f64())
        } else {
            "not detected".to_string()
        };
        rows.push(vec![
            format!("{period}"),
            format!("{misses}"),
            latency,
            format!("{hb_msgs_per_s:.1}"),
        ]);
    }
    r.table(
        &[
            "period",
            "misses",
            "detection latency",
            "hb msgs/s (steady)",
        ],
        &rows,
    );
    r.line("\nexpected: latency ≈ (misses+1) × period; message cost ∝ 1/period");
}
