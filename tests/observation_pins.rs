//! Pins what the observation layer reports, independently of the type
//! that holds the samples: one seeded machine through five driver kills
//! (adapt rules stepping, a checkpointed print job riding them out) and
//! one 3-node fleet through two node faults. For every duration and
//! trajectory series — `recovery.phase.*`, `rs.recovery_time`,
//! `rs.adapt.trace.*`, `fleet.mttr.*` — the exact count, minimum, maximum
//! and mean, then every counter and the digest over them.
//!
//! `observation_pins.txt` was captured at the commit that added this
//! file. A change to how samples are stored keeps it, or it changed a
//! number somebody reads.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use phoenix::apps::{CkptLpd, CkptLpdStatus};
use phoenix::campaign::{metrics_digest, standby_adapt_script};
use phoenix::os::{names, NicKind, Os};
use phoenix_fault::{NodeChaosPlan, NodeFaultKind};
use phoenix_fleet::{Fleet, FleetConfig};
use phoenix_servers::policy::AdaptParam;
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::obs::RECOVERY_PHASES;
use phoenix_simcore::time::{SimDuration, SimTime};

/// `name count min max mean` of one series: durations in whole
/// microseconds, trajectories in the parameter's own unit, the mean to one
/// decimal.
fn series_line(out: &mut String, m: &MetricsRegistry, name: &str) {
    let Some(h) = m.log_histogram(name) else {
        writeln!(out, "{name} absent").unwrap();
        return;
    };
    let (count, min, max) = (h.count(), h.min().unwrap(), h.max().unwrap());
    let mean = h.mean().unwrap();
    writeln!(
        out,
        "{name} count={count} min={min} max={max} mean={mean:.1}"
    )
    .unwrap();
}

/// Five driver kills on a machine with a network, the character devices,
/// checkpointing and the standby campaign's adapt rules: three of the
/// NIC driver, two of the printer driver under a print job in flight.
fn machine_dump() -> String {
    let mut os = Os::builder()
        .seed(2007)
        .with_network(NicKind::Rtl8139)
        .with_chardevs()
        .with_checkpointing()
        .adapt_policy(standby_adapt_script())
        .boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up");
    let job: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    let lpd = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app("ckpt-lpd", Box::new(CkptLpd::new(vfs, job, lpd.clone())));
    os.run_for(SimDuration::from_millis(300));
    for victim in [
        names::ETH_RTL8139,
        names::CHR_PRINTER,
        names::ETH_RTL8139,
        names::CHR_PRINTER,
        names::ETH_RTL8139,
    ] {
        assert!(os.kill_by_user(victim), "{victim} was up to be killed");
        os.run_for(SimDuration::from_millis(1_500));
    }
    os.run_for(SimDuration::from_secs(2));
    os.timeline().record_into(os.metrics_mut());

    let mut out = String::from("== machine: seed 2007, five driver kills\n");
    let m = os.metrics();
    for (_, name) in RECOVERY_PHASES {
        series_line(&mut out, m, name);
    }
    series_line(&mut out, m, "rs.recovery_time");
    for p in AdaptParam::ALL {
        series_line(&mut out, m, p.trace());
    }
    out.push_str(&m.render_counters());
    writeln!(out, "digest {}", metrics_digest(&os)).unwrap();
    out
}

/// A 3-node fleet loses one node's RS, then another node whole.
fn fleet_dump() -> String {
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let plan = NodeChaosPlan::new()
        .schedule(at(3_000), NodeFaultKind::KillRs { node: 0 })
        .schedule(at(7_000), NodeFaultKind::NodeCrash { node: 2 });
    let cfg = FleetConfig {
        nodes: 3,
        seed: 2007,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, plan);
    fleet.run_for(SimDuration::from_secs(12));
    fleet.finalize();

    let mut out = String::from("== fleet: 3 nodes, seed 2007, two node faults\n");
    for phase in ["detect", "repair", "reintegrate"] {
        series_line(&mut out, &fleet.metrics, &format!("fleet.mttr.{phase}"));
    }
    out.push_str(&fleet.metrics.render_counters());
    writeln!(out, "digest {}", fleet.digest()).unwrap();
    out
}

#[test]
fn observations_are_pinned() {
    let got = machine_dump() + &fleet_dump();
    let want = include_str!("observation_pins.txt");
    assert!(got == want, "observations moved; the new dump:\n{got}");
}
