//! Repository-level integration tests spanning all crates: the Fig. 3
//! recovery-scheme matrix through the public experiment drivers, the §5.3
//! state-backup mechanism for stateful components, and cross-cutting
//! determinism.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::experiments::{fig3_schemes, fig7_network_run, fig8_disk_run};
use phoenix::os::{names, NicKind, Os};
use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_ckpt::{CheckpointStore, Snapshot};
use phoenix_kernel::platform::NullPlatform;
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_servers::proto::pm as pm_proto;
use phoenix_servers::rs::{ReincarnationServer, ServiceConfig};
use phoenix_servers::{DataStore, ProcessManager, Server};
use phoenix_simcore::time::SimDuration;

#[test]
fn fig3_matrix_matches_the_paper() {
    let outcomes = fig3_schemes(2007);
    let by_class = |c: &str| {
        outcomes
            .iter()
            .find(|o| o.class == c)
            .unwrap_or_else(|| panic!("missing class {c}"))
    };
    // Fig. 3: Network -> yes, recovered by the network server.
    assert!(by_class("network").transparent);
    // Fig. 3: Block -> yes, recovered by the file server.
    assert!(by_class("block").transparent);
    // Fig. 3: Character -> maybe, recovered (or not) by the application.
    let lp = by_class("character (printer)");
    assert!(!lp.transparent && lp.app_recovered);
    let cd = by_class("character (cd burn)");
    assert!(!cd.transparent && !cd.app_recovered && cd.user_informed);
}

#[test]
fn fig7_and_fig8_shape_holds_in_miniature() {
    // Small-scale versions of the §7.1 claims: recovery costs throughput
    // but never correctness, and shorter kill intervals cost more.
    let size = 8_000_000;
    let base = fig7_network_run(size, None, 11);
    let k1 = fig7_network_run(size, Some(SimDuration::from_millis(300)), 11);
    assert!(base.md5_ok && k1.md5_ok, "md5 must always match");
    assert!(k1.kills >= 1);
    assert!(
        k1.elapsed > base.elapsed,
        "kills must cost time: {} vs {}",
        k1.elapsed,
        base.elapsed
    );

    // The kill interval must exceed the SATA link-renegotiation time
    // (500 ms) or no read can ever complete — which is why the paper's
    // smallest interval is 1 s.
    let fsize = 48_000_000;
    let dbase = fig8_disk_run(fsize, None, 12);
    let dk = fig8_disk_run(fsize, Some(SimDuration::from_millis(700)), 12);
    assert!(dbase.sha1_ok && dk.sha1_ok, "sha1 must always match");
    assert_eq!(dk.app_errors, 0);
    assert!(dk.kills >= 1);
    assert!(dk.elapsed > dbase.elapsed);
}

/// A stateful component that backs its state up in the data store (§5.3):
/// every tick it increments a counter and saves it to the checkpoint
/// store; on (re)start it restores the backup. The paper: "a restarted
/// component may need to retrieve state that is lost when it crashed...
/// all mechanisms needed to recover from failures in stateful components
/// are present."
struct Statefuld {
    ds: Endpoint,
    counter: u64,
    restored: Rc<RefCell<Vec<u64>>>,
    denied: Rc<RefCell<u64>>,
    restoring: bool,
}

const COUNTER_KEY: &[u8] = b"counter";

impl Statefuld {
    fn save(&mut self, ctx: &mut Ctx<'_>) {
        // The counter is both the watermark and the (monotone) sequence.
        let snap =
            Snapshot::watermark(ctx.self_endpoint().generation(), self.counter, self.counter);
        let mut data = COUNTER_KEY.to_vec();
        data.extend_from_slice(&snap.encode());
        let _ = ctx.sendrec(
            self.ds,
            Message::new(ckpt::SAVE)
                .with_param(0, COUNTER_KEY.len() as u64)
                .with_data(data),
        );
    }

    fn restore(&mut self, ctx: &mut Ctx<'_>) {
        self.restoring = true;
        let _ = ctx.sendrec(
            self.ds,
            Message::new(ckpt::RESTORE).with_data(COUNTER_KEY.to_vec()),
        );
    }
}

impl Process for Statefuld {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            // Recover lost state from the data store. Authentication works
            // even though our endpoint changed, because the record is bound
            // to our *stable name* (§5.3).
            ProcEvent::Start | ProcEvent::Alarm { token: 1 } => self.restore(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if self.restoring => {
                if reply.param(0) == ckpt_status::DENIED {
                    // RS has not republished our name yet (we restarted
                    // moments ago); retry shortly.
                    *self.denied.borrow_mut() += 1;
                    let _ = ctx.set_alarm(SimDuration::from_millis(20), 1);
                    return;
                }
                self.restoring = false;
                if reply.param(0) == ckpt_status::OK {
                    let snap = Snapshot::decode(&reply.data).expect("the store re-validates");
                    self.counter = snap.as_watermark().expect("a watermark snapshot");
                }
                self.restored.borrow_mut().push(self.counter);
                let _ = ctx.set_alarm(SimDuration::from_millis(10), 0);
            }
            ProcEvent::Alarm { .. } => {
                self.counter += 1;
                self.save(ctx);
                let _ = ctx.set_alarm(SimDuration::from_millis(10), 0);
            }
            _ => {}
        }
    }
}

#[test]
fn stateful_component_recovers_state_from_data_store() {
    let mut sys = System::new(SystemConfig::default());
    let store = Rc::new(RefCell::new(CheckpointStore::new()));
    let dse = sys.spawn_boot(
        "ds",
        Privileges::server(),
        Box::new(DataStore::new().with_checkpoint_store(store)),
    );
    let pm = sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Server::new(ProcessManager::new(), dse, None)),
    );
    let restored: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let denied = Rc::new(RefCell::new(0));
    let (r2, d2) = (restored.clone(), denied.clone());
    let svc = ServiceConfig::driver("statefuld").without_heartbeat();
    let rs = sys.spawn_boot(
        "rs",
        Privileges::reincarnation_server(),
        Box::new(ReincarnationServer::new(pm, dse, vec![svc])),
    );
    let _ = rs;
    sys.register_program(
        "statefuld",
        Privileges::server(),
        Box::new(move || {
            Box::new(Statefuld {
                ds: dse,
                counter: 0,
                restored: r2.clone(),
                denied: d2.clone(),
                restoring: false,
            })
        }),
    );
    // Run ~1s: the counter should reach ~100 and be backed up.
    sys.run_until(
        &mut NullPlatform,
        phoenix_simcore::time::SimTime::from_micros(1_000_000),
    );
    assert_eq!(
        restored.borrow().as_slice(),
        &[0],
        "first start restores nothing"
    );

    // Kill it; RS restarts it; the new incarnation resumes from backup.
    let ep = sys.endpoint_by_name("statefuld").expect("up");
    sys.kill_by_user(ep, phoenix_kernel::types::Signal::Kill);
    sys.run_until(
        &mut NullPlatform,
        phoenix_simcore::time::SimTime::from_micros(2_000_000),
    );
    let restored = restored.borrow();
    assert_eq!(restored.len(), 2, "restarted once");
    assert!(
        restored[1] >= 80,
        "state recovered from the data store, not reset to zero (got {})",
        restored[1]
    );
    assert!(
        *denied.borrow() >= 1,
        "a restore before RS republished the name is denied, then retried"
    );
    assert!(sys.endpoint_by_name("statefuld").is_some());
}

#[test]
fn pm_rejects_unauthorized_service_control() {
    // Only the registered reaper (RS) may start or kill services via PM.
    let mut sys = System::new(SystemConfig::default());
    let dse = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
    let pm = sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Server::new(ProcessManager::new(), dse, None)),
    );
    // RS registers first...
    struct Registrar {
        pm: Endpoint,
    }
    impl Process for Registrar {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.send(self.pm, Message::new(pm_proto::REGISTER));
            }
        }
    }
    sys.spawn_boot(
        "rs",
        Privileges::reincarnation_server(),
        Box::new(Registrar { pm }),
    );
    // ...then an interloper tries to start a program through PM.
    let denied: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let d2 = denied.clone();
    struct Interloper {
        pm: Endpoint,
        denied: Rc<RefCell<Option<u64>>>,
    }
    impl Process for Interloper {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(
                        self.pm,
                        Message::new(pm_proto::START).with_data(b"anything".to_vec()),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    *self.denied.borrow_mut() = Some(reply.param(0));
                }
                _ => {}
            }
        }
    }
    sys.spawn_boot(
        "interloper",
        Privileges::server(),
        Box::new(Interloper { pm, denied: d2 }),
    );
    sys.run_until_idle(&mut NullPlatform, 100);
    assert_eq!(*denied.borrow(), Some(13), "EACCES for non-RS callers");
}

#[test]
fn same_seed_reproduces_the_exact_trace_counters() {
    let run = |seed: u64| {
        let mut os = Os::builder()
            .seed(seed)
            .with_network(NicKind::Rtl8139)
            .boot();
        os.kill_by_user(names::ETH_RTL8139);
        os.run_for(SimDuration::from_secs(2));
        (
            os.metrics().counter("rs.recoveries"),
            os.metrics().counter("ipc.sends"),
            os.metrics().counter("irq.delivered"),
            os.now(),
        )
    };
    assert_eq!(run(31337), run(31337));
}

#[test]
fn hot_standby_promotes_spare_instead_of_cold_restart() {
    use phoenix::apps::{CkptLpd, CkptLpdStatus};
    use phoenix::campaign::ckpt_print_job;

    let mut os = Os::builder()
        .seed(4242)
        .heartbeat(SimDuration::from_millis(500), 3)
        .with_hot_standby()
        .boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    let job = ckpt_print_job(4242, 96 * 1024);
    let status = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app("lpd", Box::new(CkptLpd::new(vfs, job, status.clone())));
    os.run_for(SimDuration::from_secs(1));
    assert!(
        os.metrics().counter("rs.standby.spares_started") >= 2,
        "both char-driver classes should have warm spares tailing"
    );
    // A wedge traps the driver in a loop on its next request; the print
    // job supplies the request, the missed heartbeats convict it.
    assert!(os.wedge_driver_in_loop(names::CHR_PRINTER));
    os.run_for(SimDuration::from_secs(10));
    assert!(
        os.metrics().counter("rs.standby.promotions") >= 1,
        "a wedged primary must be replaced by promoting its spare"
    );
    assert!(os.metrics().counter("rs.recoveries") >= 1);
    assert!(
        os.metrics().counter("rs.standby.spares_started") >= 3,
        "the spare slot must be refilled behind the promotion"
    );
    assert_eq!(status.borrow().app_errors, 0);
    assert!(
        status.borrow().done,
        "the print job must ride out the failover on its write-ahead log"
    );
}

#[test]
fn adaptation_trajectory_is_deterministic_per_seed() {
    use phoenix::campaign::{run_standby_campaign, StandbyCampaignConfig};
    let cfg = StandbyCampaignConfig {
        faults: 4,
        ..StandbyCampaignConfig::default()
    };
    let (a, _) = run_standby_campaign(&cfg);
    let (b, _) = run_standby_campaign(&cfg);
    assert!(a.adapt_updates > 0, "the adapt controllers never stepped");
    assert_eq!(a.digest, b.digest, "same-seed metrics digests diverged");
    assert_eq!(a.adapt_gauges, b.adapt_gauges);
    assert_eq!(a.adapt_trace, b.adapt_trace);
    assert!(a.adapt_out_of_band.is_empty(), "{:?}", a.adapt_out_of_band);
}

#[test]
fn floppy_and_sata_coexist() {
    let os = Os::builder()
        .seed(77)
        .with_disk(4096, 1, vec![])
        .with_floppy()
        .boot();
    assert!(os.is_up(names::BLK_SATA));
    assert!(os.is_up(names::BLK_FLOPPY));
}
