//! Per-layer probes: each calls one crate's public functions directly in
//! a loop and reports the median of [`BATCHES`] batches.
//!
//! A probe is the cost of one layer operation in isolation — the number a
//! fix to that layer moves first. Multiplied by the per-workload count of
//! the same operation it gives the layer's share of a rep (`share.*`):
//! the most a fix to that layer can take off the workload's host time.
//!
//! Batches are sized by a calibration pass to the length the caller asks
//! for: [`BATCH_FULL`] in the all-workloads run, [`BATCH_CONTRACT`] in a
//! single-workload traced run, which has to report every per-layer metric
//! inside a run's time budget.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use phoenix::apps::{Dd, DdStatus, Lpd, LpdStatus, Wget, WgetStatus};
use phoenix::experiments::fig8_files;
use phoenix::os::hwmap;
use phoenix::{names, NicKind, Os};
use phoenix_ckpt::{crc32, CheckpointStore, Snapshot, WriteAheadLog};
use phoenix_drivers::routines::{self, reg};
use phoenix_fault::{apply_random_fault, ChaosPlan, NodeChaosPlan, Vm};
use phoenix_fleet::link::{SnapReceiver, SnapSender};
use phoenix_fleet::{Fleet, FleetAgent, FleetConfig, FleetWire, Frame, LocalView, NodeSnapshot};
use phoenix_fleet::{NodeStat, Payload};
use phoenix_hw::disk::synth_sector;
use phoenix_hw::rtl8139::{self, Rtl8139, Rtl8139Config};
use phoenix_hw::{bus::wire_to_host_channel, Bus, DiskModel};
use phoenix_kernel::memory::IommuWindow;
use phoenix_kernel::platform::HwSideEffect;
use phoenix_kernel::types::{Endpoint, Message, Signal};
use phoenix_kernel::{
    ChaosInterposer, Ctx, GrantAccess, HwCtx, IpcClass, IpcEnvelope, MemoryPool, NullPlatform,
    Platform, Privileges, ProcEvent, Process, System, SystemConfig,
};
use phoenix_servers::policy::{reason, PolicyInput, PolicyScript};
use phoenix_simcore::digest::{Md5, Sha1};
use phoenix_simcore::metrics::{LogHistogram, MetricsRegistry};
use phoenix_simcore::obs::fold_timeline;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::{TraceLevel, TraceRing};
use phoenix_simcore::EventQueue;

use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::ipc_msgs;

/// Probe batch length of the all-workloads run, milliseconds.
pub const BATCH_FULL: u64 = 200;
/// Probe batch length of a single-workload traced run: 45 probes of five
/// batches each have to fit in about half a minute.
pub const BATCH_CONTRACT: u64 = 100;
/// Batches per probe; the probe reports their median.
const BATCHES: usize = 5;

/// The chaos probes install the `driver_traffic` plan at an intensity at
/// which no action fires. The interposer's decision (name match plus four
/// RNG draws) costs the same at any intensity, and a dropped message would
/// leave the round-trip probe's rendezvous open for good.
const CHAOS_SILENT: f64 = 1e-9;

/// Probe results under their per-layer metric names, in the metric's unit.
pub type ProbeResults = Vec<(&'static str, f64)>;

struct Prober<'a> {
    tracer: &'a mut Tracer,
    /// Target length of one batch.
    batch: Duration,
    out: ProbeResults,
}

impl Prober<'_> {
    /// Median nanoseconds per iteration. `run(n)` does its untimed set-up,
    /// then `n` iterations, and returns the time the iterations took.
    fn ns_per_iter(&mut self, name: &'static str, mut run: impl FnMut(u64) -> Duration) -> f64 {
        let mut n = 1u64;
        let mut took = run(n);
        while took < self.batch / 8 && n < 1 << 40 {
            n *= 4;
            took = run(n);
        }
        let scale = self.batch.as_secs_f64() / took.as_secs_f64().max(1e-9);
        let n = ((n as f64 * scale).ceil() as u64).max(1);
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let took = self.tracer.span(name, |_| run(n));
                took.as_nanos() as f64 / n as f64
            })
            .collect();
        median(&samples)
    }

    fn record_ns(&mut self, name: &'static str, run: impl FnMut(u64) -> Duration) {
        let ns = self.ns_per_iter(name, run);
        self.out.push((name, ns));
    }

    fn record_us(&mut self, name: &'static str, run: impl FnMut(u64) -> Duration) {
        let ns = self.ns_per_iter(name, run);
        self.out.push((name, ns / 1_000.0));
    }

    /// Throughput probe: `run(n)` processes `n` buffers of `bytes` bytes.
    fn record_mb_s(&mut self, name: &'static str, bytes: usize, run: impl FnMut(u64) -> Duration) {
        let ns = self.ns_per_iter(name, run);
        self.out.push((name, bytes as f64 / 1e6 / (ns / 1e9)));
    }
}

fn timed(n: u64, mut iter: impl FnMut(u64)) -> Duration {
    let start = Instant::now();
    for i in 0..n {
        iter(i);
    }
    start.elapsed()
}

/// Runs every probe in batches of `batch_ms`. Nothing here depends on the
/// workload or the seed.
pub fn run_all(tracer: &mut Tracer, batch_ms: u64) -> ProbeResults {
    let mut p = Prober {
        tracer,
        batch: Duration::from_millis(batch_ms),
        out: Vec::new(),
    };
    simcore(&mut p);
    kernel(&mut p);
    hw(&mut p);
    fault(&mut p);
    servers_and_ckpt(&mut p);
    core_and_drivers(&mut p);
    fleet(&mut p);
    host(&mut p);
    p.out
}

// ------------------------------------------------------------------ simcore

fn simcore(p: &mut Prober<'_>) {
    // 8,192 pending timers is what the SLO campaign keeps in flight
    // (one arrival clock plus linger/deadline alarms per session).
    const PENDING: u64 = 8_192;
    let filled = || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::new(7);
        for i in 0..PENDING {
            q.schedule_after(SimDuration::from_micros(rng.range_u64(1..1_000_000)), i);
        }
        (q, rng)
    };
    p.record_ns("simcore.evq_sched_pop_ns", |n| {
        let (mut q, mut rng) = filled();
        timed(n, |i| {
            q.schedule_after(SimDuration::from_micros(rng.range_u64(1..1_000_000)), i);
            black_box(q.pop());
        })
    });
    p.record_ns("simcore.evq_cancel_ns", |n| {
        let (mut q, mut rng) = filled();
        timed(n, |i| {
            let id = q.schedule_after(SimDuration::from_micros(rng.range_u64(1..1_000_000)), i);
            black_box(q.cancel(id));
        })
    });

    // ~220 distinct metric names is what a booted machine registers.
    let names: Vec<String> = (0..220)
        .map(|i| format!("layer{}.counter.{}", i % 11, i))
        .collect();
    p.record_ns("simcore.metrics_incr_ns", |n| {
        let mut m = MetricsRegistry::new();
        for name in &names {
            m.incr(name);
        }
        timed(n, |i| m.incr(&names[(i * 37 % 220) as usize]))
    });
    p.record_ns("simcore.loghist_record_ns", |n| {
        let mut h = LogHistogram::new();
        let mut rng = SimRng::new(11);
        timed(n, |_| h.record(rng.range_u64(1..10_000_000)))
    });
    p.record_ns("simcore.trace_emit_ns", |n| {
        let mut ring = TraceRing::new(65_536);
        timed(n, |i| {
            ring.emit(
                SimTime::from_micros(i),
                TraceLevel::Info,
                "probe",
                String::from("driver restarted"),
            );
        })
    });
    p.record_ns("simcore.rng_next_ns", |n| {
        let mut rng = SimRng::new(13);
        timed(n, |_| {
            black_box(rng.next_u64());
        })
    });

    // A trace with real recovery episodes in it: ten driver kills.
    let mut os = Os::builder().seed(17).with_network(NicKind::Rtl8139).boot();
    for _ in 0..10 {
        os.kill_by_user(names::ETH_RTL8139);
        os.run_for(SimDuration::from_millis(200));
    }
    let kev = os.trace().len() as f64 / 1_000.0;
    let ns = p.ns_per_iter("simcore.fold_timeline_us_per_kev", |n| {
        timed(n, |_| {
            black_box(fold_timeline(os.trace().events()));
        })
    });
    p.out.push((
        "simcore.fold_timeline_us_per_kev",
        ns / 1_000.0 / kev.max(1e-9),
    ));

    let buf = vec![0xA5u8; 1 << 20];
    p.record_mb_s("simcore.md5_mb_s", buf.len(), |n| {
        timed(n, |_| {
            black_box(Md5::digest(black_box(&buf)));
        })
    });
    p.record_mb_s("simcore.sha1_mb_s", buf.len(), |n| {
        timed(n, |_| {
            black_box(Sha1::digest(black_box(&buf)));
        })
    });
}

// ------------------------------------------------------------------- kernel

/// Replies to every request.
struct Echo;
impl Process for Echo {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        if let ProcEvent::Request { call, msg } = ev {
            let _ = ctx.reply(call, Message::new(msg.mtype + 1));
        }
    }
}

/// Issues `rounds` back-to-back `sendrec` calls to `peer`.
struct Caller {
    peer: Endpoint,
    rounds: u64,
}
impl Process for Caller {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start | ProcEvent::Reply { .. } if self.rounds > 0 => {
                self.rounds -= 1;
                let _ = ctx.sendrec(self.peer, Message::new(0));
            }
            _ => {}
        }
    }
}

/// One-way ping-pong: every received message is answered with a `send`.
struct Bouncer {
    peer: Option<Endpoint>,
    left: u64,
}
impl Process for Bouncer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        let to = match ev {
            ProcEvent::Start => self.peer,
            ProcEvent::Message(msg) => Some(msg.source),
            _ => None,
        };
        if let Some(to) = to {
            if self.left > 0 {
                self.left -= 1;
                let _ = ctx.send(to, Message::new(0));
            }
        }
    }
}

/// Sets and cancels `pairs` alarms from one dispatch.
struct AlarmChurn {
    pairs: u64,
}
impl Process for AlarmChurn {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        if let ProcEvent::Start = ev {
            for _ in 0..self.pairs {
                if let Ok(id) = ctx.set_alarm(SimDuration::from_secs(1), 0) {
                    black_box(ctx.cancel_alarm(id));
                }
            }
        }
    }
}

/// Does nothing; spawn/kill fodder.
struct Idle;
impl Process for Idle {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _ev: ProcEvent) {}
}

fn drain(sys: &mut System) -> Duration {
    let start = Instant::now();
    sys.run_until_idle(&mut NullPlatform, u64::MAX);
    start.elapsed()
}

/// Echo/caller pair named so the `driver_traffic` rules match them.
fn roundtrip_system(rounds: u64) -> System {
    let mut sys = System::new(SystemConfig::default());
    let echo = sys.spawn_boot("eth.echo", Privileges::server(), Box::new(Echo));
    sys.spawn_boot(
        "caller",
        Privileges::server(),
        Box::new(Caller { peer: echo, rounds }),
    );
    sys
}

fn kernel(p: &mut Prober<'_>) {
    p.record_ns("kernel.ipc_roundtrip_ns", |n| {
        drain(&mut roundtrip_system(n))
    });
    p.record_ns("kernel.ipc_roundtrip_chaos_ns", |n| {
        let mut sys = roundtrip_system(n);
        sys.set_chaos(Box::new(ChaosPlan::driver_traffic(CHAOS_SILENT)));
        drain(&mut sys)
    });
    p.record_ns("kernel.ipc_send_ns", |n| {
        let mut sys = System::new(SystemConfig::default());
        let a = sys.spawn_boot(
            "a",
            Privileges::server(),
            Box::new(Bouncer {
                peer: None,
                left: n / 2,
            }),
        );
        sys.spawn_boot(
            "b",
            Privileges::server(),
            Box::new(Bouncer {
                peer: Some(a),
                left: n - n / 2,
            }),
        );
        drain(&mut sys)
    });
    p.record_ns("kernel.alarm_set_cancel_ns", |n| {
        let mut sys = System::new(SystemConfig::default());
        sys.spawn_boot(
            "churn",
            Privileges::server(),
            Box::new(AlarmChurn { pairs: n }),
        );
        drain(&mut sys)
    });

    for (name, len) in [
        ("kernel.safecopy_64_ns", 64usize),
        ("kernel.safecopy_4k_ns", 4 << 10),
        ("kernel.safecopy_64k_ns", 64 << 10),
    ] {
        p.record_ns(name, |n| {
            let granter = Endpoint::new(1, 1);
            let caller = Endpoint::new(2, 1);
            let mut pool = MemoryPool::new();
            pool.attach(granter, 128 << 10);
            pool.attach(caller, 128 << 10);
            let grant = pool
                .grant_create(granter, caller, 0, len, GrantAccess::Read)
                .expect("grant inside the granter's space");
            timed(n, |_| {
                pool.safecopy_from(caller, granter, grant, 0, 0, len)
                    .expect("capability-checked copy");
            })
        });
    }

    p.record_us("kernel.spawn_kill_us", |n| {
        let mut sys = System::new(SystemConfig::default());
        timed(n, |_| {
            let ep = sys.spawn_boot("victim", Privileges::server(), Box::new(Idle));
            sys.run_until_idle(&mut NullPlatform, u64::MAX);
            black_box(sys.kill_by_user(ep, Signal::Kill));
            sys.run_until_idle(&mut NullPlatform, u64::MAX);
        })
    });
}

// ----------------------------------------------------------------------- hw

fn hw(p: &mut Prober<'_>) {
    p.record_ns("hw.disk_read_sector_ns", |n| {
        let disk = DiskModel::new(1 << 20, 23);
        timed(n, |i| {
            black_box(disk.read(i & 0xF_FFFF));
        })
    });
    p.record_ns("hw.synth_sector_ns", |n| {
        timed(n, |i| {
            black_box(synth_sector(23, i));
        })
    });

    // A programmed RTL8139 on a bus, its rx ring DMA-mapped into one
    // address space: the path a wire frame takes into driver memory.
    p.record_ns("hw.bus_frame_in_ns", |n| {
        let dev = hwmap::NIC;
        let owner = Endpoint::new(1, 1);
        let mut pool = MemoryPool::new();
        pool.attach(owner, rtl8139::RX_RING_LEN);
        pool.iommu_map(
            dev,
            Some(IommuWindow {
                owner,
                base: 0,
                offset: 0,
                len: rtl8139::RX_RING_LEN,
            }),
        )
        .expect("window inside the owner's space");
        let mut bus = Bus::new();
        bus.add_device(
            dev,
            hwmap::NIC_IRQ,
            Box::new(Rtl8139::new(Rtl8139Config::default())),
        );
        let mut rng = SimRng::new(29);
        let mut fx: Vec<HwSideEffect> = Vec::new();
        let frame = vec![0x5Au8; 1514];
        let chan = wire_to_host_channel(dev);
        {
            let mut ctx = HwCtx::new(SimTime::ZERO, &mut pool, &mut rng, &mut fx);
            bus.io_write(dev, rtl8139::regs::CR, rtl8139::cr::RST, &mut ctx);
            bus.io_write(
                dev,
                rtl8139::regs::CR,
                rtl8139::cr::RE | rtl8139::cr::TE,
                &mut ctx,
            );
            bus.io_write(dev, rtl8139::regs::RCR, rtl8139::rcr::AAP, &mut ctx);
            bus.io_write(dev, rtl8139::regs::RBSTART, 0, &mut ctx);
        }
        let start = Instant::now();
        for _ in 0..n {
            let mut ctx = HwCtx::new(SimTime::ZERO, &mut pool, &mut rng, &mut fx);
            bus.external(chan, frame.clone(), &mut ctx);
            // The driver's half: consume what arrived so the ring never
            // fills (CAPR := CBR).
            let cbr = bus.io_read(dev, rtl8139::regs::CBR, &mut ctx);
            bus.io_write(dev, rtl8139::regs::CAPR, cbr, &mut ctx);
            fx.clear();
        }
        let took = start.elapsed();
        let received = bus.device_mut::<Rtl8139>(dev).map_or(0, |nic| nic.rx_ok());
        assert_eq!(received, n, "every probe frame must land in the ring");
        took
    });
}

// -------------------------------------------------------------------- fault

fn fault(p: &mut Prober<'_>) {
    let net_rx = routines::net_rx();
    p.record_ns("fault.vm_net_rx_1514_ns", |n| {
        let mut vm = Vm::new(2048);
        vm.mem[0] = 1;
        timed(n, |_| {
            vm.regs[usize::from(reg::A0)] = 1514;
            vm.regs[usize::from(reg::A1)] = routines::HEADER_SUM_BYTES as u32;
            black_box(vm.run(&net_rx, 50_000));
        })
    });
    let disk_request = routines::disk_request();
    p.record_ns("fault.vm_disk_req_ns", |n| {
        let mut vm = Vm::new(64);
        timed(n, |i| {
            vm.regs[usize::from(reg::A0)] = (i & 0xFFFF) as u32;
            vm.regs[usize::from(reg::A1)] = 256;
            vm.regs[usize::from(reg::A2)] = 1 << 20;
            black_box(vm.run(&disk_request, 50_000));
        })
    });
    let char_write = routines::char_write();
    p.record_ns("fault.vm_char_write_ns", |n| {
        let mut vm = Vm::new(1024);
        timed(n, |_| {
            vm.regs[usize::from(reg::A0)] = 512;
            black_box(vm.run(&char_write, 50_000));
        })
    });

    let image = routines::with_cold_section(routines::net_rx(), 30);
    p.record_ns("fault.mutate_ns", |n| {
        let mut rng = SimRng::new(31);
        let mut work = image.clone();
        timed(n, |_| {
            work.copy_from_slice(&image);
            black_box(apply_random_fault(&mut work, &mut rng));
        })
    });

    p.record_ns("fault.chaos_decide_ns", |n| {
        let mut plan = ChaosPlan::driver_traffic(CHAOS_SILENT);
        let mut rng = SimRng::new(37);
        let env = IpcEnvelope {
            from: Endpoint::new(3, 1),
            to: Endpoint::new(4, 1),
            from_name: "inet",
            to_name: "eth.rtl8139",
            class: IpcClass::Request,
        };
        timed(n, |i| {
            black_box(plan.on_ipc(SimTime::from_micros(i), &env, &mut rng));
        })
    });
}

// ------------------------------------------------------------ servers, ckpt

fn servers_and_ckpt(p: &mut Prober<'_>) {
    let script = PolicyScript::generic();
    let input = PolicyInput {
        component: "eth.rtl8139".to_string(),
        reason: reason::EXCEPTION,
        repetition: 3,
        params: vec!["ops@example.org".to_string()],
        backoff_base: None,
        backoff_cap: None,
    };
    p.record_ns("servers.policy_eval_ns", |n| {
        timed(n, |_| {
            black_box(script.run(black_box(&input)));
        })
    });

    let payload = vec![0xC3u8; 4 << 10];
    p.record_ns("ckpt.snapshot_codec_4k_ns", |n| {
        timed(n, |i| {
            let wire = Snapshot::new(1, i, payload.clone()).encode();
            black_box(Snapshot::decode(&wire).expect("own frame decodes"));
        })
    });
    // Saves must carry a rising sequence number or the store rejects them
    // as stale, so the frames are encoded up front and the store is timed
    // alone.
    p.record_ns("ckpt.store_save_4k_ns", |n| {
        let n = n.min(4_096);
        let wires: Vec<Vec<u8>> = (1..=n)
            .map(|seq| Snapshot::new(1, seq, payload.clone()).encode())
            .collect();
        let mut store = CheckpointStore::new();
        let took = timed(n, |i| {
            black_box(store.save("chr.printer", "state", &wires[i as usize]));
        });
        assert_eq!(store.stale_rejected + store.corrupt_rejected, 0);
        took
    });
    p.record_ns("ckpt.store_restore_4k_ns", |n| {
        let mut store = CheckpointStore::new();
        store.save(
            "chr.printer",
            "state",
            &Snapshot::new(1, 1, payload.clone()).encode(),
        );
        timed(n, |_| {
            black_box(store.restore("chr.printer", "state"));
        })
    });
    p.record_ns("ckpt.wal_append_ack_ns", |n| {
        let mut wal = WriteAheadLog::new();
        let chunk = vec![0x11u8; 512];
        timed(n, |_| {
            wal.append(chunk.clone());
            black_box(wal.ack(wal.appended()));
        })
    });
    let buf = vec![0x3Cu8; 1 << 20];
    p.record_mb_s("ckpt.crc32_mb_s", buf.len(), |n| {
        timed(n, |_| {
            black_box(crc32(black_box(&buf)));
        })
    });
}

// ------------------------------------------------------------ core, drivers

/// Host nanoseconds of a no-fault single-driver rig, and its IPC count.
struct Rig {
    wall_ns: f64,
    ipc_msgs: f64,
}

/// Runs `os` in 100 ms slices until `done()`; panics if it never is (a
/// no-fault rig that wedges is a harness bug, not a measurement).
fn run_rig(
    tracer: &mut Tracer,
    name: &'static str,
    mut os: Os,
    done: impl Fn() -> bool,
) -> (Rig, Os) {
    let before = ipc_msgs(&os);
    let start = Instant::now();
    tracer.span(name, |_| {
        let mut slices = 0;
        while !done() {
            os.run_for(SimDuration::from_millis(100));
            slices += 1;
            assert!(slices < 6_000, "{name}: no-fault rig did not finish");
        }
    });
    let rig = Rig {
        wall_ns: start.elapsed().as_nanos() as f64,
        ipc_msgs: (ipc_msgs(&os) - before) as f64,
    };
    (rig, os)
}

fn core_and_drivers(p: &mut Prober<'_>) {
    let full_machine = || {
        Os::builder()
            .seed(41)
            .with_network(NicKind::Rtl8139)
            .with_disk(1 << 12, 43, fig8_files(256 << 10))
            .with_chardevs()
            .boot()
    };
    p.record_us("core.boot_us", |n| {
        timed(n, |_| {
            black_box(full_machine());
        })
    });
    p.record_us("core.kill_recover_us", |n| {
        let mut os = Os::builder().seed(47).with_network(NicKind::Rtl8139).boot();
        timed(n, |_| {
            os.kill_by_user(names::ETH_RTL8139);
            os.run_for(SimDuration::from_millis(100));
            assert!(os.is_up(names::ETH_RTL8139), "killed driver must recover");
        })
    });

    // Driver layers have no pure entry point: time a no-fault rig that
    // drives one driver, then take off what the probes of the layers
    // below and beside it say their share cost — kernel IPC, the fault-VM
    // routine, the disk model, and the application's own MD5/SHA-1. An
    // estimate, floored at zero.
    let probe = |p: &Prober<'_>, name: &str| {
        p.out
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let ipc_ns = probe(p, "kernel.ipc_roundtrip_ns") / 2.0;
    let per_unit = |rig: &Rig, units: f64, child_ns_per_unit: f64| {
        let own = rig.wall_ns - rig.ipc_msgs * ipc_ns - units * child_ns_per_unit;
        (own / units.max(1.0) / 1_000.0).max(0.0)
    };

    const NET_BYTES: u64 = 8 << 20;
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        let os = Os::builder().seed(53).with_network(NicKind::Rtl8139).boot();
        let inet = os.endpoint(names::INET).expect("inet up after boot");
        let status = Rc::new(RefCell::new(WgetStatus::default()));
        let mut os = os;
        os.spawn_app(
            "wget",
            Box::new(Wget::new(inet, NET_BYTES, 59, status.clone())),
        );
        let (rig, mut os) = run_rig(p.tracer, "drivers.net_rig", os, || status.borrow().done);
        let frames = os
            .device_mut::<Rtl8139>(hwmap::NIC)
            .map_or(0, |nic| nic.rx_ok() + nic.tx_ok()) as f64;
        let md5_ns_per_frame = 1_460.0 * 1_000.0 / probe(p, "simcore.md5_mb_s").max(1.0);
        samples[0].push(per_unit(
            &rig,
            frames,
            probe(p, "fault.vm_net_rx_1514_ns") + md5_ns_per_frame,
        ));

        const DISK_BYTES: u64 = 16 << 20;
        let os = Os::builder()
            .seed(61)
            .with_disk(DISK_BYTES / 512 + 1024, 67, fig8_files(DISK_BYTES))
            .boot();
        let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
        let status = Rc::new(RefCell::new(DdStatus::default()));
        let mut os = os;
        os.spawn_app(
            "dd",
            Box::new(Dd::new(vfs, "bigfile", 128 << 10, status.clone())),
        );
        let (rig, _os) = run_rig(p.tracer, "drivers.blk_rig", os, || status.borrow().done);
        let chunks = (DISK_BYTES / (128 << 10)) as f64;
        let sha1_ns_per_chunk = 131_072.0 * 1_000.0 / probe(p, "simcore.sha1_mb_s").max(1.0);
        samples[1].push(per_unit(
            &rig,
            chunks,
            probe(p, "fault.vm_disk_req_ns")
                + 256.0 * probe(p, "hw.disk_read_sector_ns")
                + sha1_ns_per_chunk,
        ));

        let os = Os::builder().seed(71).with_chardevs().boot();
        let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
        let status = Rc::new(RefCell::new(LpdStatus::default()));
        let job: Vec<u8> = (0..64u32 << 10).map(|i| (i * 7 + 13) as u8).collect();
        let mut os = os;
        os.spawn_app("lpd", Box::new(Lpd::new(vfs, job, status.clone())));
        let (rig, os) = run_rig(p.tracer, "drivers.chr_rig", os, || status.borrow().done);
        let writes = os.metrics().counter("cdev.writes") as f64;
        samples[2].push(per_unit(&rig, writes, probe(p, "fault.vm_char_write_ns")));
    }
    for (name, s) in [
        "drivers.net_host_us_per_frame",
        "drivers.blk_host_us_per_128k",
        "drivers.chr_host_us_per_write",
    ]
    .into_iter()
    .zip(&samples)
    {
        p.out.push((name, median(s)));
    }
}

// -------------------------------------------------------------------- fleet

fn fleet(p: &mut Prober<'_>) {
    let cfg = FleetConfig {
        nodes: 8,
        seed: 73,
        ..FleetConfig::default()
    };
    p.record_us("fleet.boot_us", |n| {
        timed(n, |_| {
            black_box(Fleet::new(cfg.clone(), NodeChaosPlan::new()));
        })
    });
    // No-fault control: host time of one node advancing one 1 ms quantum,
    // gossip and snapshot replication included.
    p.record_ns("fleet.idle_quantum_ns", |n| {
        let mut fleet = Fleet::new(cfg.clone(), NodeChaosPlan::new());
        fleet.run_for(SimDuration::from_millis(500));
        let quanta = n.div_ceil(u64::from(cfg.nodes));
        let start = Instant::now();
        fleet.run_for(cfg.quantum * quanta);
        let took = start.elapsed();
        // Report per node-quantum although whole fleet quanta ran.
        took.mul_f64(n as f64 / (quanta * u64::from(cfg.nodes)) as f64)
    });

    let view: Vec<NodeStat> = (0..8)
        .map(|node| NodeStat {
            node,
            gen: 1,
            hb_seq: 100,
            beacon: 50,
            rs_up: true,
        })
        .collect();
    p.record_ns("fleet.wire_send_pop_ns", |n| {
        let mut wire = FleetWire::new(8, SimDuration::from_millis(1), &SimRng::new(79));
        timed(n, |i| {
            let now = SimTime::from_micros(i * 1_000);
            let to = (i % 7 + 1) as u8;
            wire.send(
                now,
                0,
                to,
                Payload::Gossip(Frame::heartbeat(0, 1, view.clone())),
            );
            black_box(wire.pop_due(now));
        })
    });

    let image: Vec<u8> = (0..256usize << 10).map(|i| (i * 7 % 251) as u8).collect();
    p.record_ns("fleet.link_segment_ns", |n| {
        // Whole images are transferred until `n` segments have crossed.
        let mut segments = 0u64;
        let start = Instant::now();
        let mut conn = 0u16;
        while segments < n {
            let mut tx = SnapSender::new(conn, image.clone());
            let mut rx = SnapReceiver::new();
            conn = conn.wrapping_add(1);
            let mut now = SimTime::ZERO;
            while !tx.is_done() {
                now += SimDuration::from_millis(1);
                for seg in tx.tick(now) {
                    segments += 1;
                    let (ack, _) = rx.on_segment(&seg);
                    tx.on_ack(now, &ack);
                }
            }
        }
        start.elapsed().mul_f64(n as f64 / segments as f64)
    });

    let snapshot = NodeSnapshot {
        node: 3,
        gen: 2,
        ckpt: (0..8)
            .map(|i| {
                (
                    "chr.printer".to_string(),
                    format!("key{i}"),
                    Snapshot::new(1, i, vec![i as u8; 1 << 10]).encode(),
                )
            })
            .collect(),
        ds: (0..4)
            .map(|i| (format!("rec{i}"), "vfs".to_string(), vec![i as u8; 256]))
            .collect(),
    };
    p.record_us("fleet.snapshot_codec_us", |n| {
        timed(n, |_| {
            let wire = black_box(&snapshot).encode();
            black_box(NodeSnapshot::decode(&wire).expect("own snapshot decodes"));
        })
    });

    p.record_ns("fleet.agent_tick_ns", |n| {
        let mut agent = FleetAgent::new(0, 8, 1, SimTime::ZERO);
        timed(n, |i| {
            let now = SimTime::from_micros(i * 1_000);
            let local = LocalView {
                rs_beacon: i,
                rs_up: true,
            };
            black_box(agent.tick(now, &local));
        })
    });
}

// --------------------------------------------------------------------- host

fn host(p: &mut Prober<'_>) {
    // The size mix of a message-heavy rep: mostly small, some page-sized.
    const SIZES: [usize; 8] = [16, 32, 48, 64, 128, 256, 1_024, 4_096];
    p.record_ns("host.malloc_free_ns", |n| {
        timed(n, |i| {
            let v: Vec<u8> = Vec::with_capacity(SIZES[(i % 8) as usize]);
            black_box(v);
        })
    });
}
