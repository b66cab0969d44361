//! The scenario registry: every table, figure and campaign of the
//! evaluation, by name.

use crate::Scenario;

mod ablations;
mod chaos;
mod ckpt;
mod failsilent;
mod figures;
mod fleet;
mod microreboot;
mod sec72;
mod slo;
mod standby;

/// Every scenario `phoenix-bench` can run, in paper order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "fig3",
        blurb: "Fig. 3 recovery-scheme matrix: one kill per driver class (RS, INET, MFS/VFS, char apps)",
        run: figures::fig3,
    },
    Scenario {
        name: "fig7",
        blurb: "Fig. 7 wget throughput vs. RTL8139 kill interval, MD5-checked (INET, net driver, RS)",
        run: figures::fig7,
    },
    Scenario {
        name: "fig8",
        blurb: "Fig. 8 dd throughput vs. SATA kill interval, SHA-1-checked (VFS, MFS, block driver, RS)",
        run: figures::fig8,
    },
    Scenario {
        name: "fig9",
        blurb: "Fig. 9 executable and recovery-specific LoC per component (source tree only)",
        run: figures::fig9,
    },
    Scenario {
        name: "sec72",
        blurb: "§7.2 mutate the DP8390 driver until it crashes, emulator and wedge-capable card (fault VM, RS, INET)",
        run: sec72::sec72,
    },
    Scenario {
        name: "ablation_backoff",
        blurb: "restart policies under a crash loop on a wedged card (RS policy scripts)",
        run: ablations::backoff,
    },
    Scenario {
        name: "ablation_fault_types",
        blurb: "outcome class per §7.2 mutation operator on the rx routine (fault VM, mutator)",
        run: ablations::fault_types,
    },
    Scenario {
        name: "ablation_heartbeat",
        blurb: "heartbeat period vs. stuck-driver detection latency and message cost (RS, kernel IPC)",
        run: ablations::heartbeat,
    },
    Scenario {
        name: "chaos",
        blurb: "driver kills under IPC drop/delay/dup/corrupt at five intensities, one kill mid-recovery (kernel chaos, RS, INET, MFS)",
        run: chaos::chaos,
    },
    Scenario {
        name: "timeline",
        blurb: "100-kill chaos campaign folded into detect/repair/reintegrate phases, JSONL + Chrome-trace export (trace ring, obs fold)",
        run: chaos::timeline,
    },
    Scenario {
        name: "ckpt",
        blurb: "char-driver kills with checkpoint/replay vs. the §6.3 error-push baseline (ckpt store, WAL, char drivers, VFS)",
        run: ckpt::ckpt,
    },
    Scenario {
        name: "failsilent",
        blurb: "non-crashing mutations over net/block/char drivers, sentinels armed vs. crash-only vs. no-fault control (sentinels, RS arbitration)",
        run: failsilent::failsilent,
    },
    Scenario {
        name: "microreboot",
        blurb: "crash/stall/garble VFS, MFS, INET and PM under byte-exact observers (crash-only servers, DS snapshots, escalation ladder)",
        run: microreboot::microreboot,
    },
    Scenario {
        name: "slo",
        blurb: "open-loop INET + VFS load x chaos intensity, per-phase latency percentiles, <=10% gate vs. BENCH_slo.json (loadgen, obs join)",
        run: slo::slo,
    },
    Scenario {
        name: "fleet",
        blurb: "RS kills, node crashes, partitions and loss across a 4-node fleet; peers convict and reboot warm (fleet agent, wire, snapshots)",
        run: fleet::fleet,
    },
    Scenario {
        name: "standby",
        blurb: "wedge/garble faults with hot-standby promotion vs. cold restart+replay under the adapt policy (RS spares, WAL tail, adapt controllers)",
        run: standby::standby,
    },
];
