//! The metric catalogue: every name the benchmark reports, with unit and
//! direction. `BENCHMARK.json` lists the same names (a test keeps the two
//! in step) and adds the regression bound of each end-to-end metric.
//!
//! For every per-layer metric `moves` says, before anything is measured,
//! which end-to-end metric it should move and on which workload — and by
//! omission where it should not. A change that speeds a layer up is
//! checked against that prediction.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Exact metrics are pure functions of the seed (simulated clock,
    /// allocation counts): two runs of one commit must agree to the digit.
    pub exact: bool,
}

/// How much worse an exact metric may read between two runs on one seed
/// before `compare` calls it a regression (the issue's 1 %). The bound
/// `BENCHMARK.json` carries for the same metric is usually wider: it has to
/// hold the spread across ten *different* seeds, which says nothing about
/// one seed.
pub const EXACT_BOUND: f64 = 0.01;

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`; the layer is the crate.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, exact: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        exact,
    }
}

/// The end-to-end metrics, defined on every workload and never zero.
///
/// Host times are in reference seconds (see [`crate::calib`]). Costs are
/// per *operation* (request, MiB, mutation, node fault: the unit of work
/// the inputs ask for), not per rep and not per simulated second.
/// Per rep does not hold across seeds: `mutation` injects 600 to 1,150
/// mutations depending on how many rounds end benign. Per simulated second
/// would let the program under test set its own denominator: a change that
/// makes the same work take longer in simulated time would read as cheaper.
/// `op_ok_pct` is the issue's `op_fail_pct` turned round, because a gated
/// metric may never read 0 and no operation fails at the baseline.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, false),
    e2e("ref_us_per_op", "us", Better::Lower, false),
    e2e("sim_s_per_ref_s", "sim_s/s", Better::Higher, false),
    e2e("allocs_per_op", "count", Better::Lower, true),
    e2e("alloc_kb_per_op", "KB", Better::Lower, true),
    e2e("sim_ms_per_op", "ms", Better::Lower, true),
    e2e("mttr_sim_ms", "ms", Better::Lower, true),
    e2e("op_ok_pct", "%", Better::Higher, true),
];

const fn lo(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn hi(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const SMALL_MSG: &str = "ref_us_per_op on slo_chaos, then mutation";
const BULK_ONLY: &str = "ref_us_per_op on bulk_io only";
const SLO_ONLY: &str = "ref_us_per_op on slo_chaos only";
const MUT_ONLY: &str = "ref_us_per_op on mutation only";
const FLEET_ONLY: &str = "ref_us_per_op on fleet_failover only";
const BULK_MUT: &str = "ref_us_per_op on bulk_io and mutation";
const MTTR: &str = "mttr_sim_ms (phases sum to it; one owner per phase)";
const FLEET_MTTR: &str = "mttr_sim_ms on fleet_failover";
const RESULT: &str = "workload result, not a cost";
const HARNESS: &str = "the harness itself";

/// The per-layer metrics; layer = crate.
pub const PER_LAYER: [PerLayer; 86] = [
    // simcore
    lo("simcore.evq_sched_pop_ns", "ns", SMALL_MSG),
    lo("simcore.evq_cancel_ns", "ns", SMALL_MSG),
    lo("simcore.metrics_incr_ns", "ns", SMALL_MSG),
    lo("simcore.loghist_record_ns", "ns", SMALL_MSG),
    lo("simcore.trace_emit_ns", "ns", SMALL_MSG),
    lo("simcore.rng_next_ns", "ns", SMALL_MSG),
    lo("simcore.fold_timeline_us_per_kev", "us/kev", SMALL_MSG),
    hi("simcore.md5_mb_s", "MB/s", BULK_ONLY),
    hi("simcore.sha1_mb_s", "MB/s", BULK_ONLY),
    // kernel
    lo("kernel.ipc_roundtrip_ns", "ns", SMALL_MSG),
    lo("kernel.ipc_send_ns", "ns", SMALL_MSG),
    lo("kernel.alarm_set_cancel_ns", "ns", SMALL_MSG),
    lo("kernel.ipc_roundtrip_chaos_ns", "ns", SLO_ONLY),
    lo(
        "kernel.safecopy_64_ns",
        "ns",
        "none expected (header-sized copies are rare)",
    ),
    lo("kernel.safecopy_4k_ns", "ns", MUT_ONLY),
    lo("kernel.safecopy_64k_ns", "ns", BULK_ONLY),
    lo(
        "kernel.spawn_kill_us",
        "us",
        "ref_us_per_op on mutation and fleet_failover",
    ),
    lo(
        "kernel.ipc_msgs",
        "count",
        "allocs_per_op wherever it drops",
    ),
    lo("kernel.irqs", "count", BULK_ONLY),
    lo("kernel.ipc_aborted", "count", "mttr_sim_ms on mutation"),
    lo(
        "kernel.chaos_actions",
        "count",
        "sim_ms_per_op on slo_chaos; 0 elsewhere",
    ),
    lo("kernel.spawns", "count", "setup_s everywhere"),
    hi(
        "kernel.ipc_msgs_per_wall_s",
        "1/s",
        "tracks ref_us_per_op; 0 on fleet_failover",
    ),
    // hw
    lo("hw.disk_read_sector_ns", "ns", BULK_ONLY),
    lo("hw.synth_sector_ns", "ns", BULK_ONLY),
    lo("hw.bus_frame_in_ns", "ns", BULK_ONLY),
    // fault
    lo("fault.vm_net_rx_1514_ns", "ns", BULK_MUT),
    lo("fault.vm_disk_req_ns", "ns", BULK_MUT),
    lo(
        "fault.vm_char_write_ns",
        "ns",
        "ref_us_per_op on mutation and fleet_failover",
    ),
    lo("fault.mutate_ns", "ns", MUT_ONLY),
    lo("fault.chaos_decide_ns", "ns", SLO_ONLY),
    // drivers
    lo("drivers.net_host_us_per_frame", "us", BULK_ONLY),
    lo("drivers.blk_host_us_per_128k", "us", BULK_ONLY),
    lo("drivers.chr_host_us_per_write", "us", FLEET_ONLY),
    // servers
    lo(
        "servers.policy_eval_ns",
        "ns",
        "none expected (one evaluation per recovery)",
    ),
    lo("servers.detect_sim_ms", "ms", MTTR),
    lo("servers.repair_sim_ms", "ms", MTTR),
    lo("servers.reintegrate_sim_ms", "ms", MTTR),
    lo("servers.rs_recoveries", "count", RESULT),
    lo("servers.rs_complaints_accepted", "count", RESULT),
    lo(
        "servers.inet_retransmits",
        "count",
        "sim_ms_per_op on slo_chaos and bulk_io",
    ),
    lo(
        "servers.mfs_reissues",
        "count",
        "sim_ms_per_op on slo_chaos and bulk_io",
    ),
    lo(
        "servers.mfs_retries",
        "count",
        "sim_ms_per_op on slo_chaos and bulk_io",
    ),
    lo("servers.ds_publishes", "count", RESULT),
    // ckpt
    lo("ckpt.store_save_4k_ns", "ns", FLEET_ONLY),
    lo("ckpt.store_restore_4k_ns", "ns", FLEET_ONLY),
    lo("ckpt.snapshot_codec_4k_ns", "ns", FLEET_ONLY),
    lo("ckpt.wal_append_ack_ns", "ns", FLEET_ONLY),
    hi("ckpt.crc32_mb_s", "MB/s", FLEET_ONLY),
    lo("ckpt.replay_sim_ms", "ms", MTTR),
    lo("ckpt.saves", "count", "0 outside fleet_failover"),
    lo("ckpt.restores", "count", "0 outside fleet_failover"),
    lo("ckpt.tail_polls", "count", "0 outside fleet_failover"),
    // core
    lo(
        "core.boot_us",
        "us",
        "setup_s everywhere; ref_us_per_op on fleet_failover",
    ),
    lo("core.kill_recover_us", "us", MUT_ONLY),
    hi(
        "core.ops_attempted",
        "count",
        "the divisor of every per-op metric; set by the inputs",
    ),
    lo("core.slo_steady_p99_sim_ms", "ms", RESULT),
    lo("core.slo_recovery_p99_sim_ms", "ms", RESULT),
    lo("core.slo_shed", "count", RESULT),
    hi("core.bulk_net_sim_mb_s", "MB/s", RESULT),
    hi("core.bulk_disk_sim_mb_s", "MB/s", RESULT),
    hi("core.mut_injections", "count", RESULT),
    hi("core.mut_detected", "count", RESULT),
    lo("core.mut_fail_silent", "count", RESULT),
    // fleet
    lo("fleet.boot_us", "us", FLEET_ONLY),
    lo("fleet.idle_quantum_ns", "ns", FLEET_ONLY),
    lo("fleet.wire_send_pop_ns", "ns", FLEET_ONLY),
    lo("fleet.link_segment_ns", "ns", FLEET_ONLY),
    lo("fleet.snapshot_codec_us", "us", FLEET_ONLY),
    lo("fleet.agent_tick_ns", "ns", FLEET_ONLY),
    lo("fleet.detect_sim_ms", "ms", FLEET_MTTR),
    lo("fleet.repair_sim_ms", "ms", FLEET_MTTR),
    lo("fleet.reintegrate_sim_ms", "ms", FLEET_MTTR),
    lo("fleet.wire_sent", "count", FLEET_ONLY),
    lo("fleet.snap_replicated", "count", FLEET_ONLY),
    // host
    hi(
        "host.ref_speed_pct",
        "%",
        "host speed beside the reps against the nominal host: host s = reference s x 100 / this",
    ),
    lo("host.cpu_s", "s", HARNESS),
    lo("host.rep_spread_pct", "%", HARNESS),
    lo(
        "host.peak_rss_mb",
        "MB",
        "footprint of the worker; moves 50 % between seeds on mutation, so it cannot be gated",
    ),
    lo(
        "host.allocs_per_ipc_msg",
        "count",
        "allocs_per_op; 0 on fleet_failover",
    ),
    lo(
        "host.alloc_bytes_per_ipc_msg",
        "B",
        "alloc_kb_per_op; 0 on fleet_failover",
    ),
    lo("host.malloc_free_ns", "ns", HARNESS),
    lo("host.traced_overhead_pct", "%", HARNESS),
    lo(
        "share.kernel_ipc_pct",
        "%",
        "ceiling of any kernel IPC fix on this workload",
    ),
    lo(
        "share.chaos_pct",
        "%",
        "ceiling of any chaos-path fix; 0 outside slo_chaos",
    ),
    lo(
        "share.alloc_pct",
        "%",
        "ceiling of any allocation fix on this workload",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(section: &Json) -> Vec<(String, String, String)> {
        section
            .as_arr()
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = benchmark_json();
        let row = |name: &str, unit: &str, better: Better| {
            (
                name.to_string(),
                unit.to_string(),
                better.as_str().to_string(),
            )
        };
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| row(m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed(doc.get("end_to_end").expect("end_to_end")), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| row(m.name, m.unit, m.better))
            .collect();
        assert_eq!(listed(doc.get("per_layer").expect("per_layer")), want);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    /// The limits the benchmark contract sets on `BENCHMARK.json`.
    #[test]
    fn benchmark_json_stays_inside_the_contract_limits() {
        let doc = benchmark_json();
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in crate::workloads::WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "{w}");
        }
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
