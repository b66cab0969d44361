//! From a worker's raw integers to named metrics.
//!
//! One place defines what every metric means, so the driver-facing run,
//! the all-workloads run and `compare` can never disagree on a formula.

use crate::calib::ref_scale;
use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats::{median, spread_pct};
use crate::workloads::PhaseSums;

/// One rep as the worker measured it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rep {
    /// Host nanoseconds inside the simulator.
    pub wall_ns: u64,
    /// Allocations inside the simulator (traced binary; else 0).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
}

/// A worker's result, parsed back from its JSON line.
#[derive(Debug, Clone)]
pub struct Raw {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Input generation + warm-up rep, host nanoseconds.
    pub setup_ns: u64,
    /// Every reference burst the worker timed (see [`crate::calib`]).
    pub bursts_ns: Vec<u64>,
    /// The warm-up rep.
    pub warmup: Rep,
    /// The timed reps.
    pub reps: Vec<Rep>,
    /// CPU milliseconds of the worker up to the end of its reps.
    pub cpu_ms: u64,
    /// Peak resident set of the worker, KiB.
    pub vm_hwm_kb: u64,
    /// Same-seed determinism handle.
    pub digest: String,
    /// Simulated microseconds to finish the workload.
    pub sim_elapsed_us: u64,
    /// Simulated microseconds advanced in one rep.
    pub sim_advanced_us: u64,
    /// Recovery phase sums of one rep.
    pub phases: PhaseSums,
    /// Operations attempted in one rep.
    pub ops_attempted: u64,
    /// Operations failed in one rep.
    pub ops_failed: u64,
    /// Per-layer counters of one rep.
    pub counts: Vec<(String, u64)>,
    /// Probe results (empty unless the worker ran them).
    pub probes: Vec<(String, f64)>,
    /// The worker's spans, as it encoded them.
    pub spans: Vec<Json>,
}

fn rep_from(j: &Json) -> Option<Rep> {
    Some(Rep {
        wall_ns: j.get("wall_ns")?.as_u64()?,
        allocs: j.get("allocs")?.as_u64()?,
        alloc_bytes: j.get("alloc_bytes")?.as_u64()?,
    })
}

impl Raw {
    /// Parses a worker's result object; `None` if a field is missing or
    /// mistyped (a worker that printed something else failed).
    pub fn from_json(j: &Json) -> Option<Raw> {
        let u = |k: &str| j.get(k)?.as_u64();
        let phases = j.get("phases")?;
        let pu = |k: &str| phases.get(k)?.as_u64();
        Some(Raw {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: u("seed")?,
            setup_ns: u("setup_ns")?,
            bursts_ns: j
                .get("bursts_ns")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
            warmup: rep_from(j.get("warmup")?)?,
            reps: j
                .get("reps")?
                .as_arr()?
                .iter()
                .map(rep_from)
                .collect::<Option<_>>()?,
            cpu_ms: u("cpu_ms")?,
            vm_hwm_kb: u("vm_hwm_kb")?,
            digest: j.get("digest")?.as_str()?.to_string(),
            sim_elapsed_us: u("sim_elapsed_us")?,
            sim_advanced_us: u("sim_advanced_us")?,
            phases: PhaseSums {
                episodes: pu("episodes")?,
                detect_us: pu("detect_us")?,
                repair_us: pu("repair_us")?,
                reintegrate_us: pu("reintegrate_us")?,
                replay_us: pu("replay_us")?,
            },
            ops_attempted: u("ops_attempted")?,
            ops_failed: u("ops_failed")?,
            counts: j
                .get("counts")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect::<Option<_>>()?,
            probes: j
                .get("probes")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
            spans: j.get("spans")?.as_arr()?.to_vec(),
        })
    }

    /// The simulated results two passes over one seed must agree on.
    pub fn sim_results(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            &self.digest,
            self.sim_elapsed_us,
            self.sim_advanced_us,
            self.phases,
            self.ops_attempted,
            self.ops_failed,
            &self.counts,
        )
    }

    fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }

    fn sim_s(&self) -> f64 {
        self.sim_advanced_us as f64 / 1e6
    }

    /// Host seconds of each timed rep.
    pub fn rep_wall_s(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_ns as f64 / 1e9).collect()
    }

    /// Reference nanoseconds per host nanosecond in this worker.
    pub fn ref_scale(&self) -> f64 {
        ref_scale(&self.bursts_ns)
    }

    /// Input generation + warm-up rep, reference seconds.
    pub fn setup_ref_s(&self) -> f64 {
        self.setup_ns as f64 / 1e9 * self.ref_scale()
    }

    /// Reference seconds of each timed rep.
    pub fn rep_ref_s(&self) -> Vec<f64> {
        let scale = self.ref_scale();
        self.rep_wall_s().iter().map(|s| s * scale).collect()
    }
}

/// A named value with the samples behind it (one sample: no spread known).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: the median of `samples`.
    pub value: f64,
    /// Every sample, in measurement order.
    pub samples: Vec<f64>,
}

impl Measured {
    fn of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Measured {
        Measured {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    /// Interquartile range over the median, percent (0 for one sample).
    pub fn spread_pct(&self) -> f64 {
        spread_pct(&self.samples)
    }
}

/// The end-to-end metrics of one workload. `setup_ref_s` holds one
/// set-up time per fresh worker process; `untraced` supplies host timings;
/// `traced` supplies the exact counts. Host times are reference seconds;
/// costs are per operation attempted (see
/// [`crate::catalogue::END_TO_END`] for why).
pub fn end_to_end(setup_ref_s: &[f64], untraced: &Raw, traced: &Raw) -> Vec<Measured> {
    let sim_s = untraced.sim_s();
    let ops = untraced.ops_attempted.max(1) as f64;
    let refs = untraced.rep_ref_s();
    let exact_rep = traced.warmup;
    let values: Vec<Vec<f64>> = vec![
        setup_ref_s.to_vec(),
        refs.iter().map(|r| r * 1e6 / ops).collect(),
        refs.iter().map(|r| sim_s / r).collect(),
        vec![exact_rep.allocs as f64 / ops],
        vec![exact_rep.alloc_bytes as f64 / 1024.0 / ops],
        vec![untraced.sim_elapsed_us as f64 / 1e3 / ops],
        vec![untraced.phases.mttr_us() as f64 / untraced.phases.episodes.max(1) as f64 / 1e3],
        vec![(1.0 - untraced.ops_failed as f64 / ops) * 100.0],
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, samples)| Measured::of(m.name, m.unit, samples))
        .collect()
}

/// The per-layer metrics of one workload: probes (workload-independent),
/// counts and simulated results of a rep, and the harness's own figures.
pub fn per_layer(untraced: &Raw, traced: &Raw, probes: &[(String, f64)]) -> Vec<Measured> {
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let walls = untraced.rep_wall_s();
    let wall_s = median(&walls);
    let wall_ns = wall_s * 1e9;
    let rep = traced.reps.first().copied().unwrap_or(traced.warmup);
    let ipc = traced.count("kernel.ipc_msgs");
    let per_ipc = |v: f64| if ipc > 0.0 { v / ipc } else { 0.0 };
    let ph = traced.phases;
    let episodes = ph.episodes.max(1) as f64;
    // A phase mean belongs to one layer: the fleet's on `fleet_failover`,
    // the servers' elsewhere; the other layer reads 0.
    let phase_ms = |owner: bool, us: u64| {
        if owner {
            us as f64 / episodes / 1e3
        } else {
            0.0
        }
    };
    let on_fleet = traced.workload == "fleet_failover";
    let pct_of_wall = |ns: f64| ns / wall_ns * 100.0;

    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "kernel.ipc_msgs_per_wall_s" => ipc / wall_s,
                "servers.detect_sim_ms" => phase_ms(!on_fleet, ph.detect_us),
                "servers.repair_sim_ms" => phase_ms(!on_fleet, ph.repair_us),
                "servers.reintegrate_sim_ms" => phase_ms(!on_fleet, ph.reintegrate_us),
                "fleet.detect_sim_ms" => phase_ms(on_fleet, ph.detect_us),
                "fleet.repair_sim_ms" => phase_ms(on_fleet, ph.repair_us),
                "fleet.reintegrate_sim_ms" => phase_ms(on_fleet, ph.reintegrate_us),
                "ckpt.replay_sim_ms" => phase_ms(true, ph.replay_us),
                "core.ops_attempted" => traced.ops_attempted as f64,
                "core.slo_steady_p99_sim_ms" => traced.count("core.slo_steady_p99_sim_us") / 1e3,
                "core.slo_recovery_p99_sim_ms" => {
                    traced.count("core.slo_recovery_p99_sim_us") / 1e3
                }
                "core.bulk_net_sim_mb_s" => traced.count("core.bulk_net_sim_kb_s") / 1e3,
                "core.bulk_disk_sim_mb_s" => traced.count("core.bulk_disk_sim_kb_s") / 1e3,
                "host.ref_speed_pct" => untraced.ref_scale() * 100.0,
                "host.cpu_s" => untraced.cpu_ms as f64 / 1e3,
                "host.rep_spread_pct" => spread_pct(&walls),
                "host.peak_rss_mb" => untraced.vm_hwm_kb as f64 / 1024.0,
                "host.allocs_per_ipc_msg" => per_ipc(rep.allocs as f64),
                "host.alloc_bytes_per_ipc_msg" => per_ipc(rep.alloc_bytes as f64),
                "host.traced_overhead_pct" => {
                    let traced_ref_s = rep.wall_ns as f64 / 1e9 * traced.ref_scale();
                    (traced_ref_s / median(&untraced.rep_ref_s()) - 1.0) * 100.0
                }
                "share.kernel_ipc_pct" => pct_of_wall(ipc * probe("kernel.ipc_roundtrip_ns") / 2.0),
                "share.chaos_pct" if traced.workload == "slo_chaos" => {
                    pct_of_wall(ipc * probe("fault.chaos_decide_ns"))
                }
                "share.chaos_pct" => 0.0,
                "share.alloc_pct" => pct_of_wall(rep.allocs as f64 * probe("host.malloc_free_ns")),
                name if probes.iter().any(|(k, _)| k == name) => probe(name),
                name => traced.count(name),
            };
            Measured {
                name: m.name,
                unit: m.unit,
                value,
                samples: vec![value],
            }
        })
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}` — the `metrics` member of the
/// line the benchmark contract asks for. The result file of the full run
/// adds each metric's `samples`, which `compare` needs for the spread.
pub fn metrics_json(metrics: &[Measured], with_samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                if with_samples {
                    let samples = m.samples.iter().map(|s| Json::Num(*s)).collect();
                    fields.push(("samples", Json::Arr(samples)));
                }
                (m.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::REF_NOMINAL_NS;

    fn raw(workload: &str, rep_wall_ns: &[u64], allocs: u64) -> Raw {
        let rep = |wall_ns: u64| Rep {
            wall_ns,
            allocs,
            alloc_bytes: allocs * 100,
        };
        Raw {
            workload: workload.to_string(),
            seed: 2007,
            setup_ns: 3_750_000_000,
            // The test host runs at 80 % of nominal speed.
            bursts_ns: vec![REF_NOMINAL_NS * 5 / 4; 2],
            warmup: rep(2_500_000_000),
            reps: rep_wall_ns.iter().map(|w| rep(*w)).collect(),
            cpu_ms: 9_000,
            vm_hwm_kb: 51_200,
            digest: "d".to_string(),
            sim_elapsed_us: 20_000_000,
            sim_advanced_us: 30_000_000,
            phases: PhaseSums {
                episodes: 4,
                detect_us: 40,
                repair_us: 40_000,
                reintegrate_us: 360,
                replay_us: 1_600,
            },
            ops_attempted: 1_000,
            ops_failed: 5,
            counts: vec![
                ("kernel.ipc_msgs".to_string(), 600_000),
                ("core.slo_steady_p99_sim_us".to_string(), 204_799),
            ],
            probes: vec![
                ("kernel.ipc_roundtrip_ns".to_string(), 400.0),
                ("fault.chaos_decide_ns".to_string(), 15.0),
                ("host.malloc_free_ns".to_string(), 20.0),
            ],
            spans: Vec::new(),
        }
    }

    fn value(metrics: &[Measured], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    #[test]
    fn end_to_end_formulas() {
        let untraced = raw(
            "slo_chaos",
            &[2_000_000_000, 3_000_000_000, 2_500_000_000],
            0,
        );
        let traced = raw("slo_chaos", &[], 6_000_000);
        assert_eq!(untraced.setup_ref_s(), 3.0);
        let m = end_to_end(&[3.0, 2.0, 4.0], &untraced, &traced);
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(value(&m, "setup_s"), 3.0);
        // The median rep takes 2.5 s, which is 2 reference seconds, for
        // 1,000 operations and advances 30 simulated seconds; the workload
        // finishes after 20 of them.
        assert_eq!(value(&m, "ref_us_per_op"), 2_000.0);
        assert_eq!(value(&m, "sim_s_per_ref_s"), 15.0);
        assert_eq!(value(&m, "allocs_per_op"), 6_000.0);
        assert_eq!(value(&m, "alloc_kb_per_op"), 6e8 / 1024.0 / 1_000.0);
        assert_eq!(value(&m, "sim_ms_per_op"), 20.0);
        // (40 + 40,000 + 360 + 1,600) us over 4 episodes.
        assert_eq!(value(&m, "mttr_sim_ms"), 10.5);
        // 5 of 1,000 operations failed.
        assert_eq!(value(&m, "op_ok_pct"), 99.5);
        assert!(m.iter().all(|m| m.value != 0.0), "never zero");
    }

    #[test]
    fn phases_sum_to_mttr_with_one_owner_each() {
        let untraced = raw("bulk_io", &[2_000_000_000; 3], 0);
        let traced = raw("bulk_io", &[2_200_000_000], 6_000_000);
        let layers = per_layer(&untraced, &traced, &traced.probes);
        assert_eq!(layers.len(), PER_LAYER.len());
        let sum: f64 = [
            "servers.detect_sim_ms",
            "servers.repair_sim_ms",
            "servers.reintegrate_sim_ms",
            "ckpt.replay_sim_ms",
            "fleet.detect_sim_ms",
            "fleet.repair_sim_ms",
            "fleet.reintegrate_sim_ms",
        ]
        .iter()
        .map(|n| value(&layers, n))
        .sum();
        let mttr = value(&end_to_end(&[1.0], &untraced, &traced), "mttr_sim_ms");
        assert!((sum - mttr).abs() < 1e-12, "{sum} vs {mttr}");
        assert_eq!(value(&layers, "fleet.repair_sim_ms"), 0.0);

        // On the fleet workload the same sums belong to the fleet layer.
        let traced = raw("fleet_failover", &[2_200_000_000], 6_000_000);
        let layers = per_layer(&untraced, &traced, &traced.probes);
        assert_eq!(value(&layers, "servers.repair_sim_ms"), 0.0);
        assert_eq!(value(&layers, "fleet.repair_sim_ms"), 10.0);
    }

    #[test]
    fn shares_counts_and_harness_figures() {
        let untraced = raw("slo_chaos", &[2_000_000_000; 3], 0);
        let traced = raw("slo_chaos", &[2_200_000_000], 6_000_000);
        let layers = per_layer(&untraced, &traced, &traced.probes);
        assert_eq!(value(&layers, "kernel.ipc_msgs"), 600_000.0);
        assert_eq!(value(&layers, "kernel.ipc_msgs_per_wall_s"), 300_000.0);
        assert_eq!(value(&layers, "kernel.ipc_roundtrip_ns"), 400.0);
        // 600 k messages x 200 ns of a 2 s rep.
        assert!((value(&layers, "share.kernel_ipc_pct") - 6.0).abs() < 1e-9);
        assert!((value(&layers, "share.chaos_pct") - 0.45).abs() < 1e-9);
        assert!((value(&layers, "share.alloc_pct") - 6.0).abs() < 1e-9);
        assert_eq!(value(&layers, "host.allocs_per_ipc_msg"), 10.0);
        assert!((value(&layers, "host.traced_overhead_pct") - 10.0).abs() < 1e-9);
        assert_eq!(value(&layers, "core.slo_steady_p99_sim_ms"), 204.799);
        assert_eq!(value(&layers, "core.ops_attempted"), 1_000.0);
        assert_eq!(value(&layers, "host.peak_rss_mb"), 50.0);
        assert_eq!(value(&layers, "host.ref_speed_pct"), 80.0);
        // Chaos is armed on slo_chaos only.
        let elsewhere = raw("mutation", &[2_200_000_000], 6_000_000);
        let layers = per_layer(&untraced, &elsewhere, &elsewhere.probes);
        assert_eq!(value(&layers, "share.chaos_pct"), 0.0);
    }

    #[test]
    fn worker_output_round_trips_into_raw() {
        let line = "{\"workload\":\"bulk_io\",\"seed\":7,\"setup_ns\":2,\"bursts_ns\":[50,70],\
            \"warmup\":{\"wall_ns\":3,\"allocs\":4,\"alloc_bytes\":5},\
            \"reps\":[{\"wall_ns\":6,\"allocs\":4,\"alloc_bytes\":5}],\"cpu_ms\":8,\
            \"vm_hwm_kb\":9,\"digest\":\"abc\",\"sim_elapsed_us\":10,\"sim_advanced_us\":11,\
            \"phases\":{\"episodes\":1,\"detect_us\":2,\"repair_us\":3,\"reintegrate_us\":4,\
            \"replay_us\":5},\"ops_attempted\":12,\"ops_failed\":0,\
            \"counts\":{\"kernel.ipc_msgs\":13},\"probes\":{\"host.malloc_free_ns\":18.5},\
            \"spans\":[]}";
        let raw = Raw::from_json(&Json::parse(line).expect("parses")).expect("complete");
        assert_eq!(raw.reps[0].wall_ns, 6);
        assert_eq!(raw.bursts_ns, [50, 70]);
        assert_eq!(raw.phases.mttr_us(), 14);
        assert_eq!(raw.probes, vec![("host.malloc_free_ns".to_string(), 18.5)]);
        // A missing field is a failed worker, not a default.
        let broken = line.replace("\"digest\":\"abc\",", "");
        assert!(Raw::from_json(&Json::parse(&broken).expect("parses")).is_none());
    }
}
