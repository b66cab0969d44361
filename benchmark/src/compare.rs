//! `phoenix-perf compare A.json B.json`: two result files of the full run,
//! side by side, judged against the bounds in `BENCHMARK.json`.
//!
//! Per workload and end-to-end metric it prints both medians, the change,
//! the bound, and a verdict. A host-clock metric whose run-to-run spread
//! is wider than its bound cannot be called unchanged: it is `unresolved`
//! unless every sample of B beats every sample of A. Exact metrics (pure
//! functions of the seed) are compared for equality, and between two runs
//! on one seed they are held to [`EXACT_BOUND`], not to the wider bound
//! `BENCHMARK.json` needs to hold ten different seeds.

use crate::catalogue::{Better, END_TO_END, EXACT_BOUND};
use crate::json::Json;
use crate::stats::{median, spread_pct};

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better), and the spread allows saying so.
    Ok,
    /// Exact metric, identical in both files.
    Equal,
    /// Exact metric that moved, but not past its bound in the bad direction.
    Changed,
    /// Worse than A by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Equal => "ok (equal)",
            Verdict::Changed => "changed",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when B is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges B's samples against A's under `bound` (a share of A's median).
pub fn verdict(better: Better, bound: f64, exact: bool, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let worse = worse_by(better, med_a, med_b);
    if exact {
        return if med_a == med_b {
            Verdict::Equal
        } else if worse > bound {
            Verdict::Worse
        } else {
            Verdict::Changed
        };
    }
    let spread = spread_pct(a).max(spread_pct(b)) / 100.0;
    if spread > bound {
        let b_always_better = a.iter().all(|x| {
            b.iter().all(|y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The bound a metric is held to: an exact metric compared on one seed
/// gets [`EXACT_BOUND`] where `BENCHMARK.json` is looser, everything else
/// the bound from `BENCHMARK.json`.
pub fn bound_for(exact: bool, same_seed: bool, file_bound: f64) -> f64 {
    if exact && same_seed {
        file_bound.min(EXACT_BOUND)
    } else {
        file_bound
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("phoenix-perf/v1") {
        return Err(format!("{path}: not a phoenix-perf/v1 result file"));
    }
    Ok(doc)
}

/// `name -> bound` from the `end_to_end` list of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> Result<Vec<(String, f64)>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_string())
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn samples(w: &Json, metric: &str) -> Option<Vec<f64>> {
    w.get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compares two result files; `Ok(true)` when nothing is worse.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repo root): {e}"))?;
    let bounds = bounds(&Json::parse(&bench).map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!(
            "note: the files were run on different seeds; exact metrics will differ \
             and are held to the cross-seed bounds of BENCHMARK.json"
        );
    }
    let mut clean = true;
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for name in crate::workloads::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, name), workload(&b, name)) else {
            println!("{name:<15} missing from one of the files: WORSE");
            clean = false;
            continue;
        };
        for spec in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == spec.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", spec.name))?;
            let bound = bound_for(spec.exact, same_seed, bound);
            let (Some(sa), Some(sb)) = (samples(wa, spec.name), samples(wb, spec.name)) else {
                return Err(format!("{name}: {} missing from a result file", spec.name));
            };
            let v = verdict(spec.better, bound, spec.exact, &sa, &sb);
            clean &= v != Verdict::Worse;
            let (ma, mb) = (median(&sa), median(&sb));
            println!(
                "{:<15} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                name,
                spec.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                bound * 100.0,
                v.as_str()
            );
        }
        // Same-seed identity of the simulation itself.
        for key in ["digest", "ops_attempted", "ops_failed"] {
            let (va, vb) = (wa.get(key), wb.get(key));
            if va == vb {
                continue;
            }
            let more_failures =
                key == "ops_failed" && vb.and_then(Json::as_u64) > va.and_then(Json::as_u64);
            println!(
                "{:<15} {:<20} {} -> {}  {}",
                name,
                key,
                va.map_or("?".to_string(), Json::encode),
                vb.map_or("?".to_string(), Json::encode),
                if more_failures { "WORSE" } else { "differs" }
            );
            clean &= !more_failures;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_metric_within_bound_is_ok_beyond_it_is_worse() {
        let a = [10.0, 10.1, 9.9];
        // Lower is better, bound 10 %: +5 % is ok, +20 % is worse.
        assert_eq!(
            verdict(Better::Lower, 0.10, false, &a, &[10.5, 10.4, 10.6]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, false, &a, &[12.0, 12.1, 11.9]),
            Verdict::Worse
        );
        // Getting much better is never "worse".
        assert_eq!(
            verdict(Better::Lower, 0.10, false, &a, &[5.0, 5.1, 4.9]),
            Verdict::Ok
        );
        // Higher is better: the sign flips.
        assert_eq!(
            verdict(Better::Higher, 0.10, false, &a, &[8.0, 8.1, 7.9]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, false, &a, &[12.0, 12.1, 11.9]),
            Verdict::Ok
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, false, &noisy, &[10.0, 10.0, 10.0]),
            Verdict::Unresolved
        );
        // Even a median far past the bound stays unresolved: the spread
        // says the measurement cannot tell.
        assert_eq!(
            verdict(Better::Lower, 0.10, false, &noisy, &[13.0, 13.0, 13.0]),
            Verdict::Unresolved
        );
        // Every B sample beats every A sample: that much can be said.
        assert_eq!(
            verdict(Better::Lower, 0.10, false, &noisy, &[6.0, 6.5, 6.2]),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_compare_for_equality_first() {
        assert_eq!(
            verdict(Better::Lower, 0.01, true, &[11_606_987.0], &[11_606_987.0]),
            Verdict::Equal
        );
        assert_eq!(
            verdict(Better::Lower, 0.01, true, &[11_606_987.0], &[11_606_000.0]),
            Verdict::Changed
        );
        assert_eq!(
            verdict(Better::Lower, 0.01, true, &[1000.0], &[1005.0]),
            Verdict::Changed
        );
        assert_eq!(
            verdict(Better::Lower, 0.01, true, &[1000.0], &[1020.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_on_one_seed_are_held_to_one_percent() {
        // BENCHMARK.json says 5 % (it has to hold ten seeds); on one seed
        // a 2 % rise in allocations is a regression all the same.
        let bound = bound_for(true, true, 0.05);
        assert_eq!(bound, EXACT_BOUND);
        assert_eq!(
            verdict(Better::Lower, bound, true, &[1000.0], &[1020.0]),
            Verdict::Worse
        );
        // Across seeds, and for host-clock metrics, the file's bound holds.
        assert_eq!(bound_for(true, false, 0.05), 0.05);
        assert_eq!(bound_for(false, true, 0.25), 0.25);
        // A file bound tighter than 1 % (op_ok_pct: 0.1 point) stays.
        assert_eq!(bound_for(true, true, 0.001), 0.001);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let doc = Json::parse(
            "{\"end_to_end\":[{\"name\":\"setup_s\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.25},\
             {\"name\":\"mttr_sim_ms\",\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1}]}",
        )
        .expect("parses");
        assert_eq!(
            bounds(&doc),
            Ok(vec![
                ("setup_s".to_string(), 0.25),
                ("mttr_sim_ms".to_string(), 0.1)
            ])
        );
        assert!(bounds(&Json::parse("{}").expect("parses")).is_err());
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }
}
