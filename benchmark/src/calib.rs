//! Host-speed calibration: a fixed reference kernel timed beside the
//! measured work.
//!
//! The sandbox this benchmark runs in is a shared 2-core box whose
//! effective speed moves by up to 1.8x over minutes, every rep of a run
//! slow or fast together (load on the sibling vCPU alone costs 25 %). No
//! statistic over the reps of one run removes that, and CPU time moves
//! with wall time. The acceptance runs make ten runs on ten seeds, twice,
//! and reject a benchmark whose metric spreads (IQR/median) by more than
//! its bound, at most 25 %, or whose median moves by more than the bound
//! between the two rounds. `benchmark/README.md` has the measurements; in
//! short, plain host seconds failed the first test in two rounds of seven
//! and the second once, and host time in *reference seconds* has failed
//! neither in five rounds:
//!
//! ```text
//! reference time = host time x REF_NOMINAL_NS / (mean burst of the process)
//! ```
//!
//! One factor per worker process, from every burst it timed (one before
//! set-up, one after, one after each rep): a single 50 ms burst is itself
//! noisy, and scaling each rep by its own two neighbours measured no
//! steadier. It also makes a recorded baseline portable: on a host twice
//! as fast both the rep and the burst halve.
//!
//! The kernel must not share code with the program under test (a speed-up
//! there would then hide itself), so it is written out here: ordered-map
//! churn, short-lived small allocations and string-keyed lookups - the
//! memory behaviour of the simulator - with fixed iteration counts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one [`burst_ns`] takes on the quiet reference box, so that a
/// reference second there is about a real second.
pub const REF_NOMINAL_NS: u64 = 50_000_000;

fn kernel() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..60_000 {
        let k = next() & 0xFFFF;
        *map.entry(k).or_insert(0) += 1;
        if k & 7 == 0 {
            map.remove(&(k ^ 1));
        }
    }
    let mut kept: Vec<Vec<u8>> = Vec::new();
    for i in 0..40_000u64 {
        let v = vec![i as u8; 16 + (next() & 0x3FF) as usize];
        if i & 3 == 0 {
            kept.push(v);
            if kept.len() > 512 {
                kept.swap_remove((next() & 511) as usize);
            }
        } else {
            black_box(&v);
        }
    }
    let mut named: BTreeMap<String, u64> = (0..220)
        .map(|i| (format!("layer{}.counter.{}", i % 11, i), 0))
        .collect();
    let names: Vec<String> = named.keys().cloned().collect();
    for i in 0..200_000usize {
        if let Some(v) = named.get_mut(&names[i * 37 % names.len()]) {
            *v += 1;
        }
    }
    black_box((&map, &kept, &named));
}

/// Times one reference burst (three passes of the kernel, about 50 ms).
pub fn burst_ns() -> u64 {
    let start = Instant::now();
    for _ in 0..3 {
        kernel();
    }
    crate::span::elapsed_ns(start)
}

/// Reference nanoseconds per host nanosecond, from the bursts a process
/// timed: multiply a host time by it.
pub fn ref_scale(bursts_ns: &[u64]) -> f64 {
    let mean = bursts_ns.iter().sum::<u64>() as f64 / bursts_ns.len().max(1) as f64;
    REF_NOMINAL_NS as f64 / mean.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_mean_burst() {
        // Host at nominal speed: host time is reference time.
        assert_eq!(ref_scale(&[REF_NOMINAL_NS, REF_NOMINAL_NS]), 1.0);
        // Host 25 % slow (bursts take 1.25x): times are scaled back.
        assert_eq!(ref_scale(&[REF_NOMINAL_NS * 5 / 4]), 0.8);
        // All bursts of the process count, equally.
        assert_eq!(ref_scale(&[REF_NOMINAL_NS, REF_NOMINAL_NS * 3]), 0.5);
        // A broken reading cannot divide by zero.
        assert!(ref_scale(&[]).is_finite() && ref_scale(&[0]).is_finite());
    }

    #[test]
    fn a_burst_takes_time() {
        assert!(burst_ns() > 0);
    }
}
