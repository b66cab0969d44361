//! Order statistics for rep timings: median, quartiles, spread.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the acceptance runs use to
//! judge run-to-run spread; computing them the same way here means the
//! spread this harness prints is the spread that gets judged.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a workload with no timed rep is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile. With fewer than two samples both equal the
/// single sample (no spread can be stated).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a percentage of the median — the steadiness
/// figure printed beside every host timing.
pub fn spread_pct(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from Python 3.11:
    /// `statistics.quantiles([1,2,3,4,5], n=4)` -> `[1.5, 3.0, 4.5]`,
    /// `statistics.quantiles([10,20,30], n=4)` -> `[10.0, 20.0, 30.0]`,
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` -> `[2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([1,2], n=4)` -> `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_pct(&ten) - 100.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[2.0, 2.0, 2.0]), 0.0);
    }
}
