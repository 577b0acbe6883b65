//! Order statistics used for every reported number.
//!
//! Everything here works on `f64` samples and tolerates `f64::INFINITY`
//! (a shed or errored query is recorded as an infinite latency so that it
//! counts as missing every limit without needing a second code path).

/// Sorts ascending (total order, so infinities sort last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice (sorts it in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    let n = values.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the acceptance rule
/// for this benchmark is stated in those terms, so `sweep` and `compare`
/// must agree with it digit for digit. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        // A zero weight must drop its term even when the sample is infinite.
        let term = |v: f64, weight: f64| if weight == 0.0 { 0.0 } else { v * weight };
        (term(data[j - 1], 4.0 - delta) + term(data[j], delta)) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the spread the
/// acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        // statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn infinite_samples_sort_last_and_keep_the_median_finite() {
        let mut v = vec![f64::INFINITY, 1.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
    }
}
