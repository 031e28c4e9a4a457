//! Order statistics the harness reports: median, quartile spread, and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (any order).
///
/// # Panics
///
/// On an empty slice or a NaN sample — both are harness bugs.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the third and first quartile as a share of the
/// median — the spread printed beside every repeated wall-clock number.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still leaves at
/// least ten samples beyond it, or `None` below 40 samples (then not
/// even p75 has ten beyond and only the median is reported).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// `(percentile, value)` of the tail chosen by [`tail_percentile`].
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    tail_percentile(values.len()).map(|p| (p, quantile(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn iqr_share_matches_hand_computation() {
        // quartiles of 1..=5 are 2 and 4, median 3.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((iqr_share(&v) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn tail_value_is_the_chosen_quantile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(p, 0.95);
        assert!((x - quantile(&v, 0.95)).abs() < 1e-12);
    }
}
