//! Order statistics over timing samples.

/// Linear-interpolation percentile (`p` in `[0, 1]`) of `xs`, the
/// "type 7" estimator: rank `p (n - 1)` between the two nearest order
/// statistics. `NaN` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs`; `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// How many of `n` samples lie strictly beyond the `p` percentile rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    n - 1 - (rank - 1e-9).ceil() as usize
}

/// The highest percentile, at most `p`, that leaves at least `tail` of
/// `n` samples beyond it, and never below the median: a tail estimate
/// from too few samples reads as the median instead of as the maximum.
pub fn tail_percentile(n: usize, p: f64, tail: usize) -> f64 {
    if n <= tail + 1 {
        return 0.5;
    }
    let q = (n - 1 - tail) as f64 / (n - 1) as f64;
    q.min(p).max(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert_eq!(percentile(&xs, 0.95), 10.5);
        // Matches Python's statistics.quantiles(..., method="inclusive").
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&ys, 0.25) - 17.5).abs() < 1e-12);
        assert!((percentile(&ys, 0.75) - 32.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for p in [0.1, 0.5, 0.9] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(221, 0.95, 10), 0.95);
        assert_eq!(samples_beyond(211, tail_percentile(211, 0.95, 10)), 10);
        let q = tail_percentile(100, 0.95, 10);
        assert!(q < 0.95 && q > 0.89);
        assert_eq!(samples_beyond(100, q), 10);
        assert_eq!(tail_percentile(15, 0.95, 10), 0.5);
        assert_eq!(tail_percentile(2, 0.95, 10), 0.5);
    }

    #[test]
    fn tail_sample_count() {
        assert_eq!(samples_beyond(200, 0.95), 9);
        assert_eq!(samples_beyond(221, 0.95), 11);
        assert_eq!(samples_beyond(1, 0.95), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }
}
