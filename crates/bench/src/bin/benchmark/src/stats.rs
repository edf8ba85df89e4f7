//! Sample summaries: median, percentiles and the tail-percentile rule.

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated between
/// order statistics. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median, or 0 for an empty sample (a metric nothing was measured for).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile of the reporting ladder that still has at least
/// ten samples beyond it in a sample of `n`; `None` when even the 75th has
/// fewer. A timing is reported as its median and this percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, share of the sample beyond it in 1/1000).
    const LADDER: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];
    LADDER
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
