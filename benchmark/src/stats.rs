//! Order statistics for the benchmark's reports.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both mean the measurement that fed
/// it is broken.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0..=1) of `values`, interpolated linearly between the
/// two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (position - below as f64) * (sorted[above] - sorted[below])
}

/// The candidate tail percentiles, ascending, in hundredths of a percent
/// (integers, so "ten samples beyond" is exact at n = 100, 1000, ...).
const TAILS: [u64; 5] = [9000, 9500, 9900, 9990, 9999];

/// The reporting rule for a timing: the highest percentile that still has
/// at least ten samples beyond it, with its nearest-rank value. `None`
/// when even p90 has fewer than ten samples above it (n < 100): then only
/// the median is worth printing.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let tail = TAILS
        .iter()
        .copied()
        .rfind(|tail| samples_beyond(n, *tail) >= 10)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Some((tail as f64 / 100.0, sorted[n - 1 - samples_beyond(n, tail)]))
}

/// How many of `n` sorted samples lie strictly above the nearest-rank
/// position of `tail` (hundredths of a percent).
fn samples_beyond(n: usize, tail: u64) -> usize {
    (n as u64 * (10_000 - tail) / 10_000) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&values, 0.0), 10.0);
        assert_eq!(quantile(&values, 0.25), 20.0);
        assert_eq!(quantile(&values, 0.5), median(&values));
        assert_eq!(quantile(&values, 0.75), 40.0);
        assert_eq!(quantile(&values, 1.0), 50.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&ramp(99)), None);
        // 100 samples: exactly ten lie above p90, one above p99.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&ramp(199)), Some((90.0, 180.0)));
        assert_eq!(tail_percentile(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&ramp(999)), Some((95.0, 950.0)));
        assert_eq!(tail_percentile(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail_percentile(&ramp(100_000)), Some((99.99, 99_990.0)));
        // The value reported really has at least ten samples above it.
        let (_, value) = tail_percentile(&ramp(1234)).unwrap();
        assert!(ramp(1234).iter().filter(|v| **v > value).count() >= 10);
    }
}
