//! Order statistics over latency samples.

/// Samples that must lie strictly above a reported tail percentile, so a
/// tail is never read off a handful of points.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `samples` (lower middle for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty. Infinite
/// samples (requests that failed or were refused) sort last.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), q)]
}

/// Nearest-rank index: the smallest rank covering a share `q` of `n`
/// samples (the epsilon keeps `0.99 * 2000` from rounding up a rank).
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Value at the tail percentile reported for a target such as 0.99: the
/// highest percentile, at most `target`, with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it. When that percentile would
/// fall below the median, the median stands in; 0 when empty.
pub fn tail(samples: &[f64], target: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[tail_index(sorted.len(), target)]
}

/// Sorted index read by [`tail`] for `n` samples (`n >= 1`).
fn tail_index(n: usize, target: f64) -> usize {
    let median = rank_index(n, 0.5);
    let capped = rank_index(n, target).min(n.saturating_sub(MIN_TAIL_SAMPLES + 1));
    capped.max(median)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_above(samples: &[f64], value: f64) -> usize {
        samples.iter().filter(|&&s| s > value).count()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [21usize, 22, 50, 137, 999, 1000, 1010, 5000] {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let value = tail(&samples, 0.99);
            assert!(
                count_above(&samples, value) >= MIN_TAIL_SAMPLES,
                "n={n}: only {} beyond {value}",
                count_above(&samples, value)
            );
        }
    }

    #[test]
    fn tail_is_the_highest_such_percentile() {
        // 100 samples: p99 has 1 beyond it; the highest percentile with
        // ten beyond it is p90, whose nearest-rank value is 90.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(tail(&samples, 0.99), 90.0);
        assert_eq!(count_above(&samples, 90.0), 10);
        // The next rank up would leave only 9 beyond it.
        assert_eq!(count_above(&samples, 91.0), 9);
        // Enough samples: the target itself qualifies.
        let many: Vec<f64> = (1..=2000).map(|i| i as f64).collect();
        assert_eq!(tail(&many, 0.99), 1980.0);
        assert_eq!(count_above(&many, 1980.0), 20);
    }

    #[test]
    fn small_sample_sets_fall_back_to_the_median() {
        let samples: Vec<f64> = (1..=15).map(|i| i as f64).collect();
        assert_eq!(tail(&samples, 0.99), median(&samples));
        assert_eq!(tail(&[3.0, 1.0, 2.0], 0.99), 2.0);
        assert_eq!(tail(&[], 0.99), 0.0);
    }

    #[test]
    fn failures_sort_last() {
        let mut samples: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        samples.push(f64::INFINITY);
        assert_eq!(percentile(&samples, 1.0), f64::INFINITY);
        assert_eq!(median(&samples), 11.0);
    }
}
