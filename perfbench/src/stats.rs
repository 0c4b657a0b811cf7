//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least `MIN_BEYOND` samples lie beyond it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1]` of `samples`, or an error when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (p90 needs ≥ 100).
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return Err(format!(
            "percentile {q} of {} samples is undefined",
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has only {beyond} beyond it; need {MIN_BEYOND}",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the function must sort.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert!(percentile(&ramp(99), 0.9).is_err());
        assert_eq!(percentile(&ramp(250), 0.9), Ok(225.0));
    }

    #[test]
    fn p50_and_tail_rule_hold_for_small_counts() {
        assert_eq!(percentile(&ramp(21), 0.5), Ok(11.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&ramp(100), 0.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
