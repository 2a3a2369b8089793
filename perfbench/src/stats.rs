//! Order statistics over raw samples.
//!
//! Every figure the benchmark reports is computed from the full list of
//! samples, never from a bucketed histogram, so a percentile can never
//! exceed the largest sample it summarises.

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks, as `numpy.percentile` computes it by default. `None`
/// for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median, `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_stay_within_the_samples() {
        let samples: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1.7).collect();
        let max = samples[samples.len() - 1];
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = percentile(&samples, p).expect("non-empty");
            assert!((samples[0]..=max).contains(&v), "p{p} = {v}");
        }
        assert_eq!(percentile(&samples, 100.0), Some(max));
        assert_eq!(percentile(&samples, 0.0), Some(1.7));
    }

    #[test]
    fn p90_of_ten_through_hundred() {
        let samples: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(percentile(&samples, 90.0), Some(91.0));
    }
}
