//! Order statistics over latency samples.

/// Minimum number of samples that must lie strictly above a reported
/// percentile; a tail estimate resting on fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of an ascending slice by nearest rank,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The mean over rounds of each round's `q`-quantile (rounds where
/// [`percentile`] refuses are skipped), or `None` when every round
/// refuses. The host's speed drifts from round to round, so samples
/// pooled over a run form one hump per speed and their median lands
/// in either hump depending on which holds more samples; the mean of
/// the per-round medians moves smoothly with the share of slow rounds.
pub fn mean_of_rounds<'a>(rounds: impl IntoIterator<Item = &'a [f64]>, q: f64) -> Option<f64> {
    let per_round: Vec<f64> = rounds
        .into_iter()
        .filter_map(|r| percentile(&sorted(r.to_vec()), q))
        .collect();
    (!per_round.is_empty()).then(|| per_round.iter().sum::<f64>() / per_round.len() as f64)
}

/// Sort a sample vector ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    v
}

/// Plain median, for small sample sets that need no tail guard (the
/// per-round set-up times).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        // 19 samples: the median (rank 10) has 9 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        // 20 samples: rank 10, ten beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        // p99 needs 1000 samples to have ten beyond rank 990.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn mean_of_rounds_averages_each_rounds_percentile() {
        let fast: Vec<f64> = (1..=20).map(f64::from).collect();
        let slow: Vec<f64> = (1..=20).rev().map(|x| f64::from(x) * 3.0).collect();
        let thin = [100.0; 5];
        let rounds = [&fast[..], &slow[..], &thin[..]];
        // Round medians 10 and 30; the thin round has no median.
        assert_eq!(mean_of_rounds(rounds, 0.5), Some(20.0));
        assert_eq!(mean_of_rounds([&thin[..]], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
