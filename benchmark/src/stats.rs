//! Order statistics the harness reports: a percentile that refuses a tail
//! the sample cannot support, and medians over rounds.

use std::fmt;

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile was asked of too small a sample.
#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub have: usize,
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} samples, {} needed for {MIN_BEYOND} beyond the rank", self.have, self.need)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an already sorted sample, no support check.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    // The epsilons keep 0.95 * 200 from landing a hair above 190.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank `p`-th percentile (`0 < p < 1`). Above the median it is
/// refused unless at least [`MIN_BEYOND`] samples lie beyond the rank, so a
/// tail is never read off a handful of outliers. Failed operations enter as
/// `f64::INFINITY` and so sort into the tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} out of range");
    let n = samples.len();
    let need = if p > 0.5 { (MIN_BEYOND as f64 / (1.0 - p) - 1e-6).ceil() as usize } else { 1 };
    if n < need {
        return Err(TooFewSamples { have: n, need });
    }
    Ok(nearest_rank(&sorted(samples), p))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile of a run made of rounds: the median over rounds of
/// each round's percentile when every round supports it, otherwise the
/// percentile of all rounds pooled. The last resort, for workloads whose
/// run holds fewer operations than the tail needs (`lstm_train`: ~70 steps),
/// is the unsupported nearest rank of the pool; `weak` is set so the caller
/// can say so.
pub fn percentile_over_rounds(rounds: &[&[f64]], p: f64) -> (f64, bool) {
    let per_round: Result<Vec<f64>, _> = rounds.iter().map(|r| percentile(r, p)).collect();
    if let Ok(values) = per_round {
        return (median(&values), false);
    }
    let pool: Vec<f64> = rounds.iter().flat_map(|r| r.iter().copied()).collect();
    match percentile(&pool, p) {
        Ok(v) => (v, false),
        Err(_) => (nearest_rank(&sorted(&pool), p), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Ok(500.0));
        assert_eq!(percentile(&v, 0.95), Ok(950.0));
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
    }

    #[test]
    fn percentile_refuses_an_unsupported_tail() {
        // p95 needs 200 samples (10 beyond the rank), p99 needs 1000.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Err(TooFewSamples { have: 199, need: 200 }));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
        assert_eq!(percentile(&v, 0.99), Err(TooFewSamples { have: 200, need: 1000 }));
        // The median asks for no tail.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Ok(2.0));
    }

    #[test]
    fn failed_operations_sort_into_the_tail() {
        let mut v = vec![1.0; 190];
        v.extend([f64::INFINITY; 11]);
        assert_eq!(percentile(&v, 0.95), Ok(f64::INFINITY));
        assert_eq!(percentile(&v, 0.50), Ok(1.0));
    }

    #[test]
    fn median_over_rounds_ignores_one_slow_round() {
        assert_eq!(median(&[10.0, 11.0, 9.0, 10.5, 40.0]), 10.5);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        // Per-round percentiles when each round supports them: the slow
        // round moves nothing.
        let fast: Vec<f64> = (1..=200).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|x| x * 10.0).collect();
        let rounds = [&fast[..], &fast, &slow, &fast, &fast];
        assert_eq!(percentile_over_rounds(&rounds, 0.95), (190.0, false));
    }

    fn slices(rounds: &[Vec<f64>]) -> Vec<&[f64]> {
        rounds.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn percentile_over_rounds_pools_small_rounds() {
        let rounds: Vec<Vec<f64>> =
            (0..5).map(|r| (1..=40).map(|i| f64::from(r * 40 + i)).collect()).collect();
        // 40 per round cannot carry p95, the pool of 200 can.
        assert_eq!(percentile_over_rounds(&slices(&rounds), 0.95), (190.0, false));
        // A pool of 35 cannot either: nearest rank, flagged weak.
        let rounds: Vec<Vec<f64>> =
            (0..5).map(|r| (1..=7).map(|i| f64::from(r * 7 + i)).collect()).collect();
        assert_eq!(percentile_over_rounds(&slices(&rounds), 0.95), (34.0, true));
    }
}
