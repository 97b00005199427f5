//! Median/min/max summaries and the bound comparison behind `--agree`.

use crate::spec::Better;

/// Median, extremes and sample count of one timing. With the handful
/// of samples a run collects no higher percentile is supported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarizes `samples`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

/// Median of `samples` (see [`summarize`]).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The exact `q`-quantile by nearest rank (`ceil(q·n)`-th smallest).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples to rank");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Share of `first` by which `second` is worse, in the metric's own
/// direction; negative when `second` is better.
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / first.abs()
    }
}

/// `true` when `second` is no worse than `first` by more than `bound`.
pub fn within_bound(better: Better, bound: f64, first: f64, second: f64) -> bool {
    worse_by(better, first, second) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_quantiles_are_exact_order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[5.0], 0.5), 5.0);
    }

    #[test]
    fn bound_comparison_follows_the_metric_direction() {
        // Lower is better: 10 % slower breaks a 5 % bound, passes 10 %.
        assert!(!within_bound(Better::Lower, 0.05, 10.0, 11.0));
        assert!(within_bound(Better::Lower, 0.10, 10.0, 11.0));
        assert!(within_bound(Better::Lower, 0.0, 10.0, 9.0));
        // Higher is better: a drop is the bad direction.
        assert!(!within_bound(Better::Higher, 0.05, 100.0, 90.0));
        assert!(within_bound(Better::Higher, 0.05, 100.0, 120.0));
        // A zero bound demands "not worse at all".
        assert!(within_bound(Better::Lower, 0.0, 7.0, 7.0));
        assert!(!within_bound(Better::Lower, 0.0, 7.0, 7.0001));
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
    }
}
