//! Sample statistics: medians, quartiles, percentiles.

/// Sample count, median and quartiles of one metric, and the reading
/// that is reported for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The reading: the median, or for a timing taken over the batches
    /// of a run the best of them (see [`Summary::best_high`]).
    pub value: f64,
}

impl Summary {
    /// Summarizes `values` (which must be non-empty). Quartiles follow
    /// Python's `statistics.quantiles(values, n=4)` ("exclusive"
    /// method), the rule the acceptance check uses.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let median = quantile_exclusive(&v, 0.5);
        Summary {
            n: v.len(),
            q1: quantile_exclusive(&v, 0.25),
            median,
            q3: quantile_exclusive(&v, 0.75),
            value: median,
        }
    }

    /// Summarizes per-batch rates (more is better); the reading is the
    /// best batch's.
    ///
    /// The host only ever takes time away. A busy neighbour slows
    /// everything by a third for seconds or for most of a run (the
    /// single-threaded 64-host replay runs at 28 000 or at 41 000
    /// jobs/s and little in between), so the median over a run's
    /// batches says how much of the run the neighbour was busy, and
    /// moved by 20-30% between runs of one build; so did every
    /// quantile short of the last, whenever the quiet spells were
    /// few. The batch least disturbed says how fast the program is,
    /// and moved by 2-8%. A slower program slows that batch too.
    #[must_use]
    pub fn best_high(values: &[f64]) -> Summary {
        let s = Summary::of(values);
        Summary {
            value: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ..s
        }
    }

    /// Summarizes per-batch times (less is better); the reading is the
    /// best batch's.
    #[must_use]
    pub fn best_low(values: &[f64]) -> Summary {
        let s = Summary::of(values);
        Summary {
            value: values.iter().copied().fold(f64::INFINITY, f64::min),
            ..s
        }
    }

    /// The same summary in another unit.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            q1: self.q1 * factor,
            median: self.median * factor,
            q3: self.q3 * factor,
            value: self.value * factor,
        }
    }

    /// A single value standing for `n` samples (a percentile, a mean,
    /// a count): no quartiles of its own.
    #[must_use]
    pub fn point(n: usize, value: f64) -> Summary {
        Summary {
            n,
            q1: value,
            median: value,
            q3: value,
            value,
        }
    }

    /// A metric that is one exact reading, not a sample.
    #[must_use]
    pub fn exact(value: f64) -> Summary {
        Summary::point(1, value)
    }
}

fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

/// The `p`-th percentile (nearest rank) of unsorted `values`.
#[must_use]
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Largest relative difference between any two of `values`, against
/// their mean magnitude; 0 when they agree exactly.
#[must_use]
pub fn max_relative_difference(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let scale = values.iter().map(|v| v.abs()).sum::<f64>() / values.len() as f64;
    if scale == 0.0 {
        0.0
    } else {
        (hi - lo) / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.value), (1.0, 2.0, 3.0, 2.0));
    }

    #[test]
    fn best_readings_are_the_extremes_and_keep_the_quartiles() {
        let v = [3.0, 9.0, 1.0, 5.0, 7.0];
        let (high, low) = (Summary::best_high(&v), Summary::best_low(&v));
        assert_eq!((high.value, low.value), (9.0, 1.0));
        assert_eq!((high.median, low.median, high.n), (5.0, 5.0, 5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 50.0), 50.0);
    }
}
