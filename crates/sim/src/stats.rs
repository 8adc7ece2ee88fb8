//! Summary statistics used by the evaluation: means, percentiles,
//! Student-t confidence intervals, and Fieller's method for ratio
//! confidence intervals (the paper's normalized-bar error bars cite
//! Fieller's method; the time-vs-λ plots use Student-t, §6.3/§6.5).

use serde::{Deserialize, Serialize};

/// Two-sided 95% critical value of Student's t distribution for the
/// given degrees of freedom (exact table for small df, normal
/// approximation above 120).
#[must_use]
pub fn t_crit_95(df: usize) -> f64 {
    const TABLE: [(usize, f64); 17] = [
        (1, 12.706),
        (2, 4.303),
        (3, 3.182),
        (4, 2.776),
        (5, 2.571),
        (6, 2.447),
        (7, 2.365),
        (8, 2.306),
        (9, 2.262),
        (10, 2.228),
        (12, 2.179),
        (15, 2.131),
        (20, 2.086),
        (30, 2.042),
        (60, 2.000),
        (100, 1.984),
        (120, 1.980),
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    for window in TABLE.windows(2) {
        let (d0, t0) = window[0];
        let (d1, t1) = window[1];
        if df == d0 {
            return t0;
        }
        if df < d1 {
            // Linear interpolation in 1/df, which is how t converges.
            let x0 = 1.0 / d0 as f64;
            let x1 = 1.0 / d1 as f64;
            let x = 1.0 / df as f64;
            return t1 + (t0 - t1) * (x - x1) / (x0 - x1);
        }
    }
    1.96
}

/// Sample summary of a set of completion times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile — the paper's tail metric.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Half-width of the 95% Student-t confidence interval of the mean.
    pub ci95_half_width: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(values.iter().all(|v| !v.is_nan()), "sample contains NaN");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let se = std_dev / (n as f64).sqrt();
        Summary {
            n,
            mean,
            std_dev,
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            ci95_half_width: t_crit_95(n.saturating_sub(1)) * se,
        }
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        if self.n > 0 {
            self.std_dev / (self.n as f64).sqrt()
        } else {
            f64::NAN
        }
    }

    /// Publishes the summary onto a telemetry scope as gauges named
    /// `{name}_count` / `{name}_mean_us` / `{name}_p50_us` /
    /// `{name}_p95_us` / `{name}_p99_us` (values in microseconds),
    /// replacing the ad-hoc counters callers used to keep beside the
    /// registry. Values are quantized through
    /// [`mayflower_telemetry::secs_to_us`], so identical summaries
    /// publish identical gauges.
    pub fn record_to(&self, scope: &mayflower_telemetry::Scope, name: &str) {
        let us = |secs: f64| {
            let v = mayflower_telemetry::secs_to_us(secs);
            i64::try_from(v).unwrap_or(i64::MAX)
        };
        let count = i64::try_from(self.n).unwrap_or(i64::MAX);
        scope.gauge(&format!("{name}_count")).set(count);
        scope.gauge(&format!("{name}_mean_us")).set(us(self.mean));
        scope.gauge(&format!("{name}_p50_us")).set(us(self.p50));
        scope.gauge(&format!("{name}_p95_us")).set(us(self.p95));
        scope.gauge(&format!("{name}_p99_us")).set(us(self.p99));
    }
}

/// Arithmetic mean; 0 for an empty sample (experiments that may time
/// nothing report zero rather than NaN).
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Linear-interpolation percentile (R type 7) of pre-sorted data.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` outside `[0, 100]`.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let h = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Convenience: percentile of unsorted data.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    percentile_sorted(&sorted, p)
}

/// A confidence interval for a ratio of two means, computed with
/// **Fieller's method** (the paper's Figure 4/5 error bars: "the error
/// bars represent 95% confidence interval calculated using Fieller's
/// Method").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RatioCi {
    /// The point estimate `mean(numerator) / mean(denominator)`.
    pub ratio: f64,
    /// Lower 95% bound (`-inf` when the interval is unbounded, i.e.
    /// the denominator is not significantly different from zero).
    pub lo: f64,
    /// Upper 95% bound (`+inf` when unbounded).
    pub hi: f64,
}

/// Fieller 95% confidence interval for `mean(a) / mean(b)`, treating
/// the two samples as independent.
///
/// # Panics
///
/// Panics if either sample is empty.
#[must_use]
pub fn fieller_ratio_ci(a: &[f64], b: &[f64]) -> RatioCi {
    let sa = Summary::of(a);
    let sb = Summary::of(b);
    let r = sa.mean / sb.mean;
    let df = (a.len() + b.len()).saturating_sub(2);
    let t = t_crit_95(df);
    let se_a = sa.std_err();
    let se_b = sb.std_err();
    let g = (t * se_b / sb.mean).powi(2);
    if g >= 1.0 {
        return RatioCi {
            ratio: r,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        };
    }
    let center = r / (1.0 - g);
    let spread = (t / ((1.0 - g) * sb.mean))
        * (se_a.powi(2) + r * r * se_b.powi(2) - g * se_a.powi(2)).sqrt();
    RatioCi {
        ratio: r,
        lo: center - spread,
        hi: center + spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 1.5811388).abs() < 1e-6);
        assert!((s.p50 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_publishes_microsecond_gauges() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let registry = mayflower_telemetry::Registry::new();
        s.record_to(&registry.scope("sim"), "completion");
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("sim_completion_count"), Some(5));
        assert_eq!(snap.gauge("sim_completion_mean_us"), Some(3_000_000));
        assert_eq!(snap.gauge("sim_completion_p50_us"), Some(3_000_000));
        assert_eq!(snap.gauge("sim_completion_p99_us"), Some(4_960_000));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&v, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 25.0).abs() < 1e-12);
        // p95 of 4 points: h = 3*0.95 = 2.85 → 30 + 0.85*10 = 38.5.
        assert!((percentile(&v, 95.0) - 38.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_percentile() {
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn t_table_anchors() {
        assert!((t_crit_95(1) - 12.706).abs() < 1e-9);
        assert!((t_crit_95(10) - 2.228).abs() < 1e-9);
        assert!((t_crit_95(1000) - 1.96).abs() < 1e-9);
        // Interpolated values stay between neighbours.
        let t11 = t_crit_95(11);
        assert!(t11 < t_crit_95(10) && t11 > t_crit_95(12));
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let big: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(Summary::of(&big).ci95_half_width < Summary::of(&small).ci95_half_width);
    }

    #[test]
    fn fieller_of_identical_samples_brackets_one() {
        let a: Vec<f64> = (0..100).map(|i| 10.0 + (i % 7) as f64).collect();
        let ci = fieller_ratio_ci(&a, &a);
        assert!((ci.ratio - 1.0).abs() < 1e-12);
        assert!(ci.lo < 1.0 && 1.0 < ci.hi);
        assert!(ci.hi - ci.lo < 0.2, "tight for n=100");
    }

    #[test]
    fn fieller_detects_double() {
        let a: Vec<f64> = (0..200).map(|i| 20.0 + (i % 5) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| 10.0 + (i % 5) as f64 / 2.0).collect();
        let ci = fieller_ratio_ci(&a, &b);
        assert!((ci.ratio - 2.0).abs() < 1e-9);
        assert!(ci.lo > 1.9 && ci.hi < 2.1);
        assert!(ci.lo < 2.0 && 2.0 < ci.hi);
    }

    #[test]
    fn fieller_unbounded_when_denominator_noisy() {
        // Denominator straddles zero.
        let a = vec![1.0, 1.1, 0.9, 1.0];
        let b = vec![-1.0, 1.0, -1.0, 1.0];
        let ci = fieller_ratio_ci(&a, &b);
        assert!(ci.lo.is_infinite() && ci.hi.is_infinite());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_rejected() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Percentiles are monotone in p and bounded by the extremes.
        #[test]
        fn percentile_monotone(
            mut v in proptest::collection::vec(0.0f64..1e6, 1..200),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile_sorted(&v, lo);
            let b = percentile_sorted(&v, hi);
            prop_assert!(a <= b + 1e-9);
            prop_assert!(a >= v[0] - 1e-9);
            prop_assert!(b <= v[v.len() - 1] + 1e-9);
        }

        /// The mean is always inside the t confidence interval, and the
        /// summary is scale-equivariant.
        #[test]
        fn summary_scaling(v in proptest::collection::vec(0.1f64..1e3, 2..100), k in 0.1f64..10.0) {
            let s = Summary::of(&v);
            let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
            let sk = Summary::of(&scaled);
            prop_assert!((sk.mean - s.mean * k).abs() < 1e-6 * sk.mean.abs().max(1.0));
            prop_assert!((sk.p95 - s.p95 * k).abs() < 1e-6 * sk.p95.abs().max(1.0));
            prop_assert!((sk.ci95_half_width - s.ci95_half_width * k).abs()
                < 1e-6 * sk.ci95_half_width.abs().max(1e-9));
        }
    }
}
