//! File size distributions.
//!
//! The paper's workload assumption (§3.1): "file sizes typically range
//! from hundreds of megabytes to tens of gigabytes", read as large
//! sequential whole-file fetches. The evaluation uses fixed 256 MB
//! blocks; the heterogeneous distributions here let experiments
//! exercise multi-chunk files and mixed transfer lengths.

use mayflower_simcore::SimRng;
use serde::{Deserialize, Serialize};

/// How file sizes are drawn at population-generation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FileSizeDist {
    /// Every file is exactly this many bits (the evaluation's 256 MB
    /// default).
    Fixed(f64),
    /// Uniform in `[lo, hi]` bits.
    Uniform {
        /// Smallest size, bits.
        lo: f64,
        /// Largest size, bits.
        hi: f64,
    },
    /// Log-uniform in `[lo, hi]` bits: equal probability mass per
    /// decade, matching "hundreds of megabytes to tens of gigabytes"
    /// (most files are small-ish, a long tail is huge).
    LogUniform {
        /// Smallest size, bits.
        lo: f64,
        /// Largest size, bits.
        hi: f64,
    },
}

impl FileSizeDist {
    /// The paper's fixed 256 MB block.
    #[must_use]
    pub fn paper_default() -> FileSizeDist {
        FileSizeDist::Fixed(256.0 * 8e6)
    }

    /// Draws one file size in bits.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are non-positive or inverted.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            FileSizeDist::Fixed(bits) => {
                assert!(bits > 0.0, "fixed size must be positive");
                bits
            }
            FileSizeDist::Uniform { lo, hi } => {
                assert!(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
                if hi == lo {
                    lo
                } else {
                    rng.uniform_range(lo, hi)
                }
            }
            FileSizeDist::LogUniform { lo, hi } => {
                assert!(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
                if hi == lo {
                    lo
                } else {
                    (rng.uniform_range(lo.ln(), hi.ln())).exp()
                }
            }
        }
    }

    /// The distribution's mean, bits (exact).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            FileSizeDist::Fixed(bits) => bits,
            FileSizeDist::Uniform { lo, hi } => (lo + hi) / 2.0,
            FileSizeDist::LogUniform { lo, hi } => {
                if (hi - lo).abs() < f64::EPSILON {
                    lo
                } else {
                    (hi - lo) / (hi.ln() - lo.ln())
                }
            }
        }
    }
}

impl Default for FileSizeDist {
    fn default() -> FileSizeDist {
        FileSizeDist::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let d = FileSizeDist::Fixed(42.0);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42.0);
        }
        assert_eq!(d.mean(), 42.0);
    }

    #[test]
    fn uniform_stays_in_range_and_matches_mean() {
        let d = FileSizeDist::Uniform { lo: 10.0, hi: 20.0 };
        let mut rng = SimRng::seed_from(2);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((10.0..=20.0).contains(&s));
            sum += s;
        }
        assert!((sum / f64::from(n) - 15.0).abs() < 0.1);
    }

    #[test]
    fn log_uniform_spreads_decades() {
        let d = FileSizeDist::LogUniform {
            lo: 1.0,
            hi: 1000.0,
        };
        let mut rng = SimRng::seed_from(3);
        let n = 60_000;
        let mut per_decade = [0usize; 3];
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&s));
            let decade = (s.log10().floor() as usize).min(2);
            per_decade[decade] += 1;
        }
        // Roughly a third of the mass per decade.
        for c in per_decade {
            let frac = c as f64 / f64::from(n);
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "decade fraction {frac}");
        }
    }

    #[test]
    fn log_uniform_mean_is_analytic() {
        let d = FileSizeDist::LogUniform {
            lo: 1.0,
            hi: std::f64::consts::E,
        };
        // mean = (e − 1) / 1 = 1.718...
        assert!((d.mean() - (std::f64::consts::E - 1.0)).abs() < 1e-12);
        let mut rng = SimRng::seed_from(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        assert!((sum / f64::from(n) - d.mean()).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_range_rejected() {
        let mut rng = SimRng::seed_from(5);
        let _ = FileSizeDist::Uniform { lo: 5.0, hi: 1.0 }.sample(&mut rng);
    }
}
