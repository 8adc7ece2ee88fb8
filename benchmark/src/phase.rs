//! What the four phases share: the failure tally, per-batch records
//! and the schedule that interleaves their batches.
//!
//! A *phase* is the measured part of one workload's op mix. Work comes
//! in batches of a fixed op count, so a batch is the same work on both
//! sides of a comparison; the clock is read only between batches, to
//! decide which phase runs the next one.

use std::time::{Duration, Instant};

use crate::stats::{percentile, Summary};

/// Ops attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted (timed or not).
    pub attempted: u64,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
    /// The first few failure descriptions.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one op; `outcome` carries the failure description.
    pub fn note(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Counts a whole-run check (not an op): only a failure shows.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.note(Err(why()));
        }
    }
}

/// One class of ops within one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassBatch {
    /// Ops of the class.
    pub ops: u64,
    /// User bytes they moved.
    pub bytes: u64,
    /// Sum of their latencies, seconds.
    pub busy_s: f64,
}

/// One batch: its wall time and its per-class sums.
#[derive(Debug, Clone)]
pub struct Batch<const N: usize> {
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Wall seconds from first op to last, harness checks included.
    pub wall_s: f64,
    /// Per-class sums, indexed by the phase's class enum.
    pub classes: [ClassBatch; N],
}

impl<const N: usize> Batch<N> {
    /// All ops in the batch.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.classes.iter().map(|c| c.ops).sum()
    }
}

/// Everything a phase measured.
#[derive(Debug)]
pub struct PhaseRun<const N: usize> {
    /// The batches, in order.
    pub batches: Vec<Batch<N>>,
    /// Every timed op's latency in seconds, per class, with whether it
    /// was traced.
    pub latencies: [Vec<(f64, bool)>; N],
}

impl<const N: usize> Default for PhaseRun<N> {
    fn default() -> PhaseRun<N> {
        PhaseRun {
            batches: Vec::new(),
            latencies: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A batch being run: ops are added as they complete.
#[derive(Debug)]
pub struct OpenBatch<'a, const N: usize> {
    run: &'a mut PhaseRun<N>,
    traced: bool,
    classes: [ClassBatch; N],
}

impl<const N: usize> OpenBatch<'_, N> {
    /// Records one timed op of `class`.
    pub fn op(&mut self, class: usize, bytes: u64, seconds: f64) {
        let c = &mut self.classes[class];
        c.ops += 1;
        c.bytes += bytes;
        c.busy_s += seconds;
        self.run.latencies[class].push((seconds, self.traced));
    }
}

impl<const N: usize> PhaseRun<N> {
    /// Runs `body` as one batch, timing it from first op to last.
    pub fn batch(&mut self, traced: bool, body: impl FnOnce(&mut OpenBatch<'_, N>)) {
        let mut open = OpenBatch {
            run: self,
            traced,
            classes: [ClassBatch::default(); N],
        };
        let started = Instant::now();
        body(&mut open);
        let wall_s = started.elapsed().as_secs_f64();
        let classes = open.classes;
        self.batches.push(Batch {
            traced,
            wall_s,
            classes,
        });
    }

    fn selected(&self, traced: Option<bool>) -> Vec<&Batch<N>> {
        self.batches
            .iter()
            .filter(|b| traced.is_none_or(|t| b.traced == t))
            .collect()
    }

    /// Per batch, `class bytes ÷ sum of class latencies` in MB/s (10^6
    /// bytes); the reading is the best batch's.
    #[must_use]
    pub fn class_mb_s(&self, class: usize, traced: Option<bool>) -> Summary {
        let per_batch: Vec<f64> = self
            .selected(traced)
            .iter()
            .map(|b| b.classes[class].bytes as f64 / 1e6 / b.classes[class].busy_s)
            .collect();
        Summary::best_high(&per_batch)
    }

    /// Per batch, `ops ÷ wall`; the reading is the best batch's.
    #[must_use]
    pub fn ops_per_s(&self, traced: Option<bool>) -> Summary {
        let per_batch: Vec<f64> = self
            .selected(traced)
            .iter()
            .map(|b| b.ops() as f64 / b.wall_s)
            .collect();
        Summary::best_high(&per_batch)
    }

    /// Per batch, the median latency of its ops of `class` in
    /// microseconds; the reading is the best batch's and `n` counts
    /// the ops.
    #[must_use]
    pub fn class_p50_us(&self, class: usize) -> Summary {
        // Latencies are kept in batch order, so a batch's are a slice.
        let mut from = 0;
        let mut per_batch = Vec::with_capacity(self.batches.len());
        for b in &self.batches {
            let to = from + b.classes[class].ops as usize;
            if to > from {
                let mut us: Vec<f64> = self.latencies[class][from..to]
                    .iter()
                    .map(|(s, _)| s * 1e6)
                    .collect();
                per_batch.push(percentile(&mut us, 50.0));
            }
            from = to;
        }
        Summary {
            n: from,
            ..Summary::best_low(&per_batch)
        }
    }

    /// Latency samples of one class in microseconds.
    #[must_use]
    pub fn latencies_us(&self, class: usize, traced: Option<bool>) -> Vec<f64> {
        self.latencies[class]
            .iter()
            .filter(|(_, t)| traced.is_none_or(|want| *t == want))
            .map(|(s, _)| s * 1e6)
            .collect()
    }
}

/// Deficit round-robin over the phases' batches.
///
/// Each lane (a phase, or one size of the simulator phase) is owed its
/// share of the time elapsed so far; the lane owed the most runs the
/// next batch. Every phase's batches are thereby spread over the whole
/// run instead of sitting in one block, so a burst of interference
/// from the host — they last a second or two on this VM and slow
/// everything by a quarter — lands in a few batches of every phase,
/// where the medians shrug it off, rather than in all the batches of
/// one.
#[derive(Debug)]
pub struct Schedule {
    started: Instant,
    budget: Duration,
    shares: Vec<f64>,
    minimum: Vec<usize>,
    used: Vec<Duration>,
    ran: Vec<usize>,
}

impl Schedule {
    /// A schedule over `shares.len()` lanes lasting `budget`, each
    /// lane running at least `minimum` batches.
    #[must_use]
    pub fn new(budget: Duration, shares: Vec<f64>, minimum: Vec<usize>) -> Schedule {
        assert_eq!(shares.len(), minimum.len());
        Schedule {
            started: Instant::now(),
            budget,
            used: vec![Duration::ZERO; shares.len()],
            ran: vec![0; shares.len()],
            shares,
            minimum,
        }
    }

    /// The lane to run next and how many batches it has run so far;
    /// `None` once the budget is spent and every minimum is met.
    #[must_use]
    pub fn next(&self) -> Option<(usize, usize)> {
        let elapsed = self.started.elapsed();
        let lane = if elapsed >= self.budget {
            (0..self.shares.len()).find(|l| self.ran[*l] < self.minimum[*l])?
        } else {
            let owed =
                |l: usize| elapsed.as_secs_f64() * self.shares[l] - self.used[l].as_secs_f64();
            (0..self.shares.len())
                .filter(|l| self.shares[*l] > 0.0)
                .max_by(|a, b| owed(*a).total_cmp(&owed(*b)))?
        };
        Some((lane, self.ran[lane]))
    }

    /// Records that `lane` ran one batch taking `took`.
    pub fn ran(&mut self, lane: usize, took: Duration) {
        self.used[lane] += took;
        self.ran[lane] += 1;
    }
}
