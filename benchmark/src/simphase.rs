//! The `sim_replay` phase: `engine::replay` under `Strategy::Mayflower`
//! at 64 and at 1024 hosts, in host time and in simulated time.

use crate::adapters::{ReplayOutcome, SimCounts, SimRig};
use crate::phase::Tally;
use crate::stats::{percentile, Summary};

/// Sizes and counts of the simulator phase.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Jobs per 64-host matrix.
    pub jobs_64: usize,
    /// Independent 64-host matrices per run. The simulated completion
    /// statistics are taken over all of them: one matrix's mean moves
    /// ±5% with the seed's file placement, and a metric that is exact
    /// per seed should not look noisy across seeds.
    pub matrices_64: usize,
    /// Jobs in the 1024-host matrix.
    pub jobs_1024: usize,
    /// Jobs of the paper-workload check (Mayflower vs Nearest + ECMP).
    pub jobs_paper_check: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            // The issue's 20 000 and 3072, scaled by ¼ and ⅛ to fit
            // the per-run time cap and so that one replay fits in a
            // quiet spell of the host; see README.md.
            jobs_64: 5000,
            matrices_64: 8,
            jobs_1024: 384,
            jobs_paper_check: 500,
        }
    }
}

/// The topologies and generated traffic matrices.
pub struct SimPhase {
    config: SimConfig,
    seed: u64,
    /// The 64-host rigs, one per matrix.
    pub rigs_64: Vec<SimRig>,
    /// The 1024-host rig.
    pub rig_1024: SimRig,
}

/// One size's timed replays.
#[derive(Debug, Default)]
pub struct SizeRun {
    /// Timed replays through `replay`.
    pub plain: Vec<ReplayOutcome>,
    /// Timed replays through `replay_with_telemetry` (traced runs).
    pub counted: Vec<(ReplayOutcome, SimCounts)>,
}

impl SizeRun {
    fn jobs_per_s_of(outcomes: impl Iterator<Item = f64>) -> Option<Summary> {
        let v: Vec<f64> = outcomes.collect();
        (!v.is_empty()).then(|| Summary::best_high(&v))
    }

    /// Jobs ÷ host wall per plain replay; the reading is the best
    /// replay's.
    #[must_use]
    pub fn jobs_per_s(&self) -> Option<Summary> {
        SizeRun::jobs_per_s_of(self.plain.iter().map(|o| o.jobs as f64 / o.wall_s))
    }

    /// Jobs ÷ host wall over the counted replays.
    #[must_use]
    pub fn counted_jobs_per_s(&self) -> Option<Summary> {
        SizeRun::jobs_per_s_of(self.counted.iter().map(|(o, _)| o.jobs as f64 / o.wall_s))
    }
}

/// What the phase measured.
#[derive(Debug, Default)]
pub struct SimRun {
    /// 64-host replays.
    pub at_64: SizeRun,
    /// 1024-host replays.
    pub at_1024: SizeRun,
    /// Remote-job completion seconds of the latest replay of each
    /// 64-host matrix.
    durations: Vec<Vec<f64>>,
    digests_64: Vec<Option<u64>>,
    digest_1024: Option<u64>,
}

impl SimRun {
    /// Mean and 95th percentile of the simulated completion seconds
    /// over the remote jobs of all 64-host matrices.
    #[must_use]
    pub fn completion_s(&self) -> (f64, f64) {
        let mut all: Vec<f64> = self.durations.iter().flatten().copied().collect();
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        (mean, percentile(&mut all, 95.0))
    }
}

impl SimPhase {
    /// Builds both topologies and generates every matrix: the
    /// `setup_s` share of this phase.
    #[must_use]
    pub fn set_up(seed: u64, config: &SimConfig) -> SimPhase {
        SimPhase {
            config: config.clone(),
            seed,
            rigs_64: (0..config.matrices_64 as u64)
                .map(|i| SimRig::build(64, config.jobs_64, sub_seed(seed, i)))
                .collect(),
            rig_1024: SimRig::build(1024, config.jobs_1024, sub_seed(seed, 1024)),
        }
    }

    /// Matrices at 64 hosts; each must be replayed at least once.
    #[must_use]
    pub fn matrices_64(&self) -> usize {
        self.rigs_64.len()
    }

    /// The untimed first replay: warms the code up and fixes the
    /// records every later replay of matrix 0 must reproduce.
    #[must_use]
    pub fn warm_up(&self, tally: &mut Tally) -> SimRun {
        let mut run = SimRun {
            durations: vec![Vec::new(); self.rigs_64.len()],
            digests_64: vec![None; self.rigs_64.len()],
            ..SimRun::default()
        };
        let warm = self.rigs_64[0].replay();
        check_replay(&warm, self.config.jobs_64, &mut run.digests_64[0], tally);
        run
    }

    /// One timed 64-host replay, of matrix `index` modulo their count;
    /// through `replay_with_telemetry` if `counted`.
    ///
    /// # Errors
    ///
    /// Names the counter the program no longer exports.
    pub fn replay_64(
        &self,
        index: usize,
        counted: bool,
        run: &mut SimRun,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let which = index % self.rigs_64.len();
        let outcome = one_replay(&self.rigs_64[which], counted, &mut run.at_64)?;
        check_replay(
            &outcome,
            self.config.jobs_64,
            &mut run.digests_64[which],
            tally,
        );
        run.durations[which] = outcome.remote_durations;
        Ok(())
    }

    /// One timed 1024-host replay.
    ///
    /// # Errors
    ///
    /// Names the counter the program no longer exports.
    pub fn replay_1024(
        &self,
        counted: bool,
        run: &mut SimRun,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let outcome = one_replay(&self.rig_1024, counted, &mut run.at_1024)?;
        check_replay(&outcome, self.config.jobs_1024, &mut run.digest_1024, tally);
        Ok(())
    }

    /// The paper's headline on its own workload (500 jobs, 64 hosts):
    /// Mayflower's mean completion must be below Nearest + ECMP's.
    pub fn paper_check(&self, tally: &mut Tally) {
        let rig = SimRig::build(64, self.config.jobs_paper_check, sub_seed(self.seed, 500));
        let mean = |o: &ReplayOutcome| {
            o.remote_durations.iter().sum::<f64>() / o.remote_durations.len().max(1) as f64
        };
        let (mayflower, nearest) = (mean(&rig.replay()), mean(&rig.replay_nearest_ecmp()));
        tally.note(if mayflower < nearest {
            Ok(())
        } else {
            Err(format!(
                "paper workload: Mayflower mean {mayflower:.4}s is not below Nearest+ECMP {nearest:.4}s"
            ))
        });
    }
}

fn one_replay(rig: &SimRig, counted: bool, into: &mut SizeRun) -> Result<ReplayOutcome, String> {
    if counted {
        let (outcome, counts) = rig.replay_counted()?;
        into.counted.push((outcome.clone(), counts));
        Ok(outcome)
    } else {
        let outcome = rig.replay();
        into.plain.push(outcome.clone());
        Ok(outcome)
    }
}

fn sub_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index)
}

/// One replay is one attempted op: all jobs must complete and the
/// records must equal those of every earlier replay of the matrix.
fn check_replay(outcome: &ReplayOutcome, jobs: usize, seen: &mut Option<u64>, tally: &mut Tally) {
    let same = *seen.get_or_insert(outcome.digest) == outcome.digest;
    tally.note(if outcome.jobs != jobs {
        Err(format!("replay completed {} of {jobs} jobs", outcome.jobs))
    } else if !same {
        Err("two replays of one matrix produced different records".into())
    } else {
        Ok(())
    });
}
