//! Experiment configuration and result types.

use std::sync::Arc;

use mayflower_net::{Topology, TreeParams};
use mayflower_simcore::SimRng;
use mayflower_workload::{TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{remote_durations, replay_with_telemetry, JobRecord, NoHooks, ReplayOptions};
use crate::faults::{FaultReport, FaultSchedule};
use crate::stats::Summary;
use crate::strategy::Strategy;

/// A fully-specified experiment: topology × workload × strategy × seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Network shape (Figure 7 varies `oversubscription`).
    pub tree: TreeParams,
    /// Workload shape (Figures 5/6 vary `locality` and
    /// `lambda_per_server`).
    pub workload: WorkloadParams,
    /// Scheme under test.
    pub strategy: Strategy,
    /// RNG seed; identical seeds replay identical traffic matrices.
    pub seed: u64,
    /// Edge-switch stats poll interval, seconds.
    pub poll_interval_secs: f64,
    /// Optional fault schedule to inject (`None` = fault-free run).
    /// `Option` so configs serialized before fault injection existed
    /// still deserialize.
    pub faults: Option<FaultSchedule>,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            tree: TreeParams::paper_testbed(),
            workload: WorkloadParams::default(),
            strategy: Strategy::Mayflower,
            seed: 0x4D41_5946, // "MAYF"
            poll_interval_secs: 1.0,
            faults: None,
        }
    }
}

/// The result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Scheme that produced the result.
    pub strategy: Strategy,
    /// Per-job records, in job order.
    pub jobs: Vec<JobRecord>,
    /// Completion-time summary over **remote** jobs (the paper's
    /// metric; machine-local reads have no network component and are
    /// excluded, §6.4).
    pub summary: Summary,
    /// Degraded-mode decision log when a fault schedule was injected
    /// (`None` for fault-free runs).
    pub fault_report: Option<FaultReport>,
    /// Prometheus text rendering of the run's telemetry registry.
    /// Byte-identical across runs with the same config and seed.
    /// `Option` so results serialized before telemetry existed still
    /// deserialize (as `None`).
    pub metrics_prometheus: Option<String>,
    /// JSON rendering of the same registry snapshot.
    pub metrics_json: Option<String>,
}

impl RunResult {
    /// Completion times (seconds) of remote jobs, in job order.
    #[must_use]
    pub fn durations(&self) -> Vec<f64> {
        remote_durations(&self.jobs)
    }
}

impl ExperimentConfig {
    /// Runs the experiment end to end: build the topology, synthesize
    /// the traffic matrix, replay it under the strategy, summarize.
    ///
    /// # Panics
    ///
    /// Panics on invalid tree/workload parameters.
    #[must_use]
    pub fn run(&self) -> RunResult {
        let topo = Arc::new(Topology::three_tier(&self.tree));
        let mut rng = SimRng::seed_from(self.seed);
        let matrix = TrafficMatrix::generate(&topo, &self.workload, &mut rng);
        let opts = ReplayOptions {
            poll_interval_secs: self.poll_interval_secs,
            faults: self.faults.clone().unwrap_or_default(),
            ..ReplayOptions::default()
        };
        let (jobs, report, registry) =
            replay_with_telemetry(&topo, &matrix, self.strategy, &opts, &mut rng, &mut NoHooks);
        let fault_report = self.faults.is_some().then_some(report);
        let summary = Summary::of(&remote_durations(&jobs));
        summary.record_to(&registry.scope("sim"), "completion");
        let snapshot = registry.snapshot();
        RunResult {
            strategy: self.strategy,
            jobs,
            summary,
            fault_report,
            metrics_prometheus: Some(snapshot.render_prometheus()),
            metrics_json: Some(snapshot.render_json()),
        }
    }

    /// Runs the same workload (same seed) under each strategy.
    #[must_use]
    pub fn run_strategies(&self, strategies: &[Strategy]) -> Vec<RunResult> {
        strategies
            .iter()
            .map(|s| {
                let mut cfg = self.clone();
                cfg.strategy = *s;
                cfg.run()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(strategy: Strategy) -> ExperimentConfig {
        ExperimentConfig {
            strategy,
            workload: WorkloadParams {
                job_count: 80,
                file_count: 60,
                ..WorkloadParams::default()
            },
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn run_produces_summary_over_remote_jobs() {
        let r = quick_config(Strategy::Mayflower).run();
        assert_eq!(r.jobs.len(), 80);
        let remote = r.jobs.iter().filter(|j| !j.local).count();
        assert_eq!(r.summary.n, remote);
        assert!(r.summary.mean > 0.0);
        assert!(r.summary.p95 >= r.summary.p50);
    }

    #[test]
    fn mayflower_beats_nearest_ecmp_on_the_default_workload() {
        let cfg = quick_config(Strategy::Mayflower);
        let results = cfg.run_strategies(&[Strategy::Mayflower, Strategy::NearestEcmp]);
        let mf = &results[0].summary;
        let ne = &results[1].summary;
        assert!(
            mf.mean < ne.mean,
            "Mayflower {} vs Nearest ECMP {}",
            mf.mean,
            ne.mean
        );
    }

    #[test]
    fn same_seed_same_result() {
        let cfg = quick_config(Strategy::SinbadREcmp);
        let a = cfg.run();
        let b = cfg.run();
        assert_eq!(a.summary.mean, b.summary.mean);
        assert_eq!(a.summary.p95, b.summary.p95);
    }
}
