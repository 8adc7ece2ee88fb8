//! Scalability experiment: does the co-design benefit survive cluster
//! growth?
//!
//! The paper motivates Mayflower with deployments of "thousands of
//! storage servers" (§1) but evaluates on 64 emulated hosts. This
//! experiment grows the tree (same 8:1 oversubscription, same per-
//! server load) to 256 and 1024 hosts and compares Mayflower with the
//! conventional Nearest + ECMP deployment, plus what a job costs the
//! simulator in host time at each size (not the Flowserver's decision
//! cost — see [`ScalePoint::mean_decision_us`]).

use std::sync::Arc;
use std::time::Instant;

use mayflower_net::{Topology, TreeParams};
use mayflower_simcore::SimRng;
use mayflower_workload::{TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{remote_durations, replay};
use crate::figures::Effort;
use crate::stats::Summary;
use crate::strategy::Strategy;

/// One (cluster size, strategy) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Number of hosts in the tree.
    pub hosts: usize,
    /// Scheme.
    pub strategy: Strategy,
    /// Completion-time summary, seconds.
    pub summary: Summary,
    /// Wall-clock microseconds of the whole replay divided by its
    /// jobs: what simulating one job costs the host, most of it at
    /// 1024 hosts the ground-truth max-min recompute, which is why the
    /// Nearest + ECMP rows, which make no Flowserver decision, read the
    /// same. Despite the name — kept because `results/` and
    /// `ci.sh`'s mask key on it — this is not the Flowserver's
    /// per-decision cost; the benchmark's `flowserver.select_ns.*`
    /// measures that.
    pub mean_decision_us: f64,
}

/// The full scalability sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleExperiment {
    /// All measurements.
    pub points: Vec<ScalePoint>,
}

fn tree_of(hosts: usize) -> TreeParams {
    match hosts {
        64 => TreeParams::paper_testbed(),
        256 => TreeParams {
            pods: 8,
            racks_per_pod: 4,
            hosts_per_rack: 8,
            ..TreeParams::paper_testbed()
        },
        1024 => TreeParams {
            pods: 8,
            racks_per_pod: 8,
            hosts_per_rack: 16,
            ..TreeParams::paper_testbed()
        },
        other => panic!("no tree preset for {other} hosts"),
    }
}

/// Runs the sweep. Jobs scale with the cluster so per-server load is
/// constant.
#[must_use]
pub fn scale_experiment(effort: Effort, seed: u64) -> ScaleExperiment {
    let sizes: &[usize] = match effort {
        Effort::Quick => &[64, 256],
        Effort::Full => &[64, 256, 1024],
    };
    let mut points = Vec::new();
    for &hosts in sizes {
        let params = tree_of(hosts);
        let topo = Arc::new(Topology::three_tier(&params));
        let jobs_per_host = match effort {
            Effort::Quick => 2,
            Effort::Full => 6,
        };
        let workload = WorkloadParams {
            job_count: hosts * jobs_per_host,
            file_count: (hosts * 3).max(60),
            // Milder popularity skew than the paper's 1.1: under
            // Zipf(1.1), aggregate demand on the hottest file's three
            // replicas grows with the cluster and saturates them at
            // any size — a replication-factor problem, not a
            // topology-scaling one. 0.5 keeps per-file demand bounded
            // so the sweep isolates the network effect.
            zipf_exponent: 0.5,
            ..WorkloadParams::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &workload, &mut rng);
        for strategy in [Strategy::Mayflower, Strategy::NearestEcmp] {
            let mut run_rng = rng.clone();
            let started = Instant::now();
            let records = replay(&topo, &matrix, strategy, 1.0, &mut run_rng);
            let elapsed = started.elapsed();
            let remote = remote_durations(&records);
            points.push(ScalePoint {
                hosts,
                strategy,
                summary: Summary::of(&remote),
                mean_decision_us: elapsed.as_micros() as f64 / records.len() as f64,
            });
        }
    }
    ScaleExperiment { points }
}

/// Renders the sweep as a table.
#[must_use]
pub fn render_scale(exp: &ScaleExperiment) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scalability — constant per-server load (λ=0.07), growing trees"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<22} {:>9} {:>9} {:>14}",
        "hosts", "scheme", "avg (s)", "p95 (s)", "μs/job (wall)"
    );
    for p in &exp.points {
        let _ = writeln!(
            out,
            "{:<8} {:<22} {:>9.3} {:>9.3} {:>14.1}",
            p.hosts,
            p.strategy.label(),
            p.summary.mean,
            p.summary.p95,
            p.mean_decision_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benefit_holds_at_256_hosts() {
        let exp = scale_experiment(Effort::Quick, 31);
        let at = |hosts: usize, s: Strategy| {
            exp.points
                .iter()
                .find(|p| p.hosts == hosts && p.strategy == s)
                .map(|p| p.summary.mean)
                .expect("point present")
        };
        for hosts in [64usize, 256] {
            assert!(
                at(hosts, Strategy::Mayflower) < at(hosts, Strategy::NearestEcmp),
                "{hosts} hosts: Mayflower must win"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no tree preset")]
    fn unknown_size_rejected() {
        let _ = tree_of(100);
    }
}
