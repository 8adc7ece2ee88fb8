//! The write-placement extension experiment (§3.3's future work,
//! implemented in `mayflower_flowserver::placement`).
//!
//! Mixes a background read workload (served by full Mayflower) with a
//! stream of 256 MB file-creation writes, and compares two placement
//! policies for the writes:
//!
//! * **static** — the paper's published behaviour: the nameserver
//!   places replicas randomly under fault-domain constraints, then the
//!   Flowserver schedules each pipeline hop's *path*;
//! * **co-designed** — the nameserver asks the Flowserver, which picks
//!   the replica *hosts* hop by hop with the Eq. 2 cost (a
//!   Sinbad-like, but flow-accurate, write steering).
//!
//! A write is a relay pipeline (writer → primary → second → third);
//! its completion time is when the last replica holds the last byte —
//! with cut-through relaying, the fluid model's concurrent pipeline
//! flows, completed at the slowest hop.

use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};
use mayflower_workload::{PlacementPolicy, PoissonArrivals, TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::driver::Driver;
use crate::figures::Effort;
use crate::stats::Summary;

/// How write replicas are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Random placement under fault domains (the published system),
    /// with Flowserver path scheduling per hop.
    Static,
    /// Joint host+path selection through the Flowserver.
    CoDesigned,
}

impl WritePolicy {
    /// Figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WritePolicy::Static => "static placement",
            WritePolicy::CoDesigned => "co-designed placement",
        }
    }
}

/// Result of one policy's run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WriteRunResult {
    /// The placement policy.
    pub policy: WritePolicy,
    /// Write completion times, seconds.
    pub write_summary: Summary,
    /// Background read completion times, seconds (placement choices
    /// feed back into read congestion).
    pub read_summary: Summary,
}

/// The full experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WriteExperiment {
    /// One result per policy, on the identical workload.
    pub runs: Vec<WriteRunResult>,
}

/// Runs the experiment: same background matrix and write schedule for
/// both policies.
#[must_use]
pub fn write_placement_experiment(effort: Effort, seed: u64) -> WriteExperiment {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let (jobs, files) = match effort {
        Effort::Quick => (120, 60),
        Effort::Full => (450, 200),
    };
    let params = WorkloadParams {
        job_count: jobs,
        file_count: files,
        ..WorkloadParams::default()
    };
    let mut rng = SimRng::seed_from(seed);
    let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);

    // Write schedule: one write per ~4 reads.
    let mut arrivals = PoissonArrivals::per_server(
        params.lambda_per_server / 4.0,
        topo.host_count(),
        rng.fork(),
    );
    let write_count = jobs / 4;
    let hosts = topo.hosts();
    let writes: Vec<(SimTime, HostId)> = (0..write_count)
        .map(|_| (arrivals.next_arrival(), *rng.choose(&hosts)))
        .collect();
    const MB256: f64 = 256.0 * 8e6;

    let runs = [WritePolicy::Static, WritePolicy::CoDesigned]
        .into_iter()
        .map(|policy| {
            let mut run_rng = SimRng::seed_from(seed ^ 0x9E37);
            let fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
            let mut driver = Driver::new(&topo, Some(fs));
            let (write_times, read_times) =
                run_policy(&mut driver, &matrix, &writes, MB256, policy, &mut run_rng);
            WriteRunResult {
                policy,
                write_summary: Summary::of(&write_times),
                read_summary: Summary::of(&read_times),
            }
        })
        .collect();
    WriteExperiment { runs }
}

/// Runs the reads of `matrix` and the `writes` (arrival, writer) of
/// `write_bits` each under `policy` on `driver` (an idle fabric with a
/// Flowserver). Returns the write and the remote read completion times.
fn run_policy(
    driver: &mut Driver,
    matrix: &TrafficMatrix,
    writes: &[(SimTime, HostId)],
    write_bits: f64,
    policy: WritePolicy,
    rng: &mut SimRng,
) -> (Vec<f64>, Vec<f64>) {
    let topo = driver.net().topology().clone();
    // Jobs: the reads are 0..n_reads, the writes follow.
    let n_reads = matrix.jobs.len();
    let reads = matrix.jobs.iter().map(|job| job.arrival);
    let arrivals: Vec<SimTime> = reads.chain(writes.iter().map(|(t, _)| *t)).collect();

    let finish = driver.run_arrivals(&arrivals, |fs, id, t| {
        if let Some(job) = matrix.jobs.get(id) {
            let replicas = matrix.replicas_of(job);
            if replicas.contains(&job.client) {
                return Vec::new();
            }
            let sel = fs.select_replica_path(job.client, replicas, matrix.size_of(job), t);
            return sel.assignments().to_vec();
        }
        // A write's flows are its pipeline's hops; empty only for a
        // fully machine-local pipeline (can't happen with 3 fault
        // domains).
        let (_, writer) = writes[id - n_reads];
        match policy {
            WritePolicy::CoDesigned => fs.select_write_placement(writer, 3, write_bits, t).pipeline,
            WritePolicy::Static => {
                let replicas = PlacementPolicy::PaperEval.place(&topo, 3, rng);
                let mut pipeline = Vec::new();
                let mut src = writer;
                for &replica in &replicas {
                    if replica != src {
                        let sel = fs.select_path_for_replica(replica, src, write_bits, t);
                        pipeline.extend(sel.assignments().iter().cloned());
                    }
                    src = replica;
                }
                pipeline
            }
        }
    });

    let secs = |j: usize| finish[j].secs_since(arrivals[j]);
    let write_times = (n_reads..arrivals.len()).map(secs).collect();
    let remote_reads = (0..n_reads).filter(|j| finish[*j] > arrivals[*j]);
    (write_times, remote_reads.map(secs).collect())
}

/// Renders the experiment as a text table.
#[must_use]
pub fn render_writes(exp: &WriteExperiment) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Write placement extension — static vs Flowserver co-designed (3-replica pipelines)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>11} {:>11}",
        "policy", "write avg", "write p95", "read avg", "read p95"
    );
    for r in &exp.runs {
        let _ = writeln!(
            out,
            "{:<24} {:>11.3}s {:>11.3}s {:>10.3}s {:>10.3}s",
            r.policy.label(),
            r.write_summary.mean,
            r.write_summary.p95,
            r.read_summary.mean,
            r.read_summary.p95
        );
    }
    if exp.runs.len() == 2 {
        let reduction = 1.0 - exp.runs[1].write_summary.mean / exp.runs[0].write_summary.mean;
        let _ = writeln!(
            out,
            "co-design reduces average write completion by {:.0}%",
            reduction * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_design_does_not_hurt_writes() {
        let exp = write_placement_experiment(Effort::Quick, 13);
        assert_eq!(exp.runs.len(), 2);
        let stat = &exp.runs[0];
        let co = &exp.runs[1];
        assert_eq!(stat.policy, WritePolicy::Static);
        assert_eq!(co.policy, WritePolicy::CoDesigned);
        assert!(
            co.write_summary.mean <= stat.write_summary.mean * 1.05,
            "co-designed {} vs static {}",
            co.write_summary.mean,
            stat.write_summary.mean
        );
        assert!(co.write_summary.p95 > 0.0);
    }

    #[test]
    fn the_flowserver_is_polled_every_second_and_forgets_every_flow() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let params = WorkloadParams {
            job_count: 60,
            file_count: 40,
            ..WorkloadParams::default()
        };
        let mut rng = SimRng::seed_from(13);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let writes: Vec<(SimTime, HostId)> = (0..15u32)
            .map(|i| (SimTime::from_secs(f64::from(i) * 0.7), HostId(i * 4)))
            .collect();
        for policy in [WritePolicy::Static, WritePolicy::CoDesigned] {
            let registry = mayflower_telemetry::Registry::new();
            let mut fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
            fs.attach_metrics(&registry);
            let mut driver = Driver::new(&topo, Some(fs));
            let (write_times, read_times) =
                run_policy(&mut driver, &matrix, &writes, 2.048e9, policy, &mut rng);
            assert_eq!(write_times.len(), writes.len());
            assert!(!read_times.is_empty());
            assert!(driver.is_idle(), "{policy:?}: flows or cookies leaked");
            // The run ends at its last completion; every whole second
            // before that saw one real stats poll.
            let makespan = driver.net().now().as_secs();
            let polls = registry.snapshot().counter("flowserver_polls_total");
            assert!(
                polls >= Some(makespan.floor() as u64) && polls > Some(0),
                "{policy:?}: {polls:?} polls over {makespan} s"
            );
        }
    }

    #[test]
    fn render_includes_both_policies() {
        let exp = write_placement_experiment(Effort::Quick, 5);
        let text = render_writes(&exp);
        assert!(text.contains("static placement"));
        assert!(text.contains("co-designed placement"));
    }
}
