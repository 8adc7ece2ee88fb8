//! The §3.4 consistency-cost experiment.
//!
//! The paper claims strong consistency is nearly free for large files:
//! "Mayflower leverages its append-only semantics to only require
//! sending last chunk read requests to the primary replica host. All
//! other chunk requests can be sent to any of the replica hosts ...
//! Therefore, for large multi-gigabyte files, the vast majority of
//! chunks can be serviced by any replica host while still maintaining
//! strong consistency."
//!
//! This experiment quantifies the claim: whole-file reads under
//! sequential versus strong consistency, sweeping the file size in
//! chunks. Under strong consistency the last chunk's bytes are pinned
//! to the primary (scheduled as a separate flow through the
//! Flowserver's path selection); everything else enjoys full
//! replica choice. With 1-chunk files, strong consistency removes
//! replica choice entirely — the worst case; at 16 chunks only 1/16 of
//! the bytes are pinned.

use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig};
use mayflower_net::{Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};
use mayflower_workload::{ReadJob, TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::driver::Driver;
use crate::figures::Effort;
use crate::stats::Summary;

/// The consistency level being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Any replica serves any chunk (the default, §3.4).
    Sequential,
    /// The last chunk's bytes must come from the primary.
    Strong,
}

impl Mode {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Sequential => "sequential",
            Mode::Strong => "strong",
        }
    }
}

/// One (chunks-per-file, mode) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistencyPoint {
    /// File size in 256 MB chunks.
    pub chunks: u64,
    /// Consistency level.
    pub mode: Mode,
    /// Read completion summary, seconds.
    pub summary: Summary,
}

/// The full sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistencyExperiment {
    /// All measurements.
    pub points: Vec<ConsistencyPoint>,
}

const CHUNK_BITS: f64 = 256.0 * 8e6;

/// Runs the sweep over 1-, 4- and 16-chunk files.
#[must_use]
pub fn consistency_experiment(effort: Effort, seed: u64) -> ConsistencyExperiment {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let (jobs, files) = match effort {
        Effort::Quick => (100, 60),
        Effort::Full => (300, 150),
    };
    let mut points = Vec::new();
    for chunks in [1u64, 4, 16] {
        let params = WorkloadParams {
            job_count: jobs,
            file_count: files,
            file_size_bits: chunks as f64 * CHUNK_BITS,
            // Hold the *byte* arrival rate constant across sweeps so
            // congestion levels are comparable: bigger files, fewer
            // arrivals.
            lambda_per_server: 0.07 / chunks as f64,
            ..WorkloadParams::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        for mode in [Mode::Sequential, Mode::Strong] {
            let fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
            let durations = run_mode(&mut Driver::new(&topo, Some(fs)), &matrix, mode);
            points.push(ConsistencyPoint {
                chunks,
                mode,
                summary: Summary::of(&durations),
            });
        }
    }
    ConsistencyExperiment { points }
}

/// Replays `matrix` under `mode` on `driver` (an idle fabric with a
/// Flowserver) and returns the remote reads' completion times.
fn run_mode(driver: &mut Driver, matrix: &TrafficMatrix, mode: Mode) -> Vec<f64> {
    let is_local = |job: &ReadJob| matrix.replicas_of(job).contains(&job.client);
    let arrivals: Vec<SimTime> = matrix.jobs.iter().map(|job| job.arrival).collect();
    let finish = driver.run_arrivals(&arrivals, |fs, id, t| {
        let job = &matrix.jobs[id];
        if is_local(job) {
            return Vec::new();
        }
        let replicas = matrix.replicas_of(job);
        let size = matrix.size_of(job);
        let last_chunk_bits = CHUNK_BITS.min(size);
        let free_bits = size
            - if mode == Mode::Strong {
                last_chunk_bits
            } else {
                0.0
            };
        let mut assignments = Vec::new();
        if free_bits > 0.0 {
            let sel = fs.select_replica_path(job.client, replicas, free_bits, t);
            assignments.extend(sel.assignments().iter().cloned());
        }
        if mode == Mode::Strong {
            let primary = replicas[0];
            let sel = fs.select_path_for_replica(job.client, primary, last_chunk_bits, t);
            assignments.extend(sel.assignments().iter().cloned());
        }
        debug_assert!(!assignments.is_empty());
        assignments
    });

    let remote = matrix.jobs.iter().filter(|job| !is_local(job));
    remote
        .map(|job| finish[job.id].secs_since(job.arrival))
        .collect()
}

/// Renders the sweep.
#[must_use]
pub fn render_consistency(exp: &ConsistencyExperiment) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§3.4 — cost of strong consistency vs file size (constant byte load)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>9} {:>9}",
        "chunks", "consistency", "avg (s)", "p95 (s)"
    );
    for p in &exp.points {
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>9.3} {:>9.3}",
            p.chunks,
            p.mode.label(),
            p.summary.mean,
            p.summary.p95
        );
    }
    // Overhead summary per size.
    let mut sizes: Vec<u64> = exp.points.iter().map(|p| p.chunks).collect();
    sizes.dedup();
    for chunks in sizes {
        let at = |m: Mode| {
            exp.points
                .iter()
                .find(|p| p.chunks == chunks && p.mode == m)
                .map(|p| p.summary.mean)
                .unwrap_or(f64::NAN)
        };
        let overhead = at(Mode::Strong) / at(Mode::Sequential) - 1.0;
        let _ = writeln!(
            out,
            "{chunks}-chunk files: strong-consistency overhead {:+.1}%",
            overhead * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shrinks_with_file_size() {
        let exp = consistency_experiment(Effort::Quick, 17);
        let mean = |chunks: u64, mode: Mode| {
            exp.points
                .iter()
                .find(|p| p.chunks == chunks && p.mode == mode)
                .map(|p| p.summary.mean)
                .expect("point present")
        };
        let overhead =
            |chunks: u64| mean(chunks, Mode::Strong) / mean(chunks, Mode::Sequential) - 1.0;
        // The paper's claim: multi-chunk files pay (almost) nothing.
        assert!(
            overhead(16) < overhead(1),
            "16-chunk overhead {} must be below 1-chunk overhead {}",
            overhead(16),
            overhead(1)
        );
        assert!(
            overhead(16) < 0.15,
            "large-file strong consistency should be cheap: {:+.1}%",
            overhead(16) * 100.0
        );
    }

    #[test]
    fn the_flowserver_is_polled_every_second_and_forgets_every_flow() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let params = WorkloadParams {
            job_count: 60,
            file_count: 40,
            file_size_bits: 4.0 * CHUNK_BITS,
            lambda_per_server: 0.07 / 4.0,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut SimRng::seed_from(17));
        for mode in [Mode::Sequential, Mode::Strong] {
            let registry = mayflower_telemetry::Registry::new();
            let mut fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
            fs.attach_metrics(&registry);
            let mut driver = Driver::new(&topo, Some(fs));
            let durations = run_mode(&mut driver, &matrix, mode);
            assert!(!durations.is_empty());
            assert!(driver.is_idle(), "{mode:?}: flows or cookies leaked");
            // The run ends at its last completion; every whole second
            // before that saw one real stats poll.
            let makespan = driver.net().now().as_secs();
            let polls = registry.snapshot().counter("flowserver_polls_total");
            assert!(
                polls >= Some(makespan.floor() as u64) && polls > Some(0),
                "{mode:?}: {polls:?} polls over {makespan} s"
            );
        }
    }

    #[test]
    fn render_lists_all_rows() {
        let exp = consistency_experiment(Effort::Quick, 4);
        let text = render_consistency(&exp);
        assert!(text.contains("sequential"));
        assert!(text.contains("strong"));
        assert!(text.contains("16"));
    }
}
