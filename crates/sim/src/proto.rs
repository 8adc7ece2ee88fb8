//! The Figure 8 prototype experiment: the **real** Mayflower
//! filesystem versus HDFS-style configurations.
//!
//! Unlike the micro-benchmarks (which run a synthetic client/server
//! pattern, §6.2–6.6), the paper's Figure 8 "runs the real
//! filesystem". This module does the same with the reproduction's real
//! stack:
//!
//! * files are created through the [`mayflower_fs::Nameserver`]
//!   (metadata in the kvstore, replicas pinned to the traffic matrix's
//!   placements so "the same primary replica location" serves both
//!   systems, §6.7);
//! * every replica assignment is a **real read** through a
//!   [`mayflower_fs::Client`] on the job's host: a metadata lookup,
//!   then the file's chunks from the replica the engine chose (the
//!   client's selector answers with it, and the client fails over as
//!   it always does), with content verification;
//! * transfer *time* is charged through the fluid network model, at
//!   the paper's 256 MB scale.
//!
//! Substitution note (DESIGN.md §2): the real bytes stored per file
//! are scaled down (64 KiB by default) while the network model uses
//! the paper's file size — the filesystem code path is exercised in
//! full, and timing comes from the network, which the paper assumes is
//! the bottleneck (§3.1).

use std::path::Path;
use std::sync::Arc;

use mayflower_fs::{Cluster, ClusterConfig, FileMeta, FsError, ReadAssignment, ReplicaSelector};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::SimRng;
use mayflower_workload::{ReadJob, TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{remote_durations, replay_full, JobHooks, ReplayOptions};
use crate::stats::{mean, Summary};
use crate::strategy::Strategy;

/// Real bytes stored per file in the prototype cluster.
pub const REAL_BYTES_PER_FILE: usize = 64 << 10;

/// One (λ, system) measurement of Figure 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrototypePoint {
    /// Per-server arrival rate λ.
    pub lambda: f64,
    /// The figure's system label (`Mayflower`, `HDFS-Mayflower`,
    /// `HDFS-ECMP`).
    pub system: String,
    /// The scheme that realizes it.
    pub strategy: Strategy,
    /// Completion-time summary, seconds.
    pub summary: Summary,
    /// Real filesystem reads performed and verified.
    pub reads_verified: usize,
}

/// Figure 8's full data: three systems across λ ∈ {0.06, 0.07, 0.08}.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure8 {
    /// All measurements.
    pub points: Vec<PrototypePoint>,
}

/// The three systems of Figure 8, with the paper's labels.
#[must_use]
pub fn figure8_systems() -> Vec<(&'static str, Strategy)> {
    vec![
        ("Mayflower", Strategy::Mayflower),
        ("HDFS-Mayflower", Strategy::NearestMayflower),
        ("HDFS-ECMP", Strategy::NearestEcmp),
    ]
}

/// The engine's replica choice, handed to the client as its selector:
/// every read goes wholly to the replica the engine assigned.
struct Chosen(HostId);

impl ReplicaSelector for Chosen {
    fn select_read(&mut self, _: HostId, _: &[HostId], size_bytes: u64) -> Vec<ReadAssignment> {
        vec![ReadAssignment {
            replica: self.0,
            bytes: size_bytes,
        }]
    }
}

/// Hooks that drive the real filesystem per simulated job.
struct FsHooks<'a> {
    cluster: &'a Cluster,
    metas: &'a [FileMeta],
    real_len: u64,
    reads_verified: usize,
}

impl JobHooks for FsHooks<'_> {
    fn on_assignment(&mut self, job: &ReadJob, replica: HostId, _bytes: f64) {
        // Real read: a client on the job's host looks the file up and
        // reads it from the engine's replica (failing over as any
        // client does), then the content is verified. The network
        // model carries the paper-scale size; the real bytes on disk
        // are the scaled-down REAL_BYTES_PER_FILE.
        let meta = &self.metas[job.file_rank];
        let data = self
            .cluster
            .client_with_selector(job.client, Box::new(Chosen(replica)))
            .read(&meta.name)
            .expect("the file reads");
        assert_eq!(
            data.len() as u64,
            self.real_len,
            "file {} truncated",
            meta.name
        );
        // Deterministic content: byte i of file rank r is (r + i) & 0xFF.
        let r = job.file_rank as u64;
        for (i, b) in data.iter().enumerate().step_by(4099) {
            assert_eq!(*b, ((r + i as u64) & 0xFF) as u8, "corrupt read");
        }
        self.reads_verified += 1;
    }
}

/// Builds the real cluster for one traffic matrix: every file created
/// through the nameserver with the matrix's placement, then filled
/// with deterministic real bytes.
fn build_cluster(
    dir: &Path,
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
) -> Result<(Cluster, Vec<FileMeta>), FsError> {
    let cluster = Cluster::create(dir, topo.clone(), ClusterConfig::default())?;
    let mut metas = Vec::with_capacity(matrix.files.len());
    let mut payload = vec![0u8; REAL_BYTES_PER_FILE];
    for spec in matrix.files.files() {
        let name = format!("bench/file-{:05}", spec.rank);
        let meta = cluster
            .nameserver()
            .create_placed(&name, spec.replicas.clone())?;
        for r in &meta.replicas {
            cluster.dataserver(*r)?.create_file(&meta)?;
        }
        for (i, b) in payload.iter_mut().enumerate() {
            *b = ((spec.rank as u64 + i as u64) & 0xFF) as u8;
        }
        cluster.client(meta.primary()).append(&name, &payload)?;
        metas.push(cluster.nameserver().lookup(&name)?);
    }
    Ok((cluster, metas))
}

/// Runs the Figure 8 prototype comparison.
///
/// `scratch_dir` hosts the real cluster data (one subdirectory per
/// (λ, system) run, removed afterwards).
///
/// # Panics
///
/// Panics if the scratch directory is not writable.
#[must_use]
pub fn figure8(
    lambdas: &[f64],
    file_count: usize,
    job_count: usize,
    seed: u64,
    scratch_dir: &Path,
) -> Figure8 {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let mut points = Vec::new();
    for &lambda in lambdas {
        let params = WorkloadParams {
            lambda_per_server: lambda,
            file_count,
            job_count,
            ..WorkloadParams::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        for (label, strategy) in figure8_systems() {
            let dir = scratch_dir.join(format!("fig8-{lambda}-{label}"));
            std::fs::remove_dir_all(&dir).ok();
            let (cluster, metas) =
                build_cluster(&dir, &topo, &matrix).expect("the scratch directory is writable");
            let mut hooks = FsHooks {
                cluster: &cluster,
                metas: &metas,
                real_len: REAL_BYTES_PER_FILE as u64,
                reads_verified: 0,
            };
            let mut run_rng = rng.clone();
            let opts = ReplayOptions::default();
            let records =
                replay_full(&topo, &matrix, strategy, &opts, &mut run_rng, &mut hooks).jobs;
            let durations = remote_durations(&records);
            points.push(PrototypePoint {
                lambda,
                system: label.to_string(),
                strategy,
                summary: Summary::of(&durations),
                reads_verified: hooks.reads_verified,
            });
            drop(cluster);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    Figure8 { points }
}

/// Renders Figure 8 as the paper's table of avg / p95 per λ.
#[must_use]
pub fn render_figure8(fig: &Figure8) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — real-filesystem prototype comparison with HDFS"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>10} {:>10} {:>10}",
        "system", "λ", "avg (s)", "p95 (s)", "reads ok"
    );
    for p in &fig.points {
        let _ = writeln!(
            out,
            "{:<16} {:>6.2} {:>10.3} {:>10.3} {:>10}",
            p.system, p.lambda, p.summary.mean, p.summary.p95, p.reads_verified
        );
    }
    // Headline: the abstract's ">80% vs HDFS with ECMP" claim.
    let (mut mf, mut hdfs) = (Vec::new(), Vec::new());
    for p in &fig.points {
        match p.system.as_str() {
            "Mayflower" => mf.push(p.summary.mean),
            "HDFS-ECMP" => hdfs.push(p.summary.mean),
            _ => {}
        }
    }
    if !mf.is_empty() && !hdfs.is_empty() {
        let mf_avg = mean(&mf);
        let hdfs_avg = mean(&hdfs);
        let _ = writeln!(
            out,
            "headline: read-time reduction vs HDFS-ECMP = {:.0}% (paper: >80%)",
            (1.0 - mf_avg / hdfs_avg) * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use mayflower_simcore::testutil::TempDir;

    use super::*;

    #[test]
    fn a_read_from_a_crashed_replica_fails_over_and_verifies() {
        let dir = TempDir::new("fig8-failover");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let params = WorkloadParams {
            file_count: 4,
            job_count: 4,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut SimRng::seed_from(7));
        let (cluster, metas) = build_cluster(dir.path(), &topo, &matrix).unwrap();
        let job = &matrix.jobs[0];
        let replica = matrix.replicas_of(job)[0];
        cluster.dataserver(replica).unwrap().crash();
        let mut hooks = FsHooks {
            cluster: &cluster,
            metas: &metas,
            real_len: REAL_BYTES_PER_FILE as u64,
            reads_verified: 0,
        };
        hooks.on_assignment(job, replica, 1.0);
        assert_eq!(hooks.reads_verified, 1);
    }

    #[test]
    fn prototype_runs_real_filesystem_reads() {
        let scratch =
            std::env::temp_dir().join(format!("mayflower-fig8-test-{}", std::process::id()));
        let fig = figure8(&[0.07], 20, 40, 99, &scratch);
        assert_eq!(fig.points.len(), 3);
        for p in &fig.points {
            assert!(p.reads_verified > 0, "{}: no real reads", p.system);
            assert!(p.summary.mean > 0.0);
        }
        // Shape: Mayflower ≤ HDFS-Mayflower ≤ (roughly) HDFS-ECMP.
        let mean = |s: &str| {
            fig.points
                .iter()
                .find(|p| p.system == s)
                .map(|p| p.summary.mean)
                .expect("system present")
        };
        assert!(
            mean("Mayflower") <= mean("HDFS-ECMP") * 1.05,
            "Mayflower {} vs HDFS-ECMP {}",
            mean("Mayflower"),
            mean("HDFS-ECMP")
        );
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn render_contains_all_systems() {
        let scratch =
            std::env::temp_dir().join(format!("mayflower-fig8-render-{}", std::process::id()));
        let fig = figure8(&[0.07], 10, 20, 3, &scratch);
        let text = render_figure8(&fig);
        for s in ["Mayflower", "HDFS-Mayflower", "HDFS-ECMP", "headline"] {
            assert!(text.contains(s), "missing {s}");
        }
        std::fs::remove_dir_all(&scratch).ok();
    }
}
