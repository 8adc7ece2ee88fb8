//! The recovery chaos experiment: kill dataservers on a seeded fault
//! schedule and measure how the autonomous recovery subsystem heals
//! the cluster.
//!
//! Two arms, same seed, same kills:
//!
//! * **recovery on** — the [`RecoveryManager`] ticks once per
//!   simulated second; the run records *time-to-full-replication*
//!   (first tick with the backlog and repair queue both empty after a
//!   confirmed death).
//! * **recovery off** — detection and tracking still run (the report
//!   stays comparable) but nothing repairs, so the cluster stays
//!   degraded for the whole horizon.
//!
//! Kills are the `DataserverCrash` entries of a PR 1
//! [`FaultSchedule`] — the paired restarts are dropped, so crashes
//! are *permanent* and the only way back to full replication is
//! re-replication. The number of crashes should stay below the
//! replication factor (default schedule: 2 crashes vs. 3 replicas) so
//! every file keeps at least one live replica.
//!
//! Per tick the experiment also probes a **degraded read** of every
//! file through a fresh [`mayflower_fs::Client`] — a metadata lookup,
//! then the client's own failover over the replicas, one try each and
//! no backoff — yielding a read-availability series for the
//! recovery-on vs. -off comparison.
//! Everything derives from sim time and seeded randomness: the same
//! [`RecoveryExperimentConfig`] always produces a byte-identical
//! [`RecoveryRunResult`] JSON.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use mayflower_flowserver::{Flowserver, FlowserverConfig};
use mayflower_fs::{Cluster, ClusterConfig, FsError};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_recovery::{RecoveryConfig, RecoveryManager, RecoveryReport};
use mayflower_simcore::{FaultEvent, FaultSchedule, FaultScheduleParams, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of one chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryExperimentConfig {
    /// Seed for the fault schedule, file placement and repair
    /// planning.
    pub seed: u64,
    /// Files written before the kills start.
    pub files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Dataserver crash events drawn from the fault schedule (their
    /// restarts are dropped — kills are permanent). Keep below the
    /// replication factor so every file stays recoverable.
    pub dataserver_crashes: usize,
    /// Simulated seconds to run; the manager ticks once per second.
    pub horizon_secs: u32,
    /// Whether the repair pipeline runs (the experiment arm).
    pub recovery_enabled: bool,
}

impl Default for RecoveryExperimentConfig {
    fn default() -> RecoveryExperimentConfig {
        RecoveryExperimentConfig {
            seed: 0xC4A05, // "CHAOS"
            files: 6,
            file_size: 512,
            dataserver_crashes: 2,
            horizon_secs: 30,
            recovery_enabled: true,
        }
    }
}

/// One tick's health sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSample {
    /// The sample instant.
    pub at: SimTime,
    /// Files whose replica set is fully live.
    pub fully_replicated: usize,
    /// Files readable from at least one replica (the degraded-read
    /// probe succeeded).
    pub readable: usize,
    /// Live replicas summed over all files, divided by the total
    /// replica target — 1.0 means every copy exists on a live host.
    pub replica_capacity: f64,
}

/// The deterministic outcome of one chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRunResult {
    /// The arm and knobs that produced this result.
    pub config: RecoveryExperimentConfig,
    /// Hosts permanently killed, in kill order.
    pub killed: Vec<HostId>,
    /// Per-tick health samples over the horizon.
    pub health: Vec<HealthSample>,
    /// First instant the cluster was back at full replication
    /// (`None` when the run ended degraded — always the case with
    /// recovery disabled).
    pub time_to_full_replication: Option<SimTime>,
    /// Files still under-replicated when the horizon ended.
    pub final_under_replicated: usize,
    /// The recovery subsystem's own report (detector transitions,
    /// planned and executed repairs).
    pub report: RecoveryReport,
}

/// The paper-testbed topology the chaos runs use.
#[must_use]
pub fn chaos_topology() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams::paper_testbed()))
}

/// Derives the permanent kill list: the `DataserverCrash` entries of
/// the seeded PR 1 schedule, restarts dropped, raw ids resolved
/// modulo `replica_hosts` (the same total-mapping idiom
/// [`compile`](crate::faults::compile) uses, but against the hosts
/// that actually hold replicas — killing an empty host would measure
/// nothing). Deduplicated in kill order.
#[must_use]
pub fn kill_list(replica_hosts: &[HostId], cfg: &RecoveryExperimentConfig) -> Vec<HostId> {
    if replica_hosts.is_empty() {
        return Vec::new();
    }
    let params = FaultScheduleParams {
        horizon_secs: f64::from(cfg.horizon_secs),
        dataserver_crashes: cfg.dataserver_crashes,
        link_flaps: 0,
        switch_failures: 0,
        flowserver_outages: 0,
        stats_poll_losses: 0,
        ..FaultScheduleParams::default()
    };
    let mut rng = SimRng::seed_from(cfg.seed);
    let schedule = FaultSchedule::generate(&params, &mut rng);
    let mut seen = BTreeSet::new();
    schedule
        .entries()
        .iter()
        .filter_map(|(_, ev)| match ev {
            FaultEvent::DataserverCrash(raw) => {
                let h = replica_hosts[(*raw as usize) % replica_hosts.len()];
                seen.insert(h).then_some(h)
            }
            _ => None,
        })
        .collect()
}

fn file_name(i: usize) -> String {
    format!("chaos/f{i:03}")
}

/// Runs one chaos arm in `dir` (the cluster's on-disk root).
///
/// # Errors
///
/// Returns filesystem errors from cluster setup or the initial
/// writes; the chaos phase itself never fails the run.
pub fn run_recovery_chaos(
    cfg: &RecoveryExperimentConfig,
    dir: &Path,
) -> Result<RecoveryRunResult, FsError> {
    let topo = chaos_topology();
    let cluster = Cluster::create(dir, Arc::clone(&topo), ClusterConfig::default())?;
    let payload = |i: usize| -> Vec<u8> {
        // Distinct, deterministic content per file so probe reads can
        // verify bytes, not just availability.
        (0..cfg.file_size).map(|b| ((b + i) % 251) as u8).collect()
    };
    let mut writer = cluster.client(HostId(0));
    let mut replica_hosts = BTreeSet::new();
    for i in 0..cfg.files {
        let meta = writer.create(&file_name(i))?;
        replica_hosts.extend(&meta.replicas);
        writer.append(&meta.name, &payload(i))?;
    }
    let replica_hosts: Vec<HostId> = replica_hosts.into_iter().collect();

    let killed = kill_list(&replica_hosts, cfg);
    let mut flowserver = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
    let mut manager = RecoveryManager::new(
        &cluster,
        RecoveryConfig {
            repair_enabled: cfg.recovery_enabled,
            seed: cfg.seed,
        },
    );

    let mut health = Vec::new();
    let mut final_under = 0;
    for step in 0..=cfg.horizon_secs {
        let now = SimTime::from_secs(f64::from(step));
        // Kills land just before the first tick, so the detector sees
        // the silence from t = 0 on — the measured
        // time-to-full-replication includes the confirmation delay.
        if step == 0 {
            for h in &killed {
                cluster.dataserver(*h)?.crash();
            }
        }
        final_under = manager.tick(&cluster, &mut flowserver, now);

        let mut fully = 0;
        let mut readable = 0;
        let mut live_total = 0usize;
        let mut target_total = 0usize;
        for i in 0..cfg.files {
            let meta = cluster.nameserver().lookup(&file_name(i))?;
            let live = meta
                .replicas
                .iter()
                .filter(|r| cluster.dataserver(**r).is_ok_and(|ds| ds.has_file(meta.id)))
                .count();
            live_total += live;
            target_total += meta.replicas.len();
            if live == meta.replicas.len() {
                fully += 1;
            }
            // A fresh client looks the file up anew and tries each
            // replica once, with no backoff: the probe never waits on
            // the wall clock.
            let mut probe = cluster.client(HostId(0));
            probe.set_retry_policy(1, Duration::ZERO);
            if probe.read(&meta.name).is_ok_and(|d| d == payload(i)) {
                readable += 1;
            }
        }
        health.push(HealthSample {
            at: now,
            fully_replicated: fully,
            readable,
            replica_capacity: live_total as f64 / target_total.max(1) as f64,
        });
    }

    Ok(RecoveryRunResult {
        config: cfg.clone(),
        killed,
        health,
        time_to_full_replication: manager.report().full_replication_at,
        final_under_replicated: final_under,
        report: manager.into_report(),
    })
}

#[cfg(test)]
mod tests {
    use mayflower_simcore::testutil::TempDir;

    use super::*;

    fn quick() -> RecoveryExperimentConfig {
        RecoveryExperimentConfig {
            files: 3,
            file_size: 64,
            horizon_secs: 15,
            ..RecoveryExperimentConfig::default()
        }
    }

    #[test]
    fn kill_list_is_seeded_and_bounded() {
        let hosts: Vec<HostId> = (0..9).map(HostId).collect();
        let cfg = quick();
        let a = kill_list(&hosts, &cfg);
        let b = kill_list(&hosts, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.len() <= cfg.dataserver_crashes);
        assert!(a.iter().all(|h| hosts.contains(h)));
        assert!(kill_list(&[], &cfg).is_empty());
    }

    #[test]
    fn enabled_run_heals_and_reads_stay_up() {
        let dir = TempDir::new("on");
        let result = run_recovery_chaos(&quick(), dir.path()).unwrap();
        assert!(
            result.time_to_full_replication.is_some(),
            "recovery must reach full replication: {:?}",
            result.health.last()
        );
        assert_eq!(result.final_under_replicated, 0);
        let last = result.health.last().unwrap();
        assert_eq!(last.fully_replicated, 3);
        assert_eq!(last.readable, 3, "every file readable throughout");
        assert!((last.replica_capacity - 1.0).abs() < 1e-9);
        assert!(!result.report.completed.is_empty());
    }

    #[test]
    fn disabled_run_stays_degraded_but_readable() {
        let dir = TempDir::new("off");
        let cfg = RecoveryExperimentConfig {
            recovery_enabled: false,
            ..quick()
        };
        let result = run_recovery_chaos(&cfg, dir.path()).unwrap();
        assert!(result.time_to_full_replication.is_none());
        let last = result.health.last().unwrap();
        assert!(last.replica_capacity < 1.0, "kills never repaired");
        // Rack-aware placement keeps ≥1 live replica with 2 kills.
        assert_eq!(last.readable, 3);
        assert!(result.report.planned.is_empty());
    }
}
