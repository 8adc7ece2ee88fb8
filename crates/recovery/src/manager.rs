//! The recovery manager: one tick drives the whole pipeline.
//!
//! Detection → tracking → planning → throttled execution, all
//! against simulated time and a seeded rng, so a recovery run is a
//! pure function of `(cluster state, fault schedule, seed)` and its
//! [`RecoveryReport`] is byte-identical across same-seed runs.

use std::sync::Arc;

use mayflower_flowserver::Flowserver;
use mayflower_fs::Cluster;
use mayflower_net::Topology;
use mayflower_simcore::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::detector::{FailureDetector, HealthState};
use crate::executor::{ExecutorConfig, RepairExecutor};
use crate::planner::RepairPlanner;
use crate::report::RecoveryReport;
use crate::tracker::{self, UnderReplicated};

/// Configuration for the whole subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// When false, the manager detects and tracks but never repairs —
    /// the control arm of the chaos experiment.
    pub repair_enabled: bool,
    /// Seed for the planner's placement rng.
    pub seed: u64,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            repair_enabled: true,
            seed: 7,
        }
    }
}

/// Orchestrates detector, tracker, planner and executor over a
/// cluster. The manager owns no cluster state — [`tick`] borrows the
/// cluster and flowserver so client traffic can share both.
///
/// [`tick`]: RecoveryManager::tick
#[derive(Debug)]
pub struct RecoveryManager {
    topo: Arc<Topology>,
    detector: FailureDetector,
    planner: RepairPlanner,
    executor: RepairExecutor,
    rng: SimRng,
    repair_enabled: bool,
    saw_death: bool,
    report: RecoveryReport,
}

impl RecoveryManager {
    /// Creates a manager for `cluster`. The planner places repairs by
    /// the cluster's own [`PLACEMENT`](mayflower_fs::PLACEMENT) policy,
    /// so repaired files satisfy the same fault-domain invariants as
    /// freshly written ones. All recovery telemetry lives in the
    /// cluster registry's `recovery` scope: detector transition
    /// counters (`recovery_detector_*`), the repair queue depth gauge
    /// and per-outcome repair counters.
    #[must_use]
    pub fn new(cluster: &Cluster, config: RecoveryConfig) -> RecoveryManager {
        let topo = Arc::clone(cluster.topology());
        let scope = cluster.registry().scope("recovery");
        RecoveryManager {
            detector: FailureDetector::new(topo.hosts(), &scope.scope("detector")),
            planner: RepairPlanner::new(mayflower_fs::PLACEMENT),
            executor: RepairExecutor::new(ExecutorConfig::default(), &scope),
            rng: SimRng::seed_from(config.seed),
            repair_enabled: config.repair_enabled,
            saw_death: false,
            report: RecoveryReport::default(),
            topo,
        }
    }

    /// One heartbeat interval of work. Returns the number of files
    /// still under-replicated after this tick's repairs.
    ///
    /// Pipeline:
    ///
    /// 1. Every dataserver that is up heartbeats; the detector's
    ///    deadlines turn silence into suspicion, then confirmation.
    ///    The detector is the only judge of liveness: the tracker and
    ///    planner read it directly.
    /// 2. The tracker derives the under-replicated backlog.
    /// 3. If repair is enabled, files without queued repairs are
    ///    planned — destinations via the placement policy, source +
    ///    path via the Flowserver at background priority — and the
    ///    executor performs a throttled batch of pulls.
    /// 4. Once a confirmed death has occurred and the backlog and
    ///    queue are both empty, the time-to-full-replication is
    ///    stamped into the report.
    pub fn tick(&mut self, cluster: &Cluster, flowserver: &mut Flowserver, now: SimTime) -> usize {
        for host in self.topo.hosts() {
            if cluster.dataserver(host).is_up() {
                if let Some(t) = self.detector.heartbeat(host, now) {
                    self.report.transitions.push(t);
                }
            }
        }
        for t in self.detector.tick(now) {
            if t.to == HealthState::Dead {
                self.saw_death = true;
            }
            self.report.transitions.push(t);
        }

        let under = tracker::scan(cluster.nameserver(), &self.detector);
        if self.repair_enabled {
            let to_plan: Vec<UnderReplicated> = under
                .into_iter()
                .filter(|u| !self.executor.has_pending(&u.name))
                .collect();
            let usable = self.detector.usable_hosts();
            let tasks = self.planner.plan(
                &self.topo,
                &to_plan,
                &usable,
                flowserver,
                now,
                &mut self.rng,
            );
            for t in &tasks {
                self.report.planned.push(t.record(now));
            }
            self.executor.enqueue(tasks);
            let completed = self.executor.step(cluster, flowserver, now);
            self.report.completed.extend(completed);
        }

        let remaining = tracker::scan(cluster.nameserver(), &self.detector);
        if self.saw_death
            && self.report.full_replication_at.is_none()
            && remaining.is_empty()
            && self.executor.queue_len() == 0
        {
            self.report.full_replication_at = Some(now);
        }
        remaining.len()
    }

    /// The detector's current view, for status displays.
    #[must_use]
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Consumes the manager, yielding the final report.
    #[must_use]
    pub fn into_report(self) -> RecoveryReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use mayflower_simcore::testutil::TempDir;

    use mayflower_flowserver::FlowserverConfig;
    use mayflower_fs::ClusterConfig;
    use mayflower_net::{HostId, TreeParams};

    use super::*;

    fn cluster(dir: &TempDir) -> Cluster {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Cluster::create(dir.path(), topo, ClusterConfig::default()).unwrap()
    }

    fn put(c: &Cluster, name: &str, data: &[u8]) -> mayflower_fs::FileMeta {
        let meta = c.nameserver().create(name).unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).create_file(&meta).unwrap();
        }
        c.client(meta.primary()).append(name, data).unwrap();
        c.nameserver().lookup(name).unwrap()
    }

    /// Drives `mgr` one tick per second up to `horizon`, crashing
    /// `victims` just after t = 0.
    fn run(
        mgr: &mut RecoveryManager,
        c: &Cluster,
        fsrv: &mut Flowserver,
        victims: &[HostId],
        horizon: u32,
    ) -> usize {
        let mut last = 0;
        for step in 0..=horizon {
            let now = SimTime::from_secs(f64::from(step));
            last = mgr.tick(c, fsrv, now);
            if step == 0 {
                for v in victims {
                    c.dataserver(*v).crash();
                }
            }
        }
        last
    }

    #[test]
    fn heals_to_full_replication_after_a_crash() {
        let dir = TempDir::new("heal");
        let c = cluster(&dir);
        let mut fsrv = Flowserver::new(Arc::clone(c.topology()), FlowserverConfig::default());
        let a = put(&c, "files/a", b"aaaa");
        let b = put(&c, "files/b", b"bbbbbbbb");
        let victim = a.replicas[0];

        let mut mgr = RecoveryManager::new(&c, RecoveryConfig::default());
        let remaining = run(&mut mgr, &c, &mut fsrv, &[victim], 20);
        assert_eq!(remaining, 0);

        let report = mgr.report();
        assert!(report.full_replication_at.is_some(), "cluster healed");
        assert!(report
            .transitions
            .iter()
            .any(|t| t.host == victim && t.to == HealthState::Dead));
        assert!(!report.completed.is_empty());

        // Every file is back to its replication factor on live hosts.
        for name in ["files/a", "files/b"] {
            let meta = c.nameserver().lookup(name).unwrap();
            assert!(!meta.replicas.contains(&victim), "{name} still on victim");
            for r in &meta.replicas {
                assert!(c.dataserver(*r).has_file(meta.id), "{name} missing on {r}");
            }
        }
        // The repaired copy carries the data, not just metadata.
        let healed = c.nameserver().lookup("files/a").unwrap();
        let fresh = healed
            .replicas
            .iter()
            .find(|r| !a.replicas.contains(r))
            .unwrap();
        let (data, _) = c.dataserver(*fresh).read_local(healed.id, 0, 4).unwrap();
        assert_eq!(data, b"aaaa");
        let _ = b;

        // Telemetry recorded the episode.
        let snap = c.registry().snapshot();
        assert_eq!(
            snap.counter("recovery_detector_transitions_total{to=\"dead\"}"),
            Some(1)
        );
        assert!(
            snap.counter("recovery_repairs_total{outcome=\"repaired\"}")
                .unwrap()
                >= 1
        );
        assert_eq!(snap.gauge("recovery_repair_queue_depth"), Some(0));
    }

    #[test]
    fn disabled_repair_stays_degraded() {
        let dir = TempDir::new("disabled");
        let c = cluster(&dir);
        let mut fsrv = Flowserver::new(Arc::clone(c.topology()), FlowserverConfig::default());
        let a = put(&c, "files/a", b"aaaa");
        let mut mgr = RecoveryManager::new(
            &c,
            RecoveryConfig {
                repair_enabled: false,
                ..RecoveryConfig::default()
            },
        );
        let remaining = run(&mut mgr, &c, &mut fsrv, &[a.replicas[0]], 20);
        assert!(remaining >= 1, "nothing repairs the file");
        let report = mgr.report();
        assert!(report.full_replication_at.is_none());
        assert!(report.planned.is_empty());
        assert!(report.completed.is_empty());
    }

    #[test]
    fn restart_before_confirmation_causes_no_repair() {
        let dir = TempDir::new("flap");
        let c = cluster(&dir);
        let mut fsrv = Flowserver::new(Arc::clone(c.topology()), FlowserverConfig::default());
        let a = put(&c, "files/a", b"aaaa");
        let victim = a.replicas[0];
        let mut mgr = RecoveryManager::new(&c, RecoveryConfig::default());

        mgr.tick(&c, &mut fsrv, SimTime::from_secs(0.0));
        c.dataserver(victim).crash();
        // Silent for 3s: suspect, not dead.
        for s in 1..=3 {
            mgr.tick(&c, &mut fsrv, SimTime::from_secs(f64::from(s)));
        }
        assert_eq!(mgr.detector().state(victim), HealthState::Suspect);
        c.dataserver(victim).restart();
        let remaining = mgr.tick(&c, &mut fsrv, SimTime::from_secs(4.0));
        assert_eq!(remaining, 0);
        assert_eq!(mgr.detector().state(victim), HealthState::Live);
        assert!(mgr.report().planned.is_empty(), "no repair for a flap");
        let meta = c.nameserver().lookup("files/a").unwrap();
        assert_eq!(meta.replicas, a.replicas, "replica set untouched");
    }

    #[test]
    fn rebuilds_lost_fragments_of_a_coded_file() {
        use mayflower_fs::{NameserverConfig, Redundancy};

        use crate::executor::RepairOutcome;

        let dir = TempDir::new("coded");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let c = Cluster::create(
            dir.path(),
            Arc::clone(&topo),
            ClusterConfig {
                nameserver: NameserverConfig {
                    chunk_size: 16,
                    ..NameserverConfig::default()
                },
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
        let mut client = c.client(HostId(0));
        let meta = client
            .create_with("files/coded", Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        let data: Vec<u8> = (0..48u8).collect(); // 3 sealed chunks
        client.append("files/coded", &data).unwrap();
        assert_eq!(
            c.nameserver().lookup("files/coded").unwrap().sealed_chunks,
            3
        );

        // Crash a fragment host that holds no tail replica.
        let victim = meta
            .fragments
            .iter()
            .copied()
            .find(|h| !meta.replicas.contains(h))
            .unwrap();
        let index = meta.fragments.iter().position(|h| *h == victim).unwrap();

        let mut mgr = RecoveryManager::new(&c, RecoveryConfig::default());
        let remaining = run(&mut mgr, &c, &mut fsrv, &[victim], 20);
        assert_eq!(remaining, 0);

        let report = mgr.report();
        assert!(report.full_replication_at.is_some(), "coded loss healed");
        let rebuilt = report
            .completed
            .iter()
            .find(|r| r.fragment == Some(index))
            .expect("a fragment rebuild executed");
        assert_eq!(rebuilt.outcome, RepairOutcome::Repaired);
        assert!(rebuilt.bytes > 0);

        // The fragment map moved off the victim, and every sealed
        // chunk's fragment exists on the new host.
        let healed = c.nameserver().lookup("files/coded").unwrap();
        let dest = healed.fragments[index];
        assert_ne!(dest, victim);
        for chunk in 0..healed.sealed_chunks {
            assert!(c.dataserver(dest).has_fragment(healed.id, chunk, index));
        }
        // Reads stay byte-identical with the victim still down.
        let mut reader = c.client(HostId(1));
        assert_eq!(reader.read("files/coded").unwrap(), data);
        assert_eq!(
            c.registry().snapshot().counter("ec_fragment_repairs_total"),
            Some(1)
        );
    }

    #[test]
    fn same_seed_runs_produce_byte_identical_reports() {
        let one = TempDir::new("det-a");
        let two = TempDir::new("det-b");
        let render = |dir: &TempDir| {
            let c = cluster(dir);
            let mut fsrv = Flowserver::new(Arc::clone(c.topology()), FlowserverConfig::default());
            let a = put(&c, "files/a", &[0x5A; 300]);
            put(&c, "files/b", b"small");
            let mut mgr = RecoveryManager::new(&c, RecoveryConfig::default());
            // Same victim in both runs: placement is seeded, so the
            // replica sets (and thus a.replicas[1]) are identical.
            run(&mut mgr, &c, &mut fsrv, &[a.replicas[1]], 15);
            mgr.into_report().to_json()
        };
        assert_eq!(render(&one), render(&two));
    }
}
