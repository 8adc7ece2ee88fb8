//! Throttled repair execution.
//!
//! The executor owns the repair queue. Each
//! [`step`](RepairExecutor::step) performs at most
//! [`max_repairs_per_tick`](ExecutorConfig::max_repairs_per_tick)
//! pulls and stops early once
//! [`max_bytes_per_tick`](ExecutorConfig::max_bytes_per_tick) bytes
//! have moved — re-replication must not monopolize dataserver disks
//! even though the Flowserver already keeps it off contended links.
//! A `(file, destination, fragment)` triple is never queued twice,
//! and the underlying [`Cluster::repair_to`] /
//! [`Cluster::repair_fragment`] commits are idempotent, so
//! re-planning the same repair while it is queued is harmless.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use mayflower_flowserver::Flowserver;
use mayflower_fs::Cluster;
use mayflower_net::HostId;
use mayflower_simcore::SimTime;
use mayflower_telemetry::{Counter, Gauge, Scope};
use serde::{Deserialize, Serialize};

use crate::planner::RepairTask;

/// Throttling knobs for the executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Repairs performed per tick, regardless of size.
    pub max_repairs_per_tick: usize,
    /// Byte budget per tick; once exceeded the remaining queue waits
    /// for the next tick. At least one repair always proceeds, so a
    /// file larger than the budget still heals.
    pub max_bytes_per_tick: u64,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            max_repairs_per_tick: 2,
            max_bytes_per_tick: 64 * 1024 * 1024,
        }
    }
}

/// How one executed repair ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairOutcome {
    /// Data was copied and the new replica committed.
    Repaired,
    /// Nothing to do: the file was already fully replicated when the
    /// repair ran (another path healed it first).
    AlreadyHealthy,
    /// The pull or commit failed; the planner will retry on a later
    /// tick if the file is still under-replicated.
    Failed,
}

impl RepairOutcome {
    /// Short stable label used in metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RepairOutcome::Repaired => "repaired",
            RepairOutcome::AlreadyHealthy => "noop",
            RepairOutcome::Failed => "failed",
        }
    }
}

/// A serializable record of one executed repair, kept in the
/// [`RecoveryReport`](crate::report::RecoveryReport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedRepair {
    /// When the repair executed.
    pub at: SimTime,
    /// The file repaired.
    pub file: String,
    /// The replica the data was pulled from.
    pub source: HostId,
    /// The host now holding the rebuilt replica.
    pub dest: HostId,
    /// Bytes actually copied (0 for no-ops).
    pub bytes: u64,
    /// How the repair ended.
    pub outcome: RepairOutcome,
    /// The fragment index for a coded rebuild, `None` for a replica
    /// copy.
    pub fragment: Option<usize>,
}

#[derive(Debug)]
struct ExecutorMetrics {
    queue_depth: Arc<Gauge>,
    repaired: Arc<Counter>,
    noop: Arc<Counter>,
    failed: Arc<Counter>,
}

impl ExecutorMetrics {
    fn new(scope: &Scope) -> ExecutorMetrics {
        ExecutorMetrics {
            queue_depth: scope.gauge("repair_queue_depth"),
            repaired: scope.counter_with("repairs_total", &[("outcome", "repaired")]),
            noop: scope.counter_with("repairs_total", &[("outcome", "noop")]),
            failed: scope.counter_with("repairs_total", &[("outcome", "failed")]),
        }
    }
}

/// The throttled repair queue.
#[derive(Debug)]
pub struct RepairExecutor {
    config: ExecutorConfig,
    queue: VecDeque<RepairTask>,
    queued_keys: BTreeSet<(String, HostId, Option<usize>)>,
    metrics: ExecutorMetrics,
}

impl RepairExecutor {
    /// Creates an empty executor whose `repair_queue_depth` gauge and
    /// per-outcome `repairs_total` counters live in `scope`.
    #[must_use]
    pub fn new(config: ExecutorConfig, scope: &Scope) -> RepairExecutor {
        let metrics = ExecutorMetrics::new(scope);
        metrics.queue_depth.set(0);
        RepairExecutor {
            config,
            queue: VecDeque::new(),
            queued_keys: BTreeSet::new(),
            metrics,
        }
    }

    /// Appends tasks to the queue, skipping any `(file, dest,
    /// fragment)` triple already queued. Returns how many were
    /// accepted.
    pub fn enqueue(&mut self, tasks: Vec<RepairTask>) -> usize {
        let mut accepted = 0;
        for t in tasks {
            let key = (t.name.clone(), t.dest, t.fragment);
            if self.queued_keys.insert(key) {
                self.queue.push_back(t);
                accepted += 1;
            }
        }
        self.metrics.queue_depth.set(self.queue.len() as i64);
        accepted
    }

    /// Pending repairs.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether any repair for `name` is still queued — the manager
    /// skips re-planning such files so each under-replication episode
    /// installs one background flow per replacement, not one per tick.
    #[must_use]
    pub fn has_pending(&self, name: &str) -> bool {
        self.queued_keys.iter().any(|(n, _, _)| n == name)
    }

    /// Executes up to the per-tick budget of queued repairs against
    /// `cluster`, releasing each task's background flow on the
    /// `flowserver` once its copy finishes (success or not — the flow
    /// is over either way). Returns the executed records in order.
    pub fn step(
        &mut self,
        cluster: &Cluster,
        flowserver: &mut Flowserver,
        now: SimTime,
    ) -> Vec<CompletedRepair> {
        use mayflower_telemetry::trace;
        let trace_handle = cluster.tracer().handle("recovery");
        let mut done = Vec::new();
        let mut bytes_moved: u64 = 0;
        while done.len() < self.config.max_repairs_per_tick {
            if !done.is_empty() && bytes_moved >= self.config.max_bytes_per_tick {
                break;
            }
            let Some(task) = self.queue.pop_front() else {
                break;
            };
            self.queued_keys
                .remove(&(task.name.clone(), task.dest, task.fragment));
            // One span per executed repair task: the cluster's own
            // repair spans (copy / rebuild) nest underneath it.
            let mut span = trace_handle.span("repair_task");
            trace::annotate(&mut span, "file", &task.name);
            trace::annotate(&mut span, "source", task.source.0);
            trace::annotate(&mut span, "dest", task.dest.0);
            if let Some(index) = task.fragment {
                trace::annotate(&mut span, "fragment", index);
            }
            let result = trace::in_span(span, |span| {
                match task.fragment {
                    Some(index) => cluster.repair_fragment(&task.name, index, task.dest),
                    None => cluster.repair_to(&task.name, task.source, task.dest),
                }
                .inspect(|bytes| trace::annotate(span, "bytes", bytes))
            });
            if let Some(cookie) = task.cookie {
                flowserver.flow_completed(cookie);
            }
            let (bytes, outcome) = match result {
                Ok(0) => (0, RepairOutcome::AlreadyHealthy),
                Ok(n) => (n, RepairOutcome::Repaired),
                Err(_) => (0, RepairOutcome::Failed),
            };
            bytes_moved += bytes;
            match outcome {
                RepairOutcome::Repaired => self.metrics.repaired.inc(),
                RepairOutcome::AlreadyHealthy => self.metrics.noop.inc(),
                RepairOutcome::Failed => self.metrics.failed.inc(),
            }
            done.push(CompletedRepair {
                at: now,
                file: task.name,
                source: task.source,
                dest: task.dest,
                bytes,
                outcome,
                fragment: task.fragment,
            });
        }
        self.metrics.queue_depth.set(self.queue.len() as i64);
        done
    }
}

#[cfg(test)]
mod tests {
    use mayflower_simcore::testutil::TempDir;
    use std::sync::Arc;

    use mayflower_flowserver::{FlowserverConfig, Selection};
    use mayflower_fs::ClusterConfig;
    use mayflower_net::{Topology, TreeParams};

    use super::*;

    fn cluster(dir: &TempDir) -> (Cluster, Arc<Topology>) {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let c = Cluster::create(dir.path(), Arc::clone(&topo), ClusterConfig::default()).unwrap();
        (c, topo)
    }

    /// A scope in a registry no test reads.
    fn scope() -> Scope {
        mayflower_telemetry::Registry::new().scope("recovery")
    }

    /// Writes a file through the primary and returns its metadata.
    fn put(c: &Cluster, name: &str, data: &[u8]) -> mayflower_fs::FileMeta {
        let meta = c.nameserver().create(name).unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).unwrap().create_file(&meta).unwrap();
        }
        c.client(meta.primary()).append(name, data).unwrap();
        c.nameserver().lookup(name).unwrap()
    }

    fn task_for(
        c: &Cluster,
        fsrv: &mut Flowserver,
        name: &str,
        source: HostId,
        dest: HostId,
    ) -> RepairTask {
        let meta = c.nameserver().lookup(name).unwrap();
        let sel = fsrv.select_repair_flow(
            dest,
            &[source],
            (meta.size as f64 * 8.0).max(1.0),
            SimTime::ZERO,
        );
        let cookie = match sel {
            Selection::Single(a) => Some(a.cookie),
            _ => None,
        };
        RepairTask {
            name: name.to_string(),
            id: meta.id,
            source,
            dest,
            bytes: meta.size,
            cookie,
            fragment: None,
        }
    }

    fn fresh_dest(c: &Cluster, meta: &mayflower_fs::FileMeta) -> HostId {
        c.topology()
            .hosts()
            .into_iter()
            .find(|h| !meta.replicas.contains(h))
            .unwrap()
    }

    #[test]
    fn executes_commits_and_releases_flow() {
        let dir = TempDir::new("exec");
        let (c, topo) = cluster(&dir);
        let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
        let meta = put(&c, "files/a", b"payload");
        let dead = meta.replicas[1];
        c.dataserver(dead).unwrap().crash();
        let dest = fresh_dest(&c, &meta);

        let reg = mayflower_telemetry::Registry::new();
        let mut ex = RepairExecutor::new(ExecutorConfig::default(), &reg.scope("recovery"));
        let accepted = ex.enqueue(vec![task_for(
            &c,
            &mut fsrv,
            "files/a",
            meta.replicas[0],
            dest,
        )]);
        assert_eq!(accepted, 1);
        assert_eq!(fsrv.tracked_flows(), 1);

        let done = ex.step(&c, &mut fsrv, SimTime::from_secs(1.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outcome, RepairOutcome::Repaired);
        assert_eq!(done[0].bytes, 7);
        assert_eq!(fsrv.tracked_flows(), 0, "flow released after the copy");
        assert_eq!(ex.queue_len(), 0);

        // The commit replaced the dead replica.
        let healed = c.nameserver().lookup("files/a").unwrap();
        assert!(healed.replicas.contains(&dest));
        assert!(!healed.replicas.contains(&dead));
        let (data, _) = c
            .dataserver(dest)
            .unwrap()
            .read_local(healed.id, 0, 7)
            .unwrap();
        assert_eq!(data, b"payload");

        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("recovery_repairs_total{outcome=\"repaired\"}"),
            Some(1)
        );
        assert_eq!(snap.gauge("recovery_repair_queue_depth"), Some(0));
    }

    #[test]
    fn duplicate_tasks_are_dropped_and_reexecution_is_noop() {
        let dir = TempDir::new("dedup");
        let (c, topo) = cluster(&dir);
        let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
        let meta = put(&c, "files/a", b"xyz");
        c.dataserver(meta.replicas[1]).unwrap().crash();
        let dest = fresh_dest(&c, &meta);

        let mut ex = RepairExecutor::new(ExecutorConfig::default(), &scope());
        let t = task_for(&c, &mut fsrv, "files/a", meta.replicas[0], dest);
        let mut dup = t.clone();
        dup.cookie = None;
        assert_eq!(
            ex.enqueue(vec![t, dup.clone()]),
            1,
            "same (file, dest) queued once"
        );

        let done = ex.step(&c, &mut fsrv, SimTime::ZERO);
        assert_eq!(done[0].outcome, RepairOutcome::Repaired);

        // After execution the key is free again, but re-running the
        // repair against a healthy file is a no-op, not a corruption.
        assert_eq!(ex.enqueue(vec![dup]), 1);
        let done = ex.step(&c, &mut fsrv, SimTime::ZERO);
        assert_eq!(done[0].outcome, RepairOutcome::AlreadyHealthy);
        assert_eq!(done[0].bytes, 0);
    }

    #[test]
    fn per_tick_budgets_throttle_the_queue() {
        let dir = TempDir::new("throttle");
        let (c, topo) = cluster(&dir);
        let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
        // Three damaged files, budget of one repair per tick.
        let mut tasks = Vec::new();
        for i in 0..3 {
            let name = format!("files/f{i}");
            let meta = put(&c, &name, b"0123456789");
            c.dataserver(meta.replicas[1]).unwrap().crash();
            let dest = fresh_dest(&c, &meta);
            tasks.push(task_for(&c, &mut fsrv, &name, meta.replicas[0], dest));
        }
        let mut ex = RepairExecutor::new(
            ExecutorConfig {
                max_repairs_per_tick: 1,
                max_bytes_per_tick: u64::MAX,
            },
            &scope(),
        );
        ex.enqueue(tasks);
        assert_eq!(ex.queue_len(), 3);
        assert_eq!(ex.step(&c, &mut fsrv, SimTime::ZERO).len(), 1);
        assert_eq!(ex.queue_len(), 2);
        assert_eq!(ex.step(&c, &mut fsrv, SimTime::ZERO).len(), 1);
        assert_eq!(ex.step(&c, &mut fsrv, SimTime::ZERO).len(), 1);
        assert_eq!(ex.step(&c, &mut fsrv, SimTime::ZERO).len(), 0);
    }

    #[test]
    fn byte_budget_defers_but_never_starves() {
        let dir = TempDir::new("bytes");
        let (c, topo) = cluster(&dir);
        let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
        let mut tasks = Vec::new();
        for i in 0..2 {
            let name = format!("files/big{i}");
            let meta = put(&c, &name, &[0xAB; 100]);
            c.dataserver(meta.replicas[1]).unwrap().crash();
            let dest = fresh_dest(&c, &meta);
            tasks.push(task_for(&c, &mut fsrv, &name, meta.replicas[0], dest));
        }
        // Budget far below one file: each tick still repairs exactly
        // one file (the no-starvation rule), then stops.
        let mut ex = RepairExecutor::new(
            ExecutorConfig {
                max_repairs_per_tick: 10,
                max_bytes_per_tick: 10,
            },
            &scope(),
        );
        ex.enqueue(tasks);
        assert_eq!(ex.step(&c, &mut fsrv, SimTime::ZERO).len(), 1);
        assert_eq!(ex.step(&c, &mut fsrv, SimTime::ZERO).len(), 1);
        assert_eq!(ex.queue_len(), 0);
    }

    #[test]
    fn failed_pull_reports_failed_and_releases_flow() {
        let dir = TempDir::new("fail");
        let (c, topo) = cluster(&dir);
        let mut fsrv = Flowserver::new(topo, FlowserverConfig::default());
        let meta = put(&c, "files/a", b"data");
        c.dataserver(meta.replicas[1]).unwrap().crash();
        let dest = fresh_dest(&c, &meta);
        // Choose the *crashed* replica as source: the pull must fail.
        let t = task_for(&c, &mut fsrv, "files/a", meta.replicas[1], dest);
        let mut ex = RepairExecutor::new(ExecutorConfig::default(), &scope());
        ex.enqueue(vec![t]);
        let done = ex.step(&c, &mut fsrv, SimTime::ZERO);
        assert_eq!(done[0].outcome, RepairOutcome::Failed);
        assert_eq!(fsrv.tracked_flows(), 0);
        // The file is still damaged; a corrected task heals it.
        assert!(!c.dataserver(dest).unwrap().has_file(meta.id));
        let t2 = task_for(&c, &mut fsrv, "files/a", meta.replicas[0], dest);
        ex.enqueue(vec![t2]);
        let done = ex.step(&c, &mut fsrv, SimTime::ZERO);
        assert_eq!(done[0].outcome, RepairOutcome::Repaired);
    }
}
