//! The discrete-event experiment engine: replays a traffic matrix
//! against a selection strategy over the fluid network.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use mayflower_baselines::hedera::{estimate_demands, Hedera, HederaFlow};
use mayflower_baselines::{nearest_replica, SinbadR};
use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_net::{ecmp_path, FlowKey, HostId, LinkId, Path, Topology};
use mayflower_sdn::FlowCookie;
use mayflower_simcore::{EventQueue, FaultSchedule, SimRng, SimTime};
use mayflower_simnet::{FlowCompletion, FlowId, Work};
use mayflower_telemetry::Registry;
use mayflower_workload::{ReadJob, TrafficMatrix};
use serde::{Deserialize, Serialize};

use crate::driver::Driver;
use crate::faults::{
    self, AppliedFault, DegradedDecision, FaultAction, FaultReport, FlowAbort, JobRetry, MissedPoll,
};
use crate::monitor::LinkLoadMonitor;
use crate::strategy::Strategy;

/// Outcome of one read job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job's id in the trace.
    pub id: usize,
    /// When the client issued the request.
    pub arrival: SimTime,
    /// When the last byte arrived.
    pub finish: SimTime,
    /// Whether the read was served from a co-located replica (no
    /// network transfer).
    pub local: bool,
    /// How many subflows carried the read (2 for a §4.3 split).
    pub subflows: usize,
    /// Finish time of each subflow, for split-skew analysis.
    pub subflow_finishes: Vec<SimTime>,
}

impl JobRecord {
    /// Job completion time in seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.finish.secs_since(self.arrival)
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    Poll,
    /// Apply the i-th compiled fault action.
    Fault(usize),
    /// A client retries an aborted or unassignable read.
    Retry(usize),
}

/// Callbacks letting a caller attach real work to the simulated jobs.
///
/// The Figure 8 prototype experiment implements these to drive the
/// **real** Mayflower filesystem: metadata lookups through the
/// nameserver on arrival, and real chunk reads from the chosen
/// replica's dataserver per assignment — while the engine keeps
/// charging transfer *time* through the fluid network model.
pub trait JobHooks {
    /// A job arrived (before replica selection).
    fn on_arrival(&mut self, job: &ReadJob) {
        let _ = job;
    }
    /// A replica was assigned `bytes` of the job's read.
    fn on_assignment(&mut self, job: &ReadJob, replica: HostId, bytes: f64) {
        let _ = (job, replica, bytes);
    }
}

/// The no-op hooks used by pure simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl JobHooks for NoHooks {}

/// Base client retry backoff after an aborted transfer or a failed
/// selection, seconds; grows linearly with the attempt count.
const RETRY_BACKOFF_SECS: f64 = 0.25;

/// Engine options beyond the strategy itself.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Stats poll interval for both the Flowserver and Sinbad's
    /// monitor, seconds.
    pub poll_interval_secs: f64,
    /// Flowserver configuration (multipath, ablation switches). The
    /// `poll_interval_secs` and `multipath` fields are overridden from
    /// this struct and the strategy respectively.
    pub flowserver: FlowserverConfig,
    /// Fault schedule to inject (empty = fault-free run; the engine
    /// then behaves bit-for-bit like the pre-fault code path).
    pub faults: FaultSchedule,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            poll_interval_secs: 1.0,
            flowserver: FlowserverConfig::default(),
            faults: FaultSchedule::default(),
        }
    }
}

/// Everything one replay produced.
#[derive(Debug)]
pub struct ReplayOutput {
    /// Per-job records, in job order.
    pub jobs: Vec<JobRecord>,
    /// Cumulative bits carried per directed link — the raw material
    /// for hotspot/utilization analysis.
    pub link_bits: HashMap<LinkId, f64>,
    /// Every fault applied and every degraded-mode decision taken
    /// (empty on a fault-free run).
    pub fault_report: FaultReport,
    /// The work the fabric's rate refreshes did: plain counts, exact
    /// for a given seed, read by no series.
    pub fabric_work: Work,
    /// The run's telemetry. Every layer under the engine — the
    /// Flowserver, Sinbad's monitor, and the engine itself — homes its
    /// metrics here, and all recorded values are sim-time- or
    /// model-derived, so the snapshot renders to identical bytes across
    /// runs with the same seed.
    pub registry: Registry,
}

/// Replays `matrix` on `topo` under `strategy` and returns the per-job
/// records in job order.
///
/// All strategies see identical arrivals, file placements and client
/// locations; stochastic tie-breaking draws from `rng`. The Flowserver
/// (when used) and Sinbad's monitor observe the network only through
/// counters polled every `poll_interval_secs`.
pub fn replay(
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
    strategy: Strategy,
    poll_interval_secs: f64,
    rng: &mut SimRng,
) -> Vec<JobRecord> {
    let opts = ReplayOptions {
        poll_interval_secs,
        ..ReplayOptions::default()
    };
    replay_full(topo, matrix, strategy, &opts, rng, &mut NoHooks).jobs
}

/// [`replay_full`] narrowed to the records, the fault report and the
/// telemetry registry.
pub fn replay_with_telemetry(
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
    strategy: Strategy,
    opts: &ReplayOptions,
    rng: &mut SimRng,
    hooks: &mut dyn JobHooks,
) -> (Vec<JobRecord>, FaultReport, Registry) {
    let out = replay_full(topo, matrix, strategy, opts, rng, hooks);
    (out.jobs, out.fault_report, out.registry)
}

/// The fully-parameterized engine: [`replay`] plus [`JobHooks`], the
/// Flowserver ablation/tuning options and a fault schedule
/// (`opts.faults`), whose compiled faults drive the abort-and-retry
/// recovery machinery. Same seed + same schedule ⇒ byte-identical
/// output.
pub fn replay_full(
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
    strategy: Strategy,
    opts: &ReplayOptions,
    rng: &mut SimRng,
    hooks: &mut dyn JobHooks,
) -> ReplayOutput {
    let mut run = Run::new(topo, matrix, strategy, opts);
    run.execute(rng, hooks);
    run.finish()
}

/// One subflow to admit: source replica, route, bits, and the
/// Flowserver's cookie if it scheduled the flow.
type Subflow = (HostId, Path, f64, Option<FlowCookie>);

/// The subflows of a Flowserver selection.
fn scheduled(sel: &Selection) -> Vec<Subflow> {
    let assignments = sel.assignments().iter();
    assignments
        .map(|a| (a.replica, a.path.clone(), a.size_bits, Some(a.cookie)))
        .collect()
}

/// Completion times (seconds) of the remote jobs, in job order.
pub(crate) fn remote_durations(jobs: &[JobRecord]) -> Vec<f64> {
    let remote = jobs.iter().filter(|j| !j.local);
    remote.map(JobRecord::duration_secs).collect()
}

/// Picks a shortest path from `replica` to `client` that avoids every
/// downed link, deterministically salted by the job id; `None` when
/// the faults sever all of them.
fn path_avoiding(
    topo: &Arc<Topology>,
    replica: HostId,
    client: HostId,
    salt: usize,
    down_links: &BTreeSet<LinkId>,
) -> Option<Path> {
    let paths = topo.shortest_paths(replica, client);
    let live: Vec<&Path> = paths
        .iter()
        .filter(|p| p.links().iter().all(|l| !down_links.contains(l)))
        .collect();
    if live.is_empty() {
        None
    } else {
        Some(live[salt % live.len()].clone())
    }
}

/// One replay in progress: the driven fabric, the observers and
/// baselines beside it, the event queue, the fault state and every
/// job's progress.
struct Run<'a> {
    topo: &'a Arc<Topology>,
    matrix: &'a TrafficMatrix,
    strategy: Strategy,
    opts: &'a ReplayOptions,
    registry: Registry,
    driver: Driver,
    sinbad: SinbadR,
    hedera: Option<Hedera>,
    monitor: LinkLoadMonitor,
    queue: EventQueue<Event>,

    // Fault-injection state. With an empty schedule every structure
    // stays empty and the engine follows the exact pre-fault paths.
    actions: Vec<(SimTime, FaultAction)>,
    report: FaultReport,
    link_down_causes: BTreeMap<LinkId, u32>,
    down_links: BTreeSet<LinkId>,
    down_hosts: BTreeSet<HostId>,
    flowserver_up: bool,
    pending_poll_losses: usize,

    // Per-job progress, indexed by job id.
    retry_bits: Vec<f64>,
    retry_count: Vec<u32>,
    pending_subflows: Vec<usize>,
    partial: Vec<Vec<SimTime>>,
    records: Vec<Option<JobRecord>>,
    jobs_done: usize,
}

impl<'a> Run<'a> {
    fn new(
        topo: &'a Arc<Topology>,
        matrix: &'a TrafficMatrix,
        strategy: Strategy,
        opts: &'a ReplayOptions,
    ) -> Run<'a> {
        assert!(
            opts.poll_interval_secs > 0.0,
            "poll interval must be positive"
        );
        let registry = Registry::new();
        let flowserver = strategy.uses_flowserver().then(|| {
            let mut fs = Flowserver::new(
                topo.clone(),
                FlowserverConfig {
                    poll_interval_secs: opts.poll_interval_secs,
                    multipath: strategy == Strategy::MayflowerMultipath,
                    ..opts.flowserver.clone()
                },
            );
            fs.attach_metrics(&registry);
            fs
        });
        let monitor = LinkLoadMonitor::new(topo, &registry.scope("sim").scope("monitor"));

        let total_jobs = matrix.jobs.len();
        let mut queue: EventQueue<Event> = EventQueue::new();
        for job in &matrix.jobs {
            queue.schedule(job.arrival, Event::Arrival(job.id));
        }
        queue.schedule(SimTime::from_secs(opts.poll_interval_secs), Event::Poll);
        let actions = faults::compile(topo, &opts.faults);
        for (i, (at, _)) in actions.iter().enumerate() {
            queue.schedule(*at, Event::Fault(i));
        }

        Run {
            topo,
            matrix,
            strategy,
            opts,
            driver: Driver::new(topo, flowserver),
            registry,
            sinbad: SinbadR::new(),
            hedera: strategy.uses_hedera().then(Hedera::new),
            monitor,
            queue,
            actions,
            report: FaultReport::default(),
            link_down_causes: BTreeMap::new(),
            down_links: BTreeSet::new(),
            down_hosts: BTreeSet::new(),
            flowserver_up: true,
            pending_poll_losses: 0,
            retry_bits: vec![0.0; total_jobs],
            retry_count: vec![0; total_jobs],
            pending_subflows: vec![0; total_jobs],
            partial: vec![Vec::new(); total_jobs],
            records: vec![None; total_jobs],
            jobs_done: 0,
        }
    }

    /// Runs the event loop until every job has a record.
    fn execute(&mut self, rng: &mut SimRng, hooks: &mut dyn JobHooks) {
        while self.jobs_done < self.records.len() {
            let (done, event) = self.driver.step(&mut self.queue);
            for (job, c) in done {
                self.subflow_done(job, &c);
            }
            match event {
                None => {}
                Some((t, Event::Poll)) => self.poll(t),
                Some((t, Event::Arrival(id))) => self.start(id, false, t, rng, hooks),
                Some((t, Event::Retry(id))) => self.start(id, true, t, rng, hooks),
                Some((t, Event::Fault(i))) => self.apply_fault(i, t),
            }
        }
    }

    /// One subflow of `job` delivered its last byte; the job is done
    /// when its last subflow is.
    fn subflow_done(&mut self, job: usize, c: &FlowCompletion) {
        self.partial[job].push(c.at);
        self.pending_subflows[job] -= 1;
        if self.pending_subflows[job] == 0 {
            self.records[job] = Some(JobRecord {
                id: job,
                arrival: self.matrix.jobs[job].arrival,
                finish: c.at,
                local: false,
                subflows: self.partial[job].len(),
                subflow_finishes: std::mem::take(&mut self.partial[job]),
            });
            self.jobs_done += 1;
        }
    }

    /// A poll tick: Sinbad's monitor samples, the Flowserver polls (or
    /// misses the poll), Hedera runs a round.
    fn poll(&mut self, t: SimTime) {
        self.monitor.sample(self.driver.net(), t);
        let missed = self.strategy.uses_flowserver()
            && (!self.flowserver_up || self.pending_poll_losses > 0);
        if missed {
            // The poll never reaches the Flowserver (outage or a lost
            // stats reply): no UPDATEBW arrives, so expired
            // update-freezes are cleared on the clock instead.
            let reason = if self.flowserver_up {
                self.pending_poll_losses -= 1;
                "stats-poll-loss"
            } else {
                "flowserver-outage"
            };
            let fs = self.driver.flowserver();
            fs.note_poll_missed(t);
            let freezes_expired = fs.expire_stale_freezes(t);
            self.report.missed_polls.push(MissedPoll {
                at: t,
                reason: reason.into(),
                freezes_expired,
            });
        } else {
            self.driver.poll(t);
        }
        if let Some(hedera) = &self.hedera {
            // One Hedera round: estimate natural demands from flow
            // endpoints, then globally first-fit reroute.
            let snapshot = self.driver.active_paths();
            let endpoints: Vec<(HostId, HostId)> =
                snapshot.iter().map(|(_, p)| (p.src(), p.dst())).collect();
            let demands = estimate_demands(self.topo, &endpoints);
            let hflows: Vec<HederaFlow> = snapshot
                .iter()
                .zip(&demands)
                .map(|((id, path), demand)| HederaFlow {
                    id: id.0,
                    path: path.clone(),
                    demand_bps: *demand,
                })
                .collect();
            for (id, new_path) in hedera.reschedule(self.topo, &hflows) {
                // Hedera is fault-oblivious: drop any reroute that
                // would land a flow on a severed link.
                if new_path
                    .links()
                    .iter()
                    .all(|l| !self.down_links.contains(l))
                {
                    self.driver.reroute(FlowId(id), new_path);
                }
            }
        }
        let next = t + SimTime::from_secs(self.opts.poll_interval_secs);
        self.queue.schedule(next, Event::Poll);
    }

    /// A job arrives, or retries after an abort or a failed selection:
    /// serve it locally, or select and admit its subflows, or back off.
    fn start(
        &mut self,
        id: usize,
        is_retry: bool,
        t: SimTime,
        rng: &mut SimRng,
        hooks: &mut dyn JobHooks,
    ) {
        if self.records[id].is_some() {
            // A retry raced a completion; nothing left to do.
            return;
        }
        let job = &self.matrix.jobs[id];
        let client = job.client;
        let replicas = self.matrix.replicas_of(job);
        let size = if is_retry {
            // Only the un-delivered remainder is re-fetched.
            self.retry_bits[id].max(1.0)
        } else {
            hooks.on_arrival(job);
            self.matrix.size_of(job)
        };

        if replicas.contains(&client) && !self.down_hosts.contains(&client) {
            // Served locally: the paper excludes this from network
            // analysis; completion is immediate. (A retry lands here
            // when the co-located dataserver restarted in the meantime
            // — the remainder is then a local read.)
            let finishes = std::mem::take(&mut self.partial[id]);
            self.records[id] = Some(JobRecord {
                id,
                arrival: job.arrival,
                finish: t,
                local: finishes.is_empty(),
                subflows: finishes.len(),
                subflow_finishes: finishes,
            });
            self.jobs_done += 1;
            return;
        }
        if replicas.contains(&client) {
            // The co-located replica's dataserver is down: the read
            // degrades to a remote transfer.
            self.degraded(t, id, "local-replica-down", u32::MAX);
        }

        let live: Vec<HostId> = replicas
            .iter()
            .copied()
            .filter(|r| !self.down_hosts.contains(r))
            .collect();
        let assignments = self.select_assignments(rng, job, &live, size, t);
        if assignments.is_empty() {
            // No usable replica or path right now: back off and retry
            // once the fault window passes.
            self.retry_bits[id] = size;
            self.schedule_retry(id, t);
            return;
        }
        self.pending_subflows[id] = assignments.len();
        for (replica, path, bits, cookie) in assignments {
            hooks.on_assignment(job, replica, bits);
            self.driver.admit(id, path, bits, cookie, t);
        }
    }

    /// Records a degraded-mode decision in the fault report.
    fn degraded(&mut self, at: SimTime, job: usize, reason: &str, replica: u32) {
        self.report.degraded.push(DegradedDecision {
            at,
            job,
            reason: reason.into(),
            replica,
        });
    }

    /// Replica + path selection for one job, fault-aware: filters out
    /// crashed hosts and severed paths, falls back to nearest-replica
    /// when the Flowserver is unreachable, and returns an empty vector
    /// (retry later) when no usable assignment exists. On the
    /// fault-free path it reproduces the original selection logic
    /// exactly.
    fn select_assignments(
        &mut self,
        rng: &mut SimRng,
        job: &ReadJob,
        live_replicas: &[HostId],
        size: f64,
        t: SimTime,
    ) -> Vec<Subflow> {
        let (topo, strategy, client) = (self.topo, self.strategy, job.client);
        if live_replicas.is_empty() {
            self.degraded(t, job.id, "replicas-down", u32::MAX);
            return Vec::new();
        }

        if strategy.uses_flowserver() && !self.flowserver_up {
            // Flowserver outage: degrade to the HDFS-style
            // nearest-replica policy with a severed-link-aware path —
            // reads never block on the control plane.
            let replica = nearest_replica(topo, client, live_replicas, rng);
            return match path_avoiding(topo, replica, client, job.id, &self.down_links) {
                Some(path) => {
                    self.degraded(t, job.id, "flowserver-outage-nearest-fallback", replica.0);
                    vec![(replica, path, size, None)]
                }
                None => {
                    self.degraded(t, job.id, "selection-unavailable", u32::MAX);
                    Vec::new()
                }
            };
        }

        let assignments = if matches!(strategy, Strategy::Mayflower | Strategy::MayflowerMultipath)
        {
            let fs = self.driver.flowserver();
            scheduled(&fs.select_replica_path(client, live_replicas, size, t))
        } else {
            // Every other scheme fixes the replica first: Sinbad-R by
            // measured load, the rest by distance.
            let replica = if strategy.uses_sinbad() {
                self.sinbad
                    .select(topo, client, live_replicas, &self.monitor, rng)
            } else {
                nearest_replica(topo, client, live_replicas, rng)
            };
            if strategy.uses_flowserver() {
                let fs = self.driver.flowserver();
                scheduled(&fs.select_path_for_replica(client, replica, size, t))
            } else {
                let key = FlowKey::new(replica, client, job.id as u64);
                let hashed = ecmp_path(topo, key).expect("distinct hosts always have a path");
                let down = &self.down_links;
                if down.is_empty() || hashed.links().iter().all(|l| !down.contains(l)) {
                    vec![(replica, hashed, size, None)]
                } else {
                    // ECMP is fault-oblivious; the rerouted pick models
                    // the fabric converging after the port-down
                    // notification.
                    match path_avoiding(topo, replica, client, job.id, down) {
                        Some(path) => {
                            self.degraded(t, job.id, "ecmp-rerouted", replica.0);
                            vec![(replica, path, size, None)]
                        }
                        None => Vec::new(),
                    }
                }
            }
        };

        if assignments.is_empty() {
            // The Flowserver answered `Unavailable` (or every ECMP path
            // is severed): nothing installed, the client backs off.
            self.degraded(t, job.id, "selection-unavailable", u32::MAX);
        }
        assignments
    }

    /// Schedules the job's next retry with linear per-attempt backoff.
    fn schedule_retry(&mut self, job: usize, now: SimTime) {
        self.retry_count[job] += 1;
        let attempt = self.retry_count[job];
        assert!(
            attempt <= 200,
            "job {job} exhausted its retry budget: the fault schedule leaves \
             no usable replica or path for it"
        );
        let backoff = RETRY_BACKOFF_SECS * f64::from(attempt);
        let fire = now + SimTime::from_secs(backoff);
        self.queue.schedule(fire, Event::Retry(job));
        self.report.retries.push(JobRetry {
            at: fire,
            job,
            attempt,
        });
    }

    /// Aborts every in-flight subflow of `job` (client timeout
    /// semantics: the read restarts as a unit), credits delivered bits,
    /// and schedules the retry.
    fn abort_and_retry(&mut self, job: usize, t: SimTime) {
        let remaining = self.driver.abort(job);
        self.pending_subflows[job] = 0;
        // Bits already delivered (by completed sibling subflows and the
        // aborted flows' own progress) stay delivered; only the
        // remainder is re-fetched.
        self.retry_bits[job] = remaining.max(1.0);
        self.report.aborts.push(FlowAbort {
            at: t,
            job,
            bits_refetched: remaining,
        });
        self.schedule_retry(job, t);
    }

    /// Marks a cause for `link` being down, severing it on the first
    /// cause.
    fn sever_link(&mut self, link: LinkId) {
        let c = self.link_down_causes.entry(link).or_insert(0);
        *c += 1;
        if *c == 1 {
            self.down_links.insert(link);
            self.driver.set_link_up(link, false);
        }
    }

    /// Removes one cause for `link` being down, healing it when no
    /// cause remains (a link under both a cable cut and a dead switch
    /// stays down until both recover).
    fn heal_link(&mut self, link: LinkId) {
        let Some(c) = self.link_down_causes.get_mut(&link) else {
            return;
        };
        *c = c.saturating_sub(1);
        if *c == 0 {
            self.link_down_causes.remove(&link);
            self.down_links.remove(&link);
            self.driver.set_link_up(link, true);
        }
    }

    /// Applies the `i`-th compiled fault, then aborts every job it
    /// stalled or whose source it killed.
    fn apply_fault(&mut self, i: usize, t: SimTime) {
        let action = self.actions[i].1.clone();
        let component = match &action {
            FaultAction::LinkDown(l) | FaultAction::LinkUp(l) => l.0,
            FaultAction::DataserverCrash(h) | FaultAction::DataserverRestart(h) => h.0,
            FaultAction::SwitchDown(links) | FaultAction::SwitchUp(links) => {
                links.first().map_or(u32::MAX, |l| l.0)
            }
            _ => u32::MAX,
        };
        self.report.applied.push(AppliedFault {
            at: t,
            kind: action.label().into(),
            component,
        });

        let mut jobs_hit: BTreeSet<usize> = BTreeSet::new();
        match action {
            FaultAction::LinkDown(l) => {
                self.sever_link(l);
                self.sever_link(self.topo.reverse_link(l));
            }
            FaultAction::LinkUp(l) => {
                self.heal_link(l);
                self.heal_link(self.topo.reverse_link(l));
            }
            FaultAction::SwitchDown(links) => links.into_iter().for_each(|l| self.sever_link(l)),
            FaultAction::SwitchUp(links) => links.into_iter().for_each(|l| self.heal_link(l)),
            FaultAction::DataserverCrash(h) => {
                self.down_hosts.insert(h);
                // Transfers sourced at the crashed dataserver die with
                // it.
                jobs_hit.extend(self.driver.jobs_sourced_at(h));
            }
            FaultAction::DataserverRestart(h) => {
                self.down_hosts.remove(&h);
            }
            FaultAction::FlowserverDown => self.flowserver_up = false,
            FaultAction::FlowserverUp => self.flowserver_up = true,
            FaultAction::StatsPollLoss => self.pending_poll_losses += 1,
        }
        // Severed links stall every flow crossing them; the owning
        // clients time out and retry.
        jobs_hit.extend(self.driver.stalled_jobs());
        for job in jobs_hit {
            self.abort_and_retry(job, t);
        }
    }

    /// Closes the run: per-link usage, the records in job order and the
    /// job-level metrics.
    fn finish(self) -> ReplayOutput {
        let net = self.driver.net();
        let fabric_work = net.work();
        let link_bits: HashMap<LinkId, f64> = self
            .topo
            .links()
            .iter()
            .map(|l| (l.id(), net.link_bits(l.id())))
            .collect();
        let jobs: Vec<JobRecord> = self
            .records
            .into_iter()
            .map(|r| r.expect("every job completed"))
            .collect();

        self.registry
            .scope("sim")
            .counter("jobs_total")
            .add(jobs.len() as u64);

        ReplayOutput {
            jobs,
            link_bits,
            fault_report: self.report,
            fabric_work,
            registry: self.registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::TreeParams;
    use mayflower_workload::{TrafficMatrix, WorkloadParams};

    fn small_run(strategy: Strategy, seed: u64, jobs: usize) -> Vec<JobRecord> {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(seed);
        let params = WorkloadParams {
            job_count: jobs,
            file_count: 60,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        replay(&topo, &matrix, strategy, 1.0, &mut rng)
    }

    #[test]
    fn every_job_completes_for_every_strategy() {
        for strategy in [
            Strategy::Mayflower,
            Strategy::MayflowerMultipath,
            Strategy::SinbadRMayflower,
            Strategy::SinbadREcmp,
            Strategy::NearestMayflower,
            Strategy::NearestEcmp,
            Strategy::NearestHedera,
            Strategy::SinbadRHedera,
        ] {
            let records = small_run(strategy, 11, 60);
            assert_eq!(records.len(), 60, "{strategy}");
            for r in &records {
                assert!(r.finish >= r.arrival, "{strategy} job {}", r.id);
                if !r.local {
                    assert!(r.duration_secs() > 0.0);
                    assert!(r.subflows >= 1);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_run(Strategy::Mayflower, 5, 40);
        let b = small_run(Strategy::Mayflower, 5, 40);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.finish, rb.finish);
            assert_eq!(ra.subflows, rb.subflows);
        }
    }

    #[test]
    fn uncontended_read_takes_transfer_time() {
        // One job far from everything: 256 MB at ≥0.5 Gbps (worst-case
        // core path) ≤ duration ≤ a few seconds.
        let records = small_run(Strategy::Mayflower, 3, 1);
        let r = &records[0];
        if !r.local {
            let d = r.duration_secs();
            // 256 MB = 2.048 Gbit: 2.05 s at 1 Gbps, 4.1 s at 0.5 Gbps.
            assert!((2.0..=4.2).contains(&d), "duration {d}");
        }
    }

    #[test]
    fn hedera_reroutes_and_still_completes_everything() {
        // Core-heavy workload: rerouting actually fires. Completion
        // must stay exact, and Hedera should beat plain ECMP.
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(29);
        let params = WorkloadParams {
            job_count: 120,
            file_count: 60,
            locality: mayflower_workload::LocalityDist::core_heavy(),
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let mut r1 = rng.clone();
        let hedera = replay(&topo, &matrix, Strategy::NearestHedera, 1.0, &mut r1);
        let mut r2 = rng.clone();
        let ecmp = replay(&topo, &matrix, Strategy::NearestEcmp, 1.0, &mut r2);
        assert_eq!(hedera.len(), ecmp.len());
        let mean = |rs: &[JobRecord]| {
            let remote: Vec<f64> = rs
                .iter()
                .filter(|r| !r.local)
                .map(JobRecord::duration_secs)
                .collect();
            remote.iter().sum::<f64>() / remote.len() as f64
        };
        assert!(
            mean(&hedera) < mean(&ecmp) * 1.02,
            "Hedera {} vs ECMP {}",
            mean(&hedera),
            mean(&ecmp)
        );
    }

    #[test]
    fn telemetry_registry_spans_engine_flowserver_and_monitor() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(11);
        let params = WorkloadParams {
            job_count: 60,
            file_count: 60,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let opts = ReplayOptions::default();
        let (jobs, _, registry) = replay_with_telemetry(
            &topo,
            &matrix,
            Strategy::Mayflower,
            &opts,
            &mut rng,
            &mut NoHooks,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_jobs_total"), Some(jobs.len() as u64));
        // Both observers run once per poll event on the fault-free path.
        assert_eq!(
            snap.counter("flowserver_polls_total"),
            snap.counter("sim_monitor_samples_total")
        );
        assert!(snap.counter("flowserver_polls_total").unwrap() > 0);
        assert!(
            snap.histogram("flowserver_selection_cost_us")
                .unwrap()
                .count
                > 0,
            "Eq. 2 selection costs must be distributed"
        );
    }

    #[test]
    fn nothing_stays_in_flight_after_a_run_with_or_without_faults() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(11);
        let params = WorkloadParams {
            job_count: 60,
            file_count: 40,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let chaos = FaultSchedule::generate(
            &mayflower_simcore::FaultScheduleParams {
                horizon_secs: 20.0,
                mean_downtime_secs: 4.0,
                link_flaps: 3,
                switch_failures: 2,
                dataserver_crashes: 2,
                flowserver_outages: 1,
                stats_poll_losses: 2,
            },
            &mut SimRng::seed_from(4),
        );
        for (faults, expect_aborts) in [(FaultSchedule::default(), false), (chaos, true)] {
            for strategy in [
                Strategy::Mayflower,
                Strategy::MayflowerMultipath,
                Strategy::SinbadRMayflower,
                Strategy::NearestHedera,
            ] {
                let opts = ReplayOptions {
                    faults: faults.clone(),
                    ..ReplayOptions::default()
                };
                let mut run = Run::new(&topo, &matrix, strategy, &opts);
                run.execute(&mut rng.clone(), &mut NoHooks);
                // Whichever way a flow left — completion, abort, a
                // retry that turned local — its job, its cookie and the
                // Flowserver's model of it left with it.
                assert!(run.driver.is_idle(), "{strategy}: flows or cookies leaked");
                assert_eq!(
                    !run.report.aborts.is_empty(),
                    expect_aborts,
                    "{strategy}: the chaos schedule must exercise the abort path"
                );
                assert_eq!(run.finish().jobs.len(), 60);
            }
        }
    }

    #[test]
    fn multipath_records_subflow_finishes() {
        let records = small_run(Strategy::MayflowerMultipath, 17, 80);
        let split_jobs: Vec<_> = records.iter().filter(|r| r.subflows == 2).collect();
        for r in &split_jobs {
            assert_eq!(r.subflow_finishes.len(), 2);
            assert!(r.subflow_finishes.iter().all(|t| *t <= r.finish));
        }
    }
}
