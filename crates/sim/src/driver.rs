//! The one driver of the simulated fabric.
//!
//! Every experiment in this crate runs the paper's loop (§4.2, §6): a
//! [`FluidNet`] carries the flows at their max-min rates, an optional
//! [`Flowserver`] schedules them and learns about the network only from
//! polled counters. [`Driver`] owns both, together with the bookkeeping
//! that ties a simulated flow to the job that asked for it and to the
//! Flowserver's cookie for it, and is the only code that changes them
//! together: a flow admitted here is retired here — by completion or by
//! abort — and its cookie released in the same call.
//!
//! The replay engine interleaves [`Driver::step`] with its own event
//! queue (faults, retries, Hedera); the fault-free open experiments
//! (consistency, write placement) hand their arrivals to
//! [`Driver::run_arrivals`]; closed ones (the erasure probes, the
//! migration arms, the traced timelines) admit tagged flows at `t0` and
//! [`Driver::drain`].
//! Flow rates come from `simnet` (what the network did) or from the
//! Flowserver's `net::fairshare` estimate (what it believes) and from
//! nowhere else, so this is also the one place the two can be compared.

use std::collections::HashMap;
use std::sync::Arc;

use mayflower_flowserver::{Assignment, Flowserver};
use mayflower_net::{HostId, LinkId, Path, Topology};
use mayflower_sdn::{CounterSource, FlowCookie, StatsReport};
use mayflower_simcore::{EventQueue, SimTime};
use mayflower_simnet::{FlowCompletion, FlowId, FluidNet};

use crate::stats;

/// Exposes the fluid simulator's counters to the SDN control plane
/// under the controller's own flow identifiers.
struct FabricCounters<'a> {
    net: &'a FluidNet,
    cookie_to_flow: &'a HashMap<FlowCookie, FlowId>,
}

impl CounterSource for FabricCounters<'_> {
    fn port_bits(&self, link: LinkId) -> f64 {
        self.net.link_bits(link)
    }
    fn flow_bits(&self, cookie: FlowCookie) -> Option<f64> {
        self.cookie_to_flow
            .get(&cookie)
            .and_then(|f| self.net.flow_bits(*f))
    }
}

/// Completed flows in completion order, each with the job (or tag) it
/// was admitted under.
pub(crate) type Completions = Vec<(usize, FlowCompletion)>;

/// A [`FluidNet`], the [`Flowserver`] scheduling it (if the experiment
/// has one) and the flow ↔ job ↔ cookie maps between them.
pub(crate) struct Driver {
    net: FluidNet,
    flowserver: Option<Flowserver>,
    /// Owning job (or the caller's tag) and Flowserver cookie of every
    /// flow in flight.
    flows: HashMap<FlowId, (usize, Option<FlowCookie>)>,
    cookie_to_flow: HashMap<FlowCookie, FlowId>,
}

impl Driver {
    /// An empty fabric over `topo`, scheduled by `flowserver` if given.
    pub(crate) fn new(topo: &Arc<Topology>, flowserver: Option<Flowserver>) -> Driver {
        Driver {
            net: FluidNet::new(topo.clone()),
            flowserver,
            flows: HashMap::new(),
            cookie_to_flow: HashMap::new(),
        }
    }

    /// The network, read-only: counters, clock, link state.
    pub(crate) fn net(&self) -> &FluidNet {
        &self.net
    }

    /// The Flowserver, for selections and fault bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics on a fabric built without one.
    pub(crate) fn flowserver(&mut self) -> &mut Flowserver {
        self.flowserver
            .as_mut()
            .expect("this fabric has a Flowserver")
    }

    /// Starts `bits` flowing over `path` at `t` on behalf of `job`;
    /// `cookie` is the Flowserver's handle when it scheduled the flow.
    pub(crate) fn admit(
        &mut self,
        job: usize,
        path: Path,
        bits: f64,
        cookie: Option<FlowCookie>,
        t: SimTime,
    ) {
        let fid = self.net.add_flow(path, bits, t);
        self.flows.insert(fid, (job, cookie));
        if let Some(c) = cookie {
            self.cookie_to_flow.insert(c, fid);
        }
    }

    /// Forgets a flow that left the network and releases its cookie;
    /// returns the job it belonged to.
    fn retire(&mut self, flow: FlowId) -> usize {
        let (job, cookie) = self.flows.remove(&flow).expect("flow belongs to a job");
        if let Some(cookie) = cookie {
            self.cookie_to_flow.remove(&cookie);
            if let Some(fs) = self.flowserver.as_mut() {
                fs.flow_completed(cookie);
            }
        }
        job
    }

    /// Advances the network to `t` and retires every flow that
    /// completes on the way, in completion order, each with its job.
    fn advance_to(&mut self, t: SimTime) -> Completions {
        assert!(
            !t.is_never(),
            "fabric stalled: {} flows in flight, none can complete and nothing is scheduled",
            self.flows.len()
        );
        let done = self.net.advance_to(t);
        done.into_iter().map(|c| (self.retire(c.flow), c)).collect()
    }

    /// Advances to whichever comes first, the next completion or the
    /// next event of `queue`. Returns the completions retired on the
    /// way and the event, if it was the event's turn (a completion at
    /// the same instant goes first).
    pub(crate) fn step<E>(
        &mut self,
        queue: &mut EventQueue<E>,
    ) -> (Completions, Option<(SimTime, E)>) {
        let next_event = queue.peek_time().unwrap_or(SimTime::MAX);
        let next_completion = self.net.next_completion_time();
        let done = self.advance_to(next_event.min(next_completion));
        let event = if next_completion <= next_event {
            None
        } else {
            queue.pop()
        };
        (done, event)
    }

    /// Runs a fault-free arrival schedule to its end: job `i` arrives at
    /// `arrivals[i]`, `start` has the Flowserver schedule the flows that
    /// carry it (none: it is served locally, done on arrival), and the
    /// Flowserver polls at its configured interval. Returns when each
    /// job's last flow completed.
    pub(crate) fn run_arrivals(
        &mut self,
        arrivals: &[SimTime],
        mut start: impl FnMut(&mut Flowserver, usize, SimTime) -> Vec<Assignment>,
    ) -> Vec<SimTime> {
        enum Event {
            Arrival(usize),
            Poll,
        }
        let poll_interval = SimTime::from_secs(self.flowserver().config().poll_interval_secs);
        let mut queue = EventQueue::new();
        for (job, at) in arrivals.iter().enumerate() {
            queue.schedule(*at, Event::Arrival(job));
        }
        queue.schedule(poll_interval, Event::Poll);

        let mut pending = vec![0usize; arrivals.len()];
        let mut finish = vec![SimTime::ZERO; arrivals.len()];
        let mut unfinished = arrivals.len();
        while unfinished > 0 {
            let (done, event) = self.step(&mut queue);
            for (job, c) in done {
                pending[job] -= 1;
                if pending[job] == 0 {
                    finish[job] = c.at;
                    unfinished -= 1;
                }
            }
            match event {
                None => {}
                Some((t, Event::Poll)) => {
                    self.poll(t);
                    queue.schedule(t + poll_interval, Event::Poll);
                }
                Some((t, Event::Arrival(job))) => {
                    let flows = start(self.flowserver(), job, t);
                    if flows.is_empty() {
                        finish[job] = t;
                        unfinished -= 1;
                    }
                    pending[job] = flows.len();
                    for a in flows {
                        self.admit(job, a.path, a.size_bits, Some(a.cookie), t);
                    }
                }
            }
        }
        finish
    }

    /// Runs the fabric empty: every admitted flow, in completion order.
    pub(crate) fn drain(&mut self) -> Completions {
        let mut done = Vec::new();
        while self.net.flow_count() > 0 {
            let t = self.net.next_completion_time();
            done.extend(self.advance_to(t));
        }
        done
    }

    /// Cancels every flow of `job`, in `FlowId` order, and returns the
    /// bits they had not delivered yet.
    pub(crate) fn abort(&mut self, job: usize) -> f64 {
        let mut flows: Vec<FlowId> = self
            .flows
            .iter()
            .filter_map(|(f, (j, _))| (*j == job).then_some(*f))
            .collect();
        flows.sort_unstable();
        let mut remaining = 0.0;
        for fid in flows {
            let state = self.net.remove_flow(fid).expect("aborted flow is active");
            remaining += state.remaining_bits;
            self.retire(fid);
        }
        remaining
    }

    /// One stats poll at `t`: the Flowserver reads the flow counter of
    /// every flow it tracks. `None` without a Flowserver.
    pub(crate) fn poll(&mut self, t: SimTime) -> Option<StatsReport> {
        let fs = self.flowserver.as_mut()?;
        let counters = FabricCounters {
            net: &self.net,
            cookie_to_flow: &self.cookie_to_flow,
        };
        Some(fs.poll_stats(&counters, t))
    }

    /// Fails or heals a directed link: the data plane zeroes or
    /// restores its capacity and the Flowserver gets the OpenFlow-style
    /// port-status notification.
    pub(crate) fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.net.set_link_up(link, up);
        if let Some(fs) = self.flowserver.as_mut() {
            fs.set_link_state(link, up);
        }
    }

    /// Jobs with a flow in flight whose source is `host`.
    pub(crate) fn jobs_sourced_at(&mut self, host: HostId) -> Vec<usize> {
        let flows = &self.flows;
        self.net
            .active_flows()
            .iter()
            .filter(|f| f.path.src() == host)
            .map(|f| flows[&f.id].0)
            .collect()
    }

    /// Jobs with a flow in flight that crosses a downed link.
    pub(crate) fn stalled_jobs(&self) -> Vec<usize> {
        let stalled = self.net.stalled_flows();
        stalled.iter().map(|f| self.flows[f].0).collect()
    }

    /// Route of every flow in flight, in `FlowId` order.
    pub(crate) fn active_paths(&mut self) -> Vec<(FlowId, Path)> {
        let active = self.net.active_flows();
        active.iter().map(|f| (f.id, f.path.clone())).collect()
    }

    /// Moves a flow in flight onto `path` (a Hedera reroute).
    pub(crate) fn reroute(&mut self, flow: FlowId, path: Path) {
        self.net.reroute_flow(flow, path);
    }

    /// Whether nothing is in flight anywhere: no flow in the network,
    /// no map entry here, no flow tracked by the Flowserver. Holds
    /// after every finished experiment, whichever way its flows left.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.net.flow_count() == 0
            && self.flows.is_empty()
            && self.cookie_to_flow.is_empty()
            && self
                .flowserver
                .as_ref()
                .is_none_or(|fs| fs.tracked_flows() == 0)
    }
}

/// Completion times (seconds from admission) of the drained flows
/// admitted under `tag`, in completion order.
fn secs_of(done: &[(usize, FlowCompletion)], tag: usize) -> impl Iterator<Item = f64> + '_ {
    done.iter()
        .filter(move |(t, _)| *t == tag)
        .map(|(_, c)| c.duration_secs())
}

/// When the last drained flow of `tag` completed; 0 if there was none.
pub(crate) fn last_secs(done: &[(usize, FlowCompletion)], tag: usize) -> f64 {
    secs_of(done, tag).fold(0.0, f64::max)
}

/// Mean completion of the drained flows of `tag`; 0 if there was none.
pub(crate) fn mean_secs(done: &[(usize, FlowCompletion)], tag: usize) -> f64 {
    stats::mean(&secs_of(done, tag).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_flowserver::{FlowserverConfig, Selection};
    use mayflower_net::TreeParams;

    /// An idle testbed fabric with a Flowserver.
    fn scheduled() -> Driver {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
        Driver::new(&topo, Some(fs))
    }

    /// Schedules `bits` from `src` to `dst` and admits them for `job`.
    fn start(d: &mut Driver, job: usize, src: u32, dst: u32, bits: f64) -> Assignment {
        let fs = d.flowserver();
        let sel = fs.select_path_for_replica(HostId(dst), HostId(src), bits, SimTime::ZERO);
        let Selection::Single(a) = sel else {
            panic!("a healthy fabric schedules one flow, got {sel:?}");
        };
        d.admit(job, a.path.clone(), bits, Some(a.cookie), SimTime::ZERO);
        a
    }

    /// A queue whose only event is a wake-up at `secs`.
    fn wake_at(secs: f64) -> EventQueue<()> {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_secs(secs), ());
        queue
    }

    #[test]
    fn a_completion_goes_to_the_job_that_admitted_it_and_releases_its_cookie() {
        let mut d = scheduled();
        let short = start(&mut d, 7, 0, 5, 1e9);
        let long = start(&mut d, 9, 20, 40, 2e9);
        assert_eq!(d.flowserver().tracked_flows(), 2);

        let (done, event) = d.step(&mut wake_at(100.0));
        assert!(event.is_none(), "the completion comes before the wake-up");
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].0, done[0].1.size_bits), (7, 1e9));
        assert!(d.flowserver().flow_model(short.cookie).is_none());
        assert!(d.flowserver().flow_model(long.cookie).is_some());
        assert!(!d.cookie_to_flow.contains_key(&short.cookie));

        let rest = d.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!((rest[0].0, rest[0].1.size_bits), (9, 2e9));
        assert!(d.is_idle());
    }

    #[test]
    fn abort_returns_the_undelivered_bits_and_forgets_the_job() {
        let mut d = scheduled();
        let a = start(&mut d, 3, 0, 5, 1e9);
        let b = start(&mut d, 3, 20, 40, 1e9);
        start(&mut d, 4, 8, 60, 1e9);
        let (done, event) = d.step(&mut wake_at(0.25));
        assert!(done.is_empty() && event.is_some());

        // Each flow is alone on its source's uplink, so that port's
        // counter is what the flow delivered.
        let delivered: f64 = [&a, &b]
            .iter()
            .map(|x| d.net().link_bits(x.path.links()[0]))
            .sum();
        assert!(delivered > 0.0);
        let undelivered = d.abort(3);
        assert!(
            (undelivered - (2e9 - delivered)).abs() < 1.0,
            "abort returned {undelivered}, delivered {delivered}"
        );
        assert!(d.flows.values().all(|(job, _)| *job == 4));
        assert_eq!(d.cookie_to_flow.len(), 1);
        assert_eq!(d.flowserver().tracked_flows(), 1);

        // The other job is untouched and still completes as itself.
        let rest = d.drain();
        assert_eq!(rest.iter().map(|(j, _)| *j).collect::<Vec<_>>(), [4]);
        assert!(d.is_idle());
    }

    #[test]
    fn a_poll_reports_the_bits_each_flow_delivered() {
        let mut d = scheduled();
        let a = start(&mut d, 0, 0, 5, 4e9);
        let b = start(&mut d, 1, 20, 40, 4e9);
        let (_, event) = d.step(&mut wake_at(1.0));
        let (t, ()) = event.expect("the wake-up");

        let report = d.poll(t).expect("a Flowserver polls");
        assert_eq!(report.measured_at, t);
        assert_eq!(report.flows.len(), 2);
        for x in [&a, &b] {
            let delivered = d.net().flow_bits(d.cookie_to_flow[&x.cookie]);
            let stat = report.flow(x.cookie).expect("a tracked flow");
            assert!(stat.total_bits > 0.0);
            assert_eq!(Some(stat.total_bits), delivered);
            // The first poll differences from zero over the first second.
            assert_eq!(stat.rate_bps, stat.total_bits / t.as_secs());
        }

        let topo = d.net().topology().clone();
        assert!(Driver::new(&topo, None).poll(t).is_none());
    }
}
