//! The stateful fluid network simulator.

use std::collections::BTreeMap;
use std::sync::Arc;

use mayflower_net::{LinkId, Path, Topology};
use mayflower_simcore::SimTime;
use serde::{Deserialize, Serialize};

use crate::maxmin::{Component, Work, Workspace};

/// Identifies a flow inside a [`FluidNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The live state of an active flow.
#[derive(Debug, Clone)]
pub struct FlowState {
    /// The flow's identifier.
    pub id: FlowId,
    /// Its route.
    pub path: Path,
    /// Total transfer size in bits.
    pub size_bits: f64,
    /// Bits still to transfer.
    pub remaining_bits: f64,
    /// Current max-min fair rate, bits/sec.
    pub rate: f64,
    /// When the flow was admitted.
    pub started: SimTime,
    /// Bits transferred so far (`size_bits - remaining_bits`, tracked
    /// separately for counter fidelity).
    pub bits_sent: f64,
}

/// Record of a flow finishing its transfer.
#[derive(Debug, Clone)]
pub struct FlowCompletion {
    /// Which flow completed.
    pub flow: FlowId,
    /// When it completed.
    pub at: SimTime,
    /// When it was admitted.
    pub started: SimTime,
    /// Its total size in bits.
    pub size_bits: f64,
    /// The route it used.
    pub path: Path,
}

impl FlowCompletion {
    /// The flow's completion time (duration from admission), seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.at.secs_since(self.started)
    }
}

/// A fluid-model network simulator.
///
/// Active flows transmit simultaneously at their global max-min fair
/// share. Every admission, completion, cancellation, reroute and link
/// flap marks the links it changes, and the next read of the rates
/// re-solves only the flows those links reach through shared links;
/// every other rate is still exact (see `refresh_rates`). Time
/// advances only through [`FluidNet::advance_to`], which steps exactly
/// through each completion instant so rates are piecewise-constant
/// between events (the standard fluid approximation for long TCP
/// flows).
///
/// The simulator also maintains the cumulative per-link and per-flow
/// byte counters that real OpenFlow switches expose. The Flowserver's
/// stats poll reads [`FluidNet::flow_bits`] through `sim::driver`'s
/// `CounterSource`; Sinbad's link-load monitor and the engine's fault
/// report read [`FluidNet::link_bits`]. None of them reads a
/// ground-truth rate — keeping the Flowserver's information model
/// honest.
#[derive(Debug, Clone)]
pub struct FluidNet {
    topo: Arc<Topology>,
    /// Every active flow by *slot*, a dense number a flow holds while
    /// it is active; a free slot holds `None`.
    flows: Vec<Option<FlowState>>,
    /// The active flows' slots, in id order.
    slots: BTreeMap<FlowId, u32>,
    /// Slots no flow holds.
    free: Vec<u32>,
    next_id: u64,
    now: SimTime,
    /// Cumulative bits carried per directed link.
    link_bits: Vec<f64>,
    /// Fault-injection mask: `link_up[l]` is false while link `l` is
    /// failed. Downed links contribute zero capacity, so flows routed
    /// across them stall at rate zero until rerouted or the link heals.
    link_up: Vec<bool>,
    /// The active flows on each link, and the links changed since the
    /// last refresh.
    index: LinkIndex,
    /// The solver's buffers, reused by every refresh.
    solver: Workspace,
    /// The work the refreshes have done.
    work: Work,
}

/// The link → flows index a [`FluidNet`] keeps across events, the links
/// touched since its last refresh, and the marks its walk reuses.
///
/// Lists name a flow by its slot, so the walk marks flows in a flat
/// buffer and reads each route from the slot, never from the id map. A
/// flow with an empty route is on no list.
#[derive(Debug, Clone)]
struct LinkIndex {
    /// `on_link[l]`: the slots of the active flows routed over link
    /// `l`, once per time a route lists `l`, in no particular order.
    on_link: Vec<Vec<u32>>,
    /// The links whose flow set or capacity changed since the last
    /// refresh, each once; a walk appends the links it reaches.
    touched: Vec<LinkId>,
    /// `link_seen[l]` iff `l` is in `touched`.
    link_seen: Vec<bool>,
    /// `flow_seen[s]` iff slot `s` is in `reached`.
    flow_seen: Vec<bool>,
    /// The slots the walk has reached, in walk order.
    reached: Vec<u32>,
}

/// The route of the flow in `slot`; a free slot's is empty.
fn route(flows: &[Option<FlowState>], slot: u32) -> &[LinkId] {
    flows[slot as usize]
        .as_ref()
        .map_or(&[], |f| f.path.links())
}

impl LinkIndex {
    fn new(n_links: usize) -> LinkIndex {
        LinkIndex {
            on_link: vec![Vec::new(); n_links],
            touched: Vec::new(),
            link_seen: vec![false; n_links],
            flow_seen: Vec::new(),
            reached: Vec::new(),
        }
    }

    /// Marks a link whose flow set or capacity changed.
    fn touch(&mut self, link: LinkId) {
        if !std::mem::replace(&mut self.link_seen[link.index()], true) {
            self.touched.push(link);
        }
    }

    /// Lists `slot` on every link of `route`, touching each.
    fn insert(&mut self, slot: u32, route: &[LinkId]) {
        for &l in route {
            self.on_link[l.index()].push(slot);
            self.touch(l);
        }
    }

    /// Takes `slot` off every link of `route`, the route it was listed
    /// under, touching each.
    fn remove(&mut self, slot: u32, route: &[LinkId]) {
        for &l in route {
            let list = &mut self.on_link[l.index()];
            if let Some(at) = list.iter().position(|&s| s == slot) {
                list.swap_remove(at);
            }
            self.touch(l);
        }
    }

    /// Walks from the touched links: a flow listed on a reached link is
    /// reached, and so is every link of its route. Leaves each reached
    /// link in `touched` and each reached flow in `reached`, once, with
    /// its mark set until [`LinkIndex::settle`].
    fn reach(&mut self, flows: &[Option<FlowState>]) {
        let mut next = 0;
        while let Some(&link) = self.touched.get(next) {
            next += 1;
            for &slot in &self.on_link[link.index()] {
                if std::mem::replace(&mut self.flow_seen[slot as usize], true) {
                    continue;
                }
                self.reached.push(slot);
                for &l in route(flows, slot) {
                    if !std::mem::replace(&mut self.link_seen[l.index()], true) {
                        self.touched.push(l);
                    }
                }
            }
        }
    }

    /// Ends a walk: no link touched, nothing reached, no mark set.
    fn settle(&mut self) {
        for link in self.touched.drain(..) {
            self.link_seen[link.index()] = false;
        }
        for slot in self.reached.drain(..) {
            self.flow_seen[slot as usize] = false;
        }
    }
}

impl FluidNet {
    /// Creates a simulator over the given topology with no flows.
    #[must_use]
    pub fn new(topo: Arc<Topology>) -> FluidNet {
        let n_links = topo.links().len();
        FluidNet {
            topo,
            flows: Vec::new(),
            slots: BTreeMap::new(),
            free: Vec::new(),
            next_id: 0,
            now: SimTime::ZERO,
            link_bits: vec![0.0; n_links],
            link_up: vec![true; n_links],
            index: LinkIndex::new(n_links),
            solver: Workspace::default(),
            work: Work::default(),
        }
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The work the rate refreshes have done since the simulator was
    /// created. Deterministic for a given sequence of calls.
    #[must_use]
    pub fn work(&self) -> Work {
        self.work
    }

    /// Fails or heals a directed link (fault injection). Progress up to
    /// the current instant has already been charged at the old rates;
    /// rates are lazily recomputed with the new mask on the next
    /// advance. Call [`FluidNet::advance_to`] to the fault instant
    /// *before* flipping a link.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        if self.link_up[link.index()] != up {
            self.link_up[link.index()] = up;
            self.index.touch(link);
        }
    }

    /// Whether a link is currently up.
    #[must_use]
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.index()]
    }

    /// Flow ids of active flows whose route crosses any currently
    /// downed link — the transfers a fault has stalled, in id order.
    #[must_use]
    pub fn stalled_flows(&self) -> Vec<FlowId> {
        self.in_id_order()
            .filter(|f| f.path.links().iter().any(|l| !self.link_up[l.index()]))
            .map(|f| f.id)
            .collect()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Admits a flow of `size_bits` over `path` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, if a completion is pending at or
    /// before `at` (call [`FluidNet::advance_to`] first and process the
    /// completions — in every build: the finished flow would otherwise
    /// be retired here and reported to nobody), or if `size_bits` is
    /// not positive and finite.
    pub fn add_flow(&mut self, path: Path, size_bits: f64, at: SimTime) -> FlowId {
        assert!(
            size_bits.is_finite() && size_bits > 0.0,
            "flow size must be positive and finite"
        );
        assert!(at >= self.now, "cannot add a flow in the past");
        let next = self.next_completion_time();
        assert!(
            next > at,
            "a completion at {next} is due by the admission at {at}; advance_to() first"
        );
        self.advance_to(at);

        let id = FlowId(self.next_id);
        self.next_id += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.flows.push(None);
                self.index.flow_seen.push(false);
                (self.flows.len() - 1) as u32
            }
        };
        self.index.insert(slot, path.links());
        // A flow on no link is on no list, so no refresh reaches it: it
        // starts at the rate the solver gives an empty route.
        let rate = if path.links().is_empty() {
            f64::INFINITY
        } else {
            0.0
        };
        self.flows[slot as usize] = Some(FlowState {
            id,
            path,
            size_bits,
            remaining_bits: size_bits,
            rate,
            started: at,
            bits_sent: 0.0,
        });
        self.slots.insert(id, slot);
        id
    }

    /// Moves an active flow onto a different path between the same
    /// endpoints, preserving its remaining bytes and counters — what a
    /// Hedera-style scheduler does when it reroutes an elephant flow.
    /// Returns whether the flow existed.
    ///
    /// # Panics
    ///
    /// Panics if `new_path` does not connect the flow's endpoints.
    pub fn reroute_flow(&mut self, id: FlowId, new_path: Path) -> bool {
        let Some(&slot) = self.slots.get(&id) else {
            return false;
        };
        let Some(flow) = &mut self.flows[slot as usize] else {
            return false;
        };
        assert_eq!(
            (new_path.src(), new_path.dst()),
            (flow.path.src(), flow.path.dst()),
            "reroute must keep the flow's endpoints"
        );
        self.index.remove(slot, flow.path.links());
        self.index.insert(slot, new_path.links());
        if new_path.links().is_empty() {
            // On no list, as in `add_flow`.
            flow.rate = f64::INFINITY;
        }
        flow.path = new_path;
        true
    }

    /// Cancels an active flow, returning its final state, or `None` if
    /// the flow is unknown (already completed or cancelled).
    pub fn remove_flow(&mut self, id: FlowId) -> Option<FlowState> {
        let slot = self.slots.remove(&id)?;
        let state = self.flows[slot as usize].take()?;
        self.index.remove(slot, state.path.links());
        self.free.push(slot);
        Some(state)
    }

    /// The active flows, in id order.
    fn in_id_order(&self) -> impl Iterator<Item = &FlowState> {
        let slots = self.slots.values();
        slots.filter_map(|&slot| self.flows[slot as usize].as_ref())
    }

    /// The states of all active flows, in flow-id order.
    pub fn active_flows(&mut self) -> Vec<&FlowState> {
        self.refresh_rates();
        self.in_id_order().collect()
    }

    /// Number of active flows.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.slots.len()
    }

    fn get(&self, id: FlowId) -> Option<&FlowState> {
        let slot = *self.slots.get(&id)?;
        self.flows[slot as usize].as_ref()
    }

    /// Looks up an active flow.
    pub fn flow(&mut self, id: FlowId) -> Option<&FlowState> {
        self.refresh_rates();
        self.get(id)
    }

    /// Cumulative bits carried by a directed link since simulation
    /// start — the port byte counter an edge switch would expose
    /// (modulo the 8× bits/bytes factor).
    #[must_use]
    pub fn link_bits(&self, link: LinkId) -> f64 {
        self.link_bits[link.index()]
    }

    /// Bits transferred so far by an active flow — the flow-rule byte
    /// counter. `None` once the flow completes (hardware counters for
    /// expired rules disappear too).
    #[must_use]
    pub fn flow_bits(&self, id: FlowId) -> Option<f64> {
        self.get(id).map(|f| f.bits_sent)
    }

    /// When the next active flow will complete, assuming no further
    /// admissions. [`SimTime::MAX`] if no flow is active.
    pub fn next_completion_time(&mut self) -> SimTime {
        self.refresh_rates();
        self.earliest_completion()
    }

    /// The earliest completion instant at the current rates.
    fn earliest_completion(&self) -> SimTime {
        let flows = self.flows.iter().flatten();
        flows.fold(SimTime::MAX, |earliest, f| {
            earliest.min(self.completion_instant(f))
        })
    }

    fn completion_instant(&self, f: &FlowState) -> SimTime {
        if f.rate <= 0.0 {
            if f.remaining_bits <= 0.0 {
                self.now
            } else {
                SimTime::MAX
            }
        } else if f.rate.is_infinite() {
            self.now
        } else {
            self.now + SimTime::from_secs(f.remaining_bits / f.rate)
        }
    }

    /// Advances simulated time to `t`, transferring data at the
    /// piecewise-constant fair-share rates and collecting every flow
    /// that completes at an instant `≤ t`, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<FlowCompletion> {
        assert!(t >= self.now, "cannot advance into the past");
        let mut completions = Vec::new();
        loop {
            self.refresh_rates();
            let next = self.earliest_completion();
            let step_to = next.min(t);
            self.charge(step_to);
            if next > t {
                break;
            }
            // Complete everything that has drained (tolerance covers
            // floating-point residue from the rate × dt arithmetic), and
            // every flow whose residue no longer moves the clock: once
            // `rate × ulp(now)` outgrows the tolerance (1 Gbps: past
            // ~16k s), `now + remaining/rate` can round back to `now`
            // and no later step would ever drain it.
            let done_ids: Vec<FlowId> = self
                .in_id_order()
                .filter(|f| {
                    f.remaining_bits <= completion_epsilon(f.size_bits)
                        || self.completion_instant(f) <= self.now
                })
                .map(|f| f.id)
                .collect();
            for id in done_ids {
                let Some(f) = self.remove_flow(id) else {
                    continue;
                };
                completions.push(FlowCompletion {
                    flow: f.id,
                    at: step_to,
                    started: f.started,
                    size_bits: f.size_bits,
                    path: f.path,
                });
            }
            if self.now >= t && completions.is_empty() && self.slots.is_empty() {
                break;
            }
            if self.now >= t {
                // We are exactly at t; completions at t were collected.
                // Check for more simultaneous completions.
                if self.earliest_completion() > t {
                    break;
                }
            }
        }
        self.now = t;
        completions
    }

    /// Transfers data from `self.now` to `to` at current rates, in id
    /// order: each link's counter sums its flows' bits in that order.
    fn charge(&mut self, to: SimTime) {
        let dt = to.secs_since(self.now);
        for &slot in self.slots.values() {
            let Some(f) = &mut self.flows[slot as usize] else {
                continue;
            };
            if f.rate.is_infinite() {
                // A zero-duration step still completes it.
                f.bits_sent = f.size_bits;
                f.remaining_bits = 0.0;
            } else if dt > 0.0 {
                let moved = (f.rate * dt).min(f.remaining_bits);
                f.remaining_bits -= moved;
                f.bits_sent += moved;
                for &l in f.path.links() {
                    self.link_bits[l.index()] += moved;
                }
            }
        }
        self.now = to;
    }

    /// Re-solves the flows the links touched since the last refresh
    /// reach, and leaves every other rate as it is.
    ///
    /// That equals a solve of every flow. Every change touches *all*
    /// links of the flow that changed (admitted, retired, cancelled, or
    /// rerouted: old route and new) and every link whose capacity
    /// changed, so each flow whose component of the flow–link graph
    /// gained, lost or re-capacitated something reaches a touched link
    /// and is re-solved with its whole component. Any other component is
    /// as it was when its rates were last solved, and solving a
    /// component alone repeats its rounds bit for bit
    /// ([`crate::maxmin::compute_rates_masked`]).
    ///
    /// The refresh solves from the index itself: the walk reads routes
    /// by slot and leaves the reached flows and links in the index, the
    /// solver takes each link's flows straight from its list and sorts
    /// only the reached links, and the rates go back by slot. Every
    /// buffer is kept from refresh to refresh, so once they have grown a
    /// refresh allocates nothing and looks up no flow by id.
    fn refresh_rates(&mut self) {
        if self.index.touched.is_empty() {
            return;
        }
        let FluidNet {
            topo,
            flows,
            link_up,
            index,
            solver,
            work,
            ..
        } = self;
        index.reach(flows);
        work.refreshes += 1;
        work.flows_solved += index.reached.len() as u64;
        let (lists, routes): (&[Vec<u32>], &[Option<FlowState>]) = (&index.on_link, flows);
        let component = Component {
            members: move |l: LinkId| lists[l.index()].as_slice(),
            route: move |slot| route(routes, slot),
            flows: &index.reached,
            links: &index.touched,
        };
        solver.solve(topo, Some(link_up), &component, work);
        for &slot in &index.reached {
            if let Some(f) = &mut flows[slot as usize] {
                f.rate = solver.rate(slot);
            }
        }
        index.settle();
    }
}

/// Absolute slack below which a flow's residual is considered zero.
fn completion_epsilon(size_bits: f64) -> f64 {
    (size_bits * 1e-12).max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{HostId, TreeParams};

    fn testbed() -> (Arc<Topology>, FluidNet) {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let net = FluidNet::new(topo.clone());
        (topo, net)
    }

    fn path(topo: &Topology, a: u32, b: u32) -> Path {
        topo.shortest_paths(HostId(a), HostId(b))[0].clone()
    }

    #[test]
    fn downed_link_stalls_flow_until_heal() {
        let (topo, mut net) = testbed();
        let p = path(&topo, 0, 1);
        let victim = p.links()[0];
        let f = net.add_flow(p, 1e9, SimTime::ZERO);
        // Half the transfer, then the link fails for two seconds.
        assert!(net.advance_to(SimTime::from_secs(0.5)).is_empty());
        net.set_link_up(victim, false);
        assert!(!net.link_is_up(victim));
        assert_eq!(net.stalled_flows(), vec![f]);
        assert!(
            net.advance_to(SimTime::from_secs(2.5)).is_empty(),
            "no progress while the link is down"
        );
        assert!((net.flow(f).unwrap().remaining_bits - 0.5e9).abs() < 1.0);
        // Heal: the remaining half takes half a second.
        net.set_link_up(victim, true);
        assert!(net.stalled_flows().is_empty());
        let done = net.advance_to(SimTime::from_secs(10.0));
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].at.as_secs() - 3.0).abs() < 1e-6,
            "at {}",
            done[0].at
        );
    }

    #[test]
    fn downed_link_leaves_disjoint_flows_untouched() {
        let (topo, mut net) = testbed();
        let p_victim = path(&topo, 0, 1);
        let p_other = path(&topo, 4, 5);
        net.add_flow(p_victim.clone(), 1e9, SimTime::ZERO);
        let ok = net.add_flow(p_other, 1e9, SimTime::ZERO);
        net.set_link_up(p_victim.links()[0], false);
        let done = net.advance_to(SimTime::from_secs(1.5));
        assert_eq!(done.len(), 1, "unaffected flow still completes");
        assert_eq!(done[0].flow, ok);
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let (topo, mut net) = testbed();
        let f = net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        assert!((net.flow(f).unwrap().rate - 1e9).abs() < 1.0);
        let done = net.advance_to(SimTime::from_secs(5.0));
        assert_eq!(done.len(), 1);
        assert!((done[0].at.as_secs() - 1.0).abs() < 1e-6);
        assert!((done[0].duration_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_downlink() {
        let (topo, mut net) = testbed();
        // Both flows target host 1: its 1 Gbps downlink is shared.
        net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        net.add_flow(path(&topo, 2, 1), 1e9, SimTime::ZERO);
        let done = net.advance_to(SimTime::from_secs(10.0));
        assert_eq!(done.len(), 2);
        // Equal shares (0.5 Gbps each) → both finish at 2 s.
        for c in &done {
            assert!((c.at.as_secs() - 2.0).abs() < 1e-6, "{:?}", c.at);
        }
    }

    #[test]
    fn completion_frees_bandwidth_for_survivor() {
        let (topo, mut net) = testbed();
        // Shared downlink: a short flow and a long flow.
        net.add_flow(path(&topo, 0, 1), 0.5e9, SimTime::ZERO);
        let long = net.add_flow(path(&topo, 2, 1), 1.5e9, SimTime::ZERO);
        let done = net.advance_to(SimTime::from_secs(10.0));
        assert_eq!(done.len(), 2);
        // Short: 0.5 Gb at 0.5 Gbps → t=1. Long: 0.5 Gb by t=1, then
        // full rate: remaining 1.0 Gb at 1 Gbps → t=2.
        assert!((done[0].at.as_secs() - 1.0).abs() < 1e-6);
        assert_eq!(done[1].flow, long);
        assert!((done[1].at.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn staggered_admission() {
        let (topo, mut net) = testbed();
        net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        // At t=0.5 the first flow has 0.5 Gb left; admit a second on
        // the same downlink.
        let done = net.advance_to(SimTime::from_secs(0.5));
        assert!(done.is_empty());
        net.add_flow(path(&topo, 2, 1), 1e9, SimTime::from_secs(0.5));
        let done = net.advance_to(SimTime::from_secs(10.0));
        assert_eq!(done.len(), 2);
        // Both at 0.5 Gbps: first finishes at 0.5 + 1.0 = 1.5.
        assert!((done[0].at.as_secs() - 1.5).abs() < 1e-6);
        // Second: 0.5 Gb done by 1.5, rest at 1 Gbps → 2.0.
        assert!((done[1].at.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn counters_accumulate() {
        let (topo, mut net) = testbed();
        let p = path(&topo, 0, 1);
        let first = p.links()[0];
        let f = net.add_flow(p, 1e9, SimTime::ZERO);
        net.advance_to(SimTime::from_secs(0.25));
        let sent = net.flow_bits(f).unwrap();
        assert!((sent - 0.25e9).abs() < 1.0);
        assert!((net.link_bits(first) - 0.25e9).abs() < 1.0);
        net.advance_to(SimTime::from_secs(2.0));
        assert!(net.flow_bits(f).is_none(), "completed flows drop counters");
        assert!((net.link_bits(first) - 1e9).abs() < 1.0);
    }

    #[test]
    fn remove_flow_stops_transfer() {
        let (topo, mut net) = testbed();
        let f = net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        net.advance_to(SimTime::from_secs(0.5));
        let state = net.remove_flow(f).unwrap();
        assert!((state.remaining_bits - 0.5e9).abs() < 1.0);
        let done = net.advance_to(SimTime::from_secs(5.0));
        assert!(done.is_empty());
    }

    #[test]
    fn cross_pod_flow_bottlenecked_by_core() {
        let (topo, mut net) = testbed();
        // 8:1 oversubscription → agg→core links are 0.5 Gbps.
        let f = net.add_flow(path(&topo, 0, 16), 1e9, SimTime::ZERO);
        let r = net.flow(f).unwrap().rate;
        assert!((r - 0.5e9).abs() < 1.0, "rate {r}");
    }

    #[test]
    #[should_panic(expected = "past")]
    fn cannot_rewind() {
        let (_, mut net) = testbed();
        net.advance_to(SimTime::from_secs(1.0));
        net.advance_to(SimTime::from_secs(0.5));
    }

    #[test]
    #[should_panic(expected = "advance_to")]
    fn cannot_skip_completions() {
        let (topo, mut net) = testbed();
        net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        // First flow completes at t=1; adding at t=2 without advancing
        // would lose the completion.
        net.add_flow(path(&topo, 2, 3), 1e9, SimTime::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "advance_to")]
    fn cannot_admit_at_the_instant_of_a_pending_completion() {
        let (topo, mut net) = testbed();
        net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        // The first flow completes at exactly t=1: admitting there
        // without advancing would retire it unreported.
        net.add_flow(path(&topo, 2, 3), 1e9, SimTime::from_secs(1.0));
    }

    #[test]
    fn simultaneous_completions_all_reported() {
        let (topo, mut net) = testbed();
        // Independent racks, same size: complete at the same instant.
        net.add_flow(path(&topo, 0, 1), 1e9, SimTime::ZERO);
        net.add_flow(path(&topo, 4, 5), 1e9, SimTime::ZERO);
        net.add_flow(path(&topo, 8, 9), 1e9, SimTime::ZERO);
        let done = net.advance_to(SimTime::from_secs(1.5));
        assert_eq!(done.len(), 3);
        for c in done {
            assert!((c.at.as_secs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn reroute_preserves_progress() {
        let (topo, mut net) = testbed();
        // Two cross-pod paths exist; start on one, reroute to another.
        let paths = topo.shortest_paths(HostId(0), HostId(16));
        let f = net.add_flow(paths[0].clone(), 1e9, SimTime::ZERO);
        net.advance_to(SimTime::from_secs(0.5));
        let sent_before = net.flow_bits(f).unwrap();
        assert!(sent_before > 0.0);
        assert!(net.reroute_flow(f, paths[1].clone()));
        let state = net.flow(f).unwrap();
        assert_eq!(state.path, paths[1]);
        assert!((state.bits_sent - sent_before).abs() < 1.0);
        // The flow still completes with the full size accounted.
        let done = net.advance_to(SimTime::from_secs(60.0));
        assert_eq!(done.len(), 1);
        assert!((done[0].size_bits - 1e9).abs() < 1.0);
    }

    #[test]
    fn reroute_relieves_congestion() {
        let (topo, mut net) = testbed();
        // Two cross-pod flows from different sources to different
        // destinations hash onto overlapping core paths; moving one to
        // a disjoint path doubles both rates.
        let p_a = topo.shortest_paths(HostId(0), HostId(16));
        let a = net.add_flow(p_a[0].clone(), 4e9, SimTime::ZERO);
        let p_b: Vec<_> = topo
            .shortest_paths(HostId(4), HostId(20))
            .into_iter()
            .filter(|p| p.shares_link_with(&p_a[0]))
            .collect();
        assert!(!p_b.is_empty(), "need an overlapping candidate");
        let b = net.add_flow(p_b[0].clone(), 4e9, SimTime::ZERO);
        let rate_shared = net.flow(a).unwrap().rate;
        // Find a disjoint alternative for b.
        let alt = topo
            .shortest_paths(HostId(4), HostId(20))
            .into_iter()
            .find(|p| !p.shares_link_with(&p_a[0]))
            .expect("8 cross-pod paths give a disjoint one");
        net.reroute_flow(b, alt);
        let rate_after = net.flow(a).unwrap().rate;
        assert!(
            rate_after > rate_shared * 1.5,
            "relief: {rate_shared} -> {rate_after}"
        );
    }

    #[test]
    #[should_panic(expected = "endpoints")]
    fn reroute_cannot_change_endpoints() {
        let (topo, mut net) = testbed();
        let p = topo.shortest_paths(HostId(0), HostId(16))[0].clone();
        let f = net.add_flow(p, 1e9, SimTime::ZERO);
        let other = topo.shortest_paths(HostId(0), HostId(17))[0].clone();
        net.reroute_flow(f, other);
    }

    #[test]
    fn tiny_flows_complete_exactly() {
        let (topo, mut net) = testbed();
        // A one-bit flow on a busy link still finishes, with no
        // residue poisoning later arithmetic.
        net.add_flow(path(&topo, 0, 1), 1.0, SimTime::ZERO);
        net.add_flow(path(&topo, 2, 1), 1e9, SimTime::ZERO);
        let done = net.advance_to(SimTime::from_secs(10.0));
        assert_eq!(done.len(), 2);
        assert!(
            done[0].at.as_secs() < 1e-6,
            "1 bit at 0.5 Gbps is instant-ish"
        );
        let first = done[0].at;
        assert!(first >= SimTime::ZERO);
    }

    #[test]
    fn thousands_of_flows_conserve_bytes() {
        let (topo, mut net) = testbed();
        let mut expected = 0.0;
        for i in 0..800u32 {
            let a = i % 64;
            let b = (i * 7 + 1) % 64;
            if a == b {
                continue;
            }
            let p = topo.shortest_paths(HostId(a), HostId(b))[0].clone();
            net.add_flow(p, 1e8, SimTime::ZERO);
            expected += 1e8;
        }
        let done = net.advance_to(SimTime::from_secs(1e5));
        let total: f64 = done.iter().map(|c| c.size_bits).sum();
        assert!((total - expected).abs() < 1.0);
    }

    #[test]
    fn a_residue_too_small_to_move_the_clock_completes() {
        // At 40000.25 s one ulp of the clock carries ~7e-3 bits at
        // 1 Gbps, above the 1e-3-bit tolerance: a 0.1 Gb flow's first
        // step leaves a residue whose completion instant rounds back to
        // `now`. (A 1 Gb flow happens to divide exactly and never hits
        // it.) Before the fix the second call never returned.
        let (topo, mut net) = testbed();
        let start = SimTime::from_secs(40000.25);
        assert!(net.advance_to(start).is_empty());
        for size in [1e8, 1e9] {
            net.add_flow(path(&topo, 0, 1), size, net.now());
            let done = net.advance_to(net.now() + SimTime::from_secs(10.0));
            assert_eq!(done.len(), 1, "{size} bits");
            assert!((done[0].duration_secs() - size / 1e9).abs() < 1e-9);
        }
    }

    #[test]
    fn a_tie_goes_to_the_lowest_link_index() {
        // The last admission touches `b` alone, so the walk reaches `b`
        // before `a`: only the sort of the reached links puts `a` first.
        let (topo, routes) = crate::maxmin::oracle::tied_links();
        let mut net = FluidNet::new(Arc::new(topo));
        let ids: Vec<FlowId> = routes
            .into_iter()
            .map(|r| net.add_flow(Path::new(HostId(0), HostId(1), r), 1e9, SimTime::ZERO))
            .collect();
        let got: Vec<u64> = ids
            .iter()
            .map(|&id| net.flow(id).unwrap().rate.to_bits())
            .collect();
        let want: Vec<u64> = crate::maxmin::oracle::tied_rates()
            .iter()
            .map(|r| r.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn advance_without_flows_moves_clock() {
        let (_, mut net) = testbed();
        let done = net.advance_to(SimTime::from_secs(3.0));
        assert!(done.is_empty());
        assert_eq!(net.now(), SimTime::from_secs(3.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::maxmin::{oracle, RoutedFlow};
    use mayflower_net::{HostId, TreeParams};
    use proptest::prelude::*;

    /// Every active flow's rate against the oracle's over the same
    /// paths and link mask, to the bit.
    fn rates_match_oracle(net: &mut FluidNet) -> Result<(), String> {
        let topo = net.topology().clone();
        let mask: Vec<bool> = topo
            .links()
            .iter()
            .map(|l| net.link_is_up(l.id()))
            .collect();
        let active = net.active_flows();
        let routed: Vec<RoutedFlow<'_>> = active
            .iter()
            .map(|f| RoutedFlow {
                links: f.path.links(),
            })
            .collect();
        let want = oracle::compute_rates_masked(&topo, &routed, Some(&mask));
        for (f, w) in active.iter().zip(want) {
            prop_assert!(
                f.rate.to_bits() == w.to_bits(),
                "{} of {} flows: {:e} vs oracle {w:e}",
                f.id,
                active.len(),
                f.rate
            );
        }
        index_matches_rescan(net)
    }

    /// Every link's index entry against a rescan of the active routes,
    /// as multisets of flow ids; the slots the id map names hold those
    /// flows, and every other slot is free and listed nowhere;
    /// `link_seen` marks exactly the touched links; and neither the walk
    /// nor the solver leaves a mark set.
    fn index_matches_rescan(net: &FluidNet) -> Result<(), String> {
        let index = &net.index;
        for (&id, &slot) in &net.slots {
            let held = net.flows[slot as usize].as_ref().map(|f| f.id);
            prop_assert_eq!(held, Some(id), "slot {}", slot);
        }
        let mut free: Vec<u32> = (0..net.flows.len() as u32)
            .filter(|&s| net.flows[s as usize].is_none())
            .collect();
        prop_assert_eq!(net.slots.len() + free.len(), net.flows.len());
        let mut listed_free = net.free.clone();
        listed_free.sort_unstable();
        free.sort_unstable();
        prop_assert_eq!(listed_free, free);
        // Each link's ids come out sorted: the map iterates in id order.
        let mut rescan = vec![Vec::new(); index.on_link.len()];
        for f in net.in_id_order() {
            for &l in f.path.links() {
                rescan[l.index()].push(f.id);
            }
        }
        for (l, (list, want)) in index.on_link.iter().zip(rescan).enumerate() {
            let got: Option<Vec<FlowId>> = list
                .iter()
                .map(|&s| net.flows[s as usize].as_ref().map(|f| f.id))
                .collect();
            let Some(mut got) = got else {
                return Err(format!("link {l} lists a free slot"));
            };
            got.sort_unstable();
            prop_assert_eq!(got, want, "link {}", l);
        }
        let mut touched: Vec<usize> = index.touched.iter().map(|l| l.index()).collect();
        touched.sort_unstable();
        let seen: Vec<usize> = (0..index.link_seen.len())
            .filter(|&l| index.link_seen[l])
            .collect();
        prop_assert_eq!(touched, seen);
        prop_assert_eq!(index.flow_seen.len(), net.flows.len());
        prop_assert!(!index.flow_seen.contains(&true), "a walk mark left set");
        prop_assert!(index.reached.is_empty(), "a walk left flows reached");
        prop_assert!(net.solver.is_clean(), "a solver mark left set");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// A random walk over every state-changing call. After each one
        /// the active flows' rates equal the oracle's to the bit; at
        /// the end every admitted flow that was not removed has
        /// completed exactly once, in non-decreasing time. After every
        /// call, too, each link's index entry equals a rescan of the
        /// active routes.
        #[test]
        fn state_walk_matches_the_oracle(
            tree in oracle::trees(),
            crowd in 0u32..6,
            script in proptest::collection::vec(
                (0u8..10, (any::<u32>(), any::<u32>(), any::<u32>()), 0.0f64..1.0, 0.0f64..1.0),
                1..150),
        ) {
            let topo = Arc::new(Topology::three_tier(&tree));
            let mut net = FluidNet::new(topo.clone());
            let mut expected = Vec::new();
            let mut completions = Vec::new();
            for (op, raw, frac, size) in script {
                let now = net.now().as_secs();
                let later = |secs: f64| SimTime::from_secs(now + secs);
                let active: Vec<FlowId> = net.active_flows().iter().map(|f| f.id).collect();
                let victim = active.get(raw.0 as usize % active.len().max(1)).copied();
                match (op, victim) {
                    // Admission: op 0 lands on the current instant, so
                    // runs of it are bursts.
                    (0..=4, _) => {
                        let at = later(frac * 0.01 * f64::from(op));
                        completions.extend(net.advance_to(at));
                        index_matches_rescan(&net)?;
                        let path = oracle::route(&topo, crowd, raw);
                        expected.push(net.add_flow(path, 1e5 + size * 1e9, at));
                    }
                    (5, Some(id)) => {
                        net.remove_flow(id).expect("active flow");
                        expected.retain(|e| *e != id);
                    }
                    (6, Some(id)) => {
                        let old = net.flow(id).expect("active flow").path.clone();
                        let paths = topo.shortest_paths(old.src(), old.dst());
                        if !paths.is_empty() {
                            net.reroute_flow(id, paths[raw.1 as usize % paths.len()].clone());
                        }
                    }
                    // Flip a link under an active flow, or any link.
                    (7 | 8, _) => {
                        let on_path = match victim {
                            Some(id) if op == 7 => net.flow(id).expect("active flow").path.links().to_vec(),
                            _ => Vec::new(),
                        };
                        let any = topo.links()[raw.1 as usize % topo.links().len()].id();
                        let link = on_path.get(raw.1 as usize % on_path.len().max(1)).copied().unwrap_or(any);
                        net.set_link_up(link, raw.2 % 2 == 0);
                    }
                    // Advance; one time in eight by 10^4-10^5 s, where an
                    // ulp of the clock outweighs the completion epsilon.
                    _ => {
                        let secs = if raw.2 % 8 == 0 { 1e4 + frac * 9e4 } else { frac * 0.2 };
                        completions.extend(net.advance_to(later(secs)));
                    }
                }
                index_matches_rescan(&net)?;
                rates_match_oracle(&mut net)?;
            }
            // Heal everything so stalled flows can finish, then drain
            // one completion instant at a time.
            for l in topo.links() {
                net.set_link_up(l.id(), true);
            }
            rates_match_oracle(&mut net)?;
            while net.flow_count() > 0 {
                let next = net.next_completion_time();
                prop_assert!(!next.is_never(), "every link is up, yet a flow cannot finish");
                completions.extend(net.advance_to(next));
                rates_match_oracle(&mut net)?;
            }
            prop_assert!(completions.windows(2).all(|w| w[0].at <= w[1].at));
            let mut completed: Vec<FlowId> = completions.iter().map(|c| c.flow).collect();
            completed.sort();
            prop_assert_eq!(completed, expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Conservation: every admitted flow eventually completes, and
        /// total completed bits equal total admitted bits.
        #[test]
        fn all_flows_complete(
            jobs in proptest::collection::vec(
                (0u32..64, 0u32..64, 1.0f64..4.0, 0.0f64..5.0), 1..25)
        ) {
            let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
            let mut net = FluidNet::new(topo.clone());
            let mut sorted = jobs.clone();
            sorted.sort_by(|a, b| a.3.partial_cmp(&b.3).unwrap());
            let mut admitted = 0usize;
            let mut admitted_bits = 0.0;
            let mut completions = Vec::new();
            for (a, b, gbits, at) in sorted {
                if a == b { continue; }
                let t = SimTime::from_secs(at);
                completions.extend(net.advance_to(t));
                let p = topo.shortest_paths(HostId(a), HostId(b))[0].clone();
                net.add_flow(p, gbits * 1e9, t);
                admitted += 1;
                admitted_bits += gbits * 1e9;
            }
            completions.extend(net.advance_to(SimTime::from_secs(1e5)));
            prop_assert_eq!(completions.len(), admitted);
            let done_bits: f64 = completions.iter().map(|c| c.size_bits).sum();
            prop_assert!((done_bits - admitted_bits).abs() < 1.0);
            // Completion times are non-decreasing and after admission.
            let mut last = SimTime::ZERO;
            for c in &completions {
                prop_assert!(c.at >= last);
                prop_assert!(c.at >= c.started);
                last = c.at;
            }
        }
    }
}
