//! The Flowserver's model of in-flight flows.

use std::collections::BTreeMap;

use mayflower_net::{LinkId, Path};
use mayflower_sdn::FlowCookie;
use mayflower_simcore::SimTime;

/// The Flowserver's bookkeeping for one in-flight flow.
///
/// `bw` and `remaining_bits` are *estimates*: they start from the
/// selection-time max-min calculation, are refreshed by edge-switch
/// stats polls, and are re-derived after every admission. The
/// update-freeze state (Pseudocode 2) protects a freshly-computed
/// estimate from being clobbered by the next (stale) stats poll.
#[derive(Debug, Clone)]
pub struct TrackedFlow {
    /// The flow's fabric-wide identifier.
    pub cookie: FlowCookie,
    /// The installed path.
    pub path: Path,
    /// Total request size in bits.
    pub size_bits: f64,
    /// Estimated bits still to transfer **as of [`TrackedFlow::
    /// updated_at`]** — read it through [`TrackedFlow::remaining_at`],
    /// which extrapolates the transfer's progression at the modelled
    /// bandwidth ("the Flowserver tracks flow add and drop requests,
    /// and recomputes an estimate ... after each request. This ensures
    /// that completion time estimates are accurate", §3.3.3).
    pub remaining_bits: f64,
    /// Estimated bandwidth share, bits/sec.
    pub bw: f64,
    /// When `remaining_bits` and `bw` were last anchored (selection or
    /// stats poll).
    pub updated_at: SimTime,
    /// Whether the flow is in the update-freeze state.
    pub frozen: bool,
    /// When the freeze expires (`T + remaining / bw` at set time).
    pub freeze_until: SimTime,
}

impl TrackedFlow {
    /// The modelled bits still to transfer at `now`: the anchored
    /// remaining size minus the progression at the modelled bandwidth
    /// since the anchor.
    #[must_use]
    pub fn remaining_at(&self, now: SimTime) -> f64 {
        if self.bw.is_finite() && self.bw > 0.0 {
            (self.remaining_bits - self.bw * now.secs_since(self.updated_at)).max(0.0)
        } else {
            self.remaining_bits
        }
    }

    /// `SETBW` from Pseudocode 2: re-anchors the progression at `now`,
    /// records a new bandwidth estimate, and freezes the flow for its
    /// expected completion time.
    pub fn set_bw(&mut self, bw: f64, now: SimTime) {
        self.remaining_bits = self.remaining_at(now);
        self.updated_at = now;
        self.bw = bw;
        self.freeze_until = if bw > 0.0 {
            now + SimTime::from_secs(self.remaining_bits / bw)
        } else {
            SimTime::MAX
        };
        self.frozen = true;
    }

    /// `UPDATEBW` from Pseudocode 2: applies a measured bandwidth and
    /// remaining-size estimate from a stats poll, unless the flow is
    /// still inside its freeze window.
    ///
    /// Returns whether the update was applied.
    pub fn update_from_stats(&mut self, measured_bw: f64, total_bits: f64, now: SimTime) -> bool {
        if self.frozen && now <= self.freeze_until {
            return false;
        }
        self.bw = measured_bw;
        self.remaining_bits = (self.size_bits - total_bits).max(0.0);
        self.updated_at = now;
        self.frozen = false;
        true
    }
}

/// The incrementally-maintained load summary of one directed link: the
/// cookies and modelled bandwidths (demands) of every flow crossing
/// it, in cookie order — exactly the demand vector a per-link
/// waterfill consumes — plus a change epoch for downstream share
/// caches.
#[derive(Debug, Clone, Default)]
pub struct LinkLoad {
    cookies: Vec<FlowCookie>,
    demands: Vec<f64>,
    epoch: u64,
}

impl LinkLoad {
    /// Cookies of the flows crossing the link, ascending.
    #[must_use]
    pub fn cookies(&self) -> &[FlowCookie] {
        &self.cookies
    }

    /// The flows' modelled bandwidths, parallel to
    /// [`LinkLoad::cookies`].
    #[must_use]
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Bumped whenever this link's flow set or demands change; share
    /// caches keyed on it stay exact.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether no flow crosses the link.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }
}

/// An ordered collection of tracked flows with per-link indexing.
///
/// The structured mutators ([`FlowTracker::insert`], [`FlowTracker::
/// remove`], [`FlowTracker::set_flow_bw`], [`FlowTracker::
/// apply_stats`], [`FlowTracker::resize_flow`], [`FlowTracker::
/// unfreeze_where`]) are the only way a tracked flow changes, and each
/// updates the per-link [`LinkLoad`] index in the same step — so the
/// index equals a rescan of the flows by construction and no reader
/// has a freshness precondition to check.
#[derive(Debug, Clone, Default)]
pub struct FlowTracker {
    flows: BTreeMap<FlowCookie, TrackedFlow>,
    /// Dense per-link load index, grown on first touch.
    links: Vec<LinkLoad>,
    /// Global change counter; touched links are stamped with it.
    epoch: u64,
}

impl FlowTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> FlowTracker {
        FlowTracker::default()
    }

    fn load_slot(links: &mut Vec<LinkLoad>, link: LinkId) -> &mut LinkLoad {
        if links.len() <= link.index() {
            links.resize_with(link.index() + 1, LinkLoad::default);
        }
        &mut links[link.index()]
    }

    /// Writes `flow`'s current bandwidth into its slot on every link it
    /// crosses and stamps those links with `epoch`.
    fn reindex_demand(links: &mut [LinkLoad], epoch: u64, flow: &TrackedFlow) {
        for &l in flow.path.links() {
            if let Some(load) = links.get_mut(l.index()) {
                if let Ok(pos) = load.cookies.binary_search(&flow.cookie) {
                    load.demands[pos] = flow.bw;
                    load.epoch = epoch;
                }
            }
        }
    }

    /// Registers a flow.
    ///
    /// # Panics
    ///
    /// Panics if the cookie is already tracked.
    pub fn insert(&mut self, flow: TrackedFlow) {
        assert!(
            !self.flows.contains_key(&flow.cookie),
            "cookie already tracked"
        );
        self.epoch += 1;
        let epoch = self.epoch;
        let links = flow.path.links();
        for (i, &l) in links.iter().enumerate() {
            if links[..i].contains(&l) {
                continue; // a degenerate path repeating a link counts once
            }
            let load = Self::load_slot(&mut self.links, l);
            if let Err(pos) = load.cookies.binary_search(&flow.cookie) {
                load.cookies.insert(pos, flow.cookie);
                load.demands.insert(pos, flow.bw);
                load.epoch = epoch;
            }
        }
        self.flows.insert(flow.cookie, flow);
    }

    /// Removes a flow, returning its final model state.
    pub fn remove(&mut self, cookie: FlowCookie) -> Option<TrackedFlow> {
        let flow = self.flows.remove(&cookie)?;
        self.epoch += 1;
        let epoch = self.epoch;
        for &l in flow.path.links() {
            if let Some(load) = self.links.get_mut(l.index()) {
                if let Ok(pos) = load.cookies.binary_search(&cookie) {
                    load.cookies.remove(pos);
                    load.demands.remove(pos);
                    load.epoch = epoch;
                }
            }
        }
        Some(flow)
    }

    /// Looks up a flow.
    #[must_use]
    pub fn get(&self, cookie: FlowCookie) -> Option<&TrackedFlow> {
        self.flows.get(&cookie)
    }

    /// All tracked flows in cookie order.
    pub fn iter(&self) -> impl Iterator<Item = &TrackedFlow> {
        self.flows.values()
    }

    /// `SETBW` on a tracked flow (see [`TrackedFlow::set_bw`]),
    /// keeping the link index exact. Returns whether the flow exists.
    pub fn set_flow_bw(&mut self, cookie: FlowCookie, bw: f64, now: SimTime) -> bool {
        let Some(f) = self.flows.get_mut(&cookie) else {
            return false;
        };
        f.set_bw(bw, now);
        self.epoch += 1;
        Self::reindex_demand(&mut self.links, self.epoch, f);
        true
    }

    /// `UPDATEBW` from a stats poll (see [`TrackedFlow::
    /// update_from_stats`]), keeping the link index exact. With
    /// `force_unfreeze` the freeze window is cleared first (the
    /// freeze-disabled ablation). Returns whether the update applied.
    pub fn apply_stats(
        &mut self,
        cookie: FlowCookie,
        measured_bw: f64,
        total_bits: f64,
        now: SimTime,
        force_unfreeze: bool,
    ) -> bool {
        let Some(f) = self.flows.get_mut(&cookie) else {
            return false;
        };
        if force_unfreeze {
            f.frozen = false;
        }
        if !f.update_from_stats(measured_bw, total_bits, now) {
            return false;
        }
        self.epoch += 1;
        Self::reindex_demand(&mut self.links, self.epoch, f);
        true
    }

    /// Clock-side freeze expiry: unfreezes every flow whose freeze
    /// window has lapsed (strictly after `freeze_until`, Pseudocode 2),
    /// returning how many.
    pub fn expire_frozen(&mut self, now: SimTime) -> usize {
        self.unfreeze_where(|f| now > f.freeze_until)
    }

    /// Unfreezes every frozen flow `lapsed` accepts, in cookie order,
    /// returning how many. Demands are untouched, so the link index
    /// stays exact without reindexing. [`FlowTracker::expire_frozen`]
    /// is the production predicate; the model checker's off-by-one
    /// mutant passes a wrong one.
    pub fn unfreeze_where(&mut self, lapsed: impl Fn(&TrackedFlow) -> bool) -> usize {
        let mut expired = 0;
        for f in self.flows.values_mut() {
            if f.frozen && lapsed(f) {
                f.frozen = false;
                expired += 1;
            }
        }
        expired
    }

    /// Re-sizes a flow (a §4.3 split proportioning its subflows) and
    /// refreshes its freeze window at its current bandwidth. The
    /// demand is unchanged, so the link index stays exact. Returns
    /// whether the flow exists.
    pub fn resize_flow(&mut self, cookie: FlowCookie, size_bits: f64, now: SimTime) -> bool {
        let Some(f) = self.flows.get_mut(&cookie) else {
            return false;
        };
        f.size_bits = size_bits;
        f.remaining_bits = size_bits;
        let bw = f.bw;
        f.set_bw(bw, now);
        true
    }

    /// The load summary for `link`, if any flow ever touched it.
    #[must_use]
    pub fn link_load(&self, link: LinkId) -> Option<&LinkLoad> {
        self.links.get(link.index())
    }

    /// The global change counter; see [`LinkLoad::epoch`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of tracked flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flows are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Cookies of flows that traverse `link`, by scanning every flow:
    /// what the link index is checked against.
    #[cfg(test)]
    pub(crate) fn flows_on_link(&self, link: LinkId) -> Vec<FlowCookie> {
        self.flows
            .values()
            .filter(|f| f.path.links().contains(&link))
            .map(|f| f.cookie)
            .collect()
    }

    /// The modelled bandwidth of every flow crossing `link`, in cookie
    /// order, by scanning every flow (see [`FlowTracker::
    /// flows_on_link`]).
    #[cfg(test)]
    pub(crate) fn demands_on_link(&self, link: LinkId) -> Vec<f64> {
        self.flows
            .values()
            .filter(|f| f.path.links().contains(&link))
            .map(|f| f.bw)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::HostId;

    fn flow(cookie: u64, links: Vec<u32>, bw: f64) -> TrackedFlow {
        TrackedFlow {
            cookie: FlowCookie(cookie),
            path: Path::new(
                HostId(0),
                HostId(1),
                links.into_iter().map(LinkId).collect(),
            ),
            size_bits: 100.0,
            remaining_bits: 50.0,
            bw,
            updated_at: SimTime::ZERO,
            frozen: false,
            freeze_until: SimTime::ZERO,
        }
    }

    #[test]
    fn set_bw_freezes_until_expected_completion() {
        let mut f = flow(1, vec![0], 10.0);
        f.set_bw(5.0, SimTime::from_secs(2.0));
        assert!(f.frozen);
        assert_eq!(f.bw, 5.0);
        // 50 bits remaining anchored at t=0, minus 2 s of progression
        // at the old 10 bps → 30 bits left, at 5 bps → freeze until
        // t = 2 + 30/5 = 8.
        assert_eq!(f.remaining_bits, 30.0);
        assert_eq!(f.freeze_until, SimTime::from_secs(8.0));
    }

    #[test]
    fn remaining_at_extrapolates_progression() {
        let f = flow(1, vec![0], 10.0); // 50 bits left, anchored at 0
        assert_eq!(f.remaining_at(SimTime::ZERO), 50.0);
        assert_eq!(f.remaining_at(SimTime::from_secs(3.0)), 20.0);
        // Saturates at zero once the modelled transfer finishes.
        assert_eq!(f.remaining_at(SimTime::from_secs(100.0)), 0.0);
    }

    #[test]
    fn remaining_at_with_zero_bw_is_static() {
        let mut f = flow(1, vec![0], 0.0);
        f.bw = 0.0;
        assert_eq!(f.remaining_at(SimTime::from_secs(9.0)), 50.0);
    }

    #[test]
    fn set_bw_zero_freezes_forever() {
        let mut f = flow(1, vec![0], 10.0);
        f.set_bw(0.0, SimTime::ZERO);
        assert!(f.freeze_until.is_never());
    }

    #[test]
    fn stats_update_respects_freeze_window() {
        let mut f = flow(1, vec![0], 10.0);
        f.set_bw(5.0, SimTime::ZERO); // frozen until t=10
        assert!(!f.update_from_stats(7.0, 60.0, SimTime::from_secs(5.0)));
        assert_eq!(f.bw, 5.0);
        // After expiry the update applies and unfreezes.
        assert!(f.update_from_stats(7.0, 60.0, SimTime::from_secs(11.0)));
        assert_eq!(f.bw, 7.0);
        assert_eq!(f.remaining_bits, 40.0);
        assert!(!f.frozen);
    }

    #[test]
    fn freeze_boundary_is_inclusive() {
        // Pseudocode 2 rejects UPDATEBW while `now <= freeze_until`:
        // the boundary instant itself is still frozen, the first
        // instant after it is not.
        let mut f = flow(1, vec![0], 10.0);
        f.set_bw(5.0, SimTime::ZERO); // frozen until t = 10
        assert!(!f.update_from_stats(7.0, 60.0, SimTime::from_secs(10.0)));
        assert!(f.frozen);
        assert!(f.update_from_stats(7.0, 60.0, SimTime::from_secs(10.000_001)));
        assert!(!f.frozen);
    }

    #[test]
    fn unfreeze_where_sweeps_only_frozen_flows_the_predicate_accepts() {
        // When no stats arrive (Flowserver outage, lost polls) nothing
        // calls UPDATEBW, so expired freezes are cleared clock-side by
        // this sweep — the tracker half of the server's
        // `expire_stale_freezes`.
        let mut t = FlowTracker::new();
        for (cookie, bw) in [(1u64, 10.0), (2, 5.0), (3, 1.0)] {
            let mut f = flow(cookie, vec![0], bw);
            f.set_bw(bw, SimTime::ZERO); // freezes until 50/bw secs
            t.insert(f);
        }
        t.insert(flow(4, vec![0], 2.0)); // never frozen: not counted
        let now = SimTime::from_secs(20.0); // past 5 and 10, before 50
        assert_eq!(t.unfreeze_where(|f| now > f.freeze_until), 2);
        assert!(!t.get(FlowCookie(1)).unwrap().frozen);
        assert!(!t.get(FlowCookie(2)).unwrap().frozen);
        assert!(t.get(FlowCookie(3)).unwrap().frozen, "still inside window");
        // A second sweep finds nothing left to do.
        assert_eq!(t.unfreeze_where(|f| now > f.freeze_until), 0);
        assert_eq!(t.unfreeze_where(|_| true), 1);
    }

    #[test]
    fn unfrozen_flow_always_updates() {
        let mut f = flow(1, vec![0], 10.0);
        assert!(f.update_from_stats(3.0, 90.0, SimTime::ZERO));
        assert_eq!(f.bw, 3.0);
        assert_eq!(f.remaining_bits, 10.0);
    }

    #[test]
    fn remaining_never_negative() {
        let mut f = flow(1, vec![0], 10.0);
        assert!(f.update_from_stats(3.0, 150.0, SimTime::ZERO));
        assert_eq!(f.remaining_bits, 0.0);
    }

    #[test]
    fn tracker_link_index() {
        let mut t = FlowTracker::new();
        t.insert(flow(1, vec![0, 1], 2.0));
        t.insert(flow(2, vec![1, 2], 3.0));
        assert_eq!(t.flows_on_link(LinkId(0)), vec![FlowCookie(1)]);
        assert_eq!(
            t.flows_on_link(LinkId(1)),
            vec![FlowCookie(1), FlowCookie(2)]
        );
        assert_eq!(t.demands_on_link(LinkId(1)), vec![2.0, 3.0]);
        assert!(t.flows_on_link(LinkId(9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_insert_rejected() {
        let mut t = FlowTracker::new();
        t.insert(flow(1, vec![0], 2.0));
        t.insert(flow(1, vec![1], 3.0));
    }

    /// The incremental index must agree with the naive scans after any
    /// sequence of structured mutations.
    fn assert_index_matches_scans(t: &FlowTracker, links: &[u32]) {
        for &l in links {
            let link = LinkId(l);
            let cookies = t.flows_on_link(link);
            let demands = t.demands_on_link(link);
            match t.link_load(link) {
                None => assert!(cookies.is_empty(), "untouched link {l} has flows"),
                Some(load) => {
                    assert_eq!(load.cookies(), cookies.as_slice(), "link {l}");
                    assert_eq!(load.demands(), demands.as_slice(), "link {l}");
                }
            }
        }
    }

    #[test]
    fn index_tracks_insert_remove_and_setbw() {
        let mut t = FlowTracker::new();
        t.insert(flow(2, vec![0, 1], 2.0));
        t.insert(flow(1, vec![1, 2], 3.0));
        assert_index_matches_scans(&t, &[0, 1, 2, 3]);
        // Cookie order, not insertion order.
        assert_eq!(
            t.link_load(LinkId(1)).unwrap().cookies(),
            &[FlowCookie(1), FlowCookie(2)]
        );

        let e0 = t.link_load(LinkId(1)).unwrap().epoch();
        assert!(t.set_flow_bw(FlowCookie(2), 7.0, SimTime::ZERO));
        assert_index_matches_scans(&t, &[0, 1, 2]);
        assert!(t.link_load(LinkId(1)).unwrap().epoch() > e0);
        // Link 2 carries only flow 1: untouched by the set_bw.
        assert_eq!(t.link_load(LinkId(2)).unwrap().demands(), &[3.0]);

        t.remove(FlowCookie(2));
        assert_index_matches_scans(&t, &[0, 1, 2]);
        assert!(t.link_load(LinkId(0)).unwrap().is_empty());
        assert!(!t.set_flow_bw(FlowCookie(99), 1.0, SimTime::ZERO));
    }

    #[test]
    fn index_tracks_stats_updates() {
        let mut t = FlowTracker::new();
        t.insert(flow(1, vec![0], 10.0));
        assert!(t.apply_stats(FlowCookie(1), 4.0, 60.0, SimTime::ZERO, false));
        assert_eq!(t.link_load(LinkId(0)).unwrap().demands(), &[4.0]);
        assert_index_matches_scans(&t, &[0]);
        // A frozen flow rejects the update and leaves the index alone.
        t.set_flow_bw(FlowCookie(1), 5.0, SimTime::ZERO);
        assert!(!t.apply_stats(FlowCookie(1), 9.0, 80.0, SimTime::from_secs(1.0), false));
        assert_eq!(t.link_load(LinkId(0)).unwrap().demands(), &[5.0]);
        // Forcing the unfreeze (ablation mode) applies it.
        assert!(t.apply_stats(FlowCookie(1), 9.0, 80.0, SimTime::from_secs(1.0), true));
        assert_eq!(t.link_load(LinkId(0)).unwrap().demands(), &[9.0]);
    }

    #[test]
    fn expire_frozen_sweeps_without_touching_demands() {
        let mut t = FlowTracker::new();
        for (cookie, bw) in [(1u64, 10.0), (2, 5.0), (3, 1.0)] {
            let mut f = flow(cookie, vec![0], bw);
            f.set_bw(bw, SimTime::ZERO); // freezes until 50/bw secs
            t.insert(f);
        }
        let epoch = t.link_load(LinkId(0)).unwrap().epoch();
        assert_eq!(t.expire_frozen(SimTime::from_secs(20.0)), 2);
        assert_eq!(t.link_load(LinkId(0)).unwrap().epoch(), epoch);
        assert_index_matches_scans(&t, &[0]);
        assert!(t.get(FlowCookie(3)).unwrap().frozen);
    }

    #[test]
    fn resize_flow_refreezes_at_same_demand() {
        let mut t = FlowTracker::new();
        let mut f = flow(1, vec![0], 10.0);
        f.set_bw(10.0, SimTime::ZERO);
        t.insert(f);
        let epoch = t.link_load(LinkId(0)).unwrap().epoch();
        assert!(t.resize_flow(FlowCookie(1), 30.0, SimTime::ZERO));
        let f = t.get(FlowCookie(1)).unwrap();
        assert_eq!(f.size_bits, 30.0);
        assert_eq!(f.remaining_bits, 30.0);
        assert!(f.frozen);
        assert_eq!(f.freeze_until, SimTime::from_secs(3.0));
        assert_eq!(t.link_load(LinkId(0)).unwrap().epoch(), epoch);
        assert_index_matches_scans(&t, &[0]);
        assert!(!t.resize_flow(FlowCookie(9), 1.0, SimTime::ZERO));
    }

    #[test]
    fn degenerate_repeated_link_counts_once() {
        let mut t = FlowTracker::new();
        t.insert(flow(1, vec![0, 0], 2.0));
        assert_index_matches_scans(&t, &[0]);
        assert_eq!(t.link_load(LinkId(0)).unwrap().cookies().len(), 1);
        t.set_flow_bw(FlowCookie(1), 5.0, SimTime::ZERO);
        assert_eq!(t.link_load(LinkId(0)).unwrap().demands(), &[5.0]);
        t.remove(FlowCookie(1));
        assert!(t.link_load(LinkId(0)).unwrap().is_empty());
    }
}
