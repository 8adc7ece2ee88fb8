//! The Eq. 2 path cost: completion time of the new flow plus the
//! completion-time increase it inflicts on existing flows.

use mayflower_net::{LinkId, Topology};
use mayflower_simcore::SimTime;

use crate::bandwidth::{existing_flow_new_shares_into, new_flow_share_on_path_into};
use crate::scratch::SelectionScratch;
use crate::tracker::FlowTracker;

/// The result of evaluating one candidate path.
#[derive(Debug, Clone)]
pub struct PathCost {
    /// Estimated bandwidth share `b_j` of the new flow on this path.
    pub est_bw: f64,
    /// Total cost (seconds): `d_j/b_j + Σ (r_f/b'_f − r_f/b_f)`.
    pub cost: f64,
    /// The bandwidth changes the admission would impose on existing
    /// flows: `(cookie, new_bw)` for every flow whose share shrinks.
    pub impacted: Vec<(mayflower_sdn::FlowCookie, f64)>,
}

/// Evaluates `FLOWCOST` (Pseudocode 2, lines 1–11) for a candidate
/// path: estimates the new flow's share, then charges the slowdown of
/// every existing flow on the path.
///
/// Returns a cost of `f64::INFINITY` when the path has no available
/// bandwidth (`b_j = 0`) or an impacted flow would be starved.
#[must_use]
pub fn flow_cost(
    topo: &Topology,
    tracker: &FlowTracker,
    path_links: &[LinkId],
    flow_size_bits: f64,
    now: SimTime,
) -> PathCost {
    let mut scratch = SelectionScratch::new();
    let (est_bw, cost) = flow_cost_into(
        topo,
        tracker,
        path_links,
        flow_size_bits,
        now,
        true,
        None,
        &mut scratch,
    );
    PathCost {
        est_bw,
        cost,
        impacted: scratch.take_impacted(),
    }
}

/// The allocation-free evaluation core behind [`flow_cost`]: returns
/// `(est_bw, cost)` and leaves the impacted rows in `scratch.impact`
/// (materialize them with `take_impacted` only for the winning
/// candidate — losing candidates never touch the heap).
///
/// With `impact_aware = false` the cost is just `d_j / b_j` — greedy
/// own-bandwidth maximization, the strawman the paper argues against
/// in §4: "the path with the most bandwidth share is a good choice,
/// [but] it is not always the best choice in highly dynamic settings."
/// The bandwidth changes of existing flows are still computed and left
/// in the scratch (even a greedy scheduler must keep its model
/// consistent).
///
/// `est_bw_hint` lets a caller that already knows the path's
/// bottleneck share (from a per-link share cache) skip recomputing it;
/// the hint **must** equal what [`new_flow_share_on_path_into`] would
/// return, bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn flow_cost_into(
    topo: &Topology,
    tracker: &FlowTracker,
    path_links: &[LinkId],
    flow_size_bits: f64,
    now: SimTime,
    impact_aware: bool,
    est_bw_hint: Option<f64>,
    scratch: &mut SelectionScratch,
) -> (f64, f64) {
    let est_bw = match est_bw_hint {
        Some(b) => b,
        None => new_flow_share_on_path_into(topo, tracker, path_links, &mut scratch.fair),
    };
    if est_bw <= 0.0 {
        scratch.impact.clear();
        return (est_bw, f64::INFINITY);
    }
    let mut cost = flow_size_bits / est_bw;
    existing_flow_new_shares_into(topo, tracker, path_links, est_bw, scratch);
    if impact_aware {
        for row in &scratch.impact {
            // Impact rows are built from tracked flows: every row
            // resolves.
            let Some(f) = tracker.get(row.cookie) else {
                continue;
            };
            let r = f.remaining_at(now);
            if row.new_bw <= 0.0 {
                // The impacted rows stay in the scratch: a starving
                // admission still re-freezes its victims if committed.
                return (est_bw, f64::INFINITY);
            }
            // r/b' − r/b: the increase in that flow's completion time.
            let cur = f.bw.max(f64::MIN_POSITIVE);
            cost += r / row.new_bw - r / cur;
        }
    }
    (est_bw, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::tests::{fig2, fig2_tracker};

    /// The paper's worked example, Figure 2(b): the cost of the first
    /// path is `9/3 + (6/3 − 6/6) + (6/7 − 6/10) = 4.25`.
    #[test]
    fn fig2_first_path_costs_4_25() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        let pc = flow_cost(&t, &tr, p1.links(), 9.0, SimTime::ZERO);
        assert!((pc.est_bw - 3.0).abs() < 1e-9);
        let expected = 9.0 / 3.0 + (6.0 / 3.0 - 6.0 / 6.0) + (6.0 / 7.0 - 6.0 / 10.0);
        assert!(
            (pc.cost - expected).abs() < 1e-9,
            "cost {} vs {}",
            pc.cost,
            expected
        );
        assert!((pc.cost - 4.257).abs() < 0.01, "paper rounds to 4.25");
    }

    /// Figure 2(c): the second path costs `9/3 + (6/3 − 6/4) + (6/7 −
    /// 6/8) ≈ 3.6`, so it wins.
    #[test]
    fn fig2_second_path_costs_3_6() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        let pc = flow_cost(&t, &tr, p2.links(), 9.0, SimTime::ZERO);
        let expected = 9.0 / 3.0 + (6.0 / 3.0 - 6.0 / 4.0) + (6.0 / 7.0 - 6.0 / 8.0);
        assert!((pc.cost - expected).abs() < 1e-9);
        assert!((pc.cost - 3.607).abs() < 0.01, "paper rounds to 3.6");
        // And the second path beats the first.
        let pc1 = flow_cost(&t, &tr, p1.links(), 9.0, SimTime::ZERO);
        assert!(pc.cost < pc1.cost);
    }

    /// The paper's closing variation: "if we assume that the second
    /// link in the first path has 20 Mbps capacity, then the cost of
    /// the first path will become 2.4 seconds and thus the first path
    /// will be selected."
    #[test]
    fn fig2_20mbps_variant_flips_the_choice() {
        use mayflower_net::{NodeKind, PodId, RackId, Topology};
        // Rebuild fig2 with the e1→a1 link at 20 Mbps.
        let mut t = Topology::new();
        let e1 = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let e2 = t.add_node(NodeKind::EdgeSwitch, Some(RackId(1)), Some(PodId(0)));
        t.set_rack_edge(RackId(0), e1);
        t.set_rack_edge(RackId(1), e2);
        let a1 = t.add_node(NodeKind::AggSwitch, None, Some(PodId(0)));
        let a2 = t.add_node(NodeKind::AggSwitch, None, Some(PodId(0)));
        let hs = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let src = t.register_host(hs, RackId(0), PodId(0));
        let hr = t.add_node(NodeKind::Host, Some(RackId(1)), Some(PodId(0)));
        let reader = t.register_host(hr, RackId(1), PodId(0));
        t.add_duplex_link(hs, e1, 20.0);
        t.add_duplex_link(hr, e2, 10.0);
        t.add_duplex_link(e1, a1, 20.0); // the upgraded link
        t.add_duplex_link(e1, a2, 10.0);
        t.add_duplex_link(a1, e2, 10.0);
        t.add_duplex_link(a2, e2, 10.0);
        t.freeze();
        let paths = t.shortest_paths(src, reader);
        let via_a1 = |p: &mayflower_net::Path| p.links().iter().any(|&l| t.link(l).dst() == a1);
        let p1 = paths.iter().find(|p| via_a1(p)).unwrap().clone();
        let p2 = paths.iter().find(|p| !via_a1(p)).unwrap().clone();
        let tr = fig2_tracker(&p1, &p2);

        let pc1 = flow_cost(&t, &tr, p1.links(), 9.0, SimTime::ZERO);
        let pc2 = flow_cost(&t, &tr, p2.links(), 9.0, SimTime::ZERO);
        // 20 Mbps second link: waterfill(20, [2,2,6,inf]) → new flow 10
        // with nobody impacted there; third link waterfill(10,[10,inf])
        // → 5. So b_j=5, cost = 9/5 + (6/5 − 6/10) = 1.8 + 0.6 = 2.4.
        assert!((pc1.cost - 2.4).abs() < 1e-9, "cost {}", pc1.cost);
        assert!(pc1.cost < pc2.cost, "first path must now win");
    }

    #[test]
    fn saturated_path_costs_infinity() {
        let (t, p1, p2, _, _) = fig2();
        let mut tr = fig2_tracker(&p1, &p2);
        // Saturate p1's second link completely with zero-demand slack:
        // set an existing flow's bw to consume all capacity and give
        // the link zero headroom *and* zero fair share for newcomers
        // can't happen with waterfill (new flow always gets an equal
        // share), so test the zero-capacity behaviour directly via a
        // zero-size request instead: cost stays finite for tiny flows.
        let pc = flow_cost(&t, &tr, p1.links(), 0.0, SimTime::ZERO);
        assert!(pc.cost.is_finite());
        // And a flow with zero remaining contributes zero slowdown: a
        // poll reporting every bit delivered at the modelled rate.
        for c in [1u64, 2, 3, 4].map(mayflower_sdn::FlowCookie) {
            let f = tr.get(c).expect("fig2 background flow").clone();
            assert!(tr.apply_stats(c, f.bw, f.size_bits, SimTime::ZERO, false));
            assert_eq!(tr.get(c).unwrap().remaining_bits, 0.0);
        }
        let pc = flow_cost(&t, &tr, p1.links(), 9.0, SimTime::ZERO);
        assert!((pc.cost - 3.0).abs() < 1e-9, "only the new flow's time");
    }

    #[test]
    fn empty_flow_set_costs_pure_transfer_time() {
        // With no existing flows the impact term vanishes: the cost is
        // exactly d_j / b_j with b_j the path's bottleneck capacity.
        let (t, p1, _, _, _) = fig2();
        let tr = FlowTracker::new();
        let pc = flow_cost(&t, &tr, p1.links(), 90.0, SimTime::ZERO);
        let bottleneck = p1
            .links()
            .iter()
            .map(|&l| t.link(l).capacity())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(pc.est_bw, bottleneck);
        assert_eq!(pc.cost, 90.0 / bottleneck);
        assert!(pc.impacted.is_empty());
    }

    #[test]
    fn single_saturated_link_shares_fairly_and_charges_both_slowdowns() {
        use mayflower_net::{NodeKind, PodId, RackId, Topology};
        use mayflower_simcore::SimTime;
        // One 10 Mbps bottleneck carrying two 5 Mbps flows — fully
        // saturated. A newcomer forces an equal three-way split and
        // pays for both victims' slowdown.
        let mut t = Topology::new();
        let e = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        t.set_rack_edge(RackId(0), e);
        let hs = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let src = t.register_host(hs, RackId(0), PodId(0));
        let hr = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let dst = t.register_host(hr, RackId(0), PodId(0));
        t.add_duplex_link(hs, e, 100.0);
        t.add_duplex_link(hr, e, 10.0); // the bottleneck, e→hr direction
        t.freeze();
        let path = t.shortest_paths(src, dst).remove(0);
        let mk = |cookie: u64, remaining: f64| crate::tracker::TrackedFlow {
            cookie: mayflower_sdn::FlowCookie(cookie),
            path: path.clone(),
            size_bits: 100.0,
            remaining_bits: remaining,
            bw: 5.0,
            updated_at: SimTime::ZERO,
            frozen: false,
            freeze_until: SimTime::ZERO,
        };
        let mut tr = FlowTracker::new();
        tr.insert(mk(1, 30.0));
        tr.insert(mk(2, 60.0));
        let pc = flow_cost(&t, &tr, path.links(), 20.0, SimTime::ZERO);
        // waterfill(10, [5, 5, ∞]) → 10/3 each.
        let share = 10.0 / 3.0;
        assert!((pc.est_bw - share).abs() < 1e-9);
        let expected = 20.0 / share + (30.0 / share - 30.0 / 5.0) + (60.0 / share - 60.0 / 5.0);
        assert!((pc.cost - expected).abs() < 1e-9, "cost {}", pc.cost);
        assert_eq!(pc.impacted.len(), 2, "both existing flows re-frozen");
    }

    #[test]
    fn zero_bw_existing_flow_does_not_poison_the_cost() {
        // A flow frozen at zero bandwidth (SETBW 0: frozen forever,
        // e.g. admitted onto a path that then went dark) sits on the
        // candidate path. Its share cannot *shrink*, so it is not an
        // impact victim, and the guard against dividing by its zero
        // current bandwidth keeps the cost finite and positive.
        let (t, p1, p2, _, _) = fig2();
        let mut tr = fig2_tracker(&p1, &p2);
        for c in [1u64, 2, 3, 4] {
            tr.set_flow_bw(mayflower_sdn::FlowCookie(c), 0.0, SimTime::ZERO);
        }
        let pc = flow_cost(&t, &tr, p1.links(), 9.0, SimTime::ZERO);
        assert!(pc.cost.is_finite());
        assert!(pc.cost > 0.0);
        assert!(
            pc.impacted.is_empty(),
            "zero-bw flows cannot be slowed further: {:?}",
            pc.impacted
        );
    }

    #[test]
    fn cost_monotone_in_size() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        let c_small = flow_cost(&t, &tr, p1.links(), 1.0, SimTime::ZERO).cost;
        let c_big = flow_cost(&t, &tr, p1.links(), 100.0, SimTime::ZERO).cost;
        assert!(c_big > c_small);
    }
}
