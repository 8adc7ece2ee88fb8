//! Path-local bandwidth share estimation (§4.2).
//!
//! The paper deliberately simplifies bandwidth estimation: instead of
//! recomputing a global max-min allocation (whose secondary and
//! tertiary ripple effects would touch nearly every flow), the
//! Flowserver waterfills **each link of the candidate path in
//! isolation**, using its modelled per-flow bandwidths as demands:
//!
//! > "For each link, given a set of flows with their bandwidth demands
//! > that use the link and the link's capacity, we equally divide the
//! > bandwidth across each flow up to the flow's demand while remaining
//! > within the link's capacity. The demand for the existing flows is
//! > set to their current bandwidth share whereas the demand of the new
//! > flow is set to infinity."
//!
//! Estimation error does not accumulate because periodic stats polls
//! re-anchor the model to measured counters.

use mayflower_net::fairshare::{new_flow_share_into, waterfill_with_extra, FairshareScratch};
use mayflower_net::{LinkId, Topology};
use mayflower_sdn::FlowCookie;

use crate::scratch::{ImpactRow, SelectionScratch};
use crate::tracker::FlowTracker;

/// The estimated max-min share of a **new** flow on `path_links`: its
/// waterfilled share on each link (existing flows demanding their
/// current modelled bandwidth, the new flow demanding infinity), then
/// the minimum across links — the bottleneck share `b_j` of Eq. 2.
///
/// Reads each link's demand vector from the tracker's incremental
/// [`crate::tracker::LinkLoad`] index and waterfills into scratch
/// buffers.
#[must_use]
pub fn new_flow_share_on_path_into(
    topo: &Topology,
    tracker: &FlowTracker,
    path_links: &[LinkId],
    fair: &mut FairshareScratch,
) -> f64 {
    let mut share = f64::INFINITY;
    for &l in path_links {
        let cap = topo.link(l).capacity();
        let s = match tracker.link_load(l) {
            // An idle link gives the newcomer exactly its capacity
            // (`waterfill(cap, [∞]) = [cap]`, bit for bit).
            None => cap,
            Some(load) if load.is_empty() => cap,
            Some(load) => new_flow_share_into(cap, load.demands(), fair),
        };
        share = share.min(s);
    }
    share
}

/// For every existing flow on `path_links`, its estimated bandwidth
/// after a new flow with demand `new_flow_bw` joins those links
/// (§4.2: "the new bandwidth estimate of the existing flows is their
/// bandwidth share when a new flow with bandwidth demand `b_j` is
/// added in the links in the path").
///
/// A flow crossing several of the path's links gets the minimum of its
/// per-link shares. Leaves one row per flow whose share changed
/// (`new_bw < current bw`) in `scratch.impact`, in cookie order —
/// exactly the flows Pseudocode 1 re-freezes.
pub fn existing_flow_new_shares_into(
    topo: &Topology,
    tracker: &FlowTracker,
    path_links: &[LinkId],
    new_flow_bw: f64,
    scratch: &mut SelectionScratch,
) {
    scratch.impact.clear();
    for &l in path_links {
        let Some(load) = tracker.link_load(l) else {
            continue;
        };
        if load.is_empty() {
            continue;
        }
        let cap = topo.link(l).capacity();
        let alloc = waterfill_with_extra(cap, load.demands(), new_flow_bw, &mut scratch.fair);
        merge_link_shares(
            &mut scratch.impact,
            &mut scratch.merged,
            load.cookies(),
            load.demands(),
            alloc,
        );
    }
    scratch.impact.retain(|r| r.new_bw < r.cur_bw - 1e-9);
}

/// Merges one link's `(cookie, share)` pairs into the accumulator,
/// keeping per-cookie minima. Both inputs are cookie-sorted; the
/// result stays cookie-sorted.
fn merge_link_shares(
    impact: &mut Vec<ImpactRow>,
    merged: &mut Vec<ImpactRow>,
    cookies: &[FlowCookie],
    demands: &[f64],
    alloc: &[f64],
) {
    merged.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < impact.len() && j < cookies.len() {
        match impact[i].cookie.cmp(&cookies[j]) {
            std::cmp::Ordering::Less => {
                merged.push(impact[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(ImpactRow {
                    cookie: cookies[j],
                    new_bw: alloc[j],
                    cur_bw: demands[j],
                });
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let mut row = impact[i];
                // Operand order matches the oracle's `b.min(*share)`
                // (relevant only for NaN, but kept identical).
                row.new_bw = row.new_bw.min(alloc[j]);
                merged.push(row);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&impact[i..]);
    for k in j..cookies.len() {
        merged.push(ImpactRow {
            cookie: cookies[k],
            new_bw: alloc[k],
            cur_bw: demands[k],
        });
    }
    std::mem::swap(impact, merged);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tracker::TrackedFlow;
    use mayflower_net::{HostId, NodeKind, Path, PodId, RackId};
    use mayflower_simcore::SimTime;

    /// The paper's Figure 2 topology: reader and source racks joined by
    /// two aggregation switches; 10 Mbps links. Returns the two
    /// candidate 4-link paths source→reader.
    pub(crate) fn fig2() -> (Topology, Path, Path, HostId, HostId) {
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
        let m = 1.0; // work in Mbps units directly
        t.add_duplex_link(hs, e1, 10.0 * m);
        t.add_duplex_link(hr, e2, 10.0 * m);
        t.add_duplex_link(e1, a1, 10.0 * m);
        t.add_duplex_link(e1, a2, 10.0 * m);
        t.add_duplex_link(a1, e2, 10.0 * m);
        t.add_duplex_link(a2, e2, 10.0 * m);
        t.freeze();
        let paths = t.shortest_paths(src, reader);
        assert_eq!(paths.len(), 2);
        // Identify which path goes through a1 (the "first path").
        let via_a1 = |p: &Path| p.links().iter().any(|&l| t.link(l).dst() == a1);
        let p1 = paths.iter().find(|p| via_a1(p)).unwrap().clone();
        let p2 = paths.iter().find(|p| !via_a1(p)).unwrap().clone();
        (t, p1, p2, src, reader)
    }

    fn bg_flow(cookie: u64, links: Vec<LinkId>, bw: f64) -> TrackedFlow {
        TrackedFlow {
            cookie: FlowCookie(cookie),
            path: Path::new(HostId(0), HostId(1), links),
            size_bits: 1e9,
            remaining_bits: 6.0, // 6 Mb remaining, as in the example
            bw,
            updated_at: SimTime::ZERO,
            frozen: false,
            freeze_until: SimTime::ZERO,
        }
    }

    /// Populates the tracker with Figure 2(a)'s background flows.
    pub(crate) fn fig2_tracker(p1: &Path, p2: &Path) -> FlowTracker {
        let mut tr = FlowTracker::new();
        // First path: second link has flows 2, 2, 6; third link has 10.
        tr.insert(bg_flow(1, vec![p1.links()[1]], 2.0));
        tr.insert(bg_flow(2, vec![p1.links()[1]], 2.0));
        tr.insert(bg_flow(3, vec![p1.links()[1]], 6.0));
        tr.insert(bg_flow(4, vec![p1.links()[2]], 10.0));
        // Second path: second link has 2, 2, 4; third link has 8.
        tr.insert(bg_flow(5, vec![p2.links()[1]], 2.0));
        tr.insert(bg_flow(6, vec![p2.links()[1]], 2.0));
        tr.insert(bg_flow(7, vec![p2.links()[1]], 4.0));
        tr.insert(bg_flow(8, vec![p2.links()[2]], 8.0));
        tr
    }

    fn share(t: &Topology, tr: &FlowTracker, links: &[LinkId]) -> f64 {
        new_flow_share_on_path_into(t, tr, links, &mut FairshareScratch::new())
    }

    fn impacts(
        t: &Topology,
        tr: &FlowTracker,
        links: &[LinkId],
        new_flow_bw: f64,
    ) -> Vec<(FlowCookie, f64)> {
        let mut scratch = SelectionScratch::new();
        existing_flow_new_shares_into(t, tr, links, new_flow_bw, &mut scratch);
        scratch.take_impacted()
    }

    #[test]
    fn fig2_new_flow_shares_are_3_on_both_paths() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        let b1 = share(&t, &tr, p1.links());
        let b2 = share(&t, &tr, p2.links());
        assert!((b1 - 3.0).abs() < 1e-9, "b1={b1}");
        assert!((b2 - 3.0).abs() < 1e-9, "b2={b2}");
    }

    #[test]
    fn fig2_existing_flow_impacts_first_path() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        let changes = impacts(&t, &tr, p1.links(), 3.0);
        // The 6 Mbps flow drops to 3; the 10 Mbps flow drops to 7.
        let get = |c: u64| {
            changes
                .iter()
                .find(|(k, _)| *k == FlowCookie(c))
                .map(|(_, b)| *b)
        };
        assert_eq!(get(3), Some(3.0));
        assert_eq!(get(4), Some(7.0));
        // The 2 Mbps flows keep their share (below equal split).
        assert_eq!(get(1), None);
        assert_eq!(get(2), None);
    }

    #[test]
    fn fig2_existing_flow_impacts_second_path() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        let changes = impacts(&t, &tr, p2.links(), 3.0);
        let get = |c: u64| {
            changes
                .iter()
                .find(|(k, _)| *k == FlowCookie(c))
                .map(|(_, b)| *b)
        };
        // The 4 Mbps flow drops to 3; the 8 Mbps flow drops to 7.
        assert_eq!(get(7), Some(3.0));
        assert_eq!(get(8), Some(7.0));
    }

    #[test]
    fn empty_path_share_is_infinite() {
        let (t, p1, p2, _, _) = fig2();
        let tr = fig2_tracker(&p1, &p2);
        assert!(share(&t, &tr, &[]).is_infinite());
    }

    #[test]
    fn idle_path_gets_line_rate() {
        let (t, p1, _, _, _) = fig2();
        let tr = FlowTracker::new();
        let b = share(&t, &tr, p1.links());
        assert!((b - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flow_on_multiple_path_links_gets_min_share() {
        let (t, p1, _, _, _) = fig2();
        let mut tr = FlowTracker::new();
        // One flow occupying both interior links of p1 at 10 Mbps.
        tr.insert(bg_flow(1, vec![p1.links()[1], p1.links()[2]], 10.0));
        let changes = impacts(&t, &tr, p1.links(), 5.0);
        assert_eq!(changes.len(), 1);
        // waterfill(10, [10, 5]) → existing gets 5 on each link.
        assert!((changes[0].1 - 5.0).abs() < 1e-9);
    }
}
