//! A walkthrough of the paper's Figure 2 cost example: two candidate
//! paths between a reader and a data source with existing flows, the
//! Flowserver's Eq. 2 cost deciding between them — reproducing the
//! published numbers (cost 4.25 vs 3.6, and the 20 Mbps variant that
//! flips the choice to 2.4).
//!
//! ```text
//! cargo run --example replica_selection
//! ```

use std::sync::Arc;

use mayflower::flowserver::cost::flow_cost;
use mayflower::flowserver::tracker::{FlowTracker, TrackedFlow};
use mayflower::flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower::net::{HostId, LinkId, NodeKind, Path, PodId, RackId, Topology};
use mayflower::sdn::FlowCookie;
use mayflower::simcore::SimTime;

/// Builds the Figure 2 topology: source and reader racks joined by two
/// aggregation switches. Working directly in Mbps units makes the
/// printed numbers match the paper's. `fat_first_uplink` widens the
/// e1→a1 link to 20 Mbps for the paper's closing variant.
fn fig2_topology(fat_first_uplink: bool) -> (Topology, HostId, HostId, Path, Path) {
    let mut t = Topology::new();
    let e1 = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
    let e2 = t.add_node(NodeKind::EdgeSwitch, Some(RackId(1)), Some(PodId(0)));
    t.set_rack_edge(RackId(0), e1);
    t.set_rack_edge(RackId(1), e2);
    let a1 = t.add_node(NodeKind::AggSwitch, None, Some(PodId(0)));
    let a2 = t.add_node(NodeKind::AggSwitch, None, Some(PodId(0)));
    let hs = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
    let source = t.register_host(hs, RackId(0), PodId(0));
    let hr = t.add_node(NodeKind::Host, Some(RackId(1)), Some(PodId(0)));
    let reader = t.register_host(hr, RackId(1), PodId(0));
    t.add_duplex_link(hs, e1, 20.0);
    t.add_duplex_link(hr, e2, 10.0);
    t.add_duplex_link(e1, a1, if fat_first_uplink { 20.0 } else { 10.0 });
    t.add_duplex_link(e1, a2, 10.0);
    t.add_duplex_link(a1, e2, 10.0);
    t.add_duplex_link(a2, e2, 10.0);
    t.freeze();
    let paths = t.shortest_paths(source, reader);
    let via_a1 = |p: &Path| p.links().iter().any(|&l| t.link(l).dst() == a1);
    let p1 = paths
        .iter()
        .find(|p| via_a1(p))
        .expect("path via a1")
        .clone();
    let p2 = paths
        .iter()
        .find(|p| !via_a1(p))
        .expect("path via a2")
        .clone();
    (t, source, reader, p1, p2)
}

/// The figure's background flows: on path 1's interior links, flows at
/// 2, 2 and 6 Mbps (edge→agg) and 10 Mbps (agg→edge); on path 2's,
/// flows at 2, 2 and 4 Mbps, and 8 Mbps. Every existing flow has 6 Mb
/// left to transfer.
fn fig2_background(p1: &Path, p2: &Path) -> FlowTracker {
    let mut tracker = FlowTracker::new();
    let mut cookie = 0u64;
    let mut bg = |link: LinkId, bw: f64| {
        cookie += 1;
        tracker.insert(TrackedFlow {
            cookie: FlowCookie(cookie),
            path: Path::new(HostId(0), HostId(1), vec![link]),
            size_bits: 100.0,
            remaining_bits: 6.0,
            bw,
            updated_at: SimTime::ZERO,
            frozen: false,
            freeze_until: SimTime::ZERO,
        });
    };
    for bw in [2.0, 2.0, 6.0] {
        bg(p1.links()[1], bw);
    }
    bg(p1.links()[2], 10.0);
    for bw in [2.0, 2.0, 4.0] {
        bg(p2.links()[1], bw);
    }
    bg(p2.links()[2], 8.0);
    tracker
}

fn main() {
    println!("== Figure 2: cost-based path selection ==\n");
    let (topo, source, reader, p1, p2) = fig2_topology(false);
    let tracker = fig2_background(&p1, &p2);

    let c1 = flow_cost(&topo, &tracker, p1.links(), 9.0, SimTime::ZERO);
    let c2 = flow_cost(&topo, &tracker, p2.links(), 9.0, SimTime::ZERO);
    println!("new 9 Mb read, {source} -> {reader}:");
    println!(
        "  path via agg 1: new-flow share {:.0} Mbps, cost C1 = {:.2} s (paper: 4.25)",
        c1.est_bw, c1.cost
    );
    println!(
        "  path via agg 2: new-flow share {:.0} Mbps, cost C2 = {:.2} s (paper: 3.6)",
        c2.est_bw, c2.cost
    );
    println!(
        "  -> the second path wins: same bandwidth for the new flow, but\n\
         \x20    it slows the existing flows down less.\n"
    );

    println!("== The 20 Mbps variant ==\n");
    let (topo, _, _, p1f, p2f) = fig2_topology(true);
    let tracker = fig2_background(&p1f, &p2f);
    let c1f = flow_cost(&topo, &tracker, p1f.links(), 9.0, SimTime::ZERO);
    let c2f = flow_cost(&topo, &tracker, p2f.links(), 9.0, SimTime::ZERO);
    println!("with the first path's edge→agg link at 20 Mbps:");
    println!(
        "  C1 = {:.2} s (paper: 2.4), C2 = {:.2} s",
        c1f.cost, c2f.cost
    );
    println!("  -> the first path now wins.\n");

    println!("== The same decision, end to end through the Flowserver ==\n");
    let (topo, source, reader, _, _) = fig2_topology(false);
    let topo = Arc::new(topo);
    let mut fs = Flowserver::new(topo, FlowserverConfig::default());
    let sel = fs.select_replica_path(reader, &[source], 9.0, SimTime::ZERO);
    let Selection::Single(a) = sel else {
        panic!("expected a single assignment")
    };
    println!(
        "on the idle network the Flowserver picks a path with share {:.0} Mbps",
        a.est_bw
    );
    println!(
        "and tracks the flow on each of that path's {} links.",
        a.path.len()
    );
}
