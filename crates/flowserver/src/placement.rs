//! Co-designed write placement: the paper's §3.3 extension.
//!
//! The published system places replicas statically at file creation
//! ("currently, the nameserver makes replica placement decisions
//! independently using only static information") and notes that "it
//! would be relatively straightforward to implement a Sinbad-like
//! replica placement strategy by having the nameserver make the
//! placement decision collaboratively with the Flowserver." This
//! module implements that extension.
//!
//! A write is a relay pipeline (§3.3.2): the writer streams to the
//! primary, which relays to the second replica, which relays to the
//! third. Placement therefore chooses each pipeline hop's *endpoint*
//! the same way reads choose paths: by the Eq. 2 cost of the hop's
//! flow, over all hosts satisfying the fault-domain constraint of that
//! position (primary anywhere, second replica in the primary's pod but
//! another rack, third in a different pod — §6.1.1's domains).
//!
//! Because the Flowserver tracks the pipeline's flows, concurrent
//! placements see each other's load — the global view Sinbad's
//! end-host monitoring can only approximate.

use mayflower_net::{HostId, Topology};
use mayflower_simcore::SimTime;

use crate::server::{Assignment, FlowPriority, Flowserver};

/// The outcome of a co-designed write placement.
#[derive(Debug, Clone)]
pub struct WritePlacement {
    /// Chosen replica hosts; `replicas[0]` is the primary.
    pub replicas: Vec<HostId>,
    /// The pipeline flows installed for the write (writer→primary,
    /// primary→second, ...). Complete them via
    /// [`Flowserver::flow_completed`] as each relay hop finishes.
    pub pipeline: Vec<Assignment>,
    /// The summed Eq. 2 cost of the chosen pipeline.
    pub total_cost: f64,
}

impl Flowserver {
    /// Chooses `replication` replica hosts for a file being written by
    /// `writer`, minimizing the write pipeline's completion-time cost
    /// hop by hop, and installs the pipeline's flows.
    ///
    /// Fault domains follow the paper's evaluation placement: the
    /// primary may be any host except the writer's own (a local
    /// primary would hide the first hop from the network and defeat
    /// the fault-domain intent of remote replication only when
    /// `replication == 1`; we allow the writer's host for the primary,
    /// matching HDFS's write-local behaviour, but never pick the same
    /// host twice); the second replica shares the primary's pod but
    /// not its rack; further replicas go to pods unused so far.
    ///
    /// Each hop's endpoint, path and cost come from the candidate loop
    /// reads use and are committed as chosen, so a path crossing a
    /// known-down link is never a candidate; a hop with no live path to
    /// any candidate still fills its position (the first candidate) but
    /// installs no flow and makes `total_cost` infinite.
    ///
    /// # Panics
    ///
    /// Panics if `replication == 0`, `size_bits <= 0`, or the topology
    /// is too small for the fault domains.
    pub fn select_write_placement(
        &mut self,
        writer: HostId,
        replication: usize,
        size_bits: f64,
        now: SimTime,
    ) -> WritePlacement {
        assert!(replication > 0, "replication factor must be positive");
        assert!(size_bits > 0.0, "write size must be positive");
        let topo = self.topology().clone();

        let mut replicas: Vec<HostId> = Vec::with_capacity(replication);
        let mut pipeline = Vec::new();
        let mut total_cost = 0.0;
        let mut src = writer;
        for position in 0..replication {
            let candidates = candidate_hosts(&topo, writer, &replicas, position);
            assert!(
                !candidates.is_empty(),
                "no host satisfies the fault domain for replica {position}"
            );
            let (host, cost, assignment) =
                self.cheapest_write_hop(src, &candidates, size_bits, now);
            total_cost += cost;
            pipeline.extend(assignment);
            replicas.push(host);
            src = host; // relay chain
        }
        self.refresh_flow_gauges();
        WritePlacement {
            replicas,
            pipeline,
            total_cost,
        }
    }

    /// Picks the endpoint of one pipeline hop and commits the hop's
    /// flow `src → endpoint`: the cheapest live path over all
    /// candidates, from the same candidate loop as reads.
    fn cheapest_write_hop(
        &mut self,
        src: HostId,
        candidates: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> (HostId, f64, Option<Assignment>) {
        // A machine-local relay costs nothing; every network hop costs
        // more than that.
        if candidates.contains(&src) {
            return (src, 0.0, None);
        }
        let routes = candidates.iter().map(|&host| (src, host));
        match self.best_path(routes, size_bits, now, FlowPriority::Foreground) {
            Some((path, pc)) => {
                let (host, cost) = (path.dst(), pc.cost);
                (host, cost, Some(self.commit(path, pc, size_bits, now)))
            }
            // Every path to every candidate is severed: the position
            // is still filled, but like `Selection::Unavailable`
            // nothing is installed.
            None => (candidates[0], f64::INFINITY, None),
        }
    }
}

/// Hosts satisfying the fault-domain constraint for replica
/// `position`, excluding hosts already chosen.
pub(crate) fn candidate_hosts(
    topo: &Topology,
    _writer: HostId,
    chosen: &[HostId],
    position: usize,
) -> Vec<HostId> {
    let all = topo.hosts();
    match position {
        0 => all.into_iter().filter(|h| !chosen.contains(h)).collect(),
        1 => {
            let primary = chosen[0];
            let pod = topo.pod_of(primary);
            let rack = topo.rack_of(primary);
            all.into_iter()
                .filter(|h| {
                    topo.pod_of(*h) == pod && topo.rack_of(*h) != rack && !chosen.contains(h)
                })
                .collect()
        }
        _ => {
            let used_pods: Vec<_> = chosen.iter().map(|h| topo.pod_of(*h)).collect();
            all.into_iter()
                .filter(|h| !used_pods.contains(&topo.pod_of(*h)) && !chosen.contains(h))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FlowserverConfig;
    use mayflower_net::TreeParams;
    use std::sync::Arc;

    const MB256: f64 = 256.0 * 8e6;

    fn server() -> Flowserver {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Flowserver::new(topo, FlowserverConfig::default())
    }

    #[test]
    fn placement_respects_fault_domains() {
        let mut fs = server();
        let topo = fs.topology().clone();
        let wp = fs.select_write_placement(HostId(0), 3, MB256, SimTime::ZERO);
        assert_eq!(wp.replicas.len(), 3);
        let (p, s, t) = (wp.replicas[0], wp.replicas[1], wp.replicas[2]);
        assert_eq!(topo.pod_of(p), topo.pod_of(s));
        assert_ne!(topo.rack_of(p), topo.rack_of(s));
        assert_ne!(topo.pod_of(t), topo.pod_of(p));
        // All distinct.
        assert_ne!(p, s);
        assert_ne!(s, t);
        assert_ne!(p, t);
    }

    #[test]
    fn pipeline_flows_are_tracked_and_removable() {
        let mut fs = server();
        let wp = fs.select_write_placement(HostId(5), 3, MB256, SimTime::ZERO);
        // Writer→primary, primary→second, second→third (the primary
        // hop may be machine-local and flow-free).
        assert!(wp.pipeline.len() >= 2);
        assert_eq!(fs.tracked_flows(), wp.pipeline.len());
        for a in &wp.pipeline {
            fs.flow_completed(a.cookie);
        }
        assert_eq!(fs.tracked_flows(), 0);
    }

    #[test]
    fn placement_avoids_congested_racks() {
        let mut fs = server();
        // Saturate the uplinks of every host in pods 0 and 1 except a
        // couple of victims, then place from host 0: the primary should
        // land on a quiet host.
        for h in 1..28u32 {
            fs.select_path_for_replica(HostId(h + 32), HostId(h), 50.0 * MB256, SimTime::ZERO);
        }
        let wp = fs.select_write_placement(HostId(0), 3, MB256, SimTime::ZERO);
        // The chosen primary's uplink should carry no pre-existing
        // load (hosts 28..64 are idle sources).
        let primary = wp.replicas[0];
        assert!(
            primary == HostId(0) || primary.0 >= 28,
            "primary {primary} landed on a congested host"
        );
    }

    #[test]
    fn writer_local_primary_wins_on_idle_network() {
        // With every candidate equally idle, the machine-local hop
        // (zero network cost) takes the primary — HDFS's write-local
        // behaviour, which the cost model recovers for free.
        let mut fs = server();
        let wp = fs.select_write_placement(HostId(9), 3, MB256, SimTime::ZERO);
        assert_eq!(wp.replicas[0], HostId(9));
    }

    #[test]
    fn relay_targets_avoid_loaded_downlinks() {
        // Load the downlinks of the low-numbered candidates in the
        // writer's pod; the second replica must land on a quiet host
        // even though the loaded ones sort first.
        let mut fs = server();
        for hot in [4u32, 5, 6, 7] {
            // Two inbound background flows per hot host.
            fs.select_path_for_replica(HostId(hot), HostId(20), 10.0 * MB256, SimTime::ZERO);
            fs.select_path_for_replica(HostId(hot), HostId(36), 10.0 * MB256, SimTime::ZERO);
        }
        let wp = fs.select_write_placement(HostId(0), 3, MB256, SimTime::ZERO);
        let second = wp.replicas[1];
        assert!(
            second.0 >= 8,
            "second replica {second} landed on a loaded host (rack 1 is hot)"
        );
        // Still in the writer's pod, different rack.
        let topo = fs.topology().clone();
        assert_eq!(topo.pod_of(second), topo.pod_of(HostId(0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_replication_rejected() {
        let mut fs = server();
        fs.select_write_placement(HostId(0), 0, MB256, SimTime::ZERO);
    }

    #[test]
    fn single_replica_placement_works() {
        let mut fs = server();
        let wp = fs.select_write_placement(HostId(0), 1, MB256, SimTime::ZERO);
        assert_eq!(wp.replicas.len(), 1);
    }
}
