//! Property tests for the Flowserver's selection invariants.

use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::SimTime;
use proptest::prelude::*;

const MB256: f64 = 256.0 * 8e6;

fn topo() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams::paper_testbed()))
}

/// Distinct hosts drawn from the 64-host testbed.
fn distinct_hosts() -> impl Strategy<Value = (u32, Vec<u32>)> {
    (0u32..64, proptest::collection::vec(0u32..64, 1..4)).prop_map(|(c, mut rs)| {
        rs.sort_unstable();
        rs.dedup();
        (c, rs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every selection returns connected, correctly-directed paths
    /// whose sizes sum to the request, from replicas in the given set.
    #[test]
    fn selections_are_well_formed(
        (client, replicas) in distinct_hosts(),
        multipath in any::<bool>(),
        preload in proptest::collection::vec((0u32..64, 0u32..64), 0..12),
    ) {
        let topo = topo();
        let mut fs = Flowserver::new(
            topo.clone(),
            FlowserverConfig { multipath, ..FlowserverConfig::default() },
        );
        // Background load from prior selections.
        for (a, b) in preload {
            if a != b {
                fs.select_path_for_replica(HostId(a), HostId(b), MB256, SimTime::ZERO);
            }
        }
        let replica_ids: Vec<HostId> = replicas.iter().map(|r| HostId(*r)).collect();
        let before = fs.tracked_flows();
        let sel = fs.select_replica_path(HostId(client), &replica_ids, MB256, SimTime::ZERO);
        match &sel {
            Selection::Local => {
                prop_assert!(replica_ids.contains(&HostId(client)));
                prop_assert_eq!(fs.tracked_flows(), before);
            }
            Selection::Single(a) => {
                prop_assert!(replica_ids.contains(&a.replica));
                prop_assert!(a.path.validate(&topo));
                prop_assert_eq!(a.path.src(), a.replica);
                prop_assert_eq!(a.path.dst(), HostId(client));
                prop_assert!((a.size_bits - MB256).abs() < 1.0);
                prop_assert!(a.est_bw > 0.0);
                prop_assert_eq!(fs.tracked_flows(), before + 1);
            }
            Selection::Split(parts) => {
                prop_assert!(parts.len() >= 2);
                let total: f64 = parts.iter().map(|p| p.size_bits).sum();
                prop_assert!((total - MB256).abs() < 1.0, "split loses bytes: {total}");
                let mut seen = std::collections::HashSet::new();
                for p in parts {
                    prop_assert!(replica_ids.contains(&p.replica));
                    prop_assert!(seen.insert(p.replica), "replica reused in split");
                    prop_assert!(p.path.validate(&topo));
                    prop_assert_eq!(p.path.dst(), HostId(client));
                    prop_assert!(p.size_bits > 0.0);
                }
                prop_assert_eq!(fs.tracked_flows(), before + parts.len());
            }
            Selection::Unavailable => {
                // Only possible when links are down; none are here.
                prop_assert!(false, "unavailable on a healthy fabric");
            }
        }
        // Completion cleans up.
        for a in sel.assignments() {
            fs.flow_completed(a.cookie);
        }
        prop_assert_eq!(fs.tracked_flows(), before);
    }

    /// The chosen single-flow estimate never exceeds the best path's
    /// bottleneck capacity, and is positive.
    #[test]
    fn estimates_are_physical(
        (client, replicas) in distinct_hosts(),
    ) {
        prop_assume!(!replicas.contains(&client));
        let topo = topo();
        let mut fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
        let replica_ids: Vec<HostId> = replicas.iter().map(|r| HostId(*r)).collect();
        let sel = fs.select_replica_path(HostId(client), &replica_ids, MB256, SimTime::ZERO);
        if let Selection::Single(a) = sel {
            let cap = a.path.min_capacity(&topo);
            prop_assert!(a.est_bw <= cap * (1.0 + 1e-9), "{} > {}", a.est_bw, cap);
            prop_assert!(a.est_bw > 0.0);
        }
    }

    /// Multipath never produces a worse aggregate estimate than the
    /// single-flow selection on the same (idle-start) state.
    #[test]
    fn splits_only_when_bandwidth_improves(
        (client, replicas) in distinct_hosts(),
    ) {
        prop_assume!(!replicas.contains(&client));
        prop_assume!(replicas.len() >= 2);
        let topo = topo();
        let replica_ids: Vec<HostId> = replicas.iter().map(|r| HostId(*r)).collect();

        let mut single = Flowserver::new(topo.clone(), FlowserverConfig::default());
        let s = single.select_replica_path(HostId(client), &replica_ids, MB256, SimTime::ZERO);
        let single_bw = s.assignments()[0].est_bw;

        let mut multi = Flowserver::new(
            topo,
            FlowserverConfig { multipath: true, ..FlowserverConfig::default() },
        );
        let m = multi.select_replica_path(HostId(client), &replica_ids, MB256, SimTime::ZERO);
        if let Selection::Split(parts) = &m {
            let agg: f64 = parts.iter().map(|p| p.est_bw).sum();
            prop_assert!(
                agg > single_bw * (1.0 - 1e-9),
                "split aggregate {agg} worse than single {single_bw}"
            );
        }
    }
}
