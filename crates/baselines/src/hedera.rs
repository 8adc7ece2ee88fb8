//! A Hedera-style reactive flow scheduler (§2.4's "recent flow
//! scheduling systems such as Hedera and MicroTE").
//!
//! Hedera (Al-Fares et al., NSDI '10) periodically detects *elephant*
//! flows from switch statistics, estimates each flow's natural
//! bandwidth demand, and reassigns flows to paths by **global first
//! fit**: in demand order, keep a flow on its current path if the
//! path still fits its demand, otherwise move it to the first
//! equal-cost path with room, otherwise to the least-loaded path.
//!
//! The paper's argument is that this whole class is "limited to
//! finding the least congested path between the requester and the
//! pre-selected replica" — it reroutes, but cannot choose a different
//! replica. This implementation exists to measure exactly that gap.

use std::collections::HashMap;

use mayflower_net::{LinkId, Path, Topology};

/// One flow as seen by the scheduler at a scheduling round.
#[derive(Debug, Clone)]
pub struct HederaFlow {
    /// Caller's identifier for the flow (opaque to the scheduler).
    pub id: u64,
    /// Its current path.
    pub path: Path,
    /// Estimated natural demand, bits/sec (from switch statistics).
    pub demand_bps: f64,
}

/// The global-first-fit scheduler.
#[derive(Debug, Clone)]
pub struct Hedera {
    /// Flows below this fraction of their edge-link capacity are mice
    /// and never rerouted (Hedera's 10% threshold).
    pub elephant_threshold: f64,
}

impl Default for Hedera {
    fn default() -> Hedera {
        Hedera {
            elephant_threshold: 0.10,
        }
    }
}

impl Hedera {
    /// Creates a scheduler with Hedera's default 10% elephant
    /// threshold.
    #[must_use]
    pub fn new() -> Hedera {
        Hedera::default()
    }

    /// Runs one scheduling round: returns `(flow id, new path)` for
    /// every flow that should move.
    ///
    /// Deterministic: flows are processed in descending demand (ties
    /// by id), and candidate paths in the topology's canonical order.
    #[must_use]
    pub fn reschedule(&self, topo: &Topology, flows: &[HederaFlow]) -> Vec<(u64, Path)> {
        // Virtual link loads, seeded with the mice (never moved).
        let mut load: HashMap<LinkId, f64> = HashMap::new();
        let mut elephants: Vec<&HederaFlow> = Vec::new();
        for f in flows {
            let edge_cap = if f.path.is_empty() {
                f64::INFINITY
            } else {
                f.path.min_capacity(topo)
            };
            if f.demand_bps < self.elephant_threshold * edge_cap || f.path.is_empty() {
                for &l in f.path.links() {
                    *load.entry(l).or_insert(0.0) += f.demand_bps;
                }
            } else {
                elephants.push(f);
            }
        }
        elephants.sort_by(|a, b| {
            b.demand_bps
                .partial_cmp(&a.demand_bps)
                .expect("demands are finite")
                .then(a.id.cmp(&b.id))
        });

        let fits = |load: &HashMap<LinkId, f64>, path: &Path, demand: f64| {
            path.links().iter().all(|l| {
                load.get(l).copied().unwrap_or(0.0) + demand
                    <= topo.link(*l).capacity() * (1.0 + 1e-9)
            })
        };
        let place = |load: &mut HashMap<LinkId, f64>, path: &Path, demand: f64| {
            for &l in path.links() {
                *load.entry(l).or_insert(0.0) += demand;
            }
        };

        let mut moves = Vec::new();
        for f in elephants {
            let candidates = topo.shortest_paths(f.path.src(), f.path.dst());
            let chosen = if fits(&load, &f.path, f.demand_bps) {
                // Stay put: avoids churn, Hedera's behaviour for flows
                // whose path still accommodates them.
                f.path.clone()
            } else if let Some(p) = candidates.iter().find(|p| fits(&load, p, f.demand_bps)) {
                p.clone()
            } else {
                // No path fits: take the one minimizing the worst
                // resulting utilization.
                candidates
                    .iter()
                    .min_by(|a, b| {
                        let worst = |p: &Path| {
                            p.links()
                                .iter()
                                .map(|l| {
                                    (load.get(l).copied().unwrap_or(0.0) + f.demand_bps)
                                        / topo.link(*l).capacity()
                                })
                                .fold(0.0f64, f64::max)
                        };
                        worst(a).partial_cmp(&worst(b)).expect("finite")
                    })
                    .expect("hosts always have at least one path")
                    .clone()
            };
            place(&mut load, &chosen, f.demand_bps);
            if chosen != f.path {
                moves.push((f.id, chosen));
            }
        }
        moves
    }
}

/// Hedera's **natural demand estimation** (NSDI '10 §IV-A): the
/// bandwidth each flow would get if limited only by its sender and
/// receiver NICs, computed by alternating sender and receiver passes
/// until fixpoint.
///
/// * Sender pass: each source divides its uplink capacity equally
///   among its not-yet-limited flows (after subtracting flows already
///   limited elsewhere).
/// * Receiver pass: any receiver whose inbound demands exceed its
///   downlink capacity caps the over-demanding flows at an equal
///   share; those flows become receiver-limited (converged).
///
/// Returns one demand per `(src, dst)` flow, in input order.
#[must_use]
pub fn estimate_demands(
    topo: &Topology,
    flows: &[(mayflower_net::HostId, mayflower_net::HostId)],
) -> Vec<f64> {
    let n = flows.len();
    let mut demand = vec![0.0f64; n];
    let mut receiver_limited = vec![false; n];
    let src_cap: Vec<f64> = flows
        .iter()
        .map(|(s, _)| topo.link(topo.host_uplink(*s)).capacity())
        .collect();
    let dst_cap: Vec<f64> = flows
        .iter()
        .map(|(_, d)| topo.link(topo.host_downlink(*d)).capacity())
        .collect();

    let (mut alloc, mut order) = (Vec::new(), Vec::new());
    for _ in 0..32 {
        let before = demand.clone();
        // Sender pass.
        let mut srcs: Vec<mayflower_net::HostId> = flows.iter().map(|(s, _)| *s).collect();
        srcs.sort_unstable();
        srcs.dedup();
        for s in &srcs {
            let idx: Vec<usize> = (0..n).filter(|i| flows[*i].0 == *s).collect();
            let converged_sum: f64 = idx
                .iter()
                .filter(|i| receiver_limited[**i])
                .map(|i| demand[*i])
                .sum();
            let free: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|i| !receiver_limited[*i])
                .collect();
            if !free.is_empty() {
                let cap = src_cap[free[0]];
                let share = ((cap - converged_sum) / free.len() as f64).max(0.0);
                for i in free {
                    demand[i] = share;
                }
            }
        }
        // Receiver pass.
        let mut dsts: Vec<mayflower_net::HostId> = flows.iter().map(|(_, d)| *d).collect();
        dsts.sort_unstable();
        dsts.dedup();
        for d in &dsts {
            let idx: Vec<usize> = (0..n).filter(|i| flows[*i].1 == *d).collect();
            let total: f64 = idx.iter().map(|i| demand[*i]).sum();
            let cap = dst_cap[idx[0]];
            if total > cap * (1.0 + 1e-9) {
                // Waterfill the receiver capacity over current demands.
                let demands: Vec<f64> = idx.iter().map(|i| demand[*i]).collect();
                mayflower_net::fairshare::waterfill_into(cap, &demands, &mut alloc, &mut order);
                for (k, i) in idx.iter().enumerate() {
                    if alloc[k] < demand[*i] - 1e-9 {
                        demand[*i] = alloc[k];
                        receiver_limited[*i] = true;
                    }
                }
            }
        }
        let moved = demand
            .iter()
            .zip(&before)
            .any(|(a, b)| (a - b).abs() > 1e-6);
        if !moved {
            break;
        }
    }
    demand
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{HostId, TreeParams, GBPS};

    fn topo() -> Topology {
        Topology::three_tier(&TreeParams::paper_testbed())
    }

    fn flow(topo: &Topology, id: u64, a: u32, b: u32, path_idx: usize, demand: f64) -> HederaFlow {
        HederaFlow {
            id,
            path: topo.shortest_paths(HostId(a), HostId(b))[path_idx].clone(),
            demand_bps: demand,
        }
    }

    #[test]
    fn colliding_elephants_get_separated() {
        let t = topo();
        // Two cross-pod elephants forced onto the same core path.
        let f1 = flow(&t, 1, 0, 16, 0, 0.9 * GBPS);
        let mut f2 = flow(&t, 2, 4, 20, 0, 0.9 * GBPS);
        // Make f2's path share a core link with f1's.
        let shared = t
            .shortest_paths(HostId(4), HostId(20))
            .into_iter()
            .find(|p| p.shares_link_with(&f1.path))
            .expect("overlapping path exists");
        f2.path = shared;
        let moves = Hedera::new().reschedule(&t, &[f1.clone(), f2.clone()]);
        assert_eq!(moves.len(), 1, "exactly one flow should move: {moves:?}");
        let (id, new_path) = &moves[0];
        let stayed = if *id == 1 { &f2 } else { &f1 };
        assert!(!new_path.shares_link_with(&stayed.path));
    }

    #[test]
    fn satisfied_flows_stay_put() {
        let t = topo();
        // Disjoint flows with room to spare: no churn.
        let f1 = flow(&t, 1, 0, 1, 0, 0.5 * GBPS);
        let f2 = flow(&t, 2, 8, 9, 0, 0.5 * GBPS);
        assert!(Hedera::new().reschedule(&t, &[f1, f2]).is_empty());
    }

    #[test]
    fn mice_are_never_rerouted() {
        let t = topo();
        // Two tiny flows colliding on a core path: below the elephant
        // threshold, Hedera leaves them to ECMP.
        let f1 = flow(&t, 1, 0, 16, 0, 0.02 * GBPS);
        let f2 = flow(&t, 2, 0, 17, 0, 0.02 * GBPS);
        assert!(Hedera::new().reschedule(&t, &[f1, f2]).is_empty());
    }

    #[test]
    fn overload_picks_least_bad_path() {
        let t = topo();
        // Nine 0.9 Gbps elephants into the same destination host: no
        // path fits, but every flow still gets a placement.
        let flows: Vec<HederaFlow> = (0..9)
            .map(|i| flow(&t, i, 16 + i as u32, 0, 0, 0.9 * GBPS))
            .collect();
        let moves = Hedera::new().reschedule(&t, &flows);
        // Deterministic and bounded: every returned path is valid.
        for (_, p) in &moves {
            assert!(p.validate(&t));
        }
    }

    #[test]
    fn demand_estimation_single_flow_gets_line_rate() {
        let t = topo();
        let d = estimate_demands(&t, &[(HostId(0), HostId(16))]);
        assert!((d[0] - GBPS).abs() < 1.0);
    }

    #[test]
    fn demand_estimation_shared_sender_splits() {
        let t = topo();
        let d = estimate_demands(&t, &[(HostId(0), HostId(16)), (HostId(0), HostId(20))]);
        assert!((d[0] - 0.5 * GBPS).abs() < 1.0);
        assert!((d[1] - 0.5 * GBPS).abs() < 1.0);
    }

    #[test]
    fn demand_estimation_receiver_limit_redistributes() {
        let t = topo();
        // Sender 0 feeds receivers 16 and 20; receiver 16 also takes a
        // flow from sender 4. The receiver-16 contention caps those two
        // flows at 0.5; sender 0's freed capacity then goes to its
        // other flow.
        let flows = [
            (HostId(0), HostId(16)),
            (HostId(0), HostId(20)),
            (HostId(4), HostId(16)),
        ];
        let d = estimate_demands(&t, &flows);
        assert!((d[0] - 0.5 * GBPS).abs() < 1e6, "{d:?}");
        assert!((d[1] - 0.5 * GBPS).abs() < 1e6, "{d:?}");
        assert!((d[2] - 0.5 * GBPS).abs() < 1e6, "{d:?}");
    }

    #[test]
    fn deterministic() {
        let t = topo();
        let flows: Vec<HederaFlow> = (0..6)
            .map(|i| flow(&t, i, i as u32, 16 + i as u32, 0, 0.8 * GBPS))
            .collect();
        let a = Hedera::new().reschedule(&t, &flows);
        let b = Hedera::new().reschedule(&t, &flows);
        assert_eq!(a.len(), b.len());
        for ((ia, pa), (ib, pb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(pa, pb);
        }
    }
}
