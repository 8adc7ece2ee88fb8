//! Differential proof of the selection fast path.
//!
//! The fast path (path cache + incremental link index + share memo +
//! lower-bound prune + allocation-free evaluation) claims to be
//! **behaviour-identical** to the naive implementation it replaced:
//! same winning replica and path, bit-identical bandwidth estimates,
//! bit-identical post-commit model state. This module keeps the naive
//! selection loop as an oracle — the only place it still exists — and
//! runs both sides over randomized topologies, flow populations, link
//! failures, stats polls, and freeze expirations.

use std::sync::Arc;

use mayflower_net::{HostId, Path, Topology, TreeParams};
use mayflower_sdn::{FlowCookie, FlowStat, StatsReport};
use mayflower_simcore::SimTime;
use proptest::prelude::*;

use crate::bandwidth::{existing_flow_new_shares_into, new_flow_share_on_path_into};
use crate::cost::{flow_cost_into, PathCost};
use crate::scratch::SelectionScratch;
use crate::server::{FlowPriority, Flowserver, FlowserverConfig, Selection};
use crate::tracker::{FlowTracker, TrackedFlow};

/// The naive implementation from before the fast path landed. Scans
/// every tracked flow per link, allocates per candidate, recomputes
/// every shortest-path set, and never prunes.
///
/// Its single-link arithmetic is `waterfill_into` on fresh buffers:
/// `mayflower_net::fairshare`'s own proptests pin that to the
/// quadratic reference loop bit for bit, so what is checked here is
/// everything built on top — the link index, the sorted merge, the
/// share memo, the path cache and the prune.
mod oracle {
    use std::collections::BTreeMap;

    use mayflower_net::fairshare::waterfill_into;
    use mayflower_net::LinkId;

    use super::*;

    fn waterfill(capacity: f64, demands: &[f64]) -> Vec<f64> {
        let (mut alloc, mut order) = (Vec::new(), Vec::new());
        waterfill_into(capacity, demands, &mut alloc, &mut order);
        alloc
    }

    /// The new flow's bottleneck share: per link, waterfill the
    /// scanned demands plus an unbounded newcomer; minimum over links.
    pub fn new_flow_share_on_path(
        topo: &Topology,
        tracker: &FlowTracker,
        path_links: &[LinkId],
    ) -> f64 {
        let mut share = f64::INFINITY;
        for &l in path_links {
            let cap = topo.link(l).capacity();
            let mut demands = tracker.demands_on_link(l);
            demands.push(f64::INFINITY);
            let s = *waterfill(cap, &demands).last().expect("non-empty");
            share = share.min(s);
        }
        share
    }

    /// `(cookie, new_bw)` in cookie order for every flow whose share
    /// shrinks when a flow demanding `new_flow_bw` joins `path_links`;
    /// a flow on several of the links gets its minimum.
    pub fn existing_flow_new_shares(
        topo: &Topology,
        tracker: &FlowTracker,
        path_links: &[LinkId],
        new_flow_bw: f64,
    ) -> Vec<(FlowCookie, f64)> {
        // Per flow: (current bw, min share across links).
        let mut new_bw: BTreeMap<FlowCookie, (f64, f64)> = BTreeMap::new();
        for &l in path_links {
            let cookies = tracker.flows_on_link(l);
            if cookies.is_empty() {
                continue;
            }
            let cap = topo.link(l).capacity();
            let mut demands: Vec<f64> = cookies
                .iter()
                .map(|c| tracker.get(*c).expect("indexed flow exists").bw)
                .collect();
            demands.push(new_flow_bw);
            let alloc = waterfill(cap, &demands);
            for ((c, cur), share) in cookies.iter().zip(&demands).zip(&alloc) {
                new_bw
                    .entry(*c)
                    .and_modify(|(_, b)| *b = b.min(*share))
                    .or_insert((*cur, *share));
            }
        }
        new_bw
            .into_iter()
            .filter(|(_, (cur, b))| *b < cur - 1e-9)
            .map(|(c, (_, b))| (c, b))
            .collect()
    }

    /// The original `flow_cost`, built on the per-link scans above.
    pub fn flow_cost(
        topo: &Topology,
        tracker: &FlowTracker,
        path_links: &[LinkId],
        flow_size_bits: f64,
        now: SimTime,
        impact_aware: bool,
    ) -> PathCost {
        let est_bw = new_flow_share_on_path(topo, tracker, path_links);
        if est_bw <= 0.0 {
            return PathCost {
                est_bw,
                cost: f64::INFINITY,
                impacted: Vec::new(),
            };
        }
        let mut cost = flow_size_bits / est_bw;
        let impacted = existing_flow_new_shares(topo, tracker, path_links, est_bw);
        if impact_aware {
            for (cookie, new_bw) in &impacted {
                let f = tracker.get(*cookie).expect("impacted flow exists");
                let r = f.remaining_at(now);
                if *new_bw <= 0.0 {
                    return PathCost {
                        est_bw,
                        cost: f64::INFINITY,
                        impacted,
                    };
                }
                let cur = f.bw.max(f64::MIN_POSITIVE);
                cost += r / new_bw - r / cur;
            }
        }
        PathCost {
            est_bw,
            cost,
            impacted,
        }
    }

    /// The original `best_path` loop: every shortest path of every
    /// replica, down links filtered by probing the set, every
    /// candidate fully evaluated.
    pub fn best_path(
        fs: &Flowserver,
        client: HostId,
        replicas: &[HostId],
        size_bits: f64,
        now: SimTime,
        priority: FlowPriority,
    ) -> Option<(HostId, Path, PathCost)> {
        let key = |pc: &PathCost| -> (f64, f64) {
            match priority {
                FlowPriority::Foreground => (pc.cost, 0.0),
                FlowPriority::Background => {
                    if pc.est_bw <= 0.0 {
                        (f64::INFINITY, f64::INFINITY)
                    } else {
                        let own = size_bits / pc.est_bw;
                        (pc.cost - own, own)
                    }
                }
            }
        };
        let down = fs.down_links();
        let mut best: Option<(HostId, Path, PathCost)> = None;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for &replica in replicas {
            if replica == client {
                continue;
            }
            for path in fs.topology().shortest_paths(replica, client) {
                if !down.is_empty() && path.links().iter().any(|l| down.contains(l)) {
                    continue;
                }
                let pc = flow_cost(
                    fs.topology(),
                    fs.tracker(),
                    path.links(),
                    size_bits,
                    now,
                    fs.config().impact_aware,
                );
                let k = key(&pc);
                if best.is_none() || k < best_key {
                    best_key = k;
                    best = Some((replica, path, pc));
                }
            }
        }
        best
    }
}

/// Small random 3-tier topologies: 8–27 hosts, varying fan-out and
/// oversubscription, edge tier kept at 1:1 so parameters always
/// validate.
fn small_params() -> impl Strategy<Value = TreeParams> {
    (
        2usize..4,
        2usize..4,
        2usize..4,
        1usize..3,
        1usize..3,
        1.0f64..8.0,
    )
        .prop_map(|(pods, racks, hosts, aggs, cores, ov)| TreeParams {
            pods,
            racks_per_pod: racks,
            hosts_per_rack: hosts,
            aggs_per_pod: aggs,
            cores,
            edge_capacity: 1e9,
            oversubscription: ov,
            edge_tier_oversub: 1.0,
        })
}

/// Raw material for one pre-existing flow: endpoint selectors (reduced
/// modulo the host count at build time), a path choice, a modelled
/// bandwidth, and how much of the flow remains.
type FlowSpec = (usize, usize, usize, f64, f64);

fn flow_specs() -> impl Strategy<Value = Vec<FlowSpec>> {
    proptest::collection::vec(
        (
            0usize..1000,
            0usize..1000,
            0usize..4,
            1.0f64..2e9,
            1.0f64..1e10,
        ),
        0..24,
    )
}

/// Builds a tracker holding the specified flows on real paths of
/// `topo`, via the production `insert` path (index stays fresh).
fn build_tracker(topo: &Topology, specs: &[FlowSpec]) -> FlowTracker {
    let hosts = topo.hosts();
    let mut tr = FlowTracker::new();
    for (i, &(s, d, p, bw, remaining)) in specs.iter().enumerate() {
        let src = hosts[s % hosts.len()];
        let mut dst = hosts[d % hosts.len()];
        if dst == src {
            dst = hosts[(d + 1) % hosts.len()];
            if dst == src {
                continue; // single-host topology; no network flows
            }
        }
        let paths = topo.shortest_paths(src, dst);
        let path = paths[p % paths.len()].clone();
        tr.insert(TrackedFlow {
            cookie: FlowCookie(i as u64),
            path,
            size_bits: remaining * 2.0,
            remaining_bits: remaining,
            bw,
            updated_at: SimTime::ZERO,
            frozen: false,
            freeze_until: SimTime::ZERO,
        });
    }
    tr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The allocation-free evaluation core is bit-identical to the
    /// naive oracle: same `b_j`, same cost, same impacted rows — with
    /// and without the pre-computed share hint, for both settings of
    /// `impact_aware`.
    #[test]
    fn flow_cost_matches_oracle(
        params in small_params(),
        specs in flow_specs(),
        cand in (0usize..1000, 0usize..1000, 0usize..4),
        size in 1.0f64..1e10,
        impact_aware in any::<bool>(),
    ) {
        let topo = Topology::three_tier(&params);
        let tracker = build_tracker(&topo, &specs);
        let hosts = topo.hosts();
        let src = hosts[cand.0 % hosts.len()];
        let dst = hosts[(cand.0 + 1 + cand.1 % (hosts.len() - 1)) % hosts.len()];
        prop_assume!(src != dst);
        let paths = topo.shortest_paths(src, dst);
        let path = &paths[cand.2 % paths.len()];
        let now = SimTime::from_millis(5.0);

        let want = oracle::flow_cost(&topo, &tracker, path.links(), size, now, impact_aware);

        let mut scratch = SelectionScratch::new();
        for hint in [
            None,
            Some(new_flow_share_on_path_into(&topo, &tracker, path.links(), &mut scratch.fair)),
        ] {
            let (est_bw, cost) = flow_cost_into(
                &topo, &tracker, path.links(), size, now, impact_aware, hint, &mut scratch,
            );
            prop_assert_eq!(est_bw.to_bits(), want.est_bw.to_bits());
            prop_assert_eq!(cost.to_bits(), want.cost.to_bits());
            let got = scratch.take_impacted();
            prop_assert_eq!(got.len(), want.impacted.len());
            for ((gc, gb), (wc, wb)) in got.iter().zip(&want.impacted) {
                prop_assert_eq!(gc, wc);
                prop_assert_eq!(gb.to_bits(), wb.to_bits());
            }
        }
    }

    /// The fast per-link share / impacted-rows functions equal the
    /// naive scans link by link, including idle and multi-link flows.
    #[test]
    fn bandwidth_fast_path_matches_naive(
        params in small_params(),
        specs in flow_specs(),
        cand in (0usize..1000, 0usize..1000, 0usize..4),
        new_bw in 1.0f64..2e9,
    ) {
        let topo = Topology::three_tier(&params);
        let tracker = build_tracker(&topo, &specs);
        let hosts = topo.hosts();
        let src = hosts[cand.0 % hosts.len()];
        let dst = hosts[(cand.0 + 1 + cand.1 % (hosts.len() - 1)) % hosts.len()];
        prop_assume!(src != dst);
        let paths = topo.shortest_paths(src, dst);
        let links = paths[cand.2 % paths.len()].links();

        let mut scratch = SelectionScratch::new();
        let fast = new_flow_share_on_path_into(&topo, &tracker, links, &mut scratch.fair);
        let naive = oracle::new_flow_share_on_path(&topo, &tracker, links);
        prop_assert_eq!(fast.to_bits(), naive.to_bits());

        existing_flow_new_shares_into(&topo, &tracker, links, new_bw, &mut scratch);
        let got = scratch.take_impacted();
        let want = oracle::existing_flow_new_shares(&topo, &tracker, links, new_bw);
        prop_assert_eq!(got.len(), want.len());
        for ((gc, gb), (wc, wb)) in got.iter().zip(&want) {
            prop_assert_eq!(gc, wc);
            prop_assert_eq!(gb.to_bits(), wb.to_bits());
        }
    }
}

/// One step of the randomized end-to-end scenario.
#[derive(Debug, Clone)]
enum Ev {
    /// Foreground read selection: client, replica selectors, size.
    Select(usize, Vec<usize>, f64),
    /// Background repair selection: dest, source selectors, size.
    Repair(usize, Vec<usize>, f64),
    /// Complete the n-th live flow.
    Complete(usize),
    /// Ingest a stats report with pseudo-random per-flow rates.
    Stats(u64),
    /// Flip a link's state.
    Link(usize, bool),
    /// Clock-driven freeze expiry.
    Expire,
}

fn events() -> impl Strategy<Value = Vec<Ev>> {
    let host_sel = 0usize..1000;
    let ev = prop_oneof![
        4 => (host_sel.clone(), proptest::collection::vec(0usize..1000, 1..4), 1.0f64..1e10)
            .prop_map(|(c, r, s)| Ev::Select(c, r, s)),
        2 => (host_sel.clone(), proptest::collection::vec(0usize..1000, 1..4), 1.0f64..1e10)
            .prop_map(|(d, s, z)| Ev::Repair(d, s, z)),
        2 => (0usize..1000).prop_map(Ev::Complete),
        2 => any::<u64>().prop_map(Ev::Stats),
        1 => (0usize..1000, any::<bool>()).prop_map(|(l, up)| Ev::Link(l, up)),
        1 => Just(Ev::Expire),
    ];
    proptest::collection::vec(ev, 1..40)
}

/// Deterministic pseudo-random fraction in (0, 1] from a seed pair.
fn frac(seed: u64, salt: u64) -> f64 {
    let h = (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD134_2543_DE82_EF95);
    ((h >> 11) % 1000 + 1) as f64 / 1000.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end differential: a Flowserver driven through a random
    /// sequence of selections, repairs, completions, stats polls, link
    /// failures, and freeze expirations always selects exactly what
    /// the naive oracle predicts, and commits bit-identical model
    /// state. This is the proof that the cached/incremental/pruned
    /// fast path never changes behaviour, only speed.
    #[test]
    fn selection_sequence_matches_oracle(
        params in small_params(),
        evs in events(),
        impact_aware in any::<bool>(),
        freeze_enabled in any::<bool>(),
    ) {
        let topo = Arc::new(Topology::three_tier(&params));
        let hosts = topo.hosts().to_vec();
        let n_links = topo.links().len();
        let mut fs = Flowserver::new(
            topo,
            FlowserverConfig { impact_aware, freeze_enabled, ..FlowserverConfig::default() },
        );
        let mut live: Vec<FlowCookie> = Vec::new();

        for (step, ev) in evs.iter().enumerate() {
            let now = SimTime::from_millis(13.0 * (step as f64 + 1.0));
            match ev {
                Ev::Select(c, reps, size) | Ev::Repair(c, reps, size) => {
                    let endpoint = hosts[c % hosts.len()];
                    let others: Vec<HostId> =
                        reps.iter().map(|r| hosts[r % hosts.len()]).collect();
                    let background = matches!(ev, Ev::Repair(..));
                    if others.contains(&endpoint) {
                        // Local short-circuit on both sides; no state.
                        let sel = if background {
                            fs.select_repair_flow(endpoint, &others, *size, now)
                        } else {
                            fs.select_replica_path(endpoint, &others, *size, now)
                        };
                        prop_assert!(matches!(sel, Selection::Local));
                        continue;
                    }
                    let priority = if background {
                        FlowPriority::Background
                    } else {
                        FlowPriority::Foreground
                    };
                    let want = oracle::best_path(&fs, endpoint, &others, *size, now, priority);
                    let sel = if background {
                        fs.select_repair_flow(endpoint, &others, *size, now)
                    } else {
                        fs.select_replica_path(endpoint, &others, *size, now)
                    };
                    match (want, sel) {
                        (None, Selection::Unavailable) => {}
                        (Some((replica, path, pc)), Selection::Single(a)) => {
                            prop_assert_eq!(a.replica, replica);
                            prop_assert_eq!(a.path.links(), path.links());
                            prop_assert_eq!(a.est_bw.to_bits(), pc.est_bw.to_bits());
                            // Post-commit model state: the new flow is
                            // registered at the oracle's estimate and
                            // every impacted flow at its oracle share.
                            let f = fs.flow_model(a.cookie).expect("new flow tracked");
                            prop_assert_eq!(f.bw.to_bits(), pc.est_bw.to_bits());
                            for (cookie, new_bw) in &pc.impacted {
                                let imp = fs.flow_model(*cookie).expect("impacted tracked");
                                prop_assert_eq!(imp.bw.to_bits(), new_bw.to_bits());
                            }
                            live.push(a.cookie);
                        }
                        (w, s) => prop_assert!(false, "oracle {w:?} vs fast {s:?}"),
                    }
                }
                Ev::Complete(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let cookie = live.swap_remove(i % live.len());
                    fs.flow_completed(cookie);
                    prop_assert!(fs.flow_model(cookie).is_none());
                }
                Ev::Stats(seed) => {
                    let flows = live
                        .iter()
                        .map(|&c| {
                            let size = fs.flow_model(c).expect("live").size_bits;
                            FlowStat {
                                cookie: c,
                                total_bits: size * frac(*seed, c.0),
                                rate_bps: 2e9 * frac(*seed, c.0 ^ 0xFFFF),
                            }
                        })
                        .collect();
                    fs.on_stats(&StatsReport {
                        measured_at: now,
                        flows,
                        ports: Vec::new(),
                    });
                }
                Ev::Link(l, up) => {
                    fs.set_link_state(mayflower_net::LinkId((l % n_links) as u32), *up);
                }
                Ev::Expire => {
                    fs.expire_stale_freezes(now);
                }
            }
        }
    }
}

mod freshness {
    use super::*;
    use crate::bandwidth::tests::{fig2, fig2_tracker};

    /// Direct mutable access dirties the index. After `ensure_fresh`
    /// the fast entry points give the oracle's answer to the bit.
    #[test]
    fn dirtied_tracker_after_ensure_fresh_matches_oracle() {
        let (t, p1, p2, _, _) = fig2();
        let mut tr = fig2_tracker(&p1, &p2);
        tr.get_mut(FlowCookie(3)).unwrap().bw = 5.5; // dirties the index
        assert!(tr.is_dirty());
        // The oracle scans the flows themselves, index or no index.
        let naive = oracle::new_flow_share_on_path(&t, &tr, p1.links());
        let want = oracle::existing_flow_new_shares(&t, &tr, p1.links(), naive);

        tr.ensure_fresh();
        assert!(!tr.is_dirty());
        let mut scratch = SelectionScratch::new();
        let fast = new_flow_share_on_path_into(&t, &tr, p1.links(), &mut scratch.fair);
        assert_eq!(fast.to_bits(), naive.to_bits());
        existing_flow_new_shares_into(&t, &tr, p1.links(), fast, &mut scratch);
        let bits = |rows: &[(FlowCookie, f64)]| -> Vec<(FlowCookie, u64)> {
            rows.iter().map(|(c, b)| (*c, b.to_bits())).collect()
        };
        assert_eq!(bits(&scratch.take_impacted()), bits(&want));
    }

    /// There is no silent fallback: evaluating against a dirty index
    /// is a bug in the caller and fails loudly.
    #[test]
    #[should_panic(expected = "link index read while dirty")]
    fn reading_the_index_while_dirty_panics() {
        let (t, p1, p2, _, _) = fig2();
        let mut tr = fig2_tracker(&p1, &p2);
        tr.get_mut(FlowCookie(3)).unwrap().bw = 5.5;
        let _ = new_flow_share_on_path_into(&t, &tr, p1.links(), &mut Default::default());
    }
}
