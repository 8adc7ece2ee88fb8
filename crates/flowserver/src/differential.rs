//! Differential proof of the selection fast path and of
//! decide-then-commit admission.
//!
//! The fast path (path cache + incremental link index + share memo +
//! lower-bound prune + allocation-free evaluation) claims to be
//! **behaviour-identical** to the naive implementation it replaced:
//! same winning replica and path, bit-identical bandwidth estimates,
//! bit-identical post-commit model state. Split and coded reads claim
//! the same of the tentative admission they replaced (commit, look at
//! the model, roll back). This module keeps the naive selection loop
//! and those admission loops as an oracle — the only place they still
//! exist — and runs both sides over randomized topologies, flow
//! populations, link failures, stats polls, and freeze expirations.

use std::sync::Arc;

use mayflower_net::{HostId, Path, Topology, TreeParams};
use mayflower_sdn::{FlowCookie, FlowStat, StatsReport};
use mayflower_simcore::SimTime;
use proptest::prelude::*;

use crate::bandwidth::{existing_flow_new_shares_into, new_flow_share_on_path_into};
use crate::cost::{flow_cost_into, PathCost};
use crate::placement::{candidate_hosts, WritePlacement};
use crate::scratch::SelectionScratch;
use crate::server::{Assignment, FlowPriority, Flowserver, FlowserverConfig, Selection};
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
    ) -> Option<(Path, PathCost)> {
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
        let mut best: Option<(Path, PathCost)> = None;
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
                    best = Some((path, pc));
                }
            }
        }
        best
    }

    /// One pick: the naive loop's winner, committed.
    pub fn select_one(
        fs: &mut Flowserver,
        client: HostId,
        sources: &[HostId],
        size_bits: f64,
        now: SimTime,
        priority: FlowPriority,
    ) -> Selection {
        if sources.contains(&client) {
            return Selection::Local;
        }
        match best_path(fs, client, sources, size_bits, now, priority) {
            Some((path, pc)) => Selection::Single(fs.commit(path, pc, size_bits, now)),
            None => Selection::Unavailable,
        }
    }

    /// §4.3 as it was before selection decided first: admit the second
    /// subflow tentatively, read the first one's bandwidth back from
    /// the model, and roll back — here by putting a clone of the whole
    /// Flowserver back — if the split does not pay.
    pub fn select_multipath(
        fs: &mut Flowserver,
        client: HostId,
        replicas: &[HostId],
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        if replicas.contains(&client) {
            return Selection::Local;
        }
        let fg = FlowPriority::Foreground;
        // First subflow, chosen over all replicas.
        let Some((path1, pc1)) = best_path(fs, client, replicas, size_bits, now, fg) else {
            return Selection::Unavailable;
        };
        let b1 = pc1.est_bw;
        let a1 = fs.commit(path1, pc1, size_bits, now);

        // Second subflow, chosen over the other replicas.
        let rest: Vec<HostId> = replicas
            .iter()
            .copied()
            .filter(|r| *r != a1.replica)
            .collect();
        let Some((path2, pc2)) = best_path(fs, client, &rest, size_bits, now, fg) else {
            return Selection::Single(a1);
        };
        if pc2.est_bw <= 0.0 {
            return Selection::Single(a1);
        }
        let b2 = pc2.est_bw;
        // Admitting subflow 2 may shrink subflow 1.
        let snapshot = fs.clone();
        let a2 = fs.commit(path2, pc2, size_bits, now);
        let b1_kept = fs.tracker().get(a1.cookie).expect("tracked").bw;
        if b1_kept + b2 <= b1 + 1e-9 {
            // Roll back subflow 2.
            *fs = snapshot;
            return Selection::Single(a1);
        }

        // Proportion sizes so subflows finish together: S_i = d·b_i/b.
        let total_b = b1_kept + b2;
        let mut assignments = vec![a1, a2];
        for (a, b_i) in assignments.iter_mut().zip([b1_kept, b2]) {
            a.size_bits = size_bits * b_i / total_b;
            a.est_bw = b_i;
            fs.tracker_mut().resize_flow(a.cookie, a.size_bits, now);
        }
        Selection::Split(assignments)
    }

    /// The coded read as it was: commit pick after pick and undo the
    /// partial schedule — put the clone back — when a pick finds no
    /// reachable source left.
    pub fn select_coded_read(
        fs: &mut Flowserver,
        client: HostId,
        sources: &[HostId],
        k: usize,
        size_bits: f64,
        now: SimTime,
    ) -> Selection {
        let local = usize::from(sources.contains(&client));
        let needed = k - local.min(k);
        if needed == 0 {
            return Selection::Local;
        }
        let shard_bits = size_bits / k as f64;

        let rollback = fs.clone();
        let mut assignments: Vec<Assignment> = Vec::with_capacity(needed);
        for _ in 0..needed {
            let remaining: Vec<HostId> = sources
                .iter()
                .copied()
                .filter(|s| *s != client && assignments.iter().all(|a| a.replica != *s))
                .collect();
            let fg = FlowPriority::Foreground;
            match best_path(fs, client, &remaining, shard_bits, now, fg) {
                Some((path, pc)) => {
                    assignments.push(fs.commit(path, pc, shard_bits, now));
                }
                None => {
                    // Fewer than k reachable: undo the partial schedule.
                    *fs = rollback;
                    return Selection::Unavailable;
                }
            }
        }
        if assignments.len() == 1 {
            Selection::Single(assignments.pop().expect("one assignment"))
        } else {
            Selection::Split(assignments)
        }
    }

    /// Write placement hop by hop with its own naive candidate loop:
    /// every candidate endpoint in order, a machine-local one at zero
    /// cost, every live path fully evaluated, strict `<`. With every
    /// link up this is the loop placement had before it shared the
    /// read path's.
    pub fn write_placement(
        fs: &mut Flowserver,
        writer: HostId,
        replication: usize,
        size_bits: f64,
        now: SimTime,
    ) -> WritePlacement {
        let topo = fs.topology().clone();
        let mut placed = WritePlacement {
            replicas: Vec::new(),
            pipeline: Vec::new(),
            total_cost: 0.0,
        };
        let mut src = writer;
        for position in 0..replication {
            let candidates = candidate_hosts(&topo, writer, &placed.replicas, position);
            // The winner so far: its endpoint and cost, and its path
            // and evaluation unless it is the machine-local relay.
            let mut best: Option<(HostId, f64)> = None;
            let mut hop: Option<(Path, PathCost)> = None;
            for &cand in &candidates {
                if cand == src {
                    if best.is_none_or(|(_, c)| c > 0.0) {
                        (best, hop) = (Some((cand, 0.0)), None);
                    }
                    continue;
                }
                for path in topo.shortest_paths(src, cand) {
                    if path.links().iter().any(|l| fs.down_links().contains(l)) {
                        continue;
                    }
                    let (tr, aware) = (fs.tracker(), fs.config().impact_aware);
                    let pc = flow_cost(&topo, tr, path.links(), size_bits, now, aware);
                    if best.is_none_or(|(_, c)| pc.cost < c) {
                        (best, hop) = (Some((cand, pc.cost)), Some((path, pc)));
                    }
                }
            }
            let (host, cost) = best.unwrap_or((candidates[0], f64::INFINITY));
            placed.total_cost += cost;
            placed
                .pipeline
                .extend(hop.map(|(path, pc)| fs.commit(path, pc, size_bits, now)));
            placed.replicas.push(host);
            src = host;
        }
        placed
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

/// One step of the randomized end-to-end scenario. Hosts are
/// selectors, reduced modulo the host count.
#[derive(Debug, Clone)]
enum Ev {
    /// Foreground read selection (a §4.3 split on a multipath
    /// Flowserver): client, replicas, size.
    Select(usize, Vec<usize>, f64),
    /// Path-only selection: client, the pre-selected replica, size.
    PathOnly(usize, usize, f64),
    /// Background repair selection: dest, sources, size.
    Repair(usize, Vec<usize>, f64),
    /// Background migration selection: dest, sources, size.
    Migrate(usize, Vec<usize>, f64),
    /// Coded read: client, fragment sources, a selector for `k`, size.
    Coded(usize, Vec<usize>, usize, f64),
    /// Write placement: writer, replication selector, size.
    Write(usize, usize, f64),
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
    let host = || 0usize..1000;
    let hosts = |max| proptest::collection::vec(0usize..1000, 1..max);
    let size = || 1.0f64..1e10;
    let ev = prop_oneof![
        5 => (host(), hosts(4), size()).prop_map(|(c, r, s)| Ev::Select(c, r, s)),
        1 => (host(), host(), size()).prop_map(|(c, r, s)| Ev::PathOnly(c, r, s)),
        2 => (host(), hosts(4), size()).prop_map(|(d, s, z)| Ev::Repair(d, s, z)),
        1 => (host(), hosts(4), size()).prop_map(|(d, s, z)| Ev::Migrate(d, s, z)),
        3 => (host(), hosts(7), host(), size()).prop_map(|(c, s, k, z)| Ev::Coded(c, s, k, z)),
        1 => (host(), host(), size()).prop_map(|(w, r, z)| Ev::Write(w, r, z)),
        3 => host().prop_map(Ev::Complete),
        2 => any::<u64>().prop_map(Ev::Stats),
        2 => (host(), any::<bool>()).prop_map(|(l, up)| Ev::Link(l, up)),
        1 => Just(Ev::Expire),
    ];
    proptest::collection::vec(ev, 1..40)
}

/// Deterministic pseudo-random fraction in (0, 1] from a seed pair.
fn frac(seed: u64, salt: u64) -> f64 {
    let h = (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD134_2543_DE82_EF95);
    ((h >> 11) % 1000 + 1) as f64 / 1000.0
}

/// Which of the rewritten paths a walk went down, so a scripted walk
/// can prove it reaches all of them.
#[derive(Debug, Default)]
struct Coverage {
    splits_kept: usize,
    splits_declined: usize,
    coded_scheduled: usize,
    coded_short_of_k: usize,
    unavailable: usize,
    write_hops: usize,
    write_hops_cut_off: usize,
}

fn same_assignments(want: &[Assignment], got: &[Assignment]) -> bool {
    want.len() == got.len()
        && want.iter().zip(got).all(|(w, g)| {
            w.cookie == g.cookie
                && w.replica == g.replica
                && w.path.links() == g.path.links()
                && w.size_bits.to_bits() == g.size_bits.to_bits()
                && w.est_bw.to_bits() == g.est_bw.to_bits()
        })
}

/// The post-event state: the flow model equals the oracle's field for
/// field, and every link's index entry equals a rescan of the flows.
fn assert_same_state(want: &Flowserver, got: &Flowserver, n_links: usize, ev: &Ev) {
    let flows = |fs: &Flowserver| -> Vec<String> {
        fs.tracker()
            .iter()
            .map(|f| {
                format!(
                    "{:?} {:?} size={:x} rem={:x} bw={:x} at={:?} frozen={} until={:?}",
                    f.cookie,
                    f.path,
                    f.size_bits.to_bits(),
                    f.remaining_bits.to_bits(),
                    f.bw.to_bits(),
                    f.updated_at,
                    f.frozen,
                    f.freeze_until
                )
            })
            .collect()
    };
    assert_eq!(flows(want), flows(got), "model diverged after {ev:?}");
    for l in (0..n_links as u32).map(mayflower_net::LinkId) {
        let (cookies, demands) = match got.tracker().link_load(l) {
            Some(load) => (load.cookies().to_vec(), load.demands().to_vec()),
            None => (Vec::new(), Vec::new()),
        };
        assert_eq!(
            cookies,
            got.tracker().flows_on_link(l),
            "{l:?} after {ev:?}"
        );
        let bits = |d: &[f64]| d.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&demands),
            bits(&got.tracker().demands_on_link(l)),
            "{l:?} after {ev:?}"
        );
    }
}

/// Drives one Flowserver through `evs`; before every selection event
/// the oracle runs on a clone, and after every event the two must be
/// in the same state.
fn walk(params: &TreeParams, config: FlowserverConfig, evs: &[Ev]) -> Coverage {
    let topo = Arc::new(Topology::three_tier(params));
    let hosts = topo.hosts();
    let host = |sel: &usize| hosts[sel % hosts.len()];
    let n_links = topo.links().len();
    let multipath = config.multipath;
    let mut fs = Flowserver::new(topo, config);
    let registry = mayflower_telemetry::Registry::new();
    fs.attach_metrics(&registry);
    let mut cov = Coverage::default();

    for (step, ev) in evs.iter().enumerate() {
        let now = SimTime::from_millis(13.0 * (step as f64 + 1.0));
        let mut want_fs = fs.clone();
        let picked = match ev {
            Ev::Select(c, reps, size) => {
                let (client, reps) = (host(c), reps.iter().map(host).collect::<Vec<_>>());
                let want = if multipath && reps.len() >= 2 {
                    oracle::select_multipath(&mut want_fs, client, &reps, *size, now)
                } else {
                    let fg = FlowPriority::Foreground;
                    oracle::select_one(&mut want_fs, client, &reps, *size, now, fg)
                };
                Some((want, fs.select_replica_path(client, &reps, *size, now)))
            }
            Ev::PathOnly(c, r, size) => {
                let (client, fg) = (host(c), FlowPriority::Foreground);
                let want = oracle::select_one(&mut want_fs, client, &[host(r)], *size, now, fg);
                Some((
                    want,
                    fs.select_path_for_replica(client, host(r), *size, now),
                ))
            }
            Ev::Repair(d, srcs, size) | Ev::Migrate(d, srcs, size) => {
                let (dest, srcs) = (host(d), srcs.iter().map(host).collect::<Vec<_>>());
                let bg = FlowPriority::Background;
                let want = oracle::select_one(&mut want_fs, dest, &srcs, *size, now, bg);
                let got = if matches!(ev, Ev::Repair(..)) {
                    fs.select_repair_flow(dest, &srcs, *size, now)
                } else {
                    fs.select_migration_flow(dest, &srcs, *size, now)
                };
                Some((want, got))
            }
            Ev::Coded(c, srcs, k, size) => {
                let (client, srcs) = (host(c), srcs.iter().map(host).collect::<Vec<_>>());
                let k = 1 + k % srcs.len();
                let want = oracle::select_coded_read(&mut want_fs, client, &srcs, k, *size, now);
                match want {
                    Selection::Unavailable => cov.coded_short_of_k += 1,
                    Selection::Local => {}
                    _ => cov.coded_scheduled += 1,
                }
                Some((want, fs.select_coded_read(client, &srcs, k, *size, now)))
            }
            Ev::Write(w, r, size) => {
                let (writer, replication) = (host(w), 1 + r % 3);
                let want = oracle::write_placement(&mut want_fs, writer, replication, *size, now);
                let got = fs.select_write_placement(writer, replication, *size, now);
                assert_eq!(want.replicas, got.replicas, "placement of {ev:?}");
                assert_eq!(want.total_cost.to_bits(), got.total_cost.to_bits());
                assert!(same_assignments(&want.pipeline, &got.pipeline), "{ev:?}");
                cov.write_hops += got.pipeline.len();
                cov.write_hops_cut_off += usize::from(got.total_cost.is_infinite());
                None
            }
            Ev::Complete(i) => {
                let live: Vec<FlowCookie> = fs.tracker().iter().map(|f| f.cookie).collect();
                if let Some(&cookie) = live.get(i % live.len().max(1)) {
                    want_fs.flow_completed(cookie);
                    fs.flow_completed(cookie);
                    assert!(fs.flow_model(cookie).is_none());
                }
                None
            }
            Ev::Stats(seed) => {
                let flows = fs.tracker().iter().map(|f| FlowStat {
                    cookie: f.cookie,
                    total_bits: f.size_bits * frac(*seed, f.cookie.0),
                    rate_bps: 2e9 * frac(*seed, f.cookie.0 ^ 0xFFFF),
                });
                let report = StatsReport {
                    measured_at: now,
                    flows: flows.collect(),
                };
                want_fs.on_stats(&report);
                fs.on_stats(&report);
                None
            }
            Ev::Link(l, up) => {
                let link = mayflower_net::LinkId((l % n_links) as u32);
                want_fs.set_link_state(link, *up);
                fs.set_link_state(link, *up);
                None
            }
            Ev::Expire => {
                want_fs.expire_stale_freezes(now);
                fs.expire_stale_freezes(now);
                None
            }
        };
        if let Some((want, got)) = picked {
            let same_kind = std::mem::discriminant(&want) == std::mem::discriminant(&got);
            assert!(
                same_kind && same_assignments(want.assignments(), got.assignments()),
                "{ev:?}: oracle {want:?} vs fast {got:?}"
            );
            cov.unavailable += usize::from(matches!(got, Selection::Unavailable));
        }
        assert_same_state(&want_fs, &fs, n_links, ev);
    }
    // Counted by the selection under test; the oracle agreed with
    // every one of its outcomes above.
    let count = |name: &str| registry.snapshot().counter(name).unwrap_or(0) as usize;
    cov.splits_kept = count("flowserver_split_accepted_total");
    cov.splits_declined = count("flowserver_split_rejected_total");
    cov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// End-to-end differential: a Flowserver driven through a random
    /// sequence of every kind of selection, completions, stats polls,
    /// link failures and freeze expirations always selects exactly
    /// what the naive oracle predicts and ends every event in
    /// bit-identical model state. This is the proof that the
    /// cached/incremental/pruned fast path and decide-then-commit
    /// admission never change behaviour.
    #[test]
    fn selection_sequence_matches_oracle(
        params in small_params(),
        evs in events(),
        impact_aware in any::<bool>(),
        freeze_enabled in any::<bool>(),
        multipath in any::<bool>(),
    ) {
        let config = FlowserverConfig {
            impact_aware,
            freeze_enabled,
            multipath,
            ..FlowserverConfig::default()
        };
        walk(&params, config, &evs);
    }
}

/// A fixed script on the paper tree that goes down every rewritten
/// path at least once — what the random walk reaches only by luck.
#[test]
fn scripted_walk_reaches_every_rewritten_path() {
    const MB256: f64 = 256.0 * 8e6;
    let params = TreeParams::paper_testbed();
    let topo = Topology::three_tier(&params);
    let uplink = |h: u32| topo.host_uplink(HostId(h)).index();
    let evs = [
        // Cross-pod replicas in two pods: the split pays.
        Ev::Select(0, vec![20, 36], MB256),
        // Same-rack replica already fills the client's downlink: the
        // second subflow is weighed and declined.
        Ev::Select(4, vec![5, 6], MB256),
        Ev::Stats(7),
        // A split whose second subflow shrinks the first (both cross
        // client 0's loaded downlink).
        Ev::Select(0, vec![21, 37, 52], 4.0 * MB256),
        Ev::Coded(8, vec![1, 5, 9, 20, 25], 2, MB256),
        // Two of three sources cut off: fewer than k = 2 reachable.
        Ev::Link(uplink(1), false),
        Ev::Link(uplink(5), false),
        Ev::Coded(0, vec![1, 5, 20], 1, MB256),
        // ...but k = 1 still schedules.
        Ev::Coded(0, vec![1, 5, 20], 0, MB256),
        Ev::Select(2, vec![1, 5], MB256),
        Ev::PathOnly(12, 40, MB256),
        Ev::Repair(9, vec![1, 20, 44], MB256),
        Ev::Migrate(30, vec![2, 50], MB256),
        Ev::Link(uplink(1), true),
        Ev::Write(17, 2, MB256),
        Ev::Expire,
        Ev::Complete(3),
        // Host 5's uplink is still down: it can take the second copy
        // but cannot relay the third.
        Ev::Write(3, 2, 2.0 * MB256),
        Ev::Select(0, vec![1, 36], MB256),
    ];
    let config = FlowserverConfig {
        multipath: true,
        ..FlowserverConfig::default()
    };
    let cov = walk(&params, config, &evs);
    assert!(cov.splits_kept >= 2, "{cov:?}");
    assert!(cov.splits_declined >= 1, "{cov:?}");
    assert!(cov.coded_scheduled >= 2, "{cov:?}");
    assert!(cov.coded_short_of_k >= 1, "{cov:?}");
    assert!(cov.unavailable >= 2, "{cov:?}");
    assert!(cov.write_hops >= 3, "{cov:?}");
    assert!(cov.write_hops_cut_off >= 1, "{cov:?}");
}
