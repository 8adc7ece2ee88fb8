//! Global max-min fair rate allocation via progressive filling.

use mayflower_net::{LinkId, Topology};

/// A flow with its route, as input to [`compute_rates_masked`].
#[derive(Debug, Clone)]
pub struct RoutedFlow<'a> {
    /// The directed links the flow traverses.
    pub links: &'a [LinkId],
}

/// The work the solver did, summed over the solves it counts: plain
/// counts, deterministic for a given sequence of calls, that state a
/// solver change's gain as work removed rather than as wall time.
/// [`crate::FluidNet::work`] reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Refreshes that found a touched link and walked from it.
    pub refreshes: u64,
    /// Flows re-solved.
    pub flows_solved: u64,
    /// Links indexed: the distinct links the re-solved flows cross.
    pub links_indexed: u64,
    /// Elements the solver's setup sorted.
    pub sorted: u64,
    /// Progressive-filling rounds; each saturates one link.
    pub rounds: u64,
    /// Links the rounds' bottleneck scans compared.
    pub links_scanned: u64,
}

/// Computes the global max-min fair rate for each flow using the
/// classic progressive-filling algorithm:
///
/// 1. Grow every unfrozen flow's rate uniformly until some link
///    saturates — the link with the smallest `residual / unfrozen_count`.
/// 2. Freeze the flows crossing that link at the achieved share.
/// 3. Repeat with the remaining flows and residual capacities.
///
/// The result is the unique allocation where no flow's rate can be
/// increased without decreasing the rate of a flow with an equal or
/// smaller rate. This is the simulator's model of what per-flow
/// fair-queueing (or long-lived TCP flows with equal RTTs) converges
/// to.
///
/// Flows with empty routes (same-host transfers) are assigned
/// `f64::INFINITY` — they complete instantly as far as the network is
/// concerned.
///
/// `link_up[l]` gives the state of link `l` (by index) for fault
/// injection; `None` means all links up. A downed link contributes
/// **zero** capacity, so every flow routed across it is allocated a
/// zero rate — the fluid model of a transfer stalling on a dead path.
/// All other flows share the surviving capacity max-min fairly as
/// usual.
///
/// This function lists flow `i` under slot `i` on every link of its
/// route in a transient link → flows index and runs the one solver
/// [`crate::FluidNet`] runs on the index it keeps across events.
///
/// Complexity: `O(fabric_links + flow_links + links × log links +
/// rounds × loaded_links + frozen_flows × path_len)`, one link
/// saturated per round. The transient index is sized to the fabric
/// (`FluidNet`'s is built once); the solve itself is sized to the
/// `links` its flows cross: setup sorts only those distinct links, never
/// the `flow_links` route entries, a round compares the cached shares
/// of the links that still carry an unfrozen flow, and freezing a flow
/// recomputes the share of each of its links.
///
/// Bit-identity rule: every rate equals, to the bit, what a scan of
/// *all* links and flows in every round yields (the `oracle` module,
/// which the proptests here and in `fluid.rs` compare against). Any
/// further speed-up must keep the three things that carry it:
/// candidates in ascending link index under a strict `<`, so the
/// bottleneck is the lowest-index link with the minimum share; one
/// share for every flow a round freezes, so the order a round visits
/// them in cannot change a bit; and a frozen flow's share subtracted
/// from each of its links one flow at a time. A cached share is the
/// scan's expression, `(residual / count).max(0.0)`, over the same two
/// values, recomputed whenever either changes.
///
/// Solving a component of the flow–link graph alone repeats, bit for
/// bit, the rounds a solve of every flow makes in it: a round changes
/// only its bottleneck's component, and that bottleneck is its
/// component's minimum share and, among ties, its lowest index, so the
/// component's rounds pick the same links in the same order either way.
/// [`crate::FluidNet`] relies on this to re-solve only the components
/// an event reaches.
///
/// # Panics
///
/// Panics if a mask is given whose length differs from the link count.
#[must_use]
pub fn compute_rates_masked(
    topo: &Topology,
    flows: &[RoutedFlow<'_>],
    link_up: Option<&[bool]>,
) -> Vec<f64> {
    if let Some(mask) = link_up {
        assert_eq!(mask.len(), topo.links().len(), "mask must cover every link");
    }
    // A transient index: flow `i` holds slot `i`, and link `l`'s flows
    // are `members[start[l]..start[l + 1]]`, counted, then placed.
    let n_links = topo.links().len();
    let mut start = vec![0u32; n_links + 1];
    let mut links = Vec::new();
    let mut routed = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        if !f.links.is_empty() {
            routed.push(i as u32);
        }
        for &l in f.links {
            if start[l.index() + 1] == 0 {
                links.push(l);
            }
            start[l.index() + 1] += 1;
        }
    }
    for l in 0..n_links {
        start[l + 1] += start[l];
    }
    let mut next = start.clone();
    let mut members = vec![0u32; start[n_links] as usize];
    for (i, f) in flows.iter().enumerate() {
        for &l in f.links {
            members[next[l.index()] as usize] = i as u32;
            next[l.index()] += 1;
        }
    }
    let mut solver = Workspace::default();
    let component = Component {
        members: |l: LinkId| &members[start[l.index()] as usize..start[l.index() + 1] as usize],
        route: |slot: u32| flows[slot as usize].links,
        flows: &routed,
        links: &links,
    };
    solver.solve(topo, link_up, &component, &mut Work::default());
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f.links.is_empty() {
                f64::INFINITY
            } else {
                solver.rate(i as u32)
            }
        })
        .collect()
}

/// What [`Workspace::solve`] solves: flows closed under sharing a link,
/// as a link → flows index names them.
pub(crate) struct Component<'a, M, R> {
    /// The slots of the flows routed over a link, once per time a route
    /// lists it, in any order.
    pub members: M,
    /// The route of the flow in a slot.
    pub route: R,
    /// The slots to solve, each once: every flow listed on a link of
    /// their routes is among them.
    pub flows: &'a [u32],
    /// Every link their routes cross, each once, in any order; a link
    /// that lists no flow may be among them and is skipped.
    pub links: &'a [LinkId],
}

/// The buffers of a solve, kept across solves: once they have grown to
/// the largest component, a solve allocates nothing.
///
/// A component's *local* links are the links its flows cross, ascending,
/// so local order is `LinkId` order; `links[j]` is local link `j`, and
/// `residual`, `count`, `share` and `loaded` are indexed by it. `rate`
/// and `unfrozen` are indexed by slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    links: Vec<u32>,
    /// `local[l]`: link `l`'s local index while `l` is a local link;
    /// sized to the fabric, stale elsewhere.
    local: Vec<u32>,
    /// Capacity no frozen flow holds yet.
    residual: Vec<f64>,
    /// Unfrozen flows listed, once per listing.
    count: Vec<u32>,
    /// `(residual / count).max(0.0)`, recomputed whenever the freeze
    /// step changes either operand.
    share: Vec<f64>,
    /// The local links that still carry an unfrozen flow, ascending:
    /// only they can saturate next.
    loaded: Vec<u32>,
    /// The rate a slot's last solve gave it.
    rate: Vec<f64>,
    /// Set on a slot from the start of its solve until it is frozen; no
    /// mark is set between solves.
    unfrozen: Vec<bool>,
}

impl Workspace {
    /// Solves `c`'s flows by progressive filling over `topo`'s
    /// capacities under `link_up` (see [`compute_rates_masked`]) and
    /// leaves each one's rate for [`Workspace::rate`], counting the work
    /// in `work`. Visits no link and no flow outside `c`.
    pub(crate) fn solve<'m, 'r, M, R>(
        &mut self,
        topo: &Topology,
        link_up: Option<&[bool]>,
        c: &Component<'_, M, R>,
        work: &mut Work,
    ) where
        M: Fn(LinkId) -> &'m [u32],
        R: Fn(u32) -> &'r [LinkId],
    {
        // Bound to locals: read through `self`, the rounds ran 1.4-1.6x
        // slower (a timed 133-flow solve at 1024 hosts).
        let Workspace {
            links,
            local,
            residual,
            count,
            share,
            loaded,
            rate,
            unfrozen,
        } = self;
        let caps = topo.links();
        links.clear();
        links.extend(
            c.links
                .iter()
                .filter(|&&l| !(c.members)(l).is_empty())
                .map(|l| l.0),
        );
        links.sort_unstable();
        work.links_indexed += links.len() as u64;
        work.sorted += links.len() as u64;

        if local.len() < caps.len() {
            local.resize(caps.len(), 0);
        }
        for (j, &l) in links.iter().enumerate() {
            local[l as usize] = j as u32;
        }
        residual.clear();
        residual.extend(links.iter().map(|&l| match link_up {
            Some(mask) if !mask[l as usize] => 0.0,
            _ => caps[l as usize].capacity(),
        }));
        count.clear();
        count.extend(links.iter().map(|&l| (c.members)(LinkId(l)).len() as u32));
        share.clear();
        let shares = residual.iter().zip(count.iter());
        share.extend(shares.map(|(r, &n)| (r / f64::from(n)).max(0.0)));
        loaded.clear();
        loaded.extend(0..links.len() as u32);
        for &slot in c.flows {
            let slot = slot as usize;
            if slot >= unfrozen.len() {
                unfrozen.resize(slot + 1, false);
                rate.resize(slot + 1, 0.0);
            }
            unfrozen[slot] = true;
        }

        let mut unfrozen_left = c.flows.len();
        while unfrozen_left > 0 {
            work.rounds += 1;
            work.links_scanned += loaded.len() as u64;
            // Find the most constrained link, dropping the links the
            // round before emptied.
            let mut best_share = f64::INFINITY;
            let mut best_link = None;
            loaded.retain(|&j| {
                let j = j as usize;
                if count[j] == 0 {
                    return false;
                }
                if share[j] < best_share {
                    best_share = share[j];
                    best_link = Some(j);
                }
                true
            });
            let Some(bottleneck) = best_link else {
                // No unfrozen flow crosses a loaded link (can't happen
                // while one is left, but stay safe and leave no mark).
                for &slot in c.flows {
                    unfrozen[slot as usize] = false;
                }
                break;
            };

            // Freeze every unfrozen flow crossing the bottleneck; its list
            // also holds earlier-frozen flows and repeat entries, skipped.
            for &slot in (c.members)(LinkId(links[bottleneck])) {
                if !std::mem::replace(&mut unfrozen[slot as usize], false) {
                    continue;
                }
                rate[slot as usize] = best_share;
                unfrozen_left -= 1;
                for &l in (c.route)(slot) {
                    let j = local[l.index()] as usize;
                    residual[j] = (residual[j] - best_share).max(0.0);
                    count[j] -= 1;
                    share[j] = (residual[j] / f64::from(count[j])).max(0.0);
                }
            }
        }
    }

    /// The rate the last solve that covered `slot` gave it.
    pub(crate) fn rate(&self, slot: u32) -> f64 {
        self.rate[slot as usize]
    }

    /// Whether no slot is marked unfrozen, as between solves.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        !self.unfrozen.contains(&true)
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    use super::RoutedFlow;
    use mayflower_net::{HostId, LinkId, NodeKind, Path, Topology, TreeParams};
    use proptest::prelude::*;

    pub fn compute_rates_masked(
        topo: &Topology,
        flows: &[RoutedFlow<'_>],
        link_up: Option<&[bool]>,
    ) -> Vec<f64> {
        let n_links = topo.links().len();
        let n_flows = flows.len();
        if let Some(mask) = link_up {
            assert_eq!(mask.len(), n_links, "mask must cover every link");
        }
        let mut rates = vec![0.0f64; n_flows];
        if n_flows == 0 {
            return rates;
        }

        // Residual capacity and unfrozen-flow count per link.
        let mut residual: Vec<f64> = topo
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| match link_up {
                Some(mask) if !mask[i] => 0.0,
                _ => l.capacity(),
            })
            .collect();
        let mut count = vec![0u32; n_links];
        let mut frozen = vec![false; n_flows];
        let mut unfrozen_left = 0usize;

        for (i, f) in flows.iter().enumerate() {
            if f.links.is_empty() {
                rates[i] = f64::INFINITY;
                frozen[i] = true;
            } else {
                unfrozen_left += 1;
                for &l in f.links {
                    count[l.index()] += 1;
                }
            }
        }

        while unfrozen_left > 0 {
            // Find the most constrained link.
            let mut best_share = f64::INFINITY;
            let mut best_link = None;
            for l in 0..n_links {
                if count[l] > 0 {
                    let share = (residual[l] / f64::from(count[l])).max(0.0);
                    if share < best_share {
                        best_share = share;
                        best_link = Some(l);
                    }
                }
            }
            let Some(bottleneck) = best_link else {
                // No unfrozen flow crosses any counted link (can't happen
                // while unfrozen_left > 0, but stay safe).
                break;
            };

            // Freeze every unfrozen flow crossing the bottleneck.
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] || f.links.is_empty() {
                    continue;
                }
                if f.links.iter().any(|l| l.index() == bottleneck) {
                    rates[i] = best_share;
                    frozen[i] = true;
                    unfrozen_left -= 1;
                    for &l in f.links {
                        residual[l.index()] = (residual[l.index()] - best_share).max(0.0);
                        count[l.index()] -= 1;
                    }
                }
            }
        }

        rates
    }

    /// Two links that tie on share, ⅓ each: `a` (capacity 1, three
    /// flows) below `b` (capacity 2, six flows), one flow routed over
    /// `b` then `a`, so `b` is the first link a route lists. Which of
    /// the two saturates first moves later rates by an ulp: `a` first
    /// leaves `b`'s other five flows `(2 − ⅓) / 5`, `b` first leaves
    /// `a`'s other two `(1 − ⅓) / 2`, and both round above ⅓.
    pub fn tied_links() -> (Topology, Vec<Vec<LinkId>>) {
        let mut topo = Topology::new();
        let nodes: Vec<_> = (0..3)
            .map(|_| topo.add_node(NodeKind::EdgeSwitch, None, None))
            .collect();
        let (a, _) = topo.add_duplex_link(nodes[0], nodes[1], 1.0);
        let (b, _) = topo.add_duplex_link(nodes[1], nodes[2], 2.0);
        topo.freeze();
        let mut routes = vec![vec![b, a], vec![a], vec![a]];
        routes.extend(std::iter::repeat_n(vec![b], 5));
        (topo, routes)
    }

    /// The rates of [`tied_links`]' flows, the tie going to `a`, the
    /// lower index: its three flows at ⅓, `b`'s other five at
    /// `(2 − ⅓) / 5`.
    pub fn tied_rates() -> Vec<f64> {
        let third = 1.0f64 / 3.0;
        let (after_a, after_b) = ((2.0 - third) / 5.0, (1.0 - third) / 2.0);
        assert!(
            after_a != third && after_b != third,
            "the tie must move a bit"
        );
        let mut rates = vec![third; 3];
        rates.extend([after_a; 5]);
        rates
    }

    /// Three-tier trees: the paper's 64-host testbed, the 256- and
    /// 1024-host (8×8×16) presets of `sim::scale`, and small random
    /// shapes with random oversubscription.
    pub fn trees() -> impl Strategy<Value = TreeParams> {
        let preset = |pods, racks_per_pod, hosts_per_rack| TreeParams {
            pods,
            racks_per_pod,
            hosts_per_rack,
            ..TreeParams::paper_testbed()
        };
        let small = (
            (1usize..4, 1usize..4, 1usize..5),
            (1usize..4, 1usize..4),
            (1.0f64..2.0, 1.0f64..4.0),
        )
            .prop_map(
                move |(shape, (aggs_per_pod, cores), (edge_tier, agg_tier))| TreeParams {
                    aggs_per_pod,
                    cores,
                    oversubscription: edge_tier * agg_tier,
                    edge_tier_oversub: edge_tier,
                    ..preset(shape.0, shape.1, shape.2)
                },
            );
        prop_oneof![
            2 => Just(TreeParams::paper_testbed()),
            1 => Just(preset(8, 4, 8)),
            1 => Just(preset(8, 8, 16)),
            4 => small,
        ]
    }

    /// A route for one raw draw: endpoints from a pool of
    /// `hosts >> crowd` hosts spread evenly over the tree (a small pool
    /// repeats paths and piles flows onto few links), one of the
    /// shortest paths between them, or the empty route when they
    /// coincide.
    pub fn route(topo: &Topology, crowd: u32, (src, dst, pick): (u32, u32, u32)) -> Path {
        let hosts = topo.host_count() as u32;
        let pool = (hosts >> crowd).max(1);
        let host = |raw: u32| HostId(raw % pool * (hosts / pool));
        let mut paths = topo.shortest_paths(host(src), host(dst));
        if paths.is_empty() {
            return Path::new(host(src), host(dst), Vec::new());
        }
        paths.swap_remove(pick as usize % paths.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{NodeKind, Path, PodId, RackId, Topology};

    /// A dumbbell: two hosts on switch A, two on switch B, A—B link of
    /// given capacity.
    fn dumbbell(bottleneck: f64) -> (Topology, Vec<Path>) {
        let mut t = Topology::new();
        let sa = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let sb = t.add_node(NodeKind::EdgeSwitch, Some(RackId(1)), Some(PodId(0)));
        t.set_rack_edge(RackId(0), sa);
        t.set_rack_edge(RackId(1), sb);
        let mut hosts = Vec::new();
        for (sw, rack) in [
            (sa, RackId(0)),
            (sa, RackId(0)),
            (sb, RackId(1)),
            (sb, RackId(1)),
        ] {
            let h = t.add_node(NodeKind::Host, Some(rack), Some(PodId(0)));
            let hid = t.register_host(h, rack, PodId(0));
            t.add_duplex_link(h, sw, 10.0);
            hosts.push(hid);
        }
        t.add_duplex_link(sa, sb, bottleneck);
        t.freeze();
        // Cross flows h0→h2 and h1→h3.
        let p0 = t.shortest_paths(hosts[0], hosts[2])[0].clone();
        let p1 = t.shortest_paths(hosts[1], hosts[3])[0].clone();
        (t, vec![p0, p1])
    }

    #[test]
    fn two_flows_split_bottleneck() {
        let (t, paths) = dumbbell(10.0);
        let flows: Vec<RoutedFlow> = paths
            .iter()
            .map(|p| RoutedFlow { links: p.links() })
            .collect();
        let rates = compute_rates_masked(&t, &flows, None);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn edge_limited_flow_releases_bottleneck() {
        // Bottleneck 30 shared by two flows, but each host uplink is 10:
        // both flows are edge-limited at 10.
        let (t, paths) = dumbbell(30.0);
        let flows: Vec<RoutedFlow> = paths
            .iter()
            .map(|p| RoutedFlow { links: p.links() })
            .collect();
        let rates = compute_rates_masked(&t, &flows, None);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unequal_shares_when_one_flow_is_capped_elsewhere() {
        // Flow A limited to 2 by its uplink; flow B then gets the rest
        // of the 10-capacity bottleneck (8) — max-min, not equal split.
        let mut t = Topology::new();
        let sa = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let sb = t.add_node(NodeKind::EdgeSwitch, Some(RackId(1)), Some(PodId(0)));
        t.set_rack_edge(RackId(0), sa);
        t.set_rack_edge(RackId(1), sb);
        let ha = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let a = t.register_host(ha, RackId(0), PodId(0));
        t.add_duplex_link(ha, sa, 2.0); // slow uplink
        let hb = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let b = t.register_host(hb, RackId(0), PodId(0));
        t.add_duplex_link(hb, sa, 100.0);
        let hc = t.add_node(NodeKind::Host, Some(RackId(1)), Some(PodId(0)));
        let c = t.register_host(hc, RackId(1), PodId(0));
        t.add_duplex_link(hc, sb, 100.0);
        let hd = t.add_node(NodeKind::Host, Some(RackId(1)), Some(PodId(0)));
        let d = t.register_host(hd, RackId(1), PodId(0));
        t.add_duplex_link(hd, sb, 100.0);
        t.add_duplex_link(sa, sb, 10.0);
        t.freeze();
        let pa = t.shortest_paths(a, c)[0].clone();
        let pb = t.shortest_paths(b, d)[0].clone();
        let rates = compute_rates_masked(
            &t,
            &[
                RoutedFlow { links: pa.links() },
                RoutedFlow { links: pb.links() },
            ],
            None,
        );
        assert!((rates[0] - 2.0).abs() < 1e-9, "capped flow: {}", rates[0]);
        assert!((rates[1] - 8.0).abs() < 1e-9, "greedy flow: {}", rates[1]);
    }

    #[test]
    fn a_tie_goes_to_the_lowest_link_index() {
        let (topo, routes) = oracle::tied_links();
        let flows: Vec<RoutedFlow> = routes.iter().map(|r| RoutedFlow { links: r }).collect();
        let bits = |rates: Vec<f64>| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let got = bits(compute_rates_masked(&topo, &flows, None));
        assert_eq!(got, bits(oracle::tied_rates()));
        assert_eq!(got, bits(oracle::compute_rates_masked(&topo, &flows, None)));
    }

    #[test]
    fn empty_route_is_infinite() {
        let (t, _) = dumbbell(10.0);
        let rates = compute_rates_masked(&t, &[RoutedFlow { links: &[] }], None);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn no_flows_no_rates() {
        let (t, _) = dumbbell(10.0);
        assert!(compute_rates_masked(&t, &[], None).is_empty());
    }

    #[test]
    fn masked_link_zeroes_crossing_flows_only() {
        let (t, paths) = dumbbell(10.0);
        let flows: Vec<RoutedFlow> = paths
            .iter()
            .map(|p| RoutedFlow { links: p.links() })
            .collect();
        // Down flow 0's host uplink: flow 0 stalls at zero and flow 1
        // inherits the whole bottleneck.
        let victim = paths[0].links()[0];
        let mut mask = vec![true; t.links().len()];
        mask[victim.index()] = false;
        let rates = compute_rates_masked(&t, &flows, Some(&mask));
        assert_eq!(rates[0], 0.0, "flow on downed link stalls");
        assert!((rates[1] - 10.0).abs() < 1e-9, "survivor takes over");
        // All-up mask matches the unmasked computation.
        let all_up = vec![true; t.links().len()];
        assert_eq!(
            compute_rates_masked(&t, &flows, Some(&all_up)),
            compute_rates_masked(&t, &flows, None)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mayflower_net::{HostId, LinkId, Topology, TreeParams};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// On the paper testbed with random flows: no link exceeds
        /// capacity and every flow with a route gets a positive rate.
        #[test]
        fn allocation_feasible_and_positive(
            pairs in proptest::collection::vec((0u32..64, 0u32..64), 1..40)
        ) {
            let topo = Topology::three_tier(&TreeParams::paper_testbed());
            let paths: Vec<_> = pairs
                .iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| topo.shortest_paths(HostId(*a), HostId(*b))[0].clone())
                .collect();
            let flows: Vec<RoutedFlow> = paths.iter().map(|p| RoutedFlow { links: p.links() }).collect();
            let rates = compute_rates_masked(&topo, &flows, None);

            // Feasibility: per-link load ≤ capacity.
            let mut load = vec![0.0f64; topo.links().len()];
            for (f, r) in flows.iter().zip(&rates) {
                prop_assert!(*r > 0.0);
                for l in f.links {
                    load[l.index()] += r;
                }
            }
            for (l, used) in load.iter().enumerate() {
                let cap = topo.links()[l].capacity();
                prop_assert!(*used <= cap * (1.0 + 1e-9) + 1e-6,
                    "link {l} over capacity: {used} > {cap}");
            }

            // Max-min property: every flow crosses at least one
            // saturated link, OR is at its path's min capacity.
            for (f, r) in flows.iter().zip(&rates) {
                let bottlenecked = f.links.iter().any(|l| {
                    let cap = topo.links()[l.index()].capacity();
                    load[l.index()] >= cap * (1.0 - 1e-6)
                });
                prop_assert!(bottlenecked, "flow at rate {r} crosses no saturated link");
            }
        }

        /// Every rate equals the oracle's to the bit: any tree, 0–300
        /// flows with repeated and empty routes, no mask, up to 40
        /// random links down, everything down.
        #[test]
        fn rates_equal_the_oracle_to_the_bit(
            tree in oracle::trees(),
            crowd in 0u32..6,
            draws in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..=300),
            mask_kind in 0u8..4,
            down in proptest::collection::vec(any::<u32>(), 0..40),
        ) {
            let topo = Topology::three_tier(&tree);
            let paths: Vec<_> = draws.iter().map(|d| oracle::route(&topo, crowd, *d)).collect();
            let flows: Vec<RoutedFlow> = paths.iter().map(|p| RoutedFlow { links: p.links() }).collect();
            let mask = mask(topo.links().len(), mask_kind, &down);
            equal_to_the_oracle(&topo, &flows, mask.as_deref())?;
        }

        /// The same to the bit for routes the member lists must index
        /// as given, not only shortest paths: 1–8 links drawn from a pool
        /// of `links >> crowd`, repeats allowed, mixed with shortest
        /// paths and empty routes, under the same masks.
        #[test]
        fn arbitrary_routes_equal_the_oracle_to_the_bit(
            tree in oracle::trees(),
            crowd in 0u32..6,
            draws in proptest::collection::vec(
                (0u8..4, (any::<u32>(), any::<u32>(), any::<u32>()),
                 proptest::collection::vec(any::<u32>(), 1..=8)),
                0..=300,
            ),
            mask_kind in 0u8..4,
            down in proptest::collection::vec(any::<u32>(), 0..40),
        ) {
            let topo = Topology::three_tier(&tree);
            let n_links = topo.links().len();
            let pool = (n_links >> crowd).max(1) as u32;
            let routes: Vec<Vec<LinkId>> = draws
                .iter()
                .map(|(kind, draw, raw_links)| match kind {
                    0 => oracle::route(&topo, crowd, *draw).links().to_vec(),
                    1 => Vec::new(),
                    _ => raw_links.iter().map(|raw| LinkId(raw % pool)).collect(),
                })
                .collect();
            let flows: Vec<RoutedFlow> = routes.iter().map(|r| RoutedFlow { links: r }).collect();
            let mask = mask(n_links, mask_kind, &down);
            equal_to_the_oracle(&topo, &flows, mask.as_deref())?;
        }
    }

    /// No mask, every link down, or the links `down` names down.
    fn mask(n_links: usize, kind: u8, down: &[u32]) -> Option<Vec<bool>> {
        match kind {
            0 => None,
            1 => Some(vec![false; n_links]),
            _ => {
                let mut mask = vec![true; n_links];
                for raw in down {
                    mask[*raw as usize % n_links] = false;
                }
                Some(mask)
            }
        }
    }

    fn equal_to_the_oracle(
        topo: &Topology,
        flows: &[RoutedFlow<'_>],
        mask: Option<&[bool]>,
    ) -> Result<(), String> {
        let got = compute_rates_masked(topo, flows, mask);
        let want = oracle::compute_rates_masked(topo, flows, mask);
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "flow {i} of {}: {g:e} vs oracle {w:e}",
                flows.len()
            );
        }
        Ok(())
    }
}
