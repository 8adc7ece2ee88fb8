//! Global max-min fair rate allocation via progressive filling.

use mayflower_net::{LinkId, Topology};

/// A flow with its route, as input to [`compute_rates_masked`].
#[derive(Debug, Clone)]
pub struct RoutedFlow<'a> {
    /// The directed links the flow traverses.
    pub links: &'a [LinkId],
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
/// Complexity: `O(flow_links × log flow_links +
/// rounds × loaded_links + frozen_flows × path_len)`, one link
/// saturated per round, and nothing sized to the fabric: setup sorts
/// the `flow_links` route entries to index only the links the flows
/// cross, a round compares the cached shares of the links that still
/// carry an unfrozen flow, and freezing a flow recomputes the share of
/// each of its links.
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
    let links = topo.links();
    if let Some(mask) = link_up {
        assert_eq!(mask.len(), links.len(), "mask must cover every link");
    }
    let mut rates = vec![0.0f64; flows.len()];
    if flows.is_empty() {
        return rates;
    }
    let mut frozen = vec![false; flows.len()];
    let mut unfrozen_left = 0usize;

    // Flat routes: flow `i`'s entries are `first[i]..first[i + 1]`, in
    // route order. A key is an entry's link over its position, so the
    // sorted keys run link by link, each link's entries in flow order.
    let mut first = Vec::with_capacity(flows.len() + 1);
    let mut owner = Vec::new();
    let mut keys = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        first.push(owner.len() as u32);
        if f.links.is_empty() {
            rates[i] = f64::INFINITY;
            frozen[i] = true;
            continue;
        }
        unfrozen_left += 1;
        for &l in f.links {
            keys.push((u64::from(l.0) << 32) | owner.len() as u64);
            owner.push(i as u32);
        }
    }
    first.push(owner.len() as u32);
    keys.sort_unstable();

    // Local links: the distinct links the routes cross, ascending, so
    // local order is `LinkId` order. `route[e]` is entry `e`'s local
    // link; link `j`'s flows are `members[start[j]..start[j + 1]]`,
    // ascending, once per time a route lists `j`.
    let mut route = vec![0u32; keys.len()];
    let mut members = Vec::with_capacity(keys.len());
    let mut start = Vec::new();
    let mut residual = Vec::new();
    let mut last = None;
    for &key in &keys {
        let (link, entry) = ((key >> 32) as usize, key as u32 as usize);
        if last != Some(link) {
            last = Some(link);
            start.push(members.len() as u32);
            residual.push(match link_up {
                Some(mask) if !mask[link] => 0.0,
                _ => links[link].capacity(),
            });
        }
        route[entry] = (start.len() - 1) as u32;
        members.push(owner[entry]);
    }
    start.push(members.len() as u32);

    // Unfrozen-flow count and fair share per local link; the share is
    // recomputed whenever the freeze step changes either operand.
    let mut count: Vec<u32> = start.windows(2).map(|w| w[1] - w[0]).collect();
    let mut share: Vec<f64> = residual
        .iter()
        .zip(&count)
        .map(|(r, &c)| (r / f64::from(c)).max(0.0))
        .collect();

    // Only a link that still carries an unfrozen flow can saturate
    // next. Ascending; each round's search drops the links the round
    // before emptied, in place.
    let mut loaded: Vec<u32> = (0..residual.len() as u32).collect();

    while unfrozen_left > 0 {
        // Find the most constrained link.
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
            // No unfrozen flow crosses any counted link (can't happen
            // while unfrozen_left > 0, but stay safe).
            break;
        };

        // Freeze every unfrozen flow crossing the bottleneck; its list
        // also holds earlier-frozen flows and repeat entries, skipped.
        let crossing = start[bottleneck] as usize..start[bottleneck + 1] as usize;
        for &i in &members[crossing] {
            let i = i as usize;
            if frozen[i] {
                continue;
            }
            rates[i] = best_share;
            frozen[i] = true;
            unfrozen_left -= 1;
            for &j in &route[first[i] as usize..first[i + 1] as usize] {
                let j = j as usize;
                residual[j] = (residual[j] - best_share).max(0.0);
                count[j] -= 1;
                share[j] = (residual[j] / f64::from(count[j])).max(0.0);
            }
        }
    }

    rates
}

/// The reference every faster solver is proven against, to the bit:
/// progressive filling that rescans all links in every round (the
/// solver as it stood before the loaded-link list), plus the inputs the
/// bit-identity suites here and in `fluid.rs` draw. Test-only —
/// non-test code has one solver, [`compute_rates_masked`].
#[cfg(test)]
pub(crate) mod oracle {
    use super::RoutedFlow;
    use mayflower_net::{HostId, Path, Topology, TreeParams};
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
