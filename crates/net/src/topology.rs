//! The topology graph: nodes, directed links, and shortest-path
//! enumeration.

use serde::{Deserialize, Serialize};

use crate::ids::{HostId, LinkId, NodeId, NodeKind, PodId, RackId};
use crate::path::Path;
use crate::Bps;

/// A node in the network: a host or a switch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    rack: Option<RackId>,
    pod: Option<PodId>,
}

impl Node {
    /// The node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's role in the tree.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The rack this node belongs to (hosts and edge switches).
    #[must_use]
    pub fn rack(&self) -> Option<RackId> {
        self.rack
    }

    /// The pod this node belongs to (everything except core switches).
    #[must_use]
    pub fn pod(&self) -> Option<PodId> {
        self.pod
    }
}

/// A directed link with a fixed capacity in bits per second.
///
/// Physical cables are modelled as two directed links so that the two
/// directions can carry (and congest) independently.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
    capacity: Bps,
}

impl Link {
    /// The link's identifier.
    #[must_use]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Transmitting endpoint.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Receiving endpoint.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Capacity in bits per second.
    #[must_use]
    pub fn capacity(&self) -> Bps {
        self.capacity
    }
}

/// An immutable network topology: a directed graph of [`Node`]s and
/// [`Link`]s plus the rack/pod grouping metadata that replica placement
/// and locality classification need.
///
/// Build one with [`Topology::three_tier`] (the paper's tree networks)
/// or assemble an arbitrary graph with the builder-style
/// mutators ([`Topology::add_node`], [`Topology::add_duplex_link`])
/// before calling [`Topology::freeze`]. Most algorithms only need the
/// read API.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node, indexed by `NodeId`.
    out_links: Vec<Vec<LinkId>>,
    /// Reverse direction of each link (same cable, opposite way).
    reverse: Vec<LinkId>,
    /// Dense host list; `HostId` indexes into this.
    host_nodes: Vec<NodeId>,
    /// Hosts grouped by rack.
    racks: Vec<Vec<HostId>>,
    /// Racks grouped by pod.
    pods: Vec<Vec<RackId>>,
    /// Edge switch serving each rack.
    rack_edge: Vec<NodeId>,
    frozen: bool,
}

impl Topology {
    /// Creates an empty, mutable topology.
    #[must_use]
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the topology has been frozen.
    pub fn add_node(&mut self, kind: NodeKind, rack: Option<RackId>, pod: Option<PodId>) -> NodeId {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            rack,
            pod,
        });
        self.out_links.push(Vec::new());
        id
    }

    /// Registers `node` as a host in rack `rack` of pod `pod`, growing
    /// the rack/pod tables as needed, and returns its dense [`HostId`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a `Host` node or the topology is frozen.
    pub fn register_host(&mut self, node: NodeId, rack: RackId, pod: PodId) -> HostId {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        assert_eq!(
            self.nodes[node.index()].kind,
            NodeKind::Host,
            "register_host requires a Host node"
        );
        let host = HostId(self.host_nodes.len() as u32);
        self.host_nodes.push(node);
        if self.racks.len() <= rack.index() {
            self.racks.resize(rack.index() + 1, Vec::new());
        }
        self.racks[rack.index()].push(host);
        if self.pods.len() <= pod.index() {
            self.pods.resize(pod.index() + 1, Vec::new());
        }
        if !self.pods[pod.index()].contains(&rack) {
            self.pods[pod.index()].push(rack);
        }
        host
    }

    /// Records the edge switch serving `rack`.
    pub fn set_rack_edge(&mut self, rack: RackId, edge: NodeId) {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        if self.rack_edge.len() <= rack.index() {
            self.rack_edge.resize(rack.index() + 1, NodeId(u32::MAX));
        }
        self.rack_edge[rack.index()] = edge;
    }

    /// Adds a full-duplex cable between `a` and `b` as two directed
    /// links of the given capacity; returns `(a→b, b→a)`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite-positive or the topology is
    /// frozen.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, capacity: Bps) -> (LinkId, LinkId) {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        let fwd = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: fwd,
            src: a,
            dst: b,
            capacity,
        });
        self.out_links[a.index()].push(fwd);
        let rev = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: rev,
            src: b,
            dst: a,
            capacity,
        });
        self.out_links[b.index()].push(rev);
        self.reverse.push(rev);
        self.reverse.push(fwd);
        (fwd, rev)
    }

    /// Marks the topology immutable. Mutators panic afterwards.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a link.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The opposite direction of the same cable.
    #[must_use]
    pub fn reverse_link(&self, id: LinkId) -> LinkId {
        self.reverse[id.index()]
    }

    /// Dense list of host ids (`HostId(0)..HostId(n)`).
    #[must_use]
    pub fn hosts(&self) -> Vec<HostId> {
        (0..self.host_nodes.len() as u32).map(HostId).collect()
    }

    /// Number of hosts.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.host_nodes.len()
    }

    /// The graph node backing a host.
    #[must_use]
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.host_nodes[host.index()]
    }

    /// The rack a host lives in.
    ///
    /// # Panics
    ///
    /// Panics if the host was registered without a rack (impossible via
    /// [`Topology::register_host`]).
    #[must_use]
    pub fn rack_of(&self, host: HostId) -> RackId {
        self.node(self.host_node(host))
            .rack
            .expect("hosts always have a rack")
    }

    /// The pod a host lives in.
    #[must_use]
    pub fn pod_of(&self, host: HostId) -> PodId {
        self.node(self.host_node(host))
            .pod
            .expect("hosts always have a pod")
    }

    /// Hosts in a rack.
    #[must_use]
    pub fn hosts_in_rack(&self, rack: RackId) -> &[HostId] {
        &self.racks[rack.index()]
    }

    /// Racks in a pod.
    #[must_use]
    pub fn racks_in_pod(&self, pod: PodId) -> &[RackId] {
        &self.pods[pod.index()]
    }

    /// Number of racks.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// Number of pods.
    #[must_use]
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// The edge switch serving a rack.
    #[must_use]
    pub fn edge_switch_of(&self, rack: RackId) -> NodeId {
        self.rack_edge[rack.index()]
    }

    /// Outgoing links of a node.
    #[must_use]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// The host→edge-switch uplink of a host (its only outgoing link in
    /// a tree).
    ///
    /// # Panics
    ///
    /// Panics if the host has no outgoing link.
    #[must_use]
    pub fn host_uplink(&self, host: HostId) -> LinkId {
        let node = self.host_node(host);
        *self
            .out_links(node)
            .first()
            .expect("hosts have an uplink to their edge switch")
    }

    /// The edge-switch→host downlink of a host.
    #[must_use]
    pub fn host_downlink(&self, host: HostId) -> LinkId {
        self.reverse_link(self.host_uplink(host))
    }

    /// Core-facing uplinks of a rack's edge switch (edge→aggregation
    /// links). These are the links Sinbad-R estimates utilization for.
    #[must_use]
    pub fn edge_uplinks(&self, rack: RackId) -> Vec<LinkId> {
        let edge = self.edge_switch_of(rack);
        self.out_links(edge)
            .iter()
            .copied()
            .filter(|l| self.node(self.link(*l).dst()).kind() == NodeKind::AggSwitch)
            .collect()
    }

    /// Hop distance (number of links) between two hosts, or `None` if
    /// unreachable. Two hosts on the same machine have distance 0.
    #[must_use]
    pub fn distance(&self, a: HostId, b: HostId) -> Option<usize> {
        let goal = self.host_node(b);
        self.levels_to(self.host_node(a), goal)
            .map(|dist| dist[goal.index()] as usize)
    }

    /// Enumerates **all** shortest paths from `src` to `dst`, in link order.
    ///
    /// In a 3-tier tree these have length 2 (same rack), 4 (same pod)
    /// or 6 (cross-pod), exactly the path-length restriction of §4.2.
    /// Returns an empty vector when `src == dst` (no network involved)
    /// or when no path exists.
    ///
    /// Cost: a BFS that stops at `dst`'s level `d`, expanding only the
    /// nodes closer than `d` to `src` (210 of the 1106 nodes of the
    /// 1024-host tree for a cross-pod pair, 2 for a same-rack one) over
    /// one `u32` per node, then a walk back from `dst` over the paths and
    /// their sort. Nothing is kept between calls; [`crate::PathCache`] is the memo.
    #[must_use]
    pub fn shortest_paths(&self, src: HostId, dst: HostId) -> Vec<Path> {
        if src == dst {
            return Vec::new();
        }
        let goal = self.host_node(dst);
        let Some(dist) = self.levels_to(self.host_node(src), goal) else {
            return Vec::new();
        };
        let mut paths = Vec::new();
        self.walk_back(&dist, goal, &mut Vec::new(), &mut |back| {
            paths.push(Path::new(src, dst, back.iter().rev().copied().collect()));
        });
        paths.sort_by(|a, b| a.links().cmp(b.links()));
        paths
    }

    /// Level-order BFS from `start` that stops when it pops the first node
    /// at `goal`'s level `d`: every node up to `d` has its distance by
    /// then (its discoverer, one level up, came off the queue first) and
    /// none beyond. `None` if `goal` is unreachable.
    fn levels_to(&self, start: NodeId, goal: NodeId) -> Option<Vec<u32>> {
        let mut dist = vec![UNSEEN; self.nodes.len()];
        dist[start.index()] = 0;
        let mut queue = Vec::with_capacity(self.nodes.len());
        queue.push(start);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u.index()];
            if du >= dist[goal.index()] {
                return Some(dist);
            }
            for &l in &self.out_links[u.index()] {
                let v = self.links[l.index()].dst;
                if dist[v.index()] == UNSEEN {
                    dist[v.index()] = du + 1;
                    queue.push(v);
                }
            }
        }
        None
    }

    /// Calls `emit` with every shortest route from the start to `v`, as
    /// links from `v` backwards appended to `back`. Its predecessor links
    /// are the reverses of its out-links to a node one level closer — exact
    /// only because [`Topology::add_duplex_link`], the only way to build a
    /// link, gives every link a reverse.
    fn walk_back(
        &self,
        dist: &[u32],
        v: NodeId,
        back: &mut Vec<LinkId>,
        emit: &mut dyn FnMut(&[LinkId]),
    ) {
        let dv = dist[v.index()];
        if dv == 0 {
            emit(back);
            return;
        }
        for &out in &self.out_links[v.index()] {
            let w = self.links[out.index()].dst;
            // An unseen `w` wraps to 0, which only the start has.
            if dist[w.index()].wrapping_add(1) == dv {
                back.push(self.reverse[out.index()]);
                self.walk_back(dist, w, back, emit);
                back.pop();
            }
        }
    }
}

/// `Topology::levels_to`'s distance for a node it has not discovered.
const UNSEEN: u32 = u32::MAX;

/// The enumerator as it was before the search learnt to stop at the
/// destination's level, kept verbatim as free functions: a BFS over the
/// whole fabric that records every node's predecessor links, then a DFS
/// over them. The tests below hold `shortest_paths`, `distance` and the
/// search's frontier to it.
#[cfg(test)]
mod oracle {
    use std::collections::VecDeque;

    use crate::ids::{HostId, LinkId, NodeId};
    use crate::path::Path;
    use crate::topology::Topology;

    pub fn distance(t: &Topology, a: HostId, b: HostId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let (dist, _) = bfs(t, t.host_node(a));
        let d = dist[t.host_node(b).index()];
        if d == usize::MAX {
            None
        } else {
            Some(d)
        }
    }

    pub fn shortest_paths(t: &Topology, src: HostId, dst: HostId) -> Vec<Path> {
        if src == dst {
            return Vec::new();
        }
        let src_node = t.host_node(src);
        let dst_node = t.host_node(dst);
        let (dist, preds) = bfs(t, src_node);
        if dist[dst_node.index()] == usize::MAX {
            return Vec::new();
        }
        // Walk predecessor links backwards from dst, enumerating every
        // combination (all-shortest-paths DFS).
        let mut paths = Vec::new();
        let mut stack: Vec<LinkId> = Vec::new();
        let walk = PathWalk {
            src_node,
            preds: &preds,
            src,
            dst,
        };
        collect_paths(t, &walk, dst_node, &mut stack, &mut paths);
        paths.sort_by(|a, b| a.links().cmp(b.links()));
        paths
    }

    fn collect_paths(
        t: &Topology,
        walk: &PathWalk<'_>,
        cur: NodeId,
        stack: &mut Vec<LinkId>,
        out: &mut Vec<Path>,
    ) {
        if cur == walk.src_node {
            let links: Vec<LinkId> = stack.iter().rev().copied().collect();
            out.push(Path::new(walk.src, walk.dst, links));
            return;
        }
        for &l in &walk.preds[cur.index()] {
            stack.push(l);
            collect_paths(t, walk, t.link(l).src(), stack, out);
            stack.pop();
        }
    }

    /// BFS from `start`, returning per-node distance and the incoming
    /// links that realize each node's shortest distance.
    pub fn bfs(t: &Topology, start: NodeId) -> (Vec<usize>, Vec<Vec<LinkId>>) {
        let n = t.nodes().len();
        let mut dist = vec![usize::MAX; n];
        let mut preds: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        dist[start.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            for &l in t.out_links(u) {
                let v = t.link(l).dst();
                let dv = dist[v.index()];
                if dv == usize::MAX {
                    dist[v.index()] = du + 1;
                    preds[v.index()].push(l);
                    q.push_back(v);
                } else if dv == du + 1 {
                    preds[v.index()].push(l);
                }
            }
        }
        (dist, preds)
    }

    /// Fixed context for the all-shortest-paths DFS.
    struct PathWalk<'a> {
        src_node: NodeId,
        preds: &'a [Vec<LinkId>],
        src: HostId,
        dst: HostId,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTreeParams, TreeParams, GBPS};
    use proptest::prelude::*;

    /// `shortest_paths` and `distance` equal the oracle's for every
    /// listed pair, element for element, and the search's distances
    /// are exactly the oracle's up to the destination's level and
    /// unset beyond it.
    fn agrees_with_oracle(t: &Topology, pairs: impl IntoIterator<Item = (u32, u32)>) {
        for (a, b) in pairs {
            let (ha, hb) = (HostId(a), HostId(b));
            assert_eq!(
                t.shortest_paths(ha, hb),
                oracle::shortest_paths(t, ha, hb),
                "{a} -> {b}"
            );
            assert_eq!(
                t.distance(ha, hb),
                oracle::distance(t, ha, hb),
                "{a} -> {b}"
            );
            let (full, _) = oracle::bfs(t, t.host_node(ha));
            let d = full[t.host_node(hb).index()];
            let Some(got) = t.levels_to(t.host_node(ha), t.host_node(hb)) else {
                assert_eq!(d, usize::MAX, "{a} -> {b} is reachable");
                continue;
            };
            let want: Vec<u32> = full
                .iter()
                .map(|&n| if n <= d { n as u32 } else { UNSEEN })
                .collect();
            assert_eq!(got, want, "{a} -> {b}: frontier");
        }
    }

    fn all_pairs(t: &Topology) -> impl Iterator<Item = (u32, u32)> {
        let n = t.host_count() as u32;
        (0..n).flat_map(move |a| (0..n).map(move |b| (a, b)))
    }

    #[test]
    fn every_pair_of_the_paper_tree_matches_the_oracle() {
        let t = Topology::three_tier(&TreeParams::paper_testbed());
        agrees_with_oracle(&t, all_pairs(&t));
    }

    #[test]
    fn strided_pairs_of_the_1024_host_tree_match_the_oracle() {
        let t = Topology::three_tier(&TreeParams {
            pods: 8,
            racks_per_pod: 8,
            hosts_per_rack: 16,
            ..TreeParams::paper_testbed()
        });
        let pairs = (0..1024)
            .step_by(73)
            .flat_map(|a| (0..1024).step_by(7).map(move |b| (a, b)));
        agrees_with_oracle(&t, pairs);
        // The counts `shortest_paths`' rustdoc quotes: nodes expanded,
        // i.e. closer to the source than the destination is.
        let expanded = |a, b| {
            let goal = t.host_node(HostId(b));
            let dist = t.levels_to(t.host_node(HostId(a)), goal).unwrap();
            dist.iter().filter(|&&d| d < dist[goal.index()]).count()
        };
        assert_eq!(t.nodes().len(), 1106);
        assert_eq!(expanded(0, 1023), 210);
        assert_eq!(t.shortest_paths(HostId(0), HostId(1023)).len(), 8);
        assert_eq!(expanded(0, 1), 2);
    }

    #[test]
    fn fat_trees_match_the_oracle() {
        for k in [2, 4, 6] {
            let t = Topology::fat_tree(&FatTreeParams {
                k,
                link_capacity: GBPS,
            });
            agrees_with_oracle(&t, all_pairs(&t));
        }
    }

    #[test]
    fn single_agg_single_core_tree_matches_the_oracle() {
        let t = Topology::three_tier(&TreeParams {
            pods: 3,
            racks_per_pod: 2,
            hosts_per_rack: 2,
            aggs_per_pod: 1,
            cores: 1,
            ..TreeParams::paper_testbed()
        });
        agrees_with_oracle(&t, all_pairs(&t));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_small_trees_match_the_oracle(
            (pods, racks_per_pod, hosts_per_rack) in (1usize..4, 1usize..4, 1usize..4),
            (aggs_per_pod, cores) in (1usize..4, 1usize..4),
        ) {
            let t = Topology::three_tier(&TreeParams {
                pods,
                racks_per_pod,
                hosts_per_rack,
                aggs_per_pod,
                cores,
                ..TreeParams::paper_testbed()
            });
            agrees_with_oracle(&t, all_pairs(&t));
        }
    }

    /// The paper's Figure 2: two racks joined by two aggregation
    /// switches, so two 4-link paths each way.
    #[test]
    fn figure_2_graph_matches_the_oracle() {
        let mut t = Topology::new();
        let e1 = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let e2 = t.add_node(NodeKind::EdgeSwitch, Some(RackId(1)), Some(PodId(0)));
        let a1 = t.add_node(NodeKind::AggSwitch, None, Some(PodId(0)));
        let a2 = t.add_node(NodeKind::AggSwitch, None, Some(PodId(0)));
        let hs = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        t.register_host(hs, RackId(0), PodId(0));
        let hr = t.add_node(NodeKind::Host, Some(RackId(1)), Some(PodId(0)));
        t.register_host(hr, RackId(1), PodId(0));
        for (a, b) in [(hs, e1), (hr, e2), (e1, a1), (e1, a2), (a1, e2), (a2, e2)] {
            t.add_duplex_link(a, b, 10.0);
        }
        t.freeze();
        agrees_with_oracle(&t, all_pairs(&t));
        assert_eq!(t.shortest_paths(HostId(0), HostId(1)).len(), 2);
    }

    /// Shapes no tree builder makes: parallel cables (two paths over
    /// the same switches), a cable between two switches of one level
    /// (on no shortest path), and a destination cabled to a switch
    /// beyond its own level, which the search never reaches.
    #[test]
    fn hand_built_irregular_graph_matches_the_oracle() {
        let mut t = Topology::new();
        let r = (Some(RackId(0)), Some(PodId(0)));
        let s: Vec<NodeId> = (0..5)
            .map(|_| t.add_node(NodeKind::EdgeSwitch, r.0, r.1))
            .collect();
        let h: Vec<NodeId> = (0..3)
            .map(|_| t.add_node(NodeKind::Host, r.0, r.1))
            .collect();
        for &n in &h {
            t.register_host(n, RackId(0), PodId(0));
        }
        for (a, b) in [
            (h[0], s[0]),
            (s[0], s[1]),
            (s[0], s[1]),
            (s[0], s[2]),
            (s[1], s[2]),
            (s[1], s[3]),
            (s[2], s[3]),
            (h[1], s[3]),
            (h[1], s[4]),
            (s[4], h[2]),
        ] {
            t.add_duplex_link(a, b, GBPS);
        }
        t.freeze();
        agrees_with_oracle(&t, all_pairs(&t));
        assert_eq!(t.shortest_paths(HostId(0), HostId(1)).len(), 3);
        assert_eq!(t.distance(HostId(0), HostId(2)), Some(6));
    }

    #[test]
    fn a_host_with_no_links_has_no_paths_and_no_distance() {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..3)
            .map(|_| t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0))))
            .collect();
        for &n in &nodes {
            t.register_host(n, RackId(0), PodId(0));
        }
        t.add_duplex_link(nodes[0], nodes[1], GBPS);
        t.freeze();
        for other in [HostId(0), HostId(1)] {
            assert!(t.shortest_paths(HostId(2), other).is_empty());
            assert!(t.shortest_paths(other, HostId(2)).is_empty());
            assert_eq!(t.distance(HostId(2), other), None);
            assert_eq!(t.distance(other, HostId(2)), None);
        }
        assert_eq!(t.distance(HostId(2), HostId(2)), Some(0));
        agrees_with_oracle(&t, all_pairs(&t));
    }

    /// Two hosts connected through one switch.
    fn tiny() -> (Topology, HostId, HostId) {
        let mut t = Topology::new();
        let sw = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let h0 = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let h1 = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let a = t.register_host(h0, RackId(0), PodId(0));
        let b = t.register_host(h1, RackId(0), PodId(0));
        t.set_rack_edge(RackId(0), sw);
        t.add_duplex_link(h0, sw, GBPS);
        t.add_duplex_link(h1, sw, GBPS);
        t.freeze();
        (t, a, b)
    }

    #[test]
    fn duplex_links_are_reversible() {
        let (t, a, _) = tiny();
        let up = t.host_uplink(a);
        let down = t.host_downlink(a);
        assert_eq!(t.reverse_link(up), down);
        assert_eq!(t.reverse_link(down), up);
        assert_eq!(t.link(up).src(), t.link(down).dst());
    }

    #[test]
    fn same_rack_distance_is_two() {
        let (t, a, b) = tiny();
        assert_eq!(t.distance(a, b), Some(2));
        assert_eq!(t.distance(a, a), Some(0));
    }

    #[test]
    fn shortest_paths_same_rack() {
        let (t, a, b) = tiny();
        let paths = t.shortest_paths(a, b);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
        assert_eq!(paths[0].src(), a);
        assert_eq!(paths[0].dst(), b);
        // Path is connected host→switch→host.
        let l0 = t.link(paths[0].links()[0]);
        let l1 = t.link(paths[0].links()[1]);
        assert_eq!(l0.dst(), l1.src());
    }

    #[test]
    fn same_host_has_no_paths() {
        let (t, a, _) = tiny();
        assert!(t.shortest_paths(a, a).is_empty());
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn frozen_topology_rejects_mutation() {
        let (mut t, _, _) = tiny();
        t.add_node(NodeKind::Host, None, None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, None, None);
        let b = t.add_node(NodeKind::Host, None, None);
        t.add_duplex_link(a, b, 0.0);
    }

    #[test]
    fn rack_and_pod_lookup() {
        let (t, a, b) = tiny();
        assert_eq!(t.rack_of(a), RackId(0));
        assert_eq!(t.pod_of(b), PodId(0));
        assert_eq!(t.hosts_in_rack(RackId(0)), &[a, b]);
        assert_eq!(t.racks_in_pod(PodId(0)), &[RackId(0)]);
    }
}
