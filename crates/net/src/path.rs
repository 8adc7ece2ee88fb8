//! Network paths: ordered sequences of directed links between hosts.

use serde::{Deserialize, Serialize};

use crate::ids::{HostId, LinkId};
use crate::topology::Topology;

/// An ordered sequence of directed links from a source host to a
/// destination host.
///
/// Produced by [`Topology::shortest_paths`]; consumed by the flow
/// simulator and by the Flowserver (its flow model and cost
/// function).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    src: HostId,
    dst: HostId,
    links: Vec<LinkId>,
}

impl Path {
    /// Creates a path. The link sequence is trusted here; use
    /// [`Path::validate`] to check connectivity against a topology.
    #[must_use]
    pub fn new(src: HostId, dst: HostId, links: Vec<LinkId>) -> Path {
        Path { src, dst, links }
    }

    /// Source host.
    #[must_use]
    pub fn src(&self) -> HostId {
        self.src
    }

    /// Destination host.
    #[must_use]
    pub fn dst(&self) -> HostId {
        self.dst
    }

    /// The links, in order from source to destination.
    #[must_use]
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of links (hops).
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the path has no links (a degenerate same-host path).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether this path shares any link with `other`. Subflows of a
    /// split read are steered to disjoint paths to avoid sharing a
    /// bottleneck (§4.3).
    #[must_use]
    pub fn shares_link_with(&self, other: &Path) -> bool {
        self.links.iter().any(|l| other.links.contains(l))
    }

    /// Checks that the path is connected in `topo`: starts at `src`'s
    /// node, ends at `dst`'s node, and each link starts where the
    /// previous one ended.
    #[must_use]
    pub fn validate(&self, topo: &Topology) -> bool {
        if self.links.is_empty() {
            return self.src == self.dst;
        }
        let mut cur = topo.host_node(self.src);
        for &l in &self.links {
            let link = topo.link(l);
            if link.src() != cur {
                return false;
            }
            cur = link.dst();
        }
        cur == topo.host_node(self.dst)
    }

    /// The minimum link capacity along the path — an upper bound on any
    /// flow's achievable rate.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    #[must_use]
    pub fn min_capacity(&self, topo: &Topology) -> f64 {
        self.links
            .iter()
            .map(|&l| topo.link(l).capacity())
            .fold(f64::INFINITY, f64::min)
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{} via [", self.src, self.dst)?;
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeKind, PodId, RackId};
    use crate::GBPS;

    fn line_topo() -> (Topology, HostId, HostId) {
        let mut t = Topology::new();
        let sw = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let h0 = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let h1 = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let a = t.register_host(h0, RackId(0), PodId(0));
        let b = t.register_host(h1, RackId(0), PodId(0));
        t.set_rack_edge(RackId(0), sw);
        t.add_duplex_link(h0, sw, GBPS);
        t.add_duplex_link(h1, sw, 2.0 * GBPS);
        t.freeze();
        (t, a, b)
    }

    #[test]
    fn validate_accepts_real_path() {
        let (t, a, b) = line_topo();
        let p = &t.shortest_paths(a, b)[0];
        assert!(p.validate(&t));
    }

    #[test]
    fn validate_rejects_disconnected() {
        let (t, a, b) = line_topo();
        let real = &t.shortest_paths(a, b)[0];
        // Reverse the link order: no longer connected.
        let links: Vec<LinkId> = real.links().iter().rev().copied().collect();
        let bogus = Path::new(a, b, links);
        assert!(!bogus.validate(&t));
    }

    #[test]
    fn validate_rejects_wrong_endpoints() {
        let (t, a, b) = line_topo();
        let real = t.shortest_paths(a, b)[0].clone();
        let swapped = Path::new(b, a, real.links().to_vec());
        assert!(!swapped.validate(&t));
    }

    #[test]
    fn empty_path_is_same_host_only() {
        let (t, a, b) = line_topo();
        assert!(Path::new(a, a, vec![]).validate(&t));
        assert!(!Path::new(a, b, vec![]).validate(&t));
    }

    #[test]
    fn min_capacity_is_bottleneck() {
        let (t, a, b) = line_topo();
        let p = &t.shortest_paths(a, b)[0];
        // host a uplink is 1 Gbps, host b downlink is 2 Gbps.
        assert_eq!(p.min_capacity(&t), GBPS);
    }

    #[test]
    fn shares_link_with_detects_overlap() {
        let (t, a, b) = line_topo();
        let p = t.shortest_paths(a, b)[0].clone();
        let q = p.clone();
        assert!(p.shares_link_with(&q));
        let disjoint = Path::new(a, b, vec![]);
        assert!(!p.shares_link_with(&disjoint));
    }

    #[test]
    fn display_is_informative() {
        let (t, a, b) = line_topo();
        let p = &t.shortest_paths(a, b)[0];
        let s = p.to_string();
        assert!(s.contains("h0"));
        assert!(s.contains("via"));
    }
}
