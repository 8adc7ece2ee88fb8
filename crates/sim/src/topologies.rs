//! Topology-sensitivity experiment: how much of the co-design benefit
//! survives on a full-bisection network?
//!
//! The paper's premise is oversubscription: "with oversubscribed
//! network architectures and high-performance SSDs ... it is becoming
//! increasingly common for the datacenter network to be the
//! performance bottleneck" (§1), while acknowledging full-bisection
//! designs exist and help (§2.2 cites the fat-tree, VL2, BCube). This
//! experiment runs the same per-server workload on the paper's 8:1
//! oversubscribed tree, the same tree at 1:1 (no oversubscription),
//! and a k=8 fat-tree, and reports Mayflower's reduction over Nearest
//! ECMP on each — the expectation being that the co-design matters
//! most where the paper says it does.

use std::sync::Arc;

use mayflower_net::{FatTreeParams, Topology, TreeParams, GBPS};
use mayflower_simcore::SimRng;
use mayflower_workload::{LocalityDist, TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{remote_durations, replay};
use crate::figures::Effort;
use crate::stats::Summary;
use crate::strategy::Strategy;

/// One (topology, strategy) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyPoint {
    /// Topology label.
    pub topology: String,
    /// Client locality label.
    pub locality: String,
    /// Hosts in the topology.
    pub hosts: usize,
    /// Scheme.
    pub strategy: Strategy,
    /// Completion summary, seconds.
    pub summary: Summary,
}

/// The full comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyComparison {
    /// All measurements.
    pub points: Vec<TopologyPoint>,
}

/// Runs the comparison.
#[must_use]
pub fn topology_comparison(effort: Effort, seed: u64) -> TopologyComparison {
    let topologies: Vec<(String, Arc<Topology>)> = vec![
        (
            "tree 8:1 (paper)".to_string(),
            Arc::new(Topology::three_tier(&TreeParams::paper_testbed())),
        ),
        (
            "tree 1:1".to_string(),
            Arc::new(Topology::three_tier(&TreeParams {
                oversubscription: 1.0,
                edge_tier_oversub: 1.0,
                ..TreeParams::paper_testbed()
            })),
        ),
        (
            "fat-tree k=8".to_string(),
            Arc::new(Topology::fat_tree(&FatTreeParams {
                k: 8,
                link_capacity: GBPS,
            })),
        ),
    ];
    let jobs_per_host = match effort {
        Effort::Quick => 2,
        Effort::Full => 8,
    };
    let localities = [
        ("rack-heavy", LocalityDist::rack_heavy()),
        ("core-heavy", LocalityDist::core_heavy()),
    ];
    let mut points = Vec::new();
    for (label, topo) in topologies {
        for (loc_label, locality) in localities {
            let params = WorkloadParams {
                job_count: topo.host_count() * jobs_per_host,
                file_count: (topo.host_count() * 2).max(80),
                locality,
                ..WorkloadParams::default()
            };
            let mut rng = SimRng::seed_from(seed);
            let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
            for strategy in [Strategy::Mayflower, Strategy::NearestEcmp] {
                let mut run_rng = rng.clone();
                let records = replay(&topo, &matrix, strategy, 1.0, &mut run_rng);
                let remote = remote_durations(&records);
                points.push(TopologyPoint {
                    topology: label.clone(),
                    locality: loc_label.to_string(),
                    hosts: topo.host_count(),
                    strategy,
                    summary: Summary::of(&remote),
                });
            }
        }
    }
    TopologyComparison { points }
}

/// Renders the comparison with per-topology reduction.
#[must_use]
pub fn render_topologies(cmp: &TopologyComparison) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Topology sensitivity — Mayflower's benefit vs available bisection (λ=0.07)"
    );
    let _ = writeln!(
        out,
        "{:<18} {:<12} {:>6} {:<22} {:>9} {:>9}",
        "topology", "locality", "hosts", "scheme", "avg (s)", "p95 (s)"
    );
    for p in &cmp.points {
        let _ = writeln!(
            out,
            "{:<18} {:<12} {:>6} {:<22} {:>9.3} {:>9.3}",
            p.topology,
            p.locality,
            p.hosts,
            p.strategy.label(),
            p.summary.mean,
            p.summary.p95
        );
    }
    let mut combos: Vec<(&str, &str)> = cmp
        .points
        .iter()
        .map(|p| (p.topology.as_str(), p.locality.as_str()))
        .collect();
    combos.dedup();
    for (label, loc) in combos {
        let mean = |s: Strategy| {
            cmp.points
                .iter()
                .find(|p| p.topology == label && p.locality == loc && p.strategy == s)
                .map(|p| p.summary.mean)
                .unwrap_or(f64::NAN)
        };
        let red = 1.0 - mean(Strategy::Mayflower) / mean(Strategy::NearestEcmp);
        let _ = writeln!(
            out,
            "{label} / {loc}: co-design reduction {:.0}%",
            red * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_design_helps_on_every_fabric() {
        let cmp = topology_comparison(Effort::Quick, 41);
        let reduction = |label: &str, loc: &str| {
            let mean = |s: Strategy| {
                cmp.points
                    .iter()
                    .find(|p| p.topology.starts_with(label) && p.locality == loc && p.strategy == s)
                    .map(|p| p.summary.mean)
                    .expect("point present")
            };
            1.0 - mean(Strategy::Mayflower) / mean(Strategy::NearestEcmp)
        };
        // Rack-heavy: the hotspot is the replica's NIC, which no
        // fabric fixes — the benefit must persist even at full
        // bisection.
        assert!(reduction("tree 8:1", "rack-heavy") > 0.10);
        assert!(reduction("fat-tree", "rack-heavy") > 0.10);
        // Core-heavy on the oversubscribed tree: the fabric matters
        // too, and the co-design still wins.
        assert!(reduction("tree 8:1", "core-heavy") > 0.0);
    }
}
