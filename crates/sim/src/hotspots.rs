//! Per-tier congestion analysis: *where* each scheme's hotspots form.
//!
//! The paper explains its results by congestion location: with
//! rack-heavy clients, "the edge link of the primary replica becomes
//! congested. Moreover, the dynamic network load balancing cannot help
//! in this case as the congestion location is at the edge of the data
//! source" (§6.3); with core-heavy clients the most-oversubscribed
//! core tier dominates (§6.4). This module measures those claims:
//! after replaying a workload it reports, per link tier, the average
//! utilization and the hottest single link.

use std::collections::HashMap;
use std::sync::Arc;

use mayflower_net::{NodeKind, Topology, TreeParams};
use mayflower_simcore::SimRng;
use mayflower_workload::{LocalityDist, TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{remote_durations, replay_full, NoHooks, ReplayOptions};
use crate::figures::Effort;
use crate::stats::mean;
use crate::strategy::Strategy;

/// A link tier in the 3-tier tree, by the endpoints' roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Host ↔ edge switch.
    Edge,
    /// Edge switch ↔ aggregation switch.
    Aggregation,
    /// Aggregation switch ↔ core switch.
    Core,
}

impl Tier {
    /// Classifies a directed link by its endpoints.
    #[must_use]
    pub fn of(topo: &Topology, link: mayflower_net::LinkId) -> Tier {
        let l = topo.link(link);
        let kinds = (topo.node(l.src()).kind(), topo.node(l.dst()).kind());
        match kinds {
            (NodeKind::Host, _) | (_, NodeKind::Host) => Tier::Edge,
            (NodeKind::CoreSwitch, _) | (_, NodeKind::CoreSwitch) => Tier::Core,
            _ => Tier::Aggregation,
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tier::Edge => "edge",
            Tier::Aggregation => "aggregation",
            Tier::Core => "core",
        }
    }
}

/// Utilization of one tier over a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TierStats {
    /// The tier.
    pub tier: Tier,
    /// Mean utilization across the tier's links (fraction of
    /// capacity × makespan actually carried).
    pub mean_utilization: f64,
    /// Utilization of the single hottest link.
    pub max_utilization: f64,
}

/// One (strategy, locality) row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotspotRow {
    /// Scheme.
    pub strategy: Strategy,
    /// Locality label.
    pub locality: String,
    /// Stats per tier, edge → aggregation → core.
    pub tiers: Vec<TierStats>,
    /// Mean job completion, for context.
    pub mean_secs: f64,
}

/// The full analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotspotReport {
    /// All rows.
    pub rows: Vec<HotspotRow>,
}

/// Runs the analysis for rack-heavy and core-heavy localities across
/// Mayflower and Nearest ECMP.
#[must_use]
pub fn hotspot_report(effort: Effort, seed: u64) -> HotspotReport {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let (jobs, files) = match effort {
        Effort::Quick => (150, 80),
        Effort::Full => (500, 250),
    };
    let localities = [
        ("rack-heavy (0.5,0.3,0.2)", LocalityDist::rack_heavy()),
        ("core-heavy (0.2,0.3,0.5)", LocalityDist::core_heavy()),
    ];
    let mut rows = Vec::new();
    for (label, locality) in localities {
        let params = WorkloadParams {
            job_count: jobs,
            file_count: files,
            locality,
            ..WorkloadParams::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        for strategy in [Strategy::Mayflower, Strategy::NearestEcmp] {
            let mut run_rng = rng.clone();
            let opts = ReplayOptions::default();
            let out = replay_full(&topo, &matrix, strategy, &opts, &mut run_rng, &mut NoHooks);
            let (records, usage) = (out.jobs, out.link_bits);
            let makespan = records
                .iter()
                .map(|r| r.finish.as_secs())
                .fold(0.0f64, f64::max)
                .max(f64::MIN_POSITIVE);
            let mut per_tier: HashMap<Tier, Vec<f64>> = HashMap::new();
            for link in topo.links() {
                let carried = usage.get(&link.id()).copied().unwrap_or(0.0);
                let util = carried / (link.capacity() * makespan);
                per_tier
                    .entry(Tier::of(&topo, link.id()))
                    .or_default()
                    .push(util);
            }
            let tiers = [Tier::Edge, Tier::Aggregation, Tier::Core]
                .into_iter()
                .map(|tier| {
                    let utils = per_tier.remove(&tier).unwrap_or_default();
                    TierStats {
                        tier,
                        mean_utilization: mean(&utils),
                        max_utilization: utils.iter().copied().fold(0.0f64, f64::max),
                    }
                })
                .collect();
            let remote = remote_durations(&records);
            rows.push(HotspotRow {
                strategy,
                locality: label.to_string(),
                tiers,
                mean_secs: mean(&remote),
            });
        }
    }
    HotspotReport { rows }
}

/// Renders the report.
#[must_use]
pub fn render_hotspots(report: &HotspotReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Hotspot analysis — per-tier link utilization over the run (λ=0.07)"
    );
    let _ = writeln!(
        out,
        "{:<26} {:<22} {:>9} | {:>10} {:>10} {:>10}",
        "locality", "scheme", "avg (s)", "edge", "agg", "core"
    );
    for r in &report.rows {
        let fmt_tier = |i: usize| {
            format!(
                "{:>4.0}%/{:<3.0}%",
                r.tiers[i].mean_utilization * 100.0,
                r.tiers[i].max_utilization * 100.0
            )
        };
        let _ = writeln!(
            out,
            "{:<26} {:<22} {:>9.3} | {:>10} {:>10} {:>10}",
            r.locality,
            r.strategy.label(),
            r.mean_secs,
            fmt_tier(0),
            fmt_tier(1),
            fmt_tier(2),
        );
    }
    let _ = writeln!(out, "(cells are mean%/hottest-link% of tier capacity)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::HostId;

    #[test]
    fn tier_classification() {
        let topo = Topology::three_tier(&TreeParams::paper_testbed());
        let up = topo.host_uplink(HostId(0));
        assert_eq!(Tier::of(&topo, up), Tier::Edge);
        let rack = topo.rack_of(HostId(0));
        for l in topo.edge_uplinks(rack) {
            assert_eq!(Tier::of(&topo, l), Tier::Aggregation);
        }
        // Some link touches the core.
        let has_core = topo
            .links()
            .iter()
            .any(|l| Tier::of(&topo, l.id()) == Tier::Core);
        assert!(has_core);
    }

    #[test]
    fn nearest_concentrates_edge_hotspots_under_rack_heavy_locality() {
        let report = hotspot_report(Effort::Quick, 23);
        let row = |s: Strategy, loc: &str| {
            report
                .rows
                .iter()
                .find(|r| r.strategy == s && r.locality.starts_with(loc))
                .expect("row present")
        };
        // §6.3: Nearest's pathology is a saturated *edge* link.
        let nearest = row(Strategy::NearestEcmp, "rack-heavy");
        let mayflower = row(Strategy::Mayflower, "rack-heavy");
        assert!(
            nearest.tiers[0].max_utilization > mayflower.tiers[0].max_utilization * 0.99,
            "Nearest should have the hotter edge link: {} vs {}",
            nearest.tiers[0].max_utilization,
            mayflower.tiers[0].max_utilization
        );
        // And Mayflower completes faster.
        assert!(mayflower.mean_secs < nearest.mean_secs);
    }
}
