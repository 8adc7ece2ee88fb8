//! Ablation study of the Flowserver's design choices.
//!
//! The paper makes three design arguments without isolating them
//! experimentally; this module does the isolation:
//!
//! 1. **Impact-aware cost** (§4, Eq. 2's second term): "minimizing
//!    average request completion time requires accounting for both the
//!    expected completion time of the pending request, and the expected
//!    increase in completion time of other in-flight requests. ... we
//!    show in our evaluation that this is critically important."
//!    Variant: greedy own-bandwidth maximization.
//! 2. **Update-freeze** (Pseudocode 2): "a flow's recently updated
//!    bandwidth state can be overwritten too soon in the next flow
//!    stats collection cycle. This will invalidate the previous
//!    estimates and lead to incorrect calculations." Variant: polls
//!    always overwrite the model.
//! 3. **Poll interval** (§3.3.3): tracking add/drop requests between
//!    polls "reduces the need to poll the switches at very short
//!    intervals". Variant: sweep the interval and watch how gracefully
//!    accuracy degrades.

use std::sync::Arc;

use mayflower_flowserver::FlowserverConfig;
use mayflower_net::{Topology, TreeParams};
use mayflower_simcore::SimRng;
use mayflower_workload::{LocalityDist, TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{remote_durations, replay_full, NoHooks, ReplayOptions};
use crate::figures::Effort;
use crate::stats::Summary;
use crate::strategy::Strategy;

/// One ablation variant's result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Variant label.
    pub variant: String,
    /// Completion-time summary over remote jobs, seconds.
    pub summary: Summary,
}

/// The complete ablation data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// Design-choice variants (full, greedy, no-freeze, both-off).
    pub variants: Vec<AblationPoint>,
    /// Poll-interval sweep: `(interval_secs, summary)`.
    pub poll_sweep: Vec<(f64, Summary)>,
}

fn run_variant(
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
    opts: &ReplayOptions,
    seed: u64,
) -> Summary {
    let mut rng = SimRng::seed_from(seed);
    let records = replay_full(
        topo,
        matrix,
        Strategy::Mayflower,
        opts,
        &mut rng,
        &mut NoHooks,
    )
    .jobs;
    Summary::of(&remote_durations(&records))
}

/// Runs the full ablation on the rack-heavy workload at a load high
/// enough (λ = 0.10) for estimation quality to matter.
#[must_use]
pub fn ablation(effort: Effort, seed: u64) -> Ablation {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let params = WorkloadParams {
        locality: LocalityDist::rack_heavy(),
        lambda_per_server: 0.10,
        job_count: match effort {
            Effort::Quick => 150,
            Effort::Full => 600,
        },
        file_count: match effort {
            Effort::Quick => 80,
            Effort::Full => 300,
        },
        ..WorkloadParams::default()
    };
    let mut rng = SimRng::seed_from(seed);
    let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);

    let configs: [(&str, FlowserverConfig); 4] = [
        ("Mayflower (full)", FlowserverConfig::default()),
        (
            "greedy (no impact term)",
            FlowserverConfig {
                impact_aware: false,
                ..FlowserverConfig::default()
            },
        ),
        (
            "no update-freeze",
            FlowserverConfig {
                freeze_enabled: false,
                ..FlowserverConfig::default()
            },
        ),
        (
            "greedy + no freeze",
            FlowserverConfig {
                impact_aware: false,
                freeze_enabled: false,
                ..FlowserverConfig::default()
            },
        ),
    ];
    let variants = configs
        .into_iter()
        .map(|(label, fs)| {
            let opts = ReplayOptions {
                flowserver: fs,
                ..ReplayOptions::default()
            };
            AblationPoint {
                variant: label.to_string(),
                summary: run_variant(&topo, &matrix, &opts, seed),
            }
        })
        .collect();

    let poll_sweep = [0.25, 0.5, 1.0, 2.0, 5.0]
        .into_iter()
        .map(|interval| {
            let opts = ReplayOptions {
                poll_interval_secs: interval,
                ..ReplayOptions::default()
            };
            (interval, run_variant(&topo, &matrix, &opts, seed))
        })
        .collect();

    Ablation {
        variants,
        poll_sweep,
    }
}

/// Renders the ablation as text tables.
#[must_use]
pub fn render_ablation(abl: &Ablation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — Flowserver design choices (λ=0.10, locality 0.5/0.3/0.2)"
    );
    let _ = writeln!(out, "{:<26} {:>9} {:>9}", "variant", "avg (s)", "p95 (s)");
    for v in &abl.variants {
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} {:>9.3}",
            v.variant, v.summary.mean, v.summary.p95
        );
    }
    let _ = writeln!(out, "\npoll-interval sensitivity (full Mayflower):");
    let _ = writeln!(out, "{:<12} {:>9} {:>9}", "interval", "avg (s)", "p95 (s)");
    for (i, s) in &abl.poll_sweep {
        let _ = writeln!(
            out,
            "{:<12} {:>9.3} {:>9.3}",
            format!("{i} s"),
            s.mean,
            s.p95
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_design_is_never_worse_than_fully_ablated() {
        let abl = ablation(Effort::Quick, 21);
        assert_eq!(abl.variants.len(), 4);
        let full = abl.variants[0].summary.mean;
        let both_off = abl.variants[3].summary.mean;
        assert!(
            full <= both_off * 1.02,
            "full {full} vs both-off {both_off}"
        );
    }

    #[test]
    fn poll_sweep_covers_the_grid() {
        let abl = ablation(Effort::Quick, 21);
        assert_eq!(abl.poll_sweep.len(), 5);
        for (_, s) in &abl.poll_sweep {
            assert!(s.mean > 0.0);
        }
    }

    #[test]
    fn render_mentions_every_variant() {
        let abl = ablation(Effort::Quick, 9);
        let text = render_ablation(&abl);
        for v in &abl.variants {
            assert!(text.contains(&v.variant));
        }
        assert!(text.contains("poll-interval"));
    }
}
