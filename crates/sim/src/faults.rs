//! Fault-schedule compilation and the degraded-mode run report.
//!
//! The schedule types ([`FaultSchedule`], [`FaultEvent`],
//! [`FaultScheduleParams`]) live in `mayflower_simcore` and carry raw
//! `u32` component ids so they stay topology-agnostic (and trivially
//! generatable by property tests). This module **compiles** a schedule
//! against a concrete [`Topology`]: every raw id is mapped modulo the
//! relevant component count, so any schedule is valid for any
//! topology, and the same (schedule, topology) pair always compiles to
//! the same concrete [`FaultAction`]s.
//!
//! The engine consumes compiled actions and records every degraded-
//! mode decision in a [`FaultReport`]; the report is plain data with
//! deterministic ordering, so a seeded run serializes byte-identically
//! every time — the property `tests/determinism.rs` locks in.

use std::sync::Arc;

use mayflower_net::{HostId, LinkId, NodeKind, Topology};
use mayflower_simcore::SimTime;
pub use mayflower_simcore::{FaultEvent, FaultSchedule, FaultScheduleParams};
use serde::{Deserialize, Serialize};

/// A schedule entry resolved against a concrete topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Sever a cable: the directed link and its reverse go to zero
    /// capacity.
    LinkDown(LinkId),
    /// Heal the cable.
    LinkUp(LinkId),
    /// An edge or aggregation switch dies: every adjacent directed
    /// link (both directions) is severed and the flows crossing them
    /// are aborted. Polls keep reading the other flows' counters; only
    /// [`FaultAction::StatsPollLoss`] loses a poll.
    SwitchDown(Vec<LinkId>),
    /// The switch comes back.
    SwitchUp(Vec<LinkId>),
    /// The dataserver on a host crashes (fail-stop).
    DataserverCrash(HostId),
    /// The crashed dataserver restarts with its data intact.
    DataserverRestart(HostId),
    /// The Flowserver becomes unreachable: polls are lost and clients
    /// fall back to nearest-replica selection.
    FlowserverDown,
    /// The Flowserver is reachable again.
    FlowserverUp,
    /// One stats poll is lost in the network (no counters arrive).
    StatsPollLoss,
}

impl FaultAction {
    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultAction::LinkDown(_) => "link-down",
            FaultAction::LinkUp(_) => "link-up",
            FaultAction::SwitchDown(_) => "switch-down",
            FaultAction::SwitchUp(_) => "switch-up",
            FaultAction::DataserverCrash(_) => "dataserver-crash",
            FaultAction::DataserverRestart(_) => "dataserver-restart",
            FaultAction::FlowserverDown => "flowserver-down",
            FaultAction::FlowserverUp => "flowserver-up",
            FaultAction::StatsPollLoss => "stats-poll-loss",
        }
    }
}

/// Resolves every schedule entry against `topo`. Raw ids are taken
/// modulo the component count (links for link faults, edge+agg
/// switches for switch faults, hosts for dataserver faults), so the
/// result is total: no schedule is ever invalid for a topology.
#[must_use]
pub fn compile(topo: &Arc<Topology>, schedule: &FaultSchedule) -> Vec<(SimTime, FaultAction)> {
    let n_links = topo.links().len() as u32;
    let switches: Vec<_> = topo
        .nodes()
        .iter()
        .filter(|n| matches!(n.kind(), NodeKind::EdgeSwitch | NodeKind::AggSwitch))
        .map(|n| n.id())
        .collect();
    let n_hosts = topo.hosts().len() as u32;

    let switch_links = |raw: u32| -> Vec<LinkId> {
        let node = switches[(raw as usize) % switches.len()];
        let mut links = Vec::new();
        for l in topo.out_links(node) {
            links.push(*l);
            links.push(topo.reverse_link(*l));
        }
        links.sort_unstable();
        links.dedup();
        links
    };

    schedule
        .entries()
        .iter()
        .map(|(at, ev)| {
            let action = match ev {
                FaultEvent::LinkDown(raw) => FaultAction::LinkDown(LinkId(raw % n_links)),
                FaultEvent::LinkUp(raw) => FaultAction::LinkUp(LinkId(raw % n_links)),
                FaultEvent::SwitchDown(raw) => FaultAction::SwitchDown(switch_links(*raw)),
                FaultEvent::SwitchUp(raw) => FaultAction::SwitchUp(switch_links(*raw)),
                FaultEvent::DataserverCrash(raw) => {
                    FaultAction::DataserverCrash(HostId(raw % n_hosts))
                }
                FaultEvent::DataserverRestart(raw) => {
                    FaultAction::DataserverRestart(HostId(raw % n_hosts))
                }
                FaultEvent::FlowserverDown => FaultAction::FlowserverDown,
                FaultEvent::FlowserverUp => FaultAction::FlowserverUp,
                FaultEvent::StatsPollLoss => FaultAction::StatsPollLoss,
            };
            (*at, action)
        })
        .collect()
}

/// One fault the engine applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppliedFault {
    /// When it was applied.
    pub at: SimTime,
    /// [`FaultAction::label`] of the action.
    pub kind: String,
    /// Affected component (raw id of the link/host; `u32::MAX` when
    /// the action has no single component, e.g. a Flowserver outage).
    pub component: u32,
}

/// One in-flight transfer aborted by a fault; the job retries the
/// un-delivered remainder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowAbort {
    /// When the abort happened.
    pub at: SimTime,
    /// The job whose subflow was aborted.
    pub job: usize,
    /// Bits that were in flight and must be re-fetched.
    pub bits_refetched: f64,
}

/// One retry the client scheduled after an abort or a failed
/// selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRetry {
    /// When the retry fires.
    pub at: SimTime,
    /// The retried job.
    pub job: usize,
    /// 1-based attempt counter.
    pub attempt: u32,
}

/// One selection made in degraded mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedDecision {
    /// When the decision was made.
    pub at: SimTime,
    /// The affected job.
    pub job: usize,
    /// Why the normal path was not taken (fixed vocabulary:
    /// `flowserver-outage-nearest-fallback`, `selection-unavailable`,
    /// `replicas-down`, `local-replica-down`, `ecmp-rerouted`).
    pub reason: String,
    /// The replica chosen in degraded mode (`u32::MAX` when none —
    /// the job went back to the retry queue).
    pub replica: u32,
}

/// One stats poll that never reached the Flowserver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissedPoll {
    /// The poll instant.
    pub at: SimTime,
    /// Why it was lost (`flowserver-outage` or `stats-poll-loss`).
    pub reason: String,
    /// Update-freezes that had expired by this instant and were
    /// cleared clock-side because no UPDATEBW could arrive.
    pub freezes_expired: usize,
}

/// Everything the engine did because of faults, in deterministic
/// order: same seed + same schedule ⇒ byte-identical report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Faults applied, in schedule order.
    pub applied: Vec<AppliedFault>,
    /// Subflow aborts, in event order.
    pub aborts: Vec<FlowAbort>,
    /// Retries scheduled, in event order.
    pub retries: Vec<JobRetry>,
    /// Degraded-mode selections, in event order.
    pub degraded: Vec<DegradedDecision>,
    /// Polls lost to outages or drops, in event order.
    pub missed_polls: Vec<MissedPoll>,
}

impl FaultReport {
    /// Whether no fault ever touched the run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.applied.is_empty()
            && self.aborts.is_empty()
            && self.retries.is_empty()
            && self.degraded.is_empty()
            && self.missed_polls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::TreeParams;
    use mayflower_simcore::SimRng;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::three_tier(&TreeParams::paper_testbed()))
    }

    #[test]
    fn compile_is_total_and_deterministic() {
        let topo = topo();
        let mut rng = SimRng::seed_from(77);
        let schedule = FaultSchedule::generate(&FaultScheduleParams::default(), &mut rng);
        let a = compile(&topo, &schedule);
        let b = compile(&topo, &schedule);
        assert_eq!(a.len(), schedule.len());
        assert_eq!(a, b);
        let n_links = topo.links().len() as u32;
        for (_, action) in &a {
            match action {
                FaultAction::LinkDown(l) | FaultAction::LinkUp(l) => {
                    assert!(l.0 < n_links);
                }
                FaultAction::SwitchDown(links) | FaultAction::SwitchUp(links) => {
                    assert!(!links.is_empty());
                    // Both directions of every adjacent cable.
                    for l in links {
                        assert!(links.contains(&topo.reverse_link(*l)));
                    }
                }
                FaultAction::DataserverCrash(h) | FaultAction::DataserverRestart(h) => {
                    assert!(h.0 < topo.hosts().len() as u32);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn compile_pairs_failures_with_recoveries() {
        let topo = topo();
        let mut schedule = FaultSchedule::default();
        schedule.push(SimTime::from_secs(1.0), FaultEvent::SwitchDown(1_000_003));
        schedule.push(SimTime::from_secs(2.0), FaultEvent::SwitchUp(1_000_003));
        let actions = compile(&topo, &schedule);
        // Same raw id ⇒ same switch ⇒ identical link sets.
        let (FaultAction::SwitchDown(down), FaultAction::SwitchUp(up)) =
            (&actions[0].1, &actions[1].1)
        else {
            panic!("expected switch pair, got {actions:?}");
        };
        assert_eq!(down, up);
    }

    #[test]
    fn report_serde_roundtrip_is_exact() {
        let report = FaultReport {
            applied: vec![AppliedFault {
                at: SimTime::from_secs(1.5),
                kind: "link-down".into(),
                component: 7,
            }],
            aborts: vec![FlowAbort {
                at: SimTime::from_secs(1.5),
                job: 3,
                bits_refetched: 1.25e9,
            }],
            retries: vec![JobRetry {
                at: SimTime::from_secs(1.75),
                job: 3,
                attempt: 1,
            }],
            degraded: vec![DegradedDecision {
                at: SimTime::from_secs(1.75),
                job: 3,
                reason: "selection-unavailable".into(),
                replica: u32::MAX,
            }],
            missed_polls: vec![MissedPoll {
                at: SimTime::from_secs(2.0),
                reason: "stats-poll-loss".into(),
                freezes_expired: 1,
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FaultReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(!report.is_empty());
        assert!(FaultReport::default().is_empty());
    }
}
