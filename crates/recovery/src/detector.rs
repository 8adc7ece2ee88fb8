//! Heartbeat failure detection with sim-time deadlines.
//!
//! Every dataserver host has a record of its last heartbeat. A host
//! that misses heartbeats long enough becomes **suspect** (reads may
//! start avoiding it, but no repair is triggered — transient stalls
//! must not cause re-replication storms), and after a longer silence
//! is confirmed **dead**, at which point the under-replication
//! tracker starts counting its replicas as lost. A heartbeat from a
//! suspect or dead host restores it to live in one transition —
//! fail-stop dataservers restart with their data intact, so no
//! re-sync is needed.

use std::collections::BTreeMap;
use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_simcore::SimTime;
use mayflower_telemetry::{Counter, Scope};
use serde::{Deserialize, Serialize};

/// The detector's verdict on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Heartbeats arriving within the suspicion deadline.
    Live,
    /// Silent past the suspicion deadline, not yet confirmed dead.
    Suspect,
    /// Silent past the confirmation deadline: replicas on this host
    /// count as lost and repair may begin.
    Dead,
}

impl HealthState {
    /// Short stable label used in reports and metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Live => "live",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
        }
    }
}

/// Detector timing knobs, all in simulated seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// How often hosts are expected to heartbeat.
    pub heartbeat_interval_secs: f64,
    /// Silence after which a host becomes [`HealthState::Suspect`].
    pub suspect_after_secs: f64,
    /// Silence after which a host is confirmed [`HealthState::Dead`].
    pub dead_after_secs: f64,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            heartbeat_interval_secs: 1.0,
            suspect_after_secs: 2.5,
            dead_after_secs: 5.0,
        }
    }
}

/// One observed state change, recorded in the recovery report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateTransition {
    /// When the detector observed the change.
    pub at: SimTime,
    /// The affected host.
    pub host: HostId,
    /// The state left behind.
    pub from: HealthState,
    /// The state entered.
    pub to: HealthState,
}

#[derive(Debug)]
struct HostRecord {
    last_heartbeat: SimTime,
    state: HealthState,
}

/// Per-state transition counters.
#[derive(Debug)]
struct DetectorMetrics {
    to_live: Arc<Counter>,
    to_suspect: Arc<Counter>,
    to_dead: Arc<Counter>,
}

impl DetectorMetrics {
    fn new(scope: &Scope) -> DetectorMetrics {
        DetectorMetrics {
            to_live: scope.counter_with("transitions_total", &[("to", "live")]),
            to_suspect: scope.counter_with("transitions_total", &[("to", "suspect")]),
            to_dead: scope.counter_with("transitions_total", &[("to", "dead")]),
        }
    }
}

/// The heartbeat registry: sim-time deadlines turn silence into
/// suspicion and then confirmation, deterministically (hosts are
/// visited in host order).
#[derive(Debug)]
pub struct FailureDetector {
    records: BTreeMap<HostId, HostRecord>,
    config: DetectorConfig,
    metrics: Option<DetectorMetrics>,
}

impl FailureDetector {
    /// Creates a detector tracking `hosts`, all initially live with a
    /// heartbeat at time zero.
    #[must_use]
    pub fn new(hosts: impl IntoIterator<Item = HostId>, config: DetectorConfig) -> FailureDetector {
        let records = hosts
            .into_iter()
            .map(|h| {
                (
                    h,
                    HostRecord {
                        last_heartbeat: SimTime::ZERO,
                        state: HealthState::Live,
                    },
                )
            })
            .collect();
        FailureDetector {
            records,
            config,
            metrics: None,
        }
    }

    /// Attaches telemetry: `transitions_total{to=…}` counters. All
    /// recorded values derive from sim time, keeping snapshots
    /// deterministic.
    pub fn attach_metrics(&mut self, scope: &Scope) {
        self.metrics = Some(DetectorMetrics::new(scope));
    }

    /// The timing configuration in effect.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Records a heartbeat from `host`. Returns the transition if the
    /// host was suspect or dead and is now restored to live.
    pub fn heartbeat(&mut self, host: HostId, now: SimTime) -> Option<StateTransition> {
        let rec = self.records.get_mut(&host)?;
        rec.last_heartbeat = rec.last_heartbeat.max(now);
        if rec.state == HealthState::Live {
            return None;
        }
        let t = StateTransition {
            at: now,
            host,
            from: rec.state,
            to: HealthState::Live,
        };
        rec.state = HealthState::Live;
        self.note_transition(&t);
        Some(t)
    }

    /// Advances the deadlines: every host silent past
    /// `suspect_after_secs` becomes suspect, past `dead_after_secs`
    /// dead. Returns the transitions observed this tick, in host
    /// order (deterministic).
    pub fn tick(&mut self, now: SimTime) -> Vec<StateTransition> {
        let mut out = Vec::new();
        let suspect_after = self.config.suspect_after_secs;
        let dead_after = self.config.dead_after_secs;
        for (host, rec) in &mut self.records {
            let silence = now.secs_since(rec.last_heartbeat);
            let target = if silence >= dead_after {
                HealthState::Dead
            } else if silence >= suspect_after {
                HealthState::Suspect
            } else {
                HealthState::Live
            };
            // Deadlines only ever worsen a verdict; recovery happens
            // through heartbeats alone.
            let worse = matches!(
                (rec.state, target),
                (HealthState::Live, HealthState::Suspect | HealthState::Dead)
                    | (HealthState::Suspect, HealthState::Dead)
            );
            if worse {
                out.push(StateTransition {
                    at: now,
                    host: *host,
                    from: rec.state,
                    to: target,
                });
                rec.state = target;
            }
        }
        for t in &out {
            self.note_transition(t);
        }
        out
    }

    /// The current verdict on `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not tracked.
    #[must_use]
    pub fn state(&self, host: HostId) -> HealthState {
        self.records
            .get(&host)
            .expect("host is tracked by the detector")
            .state
    }

    /// Whether `host` is currently considered live (suspect hosts
    /// still count as live for replica accounting — only confirmation
    /// triggers repair).
    #[must_use]
    pub fn is_live(&self, host: HostId) -> bool {
        self.state(host) != HealthState::Dead
    }

    /// All hosts currently in `state`, in host order.
    #[must_use]
    pub fn in_state(&self, state: HealthState) -> Vec<HostId> {
        self.records
            .iter()
            .filter(|(_, r)| r.state == state)
            .map(|(h, _)| *h)
            .collect()
    }

    /// All hosts not confirmed dead (live + suspect), in host order —
    /// the eligible pool for repair sources and destinations.
    #[must_use]
    pub fn usable_hosts(&self) -> Vec<HostId> {
        self.records
            .iter()
            .filter(|(_, r)| r.state != HealthState::Dead)
            .map(|(h, _)| *h)
            .collect()
    }

    fn note_transition(&self, t: &StateTransition) {
        let Some(m) = &self.metrics else { return };
        match t.to {
            HealthState::Live => m.to_live.inc(),
            HealthState::Suspect => m.to_suspect.inc(),
            HealthState::Dead => m.to_dead.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(n: u32) -> FailureDetector {
        FailureDetector::new((0..n).map(HostId), DetectorConfig::default())
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn silence_escalates_live_suspect_dead() {
        let mut d = detector(3);
        d.heartbeat(HostId(0), t(0.0));
        d.heartbeat(HostId(1), t(0.0));
        d.heartbeat(HostId(2), t(0.0));
        assert!(d.tick(t(1.0)).is_empty());

        // Host 2 goes silent; 0 and 1 keep beating.
        for step in 1..=6 {
            let now = t(step as f64);
            d.heartbeat(HostId(0), now);
            d.heartbeat(HostId(1), now);
            let trans = d.tick(now);
            match step {
                3 => {
                    assert_eq!(trans.len(), 1);
                    assert_eq!(trans[0].host, HostId(2));
                    assert_eq!(trans[0].to, HealthState::Suspect);
                }
                5 => {
                    assert_eq!(trans.len(), 1);
                    assert_eq!(trans[0].from, HealthState::Suspect);
                    assert_eq!(trans[0].to, HealthState::Dead);
                }
                _ => assert!(trans.is_empty(), "step {step}: {trans:?}"),
            }
        }
        assert_eq!(d.state(HostId(2)), HealthState::Dead);
        assert!(!d.is_live(HostId(2)));
        assert_eq!(d.in_state(HealthState::Live), vec![HostId(0), HostId(1)]);
        assert_eq!(d.usable_hosts(), vec![HostId(0), HostId(1)]);
    }

    #[test]
    fn heartbeat_restores_in_one_transition() {
        let mut d = detector(1);
        d.tick(t(10.0));
        assert_eq!(d.state(HostId(0)), HealthState::Dead);
        let back = d.heartbeat(HostId(0), t(11.0)).unwrap();
        assert_eq!(back.from, HealthState::Dead);
        assert_eq!(back.to, HealthState::Live);
        assert_eq!(d.state(HostId(0)), HealthState::Live);
        // A live host's heartbeat is not a transition.
        assert!(d.heartbeat(HostId(0), t(12.0)).is_none());
    }

    #[test]
    fn long_silence_jumps_straight_to_dead() {
        let mut d = detector(1);
        let trans = d.tick(t(100.0));
        assert_eq!(trans.len(), 1);
        assert_eq!(trans[0].from, HealthState::Live);
        assert_eq!(trans[0].to, HealthState::Dead);
    }

    #[test]
    fn metrics_track_transitions() {
        let reg = mayflower_telemetry::Registry::new();
        let mut d = detector(2);
        d.attach_metrics(&reg.scope("recovery").scope("detector"));
        d.heartbeat(HostId(0), t(4.0));
        d.tick(t(6.0)); // host 1 silent for 6s -> dead
        d.heartbeat(HostId(1), t(7.0));
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("recovery_detector_transitions_total{to=\"dead\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("recovery_detector_transitions_total{to=\"live\"}"),
            Some(1)
        );
    }

    #[test]
    fn transitions_serialize_round_trip() {
        let tr = StateTransition {
            at: t(3.5),
            host: HostId(7),
            from: HealthState::Live,
            to: HealthState::Suspect,
        };
        let json = serde_json::to_string(&tr).unwrap();
        let back: StateTransition = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tr);
        assert_eq!(HealthState::Dead.label(), "dead");
    }

    #[test]
    fn unknown_host_heartbeat_is_ignored() {
        let mut d = detector(1);
        assert!(d.heartbeat(HostId(99), t(1.0)).is_none());
    }
}
