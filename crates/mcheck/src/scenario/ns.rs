//! Nameserver metadata scenario: concurrent namespace operations with
//! crash-recovery points, checked by the Wing–Gong linearizability
//! oracle.
//!
//! Three logical clients run fixed operation scripts against one
//! **real** [`Nameserver`] (backed by the real [`mayflower_kvstore`]
//! WAL on disk); a fourth fault client injects a configured number of
//! nameserver crash-reopen points. Every
//! operation is two events at the same timestamp — *invoke* (recorded
//! in the history, widening the concurrency window) and *execute*
//! (the real call, response recorded) — so the scheduler's choices
//! decide which operations overlap and where the crash lands.
//!
//! The real protocol is linearizable by construction (each nameserver
//! call takes effect atomically inside its invocation window, and the
//! KV store's recovery replays the complete WAL). The
//! [`Mutant::WalTornTail`] variant truncates the last *valid* WAL
//! record at each crash — the classic over-eager torn-tail scan — so
//! a committed update silently vanishes and some later observation
//! has no linearization point.

use mayflower_fs::{Nameserver, NameserverConfig};
use mayflower_simcore::{EventQueue, SimTime};

use crate::history::{CallId, History};
use crate::lin::{check_linearizable, MetaOp, MetaRet};
use crate::scenario::{exec, small_topology, Mutant, RunDir, Scenario, ScheduleOutcome};
use crate::strategy::Chooser;

/// The nameserver metadata scenario.
#[derive(Debug, Clone)]
pub struct NsMetaScenario {
    /// Which protocol variant to run.
    pub mutant: Mutant,
    /// How many crash-reopen points the fault client injects.
    pub crashes: usize,
}

impl NsMetaScenario {
    /// The real protocol with `crashes` crash points.
    #[must_use]
    pub fn new(crashes: usize) -> NsMetaScenario {
        NsMetaScenario {
            mutant: Mutant::None,
            crashes,
        }
    }

    /// A mutated variant.
    #[must_use]
    pub fn with_mutant(mut self, mutant: Mutant) -> NsMetaScenario {
        self.mutant = mutant;
        self
    }

    fn scripts(&self) -> Vec<Vec<MetaOp>> {
        let mut scripts = vec![
            vec![
                MetaOp::Create("a".into()),
                MetaOp::RecordSize {
                    name: "a".into(),
                    size: 10,
                },
                MetaOp::Rename {
                    from: "a".into(),
                    to: "b".into(),
                },
                MetaOp::Lookup("b".into()),
            ],
            vec![
                MetaOp::Create("b".into()),
                MetaOp::Lookup("a".into()),
                MetaOp::Delete("b".into()),
                MetaOp::Lookup("b".into()),
            ],
            vec![
                MetaOp::Create("c".into()),
                MetaOp::RecordSize {
                    name: "c".into(),
                    size: 5,
                },
                MetaOp::Lookup("c".into()),
            ],
        ];
        if self.crashes > 0 {
            scripts.push(vec![MetaOp::Crash; self.crashes]);
        }
        scripts
    }
}

/// Truncates the last **valid** record of the KV store's WAL — the
/// over-truncation torn-tail mutant. (The real replay truncates only
/// *invalid* tails; dropping a valid record loses a committed update.)
fn drop_last_wal_record(db_dir: &std::path::Path) {
    let wal = db_dir.join("wal.log");
    let Ok(bytes) = std::fs::read(&wal) else {
        return;
    };
    let mut pos = 0usize;
    let mut last_start = None;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]) as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        last_start = Some(pos);
        pos = end;
    }
    if let Some(start) = last_start {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .expect("reopen wal for truncation");
        f.set_len(start as u64).expect("truncate wal");
    }
}

/// One event: advance client `usize` by one phase.
type Ev = usize;

impl Scenario for NsMetaScenario {
    fn name(&self) -> String {
        format!(
            "ns-meta crashes={} mutant={}",
            self.crashes,
            self.mutant.label()
        )
    }

    fn run(&self, chooser: &mut Chooser) -> ScheduleOutcome {
        let dir = RunDir::new("ns");
        let db_dir = dir.path().join("db");
        let topo = small_topology();
        let config = NameserverConfig::default();
        let mut ns =
            Some(Nameserver::open(topo.clone(), &db_dir, config.clone()).expect("open nameserver"));

        let scripts = self.scripts();
        let mut cursors = vec![0usize; scripts.len()];
        let mut in_flight: Vec<Option<CallId>> = vec![None; scripts.len()];
        let mut history: History<MetaOp, MetaRet> = History::new();

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (c, script) in scripts.iter().enumerate() {
            if !script.is_empty() {
                queue.schedule(SimTime::ZERO, c);
            }
        }
        while let Some((_, c)) = queue.pop_with(chooser) {
            let op = scripts[c][cursors[c]].clone();
            match in_flight[c].take() {
                None => {
                    // Phase 1: invoke — opens the concurrency window.
                    in_flight[c] = Some(history.invoke(c as u32, op));
                    queue.schedule(SimTime::ZERO, c);
                }
                Some(call) => {
                    // Phase 2: the real call, atomically, plus the
                    // response record.
                    let ret = if matches!(op, MetaOp::Crash) {
                        drop(ns.take());
                        if self.mutant == Mutant::WalTornTail {
                            drop_last_wal_record(&db_dir);
                        }
                        ns = Some(
                            Nameserver::open(topo.clone(), &db_dir, config.clone())
                                .expect("reopen nameserver after crash"),
                        );
                        MetaRet::Recovered
                    } else {
                        exec(ns.as_ref().expect("nameserver is open"), &op)
                    };
                    history.respond(call, ret);
                    cursors[c] += 1;
                    if cursors[c] < scripts[c].len() {
                        queue.schedule(SimTime::ZERO, c);
                    }
                }
            }
        }

        ScheduleOutcome {
            verdict: check_linearizable(&history),
            trace: history.trace(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Budget, Explorer, StrategyKind};
    use mayflower_simcore::FifoSchedule;

    #[test]
    fn real_protocol_is_linearizable_under_fifo() {
        let s = NsMetaScenario::new(1);
        let mut chooser = Chooser::recording(Box::new(FifoSchedule));
        let out = s.run(&mut chooser);
        assert!(out.verdict.is_ok(), "{:?}", out.verdict);
        assert!(!chooser.decisions().is_empty(), "ready sets did overlap");
    }

    #[test]
    fn real_protocol_survives_random_walks() {
        let s = NsMetaScenario::new(2);
        let explorer = Explorer::new();
        let report = explorer.check(&s, StrategyKind::RandomWalk, 0x4E53, Budget::schedules(12));
        assert!(report.counterexample.is_none());
        assert_eq!(report.explored, 12);
    }

    #[test]
    fn torn_tail_mutant_is_caught_and_minimized() {
        let s = NsMetaScenario::new(1).with_mutant(Mutant::WalTornTail);
        let explorer = Explorer::new();
        let report = explorer.check(&s, StrategyKind::RandomWalk, 1, Budget::schedules(40));
        let cx = report.counterexample.expect("mutant must be caught");
        assert!(
            cx.violation.contains("not linearizable"),
            "{}",
            cx.violation
        );
        // Replaying the minimized schedule reproduces it byte-for-byte.
        let (again, decisions) = explorer.reproduce(&s, &cx.decisions);
        assert_eq!(again.verdict.unwrap_err(), cx.violation);
        assert_eq!(again.trace, cx.trace);
        assert_eq!(decisions, cx.decisions);
    }
}
