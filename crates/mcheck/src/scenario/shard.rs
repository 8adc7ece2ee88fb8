//! Sharded-metadata handoff scenario: concurrent namespace operations
//! racing a live shard migration, checked by the Wing–Gong
//! linearizability oracle.
//!
//! Two logical clients run fixed scripts of create/record-size/lookup/
//! delete against a **real** two-shard [`ShardedNameserver`], each
//! through its own [`ShardRouter`] with an effectively infinite lease —
//! so the routers' cached maps go stale the moment the migration
//! client's flip lands, and correctness rests entirely on the plane's
//! epoch/ownership fences. A third (non-history) migration client
//! drives [`Handoff`] phase by phase — begin, bulk copy, flip, gc — so
//! the scheduler chooses where every metadata operation lands relative
//! to the handoff.
//!
//! The file names are picked deterministically so the grown ring
//! re-homes some of them onto the joining shard: those are exactly the
//! keys the handoff must not lose, duplicate, or serve stale.
//!
//! The real protocol is linearizable by construction (every fenced
//! operation re-checks epoch and ownership under the same lock the
//! flip takes). The [`Mutant::ServeStaleAfterHandoff`] variant
//! disables both fences at flip time — the classic resharding bug
//! where an old owner keeps answering for a moved key — so once gc
//! reclaims the source copies, a stale router observes a spurious
//! not-found (or a frozen size) with no linearization point.

use std::sync::Arc;

use mayflower_shard::{Handoff, ShardMap, ShardPlaneConfig, ShardRouter, ShardedNameserver};
use mayflower_simcore::{EventQueue, SimTime};
use mayflower_telemetry::Registry;

use crate::history::{CallId, History};
use crate::lin::{check_linearizable, MetaOp, MetaRet};
use crate::scenario::{exec, small_topology, Mutant, RunDir, Scenario, ScheduleOutcome};
use crate::strategy::Chooser;

/// The shard-handoff scenario.
#[derive(Debug, Clone)]
pub struct ShardHandoffScenario {
    /// Which protocol variant to run.
    pub mutant: Mutant,
}

impl Default for ShardHandoffScenario {
    fn default() -> ShardHandoffScenario {
        ShardHandoffScenario::new()
    }
}

impl ShardHandoffScenario {
    /// The real protocol.
    #[must_use]
    pub fn new() -> ShardHandoffScenario {
        ShardHandoffScenario {
            mutant: Mutant::None,
        }
    }

    /// A mutated variant.
    #[must_use]
    pub fn with_mutant(mut self, mutant: Mutant) -> ShardHandoffScenario {
        self.mutant = mutant;
        self
    }
}

const VNODES: u32 = 8;

/// Deterministically picks script names: two that the 2→3 shard growth
/// re-homes onto the joiner, one that stays put.
fn pick_names() -> (String, String, String) {
    let old = ShardMap::initial(2, VNODES);
    let grown = old.with_shard_added(old.next_shard_id());
    let (old_ring, new_ring) = (old.ring(), grown.ring());
    let mut moving = Vec::new();
    let mut stable = None;
    for i in 0.. {
        let name = format!("h/f{i}");
        if new_ring.owner(&name) == old_ring.owner(&name) {
            stable.get_or_insert(name);
        } else {
            moving.push(name);
        }
        if moving.len() >= 2 && stable.is_some() {
            break;
        }
    }
    let m1 = moving.pop().expect("two moving names");
    let m0 = moving.pop().expect("two moving names");
    (m0, m1, stable.expect("a stable name"))
}

fn scripts() -> Vec<Vec<MetaOp>> {
    let (m0, m1, s0) = pick_names();
    vec![
        vec![
            MetaOp::Create(m0.clone()),
            MetaOp::RecordSize {
                name: m0.clone(),
                size: 10,
            },
            MetaOp::Lookup(m0.clone()),
            MetaOp::Lookup(m0.clone()),
        ],
        vec![
            MetaOp::Create(m1.clone()),
            MetaOp::Lookup(s0.clone()),
            MetaOp::Delete(m1.clone()),
            MetaOp::Lookup(m1),
            MetaOp::Create(s0.clone()),
            MetaOp::Lookup(m0),
        ],
    ]
}

/// One event: advance client `usize` by one phase. The last index is
/// the migration client.
type Ev = usize;

/// Migration phases, in order: begin, bulk copy (all batches), flip,
/// gc.
const MIGRATION_PHASES: usize = 4;

impl Scenario for ShardHandoffScenario {
    fn name(&self) -> String {
        format!("shard-handoff mutant={}", self.mutant.label())
    }

    fn run(&self, chooser: &mut Chooser) -> ScheduleOutcome {
        let dir = RunDir::new("shard");
        let registry = Registry::new();
        let plane = Arc::new(
            ShardedNameserver::open(
                dir.path(),
                small_topology(),
                ShardPlaneConfig {
                    shards: 2,
                    vnodes: VNODES,
                    ..ShardPlaneConfig::default()
                },
                &registry,
            )
            .expect("open sharded plane"),
        );

        let scripts = scripts();
        let routers: Vec<ShardRouter> = (0..scripts.len())
            .map(|_| {
                let r = ShardRouter::new(plane.clone(), &registry.scope("shard_router"));
                // An effectively infinite lease: the routers refresh
                // only when the plane's fences force them to, which is
                // exactly the window the checker explores. (It also
                // keeps runs independent of wall-clock time.)
                r.set_lease(std::time::Duration::from_secs(1 << 30));
                r
            })
            .collect();

        let mut cursors = vec![0usize; scripts.len()];
        let mut in_flight: Vec<Option<CallId>> = vec![None; scripts.len()];
        let mut history: History<MetaOp, MetaRet> = History::new();

        let migration_client = scripts.len();
        let mut migration_phase = 0usize;
        let mut handoff: Option<Handoff<'_>> = None;
        let grown = {
            let map = plane.shard_map();
            map.with_shard_added(map.next_shard_id())
        };

        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (c, script) in scripts.iter().enumerate() {
            if !script.is_empty() {
                queue.schedule(SimTime::ZERO, c);
            }
        }
        queue.schedule(SimTime::ZERO, migration_client);

        while let Some((_, c)) = queue.pop_with(chooser) {
            if c == migration_client {
                match migration_phase {
                    0 => {
                        handoff =
                            Some(Handoff::begin(&plane, grown.clone(), 2).expect("begin handoff"));
                    }
                    1 => {
                        let h = handoff.as_mut().expect("handoff begun");
                        while h.remaining() > 0 {
                            h.copy_batch().expect("bulk copy");
                        }
                    }
                    2 => {
                        if self.mutant == Mutant::ServeStaleAfterHandoff {
                            plane.inject_serve_stale_after_handoff(true);
                        }
                        handoff
                            .as_mut()
                            .expect("handoff begun")
                            .flip()
                            .expect("flip");
                    }
                    3 => {
                        handoff.as_mut().expect("handoff begun").gc().expect("gc");
                    }
                    _ => unreachable!("migration has {MIGRATION_PHASES} phases"),
                }
                migration_phase += 1;
                if migration_phase < MIGRATION_PHASES {
                    queue.schedule(SimTime::ZERO, migration_client);
                }
                continue;
            }
            let op = scripts[c][cursors[c]].clone();
            match in_flight[c].take() {
                None => {
                    // Phase 1: invoke — opens the concurrency window.
                    in_flight[c] = Some(history.invoke(c as u32, op));
                    queue.schedule(SimTime::ZERO, c);
                }
                Some(call) => {
                    // Phase 2: the real routed call, plus the response
                    // record.
                    let ret = exec(&routers[c], &op);
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
    fn picked_names_actually_move() {
        let (m0, m1, s0) = pick_names();
        let old = ShardMap::initial(2, VNODES);
        let grown = old.with_shard_added(old.next_shard_id());
        assert_ne!(old.ring().owner(&m0), grown.ring().owner(&m0));
        assert_ne!(old.ring().owner(&m1), grown.ring().owner(&m1));
        assert_eq!(old.ring().owner(&s0), grown.ring().owner(&s0));
    }

    #[test]
    fn real_protocol_is_linearizable_under_fifo() {
        let s = ShardHandoffScenario::new();
        let mut chooser = Chooser::recording(Box::new(FifoSchedule));
        let out = s.run(&mut chooser);
        assert!(out.verdict.is_ok(), "{:?}", out.verdict);
        assert!(!chooser.decisions().is_empty(), "ready sets did overlap");
    }

    #[test]
    fn real_protocol_survives_random_walks() {
        let s = ShardHandoffScenario::new();
        let explorer = Explorer::new();
        let report = explorer.check(&s, StrategyKind::RandomWalk, 0x51AD, Budget::schedules(16));
        assert!(
            report.counterexample.is_none(),
            "{}",
            report.counterexample.unwrap().render()
        );
        assert_eq!(report.explored, 16);
    }

    #[test]
    fn serve_stale_mutant_is_caught_and_minimized() {
        let s = ShardHandoffScenario::new().with_mutant(Mutant::ServeStaleAfterHandoff);
        let explorer = Explorer::new();
        let report = explorer.check(&s, StrategyKind::RandomWalk, 1, Budget::schedules(80));
        let cx = report.counterexample.expect("mutant must be caught");
        assert!(
            cx.violation.contains("not linearizable"),
            "{}",
            cx.violation
        );
        let (again, decisions) = explorer.reproduce(&s, &cx.decisions);
        assert_eq!(again.verdict.unwrap_err(), cx.violation);
        assert_eq!(again.trace, cx.trace);
        assert_eq!(decisions, cx.decisions);
    }
}
