//! Checker validation gate: every deliberately broken protocol variant
//! must be caught within the CI exploration budget, the real protocols
//! must survive the *identical* budget, and a caught counterexample
//! must reproduce byte-for-byte when its minimized schedule is
//! replayed. This is the suite `ci.sh` runs as the mcheck smoke gate.

use mayflower_mcheck::{
    Budget, DataScenario, Explorer, FreezeScenario, Mutant, NsMetaScenario, Scenario,
    ShardHandoffScenario, StrategyKind,
};

/// One smoke-gate case: a scenario family, the budget the mutant must
/// be caught within, and the budget the real variant must survive.
struct Case {
    real: Box<dyn Scenario>,
    mutated: Box<dyn Scenario>,
    kind: StrategyKind,
    seed: u64,
    budget: Budget,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            real: Box::new(NsMetaScenario::new(1)),
            mutated: Box::new(NsMetaScenario::new(1).with_mutant(Mutant::WalTornTail)),
            kind: StrategyKind::RandomWalk,
            seed: 1,
            budget: Budget::schedules(40),
        },
        Case {
            real: Box::new(DataScenario::new(true)),
            mutated: Box::new(DataScenario::new(true).with_mutant(Mutant::StaleLastChunkRead)),
            kind: StrategyKind::RandomWalk,
            seed: 1,
            budget: Budget::schedules(80),
        },
        Case {
            real: Box::new(DataScenario::new(true)),
            mutated: Box::new(DataScenario::new(true).with_mutant(Mutant::UnlockedAppend)),
            kind: StrategyKind::RandomWalk,
            seed: 1,
            budget: Budget::schedules(80),
        },
        Case {
            real: Box::new(DataScenario::new(false).with_repair_race()),
            mutated: Box::new(
                DataScenario::new(false)
                    .with_repair_race()
                    .with_mutant(Mutant::RelayAtOwnEnd),
            ),
            kind: StrategyKind::RandomWalk,
            seed: 1,
            budget: Budget::schedules(80),
        },
        Case {
            real: Box::new(FreezeScenario::new()),
            mutated: Box::new(FreezeScenario::new().with_mutant(Mutant::FreezeExpiryBeforePoll)),
            kind: StrategyKind::Exhaustive,
            seed: 0,
            budget: Budget::schedules(64),
        },
        Case {
            real: Box::new(ShardHandoffScenario::new()),
            mutated: Box::new(
                ShardHandoffScenario::new().with_mutant(Mutant::ServeStaleAfterHandoff),
            ),
            kind: StrategyKind::RandomWalk,
            seed: 1,
            budget: Budget::schedules(80),
        },
    ]
}

#[test]
fn every_mutant_is_caught_within_the_ci_budget() {
    for case in cases() {
        let explorer = Explorer::new();
        let report = explorer.check(&*case.mutated, case.kind, case.seed, case.budget);
        let cx = report.counterexample.unwrap_or_else(|| {
            panic!(
                "mutant not caught: {} under {} (budget {})",
                case.mutated.name(),
                case.kind,
                case.budget.max_schedules
            )
        });
        assert!(
            !cx.violation.is_empty() && !cx.trace.is_empty(),
            "counterexample must carry a violation and a trace"
        );
        assert!(
            explorer.violations_seen() > 0,
            "telemetry must count the violation"
        );
    }
}

#[test]
fn the_real_protocols_survive_the_identical_budget() {
    for case in cases() {
        let explorer = Explorer::new();
        let report = explorer.check(&*case.real, case.kind, case.seed, case.budget);
        if let Some(cx) = report.counterexample {
            panic!("false positive on the real protocol:\n{}", cx.render());
        }
        assert!(
            explorer.schedules_explored() as usize >= report.explored,
            "telemetry counts every schedule"
        );
    }
}

#[test]
fn counterexamples_reproduce_byte_for_byte() {
    for case in cases() {
        let explorer = Explorer::new();
        let report = explorer.check(&*case.mutated, case.kind, case.seed, case.budget);
        let cx = report
            .counterexample
            .unwrap_or_else(|| panic!("mutant not caught: {}", case.mutated.name()));
        // Replay the minimized schedule twice more: same violation,
        // same trace, same canonical decision list — so the rendered
        // counterexample is stable down to the byte.
        for _ in 0..2 {
            let (again, decisions) = explorer.reproduce(&*case.mutated, &cx.decisions);
            assert_eq!(
                again.verdict.expect_err("replay must still violate"),
                cx.violation,
                "violation text differs on replay ({})",
                case.mutated.name()
            );
            assert_eq!(again.trace, cx.trace, "trace differs on replay");
            assert_eq!(decisions, cx.decisions, "decision log differs on replay");
        }
    }
}
