//! Command-line front end for the schedule-exploration model checker.
//!
//! ```text
//! mcheck --scenario data-strong --strategy random-walk --seed 7 --budget 500
//! mcheck --scenario freeze --mutant freeze-expiry-before-poll --strategy exhaustive
//! ```
//!
//! Exits 0 when every explored schedule satisfies its oracle, 1 with a
//! rendered, byte-reproducible counterexample otherwise, 2 on usage
//! errors. `ci.sh` drives this binary for the opt-in `MCHECK_BUDGET`
//! long-fuzz mode; the fixed-seed mutant smoke gate lives in the
//! crate's `mutants` integration test.

use mayflower_mcheck::{
    Budget, DataScenario, Explorer, FreezeScenario, Mutant, NsMetaScenario, Scenario,
    ShardHandoffScenario, StrategyKind,
};

struct Args {
    scenario: String,
    mutant: Mutant,
    strategy: StrategyKind,
    seed: u64,
    budget: usize,
}

const USAGE: &str = "usage: mcheck [--scenario ns|data|data-strong|data-repair|freeze|shard] \
    [--mutant none|wal-torn-tail|stale-last-chunk-read|unlocked-append|relay-at-own-end|freeze-expiry-before-poll|serve-stale-after-handoff] \
    [--strategy fifo|random-walk|round-robin|exhaustive] [--seed N] [--budget N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "ns".to_string(),
        mutant: Mutant::None,
        strategy: StrategyKind::RandomWalk,
        seed: 1,
        budget: 100,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario")?,
            "--mutant" => {
                args.mutant = match value("--mutant")?.as_str() {
                    "none" => Mutant::None,
                    "wal-torn-tail" => Mutant::WalTornTail,
                    "stale-last-chunk-read" => Mutant::StaleLastChunkRead,
                    "unlocked-append" => Mutant::UnlockedAppend,
                    "relay-at-own-end" => Mutant::RelayAtOwnEnd,
                    "freeze-expiry-before-poll" => Mutant::FreezeExpiryBeforePoll,
                    "serve-stale-after-handoff" => Mutant::ServeStaleAfterHandoff,
                    other => return Err(format!("unknown mutant {other:?}")),
                }
            }
            "--strategy" => {
                args.strategy = match value("--strategy")?.as_str() {
                    "fifo" => StrategyKind::Fifo,
                    "random-walk" => StrategyKind::RandomWalk,
                    "round-robin" => StrategyKind::RoundRobin,
                    "exhaustive" => StrategyKind::Exhaustive,
                    other => return Err(format!("unknown strategy {other:?}")),
                }
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--budget" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn build_scenario(args: &Args) -> Result<Box<dyn Scenario>, String> {
    Ok(match args.scenario.as_str() {
        "ns" => Box::new(NsMetaScenario::new(1).with_mutant(args.mutant)),
        "data" => Box::new(DataScenario::new(false).with_mutant(args.mutant)),
        "data-strong" => Box::new(DataScenario::new(true).with_mutant(args.mutant)),
        "data-repair" => Box::new(
            DataScenario::new(true)
                .with_mutant(args.mutant)
                .with_repair_race(),
        ),
        "freeze" => Box::new(FreezeScenario::new().with_mutant(args.mutant)),
        "shard" => Box::new(ShardHandoffScenario::new().with_mutant(args.mutant)),
        other => return Err(format!("unknown scenario {other:?}")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcheck: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scenario = match build_scenario(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mcheck: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let explorer = Explorer::new();
    let report = explorer.check(
        &*scenario,
        args.strategy,
        args.seed,
        Budget::schedules(args.budget),
    );
    println!(
        "mcheck: scenario={} strategy={} seed={} explored={}{} runs={} violations={}",
        scenario.name(),
        args.strategy,
        args.seed,
        report.explored,
        if report.exhausted { " (exhausted)" } else { "" },
        explorer.schedules_explored(),
        explorer.violations_seen(),
    );
    match report.counterexample {
        None => println!("mcheck: no violation found"),
        Some(cx) => {
            println!("{}", cx.render());
            std::process::exit(1);
        }
    }
}
