//! The exploration driver: budgeted schedule search, counterexample
//! minimization, and telemetry.

use mayflower_simcore::FifoSchedule;
use mayflower_telemetry::{Counter, Registry};
use std::sync::Arc;

use crate::scenario::{Scenario, ScheduleOutcome};
use crate::shrink::{shrink, ShrinkRun};
use crate::strategy::{
    render_decisions, Chooser, Decision, DecisionList, RandomWalk, RoundRobinPerturb,
};

/// Which family of schedules to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The single FIFO schedule (the baseline every other run of the
    /// repo uses) — one run, no perturbation.
    Fifo,
    /// Seeded random walks; schedule `i` uses `seed + i`.
    RandomWalk,
    /// Bounded round-robin perturbations; schedule `i` uses shift `i`.
    RoundRobin,
    /// Bounded-exhaustive depth-first enumeration of the whole
    /// same-timestamp interleaving space, up to the budget.
    Exhaustive,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::Fifo => write!(f, "fifo"),
            StrategyKind::RandomWalk => write!(f, "random-walk"),
            StrategyKind::RoundRobin => write!(f, "round-robin"),
            StrategyKind::Exhaustive => write!(f, "exhaustive"),
        }
    }
}

/// Exploration budget: the maximum number of schedules to execute
/// (shrinking runs are not counted against it).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum schedules to run.
    pub max_schedules: usize,
}

impl Budget {
    /// A budget of `n` schedules.
    #[must_use]
    pub fn schedules(n: usize) -> Budget {
        Budget { max_schedules: n }
    }
}

/// A minimized failing schedule, with everything needed to reproduce
/// it byte-for-byte.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Scenario name (includes the mutant label).
    pub scenario: String,
    /// Strategy description, e.g. `random-walk seed=7`.
    pub strategy: String,
    /// The seed of the failing schedule, when the strategy is seeded.
    pub seed: Option<u64>,
    /// The minimized decision list; replaying it reproduces the run.
    pub decisions: DecisionList,
    /// The oracle's violation message.
    pub violation: String,
    /// The failing run's history trace.
    pub trace: String,
}

impl Counterexample {
    /// Renders the counterexample in its stable printed form. Two
    /// reproductions of the same minimized schedule render
    /// byte-identically.
    #[must_use]
    pub fn render(&self) -> String {
        let seed = self.seed.map_or_else(|| "-".to_string(), |s| s.to_string());
        format!(
            "mcheck counterexample\n  scenario: {}\n  strategy: {}\n  seed: {}\n  \
             decisions: {}\n  violation: {}\n  trace:\n{}",
            self.scenario,
            self.strategy,
            seed,
            render_decisions(&self.decisions),
            self.violation,
            self.trace
        )
    }
}

/// The result of one exploration.
#[derive(Debug)]
pub struct CheckReport {
    /// Schedules executed during exploration (excludes shrinking).
    pub explored: usize,
    /// For [`StrategyKind::Exhaustive`]: whether the whole space fit
    /// inside the budget.
    pub exhausted: bool,
    /// The first violation found, minimized — `None` if every explored
    /// schedule passed.
    pub counterexample: Option<Counterexample>,
}

struct Metrics {
    schedules: Arc<Counter>,
    violations: Arc<Counter>,
}

/// Drives scenarios through schedule strategies, checks oracles,
/// minimizes failures.
pub struct Explorer {
    metrics: Metrics,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with a private telemetry registry.
    #[must_use]
    pub fn new() -> Explorer {
        let registry = Registry::new();
        let scope = registry.scope("mcheck");
        Explorer {
            metrics: Metrics {
                schedules: scope.counter("schedules_explored_total"),
                violations: scope.counter("violations_total"),
            },
        }
    }

    /// Schedules executed so far (exploration, shrinking and
    /// reproduction all count).
    #[must_use]
    pub fn schedules_explored(&self) -> u64 {
        self.metrics.schedules.get()
    }

    /// Violating runs observed so far.
    #[must_use]
    pub fn violations_seen(&self) -> u64 {
        self.metrics.violations.get()
    }

    fn run_once(&self, scenario: &dyn Scenario, chooser: &mut Chooser) -> ScheduleOutcome {
        let out = scenario.run(chooser);
        self.metrics.schedules.inc();
        if out.verdict.is_err() {
            self.metrics.violations.inc();
        }
        out
    }

    /// Explores up to `budget` schedules of `scenario` under `kind`,
    /// returning the first violation minimized to a reproducible
    /// counterexample.
    pub fn check(
        &self,
        scenario: &dyn Scenario,
        kind: StrategyKind,
        seed: u64,
        budget: Budget,
    ) -> CheckReport {
        if kind == StrategyKind::Exhaustive {
            return self.enumerate(scenario, budget);
        }
        let mut explored = 0usize;
        for i in 0..budget.max_schedules {
            let (mut chooser, strategy, run_seed) = match kind {
                StrategyKind::Fifo => (
                    Chooser::recording(Box::new(FifoSchedule)),
                    "fifo".to_string(),
                    None,
                ),
                StrategyKind::RandomWalk => {
                    let s = seed.wrapping_add(i as u64);
                    (
                        Chooser::recording(Box::new(RandomWalk::new(s))),
                        format!("random-walk seed={s}"),
                        Some(s),
                    )
                }
                StrategyKind::RoundRobin => (
                    Chooser::recording(Box::new(RoundRobinPerturb::new(i))),
                    format!("round-robin shift={i}"),
                    None,
                ),
                StrategyKind::Exhaustive => unreachable!("handled above"),
            };
            let out = self.run_once(scenario, &mut chooser);
            explored += 1;
            if out.verdict.is_err() {
                let cx = self.minimize(scenario, chooser.into_decisions(), strategy, run_seed);
                return CheckReport {
                    explored,
                    exhausted: false,
                    counterexample: Some(cx),
                };
            }
            if kind == StrategyKind::Fifo {
                break; // there is exactly one FIFO schedule
            }
        }
        CheckReport {
            explored,
            exhausted: false,
            counterexample: None,
        }
    }

    /// Depth-first bounded-exhaustive enumeration: replay a decision
    /// prefix, record the FIFO extension, then backtrack at the last
    /// decision point with an untried alternative.
    fn enumerate(&self, scenario: &dyn Scenario, budget: Budget) -> CheckReport {
        let mut prefix: Vec<u32> = Vec::new();
        let mut explored = 0usize;
        loop {
            if explored >= budget.max_schedules {
                return CheckReport {
                    explored,
                    exhausted: false,
                    counterexample: None,
                };
            }
            let mut chooser = Chooser::replay_indices(&prefix);
            let out = self.run_once(scenario, &mut chooser);
            explored += 1;
            let log = chooser.into_decisions();
            if out.verdict.is_err() {
                let cx = self.minimize(scenario, log, "exhaustive".to_string(), None);
                return CheckReport {
                    explored,
                    exhausted: false,
                    counterexample: Some(cx),
                };
            }
            // Backtrack: bump the deepest decision with room left.
            let Some(j) = (0..log.len())
                .rev()
                .find(|&j| log[j].chosen + 1 < log[j].ready)
            else {
                return CheckReport {
                    explored,
                    exhausted: true,
                    counterexample: None,
                };
            };
            prefix = log[..j].iter().map(|d| d.chosen).collect();
            prefix.push(log[j].chosen + 1);
        }
    }

    /// Replays a decision list, returning the outcome and canonical
    /// log.
    pub fn reproduce(
        &self,
        scenario: &dyn Scenario,
        decisions: &[Decision],
    ) -> (ScheduleOutcome, DecisionList) {
        let mut chooser = Chooser::replay(decisions);
        let out = self.run_once(scenario, &mut chooser);
        (out, chooser.into_decisions())
    }

    fn minimize(
        &self,
        scenario: &dyn Scenario,
        failing: DecisionList,
        strategy: String,
        seed: Option<u64>,
    ) -> Counterexample {
        let minimized = shrink(failing, |cand| {
            let (out, decisions) = self.reproduce(scenario, cand);
            ShrinkRun {
                failed: out.verdict.is_err(),
                decisions,
            }
        });
        let (out, decisions) = self.reproduce(scenario, &minimized);
        let violation = out
            .verdict
            .err()
            .unwrap_or_else(|| "violation did not reproduce on replay".to_string());
        Counterexample {
            scenario: scenario.name(),
            strategy,
            seed,
            decisions,
            violation,
            trace: out.trace,
        }
    }
}
