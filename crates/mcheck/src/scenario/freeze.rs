//! Update-freeze scenario: the real [`FlowTracker`] raced against an
//! independent re-implementation of Pseudocode 2.
//!
//! One controller admits two flows and issues a `SETBW` that freezes
//! flow 1 until **exactly** t = 2.0 s; a stats poller and the
//! freeze-expiry sweep then both fire at t = 2.0, 3.0 and 5.0. Within
//! each timestamp the scheduler decides whether the poll or the sweep
//! runs first — the boundary race Pseudocode 2's freeze window exists
//! to win: with the real strict `now > freeze_until` expiry, a poll
//! landing exactly on the boundary is refused in *either* order, so
//! the frozen estimate survives; with the mutant's `now >=` sweep, the
//! sweep-before-poll order clears the freeze a tick early and the poll
//! clobbers the estimate the controller just installed.
//!
//! After every event the tracker's bandwidth estimates are compared
//! against the naive model's. The interleaving space is tiny (16
//! schedules), which makes this the bounded-exhaustive demonstration:
//! FIFO happens to run every poll before its sweep and never sees the
//! mutant misbehave — only exploration finds the failing order.

use mayflower_flowserver::{FlowTracker, TrackedFlow};
use mayflower_net::{HostId, LinkId, Path};
use mayflower_sdn::FlowCookie;
use mayflower_simcore::{EventQueue, SimTime};

use crate::history::History;
use crate::scenario::{Mutant, Scenario, ScheduleOutcome};
use crate::strategy::Chooser;

const F1: FlowCookie = FlowCookie(1);
const F2: FlowCookie = FlowCookie(2);

/// The update-freeze boundary-race scenario.
#[derive(Debug, Clone)]
pub struct FreezeScenario {
    /// Which protocol variant to run.
    pub mutant: Mutant,
}

impl FreezeScenario {
    /// The real protocol.
    #[must_use]
    pub fn new() -> FreezeScenario {
        FreezeScenario {
            mutant: Mutant::None,
        }
    }

    /// A mutated variant.
    #[must_use]
    pub fn with_mutant(mut self, mutant: Mutant) -> FreezeScenario {
        self.mutant = mutant;
        self
    }
}

impl Default for FreezeScenario {
    fn default() -> FreezeScenario {
        FreezeScenario::new()
    }
}

/// One scripted tracker event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Admit a flow with an initial estimate.
    Admit {
        cookie: FlowCookie,
        bw: f64,
        size: f64,
    },
    /// Controller `SETBW` (freezes the flow).
    SetBw { cookie: FlowCookie, bw: f64 },
    /// Stats poll for both flows (measured values from a fixed table).
    Poll,
    /// The clock-side freeze-expiry sweep.
    Sweep,
}

/// Measured (bw, total_bits) per flow for the poll at `now`.
fn poll_table(now: SimTime) -> [(f64, f64); 2] {
    let t = now.secs_since(SimTime::ZERO);
    if t < 2.5 {
        [(1.5e9, 1.0e9), (2.5e9, 4.0e9)]
    } else if t < 4.0 {
        [(1.2e9, 1.4e9), (2.2e9, 6.0e9)]
    } else {
        [(0.8e9, 1.8e9), (1.8e9, 7.5e9)]
    }
}

/// An independent, deliberately naive implementation of Pseudocode 2 —
/// the oracle the real tracker is compared against.
#[derive(Debug, Clone, Copy, Default)]
struct ModelFlow {
    size: f64,
    remaining: f64,
    bw: f64,
    updated_at: f64,
    frozen: bool,
    freeze_until: f64,
}

impl ModelFlow {
    fn admit(bw: f64, size: f64) -> ModelFlow {
        ModelFlow {
            size,
            remaining: size,
            bw,
            ..ModelFlow::default()
        }
    }

    fn set_bw(&mut self, bw: f64, now: f64) {
        self.remaining = (self.remaining - self.bw * (now - self.updated_at)).max(0.0);
        self.updated_at = now;
        self.bw = bw;
        self.freeze_until = now + self.remaining / bw;
        self.frozen = true;
    }

    fn poll(&mut self, measured_bw: f64, total: f64, now: f64) {
        if self.frozen && now <= self.freeze_until {
            return; // Pseudocode 2: the freeze window wins
        }
        self.bw = measured_bw;
        self.remaining = (self.size - total).max(0.0);
        self.updated_at = now;
        self.frozen = false;
    }

    fn sweep(&mut self, now: f64) {
        if self.frozen && now > self.freeze_until {
            self.frozen = false;
        }
    }
}

fn mbps(bw: f64) -> u64 {
    (bw / 1e6).round() as u64
}

impl Scenario for FreezeScenario {
    fn name(&self) -> String {
        format!("update-freeze mutant={}", self.mutant.label())
    }

    fn run(&self, chooser: &mut Chooser) -> ScheduleOutcome {
        let mut tracker = FlowTracker::new();
        let mut model: [ModelFlow; 2] = [ModelFlow::default(); 2];
        let mut history: History<String, String> = History::new();
        let mut violation: Option<String> = None;

        let mut queue: EventQueue<(u32, Ev)> = EventQueue::new();
        // Controller (client 0): admits at t=0, SETBW at t=1 so flow 1's
        // freeze expires at exactly t = 2.0 (remaining 1e9 bits / 1e9
        // bits per sec).
        queue.schedule(
            SimTime::ZERO,
            (
                0,
                Ev::Admit {
                    cookie: F1,
                    bw: 1.0e9,
                    size: 2.0e9,
                },
            ),
        );
        queue.schedule(
            SimTime::ZERO,
            (
                0,
                Ev::Admit {
                    cookie: F2,
                    bw: 2.0e9,
                    size: 8.0e9,
                },
            ),
        );
        queue.schedule(
            SimTime::from_secs(1.0),
            (
                0,
                Ev::SetBw {
                    cookie: F1,
                    bw: 1.0e9,
                },
            ),
        );
        // Poller (client 1) and sweeper (client 2) race at each tick.
        for t in [2.0, 3.0, 5.0] {
            queue.schedule(SimTime::from_secs(t), (1, Ev::Poll));
            queue.schedule(SimTime::from_secs(t), (2, Ev::Sweep));
        }

        while let Some((now, (client, ev))) = queue.pop_with(chooser) {
            let t = now.secs_since(SimTime::ZERO);
            let label = match ev {
                Ev::Admit { cookie, bw, size } => {
                    tracker.insert(TrackedFlow {
                        cookie,
                        path: Path::new(HostId(0), HostId(1), vec![LinkId(cookie.0 as u32 - 1)]),
                        size_bits: size,
                        remaining_bits: size,
                        bw,
                        updated_at: now,
                        frozen: false,
                        freeze_until: SimTime::ZERO,
                    });
                    model[cookie.0 as usize - 1] = ModelFlow::admit(bw, size);
                    format!(
                        "admit(f{}, bw={}M, size={}Mb)",
                        cookie.0,
                        mbps(bw),
                        mbps(size)
                    )
                }
                Ev::SetBw { cookie, bw } => {
                    tracker.set_flow_bw(cookie, bw, now);
                    model[cookie.0 as usize - 1].set_bw(bw, t);
                    format!("setbw(f{}, {}M, t={t})", cookie.0, mbps(bw))
                }
                Ev::Poll => {
                    let table = poll_table(now);
                    for (i, cookie) in [F1, F2].into_iter().enumerate() {
                        let (m_bw, total) = table[i];
                        tracker.apply_stats(cookie, m_bw, total, now, false);
                        model[i].poll(m_bw, total, t);
                    }
                    format!("poll(t={t})")
                }
                Ev::Sweep => {
                    if self.mutant == Mutant::FreezeExpiryBeforePoll {
                        // The off-by-one sweep: `>=` where Pseudocode 2
                        // requires strictly after.
                        tracker.unfreeze_where(|f| now >= f.freeze_until);
                    } else {
                        tracker.expire_frozen(now);
                    }
                    for f in &mut model {
                        f.sweep(t);
                    }
                    format!("sweep(t={t})")
                }
            };

            let b1 = tracker.get(F1).map_or(0, |f| mbps(f.bw));
            let b2 = tracker.get(F2).map_or(0, |f| mbps(f.bw));
            let call = history.invoke(client, label.clone());
            history.respond(call, format!("f1.bw={b1}M f2.bw={b2}M"));

            if violation.is_none() {
                for (i, cookie) in [F1, F2].into_iter().enumerate() {
                    let Some(f) = tracker.get(cookie) else {
                        continue;
                    };
                    let want = model[i].bw;
                    if (f.bw - want).abs() > 1e-3 {
                        violation = Some(format!(
                            "frozen estimate diverged after {label}: flow f{} has \
                             bw={}M but Pseudocode 2 requires {}M",
                            cookie.0,
                            mbps(f.bw),
                            mbps(want)
                        ));
                    }
                }
            }
        }

        ScheduleOutcome {
            verdict: violation.map_or(Ok(()), Err),
            trace: history.trace(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Budget, Explorer, StrategyKind};

    #[test]
    fn real_tracker_matches_pseudocode_two_exhaustively() {
        let s = FreezeScenario::new();
        let report = Explorer::new().check(&s, StrategyKind::Exhaustive, 0, Budget::schedules(64));
        assert!(report.exhausted, "16-schedule space fits the budget");
        assert!(
            report.counterexample.is_none(),
            "{}",
            report.counterexample.unwrap().render()
        );
    }

    #[test]
    fn fifo_misses_the_expiry_mutant() {
        // The poll is scheduled before the sweep at each tick, so the
        // FIFO order never exercises the `>=` off-by-one: this is why
        // the checker explores.
        let s = FreezeScenario::new().with_mutant(Mutant::FreezeExpiryBeforePoll);
        let report = Explorer::new().check(&s, StrategyKind::Fifo, 0, Budget::schedules(1));
        assert!(report.counterexample.is_none());
    }

    #[test]
    fn exhaustive_catches_the_expiry_mutant() {
        let s = FreezeScenario::new().with_mutant(Mutant::FreezeExpiryBeforePoll);
        let explorer = Explorer::new();
        let report = explorer.check(&s, StrategyKind::Exhaustive, 0, Budget::schedules(64));
        let cx = report.counterexample.expect("mutant must be caught");
        assert!(cx.violation.contains("diverged"), "{}", cx.violation);
        // The minimized schedule replays byte-for-byte.
        let (again, decisions) = explorer.reproduce(&s, &cx.decisions);
        assert_eq!(again.verdict.unwrap_err(), cx.violation);
        assert_eq!(again.trace, cx.trace);
        assert_eq!(decisions, cx.decisions);
    }
}
