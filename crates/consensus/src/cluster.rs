//! A deterministic in-memory replica group for tests, simulations and
//! fault injection.

use mayflower_simcore::{EventQueue, SimRng, SimTime};

use crate::messages::{Message, ReplicaId, Slot};
use crate::replica::{Outgoing, Replica};

/// Network fault model for the harness.
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Probability each message is silently dropped.
    pub drop_probability: f64,
    /// Probability each delivered message is delivered twice.
    pub duplicate_probability: f64,
}

impl Default for FaultModel {
    fn default() -> FaultModel {
        FaultModel {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

/// A replica group wired through a deterministic message queue.
///
/// Messages are delivered in timestamp order (unit latency per hop,
/// FIFO among equals), optionally dropped or duplicated under a seeded
/// [`FaultModel`] — so every run, including every failure schedule, is
/// reproducible from the seed.
#[derive(Debug)]
pub struct Cluster<V> {
    replicas: Vec<Replica<V>>,
    queue: EventQueue<(ReplicaId, ReplicaId, Message<V>)>,
    now: SimTime,
    rng: SimRng,
    faults: FaultModel,
    /// Crashed nodes neither send nor receive.
    crashed: Vec<bool>,
    delivered: u64,
    dropped: u64,
}

impl<V: Clone + Eq + std::fmt::Debug> Cluster<V> {
    /// Creates a group of `n` replicas with a reliable network.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Cluster<V> {
        Cluster::with_faults(n, seed, FaultModel::default())
    }

    /// Creates a group with the given fault model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_faults(n: usize, seed: u64, faults: FaultModel) -> Cluster<V> {
        assert!(n > 0, "a replica group needs at least one node");
        Cluster {
            replicas: (0..n as u32)
                .map(|i| Replica::new(ReplicaId(i), n))
                .collect(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::seed_from(seed),
            faults,
            crashed: vec![false; n],
            delivered: 0,
            dropped: 0,
        }
    }

    /// Number of replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the group is empty (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Access a replica.
    #[must_use]
    pub fn replica(&self, id: ReplicaId) -> &Replica<V> {
        &self.replicas[id.0 as usize]
    }

    /// Crashes a node: it stops sending and receiving. (Its acceptor
    /// state is retained, modelling a stopped-but-recoverable
    /// process.)
    pub fn crash(&mut self, id: ReplicaId) {
        self.crashed[id.0 as usize] = true;
    }

    /// Restarts a crashed node with its durable state intact.
    pub fn restart(&mut self, id: ReplicaId) {
        self.crashed[id.0 as usize] = false;
    }

    /// Submits `value` for replication through node `at`.
    pub fn propose(&mut self, at: ReplicaId, value: V) {
        if self.crashed[at.0 as usize] {
            return;
        }
        let out = self.replicas[at.0 as usize].submit(value);
        self.dispatch(at, out);
    }

    fn dispatch(&mut self, from: ReplicaId, out: Vec<Outgoing<V>>) {
        for o in out {
            match o {
                Outgoing::To(to, msg) => self.enqueue(from, to, msg),
                Outgoing::Broadcast(msg) => {
                    for i in 0..self.replicas.len() as u32 {
                        self.enqueue(from, ReplicaId(i), msg.clone());
                    }
                }
            }
        }
    }

    fn enqueue(&mut self, from: ReplicaId, to: ReplicaId, msg: Message<V>) {
        if self.rng.chance(self.faults.drop_probability) {
            self.dropped += 1;
            return;
        }
        let deliver_at = self.now + SimTime::from_secs(1.0);
        if self.rng.chance(self.faults.duplicate_probability) {
            self.queue.schedule(deliver_at, (from, to, msg.clone()));
        }
        self.queue.schedule(deliver_at, (from, to, msg));
    }

    /// Delivers a single message; returns whether one was pending.
    pub fn step(&mut self) -> bool {
        let Some((t, (from, to, msg))) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(t);
        if self.crashed[to.0 as usize] {
            self.dropped += 1;
            return true;
        }
        self.delivered += 1;
        let out = self.replicas[to.0 as usize].handle(from, msg);
        self.dispatch(to, out);
        true
    }

    /// Delivers messages until none are pending (or a safety valve of
    /// one million deliveries trips).
    pub fn run_to_quiescence(&mut self) {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps < 1_000_000, "replica group failed to quiesce");
        }
    }

    /// A value every replica group member agrees is chosen for `slot`
    /// (from any node that learned it).
    #[must_use]
    pub fn chosen(&self, slot: Slot) -> Option<&V> {
        self.replicas.iter().find_map(|r| r.chosen(slot))
    }

    /// Checks the Paxos safety property: no two replicas have learned
    /// different values for the same slot.
    ///
    /// # Panics
    ///
    /// Panics (with diagnostics) on disagreement — call from tests.
    pub fn assert_agreement(&self) {
        let max_slot = self
            .replicas
            .iter()
            .flat_map(|r| r.log().keys().copied())
            .max()
            .unwrap_or(0);
        for slot in 0..=max_slot {
            let mut value: Option<(&V, ReplicaId)> = None;
            for r in &self.replicas {
                if let Some(v) = r.chosen(slot) {
                    match value {
                        None => value = Some((v, r.id())),
                        Some((prev, who)) => assert!(
                            prev == v,
                            "slot {slot}: {who} learned {prev:?} but {} learned {v:?}",
                            r.id()
                        ),
                    }
                }
            }
        }
    }

    /// Delivered / dropped message counts (for fault-model tests).
    #[must_use]
    pub fn message_stats(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_proposal_is_chosen_everywhere() {
        let mut c: Cluster<&str> = Cluster::new(3, 1);
        c.propose(ReplicaId(0), "op-1");
        c.run_to_quiescence();
        for i in 0..3 {
            assert_eq!(c.replica(ReplicaId(i)).chosen(0), Some(&"op-1"));
        }
        c.assert_agreement();
    }

    #[test]
    fn sequential_proposals_fill_consecutive_slots() {
        let mut c: Cluster<u32> = Cluster::new(5, 2);
        for v in 0..10u32 {
            c.propose(ReplicaId(v % 5), v);
            c.run_to_quiescence();
        }
        c.assert_agreement();
        let log = c.replica(ReplicaId(0)).log();
        assert_eq!(log.len(), 10);
        let values: Vec<u32> = log.values().copied().collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_proposals_all_land_without_loss() {
        let mut c: Cluster<u32> = Cluster::new(3, 3);
        // Two nodes race for slot 0.
        c.propose(ReplicaId(0), 100);
        c.propose(ReplicaId(1), 200);
        c.run_to_quiescence();
        c.assert_agreement();
        // Both values must be in the log (slots 0 and 1, either order).
        let log = c.replica(ReplicaId(2)).log();
        let values: Vec<u32> = log.values().copied().collect();
        assert!(values.contains(&100), "log {values:?}");
        assert!(values.contains(&200), "log {values:?}");
    }

    #[test]
    fn survives_minority_crash() {
        let mut c: Cluster<u32> = Cluster::new(5, 4);
        c.crash(ReplicaId(3));
        c.crash(ReplicaId(4));
        c.propose(ReplicaId(0), 7);
        c.run_to_quiescence();
        assert_eq!(c.chosen(0), Some(&7));
        c.assert_agreement();
        // The crashed nodes learn after restarting, from the next
        // proposal's fast-path teaching.
        c.restart(ReplicaId(3));
        c.propose(ReplicaId(3), 8);
        c.run_to_quiescence();
        c.assert_agreement();
        assert!(c.replica(ReplicaId(3)).chosen(0).is_some());
    }

    #[test]
    fn majority_crash_blocks_progress_but_keeps_safety() {
        let mut c: Cluster<u32> = Cluster::new(3, 5);
        c.crash(ReplicaId(1));
        c.crash(ReplicaId(2));
        c.propose(ReplicaId(0), 7);
        c.run_to_quiescence();
        assert_eq!(c.chosen(0), None, "no quorum, nothing may be chosen");
        // Restart: the pending value can be re-driven later.
        c.restart(ReplicaId(1));
        c.propose(ReplicaId(0), 8); // queues behind 7... which backed off
        c.run_to_quiescence();
        c.assert_agreement();
    }

    #[test]
    fn lossy_network_still_agrees() {
        for seed in 0..10 {
            let mut c: Cluster<u32> = Cluster::with_faults(
                3,
                seed,
                FaultModel {
                    drop_probability: 0.10,
                    duplicate_probability: 0.10,
                },
            );
            for v in 0..5 {
                c.propose(ReplicaId(v % 3), v);
                c.run_to_quiescence();
            }
            c.assert_agreement();
            let (_, dropped) = c.message_stats();
            let _ = dropped;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c: Cluster<u32> = Cluster::with_faults(
                3,
                seed,
                FaultModel {
                    drop_probability: 0.2,
                    duplicate_probability: 0.0,
                },
            );
            c.propose(ReplicaId(0), 1);
            c.propose(ReplicaId(1), 2);
            c.run_to_quiescence();
            let log: Vec<u32> = c.replica(ReplicaId(0)).log().values().copied().collect();
            (log, c.message_stats())
        };
        assert_eq!(run(9), run(9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Agreement holds under arbitrary proposal schedules and
        /// lossy, duplicating networks.
        #[test]
        fn agreement_under_faults(
            seed in any::<u64>(),
            n in 3usize..6,
            drop_p in 0.0f64..0.3,
            dup_p in 0.0f64..0.2,
            proposals in proptest::collection::vec((0u32..6, 0u32..100), 1..12),
        ) {
            let mut c: Cluster<u32> = Cluster::with_faults(
                n,
                seed,
                FaultModel {
                    drop_probability: drop_p,
                    duplicate_probability: dup_p,
                },
            );
            for (node, value) in proposals {
                c.propose(ReplicaId(node % n as u32), value);
                // Interleave delivery with proposals.
                for _ in 0..5 {
                    c.step();
                }
            }
            c.run_to_quiescence();
            c.assert_agreement();
        }

        /// With a reliable network, every submitted value ends up in
        /// every replica's log exactly once (no loss, no duplication).
        #[test]
        fn reliable_network_loses_nothing(
            seed in any::<u64>(),
            values in proptest::collection::vec(0u32..1000, 1..15),
        ) {
            let mut c: Cluster<(u32, u32)> = Cluster::new(3, seed);
            for (i, v) in values.iter().enumerate() {
                // Tag with index so duplicates in the input stay
                // distinguishable.
                c.propose(ReplicaId((i % 3) as u32), (i as u32, *v));
                c.run_to_quiescence();
            }
            c.assert_agreement();
            for r in 0..3u32 {
                let log = c.replica(ReplicaId(r)).log();
                prop_assert_eq!(log.len(), values.len());
            }
        }
    }
}
