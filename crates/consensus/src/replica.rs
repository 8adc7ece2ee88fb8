//! One node of the replicated log: acceptor for every slot, proposer
//! when driving, learner always.

use std::collections::{BTreeMap, VecDeque};

use crate::acceptor::{Acceptor, Verdict};
use crate::messages::{Ballot, Message, ReplicaId, Slot};
use crate::proposer::{Action, Proposer};

/// A message the replica wants delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outgoing<V> {
    /// Send to one peer.
    To(ReplicaId, Message<V>),
    /// Send to every replica (including the sender itself, which lets
    /// the proposer's own acceptor vote).
    Broadcast(Message<V>),
}

/// Attempts per pending value before the replica waits for the log to
/// move (a dueling-proposer backstop; adoption normally converges in
/// one or two rounds).
const MAX_ATTEMPTS: u32 = 20;

/// One replica of the group: a deterministic state machine that maps
/// each incoming message (or client submission) to outgoing messages.
///
/// Values submitted locally are queued and proposed — one at a time —
/// into the first log slot this replica believes is unchosen. If a
/// competing proposer wins the slot (Paxos forces us to adopt its
/// value), the pending value automatically moves to the next slot.
#[derive(Debug, Clone)]
pub struct Replica<V> {
    me: ReplicaId,
    group_size: usize,
    acceptors: BTreeMap<Slot, Acceptor<V>>,
    proposer: Option<(Slot, Proposer<V>)>,
    chosen: BTreeMap<Slot, V>,
    pending: VecDeque<V>,
    attempts: u32,
    /// Highest ballot round this node has observed, for retry jumps.
    max_round_seen: u64,
}

impl<V: Clone + Eq> Replica<V> {
    /// Creates replica `me` of a group of `group_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    #[must_use]
    pub fn new(me: ReplicaId, group_size: usize) -> Replica<V> {
        assert!(group_size > 0, "group must be non-empty");
        Replica {
            me,
            group_size,
            acceptors: BTreeMap::new(),
            proposer: None,
            chosen: BTreeMap::new(),
            pending: VecDeque::new(),
            attempts: 0,
            max_round_seen: 0,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// Majority size.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.group_size / 2 + 1
    }

    /// The chosen value for `slot`, if this node has learned it.
    #[must_use]
    pub fn chosen(&self, slot: Slot) -> Option<&V> {
        self.chosen.get(&slot)
    }

    /// The learned log so far.
    #[must_use]
    pub fn log(&self) -> &BTreeMap<Slot, V> {
        &self.chosen
    }

    /// The maximal prefix of the log with no gaps, in slot order — the
    /// operations a state machine may safely apply.
    #[must_use]
    pub fn committed_prefix(&self) -> Vec<&V> {
        let mut out = Vec::new();
        for (i, (slot, v)) in self.chosen.iter().enumerate() {
            if *slot != i as Slot {
                break;
            }
            out.push(v);
        }
        out
    }

    /// First slot with no learned value.
    #[must_use]
    pub fn first_gap(&self) -> Slot {
        let mut s = 0;
        while self.chosen.contains_key(&s) {
            s += 1;
        }
        s
    }

    /// Number of values queued but not yet chosen.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len() + usize::from(self.proposer.is_some())
    }

    /// Submits a value for replication. Returns the messages to send
    /// (empty if another proposal is already in flight; the value is
    /// queued behind it).
    pub fn submit(&mut self, value: V) -> Vec<Outgoing<V>> {
        self.pending.push_back(value);
        if self.proposer.is_none() {
            self.start_next_proposal()
        } else {
            Vec::new()
        }
    }

    fn start_next_proposal(&mut self) -> Vec<Outgoing<V>> {
        let Some(value) = self.pending.pop_front() else {
            return Vec::new();
        };
        let slot = self.first_gap();
        self.max_round_seen += 1;
        let ballot = Ballot {
            round: self.max_round_seen,
            node: self.me,
        };
        self.attempts = 0;
        self.proposer = Some((slot, Proposer::new(self.me, self.quorum(), ballot, value)));
        vec![Outgoing::Broadcast(Message::Prepare { slot, ballot })]
    }

    fn retry_current(&mut self, above: Ballot) -> Vec<Outgoing<V>> {
        let Some((_, proposer)) = self.proposer.take() else {
            return Vec::new();
        };
        let value = proposer.own_value().clone();
        self.attempts += 1;
        if self.attempts > MAX_ATTEMPTS {
            // Back off: requeue and wait for the log to move.
            self.pending.push_front(value);
            return Vec::new();
        }
        let slot = self.first_gap();
        self.max_round_seen = self.max_round_seen.max(above.round) + 1;
        let ballot = Ballot {
            round: self.max_round_seen,
            node: self.me,
        };
        let quorum = self.quorum();
        self.proposer = Some((slot, Proposer::new(self.me, quorum, ballot, value)));
        vec![Outgoing::Broadcast(Message::Prepare { slot, ballot })]
    }

    /// Records a chosen value and advances pending proposals.
    fn learn(&mut self, slot: Slot, value: V) -> Vec<Outgoing<V>> {
        self.chosen.entry(slot).or_insert(value);
        // If our in-flight proposal targeted this slot, its fate is
        // decided: either our value was chosen (done) or someone
        // else's was (our value must go to another slot).
        if let Some((pslot, proposer)) = self.proposer.take() {
            if pslot == slot {
                let mine = proposer.own_value().clone();
                if self.chosen.get(&slot) != Some(&mine) {
                    self.pending.push_front(mine);
                }
            } else {
                self.proposer = Some((pslot, proposer));
            }
        }
        if self.proposer.is_none() {
            self.start_next_proposal()
        } else {
            Vec::new()
        }
    }

    /// Handles one incoming message, returning the messages to send.
    ///
    /// Lagging learners piggyback catch-up on regular traffic: any
    /// message about a slot beyond this node's first gap triggers a
    /// [`Message::LearnRequest`] for the gap back to the sender.
    #[allow(clippy::too_many_lines)]
    pub fn handle(&mut self, from: ReplicaId, msg: Message<V>) -> Vec<Outgoing<V>> {
        let mut catch_up = Vec::new();
        if from != self.me {
            let gap = self.first_gap();
            if msg.slot() > gap {
                catch_up.push(Outgoing::To(from, Message::LearnRequest { slot: gap }));
            }
        }
        let mut out = self.handle_inner(from, msg);
        out.extend(catch_up);
        out
    }

    fn handle_inner(&mut self, from: ReplicaId, msg: Message<V>) -> Vec<Outgoing<V>> {
        match msg {
            Message::Prepare { slot, ballot } => {
                self.max_round_seen = self.max_round_seen.max(ballot.round);
                if self.chosen.contains_key(&slot) {
                    // Fast path: the slot is decided; teach the sender.
                    let value = self.chosen[&slot].clone();
                    return vec![Outgoing::To(from, Message::Learn { slot, value })];
                }
                let acceptor = self.acceptors.entry(slot).or_default();
                match acceptor.prepare(ballot) {
                    Verdict::Promised(accepted) => vec![Outgoing::To(
                        from,
                        Message::Promise {
                            slot,
                            ballot,
                            accepted,
                        },
                    )],
                    Verdict::Rejected(promised) => vec![Outgoing::To(
                        from,
                        Message::Nack {
                            slot,
                            ballot,
                            promised,
                        },
                    )],
                    Verdict::Accepted => unreachable!("prepare never returns Accepted"),
                }
            }
            Message::Accept {
                slot,
                ballot,
                value,
            } => {
                self.max_round_seen = self.max_round_seen.max(ballot.round);
                if self.chosen.contains_key(&slot) {
                    let value = self.chosen[&slot].clone();
                    return vec![Outgoing::To(from, Message::Learn { slot, value })];
                }
                let acceptor = self.acceptors.entry(slot).or_default();
                match acceptor.accept(ballot, value) {
                    Verdict::Accepted => {
                        vec![Outgoing::To(from, Message::Accepted { slot, ballot })]
                    }
                    Verdict::Rejected(promised) => vec![Outgoing::To(
                        from,
                        Message::Nack {
                            slot,
                            ballot,
                            promised,
                        },
                    )],
                    Verdict::Promised(_) => unreachable!("accept never returns Promised"),
                }
            }
            Message::Promise {
                slot,
                ballot,
                accepted,
            } => {
                let Some((pslot, proposer)) = self.proposer.as_mut() else {
                    return Vec::new();
                };
                if *pslot != slot {
                    return Vec::new();
                }
                match proposer.on_promise(from, ballot, accepted) {
                    Action::SendAccepts { ballot, value } => {
                        vec![Outgoing::Broadcast(Message::Accept {
                            slot,
                            ballot,
                            value,
                        })]
                    }
                    Action::Wait => Vec::new(),
                    Action::Chosen(_) | Action::Preempted { .. } => {
                        unreachable!("promise cannot finish a proposal")
                    }
                }
            }
            Message::Accepted { slot, ballot } => {
                let Some((pslot, proposer)) = self.proposer.as_mut() else {
                    return Vec::new();
                };
                if *pslot != slot {
                    return Vec::new();
                }
                match proposer.on_accepted(from, ballot) {
                    Action::Chosen(value) => {
                        let mut out = vec![Outgoing::Broadcast(Message::Learn {
                            slot,
                            value: value.clone(),
                        })];
                        out.extend(self.learn(slot, value));
                        out
                    }
                    Action::Wait => Vec::new(),
                    Action::SendAccepts { .. } | Action::Preempted { .. } => {
                        unreachable!("accepted cannot preempt or re-accept")
                    }
                }
            }
            Message::Nack {
                slot,
                ballot,
                promised,
            } => {
                self.max_round_seen = self.max_round_seen.max(promised.round);
                let Some((pslot, proposer)) = self.proposer.as_mut() else {
                    return Vec::new();
                };
                if *pslot != slot {
                    return Vec::new();
                }
                match proposer.on_nack(ballot, promised) {
                    Action::Preempted { retry_above } => self.retry_current(retry_above),
                    Action::Wait => Vec::new(),
                    Action::SendAccepts { .. } | Action::Chosen(_) => {
                        unreachable!("nack cannot advance a proposal")
                    }
                }
            }
            Message::Learn { slot, value } => self.learn(slot, value),
            Message::LearnRequest { slot } => match self.chosen.get(&slot) {
                Some(value) => vec![Outgoing::To(
                    from,
                    Message::Learn {
                        slot,
                        value: value.clone(),
                    },
                )],
                None => Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_prefix_stops_at_gap() {
        let mut r: Replica<u32> = Replica::new(ReplicaId(0), 3);
        r.chosen.insert(0, 10);
        r.chosen.insert(1, 11);
        r.chosen.insert(3, 13);
        assert_eq!(r.committed_prefix(), vec![&10, &11]);
        assert_eq!(r.first_gap(), 2);
    }

    #[test]
    fn submit_broadcasts_prepare() {
        let mut r: Replica<u32> = Replica::new(ReplicaId(1), 3);
        let out = r.submit(42);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Outgoing::Broadcast(Message::Prepare { slot: 0, .. })
        ));
        // A second submission queues behind the first.
        assert!(r.submit(43).is_empty());
        assert_eq!(r.pending_len(), 2);
    }

    #[test]
    fn prepare_on_decided_slot_teaches_learn() {
        let mut r: Replica<u32> = Replica::new(ReplicaId(0), 3);
        r.chosen.insert(0, 99);
        let out = r.handle(
            ReplicaId(2),
            Message::Prepare {
                slot: 0,
                ballot: Ballot {
                    round: 5,
                    node: ReplicaId(2),
                },
            },
        );
        assert_eq!(
            out,
            vec![Outgoing::To(
                ReplicaId(2),
                Message::Learn { slot: 0, value: 99 }
            )]
        );
    }

    #[test]
    fn learn_of_foreign_value_requeues_own() {
        let mut r: Replica<u32> = Replica::new(ReplicaId(0), 3);
        let _ = r.submit(42); // proposing 42 at slot 0
                              // Someone else's value gets chosen at slot 0.
        let out = r.handle(ReplicaId(1), Message::Learn { slot: 0, value: 7 });
        assert_eq!(r.chosen(0), Some(&7));
        // Our 42 restarts at slot 1.
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Outgoing::Broadcast(Message::Prepare { slot: 1, .. })
        ));
    }
}
