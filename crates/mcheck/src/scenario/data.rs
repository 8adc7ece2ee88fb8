//! Append/read scenario: primary-ordered appends, chunked reads,
//! crash/restart faults and re-replication, checked by the §3.4
//! consistency oracle.
//!
//! The scenario runs a real [`Nameserver`] and three real
//! [`Dataserver`]s (real chunk files on disk) and calls the functions
//! the client calls, one component call per event:
//!
//! * **Append** (§3.3.2): invoke → acquire the per-file ordering lock
//!   → write the primary replica ([`Dataserver::append_local`]) →
//!   acknowledge (`record_size` + the client response) → relay to each
//!   secondary with [`Dataserver::relay`] at the offset the primary
//!   assigned → release the lock. A relay to a secondary that is down
//!   fails and is dropped; the secondary catches up from the primary
//!   at its next relay. The ack before the relays is the one order of
//!   the scenario's own: the client acks after every relay, and under
//!   that order a secondary holds every acknowledged byte, so a strong
//!   read served from one (`stale-last-chunk-read`) is no bug the
//!   oracle can see. The paper's primary orders appends and lets
//!   relays trail the ack, which is the window §3.4's primary pin
//!   exists for; this order keeps it checked.
//! * **Read**: invoke → look the file up as a fresh client does (its
//!   hint is the recorded size) → the client's read steps, one piece
//!   per event ([`Piece::plan`] with round-robin assignments,
//!   [`DataPlane::read_piece_into`], the size rule, [`extension_round`]).
//! * **Faults**: a scripted crash/restart of one secondary, plus a
//!   two-phase repair (replica disk loss, then
//!   [`Dataserver::pull_repair`] from the primary) racing the
//!   concurrent appends.
//!
//! The real protocol satisfies the oracles in *every* schedule. The
//! [`Mutant::StaleLastChunkRead`], [`Mutant::UnlockedAppend`] and
//! [`Mutant::RelayAtOwnEnd`] variants each violate one in *some*
//! schedule — which is the point of exploring.

use std::collections::VecDeque;
use std::sync::Arc;

use mayflower_fs::{
    extension_round, Consistency, DataPlane, Dataserver, FileMeta, FsError, Nameserver,
    NameserverConfig, Piece, ReadAssignment, ReportedSizes, RetryPolicy,
};
use mayflower_net::HostId;
use mayflower_simcore::{EventQueue, SimTime};
use mayflower_telemetry::{trace::Tracer, Registry};

use crate::history::{CallId, History};
use crate::oracle::{check_append_read, DataOp, DataRet};
use crate::scenario::{small_topology, Mutant, RunDir, Scenario, ScheduleOutcome};
use crate::strategy::Chooser;

const FILE: &str = "f";
const CHUNK: u64 = 8;
const REPLICAS: usize = 3;

/// The append/read consistency scenario.
#[derive(Debug, Clone)]
pub struct DataScenario {
    /// Strong (§3.4) vs sequential read checking.
    pub strong: bool,
    /// Which protocol variant to run.
    pub mutant: Mutant,
    /// The fault client's script (crash/restart/repair events).
    pub fault_ops: Vec<DataOp>,
}

impl DataScenario {
    /// The real protocol, no faults.
    #[must_use]
    pub fn new(strong: bool) -> DataScenario {
        DataScenario {
            strong,
            mutant: Mutant::None,
            fault_ops: Vec::new(),
        }
    }

    /// A mutated variant.
    #[must_use]
    pub fn with_mutant(mut self, mutant: Mutant) -> DataScenario {
        self.mutant = mutant;
        self
    }

    /// Adds a crash/restart pair on one secondary replica plus a
    /// two-phase repair — the re-replication-vs-append race.
    #[must_use]
    pub fn with_repair_race(mut self) -> DataScenario {
        self.fault_ops = vec![
            DataOp::Crash { replica: 1 },
            DataOp::Restart { replica: 1 },
            DataOp::Repair,
        ];
        self
    }
}

/// A read between its steps: the metadata its round plans over, the
/// round's pieces still to fetch, the bytes so far and the sizes the
/// round's pieces reported.
#[derive(Debug)]
struct Read {
    call: CallId,
    meta: FileMeta,
    round: Round,
    pieces: std::vec::IntoIter<Piece>,
    data: Vec<u8>,
    sizes: ReportedSizes,
}

/// The rounds of [`Client::read`](mayflower_fs::Client::read), in order.
#[derive(Debug, Clone, Copy)]
enum Round {
    /// Nothing planned yet.
    Start,
    /// The pieces planned over the size hint.
    Hinted,
    /// The zero-length piece asking the primary for the size.
    SizeQuery,
    /// The bytes found past the hint.
    Extension,
}

#[derive(Debug)]
enum Phase {
    /// Next event invokes the client's next scripted op.
    Ready,
    /// Invoked; next event starts executing.
    Invoked(CallId),
    /// Append parked on the per-file lock (no event scheduled; the
    /// release wakes it).
    WaitLock(CallId),
    /// Append holds the lock; next event writes the primary.
    Locked(CallId),
    /// Primary written at `off`; next event acknowledges.
    Ack {
        call: CallId,
        off: u64,
        payload: Vec<u8>,
    },
    /// Acknowledged; next events relay to secondary `next`.
    Relay {
        call: CallId,
        off: u64,
        payload: Vec<u8>,
        next: usize,
    },
    /// A read; the next event fetches its next piece or ends its round.
    Read(Box<Read>),
    /// Repair wiped the replica; next event pulls from the primary.
    RepairPull(CallId),
}

struct Run<'a> {
    scenario: &'a DataScenario,
    consistency: Consistency,
    ns: Nameserver,
    ds: Vec<Arc<Dataserver>>,
    /// The same dataservers, as the client's read steps reach them.
    plane: DataPlane,
    meta: FileMeta,
    scripts: Vec<Vec<DataOp>>,
    cursors: Vec<usize>,
    phases: Vec<Phase>,
    lock: Option<usize>,
    waiters: VecDeque<usize>,
    history: History<DataOp, DataRet>,
    queue: EventQueue<usize>,
}

impl Run<'_> {
    fn finish_op(&mut self, c: usize) {
        self.phases[c] = Phase::Ready;
        self.cursors[c] += 1;
        if self.cursors[c] < self.scripts[c].len() {
            self.queue.schedule(SimTime::ZERO, c);
        }
    }

    fn release_lock(&mut self, c: usize) {
        if self.scenario.mutant == Mutant::UnlockedAppend {
            return; // the mutant never took it
        }
        debug_assert_eq!(self.lock, Some(c));
        self.lock = None;
        if let Some(w) = self.waiters.pop_front() {
            self.lock = Some(w);
            self.queue.schedule(SimTime::ZERO, w);
        }
    }

    /// Plans a read's next round as [`Client::read`](mayflower_fs::Client::read)
    /// does: the pieces over the hint, then the size rule, the size
    /// query when no piece reported a size, and the extension round.
    /// Returns whether a round follows.
    fn next_round(&self, read: &mut Read) -> Result<bool, FsError> {
        let (consistency, hint) = (self.consistency, read.meta.size);
        let (round, pieces) = match (read.round, read.sizes.size(consistency, hint)) {
            (Round::Start, _) => (
                Round::Hinted,
                Piece::plan(&read.meta, consistency, 0, hint, |span| {
                    round_robin(&read.meta.replicas, span)
                })?,
            ),
            (Round::Hinted, None) => (
                Round::SizeQuery,
                vec![Piece::size_query(&read.meta, consistency)],
            ),
            (Round::Extension, _) => return Ok(false),
            (_, size) => {
                let Some(grown) = extension_round(&read.meta, size.unwrap_or(hint)) else {
                    return Ok(false);
                };
                let pieces = Piece::plan(&grown, consistency, hint, grown.size - hint, |span| {
                    round_robin(&grown.replicas, span)
                })?;
                read.meta = grown;
                (Round::Extension, pieces)
            }
        };
        (read.round, read.pieces) = (round, pieces.into_iter());
        read.sizes = ReportedSizes::default();
        Ok(true)
    }

    /// Fetches a read's next piece, or ends its round; a short piece
    /// ends the round at end-of-file.
    fn read_step(&mut self, c: usize, mut read: Box<Read>) {
        let step = match read.pieces.next() {
            Some(piece) => {
                let fetched = self.plane.read_piece_into(
                    RetryPolicy::ONCE,
                    &read.meta,
                    &piece,
                    &mut read.data,
                );
                fetched.map(|done| {
                    read.sizes.note(&read.meta, &done);
                    if (done.filled as u64) < piece.len {
                        read.pieces = Vec::new().into_iter();
                    }
                    true
                })
            }
            None => self.next_round(&mut read),
        };
        match step {
            Ok(true) => {
                self.phases[c] = Phase::Read(read);
                self.queue.schedule(SimTime::ZERO, c);
            }
            Ok(false) => {
                self.history.respond(read.call, DataRet::Value(read.data));
                self.finish_op(c);
            }
            Err(e) => {
                self.history
                    .respond(read.call, DataRet::Failed(short_err(&e)));
                self.finish_op(c);
            }
        }
    }

    /// Advances client `c` by one protocol step.
    fn step(&mut self, c: usize) {
        let op = self.scripts[c][self.cursors[c]].clone();
        match std::mem::replace(&mut self.phases[c], Phase::Ready) {
            Phase::Ready => {
                self.phases[c] = Phase::Invoked(self.history.invoke(c as u32, op));
                self.queue.schedule(SimTime::ZERO, c);
            }
            Phase::Invoked(call) => match op {
                DataOp::Append { .. } => {
                    if self.scenario.mutant == Mutant::UnlockedAppend || self.lock.is_none() {
                        if self.scenario.mutant != Mutant::UnlockedAppend {
                            self.lock = Some(c);
                        }
                        self.phases[c] = Phase::Locked(call);
                        self.queue.schedule(SimTime::ZERO, c);
                    } else {
                        self.phases[c] = Phase::WaitLock(call);
                        self.waiters.push_back(c); // woken by the release
                    }
                }
                DataOp::Read { .. } => {
                    // A fresh client's metadata: its hint is the size
                    // recorded now.
                    let mut meta = self.ns.lookup(FILE).expect("file exists for the whole run");
                    if self.scenario.mutant == Mutant::StaleLastChunkRead {
                        // The steps take a secondary for the primary.
                        meta.replicas.swap(0, 1);
                    }
                    let read = Read {
                        call,
                        meta,
                        round: Round::Start,
                        pieces: Vec::new().into_iter(),
                        data: Vec::new(),
                        sizes: ReportedSizes::default(),
                    };
                    self.read_step(c, Box::new(read));
                }
                DataOp::Crash { replica } => {
                    self.ds[replica as usize].crash();
                    self.history.respond(call, DataRet::Done);
                    self.finish_op(c);
                }
                DataOp::Restart { replica } => {
                    self.ds[replica as usize].restart();
                    self.history.respond(call, DataRet::Done);
                    self.finish_op(c);
                }
                DataOp::Repair => {
                    // Phase one: the replica's disk is lost.
                    let target = &self.ds[1];
                    if target.is_up() {
                        let _ = target.delete_file(self.meta.id);
                    }
                    self.phases[c] = Phase::RepairPull(call);
                    self.queue.schedule(SimTime::ZERO, c);
                }
            },
            Phase::WaitLock(call) => {
                // Woken holding the lock.
                self.phases[c] = Phase::Locked(call);
                self.queue.schedule(SimTime::ZERO, c);
            }
            Phase::Locked(call) => {
                let DataOp::Append { tag, len, .. } = op else {
                    unreachable!("only appends take the lock")
                };
                let payload = vec![tag; len as usize];
                match self.ds[0].append_local(self.meta.id, &payload) {
                    Ok(new_size) => {
                        self.phases[c] = Phase::Ack {
                            call,
                            off: new_size - u64::from(len),
                            payload,
                        };
                        self.queue.schedule(SimTime::ZERO, c);
                    }
                    Err(e) => {
                        self.history.respond(call, DataRet::Failed(short_err(&e)));
                        self.release_lock(c);
                        self.finish_op(c);
                    }
                }
            }
            Phase::Ack { call, off, payload } => {
                let new_size = off + payload.len() as u64;
                self.ns
                    .record_size(FILE, new_size)
                    .expect("file exists for the whole run");
                self.history.respond(call, DataRet::Appended(new_size));
                self.phases[c] = Phase::Relay {
                    call,
                    off,
                    payload,
                    next: 1,
                };
                self.queue.schedule(SimTime::ZERO, c);
            }
            Phase::Relay {
                call,
                off,
                payload,
                next,
            } => {
                let secondary = &self.ds[next];
                let _ = if self.scenario.mutant == Mutant::RelayAtOwnEnd {
                    secondary.append_local(self.meta.id, &payload)
                } else {
                    secondary.relay(&*self.ds[0], self.meta.id, off, &payload)
                };
                if next + 1 < REPLICAS {
                    self.phases[c] = Phase::Relay {
                        call,
                        off,
                        payload,
                        next: next + 1,
                    };
                    self.queue.schedule(SimTime::ZERO, c);
                } else {
                    self.release_lock(c);
                    self.finish_op(c);
                }
            }
            Phase::Read(read) => self.read_step(c, read),
            Phase::RepairPull(call) => {
                let meta = self.ns.lookup(FILE).expect("file exists for the whole run");
                let ret = match self.ds[1].pull_repair(&*self.ds[0], &meta) {
                    Ok(_) => DataRet::Done,
                    Err(e) => DataRet::Failed(short_err(&e)),
                };
                self.history.respond(call, ret);
                self.finish_op(c);
            }
        }
    }
}

/// The harness's replica choice: `CHUNK`-sized assignments, round-robin
/// over the replicas from the first, so a read from offset 0 is served
/// chunk `i` from replica `i mod 3`.
fn round_robin(replicas: &[HostId], span: u64) -> Vec<ReadAssignment> {
    (0..span.div_ceil(CHUNK))
        .map(|i| ReadAssignment {
            replica: replicas[i as usize % replicas.len()],
            bytes: CHUNK.min(span - i * CHUNK),
        })
        .collect()
}

fn short_err(e: &FsError) -> String {
    match e {
        FsError::Unavailable(_) => "unavailable".to_string(),
        FsError::NotFound(_) => "not-found".to_string(),
        other => format!("{other}"),
    }
}

impl Scenario for DataScenario {
    fn name(&self) -> String {
        format!(
            "append-read mode={} faults={} mutant={}",
            if self.strong { "strong" } else { "sequential" },
            self.fault_ops.len(),
            self.mutant.label()
        )
    }

    fn run(&self, chooser: &mut Chooser) -> ScheduleOutcome {
        let dir = RunDir::new("data");
        let topo = small_topology();
        let ns = Nameserver::open(
            topo.clone(),
            &dir.path().join("ns"),
            NameserverConfig {
                replication: REPLICAS,
                chunk_size: CHUNK,
                ..NameserverConfig::default()
            },
        )
        .expect("open nameserver");
        let hosts = [HostId(0), HostId(2), HostId(4)];
        let meta = ns
            .create_placed(FILE, hosts.to_vec())
            .expect("create scenario file");
        let mut ds = Vec::new();
        for h in hosts {
            let d = Dataserver::open(h, &dir.path().join(format!("ds-{}", h.0)))
                .expect("open dataserver");
            d.create_file(&meta).expect("create replica");
            ds.push(Arc::new(d));
        }
        let plane = DataPlane::new(
            hosts.into_iter().zip(ds.iter().cloned()).collect(),
            &Registry::new(),
            &Tracer::new_manual(),
        );

        let mut scripts: Vec<Vec<DataOp>> = vec![
            vec![
                DataOp::Append {
                    file: FILE.into(),
                    tag: 1,
                    len: 6,
                },
                DataOp::Append {
                    file: FILE.into(),
                    tag: 2,
                    len: 6,
                },
            ],
            vec![DataOp::Append {
                file: FILE.into(),
                tag: 3,
                len: 6,
            }],
            vec![
                DataOp::Read { file: FILE.into() },
                DataOp::Read { file: FILE.into() },
            ],
            vec![DataOp::Read { file: FILE.into() }],
        ];
        if !self.fault_ops.is_empty() {
            scripts.push(self.fault_ops.clone());
        }

        let n = scripts.len();
        let mut run = Run {
            scenario: self,
            consistency: if self.strong {
                Consistency::Strong
            } else {
                Consistency::Sequential
            },
            ns,
            ds,
            plane,
            meta,
            scripts,
            cursors: vec![0; n],
            phases: (0..n).map(|_| Phase::Ready).collect(),
            lock: None,
            waiters: VecDeque::new(),
            history: History::new(),
            queue: EventQueue::new(),
        };
        for c in 0..n {
            run.queue.schedule(SimTime::ZERO, c);
        }
        while let Some((_, c)) = run.queue.pop_with(chooser) {
            run.step(c);
        }

        // Ground truth: the primary's final on-disk content.
        for d in &run.ds {
            d.restart();
        }
        let (primary, _) = run.ds[0]
            .read_local(run.meta.id, 0, u64::MAX)
            .expect("primary survives (disk is never lost)");
        let recorded = run
            .ns
            .lookup(FILE)
            .expect("file exists for the whole run")
            .size;

        ScheduleOutcome {
            verdict: check_append_read(&run.history, &primary, recorded, self.strong),
            trace: run.history.trace(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Budget, Explorer, StrategyKind};

    #[test]
    fn real_protocol_passes_strong_random_walks() {
        let s = DataScenario::new(true);
        let report = Explorer::new().check(&s, StrategyKind::RandomWalk, 11, Budget::schedules(15));
        assert!(
            report.counterexample.is_none(),
            "{}",
            report.counterexample.unwrap().render()
        );
    }

    #[test]
    fn real_protocol_passes_with_repair_race() {
        let s = DataScenario::new(true).with_repair_race();
        let report = Explorer::new().check(&s, StrategyKind::RandomWalk, 12, Budget::schedules(15));
        assert!(
            report.counterexample.is_none(),
            "{}",
            report.counterexample.unwrap().render()
        );
    }

    #[test]
    fn stale_last_chunk_mutant_is_caught() {
        let s = DataScenario::new(true).with_mutant(Mutant::StaleLastChunkRead);
        let report = Explorer::new().check(&s, StrategyKind::RandomWalk, 1, Budget::schedules(80));
        let cx = report.counterexample.expect("mutant must be caught");
        assert!(cx.violation.contains("strong read"), "{}", cx.violation);
    }

    #[test]
    fn unlocked_append_mutant_is_caught() {
        let s = DataScenario::new(true).with_mutant(Mutant::UnlockedAppend);
        let report = Explorer::new().check(&s, StrategyKind::RandomWalk, 1, Budget::schedules(80));
        assert!(report.counterexample.is_some(), "mutant must be caught");
    }
}
