//! Append/read scenario: primary-ordered appends, chunked reads,
//! crash/restart faults and re-replication, checked by the §3.4
//! consistency oracle.
//!
//! The scenario runs a real [`Nameserver`] and three real
//! [`Dataserver`]s (real chunk files on disk) and re-issues the append
//! and read protocols step-by-step, one component call per event:
//!
//! * **Append** (§3.3.2): invoke → acquire the per-file ordering lock
//!   → write the primary replica ([`Dataserver::append_local`]) →
//!   acknowledge (`record_size` + the client response) → relay to each
//!   secondary with [`Dataserver::relay`] at the offset the primary
//!   assigned, the call the production client makes → release the
//!   lock. A relay to a secondary that is down fails and is dropped;
//!   the secondary catches up from the primary at its next relay.
//!   The acknowledgement precedes the relays, as the paper allows: the
//!   primary *orders* appends and relays may trail the ack, which is
//!   what §3.4's primary pin for last-chunk reads exists for. The
//!   production client acks only after every relay; under that order
//!   a secondary holds every acknowledged byte, and a strong read
//!   served from one (`stale-last-chunk-read`) is no bug the oracle
//!   can see. This order keeps the wider window checked.
//! * **Read**: invoke → probe the acknowledged size from the
//!   nameserver → read each chunk piece (strong mode: the last chunk
//!   only from the primary; other chunks from the chosen replica, then
//!   the other secondaries, the primary last, short reads patched from
//!   the primary, as the production client does).
//! * **Faults**: a scripted crash/restart of one secondary, plus a
//!   two-phase repair (replica disk loss, then
//!   [`Dataserver::pull_repair`] from the primary) racing the
//!   concurrent appends.
//!
//! The real protocol satisfies the oracle in *every* schedule. The
//! [`Mutant::StaleLastChunkRead`], [`Mutant::UnlockedAppend`] and
//! [`Mutant::RelayAtOwnEnd`] variants each violate it in *some*
//! schedule — which is the point of exploring.

use std::collections::VecDeque;
use std::sync::Arc;

use mayflower_fs::{Dataserver, FileMeta, FsError, Nameserver, NameserverConfig};
use mayflower_net::HostId;
use mayflower_simcore::{EventQueue, SimTime};

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

/// One read piece: chunk `chunk`, byte range `[off, off + want)`.
#[derive(Debug, Clone)]
struct Piece {
    off: u64,
    want: u64,
    /// Replica index serving the raw bytes.
    host: usize,
    is_last: bool,
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
    /// Read probed size `s`; next events fetch `pieces[next]`.
    Pieces {
        call: CallId,
        pieces: Vec<Piece>,
        next: usize,
        acc: Vec<u8>,
    },
    /// Repair wiped the replica; next event pulls from the primary.
    RepairPull(CallId),
}

struct Run<'a> {
    scenario: &'a DataScenario,
    ns: Nameserver,
    ds: Vec<Arc<Dataserver>>,
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

    /// Reads one piece with the production client's failover
    /// (`DataPlane::read_piece_into`): the chosen replica first, then
    /// the other secondaries, the primary last; short reads are patched
    /// from the primary. Strong-mode last-chunk pieces allow no
    /// failover target but the primary itself.
    fn read_piece(&self, piece: &Piece) -> Result<Vec<u8>, String> {
        let strong_last = self.scenario.strong && piece.is_last;
        let stale_serve = strong_last && self.scenario.mutant == Mutant::StaleLastChunkRead;
        let candidates: Vec<usize> = if stale_serve {
            vec![piece.host]
        } else if strong_last {
            vec![0]
        } else {
            let failover = (1..REPLICAS).chain([0]);
            std::iter::once(piece.host)
                .chain(failover.filter(|&r| r != piece.host))
                .collect()
        };
        for &r in &candidates {
            let Ok((bytes, _)) = self.ds[r].read_local(self.meta.id, piece.off, piece.want) else {
                continue;
            };
            if bytes.len() as u64 == piece.want || stale_serve {
                return Ok(bytes); // the mutant serves the stale short read
            }
            if r == 0 {
                return Err("primary returned a short read".to_string());
            }
            // Patch the lagging tail from the primary.
            let patch_off = piece.off + bytes.len() as u64;
            let patch_want = piece.want - bytes.len() as u64;
            let Ok((patch, _)) = self.ds[0].read_local(self.meta.id, patch_off, patch_want) else {
                continue;
            };
            if patch.len() as u64 == patch_want {
                let mut out = bytes;
                out.extend_from_slice(&patch);
                return Ok(out);
            }
        }
        Err(format!(
            "no replica could serve [{}, {})",
            piece.off,
            piece.off + piece.want
        ))
    }

    fn plan_pieces(&self, size: u64) -> Vec<Piece> {
        let mut pieces = Vec::new();
        if size == 0 {
            return pieces;
        }
        let last_chunk = (size - 1) / CHUNK;
        for chunk in 0..=last_chunk {
            let off = chunk * CHUNK;
            let want = CHUNK.min(size - off);
            let is_last = chunk == last_chunk;
            let host = if self.scenario.strong && is_last {
                if self.scenario.mutant == Mutant::StaleLastChunkRead {
                    1 // served stale from a secondary
                } else {
                    0 // §3.4: the primary
                }
            } else {
                (chunk as usize) % REPLICAS
            };
            pieces.push(Piece {
                off,
                want,
                host,
                is_last,
            });
        }
        pieces
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
                    let size = self
                        .ns
                        .lookup(FILE)
                        .expect("file exists for the whole run")
                        .size;
                    self.phases[c] = Phase::Pieces {
                        call,
                        pieces: self.plan_pieces(size),
                        next: 0,
                        acc: Vec::new(),
                    };
                    self.queue.schedule(SimTime::ZERO, c);
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
            Phase::Pieces {
                call,
                pieces,
                next,
                mut acc,
            } => {
                if next == pieces.len() {
                    self.history.respond(call, DataRet::Value(acc));
                    self.finish_op(c);
                    return;
                }
                match self.read_piece(&pieces[next]) {
                    Ok(bytes) => {
                        let short = (bytes.len() as u64) < pieces[next].want;
                        acc.extend_from_slice(&bytes);
                        if short {
                            // Only the stale-read mutant returns short:
                            // its value ends early.
                            self.history.respond(call, DataRet::Value(acc));
                            self.finish_op(c);
                        } else {
                            self.phases[c] = Phase::Pieces {
                                call,
                                pieces,
                                next: next + 1,
                                acc,
                            };
                            self.queue.schedule(SimTime::ZERO, c);
                        }
                    }
                    Err(why) => {
                        self.history.respond(call, DataRet::Failed(why));
                        self.finish_op(c);
                    }
                }
            }
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
            ns,
            ds,
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
        let (_, size) = run.ds[0]
            .read_local(run.meta.id, 0, 0)
            .expect("primary survives (disk is never lost)");
        let (primary, _) = run.ds[0]
            .read_local(run.meta.id, 0, size)
            .expect("primary content readable");

        ScheduleOutcome {
            verdict: check_append_read(&run.history, &primary, self.strong),
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
