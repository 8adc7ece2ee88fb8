//! Model-checking scenarios: the consistency-critical protocols
//! driven step-by-step through the controlled scheduler.
//!
//! Each scenario runs **real components** — the real [`mayflower_fs::
//! Nameserver`] over the real [`mayflower_kvstore::KvStore`], real
//! [`mayflower_fs::Dataserver`]s with real bytes on disk, the real
//! [`mayflower_flowserver`] flow tracker — but drives them through a
//! `simcore` event queue so that the scheduler hook decides the order
//! of same-timestamp steps. A scenario makes the calls the client makes
//! (a read runs the client's own read steps) as *separate events*: that
//! opens the interleaving space the checker explores, and the scenario
//! adds only the scheduling.
//!
//! Each scenario also supports **mutants**: deliberately broken
//! harness-level variants of the protocol (a stale last-chunk read, a
//! dropped append lock, a relay at the secondary's own end, an
//! off-by-one freeze expiry, an over-eager WAL truncation, a shard
//! handoff without fences) used to prove the checker catches real bug
//! classes within the CI budget.

mod data;
mod freeze;
mod ns;
mod shard;

pub use data::DataScenario;
pub use freeze::FreezeScenario;
pub use ns::NsMetaScenario;
pub use shard::ShardHandoffScenario;

use std::sync::Arc;

use mayflower_fs::{FsError, MetadataService, Redundancy};
use mayflower_net::{Topology, TreeParams};

use crate::lin::{MetaOp, MetaRet};
use crate::strategy::Chooser;

/// A deliberately broken protocol variant for checker validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutant {
    /// The real protocol.
    #[default]
    None,
    /// Nameserver crash recovery truncates the last *valid* WAL record
    /// (over-truncation: torn-tail scanning that drops one record too
    /// many), losing a committed metadata update.
    WalTornTail,
    /// Strong-consistency read serves the last chunk from a secondary
    /// replica without patching short reads from the primary (§3.4
    /// requires the primary): the client's read steps get a replica
    /// list that names a secondary as the primary.
    StaleLastChunkRead,
    /// Appends skip the per-file primary-ordering lock, so the size
    /// record can fall below an acknowledged size (§3.3.2 requires
    /// primary ordering).
    UnlockedAppend,
    /// A relay appends at the secondary's own end instead of the
    /// offset the primary assigned, so a secondary that missed a relay
    /// takes the next one where the missed bytes belong.
    RelayAtOwnEnd,
    /// The clock-side freeze-expiry sweep uses `now >= freeze_until`
    /// instead of the strict `now > freeze_until`, so a stats poll
    /// landing exactly on the boundary can clobber a frozen estimate
    /// (Pseudocode 2).
    FreezeExpiryBeforePoll,
    /// The sharded metadata plane skips its epoch and ownership fences
    /// after a shard handoff, so an old owner keeps answering for a
    /// moved key — once GC reclaims the source copies, a stale router
    /// observes a spurious not-found for a file that exists.
    ServeStaleAfterHandoff,
}

impl Mutant {
    /// Short stable label, used in scenario names and CI output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::WalTornTail => "wal-torn-tail",
            Mutant::StaleLastChunkRead => "stale-last-chunk-read",
            Mutant::UnlockedAppend => "unlocked-append",
            Mutant::RelayAtOwnEnd => "relay-at-own-end",
            Mutant::FreezeExpiryBeforePoll => "freeze-expiry-before-poll",
            Mutant::ServeStaleAfterHandoff => "serve-stale-after-handoff",
        }
    }
}

/// The verdict and trace of one fully executed schedule.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// `Ok` if the oracle accepted the history, else the violation.
    pub verdict: Result<(), String>,
    /// The run's history trace (the counterexample body).
    pub trace: String,
}

/// A checkable protocol: executes one complete schedule under the
/// given chooser and reports the oracle's verdict.
///
/// Runs must be deterministic functions of the decision sequence:
/// same decisions, same verdict, byte-identical trace.
pub trait Scenario {
    /// Stable name, including the mutant label.
    fn name(&self) -> String;
    /// Executes one schedule to completion.
    fn run(&self, chooser: &mut Chooser) -> ScheduleOutcome;
}

/// A fresh per-run scratch directory, removed on drop. Scenario runs
/// number in the thousands per checker invocation, so cleanup is not
/// optional; the name is process- and counter-unique so parallel test
/// binaries never collide.
pub(crate) struct RunDir {
    path: std::path::PathBuf,
}

impl RunDir {
    pub(crate) fn new(tag: &str) -> RunDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("mayflower-mcheck-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scenario scratch dir");
        RunDir { path }
    }

    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The fabric every scenario runs on: two pods of two racks of two
/// hosts, one aggregation switch per pod and one core.
fn small_topology() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        aggs_per_pod: 1,
        cores: 1,
        edge_capacity: 1e9,
        oversubscription: 1.0,
        edge_tier_oversub: 1.0,
    }))
}

/// Performs one metadata op on `plane` — a nameserver or a shard
/// router — and maps the refusals the scripts expect to their
/// returns; any other error is a harness bug.
fn exec(plane: &dyn MetadataService, op: &MetaOp) -> MetaRet {
    let map_err = |e: FsError| match e {
        FsError::NotFound(_) => MetaRet::ErrNotFound,
        FsError::AlreadyExists(_) => MetaRet::ErrAlreadyExists,
        other => panic!("unexpected metadata error in scenario: {other}"),
    };
    match op {
        MetaOp::Create(n) => plane
            .create_with(n, Redundancy::default())
            .map(|_| MetaRet::Created)
            .unwrap_or_else(map_err),
        MetaOp::Delete(n) => plane
            .delete(n)
            .map(|_| MetaRet::Deleted)
            .unwrap_or_else(map_err),
        MetaOp::Rename { from, to } => plane
            .rename(from, to, true)
            .map(|_| MetaRet::Renamed)
            .unwrap_or_else(map_err),
        MetaOp::RecordSize { name, size } => plane
            .record_size(name, *size)
            .map(|()| MetaRet::Recorded)
            .unwrap_or_else(map_err),
        MetaOp::Lookup(n) => plane
            .lookup(n)
            .map(|m| MetaRet::Found(m.size))
            .unwrap_or_else(map_err),
        MetaOp::Crash => unreachable!("a crash is the run loop's, not the plane's"),
    }
}
