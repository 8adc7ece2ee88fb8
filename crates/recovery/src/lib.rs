#![warn(missing_docs)]

//! Autonomous recovery for the Mayflower filesystem: failure
//! detection, prioritized re-replication, and flowserver-scheduled
//! repair traffic.
//!
//! PR 1 gave the repo deterministic fault injection and PR 2 gave it
//! telemetry; this crate closes the loop so the system heals itself.
//! It is the co-design thesis applied to the control plane's **own**
//! traffic: repair flows compete with client reads for the same
//! links, so the repair planner asks the Flowserver for a joint
//! source-replica + path selection with the same Eq. 1–2 cost model
//! used for reads (PAPER.md §4), at background priority.
//!
//! The pipeline, one [`RecoveryManager::tick`] per heartbeat interval:
//!
//! 1. [`FailureDetector`] — a heartbeat registry with sim-time
//!    deadlines. A silent dataserver becomes *suspect*, then
//!    confirmed *dead*. It is the system's only record of liveness;
//!    every later stage reads it directly.
//! 2. [`tracker::scan`] — derives the under-replicated set from
//!    nameserver metadata plus detector state, ordered most urgent
//!    first (fewest live replicas, then name). Coded files surface
//!    fragments stranded on dead hosts as a [`CodedLoss`].
//! 3. [`RepairPlanner`] — picks replacement destinations through the
//!    cluster's [`PlacementPolicy`] (preserving the HDFS-style
//!    fault-domain invariants) and consults the Flowserver for the
//!    source replica and network path of every repair flow.
//! 4. [`RepairExecutor`] — a throttled queue that performs the
//!    dataserver-to-dataserver pulls and commits repaired locations
//!    back to the nameserver; client metadata caches observe the new
//!    replica sets through their existing invalidation path.
//!
//! Everything is driven by [`SimTime`](mayflower_simcore::SimTime)
//! and a seeded rng: the same seed and the same fault schedule
//! produce a byte-identical [`RecoveryReport`].

pub mod detector;
pub mod executor;
pub mod manager;
pub mod planner;
pub mod report;
pub mod tracker;

pub use detector::{FailureDetector, HealthState, StateTransition};
pub use executor::{CompletedRepair, ExecutorConfig, RepairExecutor, RepairOutcome};
pub use manager::{RecoveryConfig, RecoveryManager};
pub use mayflower_workload::PlacementPolicy;
pub use planner::{PlannedRepair, RepairPlanner, RepairTask};
pub use report::RecoveryReport;
pub use tracker::{CodedLoss, UnderReplicated};
