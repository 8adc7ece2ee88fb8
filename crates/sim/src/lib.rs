#![warn(missing_docs)]

//! End-to-end experiment harness for the Mayflower reproduction.
//!
//! This crate wires every substrate together — topology ([`mayflower_net`]),
//! fluid network simulator ([`mayflower_simnet`]), the counter
//! interface ([`mayflower_sdn`]), the Flowserver ([`mayflower_flowserver`]),
//! the baseline selectors ([`mayflower_baselines`]) and the workload
//! generator ([`mayflower_workload`]) — into the experiments of the
//! paper's §6:
//!
//! * [`engine::replay`] — replays a traffic matrix under a
//!   [`Strategy`], producing per-job completion records;
//!   [`engine::replay_full`] adds hooks, options, faults and returns
//!   everything the run produced ([`ReplayOutput`]).
//! * `driver` (crate-private) — the one owner of the simulated fabric:
//!   the fluid network, the Flowserver scheduling it and the flow ↔ job
//!   ↔ cookie maps. The engine and every other experiment here admit,
//!   retire, abort and poll flows through it and nowhere else.
//! * [`ExperimentConfig`] — one topology × workload × strategy × seed
//!   run.
//! * [`figures`] — one function per paper figure (4, 5, 6a, 6b, 7,
//!   plus the §4.3 multipath ablation); the `figures` binary prints
//!   them as tables and JSON.
//! * [`stats`] — means, percentiles, Student-t and Fieller intervals.
//!
//! # Example
//!
//! ```no_run
//! use mayflower_sim::{ExperimentConfig, Strategy};
//!
//! let mut cfg = ExperimentConfig::default();
//! cfg.strategy = Strategy::Mayflower;
//! let result = cfg.run();
//! println!("mean read completion: {:.2}s", result.summary.mean);
//! ```

pub mod ablation;
pub mod consistency;
mod driver;
pub mod engine;
pub mod erasure;
pub mod experiment;
pub mod faults;
pub mod figures;
pub mod hotspots;
pub mod metadata;
pub mod monitor;
pub mod proto;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod stats;
pub mod strategy;
pub mod timeline;
pub mod topologies;
pub mod writes;

pub use engine::{
    replay, replay_full, replay_with_telemetry, JobRecord, ReplayOptions, ReplayOutput,
};
pub use erasure::{
    run_erasure, ErasureExperimentConfig, ErasureRunResult, RepairSample, StorageFootprint,
};
pub use experiment::{ExperimentConfig, RunResult};
pub use faults::{FaultAction, FaultEvent, FaultReport, FaultSchedule, FaultScheduleParams};
pub use metadata::{
    run_metadata_scaling, MetadataScalingConfig, MetadataScalingResult, MigrationArm,
    ShardThroughputPoint,
};
pub use monitor::LinkLoadMonitor;
pub use recovery::{run_recovery_chaos, HealthSample, RecoveryExperimentConfig, RecoveryRunResult};
pub use stats::{fieller_ratio_ci, percentile, RatioCi, Summary};
pub use strategy::Strategy;
pub use timeline::{timeline, TimelineArm, TimelineReport};
