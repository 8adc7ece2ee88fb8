//! The Mayflower reproduction's benchmark: four workloads, sixteen
//! end-to-end metrics and an outside-in per-layer breakdown. See
//! `README.md` in this directory.

pub mod adapters;
pub mod affinity;
pub mod ctlphase;
pub mod datadir;
pub mod fsphase;
pub mod gen;
pub mod layers;
pub mod ops;
pub mod phase;
pub mod report;
pub mod run;
pub mod simphase;
pub mod spans;
pub mod stats;
