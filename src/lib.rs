#![warn(missing_docs)]

//! **Mayflower** — a from-scratch Rust reproduction of
//! *"Mayflower: Improving Distributed Filesystem Performance Through
//! SDN/Filesystem Co-Design"* (Rizvi, Li, Wong, Cao, Cassell; ICDCS
//! 2016).
//!
//! Mayflower is a GFS/HDFS-style distributed filesystem co-designed
//! with a software-defined-networking control plane: a **Flowserver**
//! inside the SDN controller models per-flow bandwidth from edge-switch
//! counters and performs *joint* replica + network-path selection that
//! minimizes the increase in total read completion time across the
//! cluster — including splitting one read across multiple replicas
//! when the aggregate bandwidth wins.
//!
//! This crate re-exports the whole workspace; see each module for its
//! subsystem:
//!
//! | module | subsystem |
//! |---|---|
//! | [`net`] | datacenter topologies, shortest paths, ECMP, fair-share math |
//! | [`simnet`] | fluid flow-level network simulator (max-min rates) |
//! | [`sdn`] | flow cookies, the counter interface, stats reports |
//! | [`flowserver`] | the paper's contribution: cost-based replica–path selection |
//! | [`fs`] | the distributed filesystem: nameserver, dataservers, client |
//! | [`recovery`] | failure detection, prioritized re-replication, repair scheduling |
//! | [`kvstore`] | persistent KV store backing the nameserver (LevelDB substitute) |
//! | [`rpc`] | control-message transport (Thrift substitute) |
//! | [`baselines`] | Nearest and Sinbad-R replica selection |
//! | [`workload`] | Poisson/Zipf/staggered-locality workload synthesis |
//! | [`shard`] | sharded metadata plane: hash ring, routers, online migration |
//! | [`sim`] | experiment harness regenerating every paper figure |
//! | [`simcore`] | deterministic discrete-event kernel |
//! | [`telemetry`] | metrics registry, causal tracing, critical paths |
//! | [`mcheck`] | schedule-exploration model checker with linearizability oracle |
//!
//! # Quickstart
//!
//! ```
//! use mayflower::fs::{Cluster, ClusterConfig};
//! use mayflower::net::{HostId, Topology, TreeParams};
//!
//! # fn main() -> Result<(), mayflower::fs::FsError> {
//! let topo = Topology::three_tier(&TreeParams::paper_testbed());
//! let dir = std::env::temp_dir().join(format!("mayflower-lib-doc-{}", std::process::id()));
//! let cluster = Cluster::create(&dir, topo.into(), ClusterConfig::default())?;
//! let mut client = cluster.client(HostId(0));
//! client.create("hello")?;
//! client.append("hello", b"mayflower")?;
//! assert_eq!(client.read("hello")?, b"mayflower");
//! # drop(client); drop(cluster); std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! Run the evaluation with `cargo run --release -p mayflower-sim --bin
//! figures` and the benchmarks with `cargo bench`.

pub use mayflower_baselines as baselines;
pub use mayflower_flowserver as flowserver;
pub use mayflower_fs as fs;
pub use mayflower_kvstore as kvstore;
pub use mayflower_mcheck as mcheck;
pub use mayflower_net as net;
pub use mayflower_recovery as recovery;
pub use mayflower_rpc as rpc;
pub use mayflower_sdn as sdn;
pub use mayflower_shard as shard;
pub use mayflower_sim as sim;
pub use mayflower_simcore as simcore;
pub use mayflower_simnet as simnet;
pub use mayflower_telemetry as telemetry;
pub use mayflower_workload as workload;
