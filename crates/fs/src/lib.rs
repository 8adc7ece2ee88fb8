#![warn(missing_docs)]

//! The Mayflower distributed filesystem (§3 and §5 of the paper).
//!
//! Mayflower stores a modest number of large files, replicated at the
//! **file** level across dataservers placed in distinct fault domains.
//! Files are partitioned into large numbered chunks; mutation is
//! **append-only** (random writes are emulated at the application
//! layer with copy-and-move), which is what makes client-side metadata
//! caching and cheap strong-consistency reads possible.
//!
//! Components, mirroring Figure 1 of the paper:
//!
//! * [`Nameserver`] — file → chunks and file → dataservers mappings in
//!   a persistent KV store ([`mayflower_kvstore`], the LevelDB
//!   substitute), replica placement at creation time, rebuild from
//!   dataserver metadata after an unclean restart. It is also the
//!   namespace's one rule book: every mutation is an [`NsOp`] that
//!   [`Nameserver::apply`] validates and makes under one lock hold,
//!   after a create's decide step has drawn its UUID and placement.
//!   The shard plane carries ops to it and restates none of its rules.
//! * [`Dataserver`] — stores each file as a directory named by its
//!   UUID containing numbered chunk files plus a metadata file;
//!   services one append at a time per file; serves concurrent reads.
//! * [`Cluster`] — an in-process deployment: one dataserver per
//!   topology host plus the nameserver, with primary-relayed appends.
//! * [`Client`] — HDFS-like API (`create` / `append` / `read` /
//!   `delete`) with metadata caching and a pluggable
//!   [`ReplicaSelector`] so reads can be steered by the Flowserver,
//!   by rack-awareness, or round-robin.
//! * [`remote`] — the nameserver exposed over the RPC layer (the
//!   paper's Thrift interface), for multi-process deployments.
//!
//! Consistency (§3.4): [`Consistency::Sequential`] (default) lets any
//! replica serve any chunk because the primary orders all appends;
//! [`Consistency::Strong`] additionally routes **last-chunk** reads to
//! the primary — every other chunk is immutable, so strong consistency
//! costs one replica restriction on one chunk only.
//!
//! # Example
//!
//! ```
//! use mayflower_fs::{Cluster, ClusterConfig};
//! use mayflower_net::{HostId, Topology, TreeParams};
//!
//! # fn main() -> Result<(), mayflower_fs::FsError> {
//! let topo = Topology::three_tier(&TreeParams::paper_testbed());
//! let dir = std::env::temp_dir().join(format!("mayfs-doc-{}", std::process::id()));
//! let cluster = Cluster::create(&dir, topo.into(), ClusterConfig::default())?;
//! let mut client = cluster.client(HostId(0));
//! client.create("logs/part-0000")?;
//! client.append("logs/part-0000", b"hello ")?;
//! client.append("logs/part-0000", b"world")?;
//! assert_eq!(client.read("logs/part-0000")?, b"hello world");
//! # drop(client); drop(cluster); std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod chunk;
pub mod client;
pub mod cluster;
mod coding;
mod datapath;
pub mod dataserver;
pub mod error;
pub mod nameserver;
pub mod remote;
pub mod selector;
pub mod service;
pub mod types;

pub use client::Client;
pub use cluster::{Cluster, ClusterConfig};
pub use dataserver::{Dataserver, RepairSource};
pub use error::FsError;
pub use nameserver::{Nameserver, NameserverConfig, NsOp, PLACEMENT};
pub use selector::{
    FallbackSelector, NearestSelector, PrimarySelector, ReadAssignment, ReplicaSelector,
    SplitSelector,
};
pub use service::MetadataService;
pub use types::{Consistency, FileId, FileMeta, Redundancy};
