#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! The sharded metadata plane (DESIGN.md §15): partitioned
//! nameservers behind a deterministic consistent-hash ring,
//! lease/epoch-based client routing, and flowserver-scheduled shard
//! migration.
//!
//! Mayflower's nameserver is centralized (§3.1 of the paper). This
//! crate partitions the namespace across many independent nameserver
//! shards:
//!
//! * [`HashRing`] / [`ShardMap`] — the deterministic routing state:
//!   virtual-node consistent hashing over file names, versioned by an
//!   epoch.
//! * [`ShardedNameserver`] — the plane: one [`Nameserver`] per shard,
//!   with every client operation fenced by `(epoch, ownership)`
//!   checks. The plane has no namespace rules of its own: a mutation
//!   is an [`NsOp`] that `submit_at` hands, once fenced, to the owning
//!   shard's [`Nameserver::apply`]; `create_with_at` is that shard's
//!   `create_with`.
//! * [`ShardRouter`] — the client side: caches the map under a lease,
//!   implements [`MetadataService`] so a plain
//!   `Client` works unchanged, builds the op for each call, and rides
//!   out fence rejections with refresh-and-retry. A rename whose names
//!   share a shard is one atomic op there; across shards it is
//!   lookup → displace → create → delete.
//! * [`Rebalancer`] / [`Handoff`] — online migration: hot-shard
//!   detection from telemetry, minimal-disruption ring growth, batched
//!   key streaming scheduled through the flowserver at `Background`
//!   priority, an atomic epoch flip, and GC.
//! * [`ShardedCluster`] — a full filesystem deployment whose metadata
//!   plane is sharded: dataservers and the append path come from
//!   [`Cluster`], clients route metadata through per-client routers.
//!
//! [`Nameserver`]: mayflower_fs::Nameserver
//! [`Nameserver::apply`]: mayflower_fs::Nameserver::apply
//! [`NsOp`]: mayflower_fs::NsOp
//! [`MetadataService`]: mayflower_fs::MetadataService
//! [`Cluster`]: mayflower_fs::Cluster

pub mod map;
pub mod plane;
pub mod rebalance;
pub mod ring;
pub mod router;

use std::path::Path;
use std::sync::Arc;

use mayflower_fs::{Client, Cluster, ClusterConfig, FsError};
use mayflower_net::{HostId, Topology};

pub use map::ShardMap;
pub use plane::{ShardError, ShardPlaneConfig, ShardedNameserver};
pub use rebalance::{
    migrate, FlowserverScheduler, Handoff, MigrationReport, RebalanceConfig, Rebalancer,
};
pub use ring::{hash_name, HashRing, ShardId};
pub use router::ShardRouter;

/// A filesystem cluster whose metadata plane is sharded: the data path
/// (dataservers, append relay, repair) is a standard [`Cluster`], and
/// every client gets its own [`ShardRouter`] over the shared plane.
pub struct ShardedCluster {
    cluster: Cluster,
    plane: Arc<ShardedNameserver>,
}

impl ShardedCluster {
    /// Creates a sharded deployment rooted at `dir`: the data-path
    /// cluster under `dir`, the metadata plane under `dir/shards`.
    ///
    /// # Errors
    ///
    /// Propagates directory and database creation failures.
    pub fn create(
        dir: &Path,
        topo: Arc<Topology>,
        cluster_config: ClusterConfig,
        plane_config: ShardPlaneConfig,
    ) -> Result<ShardedCluster, FsError> {
        let cluster = Cluster::create(dir, topo.clone(), cluster_config)?;
        let plane = Arc::new(ShardedNameserver::open(
            &dir.join("shards"),
            topo,
            plane_config,
            cluster.registry(),
        )?);
        Ok(ShardedCluster { cluster, plane })
    }

    /// The underlying data-path cluster.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The shared metadata plane.
    #[must_use]
    pub fn plane(&self) -> &Arc<ShardedNameserver> {
        &self.plane
    }

    /// A client on `host` whose metadata operations route through a
    /// fresh [`ShardRouter`] (its own lease cache, like a real
    /// client-side library instance).
    #[must_use]
    pub fn client(&self, host: HostId) -> Client {
        let router = Arc::new(ShardRouter::new(
            self.plane.clone(),
            &self.cluster.registry().scope("shard_router"),
        ));
        self.cluster.client_with_meta(host, router)
    }

    /// A client plus a handle to its router, for tests that tune the
    /// lease or watch the cached epoch.
    #[must_use]
    pub fn client_with_router(&self, host: HostId) -> (Client, Arc<ShardRouter>) {
        let router = Arc::new(ShardRouter::new(
            self.plane.clone(),
            &self.cluster.registry().scope("shard_router"),
        ));
        (self.cluster.client_with_meta(host, router.clone()), router)
    }
}

impl std::fmt::Debug for ShardedCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("plane", &self.plane)
            .finish()
    }
}
