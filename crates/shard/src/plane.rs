//! The sharded metadata plane: many independent nameservers, one
//! epoch-fenced routing contract.
//!
//! [`ShardedNameserver`] owns a set of shards (each a [`Nameserver`]),
//! the authoritative [`ShardMap`], and its materialized ring. It
//! decides *where* an op runs, never *whether* it is allowed: a fenced
//! op is the owning nameserver's own call, and `submit_at` is its
//! [`Nameserver::apply`] on the [`NsOp`] as given. Every
//! client-path operation arrives stamped with the shard the caller
//! believes owns the key **and** the map epoch that belief came from;
//! the plane rejects the call with [`ShardError::StaleMap`] or
//! [`ShardError::NotOwner`] when either is out of date. Routers treat
//! both rejections identically — refresh the map, retry — which is the
//! whole correctness story for lookups racing a shard handoff: an old
//! owner can never serve a moved key, because ownership is re-checked
//! under the same lock that migration's atomic flip takes to install
//! the new ring.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mayflower_fs::nameserver::NameserverConfig;
use mayflower_fs::{FileMeta, FsError, Nameserver, NsOp, Redundancy};
use mayflower_net::{HostId, Topology};
use mayflower_telemetry::{Counter, Scope};

use crate::map::ShardMap;
use crate::ring::{HashRing, ShardId};

/// Configuration for a sharded metadata plane.
#[derive(Debug, Clone)]
pub struct ShardPlaneConfig {
    /// Initial shard count.
    pub shards: u32,
    /// Virtual nodes per shard (64+ for the balance bound the ring
    /// proptests pin).
    pub vnodes: u32,
    /// Per-shard nameserver settings (replication, chunk size,
    /// placement, and the seed each shard's own is derived from) —
    /// every shard places replicas over the same topology.
    pub nameserver: NameserverConfig,
}

impl Default for ShardPlaneConfig {
    fn default() -> ShardPlaneConfig {
        ShardPlaneConfig {
            shards: 4,
            vnodes: 64,
            nameserver: NameserverConfig::default(),
        }
    }
}

/// Why the plane refused (or failed) an operation.
#[derive(Debug)]
pub enum ShardError {
    /// The caller's shard-map epoch is stale; refresh and retry.
    StaleMap {
        /// The epoch the plane is currently at.
        current_epoch: u64,
    },
    /// The addressed shard no longer owns the key under the current
    /// ring (a handoff moved it); refresh and retry.
    NotOwner {
        /// The shard that owns the key now.
        owner: ShardId,
    },
    /// The owning shard executed the operation and it failed.
    Fs(FsError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::StaleMap { current_epoch } => {
                write!(f, "stale shard map (plane is at epoch {current_epoch})")
            }
            ShardError::NotOwner { owner } => write!(f, "key now owned by {owner}"),
            ShardError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A shard: its nameserver, the host it is modeled to run on (the
/// endpoint migration flows are scheduled against), and its op counter
/// (the rebalancer's heat signal).
struct Shard {
    ns: Nameserver,
    host: HostId,
    ops: Arc<Counter>,
}

pub(crate) struct PlaneState {
    map: ShardMap,
    ring: HashRing,
    /// Every shard with a nameserver. A superset of `map.shards` during
    /// migration: the destination's nameserver exists (and is receiving
    /// copied keys) before the flip makes it ring-visible.
    shards: BTreeMap<ShardId, Shard>,
}

/// The sharded metadata plane (see module docs).
pub struct ShardedNameserver {
    topo: Arc<Topology>,
    dir: PathBuf,
    config: ShardPlaneConfig,
    state: RwLock<PlaneState>,
    /// The registry scope `shard`: one `ops_total{shard}` counter per
    /// shard, the rebalancer's heat signal.
    metrics: Scope,
    /// Testing-only fault injection for the model checker's
    /// serve-from-old-owner-after-handoff mutant: when set, the plane
    /// skips the epoch and ownership checks and blindly serves from
    /// whichever shard the caller addressed.
    serve_stale_after_handoff: AtomicBool,
}

impl ShardedNameserver {
    /// Opens (or creates) a plane rooted at `dir`: `dir/shardmap.json`
    /// holds the map, `dir/shard-<id>` each shard's database. An
    /// existing map on disk wins over `config.shards`/`config.vnodes`
    /// so a re-opened plane keeps its post-migration layout.
    ///
    /// # Errors
    ///
    /// Returns an error if directories cannot be created, or
    /// [`FsError::CorruptMetadata`] if an existing map fails to parse
    /// or describes no ring (no shards, ids not strictly ascending, or
    /// a vnode count out of range).
    pub fn open(
        dir: &Path,
        topo: Arc<Topology>,
        config: ShardPlaneConfig,
        registry: &mayflower_telemetry::Registry,
    ) -> Result<ShardedNameserver, FsError> {
        std::fs::create_dir_all(dir).map_err(FsError::Io)?;
        let map_path = dir.join("shardmap.json");
        let map = if map_path.exists() {
            ShardMap::decode(&std::fs::read(&map_path).map_err(FsError::Io)?)?
        } else {
            ShardMap::initial(config.shards, config.vnodes)
        };
        let ids = map.shards.clone();
        let plane = ShardedNameserver {
            topo,
            dir: dir.to_path_buf(),
            state: RwLock::new(PlaneState {
                ring: map.ring(),
                shards: BTreeMap::new(),
                map,
            }),
            metrics: registry.scope("shard"),
            config,
            serve_stale_after_handoff: AtomicBool::new(false),
        };
        for id in ids {
            let shard = plane.build_shard(id)?;
            plane.write().shards.insert(id, shard);
        }
        plane.persist_map()?;
        Ok(plane)
    }

    /// The plane state, shared. Every write to it is one assignment or
    /// insert made after everything that can fail (`install_map` builds
    /// the ring before it touches `map`), so a panic while the lock was
    /// held leaves nothing half-written: a poisoned lock's state is
    /// used as it stands, as the vendored `parking_lot::Mutex` does.
    fn read(&self) -> RwLockReadGuard<'_, PlaneState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plane state, exclusive (see [`ShardedNameserver::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, PlaneState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens one shard's nameserver at `dir/shard-<id>`.
    fn build_shard(&self, id: ShardId) -> Result<Shard, FsError> {
        let shard_dir = self.dir.join(format!("shard-{}", id.0));
        // Every shard must draw a distinct randomness stream: shards
        // share the cluster's dataservers, so two nameservers seeded
        // identically would mint colliding file ids.
        let mut ns_config = self.config.nameserver.clone();
        ns_config.seed ^= 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(id.0) + 1);
        let ns = Nameserver::open(self.topo.clone(), &shard_dir, ns_config)?;
        let hosts = self.topo.hosts();
        // Stride adjacent shard ids apart so co-resident shards (and
        // the migration traffic between them) do not share a rack
        // up-link; odd strides stay coprime with the power-of-two
        // host counts of the tree topologies.
        let stride = (hosts.len() / 4).max(1) | 1;
        Ok(Shard {
            ns,
            host: hosts[(id.0 as usize).wrapping_mul(stride) % hosts.len()],
            ops: self
                .metrics
                .counter_with("ops_total", &[("shard", &id.0.to_string())]),
        })
    }

    /// Writes the current map to `shardmap.json` (atomic rename).
    fn persist_map(&self) -> Result<(), FsError> {
        let body = {
            let st = self.read();
            serde_json::to_string_pretty(&st.map)
                .map_err(|e| FsError::CorruptMetadata(e.to_string()))?
        };
        let tmp = self.dir.join("shardmap.json.tmp");
        std::fs::write(&tmp, body).map_err(FsError::Io)?;
        std::fs::rename(&tmp, self.dir.join("shardmap.json")).map_err(FsError::Io)?;
        Ok(())
    }

    /// The current shard map — what routers cache under their lease.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
        self.read().map.clone()
    }

    /// The current map epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.read().map.epoch
    }

    /// The topology every shard places replicas over.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The host a shard is modeled to run on (`None` for unknown ids).
    #[must_use]
    pub fn shard_host(&self, id: ShardId) -> Option<HostId> {
        self.read().shards.get(&id).map(|s| s.host)
    }

    /// Per-shard `(id, files, ops served)` in id order — the input to
    /// the rebalancer's heat scan and to `mayfs shards`.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<(ShardId, usize, u64)> {
        let st = self.read();
        st.map
            .shards
            .iter()
            .map(|id| {
                let s = &st.shards[id];
                (*id, s.ns.file_count(), s.ops.get())
            })
            .collect()
    }

    /// Every file across every ring-member shard, name-sorted.
    #[must_use]
    pub fn list(&self) -> Vec<FileMeta> {
        let st = self.read();
        let mut all: Vec<FileMeta> = st
            .map
            .shards
            .iter()
            .flat_map(|id| st.shards[id].ns.list())
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Total files across ring-member shards.
    #[must_use]
    pub fn file_count(&self) -> usize {
        let st = self.read();
        st.map
            .shards
            .iter()
            .map(|id| st.shards[id].ns.file_count())
            .sum()
    }

    /// Testing-only fault injection (the model checker's
    /// serve-from-old-owner-after-handoff mutant): disables the epoch
    /// and ownership fences so a stale router keeps hitting the old
    /// owner after a handoff. Never enable outside tests.
    pub fn inject_serve_stale_after_handoff(&self, on: bool) {
        self.serve_stale_after_handoff.store(on, Ordering::Relaxed);
    }

    /// Runs one fenced operation against `shard`'s nameserver: verifies
    /// the caller's epoch and the shard's ownership of every name in
    /// `names` under the read lock, then executes.
    fn fenced<T>(
        &self,
        shard: ShardId,
        epoch: u64,
        names: (&str, Option<&str>),
        op: impl FnOnce(&Nameserver) -> Result<T, FsError>,
    ) -> Result<T, ShardError> {
        let st = self.read();
        if !self.serve_stale_after_handoff.load(Ordering::Relaxed) {
            if epoch != st.map.epoch {
                return Err(ShardError::StaleMap {
                    current_epoch: st.map.epoch,
                });
            }
            for name in std::iter::once(names.0).chain(names.1) {
                let owner = st.ring.owner(name);
                if owner != shard {
                    return Err(ShardError::NotOwner { owner });
                }
            }
        }
        let Some(s) = st.shards.get(&shard) else {
            return Err(ShardError::NotOwner {
                owner: st.ring.owner(names.0),
            });
        };
        s.ops.inc();
        op(&s.ns).map_err(ShardError::Fs)
    }

    /// Fenced create: the owning shard's [`Nameserver::create_with`],
    /// which decides the UUID and placement, then applies the
    /// [`NsOp::Create`].
    ///
    /// # Errors
    ///
    /// [`ShardError::StaleMap`] / [`ShardError::NotOwner`] demand a
    /// refresh-and-retry; [`ShardError::Fs`] is the operation's error.
    pub fn create_with_at(
        &self,
        shard: ShardId,
        epoch: u64,
        name: &str,
        redundancy: Redundancy,
    ) -> Result<FileMeta, ShardError> {
        self.fenced(shard, epoch, (name, None), |ns| {
            ns.create_with(name, redundancy)
        })
    }

    /// Fenced namespace op: `shard` validates and applies `op` (see
    /// [`Nameserver::apply`]) if it owns every name the op touches —
    /// for a rename, both.
    ///
    /// # Errors
    ///
    /// See [`ShardedNameserver::create_with_at`].
    pub fn submit_at(
        &self,
        shard: ShardId,
        epoch: u64,
        op: &NsOp,
    ) -> Result<Option<FileMeta>, ShardError> {
        self.fenced(shard, epoch, op.names(), |ns| ns.apply(op))
    }

    /// Fenced lookup.
    ///
    /// # Errors
    ///
    /// See [`ShardedNameserver::create_with_at`].
    pub fn lookup_at(
        &self,
        shard: ShardId,
        epoch: u64,
        name: &str,
    ) -> Result<FileMeta, ShardError> {
        self.fenced(shard, epoch, (name, None), |ns| ns.lookup(name))
    }

    // ---- migration internals (used by crate::rebalance) ----

    /// Opens the nameserver of a ring-joining shard so migration can
    /// stream keys into it before the flip makes it ring-visible.
    pub(crate) fn add_shard(&self, id: ShardId) -> Result<(), FsError> {
        let shard = self.build_shard(id)?;
        self.write().shards.entry(id).or_insert(shard);
        Ok(())
    }

    /// Runs `f` on a shard's nameserver, bypassing the fences —
    /// migration's bulk copy reads the source while clients keep
    /// mutating it; the flip reconciles the delta.
    pub(crate) fn with_shard<T>(&self, id: ShardId, f: impl FnOnce(&Nameserver) -> T) -> Option<T> {
        self.read().shard(id).map(f)
    }

    /// Atomically installs a new map (and its ring) while reconciling
    /// the destination shards under the write lock: `reconcile` runs
    /// with every client op excluded, sees the authoritative source
    /// state, and returns the per-key moves it applied. The epoch bump
    /// and the ownership change become visible to clients in the same
    /// instant.
    pub(crate) fn install_map<T>(
        &self,
        new_map: &ShardMap,
        reconcile: impl FnOnce(&PlaneState) -> Result<T, FsError>,
    ) -> Result<T, FsError> {
        let ring = new_map.ring();
        let mut st = self.write();
        debug_assert!(new_map.epoch > st.map.epoch, "epochs advance monotonically");
        let out = reconcile(&st)?;
        st.map = new_map.clone();
        st.ring = ring;
        drop(st);
        self.persist_map()?;
        Ok(out)
    }
}

impl PlaneState {
    /// A shard's nameserver by id (ring member or migration
    /// destination).
    pub(crate) fn shard(&self, id: ShardId) -> Option<&Nameserver> {
        self.shards.get(&id).map(|s| &s.ns)
    }
}

impl std::fmt::Debug for ShardedNameserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.read();
        f.debug_struct("ShardedNameserver")
            .field("epoch", &st.map.epoch)
            .field("shards", &st.map.shards.len())
            .field("vnodes", &st.map.vnodes)
            .finish()
    }
}
