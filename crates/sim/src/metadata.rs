//! The sharded-metadata scaling experiment (DESIGN.md §15).
//!
//! Two questions, one deterministic run:
//!
//! * **Does the metadata plane scale?** A fixed Zipf(ρ) op stream is
//!   replayed against consistent-hash rings of 1, 2, 4 and 8 shards.
//!   Each client holds a lease-backed LRU metadata cache, so the
//!   Zipf *head* — the few wildly popular files — is absorbed
//!   client-side and the shard-side load is the stream of cache
//!   misses over the popularity *tail*. Misses land on shards by the
//!   ring's arcs, which the virtual nodes keep near-uniform: the
//!   makespan is the most-loaded shard's queue, so throughput scales
//!   with the ring balance rather than stalling on the hottest key.
//!   The `uncached_*` columns replay the same stream without the
//!   client cache: the head then pins one shard and scaling flattens
//!   — the co-design argument for leases in one table.
//! * **Does flowserver-scheduled migration protect foreground
//!   traffic?** A live 4-shard [`ShardedNameserver`] (real KV-backed
//!   shards on disk) grows by one shard via the real [`migrate`]
//!   machinery. Every bulk-copy batch announces its `(source, dest,
//!   bytes)` transfer; the **scheduled** arm places each with
//!   [`select_migration_flow`] (Background priority, Eq. 2
//!   impact-aware cost, fully aware of the already-admitted
//!   foreground flows), the **unscheduled** arm hashes the identical
//!   transfers onto ECMP paths, blind to load. Both fluid fabrics
//!   carry byte-identical foreground flows, so any difference in
//!   foreground completion is purely migration placement.
//!
//! Everything derives from the seed: the same
//! [`MetadataScalingConfig`] always renders a byte-identical
//! [`MetadataScalingResult`] JSON.
//!
//! [`select_migration_flow`]: mayflower_flowserver::Flowserver::select_migration_flow

use std::path::Path as FsPath;
use std::sync::Arc;

use mayflower_flowserver::{Flowserver, FlowserverConfig, Selection};
use mayflower_fs::{FsError, MetadataService, Redundancy};
use mayflower_net::{ecmp_path, FlowKey, Topology, TreeParams};
use mayflower_shard::{
    migrate, FlowserverScheduler, MigrationReport, ShardMap, ShardPlaneConfig, ShardRouter,
    ShardedNameserver,
};
use mayflower_simcore::{SimRng, SimTime};
use mayflower_telemetry::Registry;
use mayflower_workload::Zipf;
use serde::{Deserialize, Serialize};

use crate::driver::{last_secs, mean_secs, Driver};

/// Driver tags: the migration's flows, and the foreground they run beside.
const MIGRATION: usize = 0;
const FOREGROUND: usize = 1;

/// Configuration of one metadata-scaling run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataScalingConfig {
    /// Seed for the op stream, client assignment and foreground
    /// traffic.
    pub seed: u64,
    /// Shard counts to sweep; the first entry is the speedup baseline.
    pub shard_counts: Vec<u32>,
    /// Virtual nodes per shard on every ring.
    pub vnodes: u32,
    /// Distinct file names the op stream draws from.
    pub files: usize,
    /// Metadata operations in the replayed stream.
    pub ops: usize,
    /// Zipf skewness of file popularity (the paper's ρ = 1.1).
    pub zipf_exponent: f64,
    /// Clients issuing the stream (each with its own cache).
    pub clients: usize,
    /// Per-client metadata-cache capacity, in entries. Must be well
    /// under `files` or the tail never misses.
    pub client_cache_files: usize,
    /// Service rate of one shard, in kops/s (scales absolute
    /// throughput only, never the speedups).
    pub shard_rate_kops: f64,
    /// Shards in the live plane before the migration phase grows it.
    pub migration_from_shards: u32,
    /// Files created in the live plane (the migration's keyspace).
    pub migration_files: usize,
    /// Keys per bulk-copy batch (each batch is one scheduled flow per
    /// source/dest host pair).
    pub migration_batch_keys: usize,
    /// Foreground flows in flight while the migration runs.
    pub foreground_flows: usize,
    /// Size of each foreground flow, in bits.
    pub foreground_bits: f64,
}

impl Default for MetadataScalingConfig {
    fn default() -> MetadataScalingConfig {
        MetadataScalingConfig {
            seed: 0x5A4D,
            shard_counts: vec![1, 2, 4, 8],
            vnodes: 128,
            files: 384,
            ops: 24_000,
            zipf_exponent: 1.1,
            clients: 8,
            client_cache_files: 48,
            shard_rate_kops: 50.0,
            migration_from_shards: 4,
            migration_files: 432,
            migration_batch_keys: 16,
            foreground_flows: 12,
            foreground_bits: 2.0e4,
        }
    }
}

/// Throughput of the plane at one shard count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardThroughputPoint {
    /// Shards on the ring.
    pub shards: u32,
    /// Ops absorbed by client caches (identical at every point —
    /// caching is per-client, not per-ring).
    pub cache_hits: u64,
    /// Ops that reached a shard.
    pub misses: u64,
    /// Misses landing on each shard, in shard-id order.
    pub per_shard_ops: Vec<u64>,
    /// The most-loaded shard's queue — the makespan driver.
    pub max_shard_ops: u64,
    /// Stream throughput in kops/s with lease caching on.
    pub throughput_kops: f64,
    /// Throughput relative to the first sweep point.
    pub speedup: f64,
    /// Most-loaded shard's queue when every op goes to its owner
    /// (no client caching: the Zipf head pins one shard).
    pub uncached_max_shard_ops: u64,
    /// Throughput without client caching.
    pub uncached_throughput_kops: f64,
    /// Uncached throughput relative to the first sweep point.
    pub uncached_speedup: f64,
}

/// One migration arm's interaction with foreground traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationArm {
    /// Migration flows admitted to the fabric.
    pub migration_flows: usize,
    /// Mean completion of the foreground flows, seconds.
    pub fg_mean_secs: f64,
    /// Completion of the last migration flow, seconds.
    pub migration_secs: f64,
}

/// The deterministic outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataScalingResult {
    /// The knobs that produced this result.
    pub config: MetadataScalingConfig,
    /// One point per entry of `shard_counts`.
    pub points: Vec<ShardThroughputPoint>,
    /// What the live-plane migration moved.
    pub migration: MigrationReport,
    /// Keys in the plane before and after (must match: a migration
    /// loses nothing).
    pub files_before: usize,
    /// See `files_before`.
    pub files_after: usize,
    /// Migration placed by the flowserver ([`select_migration_flow`]).
    ///
    /// [`select_migration_flow`]: mayflower_flowserver::Flowserver::select_migration_flow
    pub scheduled: MigrationArm,
    /// The identical transfers hashed onto ECMP paths.
    pub unscheduled: MigrationArm,
}

impl MetadataScalingResult {
    /// Deterministic JSON rendering — two same-config runs are
    /// byte-identical.
    ///
    /// # Panics
    ///
    /// Never — the result contains no non-serializable values.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("result serializes")
    }
}

/// Popularity rank → file name (shared by both phases, so the ring
/// hashes the exact strings clients would use).
fn meta_name(rank: usize) -> String {
    format!("meta/f{rank:04}")
}

/// A per-client LRU over popularity ranks — the model of the lease
/// cache: a hit answers locally, a miss goes to the owning shard.
struct LruCache {
    entries: Vec<usize>,
    capacity: usize,
}

impl LruCache {
    fn new(capacity: usize) -> LruCache {
        LruCache {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Touches `rank`; returns whether it was already cached.
    fn touch(&mut self, rank: usize) -> bool {
        if let Some(pos) = self.entries.iter().position(|r| *r == rank) {
            self.entries.remove(pos);
            self.entries.push(rank);
            return true;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(rank);
        false
    }
}

/// Replays the shared op stream against an `n`-shard ring, with and
/// without the client caches.
fn sweep_point(
    cfg: &MetadataScalingConfig,
    stream: &[(usize, usize)],
    names: &[String],
    shards: u32,
) -> ShardThroughputPoint {
    let ring = ShardMap::initial(shards, cfg.vnodes).ring();
    let ids = ring.shards();
    let slot = |name: &str| {
        let owner = ring.owner(name);
        ids.iter().position(|id| *id == owner).expect("ring member")
    };
    // Owners are a pure function of the name: resolve each rank once.
    let owner_of_rank: Vec<usize> = names.iter().map(|n| slot(n)).collect();

    let mut caches: Vec<LruCache> = (0..cfg.clients)
        .map(|_| LruCache::new(cfg.client_cache_files))
        .collect();
    let mut cached_load = vec![0u64; ids.len()];
    let mut uncached_load = vec![0u64; ids.len()];
    let mut hits = 0u64;
    for (client, rank) in stream {
        uncached_load[owner_of_rank[*rank]] += 1;
        if caches[*client].touch(*rank) {
            hits += 1;
        } else {
            cached_load[owner_of_rank[*rank]] += 1;
        }
    }

    let rate = cfg.shard_rate_kops * 1000.0;
    let throughput = |max_load: u64| {
        // The makespan is the most-loaded shard's queue; the stream's
        // throughput is its length over that makespan.
        stream.len() as f64 / (max_load.max(1) as f64 / rate) / 1000.0
    };
    let max_shard_ops = cached_load.iter().copied().max().unwrap_or(0);
    let uncached_max_shard_ops = uncached_load.iter().copied().max().unwrap_or(0);
    ShardThroughputPoint {
        shards,
        cache_hits: hits,
        misses: stream.len() as u64 - hits,
        per_shard_ops: cached_load,
        max_shard_ops,
        throughput_kops: throughput(max_shard_ops),
        speedup: 0.0, // filled against the sweep baseline
        uncached_max_shard_ops,
        uncached_throughput_kops: throughput(uncached_max_shard_ops),
        uncached_speedup: 0.0,
    }
}

/// Runs one arm's fabric empty and reads off how the foreground and
/// the `migration_flows` admitted beside it fared.
fn finish_arm(fabric: &mut Driver, migration_flows: usize) -> MigrationArm {
    let done = fabric.drain();
    MigrationArm {
        migration_flows,
        fg_mean_secs: mean_secs(&done, FOREGROUND),
        migration_secs: last_secs(&done, MIGRATION),
    }
}

/// Runs the experiment; `dir` hosts the live plane's on-disk shards.
///
/// # Errors
///
/// Returns filesystem errors from plane setup, the creates, or the
/// migration phases; the throughput sweep itself never fails.
///
/// # Panics
///
/// Panics if the config is degenerate (no shard counts, no clients,
/// or zero ops).
pub fn run_metadata_scaling(
    cfg: &MetadataScalingConfig,
    dir: &FsPath,
) -> Result<MetadataScalingResult, FsError> {
    assert!(!cfg.shard_counts.is_empty(), "sweep needs shard counts");
    assert!(cfg.clients > 0 && cfg.ops > 0, "sweep needs a stream");

    // One shared op stream: every sweep point replays the identical
    // (client, rank) sequence, so points differ only by the ring.
    let mut rng = SimRng::seed_from(cfg.seed);
    let zipf = Zipf::new(cfg.files, cfg.zipf_exponent);
    let stream: Vec<(usize, usize)> = (0..cfg.ops)
        .map(|_| {
            let client = (rng.next_u64() as usize) % cfg.clients;
            (client, zipf.sample(&mut rng))
        })
        .collect();
    let names: Vec<String> = (0..cfg.files).map(meta_name).collect();

    let mut points: Vec<ShardThroughputPoint> = cfg
        .shard_counts
        .iter()
        .map(|n| sweep_point(cfg, &stream, &names, *n))
        .collect();
    let base = points[0].throughput_kops;
    let uncached_base = points[0].uncached_throughput_kops;
    for p in &mut points {
        p.speedup = p.throughput_kops / base;
        p.uncached_speedup = p.uncached_throughput_kops / uncached_base;
    }

    // The migration phase: a real plane on disk, grown by one shard.
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let registry = Registry::new();
    let plane = Arc::new(ShardedNameserver::open(
        dir,
        Arc::clone(&topo),
        ShardPlaneConfig {
            shards: cfg.migration_from_shards,
            vnodes: cfg.vnodes,
            ..ShardPlaneConfig::default()
        },
        &registry,
    )?);
    let router = ShardRouter::new(Arc::clone(&plane), &registry.scope("shard_router"));
    for i in 0..cfg.migration_files {
        let meta = router.create_with(&meta_name(i), Redundancy::default())?;
        router.record_size(&meta.name, 1 + (i as u64 % 7) * 4096)?;
    }
    let files_before = plane.file_count();

    // Foreground flows first: both fabrics carry the identical set,
    // and the flowserver commits them, so the scheduled arm must place
    // migration traffic *around* flows it knows about. The foreground
    // is the cluster's data reads — random host pairs crossing the
    // oversubscribed tiers, where migration path choice can collide
    // with them.
    let t0 = SimTime::ZERO;
    let hosts = topo.hosts();
    let fsrv = Flowserver::new(Arc::clone(&topo), FlowserverConfig::default());
    let mut sched = Driver::new(&topo, Some(fsrv));
    let mut ecmp = Driver::new(&topo, None);
    let pick = |rng: &mut SimRng| hosts[(rng.next_u64() as usize) % hosts.len()];
    for _ in 0..cfg.foreground_flows {
        let src = pick(&mut rng);
        let mut dst = pick(&mut rng);
        if dst == src {
            dst = hosts[(hosts.iter().position(|h| *h == src).unwrap() + 1) % hosts.len()];
        }
        if let Selection::Single(a) =
            sched
                .flowserver()
                .select_path_for_replica(dst, src, cfg.foreground_bits, t0)
        {
            sched.admit(
                FOREGROUND,
                a.path.clone(),
                cfg.foreground_bits,
                Some(a.cookie),
                t0,
            );
            ecmp.admit(FOREGROUND, a.path, cfg.foreground_bits, None, t0);
        }
    }

    // One real migration; its scheduler records every placement.
    let grown = {
        let map = plane.shard_map();
        map.with_shard_added(map.next_shard_id())
    };
    let mut scheduler = FlowserverScheduler::new(sched.flowserver(), t0);
    let migration = migrate(
        &plane,
        grown,
        cfg.migration_batch_keys,
        Some(&mut scheduler),
    )?;
    let selections = scheduler.selections;
    let files_after = plane.file_count();

    // Scheduled arm: the flowserver's paths. Unscheduled arm: the
    // byte-identical transfers hashed onto ECMP, blind to load.
    let (mut sched_flows, mut ecmp_flows) = (0, 0);
    for (i, (src, dst, bits, sel)) in selections.into_iter().enumerate() {
        if let Selection::Single(a) = sel {
            sched.admit(MIGRATION, a.path, bits, Some(a.cookie), t0);
            sched_flows += 1;
        }
        if let Some(path) = ecmp_path(&topo, FlowKey::new(src, dst, i as u64)) {
            ecmp.admit(MIGRATION, path, bits, None, t0);
            ecmp_flows += 1;
        }
    }
    let scheduled = finish_arm(&mut sched, sched_flows);
    let unscheduled = finish_arm(&mut ecmp, ecmp_flows);

    Ok(MetadataScalingResult {
        config: cfg.clone(),
        points,
        migration,
        files_before,
        files_after,
        scheduled,
        unscheduled,
    })
}

#[cfg(test)]
mod tests {
    use mayflower_simcore::testutil::TempDir;

    use super::*;

    fn quick() -> MetadataScalingConfig {
        MetadataScalingConfig {
            ops: 12_000,
            migration_files: 96,
            ..MetadataScalingConfig::default()
        }
    }

    #[test]
    fn cached_plane_scales_and_uncached_head_pins_a_shard() {
        let dir = TempDir::new("scaling");
        let r = run_metadata_scaling(&quick(), dir.path()).unwrap();
        assert_eq!(r.points.len(), 4);
        let at = |n: u32| r.points.iter().find(|p| p.shards == n).unwrap();
        // The acceptance gate: ≥3× from 1 to 4 shards under Zipf.
        assert!(
            at(4).speedup >= 3.0,
            "1→4 shard speedup {:.2} below 3×",
            at(4).speedup
        );
        assert!(at(2).speedup > 1.5, "1→2 speedup {:.2}", at(2).speedup);
        assert!(
            at(8).speedup > at(4).speedup,
            "8 shards must beat 4 ({:.2} vs {:.2})",
            at(8).speedup,
            at(4).speedup
        );
        // Caching is per-client: every point sees the same hit count,
        // and the hits are the Zipf head (well over a third of ops).
        assert!(r.points.iter().all(|p| p.cache_hits == at(1).cache_hits));
        assert!(at(1).cache_hits as f64 > 0.33 * quick().ops as f64);
        // Without the cache the head pins one shard: scaling flattens
        // visibly below the cached arm.
        assert!(
            at(4).uncached_speedup < at(4).speedup,
            "uncached {:.2} should trail cached {:.2}",
            at(4).uncached_speedup,
            at(4).speedup
        );
    }

    #[test]
    fn migration_moves_keys_and_scheduled_arm_protects_foreground() {
        let dir = TempDir::new("arms");
        let r = run_metadata_scaling(&quick(), dir.path()).unwrap();
        // The migration really ran, lost nothing, and reclaimed its
        // source copies.
        assert!(r.migration.keys_copied > 0);
        assert_eq!(r.migration.keys_gced, r.migration.keys_copied);
        assert_eq!(r.files_before, r.files_after);
        assert!(r.scheduled.migration_flows > 0);
        // The arms move the identical transfer list.
        assert_eq!(r.scheduled.migration_flows, r.unscheduled.migration_flows);
        // The co-design gate: flowserver-scheduled migration never
        // slows foreground flows more than blind hashing does.
        assert!(
            r.scheduled.fg_mean_secs <= r.unscheduled.fg_mean_secs + 1e-12,
            "scheduled fg {} vs unscheduled fg {}",
            r.scheduled.fg_mean_secs,
            r.unscheduled.fg_mean_secs
        );
        assert!(r.scheduled.migration_secs > 0.0);
        assert!(r.unscheduled.migration_secs > 0.0);
    }

    #[test]
    fn same_seed_runs_render_byte_identical_json() {
        let one = TempDir::new("det-a");
        let two = TempDir::new("det-b");
        let a = run_metadata_scaling(&quick(), one.path()).unwrap();
        let b = run_metadata_scaling(&quick(), two.path()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }
}
