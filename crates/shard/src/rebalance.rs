//! Online shard migration: hot-shard detection, minimal-disruption
//! ring changes, batched key streaming, and the atomic flip.
//!
//! A handoff runs in three phases, mirroring every production resharder
//! (Dynamo, Vitess, CRDB) in miniature:
//!
//! 1. **Bulk copy** ([`Handoff::copy_batch`]): the moved key range is
//!    streamed to the new owner in batches *without* blocking clients —
//!    sources keep serving reads and writes; copies may go stale.
//!    Each batch reports the `(source host, dest host, bytes)`
//!    transfers it performed so the caller can register them with the
//!    flowserver at `Background` priority — the co-design point: bulk
//!    metadata transfer rides the same scheduled paths as repair
//!    traffic and never competes with foreground reads.
//! 2. **Flip** ([`Handoff::flip`]): under the plane's write lock —
//!    client ops excluded — the short delta since the bulk copy is
//!    reconciled (stale copies refreshed, deleted keys dropped), and
//!    the new map installs with its epoch bump. The lock is held for
//!    the *delta*, not the keyspace: that is what the bulk phase buys.
//! 3. **GC** ([`Handoff::gc`]): moved keys are deleted at their old
//!    owners. Old owners are unreachable for those keys already (the
//!    ownership fence re-checks the ring on every op), so this is pure
//!    space reclamation — and the window the model checker's
//!    serve-from-old-owner mutant exploits.

use mayflower_flowserver::{Flowserver, Selection};
use mayflower_fs::{FileMeta, FsError, Nameserver, NsOp};
use mayflower_net::HostId;
use mayflower_simcore::SimTime;
use serde::{Deserialize, Serialize};

use crate::map::ShardMap;
use crate::plane::ShardedNameserver;
use crate::ring::{HashRing, ShardId};

/// Where rebalancing traffic gets its network paths: schedules each
/// batch transfer with the flowserver at `Background` priority,
/// reusing the repair-flow machinery (joint path selection under Eq. 2
/// against the current network state).
pub struct FlowserverScheduler<'a> {
    /// The flowserver making path decisions.
    pub flowserver: &'a mut Flowserver,
    /// The sim-time the transfers start.
    pub now: SimTime,
    /// Every selection made, in call order: `(src, dst, bits,
    /// selection)` — experiments replay these into the fluid network.
    pub selections: Vec<(HostId, HostId, f64, Selection)>,
}

impl<'a> FlowserverScheduler<'a> {
    /// A scheduler issuing selections at `now`.
    #[must_use]
    pub fn new(flowserver: &'a mut Flowserver, now: SimTime) -> FlowserverScheduler<'a> {
        FlowserverScheduler {
            flowserver,
            now,
            selections: Vec::new(),
        }
    }

    /// Called once per `(source host, dest host)` transfer of each
    /// copied batch, before the bytes move.
    fn schedule_batch(&mut self, src: HostId, dst: HostId, bytes: u64) {
        if bytes == 0 || src == dst {
            return;
        }
        let bits = bytes as f64 * 8.0;
        let sel = self
            .flowserver
            .select_migration_flow(dst, &[src], bits, self.now);
        self.selections.push((src, dst, bits, sel));
    }
}

/// What a completed migration did. Serializable and fully
/// deterministic, so experiment reports embedding it stay
/// byte-identical across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Epoch before the flip.
    pub from_epoch: u64,
    /// Epoch after the flip.
    pub to_epoch: u64,
    /// Keys streamed during the bulk phase.
    pub keys_copied: u64,
    /// Serialized metadata bytes streamed during the bulk phase.
    pub bytes_copied: u64,
    /// Bulk batches (each one scheduling call per source).
    pub batches: u64,
    /// Keys refreshed or added by the flip's delta reconcile.
    pub keys_reconciled: u64,
    /// Stale source copies reclaimed by GC.
    pub keys_gced: u64,
}

/// One key scheduled to move.
struct MoveEntry {
    name: String,
    from: ShardId,
    to: ShardId,
}

/// The serialized size of a metadata entry — the unit migration
/// traffic is measured in.
fn meta_bytes(meta: &FileMeta) -> u64 {
    serde_json::to_vec(meta)
        .map(|v| v.len() as u64)
        .unwrap_or(0)
}

/// Copies `meta` into `dest`, replacing in one step any older copy of
/// the same name (a previous batch's now-stale version).
fn upsert(dest: &Nameserver, meta: &FileMeta) -> Result<(), FsError> {
    let op = match dest.lookup(&meta.name) {
        Ok(existing) if existing == *meta => return Ok(()),
        Ok(_) => NsOp::Replace(meta.clone()),
        Err(FsError::NotFound(_)) => NsOp::Create(meta.clone()),
        Err(e) => return Err(e),
    };
    dest.apply(&op).map(drop)
}

/// A stepwise shard handoff (see module docs). Built by
/// [`Handoff::begin`]; drive it with `copy_batch` until exhausted,
/// then `flip`, then `gc` — or let [`migrate`] run all three.
pub struct Handoff<'a> {
    plane: &'a ShardedNameserver,
    old_ring: HashRing,
    new_map: ShardMap,
    new_ring: HashRing,
    pending: Vec<MoveEntry>,
    cursor: usize,
    batch_keys: usize,
    flipped: bool,
    report: MigrationReport,
}

impl<'a> Handoff<'a> {
    /// Prepares a handoff to `new_map`: opens the nameservers of
    /// ring-joining shards and snapshots the keys the ring change
    /// moves.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::InvalidArgument`] unless `new_map` is the
    /// direct successor of the plane's current map (one epoch ahead).
    pub fn begin(
        plane: &'a ShardedNameserver,
        new_map: ShardMap,
        batch_keys: usize,
    ) -> Result<Handoff<'a>, FsError> {
        let old_map = plane.shard_map();
        if new_map.epoch != old_map.epoch + 1 {
            return Err(FsError::InvalidArgument(format!(
                "handoff target epoch {} is not the successor of {}",
                new_map.epoch, old_map.epoch
            )));
        }
        for id in &new_map.shards {
            if !old_map.shards.contains(id) {
                plane.add_shard(*id)?;
            }
        }
        let old_ring = old_map.ring();
        let new_ring = new_map.ring();
        let mut pending = Vec::new();
        for from in &old_map.shards {
            let metas = plane
                .with_shard(*from, Nameserver::list)
                .unwrap_or_default();
            for meta in metas {
                let to = new_ring.owner(&meta.name);
                if to != *from {
                    pending.push(MoveEntry {
                        name: meta.name,
                        from: *from,
                        to,
                    });
                }
            }
        }
        let from_epoch = old_map.epoch;
        let to_epoch = new_map.epoch;
        Ok(Handoff {
            plane,
            old_ring,
            new_map,
            new_ring,
            pending,
            cursor: 0,
            batch_keys: batch_keys.max(1),
            flipped: false,
            report: MigrationReport {
                from_epoch,
                to_epoch,
                keys_copied: 0,
                bytes_copied: 0,
                batches: 0,
                keys_reconciled: 0,
                keys_gced: 0,
            },
        })
    }

    /// Keys still waiting for the bulk phase.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.cursor
    }

    /// Streams the next batch of moved keys to their new owners while
    /// clients keep running. Returns the `(source host, dest host,
    /// bytes)` transfers performed — aggregated per host pair — or an
    /// empty list when the bulk phase is done.
    ///
    /// # Errors
    ///
    /// Propagates destination-shard write failures.
    pub fn copy_batch(&mut self) -> Result<Vec<(HostId, HostId, u64)>, FsError> {
        if self.cursor >= self.pending.len() {
            return Ok(Vec::new());
        }
        let end = (self.cursor + self.batch_keys).min(self.pending.len());
        let mut transfers: Vec<(HostId, HostId, u64)> = Vec::new();
        for i in self.cursor..end {
            let entry = &self.pending[i];
            // Re-read the live source copy: the snapshot may be stale,
            // and the key may have been deleted since (then there is
            // nothing to copy — the flip reconciles deletions).
            let Some(Ok(meta)) = self
                .plane
                .with_shard(entry.from, |ns| ns.lookup(&entry.name))
            else {
                continue;
            };
            self.plane
                .with_shard(entry.to, |ns| upsert(ns, &meta))
                .unwrap_or_else(|| {
                    Err(FsError::InvalidArgument(format!(
                        "destination {} has no nameserver",
                        entry.to
                    )))
                })?;
            let bytes = meta_bytes(&meta);
            self.report.keys_copied += 1;
            self.report.bytes_copied += bytes;
            let src = self.plane.shard_host(entry.from).unwrap_or(HostId(0));
            let dst = self.plane.shard_host(entry.to).unwrap_or(HostId(0));
            match transfers
                .iter_mut()
                .find(|(s, d, _)| *s == src && *d == dst)
            {
                Some((_, _, b)) => *b += bytes,
                None => transfers.push((src, dst, bytes)),
            }
        }
        self.cursor = end;
        self.report.batches += 1;
        Ok(transfers)
    }

    /// Atomically installs the new map: under the plane's write lock,
    /// reconciles the delta since the bulk copy (stale copies
    /// refreshed, source-side deletions propagated) and bumps the
    /// epoch. After `flip` returns, every fenced operation routes by
    /// the new ring.
    ///
    /// # Errors
    ///
    /// Propagates reconcile write failures; the map does not install
    /// if reconciliation fails.
    pub fn flip(&mut self) -> Result<(), FsError> {
        assert!(!self.flipped, "a handoff flips once");
        let new_ring = self.new_ring.clone();
        let old_ring = self.old_ring.clone();
        let old_shards = old_ring.shards();
        let mut reconciled = 0u64;
        self.plane.install_map(&self.new_map, |st| {
            // Pass 1: every key whose owner changes gets its live
            // source version upserted at the destination.
            for from in &old_shards {
                let Some(src) = st.shard(*from) else { continue };
                for meta in src.list() {
                    let to = new_ring.owner(&meta.name);
                    if to == *from {
                        continue;
                    }
                    let dest = st.shard(to).ok_or_else(|| {
                        FsError::InvalidArgument(format!("destination {to} has no nameserver"))
                    })?;
                    match dest.lookup(&meta.name) {
                        Ok(existing) if existing == meta => {}
                        _ => {
                            upsert(dest, &meta)?;
                            reconciled += 1;
                        }
                    }
                }
            }
            // Pass 2: a key copied in bulk then deleted at its source
            // must not resurrect — drop destination copies whose
            // source no longer has the name.
            for to in new_ring.shards() {
                if old_shards.contains(&to) {
                    continue; // only ring-joining shards receive keys
                }
                let Some(dest) = st.shard(to) else { continue };
                for meta in dest.list() {
                    let from = old_ring.owner(&meta.name);
                    let gone = st.shard(from).is_none_or(|s| s.lookup(&meta.name).is_err());
                    if gone {
                        dest.apply(&NsOp::Delete(meta.name))?;
                        reconciled += 1;
                    }
                }
            }
            Ok(())
        })?;
        self.report.keys_reconciled = reconciled;
        self.flipped = true;
        Ok(())
    }

    /// Reclaims the moved keys' stale copies at their old owners.
    /// Callable only after [`Handoff::flip`]; old owners are already
    /// unreachable for these keys, so this changes no visible state.
    ///
    /// # Errors
    ///
    /// Propagates source-shard delete failures.
    pub fn gc(&mut self) -> Result<u64, FsError> {
        assert!(self.flipped, "gc runs after the flip");
        let mut gced = 0u64;
        for from in self.old_ring.shards() {
            let metas = self
                .plane
                .with_shard(from, Nameserver::list)
                .unwrap_or_default();
            for meta in metas {
                if self.new_ring.owner(&meta.name) != from {
                    let delete = NsOp::Delete(meta.name);
                    match self.plane.with_shard(from, |ns| ns.apply(&delete)) {
                        Some(Ok(_)) => gced += 1,
                        Some(Err(FsError::NotFound(_))) | None => {}
                        Some(Err(e)) => return Err(e),
                    }
                }
            }
        }
        self.report.keys_gced = gced;
        Ok(gced)
    }

    /// The report accumulated so far (complete after `gc`).
    #[must_use]
    pub fn report(&self) -> &MigrationReport {
        &self.report
    }
}

/// Runs a complete handoff to `new_map`: bulk batches (each one
/// announced to `scheduler` before its bytes move), the flip, then GC.
///
/// # Errors
///
/// Propagates [`Handoff`] phase failures.
pub fn migrate(
    plane: &ShardedNameserver,
    new_map: ShardMap,
    batch_keys: usize,
    mut scheduler: Option<&mut FlowserverScheduler<'_>>,
) -> Result<MigrationReport, FsError> {
    let mut handoff = Handoff::begin(plane, new_map, batch_keys)?;
    loop {
        let transfers = handoff.copy_batch()?;
        if transfers.is_empty() && handoff.remaining() == 0 {
            break;
        }
        if let Some(s) = scheduler.as_deref_mut() {
            for (src, dst, bytes) in &transfers {
                s.schedule_batch(*src, *dst, *bytes);
            }
        }
    }
    handoff.flip()?;
    handoff.gc()?;
    Ok(handoff.report().clone())
}

/// Hot-shard detection over the plane's telemetry op counters.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// A shard is hot when its op count exceeds `hot_factor` × the
    /// mean across shards.
    pub hot_factor: f64,
    /// Keys per bulk-copy batch.
    pub batch_keys: usize,
    /// Minimum total ops before any shard can be called hot (no
    /// rebalancing on noise).
    pub min_total_ops: u64,
}

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        RebalanceConfig {
            hot_factor: 1.5,
            batch_keys: 64,
            min_total_ops: 1000,
        }
    }
}

/// Plans and executes minimal-disruption ring changes when a shard
/// runs hot.
#[derive(Debug, Clone, Default)]
pub struct Rebalancer {
    config: RebalanceConfig,
}

impl Rebalancer {
    /// A rebalancer with the given thresholds.
    #[must_use]
    pub fn new(config: RebalanceConfig) -> Rebalancer {
        Rebalancer { config }
    }

    /// Scans the per-shard op counters; if some shard is hot, returns
    /// the successor map that adds one shard (the minimal-disruption
    /// change: only ~`1/(n+1)` of keys re-home).
    #[must_use]
    pub fn plan(&self, plane: &ShardedNameserver) -> Option<ShardMap> {
        let stats = plane.shard_stats();
        if stats.is_empty() {
            return None;
        }
        let total: u64 = stats.iter().map(|(_, _, ops)| ops).sum();
        if total < self.config.min_total_ops {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let mean = total as f64 / stats.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let hot = stats
            .iter()
            .any(|(_, _, ops)| *ops as f64 > self.config.hot_factor * mean);
        if !hot {
            return None;
        }
        let map = plane.shard_map();
        Some(map.with_shard_added(map.next_shard_id()))
    }

    /// [`Rebalancer::plan`] + [`migrate`]: detects, streams, flips.
    /// Returns `None` when no shard is hot.
    ///
    /// # Errors
    ///
    /// Propagates migration failures.
    pub fn rebalance(
        &self,
        plane: &ShardedNameserver,
        scheduler: Option<&mut FlowserverScheduler<'_>>,
    ) -> Result<Option<MigrationReport>, FsError> {
        match self.plan(plane) {
            None => Ok(None),
            Some(new_map) => migrate(plane, new_map, self.config.batch_keys, scheduler).map(Some),
        }
    }
}
