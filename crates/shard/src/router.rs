//! The shard router: what a [`Client`](mayflower_fs::Client) actually
//! talks to on a sharded plane.
//!
//! A router caches the [`ShardMap`] (and its materialized ring) under a
//! **lease**: within the lease it routes every operation locally — no
//! coordinator, no extra round trip — and stamps the request with the
//! cached epoch. The plane's fences catch both ways the cache can go
//! wrong (old epoch, moved key); either rejection makes the router
//! refresh the map and retry, so correctness never depends on the
//! lease at all. The lease only bounds how long a router keeps
//! *trying* stale routes, i.e. it is a performance knob, exactly like
//! the client's metadata-cache TTL one layer up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mayflower_fs::{FileMeta, FsError, MetadataService, NsOp, Redundancy};
use mayflower_telemetry::trace::{self, TraceHandle};
use mayflower_telemetry::{Counter, Scope};
use parking_lot::Mutex;

use crate::map::ShardMap;
use crate::plane::{ShardError, ShardedNameserver};
use crate::ring::{HashRing, ShardId};

/// How many fence rejections one operation rides out before giving up.
/// Each rejection refreshes the map, so more than a couple only happens
/// under pathological map churn.
const MAX_ROUTE_RETRIES: usize = 4;

struct CachedMap {
    map: ShardMap,
    ring: HashRing,
    fetched: Instant,
}

/// Router telemetry, shared across all routers of a registry scope.
struct RouterMetrics {
    refreshes: Arc<Counter>,
    routed_ops: Arc<Counter>,
}

/// A lease-caching shard router. Implements [`MetadataService`], so a
/// standard `Client` works unchanged against a sharded plane.
pub struct ShardRouter {
    plane: Arc<ShardedNameserver>,
    cached: Mutex<CachedMap>,
    lease: Mutex<Duration>,
    metrics: RouterMetrics,
    /// Tracing handle for route/refresh spans (DESIGN.md §17); `None`
    /// keeps routing trace-free.
    trace: Mutex<Option<TraceHandle>>,
}

impl ShardRouter {
    /// A router over `plane`, registering its telemetry under
    /// `scope` (conventionally `registry.scope("shard_router")`).
    /// The default lease is 60 seconds.
    #[must_use]
    pub fn new(plane: Arc<ShardedNameserver>, scope: &Scope) -> ShardRouter {
        let map = plane.shard_map();
        let ring = map.ring();
        ShardRouter {
            plane,
            cached: Mutex::new(CachedMap {
                map,
                ring,
                fetched: Instant::now(),
            }),
            lease: Mutex::new(Duration::from_secs(60)),
            metrics: RouterMetrics {
                refreshes: scope.counter("map_refreshes_total"),
                routed_ops: scope.counter("routed_ops_total"),
            },
            trace: Mutex::new(None),
        }
    }

    /// Attaches a tracing handle: routed operations running under a
    /// traced op then leave `route` spans (shard, epoch, stale
    /// retries) and map refreshes leave `refresh` spans.
    pub fn attach_trace(&self, handle: TraceHandle) {
        *self.trace.lock() = Some(handle);
    }

    /// A child span of the ambient traced op, if tracing is on.
    fn span(&self, name: &str) -> Option<trace::ActiveSpan> {
        self.trace.lock().as_ref()?.child(name)
    }

    /// Sets the shard-map lease. A zero lease refreshes before every
    /// operation (useful in tests); long leases lean entirely on the
    /// plane's fences.
    pub fn set_lease(&self, lease: Duration) {
        *self.lease.lock() = lease;
    }

    /// The router's cached map epoch (what it stamps requests with).
    #[must_use]
    pub fn cached_epoch(&self) -> u64 {
        self.cached.lock().map.epoch
    }

    /// Re-fetches the map from the plane.
    fn refresh(&self) {
        let mut span = self.span("refresh");
        let map = self.plane.shard_map();
        trace::annotate(&mut span, "epoch", map.epoch.to_string());
        let mut cached = self.cached.lock();
        self.metrics.refreshes.inc();
        if map.epoch != cached.map.epoch {
            cached.ring = map.ring();
            cached.map = map;
        }
        cached.fetched = Instant::now();
    }

    /// The cached route for `name`, refreshing first if the lease
    /// expired.
    fn route(&self, name: &str) -> (ShardId, u64) {
        let lease = *self.lease.lock();
        {
            let cached = self.cached.lock();
            if cached.fetched.elapsed() < lease {
                return (cached.ring.owner(name), cached.map.epoch);
            }
        }
        self.refresh();
        let cached = self.cached.lock();
        (cached.ring.owner(name), cached.map.epoch)
    }

    /// Routes one operation, riding out fence rejections by refreshing
    /// and retrying.
    fn with_route<T>(
        &self,
        name: &str,
        op: impl Fn(ShardId, u64) -> Result<T, ShardError>,
    ) -> Result<T, FsError> {
        self.metrics.routed_ops.inc();
        trace::in_span(self.span("route"), |span| {
            trace::annotate(span, "file", name);
            for attempt in 0..MAX_ROUTE_RETRIES {
                let (shard, epoch) = self.route(name);
                if attempt == 0 {
                    trace::annotate(span, "shard", shard.0.to_string());
                    trace::annotate(span, "epoch", epoch.to_string());
                }
                match op(shard, epoch) {
                    Ok(v) => return Ok(v),
                    Err(ShardError::StaleMap { .. } | ShardError::NotOwner { .. }) => {
                        trace::annotate(
                            span,
                            "stale_retry",
                            format!("attempt={attempt} shard={} epoch={epoch}", shard.0),
                        );
                        self.refresh();
                    }
                    Err(ShardError::Fs(e)) => return Err(e),
                }
            }
            Err(FsError::Unavailable(
                "shard map churned through every routing retry".into(),
            ))
        })
    }

    /// Sends `op` to the shard that owns the first of the names it
    /// touches.
    fn submit(&self, op: &NsOp) -> Result<Option<FileMeta>, FsError> {
        self.with_route(op.names().0, |shard, epoch| {
            self.plane.submit_at(shard, epoch, op)
        })
    }
}

impl MetadataService for ShardRouter {
    fn create_with(&self, name: &str, redundancy: Redundancy) -> Result<FileMeta, FsError> {
        self.with_route(name, |shard, epoch| {
            self.plane.create_with_at(shard, epoch, name, redundancy)
        })
    }

    fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
        self.with_route(name, |shard, epoch| {
            self.plane.lookup_at(shard, epoch, name)
        })
    }

    fn record_size(&self, name: &str, size: u64) -> Result<(), FsError> {
        let op = NsOp::RecordSize {
            name: name.to_string(),
            size,
        };
        self.submit(&op).map(drop)
    }

    fn record_seal(&self, name: &str, sealed_chunks: u64) -> Result<(), FsError> {
        let op = NsOp::RecordSeal {
            name: name.to_string(),
            sealed_chunks,
        };
        self.submit(&op).map(drop)
    }

    fn rename(&self, old: &str, new: &str, overwrite: bool) -> Result<Option<FileMeta>, FsError> {
        if self.route(old).0 == self.route(new).0 {
            // One shard owns both names — always so for `old == new` —
            // and renames atomically under every guard of the rule
            // book. A handoff that splits the two names mid-call is
            // fenced off by the plane and surfaces as `Unavailable`; a
            // retry then takes the cross-shard path below.
            let op = NsOp::Rename {
                from: old.to_string(),
                to: new.to_string(),
                overwrite,
            };
            return self.submit(&op);
        }
        // `old` and `new` live on different shards, so the rename
        // decomposes into lookup(old) → displace(new) → create(new) →
        // delete(old). Unlike the single-shard rename this is not
        // atomic: a concurrent reader can observe both names (never
        // neither — the new entry lands before the old one is removed).
        // The steps answer in the rule book's order of checks (empty
        // target, missing source, existing target), so an input that is
        // wrong twice gets the verdict one nameserver gives it.
        if new.is_empty() {
            return Err(FsError::InvalidArgument("target name is empty".into()));
        }
        let meta = self.lookup(old)?;
        let displaced = match self.lookup(new) {
            Ok(existing) => {
                if !overwrite {
                    return Err(FsError::AlreadyExists(new.to_string()));
                }
                self.delete(new)?;
                Some(existing)
            }
            Err(FsError::NotFound(_)) => None,
            Err(e) => return Err(e),
        };
        let mut moved = meta;
        moved.name = new.to_string();
        self.submit(&NsOp::Create(moved))?;
        self.delete(old)?;
        Ok(displaced)
    }

    fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
        self.submit(&NsOp::Delete(name.to_string()))?
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = self.cached.lock();
        f.debug_struct("ShardRouter")
            .field("cached_epoch", &cached.map.epoch)
            .field("shards", &cached.map.shards.len())
            .finish()
    }
}
