//! The Mayflower client library (§5): an HDFS-like API with metadata
//! caching and pluggable read selection.

use std::collections::HashMap;
use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_telemetry::trace::{self, TraceHandle};
use mayflower_telemetry::{Counter, Scope};

use crate::coding;
use crate::datapath::{self, DataPlane, Piece, ReportedSizes, RetryPolicy};
use crate::error::FsError;
use crate::selector::ReplicaSelector;
use crate::service::MetadataService;
use crate::types::{Consistency, FileMeta, Redundancy};

/// Metadata-cache telemetry. Handles come from the cluster registry,
/// so every client of a cluster aggregates into the same series.
#[derive(Debug)]
pub(crate) struct ClientMetrics {
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl ClientMetrics {
    pub(crate) fn new(scope: &Scope) -> ClientMetrics {
        ClientMetrics {
            cache_hits: scope.counter("cache_hits_total"),
            cache_misses: scope.counter("cache_misses_total"),
        }
    }
}

/// A filesystem client bound to one host.
///
/// Clients cache file metadata: append-only semantics guarantee that
/// existing file→chunk map entries never change (§3.3), so a cached
/// entry can only be *behind* (missing recent appends), never wrong —
/// and the dataserver reports the current size with every read result,
/// which the client uses to discover appended data.
pub struct Client {
    host: HostId,
    nameserver: Arc<dyn MetadataService>,
    /// The dataservers, append locks and shared metrics of the cluster.
    plane: Arc<DataPlane>,
    consistency: Consistency,
    selector: Box<dyn ReplicaSelector>,
    cache: HashMap<String, (FileMeta, std::time::Instant)>,
    /// Expiry for cached file→dataservers mappings. The chunk map is
    /// safe to cache forever under append-only semantics, but replica
    /// locations can change (re-replication after failures), so the
    /// paper prescribes "cache expiry times that depend on the mean
    /// time between replica migration and node failure" (§3.3).
    cache_ttl: std::time::Duration,
    metrics: ClientMetrics,
    /// How a retryable ([`FsError::Unavailable`]) operation is retried
    /// before the error propagates.
    retry: RetryPolicy,
    /// Worker-pool width for a coded read's fragment fetches; 1 runs
    /// them serially inline. Replicated pieces and appends never use
    /// the pool.
    parallelism: usize,
    /// Client-side tracing: op roots (`create`/`append`/`read`) and
    /// their direct children open here.
    trace: TraceHandle,
}

/// Default data-plane pool width: a fixed small fan-out rather than a
/// function of core count. The dataservers are in-process, so the pool
/// overlaps page-cache copies on a multi-core host and disk waits on a
/// real disk, not network round trips (DESIGN.md §16).
const DEFAULT_PARALLELISM: usize = 4;

/// Metadata-cache capacity: inserting past it evicts the entry closest
/// to expiry, so a client touching a large namespace cannot grow
/// without bound. A cached entry is ~a FileMeta, so even at the cap the
/// cache stays well under a megabyte.
const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl Client {
    /// Assembles a client. Use [`crate::Cluster::client`] in normal
    /// deployments.
    #[must_use]
    pub(crate) fn new(
        host: HostId,
        nameserver: Arc<dyn MetadataService>,
        plane: Arc<DataPlane>,
        consistency: Consistency,
        selector: Box<dyn ReplicaSelector>,
        metrics: ClientMetrics,
        trace: TraceHandle,
    ) -> Client {
        Client {
            host,
            nameserver,
            plane,
            consistency,
            selector,
            cache: HashMap::new(),
            cache_ttl: std::time::Duration::from_secs(300),
            metrics,
            retry: RetryPolicy {
                attempts: 3,
                backoff: std::time::Duration::from_millis(1),
            },
            parallelism: DEFAULT_PARALLELISM,
            trace,
        }
    }

    /// Sets the data-plane worker-pool width (min 1): at most `width`
    /// of a coded read's fragment reads run at once, the calling thread
    /// being one of the workers, so a fan-out `w` wide spawns `w − 1`
    /// threads. Width 1 runs them serially on the caller's thread — the
    /// same code path, so bytes are identical at every width. A wider
    /// pool overlaps the fragment copies and checksums on a multi-core
    /// host, and their disk waits on a real disk. A replicated read's
    /// pieces, split ones (§4.3) included, are appended to the result
    /// one after another on the caller's thread, so that each byte is
    /// written once (DESIGN.md §16); an append's relays run there too:
    /// on one CPU a thread start (~22 µs) outweighs a 4 KiB relay write
    /// (~5–6 µs).
    pub fn set_parallelism(&mut self, width: usize) {
        self.parallelism = width.max(1);
    }

    /// The data-plane worker-pool width.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Sets the retry policy for [`FsError::Unavailable`] failures:
    /// `attempts` total tries (min 1) with `backoff` between them,
    /// doubling per retry up to a small cap. Other errors never retry.
    pub fn set_retry_policy(&mut self, attempts: u32, backoff: std::time::Duration) {
        self.retry = RetryPolicy {
            attempts: attempts.max(1),
            backoff,
        };
    }

    /// Runs `op`, retrying transient [`FsError::Unavailable`] failures
    /// under the client's retry policy.
    fn with_retry<T>(&self, op: impl FnMut() -> Result<T, FsError>) -> Result<T, FsError> {
        datapath::with_retry(self.retry, &self.plane.retries, op)
    }

    /// Sets the metadata cache expiry (default five minutes). Shorter
    /// TTLs observe replica migrations sooner at the cost of more
    /// nameserver lookups.
    pub fn set_cache_ttl(&mut self, ttl: std::time::Duration) {
        self.cache_ttl = ttl;
    }

    /// Inserts into the metadata cache, evicting the entry closest to
    /// expiry (the oldest insert) when a new key would exceed capacity.
    fn cache_insert(&mut self, name: &str, meta: FileMeta) {
        if !self.cache.contains_key(name) && self.cache.len() >= DEFAULT_CACHE_CAPACITY {
            let oldest = self.cache.iter().min_by_key(|(_, (_, at))| *at);
            if let Some(victim) = oldest.map(|(name, _)| name.clone()) {
                self.cache.remove(&victim);
            }
        }
        self.cache
            .insert(name.to_string(), (meta, std::time::Instant::now()));
    }

    /// The host the client runs on.
    #[must_use]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Creates a file and materializes empty replicas on the placed
    /// dataservers.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for duplicate names.
    pub fn create(&mut self, name: &str) -> Result<FileMeta, FsError> {
        self.create_with(name, Redundancy::default())
    }

    /// Creates a file under an explicit [`Redundancy`] policy. A
    /// `Coded{k, m}` file appends exactly like a replicated one; its
    /// complete chunks are then sealed into `k + m` fragments.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for duplicate names and
    /// [`FsError::InvalidArgument`] for an unsatisfiable policy.
    pub fn create_with(&mut self, name: &str, redundancy: Redundancy) -> Result<FileMeta, FsError> {
        trace::in_span(self.trace.span("create"), |span| {
            trace::annotate(span, "file", name);
            trace::annotate(span, "redundancy", format_args!("{redundancy:?}"));
            let meta = match self.nameserver.create_with(name, redundancy) {
                Ok(meta) => meta,
                Err(e @ FsError::AlreadyExists(_)) => {
                    // A create conflict proves someone else owns this
                    // name now; any cached entry (say, from a copy we
                    // created that another client has since deleted and
                    // re-created) is stale and must not serve future
                    // reads.
                    self.invalidate_stale(name);
                    return Err(e);
                }
                Err(e) => return Err(e),
            };
            for r in &meta.replicas {
                self.plane.get(*r)?.create_file(&meta)?;
            }
            self.cache_insert(name, meta.clone());
            Ok(meta)
        })
    }

    /// Appends `data` atomically: the primary orders the append and it
    /// is relayed to every replica before returning. Returns the
    /// file's new size.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files, and
    /// [`FsError::Unavailable`] when the primary or a replica stays
    /// down past the retry budget. A failed append may already be on
    /// the primary and on some replicas; the next successful append
    /// relays it to the rest, and from then on it is part of the file
    /// (DESIGN.md §8). Retrying a failed append can therefore write its
    /// bytes twice. Its size is not recorded, yet a [`Client::read`]
    /// returns its bytes before any later append succeeds.
    pub fn append(&mut self, name: &str, data: &[u8]) -> Result<u64, FsError> {
        trace::in_span(self.trace.span("append"), |span| {
            trace::annotate(span, "file", name);
            trace::annotate(span, "bytes", data.len());
            let size = match self.append_attempt(name, data) {
                // Replica-side NotFound under a cached entry means the
                // file was deleted (and possibly re-created under a new
                // id) behind our cache: drop the entry and retry fresh
                // once.
                Err(FsError::NotFound(_)) if self.invalidate_stale(name) => {
                    self.append_attempt(name, data)
                }
                other => other,
            }?;
            trace::annotate(span, "size", size);
            Ok(size)
        })
    }

    fn append_attempt(&mut self, name: &str, data: &[u8]) -> Result<u64, FsError> {
        let meta = self.meta(name)?;
        let new_size = self
            .plane
            .with_file_lock(meta.id, || self.append_locked(name, &meta, data))?;
        if let Some((cached, _)) = self.cache.get_mut(name) {
            cached.size = new_size;
        }
        Ok(new_size)
    }

    /// [`Client::append`]'s step under the file's append lock.
    fn append_locked(&self, name: &str, meta: &FileMeta, data: &[u8]) -> Result<u64, FsError> {
        // The primary orders the append (§3.3.2): it is written first,
        // alone, and its size is the one recorded. Each replica write
        // retries transient unavailability; if a replica stays down
        // past the retry budget the append fails as a whole; once
        // recovery has rebuilt the lost copy
        // ([`crate::Cluster::repair_to`], which puts the rebuilt copy
        // of a lost primary in its slot) a retry goes through.
        let new_size = trace::in_span(self.trace.child("primary_write"), |span| {
            trace::annotate(span, "host", meta.primary().0);
            self.with_retry(|| self.plane.get(meta.primary())?.append_local(meta.id, data))
        })?;
        // Each relay lands at the offset the primary assigned
        // ([`crate::Dataserver::relay`]): a replica that missed earlier
        // relays first copies what it lacks from the primary. The
        // relays run in replica order on this thread: a 4 KiB relay
        // write costs less than a thread start (DESIGN.md §16). Every
        // relay is tried even after one fails; the lowest replica's
        // error fails the append, which is then not recorded. All relay
        // spans open first, in replica order, as the golden trees pin.
        let primary = self.plane.get(meta.primary())?;
        let offset = new_size - data.len() as u64;
        let relay_spans: Vec<Option<trace::ActiveSpan>> = meta.replicas[1..]
            .iter()
            .map(|host| {
                let mut s = self.trace.child("relay");
                trace::annotate(&mut s, "host", host.0);
                s
            })
            .collect();
        let mut relayed = Ok(new_size);
        for (host, span) in meta.replicas[1..].iter().zip(relay_spans) {
            let size = trace::in_span(span, |_| {
                self.with_retry(|| {
                    self.plane
                        .get(*host)?
                        .relay(&**primary, meta.id, offset, data)
                })
            });
            relayed = relayed.and(size);
        }
        relayed?;
        self.nameserver.record_size(name, new_size)?;
        if meta.is_coded() && new_size / meta.chunk_size > meta.sealed_chunks {
            // Still under the file lock: stripe newly complete chunks
            // to the fragment hosts. Best-effort — a down fragment
            // host defers the seal to the next append (the chunk stays
            // replicated meanwhile, so durability never regresses), and
            // a seal that fails is not a failed append: its error is
            // dropped and its span stays ok.
            let _ = trace::in_span(self.trace.child("seal"), |_| {
                let _ = coding::seal_complete_chunks(self.nameserver.as_ref(), &self.plane, name);
                Ok::<(), FsError>(())
            });
        }
        Ok(new_size)
    }

    /// Reads the whole file, up to the size the serving replicas report
    /// (the primary's, under strong consistency), which can run ahead
    /// of the recorded size: the bytes of an append that reached the
    /// primary and then failed are returned, in either consistency
    /// mode, before any later append succeeds (DESIGN.md §8).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, FsError> {
        trace::in_span(self.trace.span("read"), |span| {
            trace::annotate(span, "file", name);
            let data = match self.read_attempt(name) {
                // Every replica denying knowledge of a cached file id
                // means the cache is stale (deleted, or
                // deleted-and-recreated under a new id): invalidate and
                // retry once against fresh metadata. A genuinely
                // deleted file still reports NotFound — from the
                // nameserver this time.
                Err(FsError::NotFound(_)) if self.invalidate_stale(name) => self.read_attempt(name),
                other => other,
            }?;
            trace::annotate(span, "bytes", data.len());
            Ok(data)
        })
    }

    fn read_attempt(&mut self, name: &str) -> Result<Vec<u8>, FsError> {
        let meta = self.meta(name)?;
        // Size discovery rides on the data reads themselves: every
        // dataserver read returns the replica's current size (the
        // paper's "the dataserver includes the file's size with each
        // read result"), so a read planned over the cached size hint
        // already carries the probe. The hint is always safe to plan
        // with — it can only lag the recorded size, and every replica
        // acked every recorded append — and appended bytes the
        // piggybacked size reveals are fetched in one extension round.
        // Both rounds append to the one result.
        let hint = meta.size;
        let mut data = Vec::new();
        let sizes = self.read_range_collect(&meta, 0, hint, &mut data)?;
        let size = match sizes.size(self.consistency, hint) {
            Some(size) => size,
            // A served piece always reports.
            None => self
                .fetch_pieces(
                    &meta,
                    &[Piece::size_query(&meta, self.consistency)],
                    &mut data,
                )?
                .size(self.consistency, hint)
                .unwrap_or(hint),
        };
        if let Some(grown) = datapath::extension_round(&meta, size) {
            self.read_range_collect(&grown, hint, size - hint, &mut data)?;
        }
        if let Some((cached, _)) = self.cache.get_mut(name) {
            cached.size = size;
        }
        Ok(data)
    }

    /// Reads `[offset, offset + len)`, truncated at end-of-file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files and
    /// [`FsError::InvalidArgument`] when `offset + len` overflows.
    pub fn read_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        trace::in_span(self.trace.span("read_range"), |span| {
            trace::annotate(span, "file", name);
            trace::annotate(span, "offset", offset);
            trace::annotate(span, "len", len);
            let meta = self.meta(name)?;
            let mut data = Vec::new();
            self.read_range_collect(&meta, offset, len, &mut data)?;
            Ok(data)
        })
    }

    /// Appends `[offset, offset + len)` of the file, truncated at
    /// end-of-file, to `out`, and returns the file sizes the serving
    /// dataservers reported, from which [`Client::read`] learns the
    /// file's size. `out` is reserved up front for no more than the
    /// size hint `meta.size` says is there.
    fn read_range_collect(
        &mut self,
        meta: &FileMeta,
        offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<ReportedSizes, FsError> {
        if len == 0 {
            return Ok(ReportedSizes::default());
        }

        // The seal watermark moves outside the append-only invariant
        // that makes cached chunk maps safe (a sealed chunk *leaves*
        // the replicas), so coded reads work from fresh metadata.
        let fresh;
        let meta = if meta.is_coded() {
            fresh = self.nameserver.lookup(&meta.name)?;
            self.cache_insert(&meta.name, fresh.clone());
            &fresh
        } else {
            meta
        };

        out.reserve(len.min(meta.size.saturating_sub(offset)) as usize);
        let mut offset = offset;
        let mut len = len;
        let sealed_end = meta.sealed_bytes();
        if meta.is_coded() && offset < sealed_end {
            // The sealed span is zero-filled and then filled in place by
            // the fragment fan-out.
            let span_end = offset.saturating_add(len).min(sealed_end);
            let start = out.len();
            out.resize(start + (span_end - offset) as usize, 0);
            self.read_sealed_span(meta, offset, &mut out[start..])?;
            len -= span_end - offset;
            offset = span_end;
            if len == 0 {
                return Ok(ReportedSizes::default());
            }
        }

        let pieces = Piece::plan(meta, self.consistency, offset, len, |span| {
            self.selector.select_read(self.host, &meta.replicas, span)
        })?;
        self.fetch_pieces(meta, &pieces, out)
    }

    /// Fills `out` with sealed bytes `[offset, offset + out.len())` of
    /// a coded file. Every chunk the selector would serve from its data
    /// fragments goes through the fast plan — one fan-out for the whole
    /// range, each overlapping data fragment read and verified in its
    /// own slice of `out`; any other chunk, and any chunk with a failed
    /// or corrupt fetch, takes the promote-and-decode path.
    fn read_sealed_span(
        &mut self,
        meta: &FileMeta,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), FsError> {
        let (k, _) = meta
            .redundancy
            .coded_params()
            .ok_or_else(|| FsError::InvalidArgument(format!("{} is not coded", meta.name)))?;
        let end = offset + out.len() as u64;
        let first_chunk = offset / meta.chunk_size;
        let preferred: Vec<Vec<usize>> = (first_chunk..=(end - 1) / meta.chunk_size)
            .map(|chunk| {
                // Live candidates in fragment order; the selector picks
                // which k to fetch, the rest stay as failover.
                let available: Vec<(usize, HostId)> = meta
                    .fragments
                    .iter()
                    .enumerate()
                    .filter(|(i, h)| {
                        self.plane
                            .get(**h)
                            .is_ok_and(|d| d.has_fragment(meta.id, chunk, *i))
                    })
                    .map(|(i, h)| (i, *h))
                    .collect();
                self.selector.select_fragments(self.host, &available, k)
            })
            .collect();
        let served =
            coding::read_sealed_fast(&self.plane, meta, offset, out, &preferred, self.parallelism);
        for (slot, pref) in preferred.iter().enumerate() {
            if served[slot] {
                continue;
            }
            let chunk = first_chunk + slot as u64;
            let chunk_start = chunk * meta.chunk_size;
            let payload = self.with_retry(|| {
                coding::read_sealed_chunk(&self.plane, meta, chunk, pref, self.parallelism)
            })?;
            let from = offset.max(chunk_start);
            let to = end.min(chunk_start + meta.chunk_size);
            let bytes = payload
                .get((from - chunk_start) as usize..(to - chunk_start) as usize)
                .ok_or_else(|| {
                    FsError::CorruptMetadata(format!(
                        "{}: sealed chunk {chunk} is {} bytes",
                        meta.name,
                        payload.len()
                    ))
                })?;
            out[(from - offset) as usize..(to - offset) as usize].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Appends the planned pieces to `out`, in plan order, on the
    /// caller's thread: each is one [`DataPlane::read_piece_into`],
    /// which sweeps the replicas from the chosen one to the primary
    /// (only the primary for a piece pinned there). Pieces are
    /// consecutive, so a short piece — possible only at end-of-file:
    /// every replica holds every recorded byte, and short reads below
    /// the recorded size are topped up from the primary — ends the
    /// read there. Returns the sizes the pieces reported.
    fn fetch_pieces(
        &self,
        meta: &FileMeta,
        pieces: &[Piece],
        out: &mut Vec<u8>,
    ) -> Result<ReportedSizes, FsError> {
        // Every piece span opens first, in plan order, as the golden
        // span trees pin; per-host attempts then parent under their
        // piece.
        let spans: Vec<Option<trace::ActiveSpan>> = pieces
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                let mut span = self.plane.trace.child("piece");
                trace::annotate(&mut span, "index", i);
                trace::annotate(&mut span, "offset", piece.offset);
                trace::annotate(&mut span, "bytes", piece.len);
                trace::annotate(&mut span, "chosen", piece.host.0);
                if piece.primary_only {
                    trace::annotate(&mut span, "primary_only", "true");
                }
                span
            })
            .collect();
        let mut sizes = ReportedSizes::default();
        for (piece, span) in pieces.iter().zip(spans) {
            let done = trace::in_span(span, |span| {
                self.plane
                    .read_piece_into(self.retry, meta, piece, out)
                    .inspect(|done| trace::annotate(span, "filled", done.filled))
            })?;
            sizes.note(meta, &done);
            if (done.filled as u64) < piece.len {
                break;
            }
        }
        Ok(sizes)
    }

    /// Moves `old` to `new`, overwriting and garbage-collecting any
    /// existing `new` — the paper's application-layer random-write
    /// emulation primitive (§3.3: "creating and modifying a new copy
    /// of the file and using a move operation to overwrite the
    /// original").
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `old` is missing.
    pub fn rename(&mut self, old: &str, new: &str) -> Result<(), FsError> {
        let displaced = self.nameserver.rename(old, new, true)?;
        if let Some(dead) = displaced {
            self.delete_data(&dead)?;
        }
        // Refresh replica- and fragment-local metadata so a crash
        // rebuild sees the new name.
        let meta = self.nameserver.lookup(new)?;
        for r in meta.replicas.iter().chain(&meta.fragments) {
            match self.plane.get(*r)?.update_meta(&meta) {
                Ok(()) | Err(FsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.cache.remove(old);
        self.cache.remove(new);
        Ok(())
    }

    /// Deletes a file everywhere: nameserver mappings and all replica
    /// data.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let meta = self.nameserver.delete(name)?;
        self.delete_data(&meta)?;
        self.cache.remove(name);
        Ok(())
    }

    /// Deletes an unmapped file's replicas and fragments.
    fn delete_data(&self, dead: &FileMeta) -> Result<(), FsError> {
        for r in dead.replicas.iter().chain(&dead.fragments) {
            // A replica (or fragment host) may already be gone;
            // deletion is idempotent at the filesystem level.
            match self.plane.get(*r)?.delete_file(dead.id) {
                Ok(()) | Err(FsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The file's metadata, from cache when possible.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files.
    pub fn meta(&mut self, name: &str) -> Result<FileMeta, FsError> {
        if let Some((meta, cached_at)) = self.cache.get(name) {
            if cached_at.elapsed() < self.cache_ttl {
                self.metrics.cache_hits.inc();
                return Ok(meta.clone());
            }
        }
        // Absent or expired either way costs a nameserver lookup.
        self.metrics.cache_misses.inc();
        let meta = self.nameserver.lookup(name)?;
        self.cache_insert(name, meta.clone());
        Ok(meta)
    }

    /// Drops all cached metadata (e.g. after replica migration).
    pub fn invalidate_cache(&mut self) {
        self.cache.clear();
    }

    /// Drops one cached entry that turned out to be stale. Returns
    /// whether an entry was actually present (callers use this to
    /// decide whether a retry against fresh metadata can help).
    fn invalidate_stale(&mut self, name: &str) -> bool {
        self.cache.remove(name).is_some()
    }

    /// Number of cached metadata entries.
    #[must_use]
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("host", &self.host)
            .field("consistency", &self.consistency)
            .field("cached_entries", &self.cache.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::nameserver::NameserverConfig;
    use crate::selector::ReadAssignment;
    use mayflower_net::{Topology, TreeParams};
    use mayflower_simcore::testutil::TempDir;

    fn cluster(dir: &TempDir, consistency: Consistency) -> Cluster {
        let topo = Arc::new(Topology::three_tier(&TreeParams {
            pods: 2,
            racks_per_pod: 2,
            hosts_per_rack: 2,
            ..TreeParams::paper_testbed()
        }));
        Cluster::create(
            dir.path(),
            topo,
            ClusterConfig {
                nameserver: NameserverConfig {
                    chunk_size: 8,
                    ..NameserverConfig::default()
                },
                consistency,
            },
        )
        .unwrap()
    }

    /// Reads everything from the primary.
    struct PrimarySelector;

    impl ReplicaSelector for PrimarySelector {
        fn select_read(&mut self, _c: HostId, r: &[HostId], bytes: u64) -> Vec<ReadAssignment> {
            vec![ReadAssignment {
                replica: r[0],
                bytes,
            }]
        }
    }

    /// A selector that names one replica for every read.
    struct Fixed(HostId);

    impl crate::selector::ReplicaSelector for Fixed {
        fn select_read(&mut self, _c: HostId, _r: &[HostId], bytes: u64) -> Vec<ReadAssignment> {
            vec![ReadAssignment {
                replica: self.0,
                bytes,
            }]
        }
    }

    #[test]
    fn create_append_read_delete_lifecycle() {
        let dir = TempDir::new("lifecycle");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("data/file1").unwrap();
        client.append("data/file1", b"0123456789").unwrap(); // 2 chunks
        client.append("data/file1", b"ABCDEF").unwrap(); // into 2nd & 3rd
        assert_eq!(client.read("data/file1").unwrap(), b"0123456789ABCDEF");
        assert_eq!(client.read_range("data/file1", 6, 6).unwrap(), b"6789AB");
        client.delete("data/file1").unwrap();
        assert!(matches!(
            client.read("data/file1"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn appends_by_one_client_visible_to_another() {
        let dir = TempDir::new("visibility");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        let mut reader = c.client(HostId(5));
        writer.create("shared").unwrap();
        // Reader caches the empty file's metadata.
        assert_eq!(reader.read("shared").unwrap(), b"");
        writer.append("shared", b"new data").unwrap();
        // Stale cache, but size discovery via the dataserver probe
        // reveals the append (§3.3 caching semantics).
        assert_eq!(reader.read("shared").unwrap(), b"new data");
    }

    #[test]
    fn strong_consistency_reads_through_primary_for_last_chunk() {
        let dir = TempDir::new("strong");
        let c = cluster(&dir, Consistency::Strong);
        let mut client = c.client(HostId(1));
        let meta = client.create("s").unwrap();
        client.append("s", b"0123456789abcdef__tail").unwrap();
        // Simulate a lagging secondary: truncate the last chunk on a
        // non-primary replica by deleting and recreating shorter data.
        // Strong reads must still return the primary's bytes.
        let data = client.read("s").unwrap();
        assert_eq!(data, b"0123456789abcdef__tail");
        let _ = meta;
    }

    #[test]
    fn selector_is_honored() {
        let dir = TempDir::new("selector");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client_with_selector(HostId(0), Box::new(PrimarySelector));
        client.create("p").unwrap();
        client.append("p", b"abc").unwrap();
        assert_eq!(client.read("p").unwrap(), b"abc");
    }

    #[test]
    fn metadata_cache_reduces_lookups() {
        let dir = TempDir::new("cache");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("cached").unwrap();
        assert_eq!(client.cached_entries(), 1);
        client.invalidate_cache();
        assert_eq!(client.cached_entries(), 0);
        client.meta("cached").unwrap();
        assert_eq!(client.cached_entries(), 1);
    }

    #[test]
    fn cache_capacity_bounds_population_and_evicts_oldest() {
        let dir = TempDir::new("cachecap");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        let files = DEFAULT_CACHE_CAPACITY + 2;
        for i in 0..files {
            client.create(&format!("f{i}")).unwrap();
        }
        assert_eq!(
            client.cached_entries(),
            DEFAULT_CACHE_CAPACITY,
            "population stays bounded"
        );
        let counts = || {
            let snap = c.registry().snapshot();
            (
                snap.counter("fs_client_cache_misses_total").unwrap_or(0),
                snap.counter("fs_client_cache_hits_total").unwrap_or(0),
            )
        };
        // The oldest inserts (f0, f1) were evicted: re-reading their
        // meta misses...
        let (misses, hits) = counts();
        client.meta("f0").unwrap();
        client.meta("f1").unwrap();
        assert_eq!(counts(), (misses + 2, hits));
        // ...and the newest is still cached.
        client.meta(&format!("f{}", files - 1)).unwrap();
        assert_eq!(counts(), (misses + 2, hits + 1));
    }

    #[test]
    fn client_and_dataserver_metrics_cover_the_io_path() {
        let dir = TempDir::new("metrics");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("observed").unwrap();
        client.append("observed", b"0123456789").unwrap();
        assert_eq!(client.read("observed").unwrap().len(), 10);
        let snap = c.registry().snapshot();
        // The append was relayed to all 3 replicas.
        assert_eq!(snap.counter("fs_dataserver_appends_total"), Some(3));
        assert_eq!(
            snap.histogram("fs_dataserver_append_bytes").unwrap().sum,
            30
        );
        // One dataserver read serves the whole request: size discovery
        // rides on the piece response instead of a standalone probe.
        assert_eq!(snap.counter("fs_dataserver_reads_total"), Some(1));
        // The read appended its piece on this thread, as the append
        // relayed: neither touched the pool.
        let fan_outs = |snap: &mayflower_telemetry::Snapshot| {
            snap.histogram("fs_datapath_fan_out_width")
                .map_or(0, |h| h.count)
        };
        assert_eq!(fan_outs(&snap), 0);
        // A coded read's fragment fetches go through the pool, which
        // drains its in-flight gauge.
        client
            .create_with("coded", Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        client.append("coded", b"0123456789abcdef").unwrap();
        assert_eq!(client.read("coded").unwrap(), b"0123456789abcdef");
        let snap = c.registry().snapshot();
        assert_eq!(fan_outs(&snap), 1);
        assert_eq!(snap.gauge("fs_datapath_inflight_fetches"), Some(0));
    }

    /// Splits `bytes` in two: the first half from `replicas[1]`, the
    /// rest from `replicas[2]`.
    struct Halves;

    impl ReplicaSelector for Halves {
        fn select_read(&mut self, _c: HostId, r: &[HostId], bytes: u64) -> Vec<ReadAssignment> {
            vec![
                ReadAssignment {
                    replica: r[1],
                    bytes: bytes / 2,
                },
                ReadAssignment {
                    replica: r[2],
                    bytes: bytes - bytes / 2,
                },
            ]
        }
    }

    /// An append relays, and a replicated read appends its pieces, on
    /// the caller's thread at any pool width: neither dispatches
    /// anything to the pool, not even a read split in two. A coded
    /// read's fragment fetches do.
    #[test]
    fn an_append_spawns_nothing() {
        let dir = TempDir::new("no-spawn");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client_with_selector(HostId(0), Box::new(Halves));
        client.set_parallelism(4);
        client.create("f").unwrap();
        let fan_outs = || {
            let snap = c.registry().snapshot();
            let inflight = snap.gauge("fs_datapath_inflight_fetches").unwrap_or(0);
            let width = snap.histogram("fs_datapath_fan_out_width");
            (width.map_or(0, |h| h.count), inflight)
        };
        let mut want = Vec::new();
        for i in 0..5u8 {
            client.append("f", &[i; 20]).unwrap();
            want.extend_from_slice(&[i; 20]);
        }
        assert_eq!(fan_outs(), (0, 0), "appends use no pool");
        assert_eq!(client.read("f").unwrap(), want);
        assert_eq!(fan_outs(), (0, 0), "nor does a split replicated read");
        client
            .create_with("c", Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        client.append("c", &want[..16]).unwrap();
        assert_eq!(fan_outs(), (0, 0), "nor does a seal");
        assert_eq!(client.read("c").unwrap(), want[..16]);
        assert_eq!(fan_outs(), (1, 0), "a coded read does");
    }

    /// A relay that fails past its retry budget fails the append, but
    /// the replicas after it still take the bytes.
    #[test]
    fn a_failed_relay_does_not_skip_later_replicas() {
        for width in [1, 4] {
            let dir = TempDir::new("skip");
            let c = cluster(&dir, Consistency::Sequential);
            let mut client = c.client(HostId(0));
            client.set_parallelism(width);
            client.set_retry_policy(1, std::time::Duration::ZERO);
            let meta = client.create("f").unwrap();
            c.dataserver(meta.replicas[1]).unwrap().crash();
            assert!(
                matches!(client.append("f", b"AAAA"), Err(FsError::Unavailable(_))),
                "width {width}"
            );
            let (data, size) = c
                .dataserver(meta.replicas[2])
                .unwrap()
                .read_local(meta.id, 0, 100)
                .unwrap();
            assert_eq!((data.as_slice(), size), (&b"AAAA"[..], 4), "width {width}");
        }
    }

    /// Today's behaviour, pinned until a contract decides it: the bytes
    /// of an append that failed on a relay are read back, in either
    /// consistency mode, before any later append succeeds, while the
    /// recorded size stays where the last good append left it.
    #[test]
    fn a_read_returns_a_failed_appends_bytes() {
        for consistency in [Consistency::Sequential, Consistency::Strong] {
            let dir = TempDir::new("failed-append-read");
            let c = cluster(&dir, consistency);
            let mut writer = c.client(HostId(0));
            writer.set_retry_policy(1, std::time::Duration::ZERO);
            let meta = writer.create("f").unwrap();
            writer.append("f", b"AAAA").unwrap();
            c.dataserver(meta.replicas[1]).unwrap().crash();
            let failed = writer.append("f", b"XXXX");
            assert!(
                matches!(failed, Err(FsError::Unavailable(_))),
                "{consistency:?}: {failed:?}"
            );
            assert_eq!(c.nameserver().lookup("f").unwrap().size, 4);
            let read = c.client(HostId(7)).read("f").unwrap();
            assert_eq!(read, b"AAAAXXXX", "{consistency:?}");
            c.dataserver(meta.replicas[1]).unwrap().restart();
            assert_eq!(writer.append("f", b"YYYY").unwrap(), 12, "{consistency:?}");
        }
    }

    /// A piece that a lagging replica serves short is topped up from
    /// the primary: here the extension round's piece, asked of the
    /// replica that missed a failed append which another one reported.
    #[test]
    fn a_lagging_replicas_short_piece_is_topped_up_from_the_primary() {
        /// Names the given replicas in turn, one per planned round.
        struct InTurn(Vec<HostId>);
        impl ReplicaSelector for InTurn {
            fn select_read(
                &mut self,
                _c: HostId,
                _r: &[HostId],
                bytes: u64,
            ) -> Vec<ReadAssignment> {
                vec![ReadAssignment {
                    replica: self.0.remove(0),
                    bytes,
                }]
            }
        }
        let dir = TempDir::new("top-up");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        writer.set_retry_policy(1, std::time::Duration::ZERO);
        let meta = writer.create("f").unwrap();
        writer.append("f", b"AAAA").unwrap();
        c.dataserver(meta.replicas[1]).unwrap().crash();
        assert!(writer.append("f", b"XXXX").is_err());
        c.dataserver(meta.replicas[1]).unwrap().restart();
        let turns = InTurn(vec![meta.replicas[2], meta.replicas[1]]);
        let mut reader = c.client_with_selector(HostId(7), Box::new(turns));
        assert_eq!(reader.read("f").unwrap(), b"AAAAXXXX");
    }

    /// A selector whose assignments do not sum to the read is refused
    /// before any piece is fetched, whether it assigns too few bytes or
    /// too many.
    #[test]
    fn a_selector_that_misassigns_fetches_nothing() {
        /// Assigns the primary the asked-for bytes plus `self.0`.
        struct Off(i64);
        impl ReplicaSelector for Off {
            fn select_read(&mut self, _c: HostId, r: &[HostId], bytes: u64) -> Vec<ReadAssignment> {
                vec![ReadAssignment {
                    replica: r[0],
                    bytes: bytes.saturating_add_signed(self.0),
                }]
            }
        }
        let dir = TempDir::new("misassign");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        writer.create("f").unwrap();
        writer.append("f", b"0123456789").unwrap();
        let reads = || {
            c.registry()
                .snapshot()
                .counter("fs_dataserver_reads_total")
                .unwrap_or(0)
        };
        for off in [-1i64, 1] {
            let before = reads();
            let mut reader = c.client_with_selector(HostId(5), Box::new(Off(off)));
            let err = reader.read("f").unwrap_err();
            let want = format!("selector assigned {} bytes for a 10-byte read", 10 + off);
            assert!(
                matches!(&err, FsError::InvalidArgument(m) if *m == want),
                "off by {off}: {err}"
            );
            assert_eq!(reads(), before, "off by {off}");
        }
    }

    #[test]
    fn retry_metric_counts_extra_attempts() {
        let dir = TempDir::new("retrymetric");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        let meta = writer.create("bouncy").unwrap();
        writer.append("bouncy", b"x").unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).unwrap().crash();
        }
        let mut reader = c.client(HostId(5));
        reader.set_retry_policy(3, std::time::Duration::ZERO);
        assert!(reader.read("bouncy").is_err());
        let snap = c.registry().snapshot();
        assert_eq!(snap.counter("fs_client_retries_total"), Some(2));
        assert!(snap.counter("fs_dataserver_refused_total").unwrap() > 0);
    }

    #[test]
    fn read_range_past_eof_truncates() {
        let dir = TempDir::new("eof");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("short").unwrap();
        client.append("short", b"xy").unwrap();
        assert_eq!(client.read_range("short", 0, 100).unwrap(), b"xy");
        assert_eq!(client.read_range("short", 50, 10).unwrap(), b"");
    }

    /// A range reaching far past end-of-file reserves no more than the
    /// file holds, and one whose end overflows `u64` is refused, for a
    /// replicated file and a coded one (two sealed chunks and a
    /// replicated tail) alike.
    #[test]
    fn a_range_past_eof_reads_to_eof_and_an_overflowing_one_is_refused() {
        let dir = TempDir::new("huge-range");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("r").unwrap();
        client
            .create_with("c", Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        let file: Vec<u8> = (0..20).collect();
        for name in ["r", "c"] {
            client.append(name, &file).unwrap();
            assert_eq!(client.read_range(name, 0, 1 << 40).unwrap(), file, "{name}");
            let to_the_top = client.read_range(name, 3, u64::MAX - 3).unwrap();
            assert_eq!(to_the_top, file[3..], "{name}");
            let err = client.read_range(name, 1, u64::MAX).unwrap_err();
            assert!(matches!(err, FsError::InvalidArgument(_)), "{name}: {err}");
        }
        assert_eq!(c.nameserver().lookup("c").unwrap().sealed_chunks, 2);
    }

    /// A replica that fails part-way through a piece (its second chunk
    /// file is gone, so the first chunk's bytes have already landed)
    /// leaves none of the piece behind: the next replica reads the
    /// piece whole, after whatever the result held before it.
    #[test]
    fn a_replica_failing_mid_piece_leaves_none_of_it_behind() {
        let dir = TempDir::new("mid-piece");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        writer.create("f").unwrap();
        let file: Vec<u8> = (0..24).collect();
        writer.append("f", &file).unwrap();
        let meta = c.nameserver().lookup("f").unwrap();
        let broken = meta.replicas[1];
        let chunk_file = c
            .dataserver(broken)
            .unwrap()
            .root()
            .join(meta.id.as_hex())
            .join("2");
        std::fs::remove_file(chunk_file).unwrap();
        let mut reader = c.client_with_selector(HostId(7), Box::new(Fixed(broken)));
        assert_eq!(reader.read("f").unwrap(), file);
        // One step down: the piece lands after the bytes already there.
        let pieces = Piece::plan(&meta, Consistency::Sequential, 0, 24, |bytes| {
            vec![ReadAssignment {
                replica: broken,
                bytes,
            }]
        })
        .unwrap();
        let mut out = b"held".to_vec();
        let done = reader
            .plane
            .read_piece_into(RetryPolicy::ONCE, &meta, &pieces[0], &mut out)
            .unwrap();
        assert_eq!((done.filled, done.size_from), (24, meta.replicas[2]));
        assert_eq!((&out[..4], &out[4..]), (&b"held"[..], &file[..]));
    }

    #[test]
    fn cache_ttl_observes_replica_migration() {
        let dir = TempDir::new("ttl");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.set_cache_ttl(std::time::Duration::ZERO); // revalidate always
        let meta = client.create("migrating").unwrap();
        client.append("migrating", b"payload").unwrap();

        // Lose a replica and repair: the replica set changes.
        let victim = meta.replicas[1];
        c.dataserver(victim).unwrap().delete_file(meta.id).unwrap();
        let dest = c
            .topology()
            .hosts()
            .into_iter()
            .find(|h| !meta.replicas.contains(h))
            .unwrap();
        c.repair_to("migrating", meta.primary(), dest).unwrap();

        // With a zero TTL the client sees the new replica set at once.
        let fresh = client.meta("migrating").unwrap();
        assert!(!fresh.replicas.contains(&victim));
        assert_eq!(client.read("migrating").unwrap(), b"payload");
    }

    #[test]
    fn long_ttl_serves_from_cache() {
        let dir = TempDir::new("ttl-long");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.set_cache_ttl(std::time::Duration::from_secs(3600));
        let meta = client.create("steady").unwrap();
        // Delete the mapping behind the client's back: a cached meta()
        // still answers (the stale-read window the TTL bounds).
        c.nameserver().delete("steady").unwrap();
        assert_eq!(client.meta("steady").unwrap().id, meta.id);
    }

    #[test]
    fn stale_cache_invalidated_when_file_deleted_and_recreated_elsewhere() {
        // Regression: A caches metadata for a file; B deletes the file
        // and re-creates it under the same name (new id, possibly new
        // replicas). A's cached entry names a dead file id — reads
        // through it must not fail or serve stale data forever.
        let dir = TempDir::new("stalecache");
        let c = cluster(&dir, Consistency::Sequential);
        let mut a = c.client(HostId(0));
        let mut b = c.client(HostId(5));
        a.set_cache_ttl(std::time::Duration::from_secs(3600));
        a.create("volatile").unwrap();
        a.append("volatile", b"first incarnation").unwrap();
        assert_eq!(a.read("volatile").unwrap(), b"first incarnation");

        b.delete("volatile").unwrap();
        b.create("volatile").unwrap();
        b.append("volatile", b"second").unwrap();

        // The stale entry is detected, invalidated, and the retry
        // returns the new incarnation's content.
        assert_eq!(a.read("volatile").unwrap(), b"second");

        // Appends through a stale entry recover the same way.
        b.delete("volatile").unwrap();
        b.create("volatile").unwrap();
        a.append("volatile", b"!").unwrap();
        assert_eq!(b.read("volatile").unwrap(), b"!");

        // A create conflict also proves the cached entry stale.
        a.read("volatile").unwrap(); // repopulate A's cache
        b.delete("volatile").unwrap();
        b.create("volatile").unwrap();
        assert!(matches!(
            a.create("volatile"),
            Err(FsError::AlreadyExists(_))
        ));
        // The conflict dropped A's entry: the next meta() is a fresh
        // lookup that sees B's incarnation.
        let fresh = a.meta("volatile").unwrap();
        assert_eq!(fresh.id, c.nameserver().lookup("volatile").unwrap().id);

        // A genuinely deleted file still reports NotFound.
        b.delete("volatile").unwrap();
        assert!(matches!(a.read("volatile"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn rename_moves_the_namespace_entry() {
        let dir = TempDir::new("rename");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("old-name").unwrap();
        client.append("old-name", b"content").unwrap();
        client.rename("old-name", "new-name").unwrap();
        assert!(matches!(client.read("old-name"), Err(FsError::NotFound(_))));
        assert_eq!(client.read("new-name").unwrap(), b"content");
        // Dataserver-local metadata followed the rename (crash-rebuild
        // consistency).
        let meta = client.meta("new-name").unwrap();
        for r in &meta.replicas {
            assert_eq!(
                c.dataserver(*r).unwrap().read_meta(meta.id).unwrap().name,
                "new-name"
            );
        }
    }

    #[test]
    fn random_write_emulation_via_copy_and_move() {
        // §3.3: "Random writes can be emulated in the application layer
        // by creating and modifying a new copy of the file and using a
        // move operation to overwrite the original file."
        let dir = TempDir::new("randomwrite");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("doc").unwrap();
        client.append("doc", b"version ONE of the doc").unwrap();

        // "Random write": change ONE→TWO by rebuilding the file.
        let old = client.read("doc").unwrap();
        let patched = String::from_utf8(old).unwrap().replace("ONE", "TWO");
        let old_meta = client.meta("doc").unwrap();
        client.create("doc.tmp").unwrap();
        client.append("doc.tmp", patched.as_bytes()).unwrap();
        client.rename("doc.tmp", "doc").unwrap();

        assert_eq!(client.read("doc").unwrap(), b"version TWO of the doc");
        // The displaced file's replica data was garbage-collected.
        for r in &old_meta.replicas {
            assert!(!c.dataserver(*r).unwrap().has_file(old_meta.id));
        }
    }

    #[test]
    fn rename_without_overwrite_conflict_detected() {
        let dir = TempDir::new("renameconflict");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.create("a").unwrap();
        client.create("b").unwrap();
        // The nameserver-level rename refuses without overwrite.
        assert!(matches!(
            c.nameserver().rename("a", "b", false),
            Err(FsError::AlreadyExists(_))
        ));
        // And the client-level move overwrites deliberately.
        client.rename("a", "b").unwrap();
        assert!(client.meta("a").is_err());
        assert!(client.meta("b").is_ok());
    }

    #[test]
    fn read_fails_over_when_a_replica_is_lost() {
        let dir = TempDir::new("failover");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        let meta = writer.create("fragile").unwrap();
        writer.append("fragile", b"survives replica loss").unwrap();

        // Lose a non-primary replica entirely (disk wiped).
        let victim = meta.replicas[1];
        c.dataserver(victim).unwrap().delete_file(meta.id).unwrap();

        // A reader whose selector would pick any replica still gets
        // the data (failover to surviving replicas).
        for host in [0u32, 3, 6] {
            let mut reader = c.client_with_selector(HostId(host), Box::new(PrimarySelector));
            assert_eq!(reader.read("fragile").unwrap(), b"survives replica loss");
        }
        // Even if the selector names the dead replica explicitly.
        let mut reader = c.client_with_selector(HostId(9), Box::new(Fixed(victim)));
        assert_eq!(reader.read("fragile").unwrap(), b"survives replica loss");
    }

    #[test]
    fn read_survives_primary_crash_without_reelection() {
        // Sequential consistency: the size probe and the data path both
        // fail over past a crashed primary, no control-plane action
        // needed.
        let dir = TempDir::new("primarycrash");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        let meta = writer.create("hardy").unwrap();
        writer.append("hardy", b"still readable").unwrap();

        c.dataserver(meta.primary()).unwrap().crash();
        let mut reader = c.client(HostId(5));
        reader.set_retry_policy(1, std::time::Duration::ZERO);
        assert_eq!(reader.read("hardy").unwrap(), b"still readable");

        // Strong consistency pins the probe to the primary: the read
        // reports Unavailable rather than risking a stale tail.
        c.dataserver(meta.primary()).unwrap().restart();
        let d2 = TempDir::new("primarycrash-strong");
        let cs = cluster(&d2, Consistency::Strong);
        let mut w = cs.client(HostId(0));
        let m = w.create("strict").unwrap();
        w.append("strict", b"tail").unwrap();
        cs.dataserver(m.primary()).unwrap().crash();
        let mut r = cs.client(HostId(5));
        r.set_retry_policy(1, std::time::Duration::ZERO);
        assert!(matches!(r.read("strict"), Err(FsError::Unavailable(_))));
    }

    #[test]
    fn retry_outlasts_a_short_outage() {
        let dir = TempDir::new("retrywindow");
        let c = Arc::new(cluster(&dir, Consistency::Sequential));
        let mut writer = c.client(HostId(0));
        let meta = writer.create("blinky").unwrap();
        writer.append("blinky", b"blip").unwrap();

        // All replicas down: first attempt must fail...
        for r in &meta.replicas {
            c.dataserver(*r).unwrap().crash();
        }
        let mut impatient = c.client(HostId(5));
        impatient.set_retry_policy(1, std::time::Duration::ZERO);
        assert!(matches!(
            impatient.read("blinky"),
            Err(FsError::Unavailable(_))
        ));

        // ...but a retrying client rides out an outage shorter than
        // its backoff budget.
        let healer = {
            let c = c.clone();
            let replicas = meta.replicas.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                for r in &replicas {
                    c.dataserver(*r).unwrap().restart();
                }
            })
        };
        let mut patient = c.client(HostId(5));
        patient.set_retry_policy(50, std::time::Duration::from_millis(2));
        assert_eq!(patient.read("blinky").unwrap(), b"blip");
        healer.join().unwrap();
    }

    #[test]
    fn read_fails_cleanly_when_all_replicas_lost() {
        let dir = TempDir::new("allgone");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        let meta = writer.create("doomed").unwrap();
        writer.append("doomed", b"x").unwrap();
        for r in &meta.replicas {
            c.dataserver(*r).unwrap().delete_file(meta.id).unwrap();
        }
        let mut reader = c.client(HostId(5));
        assert!(matches!(reader.read("doomed"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn trace_records_failover_attempts_as_siblings() {
        // Regression (DESIGN.md §17): a replica killed before the fetch
        // reaches it must leave BOTH the failed and the successful
        // attempt in the trace, as siblings under one piece span.
        let dir = TempDir::new("tracefailover");
        let c = cluster(&dir, Consistency::Sequential);
        let mut writer = c.client(HostId(0));
        let meta = writer.create("traced").unwrap();
        writer.append("traced", b"observable bytes").unwrap();

        let victim = meta.replicas[1];
        c.dataserver(victim).unwrap().crash();

        let tracer = c.tracer().clone();
        tracer.begin_capture();
        let mut reader = c.client_with_selector(HostId(9), Box::new(Fixed(victim)));
        reader.set_retry_policy(1, std::time::Duration::ZERO);
        assert_eq!(reader.read("traced").unwrap(), b"observable bytes");

        let tree = trace::TraceTree::build(tracer.take_capture());
        tree.validate().expect("well-formed failover trace");
        let attempts: Vec<&trace::SpanEvent> = tree
            .events()
            .iter()
            .filter(|e| e.name == "attempt")
            .collect();
        let failed = attempts
            .iter()
            .find(|e| !e.ok)
            .expect("failed attempt recorded");
        assert_eq!(
            failed.annotation("host"),
            Some(victim.0.to_string().as_str())
        );
        assert!(failed.annotation("error").is_some());
        let ok = attempts.iter().find(|e| e.ok).expect("successful attempt");
        assert_eq!(
            failed.parent, ok.parent,
            "failed and successful attempts are siblings under one piece span"
        );
        // The root names the op; the critical path reaches the attempt.
        let root = &tree.events()[tree.roots()[0]];
        assert_eq!((root.component, root.name.as_str()), ("client", "read"));
        let path = tree.render_critical_path(root.trace);
        assert!(path.contains("datapath/attempt"), "{path}");
    }

    #[test]
    fn trace_covers_append_fanout_and_dataserver_io() {
        let dir = TempDir::new("traceappend");
        let c = cluster(&dir, Consistency::Sequential);
        let tracer = c.tracer().clone();
        let mut client = c.client(HostId(0));
        client.create("fanout").unwrap();
        tracer.begin_capture();
        client.append("fanout", b"0123456789").unwrap();
        let tree = trace::TraceTree::build(tracer.take_capture());
        tree.validate().expect("well-formed append trace");
        let names: Vec<(&str, &str)> = tree
            .events()
            .iter()
            .map(|e| (e.component, e.name.as_str()))
            .collect();
        assert!(names.contains(&("client", "append")));
        assert!(names.contains(&("client", "primary_write")));
        assert_eq!(
            names.iter().filter(|n| **n == ("client", "relay")).count(),
            2,
            "one relay span per secondary replica"
        );
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == ("dataserver", "chunk_append"))
                .count(),
            3,
            "every replica write traced"
        );
    }

    /// A replica that missed a relay (its append then failed) copies
    /// the missed bytes from the primary at the next append, instead of
    /// taking that append at its own end.
    #[test]
    fn a_replica_that_missed_a_relay_catches_up_at_the_next_append() {
        for consistency in [Consistency::Sequential, Consistency::Strong] {
            let dir = TempDir::new("catch-up");
            let c = cluster(&dir, consistency);
            let mut client = c.client(HostId(0));
            client.set_retry_policy(1, std::time::Duration::ZERO);
            let meta = client.create("f").unwrap();
            let lagging = meta.replicas[1];
            client.append("f", b"AAAA").unwrap();
            c.dataserver(lagging).unwrap().crash();
            assert!(matches!(
                client.append("f", b"BBBB"),
                Err(FsError::Unavailable(_))
            ));
            c.dataserver(lagging).unwrap().restart();
            assert_eq!(client.append("f", b"CCCC").unwrap(), 12);
            for r in &meta.replicas {
                let (data, size) = c
                    .dataserver(*r)
                    .unwrap()
                    .read_local(meta.id, 0, 100)
                    .unwrap();
                assert_eq!(data, b"AAAABBBBCCCC", "{consistency:?}: replica {r}");
                assert_eq!(size, 12);
            }
            let mut reader = c.client_with_selector(HostId(5), Box::new(Fixed(lagging)));
            assert_eq!(
                reader.read("f").unwrap(),
                b"AAAABBBBCCCC",
                "{consistency:?}"
            );
        }
    }

    /// Seeded appends, crashes and restarts of the secondaries over one
    /// file, at pool widths 1 and 4: after every step every replica that
    /// is up is a byte-prefix of the primary and holds every
    /// acknowledged byte.
    #[test]
    fn replicas_stay_prefixes_of_the_primary_through_crashes() {
        for width in [1, 4] {
            let dir = TempDir::new("prefix");
            let c = cluster(&dir, Consistency::Sequential);
            let mut client = c.client(HostId(0));
            client.set_parallelism(width);
            client.set_retry_policy(1, std::time::Duration::ZERO);
            let meta = client.create("f").unwrap();
            let mut rng = mayflower_simcore::SimRng::seed_from(36);
            let (mut acked, mut failed) = (0u64, 0);
            for step in 0..200u32 {
                let secondary = c.dataserver(meta.replicas[1 + rng.index(2)]).unwrap();
                match rng.index(4) {
                    0 => secondary.crash(),
                    1 => secondary.restart(),
                    _ => {
                        let data = vec![step as u8; 1 + rng.index(20)];
                        match client.append("f", &data) {
                            Ok(size) => acked = size,
                            Err(FsError::Unavailable(_)) => failed += 1,
                            Err(e) => panic!("step {step}: {e}"),
                        }
                    }
                }
                let primary = c.dataserver(meta.primary()).unwrap();
                let (want, _) = primary.read_local(meta.id, 0, u64::MAX).unwrap();
                for r in &meta.replicas[1..] {
                    let Ok((got, _)) = c.dataserver(*r).unwrap().read_local(meta.id, 0, u64::MAX)
                    else {
                        continue; // down
                    };
                    assert!(
                        want.starts_with(&got),
                        "width {width}, step {step}: replica {r} is no prefix"
                    );
                    assert!(
                        got.len() as u64 >= acked,
                        "width {width}, step {step}: replica {r} lacks acked bytes"
                    );
                }
            }
            assert!(acked > 0 && failed > 0, "width {width}: {acked} {failed}");
        }
    }

    /// A seal deferred past a primary crash reads the chunk from
    /// `replicas[1]`: that copy must be the primary's bytes, or the
    /// fragments encode bytes no append wrote.
    #[test]
    fn a_deferred_seal_encodes_the_primarys_bytes() {
        let dir = TempDir::new("coded-catch-up");
        let c = cluster(&dir, Consistency::Sequential);
        let mut client = c.client(HostId(0));
        client.set_retry_policy(1, std::time::Duration::ZERO);
        let mut meta = client
            .create_with("c", Redundancy::Coded { k: 4, m: 2 })
            .unwrap();
        // The seal runs with the primary down, so no fragment is its.
        if let Some(i) = meta.fragments.iter().position(|h| *h == meta.primary()) {
            let hosts = c.topology().hosts();
            let spare = hosts.iter().find(|h| !meta.fragments.contains(h)).unwrap();
            c.nameserver().set_fragment("c", i, *spare).unwrap();
            meta = c.nameserver().lookup("c").unwrap();
        }
        let lagging = c.dataserver(meta.replicas[1]).unwrap();
        let fragment_host = meta
            .fragments
            .iter()
            .find(|h| !meta.replicas.contains(h))
            .map(|h| c.dataserver(*h).unwrap())
            .unwrap();
        client.append("c", b"AAAA").unwrap();
        lagging.crash();
        assert!(client.append("c", b"BBBB").is_err());
        lagging.restart();
        fragment_host.crash();
        assert_eq!(client.append("c", b"CCCC").unwrap(), 12);
        assert_eq!(c.nameserver().lookup("c").unwrap().sealed_chunks, 0);
        c.dataserver(meta.primary()).unwrap().crash();
        fragment_host.restart();
        assert_eq!(c.seal("c").unwrap(), 1);
        c.dataserver(meta.primary()).unwrap().restart();
        assert_eq!(client.read("c").unwrap(), b"AAAABBBBCCCC");
    }

    #[test]
    fn interleaved_append_and_read_chunks() {
        // Sequential consistency: reads may interleave with appends but
        // chunk content is never torn.
        let dir = TempDir::new("interleave");
        let c = Arc::new(cluster(&dir, Consistency::Sequential));
        let mut setup = c.client(HostId(0));
        setup.create("log").unwrap();
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                let mut w = c.client(HostId(0));
                for i in 0..40u8 {
                    w.append("log", &[i; 4]).unwrap();
                }
            })
        };
        let mut r = c.client(HostId(7));
        for _ in 0..40 {
            let data = r.read("log").unwrap();
            assert_eq!(data.len() % 4, 0, "torn append visible");
            for rec in data.chunks(4) {
                assert!(rec.iter().all(|b| *b == rec[0]));
            }
        }
        writer.join().unwrap();
        assert_eq!(r.read("log").unwrap().len(), 160);
    }
}
