//! The dataserver: chunked, append-only file storage (§3.3.2).
//!
//! On-disk layout, matching the paper:
//!
//! ```text
//! <root>/<file-uuid>/meta      # JSON-serialized FileMeta
//! <root>/<file-uuid>/1         # first chunk
//! <root>/<file-uuid>/2         # second chunk
//! ...
//! ```
//!
//! `meta` persists what only the nameserver can tell a replica (name,
//! hosts, redundancy, seal watermark). A replica's **size** is a fact
//! about its chunk files: it is derived from them when the replica is
//! first touched and lives, from then on, in the in-memory replica
//! table (DESIGN.md §10, "Dataserver state model").

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_telemetry::trace::{self as trace, ActiveSpan, TraceHandle};
use mayflower_telemetry::{Counter, Histogram};
use parking_lot::Mutex;

use crate::chunk::split_range;
use crate::error::FsError;
use crate::types::{FileId, FileMeta};

/// Chunk-IO telemetry shared by every dataserver in a cluster (the
/// registry dedups by metric name, so each handle aggregates across
/// hosts).
#[derive(Debug)]
struct DsMetrics {
    appends: Arc<Counter>,
    append_bytes: Arc<Histogram>,
    reads: Arc<Counter>,
    read_bytes: Arc<Histogram>,
    refused: Arc<Counter>,
}

/// Fragment frame (DESIGN.md §14): 4-byte magic, 8-byte LE payload
/// length, 4-byte LE CRC32 of the shard bytes.
const FRAGMENT_MAGIC: &[u8; 4] = b"MFEC";
const FRAGMENT_HEADER: usize = 16;

/// What the dataserver knows about one replica it stores: one entry of
/// the replica table.
#[derive(Debug)]
struct ReplicaState {
    /// Fixed at creation, so reads take it without a lock.
    chunk_size: u64,
    /// The `meta` file's content as last written (its `size` field is
    /// not used). The lock is also the file's append lock ("the
    /// dataserver only services one append request at a time for each
    /// file"): an append holds it from start to finish, so neither a
    /// second append nor a seal-watermark advance moves the end of the
    /// file under it.
    meta: Mutex<FileMeta>,
    /// Bytes a read may return. Only the holder of `meta` stores it,
    /// with `Release` and only after the bytes are in the chunk files;
    /// readers load it with `Acquire`, so a reader never sees a size
    /// whose bytes it cannot read.
    size: AtomicU64,
    /// Set (under `meta`) when the entry is dropped from the table
    /// while the replica lives on — by `restart`, or by an append that
    /// failed part-way: a caller that still holds the entry is refused
    /// instead of moving the end of the file behind the back of the
    /// entry loaded next.
    retired: AtomicBool,
}

impl ReplicaState {
    fn new(meta: &FileMeta, size: u64) -> Arc<ReplicaState> {
        Arc::new(ReplicaState {
            chunk_size: meta.chunk_size,
            meta: Mutex::new(meta.clone()),
            size: AtomicU64::new(size),
            retired: AtomicBool::new(false),
        })
    }
}

/// A single storage server: owns one directory tree of file-UUID
/// directories, services appends (one at a time per file) and
/// concurrent reads. Appends and reads work from the in-memory replica
/// table; the `meta` file is read once per replica per process and
/// written only when something other than the size changes.
#[derive(Debug)]
pub struct Dataserver {
    host: HostId,
    root: PathBuf,
    /// The replica table: every replica touched since
    /// [`Dataserver::open`] or the last [`Dataserver::restart`]. An
    /// entry is loaded on first touch (`meta` parsed once, size derived
    /// from the chunk files) and dropped by `delete_file`; the table is
    /// bounded by the replicas the store holds.
    replicas: Mutex<HashMap<FileId, Arc<ReplicaState>>>,
    /// Fault-injection switch: while false, every data operation
    /// returns [`FsError::Unavailable`], as a crashed process would
    /// refuse connections. State on disk is untouched, so a restart
    /// recovers everything — a fail-stop crash, not data loss.
    up: AtomicBool,
    /// Chunk-IO telemetry, attached once by the cluster (absent in
    /// bare unit-test deployments).
    metrics: std::sync::OnceLock<DsMetrics>,
    /// Causal-tracing handle (DESIGN.md §17), attached once by the
    /// cluster. Chunk-IO spans only open under an ambient parent, so a
    /// bare dataserver call outside a traced operation records nothing.
    trace: std::sync::OnceLock<TraceHandle>,
}

impl Dataserver {
    /// Opens (creating if needed) a dataserver rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns an error if the root directory cannot be created.
    pub fn open(host: HostId, root: &Path) -> Result<Dataserver, FsError> {
        std::fs::create_dir_all(root)?;
        Ok(Dataserver {
            host,
            root: root.to_path_buf(),
            replicas: Mutex::new(HashMap::new()),
            up: AtomicBool::new(true),
            metrics: std::sync::OnceLock::new(),
            trace: std::sync::OnceLock::new(),
        })
    }

    /// Attaches chunk-IO telemetry: `appends_total` / `reads_total`,
    /// `append_bytes` / `read_bytes` histograms, and `refused_total`
    /// (requests rejected while crashed). Idempotent; a second attach
    /// is ignored.
    pub fn attach_metrics(&self, scope: &mayflower_telemetry::Scope) {
        let _ = self.metrics.set(DsMetrics {
            appends: scope.counter("appends_total"),
            append_bytes: scope.histogram("append_bytes"),
            reads: scope.counter("reads_total"),
            read_bytes: scope.histogram("read_bytes"),
            refused: scope.counter("refused_total"),
        });
    }

    /// Attaches a causal-tracing handle. Idempotent; a second attach
    /// is ignored.
    pub fn attach_trace(&self, handle: TraceHandle) {
        // Idempotent: the first cluster to open this store wins.
        let _ = self.trace.set(handle);
    }

    /// Opens a chunk-IO span under the caller's ambient span, stamped
    /// with this host. `None` when tracing is off, unattached, or the
    /// call is not part of a traced operation.
    fn io_span(&self, name: &str) -> Option<ActiveSpan> {
        let mut span = self.trace.get()?.child(name)?;
        span.annotate("host", self.host.0.to_string());
        Some(span)
    }

    /// Simulates a fail-stop crash: subsequent operations return
    /// [`FsError::Unavailable`] until [`Dataserver::restart`].
    pub fn crash(&self) {
        self.up.store(false, Ordering::SeqCst);
    }

    /// Brings a crashed dataserver back; on-disk state is intact. The
    /// replica table is emptied, as a new process's would be: every
    /// replica is loaded from disk again on its next touch. An append
    /// that was running when the dataserver went down finishes first;
    /// one that arrives at a dropped entry later is refused, as a
    /// request to the crashed process would have been.
    pub fn restart(&self) {
        let mut table = self.replicas.lock();
        for (_, state) in table.drain() {
            // Holding the table lock keeps loads out until every old
            // entry is quiet, so no load sees half an append.
            let _held = state.meta.lock();
            state.retired.store(true, Ordering::Relaxed);
        }
        self.up.store(true, Ordering::SeqCst);
    }

    /// Whether the dataserver is accepting requests.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    fn ensure_up(&self) -> Result<(), FsError> {
        if self.is_up() {
            Ok(())
        } else {
            if let Some(m) = self.metrics.get() {
                m.refused.inc();
            }
            Err(FsError::Unavailable(format!(
                "dataserver on host {} is down",
                self.host.0
            )))
        }
    }

    /// The host this dataserver runs on.
    #[must_use]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The storage root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_dir(&self, id: FileId) -> PathBuf {
        self.root.join(id.as_hex())
    }

    fn chunk_path(&self, id: FileId, chunk: u64) -> PathBuf {
        // On-disk chunk names are 1-based (§3.3.2).
        self.file_dir(id).join(format!("{}", chunk + 1))
    }

    /// On-disk location of a sealed chunk's fragment (`f<chunk>.<j>`,
    /// chunk 1-based like chunk files). Public so tests and tooling can
    /// inject fragment corruption.
    #[must_use]
    pub fn fragment_path(&self, id: FileId, chunk: u64, index: usize) -> PathBuf {
        self.file_dir(id).join(format!("f{}.{index}", chunk + 1))
    }

    /// The table entry of replica `id`, loaded from disk on first touch:
    /// `meta` parsed once, the size derived from the chunk files. The
    /// load runs under the table lock, so a replica never has two
    /// entries and `delete_file` cannot interleave with it.
    fn replica(&self, id: FileId) -> Result<Arc<ReplicaState>, FsError> {
        self.ensure_up()?;
        let mut table = self.replicas.lock();
        if let Some(state) = table.get(&id) {
            return Ok(state.clone());
        }
        let body = std::fs::read(self.file_dir(id).join("meta"))
            .map_err(|e| not_found_or_io(e, || id.to_string()))?;
        let meta: FileMeta = serde_json::from_slice(&body)
            .map_err(|e| FsError::CorruptMetadata(format!("meta of {id}: {e}")))?;
        if meta.chunk_size == 0 {
            return Err(FsError::CorruptMetadata(format!(
                "meta of {id}: chunk size 0"
            )));
        }
        let size = self.derive_size(id, meta.chunk_size, meta.sealed_chunks)?;
        let state = ReplicaState::new(&meta, size);
        table.insert(id, state.clone());
        Ok(state)
    }

    /// Takes a replica's append lock for a call that changes the
    /// replica, refusing an entry that was dropped meanwhile.
    fn hold<'a>(
        &self,
        state: &'a ReplicaState,
    ) -> Result<parking_lot::MutexGuard<'a, FileMeta>, FsError> {
        let held = state.meta.lock();
        if state.retired.load(Ordering::Relaxed) {
            return Err(FsError::Unavailable(format!(
                "dataserver on host {} reloads the replica",
                self.host.0
            )));
        }
        Ok(held)
    }

    /// The load rule: a replica's size is where its chunk files end.
    /// Chunks below the seal watermark live in fragments and may be
    /// absent here, so the watermark is the floor; from it upwards the
    /// chunk files must be a run of full chunks ending in at most one
    /// partial chunk, which is all `append_local` ever leaves behind.
    /// Any other layout has no offset at which an append would be
    /// right, and is reported instead of guessed at.
    fn derive_size(&self, id: FileId, chunk_size: u64, sealed_chunks: u64) -> Result<u64, FsError> {
        let corrupt = |chunk: u64, why: &str| {
            FsError::CorruptMetadata(format!("chunk {chunk} of {id}: {why}"))
        };
        let mut chunks = Vec::new();
        for entry in std::fs::read_dir(self.file_dir(id))? {
            let entry = entry?;
            // Chunk files are named by their 1-based number; `meta` and
            // fragment files are not numbers.
            let chunk = entry
                .file_name()
                .to_str()
                .and_then(|n| n.parse::<u64>().ok())
                .and_then(|n| n.checked_sub(1));
            if let Some(chunk) = chunk.filter(|c| *c >= sealed_chunks) {
                chunks.push((chunk, entry.metadata()?.len()));
            }
        }
        chunks.sort_unstable();
        let mut size = sealed_chunks
            .checked_mul(chunk_size)
            .ok_or_else(|| corrupt(sealed_chunks, "seal watermark out of range"))?;
        for (chunk, len) in chunks {
            if chunk.checked_mul(chunk_size) != Some(size) {
                return Err(corrupt(
                    size / chunk_size,
                    &format!("short or missing, yet chunk {chunk} exists"),
                ));
            }
            if len > chunk_size {
                return Err(corrupt(chunk, "longer than the chunk size"));
            }
            size += len;
        }
        Ok(size)
    }

    /// Creates the local directory and metadata for a new file replica.
    /// The replica starts at its seal watermark (zero for a new file;
    /// a repair destination of a coded file starts where the replicated
    /// tail does); `meta.size` is not used.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if this replica already holds
    /// the file.
    pub fn create_file(&self, meta: &FileMeta) -> Result<(), FsError> {
        self.ensure_up()?;
        if meta.chunk_size == 0 {
            return Err(FsError::InvalidArgument(format!(
                "{}: chunk size 0",
                meta.name
            )));
        }
        let dir = self.file_dir(meta.id);
        if dir.exists() {
            return Err(FsError::AlreadyExists(meta.name.clone()));
        }
        std::fs::create_dir_all(&dir)?;
        self.write_meta(meta)?;
        self.replicas
            .lock()
            .insert(meta.id, ReplicaState::new(meta, meta.sealed_bytes()));
        Ok(())
    }

    fn write_meta(&self, meta: &FileMeta) -> Result<(), FsError> {
        let body =
            serde_json::to_vec_pretty(meta).map_err(|e| FsError::CorruptMetadata(e.to_string()))?;
        // Write-then-rename: a loader must never observe a truncated
        // metadata file mid-rewrite.
        let dir = self.file_dir(meta.id);
        let tmp = dir.join(format!("meta.tmp.{:?}", std::thread::current().id()));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, dir.join("meta"))?;
        Ok(())
    }

    /// Replaces the locally stored metadata of a replica (a rename, a
    /// new replica or fragment map, a seal-watermark advance), so a
    /// post-crash nameserver rebuild sees the current mapping. The
    /// replica's size stays what its chunk files say — `meta.size` is
    /// not used — except that it never lies below the seal watermark.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent and
    /// [`FsError::InvalidArgument`] if `meta` would change the chunk
    /// size.
    pub fn update_meta(&self, meta: &FileMeta) -> Result<(), FsError> {
        let state = self.replica(meta.id)?;
        if meta.chunk_size != state.chunk_size {
            return Err(FsError::InvalidArgument(format!(
                "{}: chunk size is fixed at creation",
                meta.name
            )));
        }
        let mut held = self.hold(&state)?;
        self.write_meta(meta)?;
        held.clone_from(meta);
        // The same floor the load rule applies, so the replica reads
        // the same before and after a restart.
        state.size.fetch_max(meta.sealed_bytes(), Ordering::Release);
        Ok(())
    }

    /// The replica's metadata as last written by `create_file` or
    /// `update_meta`, carrying the replica's current size. Served from
    /// the replica table; the `meta` file is read only to load the
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent, or
    /// [`FsError::CorruptMetadata`] if its `meta` fails to parse or its
    /// chunk files are in a layout no append leaves behind.
    pub fn read_meta(&self, id: FileId) -> Result<FileMeta, FsError> {
        let state = self.replica(id)?;
        let mut meta = state.meta.lock().clone();
        meta.size = state.size.load(Ordering::Acquire);
        Ok(meta)
    }

    /// Whether this dataserver holds a replica of the file. A downed
    /// dataserver answers no — callers probing for live copies (repair,
    /// primary election) must not count a crashed replica.
    #[must_use]
    pub fn has_file(&self, id: FileId) -> bool {
        self.is_up() && self.file_dir(id).join("meta").exists()
    }

    /// Bytes the replica's chunk files hold (their summed lengths).
    /// Less than the replica's size for a coded file, whose sealed
    /// chunks were reclaimed and leave holes below the seal watermark.
    ///
    /// # Errors
    ///
    /// As [`Dataserver::read_meta`].
    pub fn local_size(&self, id: FileId) -> Result<u64, FsError> {
        let state = self.replica(id)?;
        let chunks = state
            .size
            .load(Ordering::Acquire)
            .div_ceil(state.chunk_size);
        let mut held = 0u64;
        for chunk in 0..chunks {
            if let Ok(md) = std::fs::metadata(self.chunk_path(id, chunk)) {
                held += md.len();
            }
        }
        Ok(held)
    }

    /// Appends `data` to the local replica, spilling across chunk
    /// boundaries as needed. Returns the file's new size. One chunk
    /// write per touched chunk and nothing else: the position comes
    /// from the replica table and the new size is published there once
    /// the bytes are written; `meta` is not touched.
    ///
    /// Only one append per file runs at a time; concurrent reads
    /// proceed unblocked (§3.3.2) and see either the old size or the
    /// new one with all of its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn append_local(&self, id: FileId, data: &[u8]) -> Result<u64, FsError> {
        self.append_with(id, data.len(), |state, end| {
            self.write_chunks(id, state.chunk_size, end, data)
        })
    }

    /// Applies an append the primary ordered at `offset`, so that this
    /// replica stays a byte-prefix of `primary` (DESIGN.md §8). With `s`
    /// the replica's size, read under its append lock:
    ///
    /// * `s == offset`: `data` is written, as by
    ///   [`Dataserver::append_local`];
    /// * `s < offset`: the replica missed earlier relays, so it copies
    ///   `[s, offset)` from `primary` first, then writes `data`;
    /// * `s > offset`: the first `s − offset` bytes of `data` are
    ///   already here, so only the rest is written.
    ///
    /// The new size is published once, after every write, and returned.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent,
    /// `primary`'s errors when the catch-up cannot read it, and
    /// [`FsError::Consistency`] when `primary` ends before `offset`.
    pub fn relay(
        &self,
        primary: &dyn RepairSource,
        id: FileId,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, FsError> {
        self.append_with(id, data.len(), |state, mut end| {
            if end < offset {
                copy_from(primary, id, state.chunk_size, end, offset, |piece| {
                    end = self.write_chunks(id, state.chunk_size, end, piece)?;
                    Ok(())
                })?;
                if end < offset {
                    return Err(FsError::Consistency(format!(
                        "{id}: the primary ends at {end}, before the relayed offset {offset}"
                    )));
                }
            }
            let have = usize::try_from(end - offset).map_or(data.len(), |n| n.min(data.len()));
            self.write_chunks(id, state.chunk_size, end, &data[have..])
        })
    }

    /// The one append core, traced as `chunk_append`: under the
    /// replica's append lock, `write` writes from the replica's end and
    /// returns the new end, which is published when it returns.
    fn append_with(
        &self,
        id: FileId,
        bytes: usize,
        write: impl FnOnce(&ReplicaState, u64) -> Result<u64, FsError>,
    ) -> Result<u64, FsError> {
        trace::in_span(self.io_span("chunk_append"), |span| {
            trace::annotate(span, "bytes", bytes);
            let state = self.replica(id)?;
            let held = self.hold(&state)?;
            let size = state.size.load(Ordering::Relaxed); // stored only under `meta`
            match write(&state, size) {
                Ok(new_size) => {
                    state.size.store(new_size, Ordering::Release);
                    if let Some(m) = self.metrics.get() {
                        m.appends.inc();
                        m.append_bytes.record(new_size - size);
                    }
                    trace::annotate(span, "size", new_size);
                    Ok(new_size)
                }
                Err(e) => {
                    // A write cut short leaves bytes past the published
                    // size. Give the entry up: the next touch loads the
                    // replica from its chunk files again, as a restart
                    // would, so the next append lands where they end.
                    state.retired.store(true, Ordering::Relaxed);
                    drop(held);
                    let mut table = self.replicas.lock();
                    if table.get(&id).is_some_and(|cur| Arc::ptr_eq(cur, &state)) {
                        table.remove(&id);
                    }
                    Err(e)
                }
            }
        })
    }

    /// Writes `data` at `pos`, the end of the replica: one
    /// open-append-close per touched chunk. Returns the new end.
    fn write_chunks(
        &self,
        id: FileId,
        chunk_size: u64,
        mut pos: u64,
        mut data: &[u8],
    ) -> Result<u64, FsError> {
        while !data.is_empty() {
            let offset_in_chunk = pos % chunk_size;
            let take = ((chunk_size - offset_in_chunk) as usize).min(data.len());
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.chunk_path(id, pos / chunk_size))?;
            debug_assert_eq!(f.metadata()?.len(), offset_in_chunk);
            f.write_all(&data[..take])?;
            data = &data[take..];
            pos += take as u64;
        }
        Ok(pos)
    }

    /// Reads `[offset, offset + len)` from the local replica. Returns
    /// the bytes read (shorter than `len` at end-of-file) together
    /// with the replica's current size — the paper's way of letting
    /// clients discover appended chunks ("the dataserver includes the
    /// file's size with each read result").
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn read_local(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError> {
        let mut out = Vec::new();
        let (_, size) = self.read_chunks(id, offset, len, |f, n, rest| {
            append_exactly(f, n, rest, &mut out)
        })?;
        Ok((out, size))
    }

    /// Appends `[offset, offset + len)` of the local replica to `out`,
    /// traced as `chunk_read`: the bytes land once, in `out`'s spare
    /// capacity, with nothing zero-filled first. Returns the byte count
    /// appended (shorter than `len` at end-of-file) and the replica's
    /// current size. `out` grows by at most what the replica holds, so
    /// a `len` far past end-of-file allocates nothing for it. On error
    /// `out` may keep part of the range past its old length.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn read_local_onto(
        &self,
        id: FileId,
        offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<(usize, u64), FsError> {
        trace::in_span(self.io_span("chunk_read"), |span| {
            trace::annotate(span, "offset", offset);
            let (filled, size) = self.read_chunks(id, offset, len, |f, n, rest| {
                append_exactly(f, n, rest, out)
            })?;
            trace::annotate(span, "bytes", filled);
            Ok((filled, size))
        })
    }

    /// Reads `[offset, offset + buf.len())` of the local replica into
    /// `buf`, traced as `chunk_read`, returning the byte count filled
    /// (shorter than the buffer at end-of-file) and the replica's
    /// current size. The fixed-buffer form of
    /// [`Dataserver::read_local_onto`] (which the data path calls): the
    /// benchmark's dataserver probe reads through it.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn read_local_into(
        &self,
        id: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(usize, u64), FsError> {
        trace::in_span(self.io_span("chunk_read"), |span| {
            trace::annotate(span, "offset", offset);
            let mut at = 0;
            let (filled, size) = self.read_chunks(id, offset, buf.len() as u64, |f, n, _| {
                f.read_exact(&mut buf[at..at + n])?;
                at += n;
                Ok(())
            })?;
            trace::annotate(span, "bytes", filled);
            Ok((filled, size))
        })
    }

    /// The one read core: `[offset, offset + len)` of replica `id`,
    /// truncated at its published size, one chunk file at a time.
    /// `land(file, n, rest)` reads the next `n` bytes from `file`,
    /// which is positioned at them; `rest ≥ n` bytes remain to be read
    /// in all. Returns the bytes read and the replica's size.
    fn read_chunks(
        &self,
        id: FileId,
        offset: u64,
        len: u64,
        mut land: impl FnMut(&mut std::fs::File, usize, usize) -> std::io::Result<()>,
    ) -> Result<(usize, u64), FsError> {
        let state = self.replica(id)?;
        let size = state.size.load(Ordering::Acquire);
        let end = offset.saturating_add(len).min(size);
        let want = end.saturating_sub(offset) as usize;
        let mut filled = 0usize;
        // A zero-length read is a size probe, and a request too.
        if want > 0 {
            for slice in split_range(state.chunk_size, offset, end - offset) {
                let mut f = std::fs::File::open(self.chunk_path(id, slice.chunk))?;
                f.seek(SeekFrom::Start(slice.offset_in_chunk))?;
                land(&mut f, slice.len as usize, want - filled)?;
                filled += slice.len as usize;
            }
        }
        if let Some(m) = self.metrics.get() {
            m.reads.inc();
            m.read_bytes.record(filled as u64);
        }
        Ok((filled, size))
    }

    /// Stores fragment `index` of sealed chunk `chunk` (DESIGN.md §14).
    /// The fragment is framed with a magic, the chunk's original
    /// payload length, and a CRC32 of the shard so silent corruption is
    /// detected at read time — Reed-Solomon itself cannot tell a
    /// corrupt shard from a valid one. Idempotent (write-then-rename).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if this dataserver is down.
    pub fn put_fragment(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
        payload_len: u64,
        shard: &[u8],
    ) -> Result<(), FsError> {
        trace::in_span(self.io_span("fragment_put"), |span| {
            trace::annotate(span, "chunk", chunk);
            trace::annotate(span, "fragment", index);
            self.ensure_up()?;
            let dir = self.file_dir(id);
            std::fs::create_dir_all(&dir)?;
            let mut header = [0u8; FRAGMENT_HEADER];
            header[..4].copy_from_slice(FRAGMENT_MAGIC);
            header[4..12].copy_from_slice(&payload_len.to_le_bytes());
            header[12..].copy_from_slice(&mayflower_kvstore::crc::crc32(shard).to_le_bytes());
            let tmp = dir.join(format!(
                "f{}.{index}.tmp.{:?}",
                chunk + 1,
                std::thread::current().id()
            ));
            // Header and shard go to the file as two writes: no framed
            // copy of the shard is ever built.
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&header)?;
            f.write_all(shard)?;
            drop(f);
            std::fs::rename(&tmp, self.fragment_path(id, chunk, index))?;
            if let Some(m) = self.metrics.get() {
                m.appends.inc();
                m.append_bytes.record(shard.len() as u64);
            }
            Ok(())
        })
    }

    /// Reads fragment `index` of sealed chunk `chunk`, verifying the
    /// checksum. Returns the shard bytes and the chunk's original
    /// payload length. The allocating twin of
    /// [`Dataserver::read_fragment_into`]: same read core, the shard
    /// appended to a buffer sized from the stored frame.
    ///
    /// # Errors
    ///
    /// As [`Dataserver::read_fragment_into`].
    pub fn read_fragment(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
    ) -> Result<(Vec<u8>, u64), FsError> {
        let mut shard = Vec::new();
        let out = &mut shard;
        let payload_len = self.read_fragment_inner(id, chunk, index, move |f, len| {
            Some(append_exactly(f, len, len, out).map(|()| out.as_slice()))
        })?;
        Ok((shard, payload_len))
    }

    /// Reads the shard of fragment `index` of sealed chunk `chunk`
    /// straight into `dst` — which must be exactly the stored shard's
    /// length — and verifies the checksum in place. Returns the chunk's
    /// original payload length. On error `dst` holds unspecified bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if down, [`FsError::NotFound`]
    /// if the fragment is absent, or [`FsError::CorruptMetadata`] when
    /// the frame is truncated, mis-sized or fails its magic or checksum
    /// — callers treat a corrupt fragment exactly like a lost one and
    /// fetch a different source.
    pub fn read_fragment_into(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
        dst: &mut [u8],
    ) -> Result<u64, FsError> {
        self.read_fragment_inner(id, chunk, index, move |f, len| {
            (len == dst.len()).then(|| f.read_exact(dst).map(|()| &*dst))
        })
    }

    /// The one fragment-read core, traced as `fragment_read`: open,
    /// 16-byte header, then `land` reads the shard of the stored length
    /// and returns it (`None` rejects that length), and the checksum is
    /// verified in place.
    fn read_fragment_inner<'a>(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
        land: impl FnOnce(&mut std::fs::File, usize) -> Option<std::io::Result<&'a [u8]>>,
    ) -> Result<u64, FsError> {
        trace::in_span(self.io_span("fragment_read"), |span| {
            trace::annotate(span, "chunk", chunk);
            trace::annotate(span, "fragment", index);
            self.ensure_up()?;
            let what = || format!("fragment {index} of chunk {chunk} of {id}");
            let corrupt = |why: &str| FsError::CorruptMetadata(format!("{}: {why}", what()));
            let mut f = std::fs::File::open(self.fragment_path(id, chunk, index))
                .map_err(|e| not_found_or_io(e, what))?;
            let stored = f.metadata()?.len();
            let mut header = [0u8; FRAGMENT_HEADER];
            if f.read_exact(&mut header).is_err() {
                return Err(corrupt("bad frame"));
            }
            let [m0, m1, m2, m3, l0, l1, l2, l3, l4, l5, l6, l7, c0, c1, c2, c3] = header;
            if &[m0, m1, m2, m3] != FRAGMENT_MAGIC {
                return Err(corrupt("bad frame"));
            }
            let payload_len = u64::from_le_bytes([l0, l1, l2, l3, l4, l5, l6, l7]);
            let want_crc = u32::from_le_bytes([c0, c1, c2, c3]);
            let shard = stored
                .checked_sub(FRAGMENT_HEADER as u64)
                .and_then(|len| usize::try_from(len).ok())
                .and_then(|len| land(&mut f, len))
                .ok_or_else(|| corrupt("unexpected shard length"))?
                // A file that shrank since the stat is a torn frame, not
                // an I/O failure.
                .map_err(|_| corrupt("short shard"))?;
            if mayflower_kvstore::crc::crc32(shard) != want_crc {
                return Err(corrupt("checksum mismatch"));
            }
            if let Some(m) = self.metrics.get() {
                m.reads.inc();
                m.read_bytes.record(shard.len() as u64);
            }
            Ok(payload_len)
        })
    }

    /// Whether this dataserver holds the given fragment. A downed
    /// dataserver answers no, like [`Dataserver::has_file`].
    #[must_use]
    pub fn has_fragment(&self, id: FileId, chunk: u64, index: usize) -> bool {
        self.is_up() && self.fragment_path(id, chunk, index).exists()
    }

    /// Removes the replicated copy of a sealed chunk (the storage
    /// reclaim half of seal-and-encode). Missing chunk files are fine —
    /// the seal may be retried after a partial failure.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if this dataserver is down.
    pub fn drop_chunk(&self, id: FileId, chunk: u64) -> Result<(), FsError> {
        self.ensure_up()?;
        match std::fs::remove_file(self.chunk_path(id, chunk)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Deletes the local replica.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn delete_file(&self, id: FileId) -> Result<(), FsError> {
        self.ensure_up()?;
        let dir = self.file_dir(id);
        if !dir.exists() {
            return Err(FsError::NotFound(id.to_string()));
        }
        std::fs::remove_dir_all(dir)?;
        self.replicas.lock().remove(&id);
        Ok(())
    }

    /// Lists the metadata of every replica stored here, each with its
    /// current (chunk-derived) size — the nameserver's rebuild source
    /// after an unclean restart (§3.3.1). A replica whose state cannot
    /// be loaded (unparsable `meta`, impossible chunk layout) is left
    /// out of the list and its id returned beside it, so the caller can
    /// tell a partial listing from a complete one. Both halves are
    /// sorted by id.
    ///
    /// # Errors
    ///
    /// Returns an error if the root directory cannot be read.
    pub fn list_files(&self) -> Result<(Vec<FileMeta>, Vec<FileId>), FsError> {
        self.ensure_up()?;
        let mut listed = Vec::new();
        let mut skipped = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(id) = entry.file_name().to_str().and_then(FileId::from_hex) else {
                continue;
            };
            match self.read_meta(id) {
                Ok(meta) => listed.push(meta),
                // A directory holding only fragments is not a replica.
                Err(FsError::NotFound(_)) => {}
                Err(_) => skipped.push(id),
            }
        }
        listed.sort_by_key(|a| a.id);
        skipped.sort();
        Ok((listed, skipped))
    }

    /// **Repair pull** (dataserver → dataserver): copies a replica
    /// from `source` onto this dataserver chunk-by-chunk, creating the
    /// local directory with `meta` as its metadata (written once: the
    /// copied size is what the chunk files say, not a field to stamp
    /// afterwards). `source` is the co-resident [`Dataserver`] that
    /// holds the replica.
    ///
    /// Idempotent: if this dataserver already holds the file, nothing
    /// is copied and `Ok(0)` is returned. A mid-copy failure removes
    /// the partial replica so a retry starts clean.
    ///
    /// Returns the number of bytes copied.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if either side is down, or the
    /// source's read errors.
    pub fn pull_repair(&self, source: &dyn RepairSource, meta: &FileMeta) -> Result<u64, FsError> {
        // The copy's chunk appends stay siblings of this span, under
        // the caller's.
        let caller = trace::current_context();
        trace::in_span(self.io_span("pull_repair"), |span| {
            trace::annotate(span, "file", &meta.name);
            self.ensure_up()?;
            let copied = if self.has_file(meta.id) {
                0
            } else {
                // A coded file's replicas hold only the chunks above the
                // seal watermark (the sealed region lives in fragments),
                // so the copy starts there — which is where
                // `create_file` puts the end of the new replica, keeping
                // `append_local`'s chunk numbering consistent with the
                // source.
                let start = meta.sealed_bytes();
                self.create_file(meta)?;
                trace::with_context(caller, || {
                    copy_from(source, meta.id, meta.chunk_size, start, u64::MAX, |piece| {
                        self.append_local(meta.id, piece).map(drop)
                    })
                })
                .inspect_err(|_| {
                    let _ = self.delete_file(meta.id);
                })?
            };
            trace::annotate(span, "bytes", copied);
            Ok(copied)
        })
    }
}

/// Appends the next `n` bytes of `f` to `out`, reserving `rest ≥ n`
/// when `out` has less spare capacity: `read_to_end` fills the spare
/// capacity without zeroing it first. Fewer than `n` bytes is
/// `UnexpectedEof`, as `read_exact` reports it.
fn append_exactly(
    f: &mut std::fs::File,
    n: usize,
    rest: usize,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    out.reserve(rest);
    if f.take(n as u64).read_to_end(out)? < n {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Maps a failed open or read of a path that should exist: absence is
/// [`FsError::NotFound`] of `what`, anything else the I/O error.
fn not_found_or_io(e: std::io::Error, what: impl FnOnce() -> String) -> FsError {
    if e.kind() == std::io::ErrorKind::NotFound {
        FsError::NotFound(what())
    } else {
        e.into()
    }
}

/// The one copy loop from a [`RepairSource`]: reads `[from, end)` of
/// replica `id` a chunk's length at a time, stopping early where the
/// source ends, and hands each piece to `sink` in order. Returns the
/// bytes copied.
fn copy_from(
    source: &dyn RepairSource,
    id: FileId,
    chunk_size: u64,
    from: u64,
    end: u64,
    mut sink: impl FnMut(&[u8]) -> Result<(), FsError>,
) -> Result<u64, FsError> {
    let mut pos = from;
    while pos < end {
        let (data, total) = source.repair_read(id, pos, chunk_size.min(end - pos))?;
        if data.is_empty() {
            break;
        }
        sink(&data)?;
        pos += data.len() as u64;
        if pos >= total {
            break;
        }
    }
    Ok(pos - from)
}

/// The source side of a copy between dataservers: a destination
/// [`Dataserver::pull_repair`] streams a whole replica through this
/// trait, and a lagging replica's [`Dataserver::relay`] the bytes it
/// missed. [`Dataserver`] is the one source; tests substitute their
/// own to watch the destination mid-copy.
pub trait RepairSource {
    /// Reads `[offset, offset + len)` of the replica, returning the
    /// bytes and the replica's current total size.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if the source is down or
    /// [`FsError::NotFound`] if it does not hold the replica.
    fn repair_read(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError>;
}

impl RepairSource for Dataserver {
    fn repair_read(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError> {
        self.read_local(id, offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_simcore::testutil::TempDir;

    fn meta(id: u128, chunk_size: u64) -> FileMeta {
        FileMeta {
            id: FileId(id),
            name: format!("file-{id}"),
            chunk_size,
            size: 0,
            replicas: vec![HostId(0)],
            redundancy: crate::types::Redundancy::default(),
            fragments: Vec::new(),
            sealed_chunks: 0,
        }
    }

    #[test]
    fn create_append_read_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(1, 8);
        ds.create_file(&m).unwrap();
        assert_eq!(ds.append_local(m.id, b"hello ").unwrap(), 6);
        assert_eq!(ds.append_local(m.id, b"world!").unwrap(), 12);
        let (data, size) = ds.read_local(m.id, 0, 100).unwrap();
        assert_eq!(data, b"hello world!");
        assert_eq!(size, 12);
    }

    #[test]
    fn appends_spill_across_chunks() {
        let dir = TempDir::new("spill");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(2, 4);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"abcdefghij").unwrap(); // 10 bytes, chunk 4
                                                       // Chunks 1..=3 exist with sizes 4, 4, 2 (1-based names).
        let d = dir.path().join(m.id.as_hex());
        assert_eq!(std::fs::metadata(d.join("1")).unwrap().len(), 4);
        assert_eq!(std::fs::metadata(d.join("2")).unwrap().len(), 4);
        assert_eq!(std::fs::metadata(d.join("3")).unwrap().len(), 2);
        // Ranged read across boundaries.
        let (data, _) = ds.read_local(m.id, 3, 5).unwrap();
        assert_eq!(data, b"defgh");
    }

    #[test]
    fn read_past_eof_truncates_and_reports_size() {
        let dir = TempDir::new("eof");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(3, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"12345").unwrap();
        let (data, size) = ds.read_local(m.id, 3, 100).unwrap();
        assert_eq!(data, b"45");
        assert_eq!(size, 5);
        let (data, size) = ds.read_local(m.id, 99, 10).unwrap();
        assert!(data.is_empty());
        assert_eq!(size, 5);
    }

    #[test]
    fn double_create_rejected() {
        let dir = TempDir::new("dup");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(4, 8);
        ds.create_file(&m).unwrap();
        assert!(matches!(ds.create_file(&m), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn delete_removes_everything() {
        let dir = TempDir::new("delete");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(5, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"data").unwrap();
        ds.delete_file(m.id).unwrap();
        assert!(!ds.has_file(m.id));
        assert!(matches!(
            ds.read_local(m.id, 0, 1),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(ds.delete_file(m.id), Err(FsError::NotFound(_))));
    }

    #[test]
    fn list_files_finds_all_replicas() {
        let dir = TempDir::new("list");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        for i in 0..5u128 {
            ds.create_file(&meta(i, 8)).unwrap();
        }
        let (listed, skipped) = ds.list_files().unwrap();
        assert_eq!(listed.len(), 5);
        assert!(listed.windows(2).all(|w| w[0].id < w[1].id));
        assert!(skipped.is_empty());
    }

    #[test]
    fn local_size_tracks_chunks() {
        let dir = TempDir::new("size");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(6, 4);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"123456789").unwrap();
        assert_eq!(ds.local_size(m.id).unwrap(), 9);
    }

    #[test]
    fn concurrent_appends_serialize() {
        let dir = TempDir::new("concurrent");
        let ds = Arc::new(Dataserver::open(HostId(0), dir.path()).unwrap());
        let m = meta(7, 1 << 20);
        ds.create_file(&m).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ds = ds.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        ds.append_local(FileId(7), &[t as u8; 16]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (data, size) = ds.read_local(m.id, 0, 1 << 20).unwrap();
        assert_eq!(size, 8 * 50 * 16);
        assert_eq!(data.len() as u64, size);
        // Atomicity: every 16-byte record is homogeneous.
        for rec in data.chunks(16) {
            assert!(rec.iter().all(|b| *b == rec[0]), "torn append: {rec:?}");
        }
    }

    #[test]
    fn crash_refuses_requests_and_restart_recovers_data() {
        let dir = TempDir::new("crash");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = meta(9, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"durable").unwrap();
        ds.crash();
        assert!(!ds.is_up());
        // Every data op refuses; the replica looks absent to probes.
        assert!(matches!(
            ds.read_local(m.id, 0, 7),
            Err(FsError::Unavailable(_))
        ));
        assert!(matches!(
            ds.append_local(m.id, b"x"),
            Err(FsError::Unavailable(_))
        ));
        assert!(matches!(ds.list_files(), Err(FsError::Unavailable(_))));
        assert!(!ds.has_file(m.id));
        // Fail-stop, not data loss: restart serves the old bytes.
        ds.restart();
        assert!(ds.has_file(m.id));
        let (data, size) = ds.read_local(m.id, 0, 100).unwrap();
        assert_eq!(data, b"durable");
        assert_eq!(size, 7);
    }

    #[test]
    fn pull_repair_copies_across_chunk_boundaries() {
        let src_dir = TempDir::new("pull-src");
        let dst_dir = TempDir::new("pull-dst");
        let src = Dataserver::open(HostId(0), src_dir.path()).unwrap();
        let dst = Dataserver::open(HostId(1), dst_dir.path()).unwrap();
        let mut m = meta(21, 8); // tiny chunks: the pull loops
        src.create_file(&m).unwrap();
        let payload = b"twenty-three byte body!";
        m.size = src.append_local(m.id, payload).unwrap();
        let copied = dst.pull_repair(&src, &m).unwrap();
        assert_eq!(copied, payload.len() as u64);
        let (data, size) = dst.read_local(m.id, 0, 100).unwrap();
        assert_eq!(data, payload);
        assert_eq!(size, payload.len() as u64);
        // Idempotent: a second pull is a no-op.
        assert_eq!(dst.pull_repair(&src, &m).unwrap(), 0);
    }

    #[test]
    fn pull_repair_of_empty_file_creates_shell() {
        let src_dir = TempDir::new("pull-empty-src");
        let dst_dir = TempDir::new("pull-empty-dst");
        let src = Dataserver::open(HostId(0), src_dir.path()).unwrap();
        let dst = Dataserver::open(HostId(1), dst_dir.path()).unwrap();
        let m = meta(22, 8);
        src.create_file(&m).unwrap();
        assert_eq!(dst.pull_repair(&src, &m).unwrap(), 0);
        assert!(dst.has_file(m.id));
    }

    #[test]
    fn pull_repair_from_downed_source_leaves_no_partial() {
        let src_dir = TempDir::new("pull-down-src");
        let dst_dir = TempDir::new("pull-down-dst");
        let src = Dataserver::open(HostId(0), src_dir.path()).unwrap();
        let dst = Dataserver::open(HostId(1), dst_dir.path()).unwrap();
        let mut m = meta(23, 8);
        src.create_file(&m).unwrap();
        m.size = src.append_local(m.id, b"payload").unwrap();
        src.crash();
        assert!(matches!(
            dst.pull_repair(&src, &m),
            Err(FsError::Unavailable(_))
        ));
        // The failed pull cleaned up after itself.
        assert!(!dst.has_file(m.id));
    }

    /// A relay behind the primary's offset copies the gap first, one
    /// ahead writes only what it lacks, and one past the primary's end
    /// is refused: the replica stays a prefix of the primary throughout.
    #[test]
    fn relay_lands_at_the_primarys_offset() {
        let (p_dir, r_dir) = (TempDir::new("relay-p"), TempDir::new("relay-r"));
        let primary = Dataserver::open(HostId(0), p_dir.path()).unwrap();
        let replica = Dataserver::open(HostId(1), r_dir.path()).unwrap();
        let m = meta(24, 4);
        primary.create_file(&m).unwrap();
        replica.create_file(&m).unwrap();
        let bytes = |ds: &Dataserver| ds.read_local(m.id, 0, 100).unwrap().0;

        primary.append_local(m.id, b"0123456789").unwrap();
        assert_eq!(replica.relay(&primary, m.id, 6, b"6789").unwrap(), 10);
        assert_eq!(bytes(&replica), bytes(&primary));

        primary.append_local(m.id, b"abcdef").unwrap();
        assert_eq!(replica.relay(&primary, m.id, 10, b"ab").unwrap(), 12);
        assert_eq!(replica.relay(&primary, m.id, 10, b"abcdef").unwrap(), 16);
        assert_eq!(replica.relay(&primary, m.id, 12, b"cd").unwrap(), 16);
        assert_eq!(bytes(&replica), bytes(&primary));

        assert!(matches!(
            replica.relay(&primary, m.id, 20, b"x"),
            Err(FsError::Consistency(_))
        ));
        assert_eq!(bytes(&replica), bytes(&primary));
    }

    #[test]
    fn fragment_frame_is_byte_identical_to_the_pinned_layout() {
        let dir = TempDir::new("frame");
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let shard: Vec<u8> = (0..300u32)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect();
        ds.put_fragment(FileId(7), 0, 2, 1200, &shard).unwrap();
        // The frame the commit before the CRC kernel swap wrote for the
        // same input: magic, payload length LE, crc32 LE, shard.
        let mut want = b"MFEC\xb0\x04\0\0\0\0\0\0\x76\x5e\xec\x32".to_vec();
        want.extend_from_slice(&shard);
        assert_eq!(
            std::fs::read(ds.fragment_path(FileId(7), 0, 2)).unwrap(),
            want
        );
        // No temporary file is left beside it.
        assert_eq!(
            std::fs::read_dir(ds.file_dir(FileId(7))).unwrap().count(),
            1
        );

        let mut dst = vec![0u8; shard.len()];
        assert_eq!(
            ds.read_fragment_into(FileId(7), 0, 2, &mut dst).unwrap(),
            1200
        );
        assert_eq!(dst, shard);
        assert_eq!(ds.read_fragment(FileId(7), 0, 2).unwrap(), (shard, 1200));
        assert!(matches!(
            ds.read_fragment(FileId(7), 0, 3),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn meta_survives_reopen() {
        let dir = TempDir::new("reopen");
        {
            let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
            let m = meta(8, 8);
            ds.create_file(&m).unwrap();
            ds.append_local(m.id, b"persist").unwrap();
        }
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let m = ds.read_meta(FileId(8)).unwrap();
        assert_eq!(m.size, 7);
        let (data, _) = ds.read_local(FileId(8), 0, 7).unwrap();
        assert_eq!(data, b"persist");
    }
}
