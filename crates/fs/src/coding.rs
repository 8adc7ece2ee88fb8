//! The erasure-coded storage tier (DESIGN.md §14): seal-and-encode of
//! complete chunks, degraded reads from any `k` fragments, and
//! reconstruction of a lost fragment for coded repair.
//!
//! Coded files keep the paper's §3.2 append path untouched: the tail
//! chunk is written `n`-way replicated through the primary, and only
//! **complete** chunks — immutable under append-only semantics — are
//! striped into `k` data + `m` parity fragments and dropped from the
//! replicas. Every fragment carries its own checksum frame at the
//! dataserver layer, so silent corruption is detected *before* the
//! codec (Reed-Solomon alone cannot tell a corrupt shard from a good
//! one) and demoted to an erasure the decode can heal.

use std::sync::Arc;

use mayflower_ec::Codec;
use mayflower_net::HostId;
use mayflower_telemetry::{Counter, Scope};

use crate::datapath::{fan_out, DataPlane, Piece, RetryPolicy};
use crate::error::FsError;
use crate::types::FileMeta;

/// Telemetry for the coded tier, registered under the cluster's `ec`
/// scope so every client and repair task aggregates into one series.
#[derive(Debug)]
pub(crate) struct EcMetrics {
    /// Payload bytes pushed through the encoder (seals + rebuilds).
    pub(crate) encode_bytes: Arc<Counter>,
    /// Payload bytes recovered through the decoder (degraded reads and
    /// fragment reconstruction).
    pub(crate) decode_bytes: Arc<Counter>,
    /// Chunks sealed (striped to fragments and dropped from replicas).
    pub(crate) chunks_sealed: Arc<Counter>,
    /// Sealed-chunk reads that needed a decode because a data fragment
    /// was missing or corrupt.
    pub(crate) degraded_reads: Arc<Counter>,
    /// Lost fragments rebuilt from `k` surviving sources.
    pub(crate) fragment_repairs: Arc<Counter>,
}

impl EcMetrics {
    pub(crate) fn new(scope: &Scope) -> EcMetrics {
        EcMetrics {
            encode_bytes: scope.counter("encode_bytes_total"),
            decode_bytes: scope.counter("decode_bytes_total"),
            chunks_sealed: scope.counter("chunks_sealed_total"),
            degraded_reads: scope.counter("degraded_reads_total"),
            fragment_repairs: scope.counter("fragment_repairs_total"),
        }
    }
}

/// Seals every complete-but-unsealed chunk of a coded file: reads the
/// chunk from a live replica (one [`DataPlane::read_piece_into`] sweep,
/// primary first, no retry), encodes it into `k + m` fragments, stores
/// one fragment per fragment host, advances the nameserver's seal
/// watermark, refreshes replica-local metadata, and reclaims the
/// replicated chunk copies.
///
/// **Best-effort and resumable**: a failed or short chunk read, or a
/// fragment host that is down, stops the seal at the current watermark
/// (the chunk stays replicated; a later append or an explicit
/// [`crate::Cluster::seal`] retries), and a crash between fragment
/// writes and the watermark update leaves only orphaned fragment files
/// that the retry overwrites. Callers must hold the file's append lock.
/// Returns the new watermark.
///
/// # Errors
///
/// Propagates nameserver metadata failures; storage-side unavailability
/// merely stops early.
pub(crate) fn seal_complete_chunks(
    nameserver: &dyn crate::service::MetadataService,
    plane: &DataPlane,
    name: &str,
) -> Result<u64, FsError> {
    let mut meta = nameserver.lookup(name)?;
    let Some((k, m)) = meta.redundancy.coded_params() else {
        return Ok(0);
    };
    if meta.fragments.len() != k + m {
        return Err(FsError::CorruptMetadata(format!(
            "{name}: {} fragment hosts for a {k}+{m} file",
            meta.fragments.len()
        )));
    }
    let codec = Codec::new(k, m);
    while meta.sealed_chunks < meta.complete_chunks() {
        let chunk = meta.sealed_chunks;
        let piece = Piece {
            host: meta.primary(),
            offset: chunk * meta.chunk_size,
            len: meta.chunk_payload_len(chunk),
            primary_only: false,
        };
        let mut payload = Vec::with_capacity(piece.len as usize);
        match plane.read_piece_into(RetryPolicy::ONCE, &meta, &piece, &mut payload) {
            Ok(done) if done.filled as u64 == piece.len => {}
            _ => break, // no live replica holds the chunk — retry later
        }
        let shards = codec.encode_payload(&payload);
        let mut stored_all = true;
        for (index, shard) in shards.iter().enumerate() {
            let host = meta.fragments[index];
            if plane
                .get(host)?
                .put_fragment(meta.id, chunk, index, payload.len() as u64, shard)
                .is_err()
            {
                stored_all = false;
                break;
            }
        }
        if !stored_all {
            break; // chunk stays replicated until every fragment lands
        }
        nameserver.record_seal(name, chunk + 1)?;
        meta = nameserver.lookup(name)?;
        plane.ec.encode_bytes.add(payload.len() as u64);
        plane.ec.chunks_sealed.inc();
        // Refresh replica- and fragment-local metadata, then reclaim
        // the replicated copies. All best-effort: a down host misses
        // the update but the nameserver watermark is authoritative.
        for host in meta.replicas.iter().chain(&meta.fragments) {
            let _ = plane.get(*host)?.update_meta(&meta);
        }
        for host in &meta.replicas {
            let _ = plane.get(*host)?.drop_chunk(meta.id, chunk);
        }
    }
    Ok(meta.sealed_chunks)
}

/// Fragment fetch order for one sealed chunk: the selector's
/// preference (each in-range index once, first mention wins), then
/// every other fragment in index order as failover.
fn fetch_order(preferred: &[usize], n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n);
    for i in preferred.iter().copied().chain(0..n) {
        if i < n && !order.contains(&i) {
            order.push(i);
        }
    }
    order
}

/// One fragment fetch of the fast plan: data fragment `index` of
/// `chunk`, of which bytes `[skip, skip + dst.len())` of the shard are
/// wanted in `dst`.
struct ShardFetch<'a> {
    /// Position of the chunk among the chunks the range touches.
    slot: usize,
    chunk: u64,
    index: usize,
    shard_len: usize,
    skip: usize,
    dst: &'a mut [u8],
}

impl ShardFetch<'_> {
    /// Fetches and verifies the shard. A whole-shard request lands
    /// directly in the output slice; a partial one (a range starting
    /// or ending mid-shard, or the zero-padded last shard of a chunk
    /// `k` does not divide) goes through a scratch shard, because the
    /// checksum covers the whole stored shard.
    fn run(self, plane: &DataPlane, meta: &FileMeta) -> bool {
        let Some(server) = meta
            .fragments
            .get(self.index)
            .and_then(|host| plane.get(*host).ok())
        else {
            return false;
        };
        let mut scratch = Vec::new();
        let whole = self.dst.len() == self.shard_len;
        let buf: &mut [u8] = if whole {
            &mut *self.dst
        } else {
            scratch = vec![0u8; self.shard_len];
            &mut scratch
        };
        let ok = server
            .read_fragment_into(meta.id, self.chunk, self.index, buf)
            .is_ok_and(|payload_len| payload_len == meta.chunk_size);
        if ok && !whole {
            self.dst
                .copy_from_slice(&scratch[self.skip..self.skip + self.dst.len()]);
        }
        ok
    }
}

/// The sealed-read fast plan: fills `out` with file bytes
/// `[offset, offset + out.len())` — which must lie inside the sealed
/// region — straight from the **data** fragments that overlap the
/// range, one fetch per (chunk, data fragment) into a disjoint slice
/// of `out`, all on a single `width`-bounded fan-out. No payload is
/// assembled and nothing is decoded.
///
/// `preferred[slot]` is the selector's fragment choice for the
/// `slot`-th chunk the range touches. Returns, per chunk, whether its
/// bytes are in place. A chunk is left unserved — its part of `out`
/// unspecified — when the selector did not choose exactly the data
/// fragments, or when any of its fetches failed (host down, fragment
/// missing, frame corrupt): the caller reads those chunks through
/// [`read_sealed_chunk`], which promotes parity and decodes.
pub(crate) fn read_sealed_fast(
    plane: &DataPlane,
    meta: &FileMeta,
    offset: u64,
    out: &mut [u8],
    preferred: &[Vec<usize>],
    width: usize,
) -> Vec<bool> {
    let mut served = vec![false; preferred.len()];
    let Some((k, _)) = meta.redundancy.coded_params() else {
        return served;
    };
    let end = offset + out.len() as u64;
    let first_chunk = offset / meta.chunk_size;
    let shard_len = meta.chunk_size.div_ceil(k as u64);

    let mut jobs: Vec<ShardFetch<'_>> = Vec::new();
    let mut rest = out;
    for (slot, pref) in preferred.iter().enumerate() {
        let chunk = first_chunk + slot as u64;
        let chunk_start = chunk * meta.chunk_size;
        // The chunk's share of the range, chunk-relative.
        let lo = offset.max(chunk_start) - chunk_start;
        let hi = end.min(chunk_start + meta.chunk_size) - chunk_start;
        let (mut region, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) as usize);
        rest = tail;
        // The fast plan stands in for a first fetch round that asks
        // for exactly the data fragments. A sealed chunk is a complete
        // one; metadata saying otherwise is the degraded path's to
        // report.
        let all_data = fetch_order(pref, meta.fragments.len())
            .iter()
            .take(k)
            .all(|i| *i < k);
        if !all_data || meta.chunk_payload_len(chunk) != meta.chunk_size {
            continue;
        }
        served[slot] = true;
        for index in (lo / shard_len)..=((hi - 1) / shard_len) {
            let shard_start = index * shard_len;
            let from = lo.max(shard_start);
            let to = hi.min(shard_start + shard_len);
            let (dst, more) = std::mem::take(&mut region).split_at_mut((to - from) as usize);
            region = more;
            jobs.push(ShardFetch {
                slot,
                chunk,
                index: index as usize,
                shard_len: shard_len as usize,
                skip: (from - shard_start) as usize,
                dst,
            });
        }
    }

    let fetched = fan_out(
        width,
        jobs.into_iter()
            .map(|job| move || (job.slot, job.run(plane, meta)))
            .collect(),
        &plane.metrics,
    );
    for (slot, ok) in fetched {
        served[slot] &= ok;
    }
    served
}

/// Gathers `codec.k()` fragments of sealed chunk `chunk`, indexed by
/// fragment: the one fragment read of the degraded path and of coded
/// repair. Rounds follow `order`, each fetching as many fragments as
/// are still missing on a `width`-bounded pool (width 1 is the serial
/// sweep); a failed fetch (host down, fragment missing, frame corrupt,
/// wrong payload length) is an erasure the next round replaces with the
/// next index in `order`. So the shard set a given failure pattern
/// yields is independent of width and timing.
///
/// # Errors
///
/// Returns [`FsError::Unavailable`] when fewer than `k` fragments can
/// be read.
fn gather(
    plane: &DataPlane,
    meta: &FileMeta,
    chunk: u64,
    codec: &Codec,
    order: &[usize],
    width: usize,
) -> Result<Vec<Option<Vec<u8>>>, FsError> {
    let k = codec.k();
    let payload_len = meta.chunk_payload_len(chunk);
    let mut shards: Vec<Option<Vec<u8>>> = vec![None; codec.n()];
    let mut have = 0;
    let mut rest = order;
    while have < k && !rest.is_empty() {
        let (round, later) = rest.split_at((k - have).min(rest.len()));
        rest = later;
        let fetched = fan_out(
            width,
            round
                .iter()
                .map(|&index| {
                    move || -> Option<(usize, Vec<u8>)> {
                        let server = plane.get(*meta.fragments.get(index)?).ok()?;
                        let (shard, len) = server.read_fragment(meta.id, chunk, index).ok()?;
                        (len == payload_len).then_some((index, shard))
                    }
                })
                .collect(),
            &plane.metrics,
        );
        for (index, shard) in fetched.into_iter().flatten() {
            shards[index] = Some(shard);
            have += 1;
        }
    }
    if have < k {
        return Err(FsError::Unavailable(format!(
            "{}: chunk {chunk} has {have} of {k} required fragments",
            meta.name
        )));
    }
    Ok(shards)
}

/// Reads the full payload of sealed chunk `chunk` from its fragments.
///
/// Gathers any `k` live fragments, `preferred` (a selector's choice)
/// first and the rest in index order as failover, and decodes; the
/// decode rebuilds only the data fragments that are missing, so a
/// chunk whose data fragments all arrived costs no arithmetic. Up to
/// `m` arbitrary losses are survivable.
///
/// # Errors
///
/// Returns [`FsError::Unavailable`] when fewer than `k` fragments can
/// be read.
pub(crate) fn read_sealed_chunk(
    plane: &DataPlane,
    meta: &FileMeta,
    chunk: u64,
    preferred: &[usize],
    width: usize,
) -> Result<Vec<u8>, FsError> {
    let (k, m) = meta
        .redundancy
        .coded_params()
        .ok_or_else(|| FsError::InvalidArgument(format!("{} is not coded", meta.name)))?;
    let codec = Codec::new(k, m);
    let order = fetch_order(preferred, k + m);
    let mut shards = gather(plane, meta, chunk, &codec, &order, width)?;
    let degraded = shards[..k].iter().any(Option::is_none);
    let payload = codec
        .decode_payload(&mut shards, meta.chunk_payload_len(chunk) as usize)
        .map_err(|e| FsError::Unavailable(format!("{}: chunk {chunk}: {e}", meta.name)))?;
    if degraded {
        plane.ec.degraded_reads.inc();
        plane.ec.decode_bytes.add(payload.len() as u64);
    }
    Ok(payload)
}

/// Rebuilds fragment `index` of every sealed chunk from `k` surviving
/// fragments and stores it on `dest`. Returns the fragment bytes
/// written. The caller splices `dest` into the fragment map and holds
/// the file's append lock.
///
/// # Errors
///
/// Returns [`FsError::Unavailable`] when any sealed chunk has fewer
/// than `k` live fragments, or when `dest` refuses the write.
pub(crate) fn rebuild_fragment(
    plane: &DataPlane,
    meta: &FileMeta,
    index: usize,
    dest: HostId,
) -> Result<u64, FsError> {
    let (k, m) = meta
        .redundancy
        .coded_params()
        .ok_or_else(|| FsError::InvalidArgument(format!("{} is not coded", meta.name)))?;
    let n = k + m;
    if index >= n {
        return Err(FsError::InvalidArgument(format!(
            "fragment index {index} out of range for {k}+{m}"
        )));
    }
    let codec = Codec::new(k, m);
    // Every survivor in index order, one at a time.
    let order: Vec<usize> = (0..n).filter(|&i| i != index).collect();
    let mut written = 0u64;
    for chunk in 0..meta.sealed_chunks {
        let payload_len = meta.chunk_payload_len(chunk);
        let mut shards = gather(plane, meta, chunk, &codec, &order, 1)?;
        codec
            .reconstruct(&mut shards)
            .map_err(|e| FsError::Unavailable(format!("{}: chunk {chunk}: {e}", meta.name)))?;
        let Some(shard) = shards[index].as_deref() else {
            return Err(FsError::Unavailable(format!(
                "{}: chunk {chunk}: fragment {index} not reconstructed",
                meta.name
            )));
        };
        plane
            .get(dest)?
            .put_fragment(meta.id, chunk, index, payload_len, shard)?;
        written += shard.len() as u64;
        plane.ec.decode_bytes.add(payload_len);
    }
    plane.ec.fragment_repairs.inc();
    Ok(written)
}
