//! The metadata-plane interface clients program against.
//!
//! A [`Client`](crate::Client) talks to one [`Nameserver`] in the
//! paper; here the same client may be handed a shard router
//! (`mayflower-shard`) that spreads the namespace over many
//! nameservers, plain or Paxos-replicated. [`MetadataService`] is the
//! seam: exactly the metadata operations the client and the coded seal
//! path perform.
//!
//! What makes a `Client` behave the same over every implementation is
//! not this trait but that each of them ends in the same
//! [`Nameserver::apply`] — the one place an op is validated and applied
//! — and carries [`NsOp`](crate::NsOp)s to it rather than re-deciding
//! them. That is checked, not assumed: the shard crate's
//! `tests/conformance.rs` replays one op script against a plain
//! nameserver, a Paxos group and routers over {1, 4} shards × {plain,
//! Paxos}, and compares every result and the final listing.

use crate::error::FsError;
use crate::nameserver::Nameserver;
use crate::types::{FileMeta, Redundancy};

/// The metadata operations a filesystem client needs, abstracted over
/// the plane that serves them (single nameserver, replicated group, or
/// sharded router).
///
/// Implementations must be safe to share across client threads; the
/// plain [`Nameserver`] already is (interior mutability over its KV
/// store), and routers hold their shard-map cache behind a lock.
pub trait MetadataService: Send + Sync {
    /// Creates `name` under `redundancy`, placing replicas (and
    /// fragment hosts for coded files).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for duplicate names.
    fn create_with(&self, name: &str, redundancy: Redundancy) -> Result<FileMeta, FsError>;

    /// The file's current metadata.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files.
    fn lookup(&self, name: &str) -> Result<FileMeta, FsError>;

    /// Records the file's size after an append.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files.
    fn record_size(&self, name: &str, size: u64) -> Result<(), FsError>;

    /// Advances a coded file's seal watermark (monotonic).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files and
    /// [`FsError::InvalidArgument`] for a regressing watermark.
    fn record_seal(&self, name: &str, sealed_chunks: u64) -> Result<(), FsError>;

    /// Moves `old` to `new`, returning any displaced metadata when
    /// `overwrite` is set.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `old` is missing and
    /// [`FsError::AlreadyExists`] if `new` exists without `overwrite`.
    fn rename(&self, old: &str, new: &str, overwrite: bool) -> Result<Option<FileMeta>, FsError>;

    /// Removes the namespace entry, returning the dropped metadata so
    /// the caller can garbage-collect replica data.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown files.
    fn delete(&self, name: &str) -> Result<FileMeta, FsError>;
}

impl MetadataService for Nameserver {
    fn create_with(&self, name: &str, redundancy: Redundancy) -> Result<FileMeta, FsError> {
        Nameserver::create_with(self, name, redundancy)
    }

    fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
        Nameserver::lookup(self, name)
    }

    fn record_size(&self, name: &str, size: u64) -> Result<(), FsError> {
        Nameserver::record_size(self, name, size)
    }

    fn record_seal(&self, name: &str, sealed_chunks: u64) -> Result<(), FsError> {
        Nameserver::record_seal(self, name, sealed_chunks)
    }

    fn rename(&self, old: &str, new: &str, overwrite: bool) -> Result<Option<FileMeta>, FsError> {
        Nameserver::rename(self, old, new, overwrite)
    }

    fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
        Nameserver::delete(self, name)
    }
}
