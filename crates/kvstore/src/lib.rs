#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! A persistent, log-structured key-value store — the reproduction's
//! stand-in for LevelDB (§3.3.1, §5 of the paper).
//!
//! The Mayflower nameserver stores its file→chunks and file→dataservers
//! mappings in LevelDB, "configured with fsync off in order to speed up
//! file creation and deletion", with enough memory that reads are
//! served entirely from RAM; the persistent form exists to speed up
//! restarts after a *graceful* shutdown (after a crash the nameserver
//! rebuilds from dataserver metadata instead). This crate reproduces
//! exactly that contract:
//!
//! * [`KvStore`] — `put`/`get`/`delete`/`scan_prefix` over binary keys.
//! * Writes go to a CRC-protected write-ahead log ([`wal`]) and an
//!   in-memory table ([`memtable`]); reads never touch disk.
//! * When the memtable grows past a threshold it is flushed to an
//!   immutable sorted [`segment`]; segments are merged by
//!   [`KvStore::compact`].
//! * Reopening replays segments then the WAL; torn tails (crash during
//!   a write with fsync off) are detected by checksum and truncated,
//!   recovering the longest valid prefix.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), mayflower_kvstore::KvError> {
//! let dir = std::env::temp_dir().join(format!("kv-doc-{}", std::process::id()));
//! let mut db = mayflower_kvstore::KvStore::open(&dir, Default::default())?;
//! db.put(b"file/42", b"metadata")?;
//! assert_eq!(db.get(b"file/42"), Some(b"metadata".to_vec().into()));
//! # drop(db); std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod crc;
pub mod db;
pub mod memtable;
pub mod segment;
pub mod wal;

pub use db::{KvError, KvStore, Options};
