//! The public store: WAL + memtable + segments + compaction.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::memtable::Memtable;
use crate::segment::Segment;
use crate::wal::{Wal, WalRecord};

/// Errors returned by the store.
#[derive(Debug)]
pub enum KvError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A file failed structural or checksum validation.
    Corrupt(String),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Io(e) => write!(f, "i/o error: {e}"),
            KvError::Corrupt(what) => write!(f, "corrupt store file: {what}"),
        }
    }
}

impl std::error::Error for KvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KvError::Io(e) => Some(e),
            KvError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for KvError {
    fn from(e: std::io::Error) -> KvError {
        KvError::Io(e)
    }
}

/// Memtable size (approximate bytes) that triggers a flush to a
/// segment.
const MEMTABLE_FLUSH_BYTES: usize = 4 << 20;

/// Store tuning options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Whether every WAL append is fsynced. The paper runs LevelDB
    /// **with fsync off** "to speed up file creation and deletion";
    /// that is the default here too.
    pub fsync: bool,
}

/// A persistent key-value store with an in-memory read path — the
/// nameserver's metadata backend (see crate docs for the design and
/// its correspondence to the paper's LevelDB configuration).
#[derive(Debug)]
pub struct KvStore {
    dir: PathBuf,
    wal: Wal,
    memtable: Memtable,
    /// Older segments first; newer entries shadow older ones.
    segments: Vec<Segment>,
    next_segment_no: u64,
}

impl KvStore {
    /// Opens (creating if necessary) a store in `dir`, replaying
    /// segments and then the WAL.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or unrecoverable segment
    /// corruption.
    pub fn open(dir: &Path, options: Options) -> Result<KvStore, KvError> {
        std::fs::create_dir_all(dir)?;
        let mut seg_paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        seg_paths.sort();
        let mut segments = Vec::with_capacity(seg_paths.len());
        let mut next_segment_no = 0u64;
        for p in seg_paths {
            if let Some(no) = p
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse::<u64>().ok())
            {
                next_segment_no = next_segment_no.max(no + 1);
            }
            segments.push(Segment::open(&p)?);
        }
        let mut wal = Wal::open(&dir.join("wal.log"), options.fsync)?;
        let mut memtable = Memtable::new();
        for record in wal.replay()? {
            match record {
                WalRecord::Put { key, value } => memtable.put(&key, value),
                WalRecord::Delete { key } => memtable.delete(&key),
            }
        }
        Ok(KvStore {
            dir: dir.to_path_buf(),
            wal,
            memtable,
            segments,
            next_segment_no,
        })
    }

    /// Writes a key/value pair.
    ///
    /// # Errors
    ///
    /// Returns an error if the WAL append or a triggered flush fails.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        let value = Bytes::copy_from_slice(value);
        self.wal.append(&WalRecord::Put {
            key: key.to_vec(),
            value: value.clone(),
        })?;
        self.memtable.put(key, value);
        self.maybe_flush()
    }

    /// Deletes a key (idempotent).
    ///
    /// # Errors
    ///
    /// Returns an error if the WAL append or a triggered flush fails.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.wal.append(&WalRecord::Delete { key: key.to_vec() })?;
        self.memtable.delete(key);
        self.maybe_flush()
    }

    /// Reads a key. Entirely in-memory — never touches disk.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        if let Some(hit) = self.memtable.get(key) {
            return hit;
        }
        for seg in self.segments.iter().rev() {
            if let Some(hit) = seg.get(key) {
                return hit;
            }
        }
        None
    }

    /// All live `(key, value)` pairs whose key starts with `prefix`,
    /// in key order.
    #[must_use]
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Bytes)> {
        let mut merged: BTreeMap<Vec<u8>, Option<Bytes>> = BTreeMap::new();
        for seg in &self.segments {
            for (k, v) in seg.iter() {
                if k.starts_with(prefix) {
                    merged.insert(k.to_vec(), v.cloned());
                }
            }
        }
        for (k, v) in self.memtable.iter() {
            if k.starts_with(prefix) {
                merged.insert(k.to_vec(), v.cloned());
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// Number of live keys (scans everything; intended for tests and
    /// admin tooling, not hot paths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.scan_prefix(b"").len()
    }

    /// Whether the store holds no live keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes the memtable to a new segment and resets the WAL. The
    /// graceful-shutdown path: after this, reopening needs no WAL
    /// replay.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn flush(&mut self) -> Result<(), KvError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let entries = self.memtable.drain();
        let path = self.dir.join(format!("{:08}.seg", self.next_segment_no));
        self.next_segment_no += 1;
        self.segments.push(Segment::create(&path, entries)?);
        self.wal.reset()
    }

    /// Merges all segments (and the memtable) into a single segment,
    /// dropping tombstones and shadowed values.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn compact(&mut self) -> Result<(), KvError> {
        let mut merged: BTreeMap<Vec<u8>, Option<Bytes>> = BTreeMap::new();
        for seg in &self.segments {
            for (k, v) in seg.iter() {
                merged.insert(k.to_vec(), v.cloned());
            }
        }
        for (k, v) in self.memtable.iter() {
            merged.insert(k.to_vec(), v.cloned());
        }
        // Drop tombstones: nothing older remains to shadow.
        merged.retain(|_, v| v.is_some());
        let old_paths: Vec<PathBuf> = self
            .segments
            .iter()
            .map(|s| s.path().to_path_buf())
            .collect();
        let path = self.dir.join(format!("{:08}.seg", self.next_segment_no));
        self.next_segment_no += 1;
        let seg = Segment::create(&path, merged)?;
        self.segments = vec![seg];
        self.memtable.drain();
        self.wal.reset()?;
        for p in old_paths {
            std::fs::remove_file(p)?;
        }
        Ok(())
    }

    /// Number of on-disk segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn maybe_flush(&mut self) -> Result<(), KvError> {
        if self.memtable.approx_bytes() >= MEMTABLE_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "mayflower-kv-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn put_get_delete() {
        let dir = TempDir::new("basic");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k"), Some(Bytes::from_static(b"v")));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k"), None);
        assert!(db.is_empty());
    }

    #[test]
    fn survives_graceful_restart() {
        let dir = TempDir::new("graceful");
        {
            let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
            db.put(b"a", b"1").unwrap();
            db.put(b"b", b"2").unwrap();
            db.flush().unwrap();
        }
        let db = KvStore::open(dir.path(), Options::default()).unwrap();
        assert_eq!(db.get(b"a"), Some(Bytes::from_static(b"1")));
        assert_eq!(db.get(b"b"), Some(Bytes::from_static(b"2")));
        assert_eq!(db.segment_count(), 1);
    }

    #[test]
    fn survives_crash_via_wal() {
        let dir = TempDir::new("crash");
        {
            let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
            db.put(b"a", b"1").unwrap();
            db.delete(b"a").unwrap();
            db.put(b"b", b"2").unwrap();
            // No flush: simulate a crash by dropping.
        }
        let db = KvStore::open(dir.path(), Options::default()).unwrap();
        assert_eq!(db.get(b"a"), None);
        assert_eq!(db.get(b"b"), Some(Bytes::from_static(b"2")));
    }

    #[test]
    fn tombstones_shadow_flushed_values() {
        let dir = TempDir::new("tombstone");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        db.put(b"k", b"old").unwrap();
        db.flush().unwrap(); // "old" now in a segment
        db.delete(b"k").unwrap(); // tombstone in memtable
        assert_eq!(db.get(b"k"), None);
        db.flush().unwrap(); // tombstone now in a newer segment
        assert_eq!(db.get(b"k"), None);
        // And across a restart.
        drop(db);
        let db = KvStore::open(dir.path(), Options::default()).unwrap();
        assert_eq!(db.get(b"k"), None);
    }

    #[test]
    fn scan_prefix_merges_layers() {
        let dir = TempDir::new("scan");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        db.put(b"file/1", b"a").unwrap();
        db.put(b"file/2", b"b").unwrap();
        db.flush().unwrap();
        db.put(b"file/3", b"c").unwrap();
        db.put(b"other/x", b"z").unwrap();
        db.delete(b"file/2").unwrap();
        let hits = db.scan_prefix(b"file/");
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"file/1".as_slice(), b"file/3"]);
    }

    #[test]
    fn compaction_collapses_segments_and_tombstones() {
        let dir = TempDir::new("compact");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        for i in 0..5u8 {
            db.put(&[i], b"v").unwrap();
            db.flush().unwrap();
        }
        db.delete(&[0]).unwrap();
        assert_eq!(db.segment_count(), 5);
        db.compact().unwrap();
        assert_eq!(db.segment_count(), 1);
        assert_eq!(db.get(&[0]), None);
        assert_eq!(db.len(), 4);
        // Compacted state survives restart.
        drop(db);
        let db = KvStore::open(dir.path(), Options::default()).unwrap();
        assert_eq!(db.len(), 4);
        assert_eq!(db.segment_count(), 1);
    }

    #[test]
    fn automatic_flush_on_threshold() {
        let dir = TempDir::new("autoflush");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        // Five values of half the threshold: the second and the fourth
        // put each fill the memtable and flush it.
        let value = vec![0u8; MEMTABLE_FLUSH_BYTES / 2];
        for i in 0..5u8 {
            db.put(&[b'k', i], &value).unwrap();
        }
        assert_eq!(db.segment_count(), 2, "threshold should force flushes");
        for i in 0..5u8 {
            assert_eq!(db.get(&[b'k', i]).unwrap().len(), value.len());
        }
    }

    #[test]
    fn empty_value_is_not_deletion() {
        let dir = TempDir::new("emptyval");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        db.put(b"k", b"").unwrap();
        assert_eq!(db.get(b"k"), Some(Bytes::new()));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn overwrite_across_layers() {
        let dir = TempDir::new("overwrite");
        let mut db = KvStore::open(dir.path(), Options::default()).unwrap();
        db.put(b"k", b"v1").unwrap();
        db.flush().unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k"), Some(Bytes::from_static(b"v2")));
        db.flush().unwrap();
        drop(db);
        let db = KvStore::open(dir.path(), Options::default()).unwrap();
        assert_eq!(db.get(b"k"), Some(Bytes::from_static(b"v2")));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Put(Vec<u8>, Vec<u8>),
        Delete(Vec<u8>),
        Flush,
        Compact,
        Reopen,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = proptest::collection::vec(0u8..4, 1..3);
        let val = proptest::collection::vec(any::<u8>(), 0..16);
        prop_oneof![
            4 => (key.clone(), val).prop_map(|(k, v)| Op::Put(k, v)),
            2 => key.prop_map(Op::Delete),
            1 => Just(Op::Flush),
            1 => Just(Op::Compact),
            1 => Just(Op::Reopen),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The store always agrees with an in-memory model map, across
        /// flushes, compactions and restarts.
        #[test]
        fn behaves_like_a_map(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let dir = std::env::temp_dir().join(format!(
                "mayflower-kv-prop-{}-{:?}-{}",
                std::process::id(),
                std::thread::current().id(),
                ops.len(),
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut db = KvStore::open(&dir, Options::default()).unwrap();
            let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            for op in ops {
                match op {
                    Op::Put(k, v) => {
                        db.put(&k, &v).unwrap();
                        model.insert(k, v);
                    }
                    Op::Delete(k) => {
                        db.delete(&k).unwrap();
                        model.remove(&k);
                    }
                    Op::Flush => db.flush().unwrap(),
                    Op::Compact => db.compact().unwrap(),
                    Op::Reopen => {
                        drop(db);
                        db = KvStore::open(&dir, Options::default()).unwrap();
                    }
                }
                // Check all keys in the small keyspace.
                for k in model.keys() {
                    prop_assert_eq!(
                        db.get(k).map(|b| b.to_vec()),
                        model.get(k).cloned()
                    );
                }
                prop_assert_eq!(db.len(), model.len());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
