//! Immutable sorted segments (the store's SSTable analogue).
//!
//! Segment file format (little-endian):
//!
//! ```text
//! [u32 magic "MSEG"][u32 count]
//! count × ( [u8 kind][u32 key_len][key][u32 val_len][value] )
//! [u32 crc of everything above]
//! ```
//!
//! Entries are sorted by key. Tombstones (kind 1) persist deletions
//! across restarts until compaction drops them. Matching the paper's
//! "serves requests entirely from memory" configuration, segments are
//! fully loaded at open; the on-disk form exists for restart and
//! durability, not for cold reads.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::crc::crc32;
use crate::db::KvError;

const MAGIC: u32 = 0x4D53_4547; // "MSEG"

/// An immutable sorted run of key/value (or tombstone) entries.
#[derive(Debug, Clone)]
pub struct Segment {
    path: PathBuf,
    entries: BTreeMap<Vec<u8>, Option<Bytes>>,
}

impl Segment {
    /// Writes `entries` (sorted by `BTreeMap` construction) to `path`
    /// and returns the in-memory segment.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn create(
        path: &Path,
        entries: BTreeMap<Vec<u8>, Option<Bytes>>,
    ) -> Result<Segment, KvError> {
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (k, v) in &entries {
            match v {
                Some(value) => {
                    body.push(0u8);
                    body.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    body.extend_from_slice(k);
                    body.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    body.extend_from_slice(value);
                }
                None => {
                    body.push(1u8);
                    body.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    body.extend_from_slice(k);
                    body.extend_from_slice(&0u32.to_le_bytes());
                }
            }
        }
        let crc = crc32(&body);
        let mut file = std::fs::File::create(path)?;
        file.write_all(&body)?;
        file.write_all(&crc.to_le_bytes())?;
        file.sync_data()?;
        Ok(Segment {
            path: path.to_path_buf(),
            entries,
        })
    }

    /// Loads a segment from disk, verifying its checksum.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Corrupt`] if the file is malformed or fails
    /// its checksum, or an I/O error.
    pub fn open(path: &Path) -> Result<Segment, KvError> {
        let bytes = std::fs::read(path)?;
        let corrupt = |why: &str| KvError::Corrupt(format!("{}: {why}", path.display()));
        let Some((body, stored_crc)) = bytes.split_last_chunk() else {
            return Err(corrupt("too short"));
        };
        if crc32(body) != u32::from_le_bytes(*stored_crc) {
            return Err(corrupt("checksum mismatch"));
        }
        let (magic, rest) = take_u32(body).ok_or_else(|| corrupt("too short"))?;
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let (count, mut rest) = take_u32(rest).ok_or_else(|| corrupt("too short"))?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let (key, entry, next) = take_entry(rest).ok_or_else(|| corrupt("truncated entry"))?;
            entries.insert(key, entry);
            rest = next;
        }
        Ok(Segment {
            path: path.to_path_buf(),
            entries,
        })
    }

    /// Looks a key up. `Some(None)` is a tombstone.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Option<Bytes>> {
        self.entries.get(key).cloned()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&Bytes>)> {
        self.entries.iter().map(|(k, v)| (k.as_slice(), v.as_ref()))
    }

    /// Number of entries (tombstones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the segment holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The little-endian `u32` at the front of `bytes`, and what follows.
fn take_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// A `[u32 len][len bytes]` field at the front of `bytes`, and what
/// follows.
fn take_sized(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = take_u32(bytes)?;
    rest.split_at_checked(len as usize)
}

/// One `[u8 kind][u32 key_len][key][u32 val_len][value]` entry at the
/// front of `bytes`, and what follows.
fn take_entry(bytes: &[u8]) -> Option<(Vec<u8>, Option<Bytes>, &[u8])> {
    let (&kind, rest) = bytes.split_first()?;
    let (key, rest) = take_sized(rest)?;
    let (value, rest) = take_sized(rest)?;
    let entry = match kind {
        0 => Some(Bytes::copy_from_slice(value)),
        1 => None,
        _ => return None,
    };
    Some((key.to_vec(), entry, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mayflower-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> BTreeMap<Vec<u8>, Option<Bytes>> {
        let mut m = BTreeMap::new();
        m.insert(b"alpha".to_vec(), Some(Bytes::from_static(b"1")));
        m.insert(b"beta".to_vec(), None); // tombstone
        m.insert(b"gamma".to_vec(), Some(Bytes::from_static(b"")));
        m
    }

    #[test]
    fn create_open_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("0001.seg");
        let seg = Segment::create(&path, sample()).unwrap();
        assert_eq!(seg.len(), 3);
        let reopened = Segment::open(&path).unwrap();
        assert_eq!(reopened.get(b"alpha"), Some(Some(Bytes::from_static(b"1"))));
        assert_eq!(reopened.get(b"beta"), Some(None));
        assert_eq!(reopened.get(b"gamma"), Some(Some(Bytes::from_static(b""))));
        assert_eq!(reopened.get(b"delta"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("0001.seg");
        Segment::create(&path, sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Segment::open(&path), Err(KvError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_segment_roundtrip() {
        let dir = tmpdir("empty");
        let path = dir.join("0001.seg");
        Segment::create(&path, BTreeMap::new()).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert!(seg.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn iteration_is_sorted() {
        let dir = tmpdir("sorted");
        let path = dir.join("0001.seg");
        let seg = Segment::create(&path, sample()).unwrap();
        let keys: Vec<&[u8]> = seg.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"alpha".as_slice(), b"beta", b"gamma"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every truncation and every single-bit flip of a written segment,
    /// each with the stored CRC left alone and with it recomputed:
    /// `open` never panics; with the stored CRC it returns the written
    /// entries or an error; a body cut short is an error even under a
    /// matching CRC, because the header's count runs past it.
    #[test]
    fn truncations_and_bit_flips_are_errors_never_panics() {
        let dir = tmpdir("fuzz");
        let path = dir.join("0001.seg");
        let written = Segment::create(&path, sample()).unwrap().entries;
        let good = std::fs::read(&path).unwrap();
        let body_len = good.len() - 4;
        let recrc = |body: &[u8]| [body, &crc32(body).to_le_bytes()].concat();
        let open = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            Segment::open(&path).map(|seg| seg.entries)
        };
        let same_or_err = |got: Result<_, KvError>| got.map_or(true, |e| e == written);
        for len in 0..good.len() {
            assert!(same_or_err(open(&good[..len])), "cut to {len} bytes");
            if len < body_len {
                assert!(
                    open(&recrc(&good[..len])).is_err(),
                    "body cut to {len} bytes, CRC recomputed"
                );
            }
        }
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(same_or_err(open(&flipped)), "bit {bit} flipped");
            // A flip in a key or value byte under a fresh CRC is a
            // different, valid segment; only the absence of a panic
            // is asserted.
            let _ = open(&recrc(&flipped[..body_len]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = tmpdir("trunc");
        let path = dir.join("0001.seg");
        Segment::create(&path, sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(Segment::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
