//! The write-ahead log.
//!
//! Record format (little-endian):
//!
//! ```text
//! [u32 crc][u32 len][len bytes payload]
//! payload = [u8 kind][u32 key_len][key][value]   kind: 0=put, 1=delete
//! ```
//!
//! The CRC covers the payload. With fsync off (the paper's LevelDB
//! configuration), a crash can tear the tail of the log; replay stops
//! at the first record whose length or checksum does not verify and
//! truncates there, recovering the longest valid prefix.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::crc::crc32;
use crate::db::KvError;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A key/value write.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Bytes,
    },
    /// A deletion.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
}

/// An append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    fsync: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened.
    pub fn open(path: &Path, fsync: bool) -> Result<Wal, KvError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            fsync,
        })
    }

    /// Appends a record.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), KvError> {
        let payload = encode_payload(record);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Replays every valid record from the start of the log. If a torn
    /// or corrupt tail is found, it is truncated away and replay
    /// returns the valid prefix.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure (corruption is *not* an error —
    /// it is expected after a crash with fsync off).
    pub fn replay(&mut self) -> Result<Vec<WalRecord>, KvError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        let mut records = Vec::new();
        // End of the valid prefix: every frame before it decoded.
        let mut pos = 0usize;
        while let Some((crc, rest)) = buf.get(pos..).and_then(<[u8]>::split_first_chunk) {
            let Some((len, rest)) = rest.split_first_chunk() else {
                break; // torn header
            };
            let len = u32::from_le_bytes(*len) as usize;
            let Some(payload) = rest.get(..len) else {
                break; // torn tail
            };
            if crc32(payload) != u32::from_le_bytes(*crc) {
                break; // corrupt record
            }
            let Some(record) = decode_payload(payload) else {
                break;
            };
            records.push(record);
            pos += 8 + len;
        }
        if pos < buf.len() {
            // Truncate the torn tail so future appends start clean.
            self.file.set_len(pos as u64)?;
            self.file.seek(SeekFrom::End(0))?;
        }
        Ok(records)
    }

    /// Truncates the log to empty (after a successful memtable flush).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn reset(&mut self) -> Result<(), KvError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::End(0))?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn encode_payload(record: &WalRecord) -> Vec<u8> {
    match record {
        WalRecord::Put { key, value } => {
            let mut p = Vec::with_capacity(5 + key.len() + value.len());
            p.push(0u8);
            p.extend_from_slice(&(key.len() as u32).to_le_bytes());
            p.extend_from_slice(key);
            p.extend_from_slice(value);
            p
        }
        WalRecord::Delete { key } => {
            let mut p = Vec::with_capacity(5 + key.len());
            p.push(1u8);
            p.extend_from_slice(&(key.len() as u32).to_le_bytes());
            p.extend_from_slice(key);
            p
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&kind, rest) = payload.split_first()?;
    let (key_len, rest) = rest.split_first_chunk()?;
    let (key, value) = rest.split_at_checked(u32::from_le_bytes(*key_len) as usize)?;
    let key = key.to_vec();
    match kind {
        0 => Some(WalRecord::Put {
            key,
            value: Bytes::copy_from_slice(value),
        }),
        1 if value.is_empty() => Some(WalRecord::Delete { key }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mayflower-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, false).unwrap();
        let records = vec![
            WalRecord::Put {
                key: b"a".to_vec(),
                value: Bytes::from_static(b"1"),
            },
            WalRecord::Delete { key: b"a".to_vec() },
            WalRecord::Put {
                key: b"b".to_vec(),
                value: Bytes::from_static(b""),
            },
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        let mut wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.replay().unwrap(), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&WalRecord::Put {
            key: b"keep".to_vec(),
            value: Bytes::from_static(b"me"),
        })
        .unwrap();
        wal.append(&WalRecord::Put {
            key: b"lost".to_vec(),
            value: Bytes::from_static(b"tail"),
        })
        .unwrap();
        drop(wal);
        // Tear the last 3 bytes off, as a crash mid-write would.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let mut wal = Wal::open(&path, false).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(&records[0], WalRecord::Put { key, .. } if key == b"keep"));
        // Appends after recovery extend the valid prefix.
        wal.append(&WalRecord::Delete {
            key: b"keep".to_vec(),
        })
        .unwrap();
        drop(wal);
        let mut wal = Wal::open(&path, false).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, false).unwrap();
        for i in 0..3u8 {
            wal.append(&WalRecord::Put {
                key: vec![i],
                value: Bytes::from_static(b"v"),
            })
            .unwrap();
        }
        drop(wal);
        // Flip a byte in the middle record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = 8 + 5 + 1 + 1; // frame + payload for 1-byte key, 1-byte value
        bytes[record_len + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut wal = Wal::open(&path, false).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 1, "only the first record survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmpdir("reset");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, false).unwrap();
        wal.append(&WalRecord::Delete { key: b"x".to_vec() })
            .unwrap();
        wal.reset().unwrap();
        assert!(wal.replay().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_mode_also_works() {
        let dir = tmpdir("fsync");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path, true).unwrap();
        wal.append(&WalRecord::Put {
            key: b"k".to_vec(),
            value: Bytes::from_static(b"v"),
        })
        .unwrap();
        assert_eq!(wal.replay().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
