//! The dataserver's replica table (DESIGN.md §10, "Dataserver state
//! model") against the disk it caches.
//!
//! * **Recovery equivalence** (proptest): random sequences of every
//!   operation that creates, grows, restamps, reclaims, deletes, copies
//!   or reloads a replica, checked after every step against an
//!   in-memory model that has no notion of a table, a restart or a
//!   reopen — so whatever a warm table answers, a cold one loaded from
//!   `meta` and the chunk files must answer too.
//! * **Mechanism**: appends do not touch `meta`; the operations that
//!   change something other than the size replace it.
//! * **Ordering**: a reader never sees a size whose bytes it cannot
//!   read (publish-after-write).
//! * **Load rule**: layouts no append leaves behind are reported as
//!   `CorruptMetadata` naming the file and the chunk, and `list_files`
//!   says which replicas it left out.

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use mayflower_fs::{Dataserver, FileId, FileMeta, FsError, Redundancy, RepairSource};
use mayflower_net::HostId;
use mayflower_simcore::testutil::{SeedGuard, TempDir};
use mayflower_simcore::SimRng;
use proptest::prelude::*;

fn meta(id: u128, chunk_size: u64) -> FileMeta {
    FileMeta {
        id: FileId(id),
        name: format!("file-{id}"),
        chunk_size,
        size: 0,
        replicas: vec![HostId(0)],
        redundancy: Redundancy::default(),
        fragments: Vec::new(),
        sealed_chunks: 0,
    }
}

fn replica_dir(ds: &Dataserver, id: FileId) -> PathBuf {
    ds.root().join(id.as_hex())
}

// ---------------------------------------------------------------------
// Recovery equivalence
// ---------------------------------------------------------------------

/// What `prop_assert!` returns from (the vendored proptest reports a
/// failed case as its message).
type Outcome = Result<(), String>;

const CHUNK: u64 = 16;
const SLOTS: u128 = 3;
/// A size no replica reaches: passed wherever the dataserver must not
/// use `FileMeta::size`.
const BOGUS_SIZE: u64 = 999_983;

/// What one replica must look like, whatever the table holds.
#[derive(Clone, Debug)]
struct ModelReplica {
    /// As last passed to `create_file` / `update_meta`.
    meta: FileMeta,
    /// Logical content `[0, size)`; bytes no chunk file covers (below
    /// the seal watermark) are never compared.
    bytes: Vec<u8>,
    /// Chunk files on disk: chunk → length.
    held: BTreeMap<u64, u64>,
    /// Bumped per re-creation of the slot, so bytes of an earlier
    /// incarnation cannot pass for the current one's.
    generation: u64,
}

impl ModelReplica {
    fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn expected_meta(&self) -> FileMeta {
        FileMeta {
            size: self.size(),
            ..self.meta.clone()
        }
    }

    fn byte_at(&self, pos: u64) -> u8 {
        ((pos * 131 + self.meta.id.0 as u64 * 17 + self.generation * 7) % 251) as u8
    }

    fn append(&mut self, len: u64) -> Vec<u8> {
        let start = self.size();
        let data: Vec<u8> = (start..start + len).map(|p| self.byte_at(p)).collect();
        self.bytes.extend_from_slice(&data);
        let mut pos = start;
        while pos < start + len {
            let chunk = pos / CHUNK;
            let end = ((chunk + 1) * CHUNK).min(start + len);
            *self.held.entry(chunk).or_insert(0) += end - pos;
            pos = end;
        }
        data
    }

    /// The seal watermark is a floor under the size.
    fn apply_floor(&mut self) {
        let floor = (self.meta.sealed_chunks * CHUNK) as usize;
        if self.bytes.len() < floor {
            self.bytes.resize(floor, 0);
        }
    }

    /// `Some(bytes)` when every byte of `[offset, offset + len)` below
    /// the size lies in a chunk file, `None` when the read must fail.
    fn read(&self, offset: u64, len: u64) -> Option<Vec<u8>> {
        let end = offset.saturating_add(len).min(self.size());
        let mut pos = offset;
        while pos < end {
            let chunk = pos / CHUNK;
            let stop = ((chunk + 1) * CHUNK).min(end);
            if self.held.get(&chunk).copied().unwrap_or(0) < stop - chunk * CHUNK {
                return None;
            }
            pos = stop;
        }
        Some(self.bytes[offset.min(end) as usize..end as usize].to_vec())
    }
}

struct Store {
    root: PathBuf,
    ds: Dataserver,
    model: BTreeMap<u128, ModelReplica>,
    generations: u64,
}

impl Store {
    fn open(root: &Path, host: u32) -> Store {
        Store {
            root: root.to_path_buf(),
            ds: Dataserver::open(HostId(host), root).unwrap(),
            model: BTreeMap::new(),
            generations: 0,
        }
    }

    /// Everything the public API can say about the store equals the
    /// model. `first` rotates which accessor touches a replica first,
    /// so each of them meets a cold table on some step.
    fn check(&self, rng: &mut SimRng, first: usize) -> Outcome {
        for slot in 0..SLOTS {
            let id = FileId(slot);
            let Some(want) = self.model.get(&slot) else {
                prop_assert!(matches!(self.ds.read_meta(id), Err(FsError::NotFound(_))));
                prop_assert!(!self.ds.has_file(id));
                continue;
            };
            for accessor in 0..4 {
                match (accessor + first) % 4 {
                    0 => prop_assert_eq!(self.ds.read_meta(id).unwrap(), want.expected_meta()),
                    1 => prop_assert_eq!(
                        self.ds.local_size(id).unwrap(),
                        want.held.values().sum::<u64>()
                    ),
                    2 => self.check_list()?,
                    _ => {
                        for _ in 0..4 {
                            let offset = rng.index(want.size() as usize + 3) as u64;
                            let len = rng.index(3 * CHUNK as usize) as u64;
                            let got = self.ds.read_local(id, offset, len);
                            match want.read(offset, len) {
                                Some(bytes) => {
                                    prop_assert_eq!(got.unwrap(), (bytes.clone(), want.size()));
                                    let mut buf = vec![0u8; len as usize];
                                    let (filled, size) =
                                        self.ds.read_local_into(id, offset, &mut buf).unwrap();
                                    prop_assert_eq!(
                                        (&buf[..filled], size),
                                        (&bytes[..], want.size())
                                    );
                                }
                                None => prop_assert!(got.is_err(), "read of a reclaimed chunk"),
                            }
                        }
                    }
                }
            }
        }
        self.check_list()
    }

    fn check_list(&self) -> Outcome {
        let want: Vec<FileMeta> = self
            .model
            .values()
            .map(ModelReplica::expected_meta)
            .collect();
        prop_assert_eq!(self.ds.list_files().unwrap(), (want, Vec::new()));
        Ok(())
    }
}

/// Append sizes straddling 0, 1, a chunk and several chunks.
const APPEND_SIZES: [u64; 9] = [
    0,
    1,
    3,
    CHUNK - 1,
    CHUNK,
    CHUNK + 1,
    2 * CHUNK,
    2 * CHUNK + 5,
    7,
];

fn run_sequence(seed: u64, dir: &TempDir) -> Outcome {
    let mut rng = SimRng::seed_from(seed);
    let mut stores = [
        Store::open(&dir.path().join("a"), 0),
        Store::open(&dir.path().join("b"), 1),
    ];
    for step in 0..60usize {
        let s = rng.index(2);
        let slot = rng.index(SLOTS as usize) as u128;
        let id = FileId(slot);
        let op = rng.index(12);
        let store = &mut stores[s];
        match (op, store.model.contains_key(&slot)) {
            // create (and re-create after a delete)
            (0 | 1, exists) => {
                let mut m = meta(slot, CHUNK);
                m.size = BOGUS_SIZE;
                if slot == 1 {
                    m.redundancy = Redundancy::Coded { k: 2, m: 1 };
                    m.fragments = vec![HostId(4), HostId(5), HostId(6)];
                }
                let out = store.ds.create_file(&m);
                if exists {
                    prop_assert!(matches!(out, Err(FsError::AlreadyExists(_))));
                } else {
                    out.unwrap();
                    store.generations += 1;
                    store.model.insert(
                        slot,
                        ModelReplica {
                            meta: m,
                            bytes: Vec::new(),
                            held: BTreeMap::new(),
                            generation: store.generations,
                        },
                    );
                }
            }
            // append
            (2..=5, true) => {
                let len = APPEND_SIZES[rng.index(APPEND_SIZES.len())];
                let want = store.model.get_mut(&slot).unwrap();
                let data = want.append(len);
                prop_assert_eq!(store.ds.append_local(id, &data).unwrap(), want.size());
            }
            (2..=5, false) => {
                prop_assert!(matches!(
                    store.ds.append_local(id, b"x"),
                    Err(FsError::NotFound(_))
                ));
            }
            // rename
            (6, true) => {
                let want = store.model.get_mut(&slot).unwrap();
                want.meta.name = format!("renamed-{step}");
                want.meta.size = BOGUS_SIZE;
                store.ds.update_meta(&want.meta).unwrap();
            }
            // seal watermark advance: to any complete chunk, and
            // sometimes one past the end of the file
            (7, true) => {
                let want = store.model.get_mut(&slot).unwrap();
                let top = want.size() / CHUNK + 1;
                let sealed = want.meta.sealed_chunks;
                want.meta.sealed_chunks =
                    sealed + rng.index((top + 1 - sealed.min(top)) as usize) as u64;
                store.ds.update_meta(&want.meta).unwrap();
                want.apply_floor();
            }
            // reclaim a sealed chunk
            (8, true) => {
                let want = store.model.get_mut(&slot).unwrap();
                if want.meta.sealed_chunks > 0 {
                    let chunk = rng.index(want.meta.sealed_chunks as usize) as u64;
                    store.ds.drop_chunk(id, chunk).unwrap();
                    want.held.remove(&chunk);
                }
            }
            // a fragment beside the chunk files is not a chunk
            (9, true) => {
                store
                    .ds
                    .put_fragment(id, rng.index(3) as u64, rng.index(3), 8, b"shard")
                    .unwrap();
            }
            (9, false) => {}
            // delete
            (10, true) => {
                store.ds.delete_file(id).unwrap();
                store.model.remove(&slot);
            }
            (6..=8 | 10, false) => {
                prop_assert!(matches!(
                    store.ds.update_meta(&meta(slot, CHUNK)),
                    Err(FsError::NotFound(_))
                ));
                prop_assert!(matches!(
                    store.ds.delete_file(id),
                    Err(FsError::NotFound(_))
                ));
            }
            // repair pull from the other store
            _ => {
                let (dst, src) = if s == 0 {
                    let (a, b) = stores.split_at_mut(1);
                    (&mut a[0], &b[0])
                } else {
                    let (a, b) = stores.split_at_mut(1);
                    (&mut b[0], &a[0])
                };
                if let Some(from) = src.model.get(&slot) {
                    let copied = dst.ds.pull_repair(&src.ds, &from.expected_meta()).unwrap();
                    if let std::collections::btree_map::Entry::Vacant(vacant) =
                        dst.model.entry(slot)
                    {
                        let start = from.meta.sealed_chunks * CHUNK;
                        prop_assert_eq!(copied, from.size() - start);
                        let mut pulled = from.clone();
                        pulled.meta = from.expected_meta();
                        pulled.held = (from.meta.sealed_chunks..from.size().div_ceil(CHUNK))
                            .map(|c| (c, (from.size() - c * CHUNK).min(CHUNK)))
                            .collect();
                        vacant.insert(pulled);
                    } else {
                        prop_assert_eq!(copied, 0);
                    }
                }
            }
        }

        // Cold table: a crash + restart, or a whole new `Dataserver`
        // over the same directory.
        let store = &mut stores[s];
        match rng.index(6) {
            0 => {
                store.ds.crash();
                prop_assert!(matches!(
                    store.ds.read_meta(id),
                    Err(FsError::Unavailable(_))
                ));
                prop_assert!(matches!(
                    store.ds.list_files(),
                    Err(FsError::Unavailable(_))
                ));
                store.ds.restart();
            }
            1 => store.ds = Dataserver::open(store.ds.host(), &store.root).unwrap(),
            _ => {}
        }
        for store in &stores {
            store.check(&mut rng, step)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_and_cold_tables_agree_with_the_model(seed in any::<u64>(), case_tag in any::<u64>()) {
        let _seed_guard = SeedGuard::new("replica_table::warm_and_cold", seed);
        let dir = TempDir::new(&format!("prop-{case_tag}"));
        run_sequence(seed, &dir)?;
    }
}

// ---------------------------------------------------------------------
// Mechanism: which operations write `meta`
// ---------------------------------------------------------------------

/// Identity of the `meta` file: a replacement (write-then-rename)
/// allocates a new inode while the old one is still linked, so the
/// number changes; the modification time covers an in-place rewrite.
fn meta_identity(ds: &Dataserver, id: FileId) -> (u64, i64, i64) {
    let md = std::fs::metadata(replica_dir(ds, id).join("meta")).unwrap();
    (md.ino(), md.mtime(), md.mtime_nsec())
}

fn file_names(ds: &Dataserver, id: FileId) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(replica_dir(ds, id))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn appends_never_touch_meta_and_restamps_replace_it() {
    let dir = TempDir::new("mechanism");
    let ds = Dataserver::open(HostId(0), &dir.path().join("a")).unwrap();
    let mut m = meta(1, 64);
    m.redundancy = Redundancy::Coded { k: 2, m: 1 };
    ds.create_file(&m).unwrap();
    let created = meta_identity(&ds, m.id);
    // Any rewrite from here on carries a later timestamp.
    std::thread::sleep(std::time::Duration::from_millis(30));

    for i in 0..100u64 {
        assert_eq!(ds.append_local(m.id, &[i as u8; 5]).unwrap(), (i + 1) * 5);
        let mut buf = [0u8; 5];
        assert_eq!(
            ds.read_local_into(m.id, i * 5, &mut buf).unwrap(),
            (5, (i + 1) * 5)
        );
    }
    assert_eq!(meta_identity(&ds, m.id), created, "an append rewrote meta");
    let chunks: Vec<String> = (1..=8).map(|c| c.to_string()).collect();
    let mut want = chunks.clone();
    want.push("meta".to_string());
    assert_eq!(file_names(&ds, m.id), want, "nothing but chunks and meta");

    // A rename, then a seal: each replaces the file, leaves no
    // temporary behind, and is what a cold table reads back.
    let mut last = created;
    m.name = "renamed".to_string();
    for sealed in [0, 3] {
        m.sealed_chunks = sealed;
        ds.update_meta(&m).unwrap();
        let now = meta_identity(&ds, m.id);
        assert_ne!(now.0, last.0, "update_meta did not replace meta");
        last = now;
        assert_eq!(file_names(&ds, m.id), want);
        ds.crash();
        ds.restart();
        let back = ds.read_meta(m.id).unwrap();
        assert_eq!(
            (back.name.as_str(), back.sealed_chunks, back.size),
            ("renamed", sealed, 500)
        );
    }
    assert_eq!(meta_identity(&ds, m.id), last, "loading wrote meta");

    // A repair writes the destination's meta once, when it creates the
    // replica: the file the source sees during the copy is the file
    // that is there afterwards.
    struct Watching<'a> {
        src: &'a Dataserver,
        dst: &'a Dataserver,
        seen: std::cell::RefCell<Vec<(u64, i64, i64)>>,
    }
    impl RepairSource for Watching<'_> {
        fn repair_read(
            &self,
            id: FileId,
            offset: u64,
            len: u64,
        ) -> Result<(Vec<u8>, u64), FsError> {
            self.seen.borrow_mut().push(meta_identity(self.dst, id));
            self.src.repair_read(id, offset, len)
        }
    }
    let dst = Dataserver::open(HostId(1), &dir.path().join("b")).unwrap();
    let source = Watching {
        src: &ds,
        dst: &dst,
        seen: std::cell::RefCell::new(Vec::new()),
    };
    m.size = 500;
    assert_eq!(dst.pull_repair(&source, &m).unwrap(), 500 - 3 * 64);
    let seen = source.seen.into_inner();
    assert!(seen.len() >= 5, "one read per copied chunk");
    assert!(seen.iter().all(|s| *s == meta_identity(&dst, m.id)));
    assert_eq!(file_names(&dst, m.id), ["4", "5", "6", "7", "8", "meta"]);
    assert_eq!(dst.read_meta(m.id).unwrap(), ds.read_meta(m.id).unwrap());
}

// ---------------------------------------------------------------------
// Ordering: publish-after-write
// ---------------------------------------------------------------------

#[test]
fn readers_never_see_a_size_without_its_bytes() {
    const APPENDS: u64 = 2000;
    let pattern = |pos: u64| (pos.wrapping_mul(2_654_435_761) >> 7) as u8;
    let dir = TempDir::new("ordering");
    let ds = Arc::new(Dataserver::open(HostId(0), dir.path()).unwrap());
    let m = meta(7, 256);
    ds.create_file(&m).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(5));
    let readers: Vec<_> = (0..4u64)
        .map(|r| {
            let (ds, done, start) = (ds.clone(), done.clone(), start.clone());
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 700];
                let mut last_size = 0u64;
                let mut reads = 0u64;
                start.wait();
                // One more pass after the appender is done, so every
                // reader also checks the final size.
                let mut finishing = false;
                loop {
                    // Mostly the tail, where the race is; sometimes
                    // anywhere below it.
                    let offset = match reads % 4 {
                        0 => (last_size / (r + 2)).min(last_size),
                        _ => last_size.saturating_sub(300 + r * 17),
                    };
                    let (filled, size) = ds.read_local_into(FileId(7), offset, &mut buf).unwrap();
                    assert!(size >= last_size, "size went back: {last_size} -> {size}");
                    let want = (size.saturating_sub(offset) as usize).min(buf.len());
                    assert_eq!(filled, want, "size {size} published before its bytes");
                    for (i, b) in buf[..filled].iter().enumerate() {
                        assert_eq!(
                            *b,
                            pattern(offset + i as u64),
                            "byte {} of size {size}",
                            offset + i as u64
                        );
                    }
                    last_size = size;
                    reads += 1;
                    if finishing {
                        return (last_size, reads);
                    }
                    finishing = done.load(Ordering::Acquire);
                }
            })
        })
        .collect();

    start.wait();
    let mut pos = 0u64;
    for i in 0..APPENDS {
        let len = 1 + (i * 37) % 97; // crosses a 256-byte chunk every few appends
        let data: Vec<u8> = (pos..pos + len).map(pattern).collect();
        pos = ds.append_local(m.id, &data).unwrap();
    }
    done.store(true, Ordering::Release);
    for reader in readers {
        let (last_size, reads) = reader.join().unwrap();
        assert_eq!(last_size, pos);
        assert!(reads >= 2);
    }
}

// ---------------------------------------------------------------------
// Load rule: impossible layouts, unreadable replicas
// ---------------------------------------------------------------------

/// Three-and-a-bit chunks of 8 bytes, written through a dataserver that
/// is then dropped: the next open finds a cold table.
fn stored(dir: &Path, id: u128, sealed_chunks: u64) -> FileMeta {
    let ds = Dataserver::open(HostId(0), dir).unwrap();
    let mut m = meta(id, 8);
    ds.create_file(&m).unwrap();
    ds.append_local(m.id, &[id as u8; 27]).unwrap();
    m.sealed_chunks = sealed_chunks;
    ds.update_meta(&m).unwrap();
    m
}

#[test]
fn impossible_layouts_are_reported_not_guessed_at() {
    type Damage = fn(&Path);
    let cases: [(&str, u64, Damage, &str); 6] = [
        (
            "short-below",
            0,
            |d| std::fs::write(d.join("2"), [1u8; 5]).unwrap(),
            "chunk 1 of",
        ),
        (
            "missing-between",
            0,
            |d| std::fs::remove_file(d.join("3")).unwrap(),
            "chunk 2 of",
        ),
        (
            "missing-at-watermark",
            1,
            |d| std::fs::remove_file(d.join("2")).unwrap(),
            "chunk 1 of",
        ),
        (
            "too-long",
            0,
            |d| std::fs::write(d.join("4"), [1u8; 9]).unwrap(),
            "chunk 3 of",
        ),
        (
            "empty-below",
            0,
            |d| std::fs::write(d.join("1"), []).unwrap(),
            "chunk 0 of",
        ),
        (
            "bad-meta",
            0,
            |d| std::fs::write(d.join("meta"), b"{ not json").unwrap(),
            "meta of",
        ),
    ];
    for (tag, sealed, damage, names) in cases {
        let dir = TempDir::new(tag);
        let m = stored(dir.path(), 5, sealed);
        damage(&dir.path().join(m.id.as_hex()));
        let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
        let before = file_sizes(&ds, m.id);
        let outcomes = [
            ds.read_meta(m.id).map(|_| ()),
            ds.append_local(m.id, b"must not land anywhere").map(|_| ()),
            ds.read_local(m.id, 0, 27).map(|_| ()),
            ds.read_local_into(m.id, 0, &mut [0u8; 4]).map(|_| ()),
            ds.local_size(m.id).map(|_| ()),
            ds.update_meta(&m),
        ];
        for out in outcomes {
            match out {
                Err(FsError::CorruptMetadata(why)) => {
                    assert!(
                        why.contains(names) && why.contains(&m.id.as_hex()),
                        "{tag}: {why}"
                    );
                }
                other => panic!("{tag}: {other:?}"),
            }
        }
        assert_eq!(
            file_sizes(&ds, m.id),
            before,
            "{tag}: a refused append wrote bytes"
        );
        assert_eq!(ds.list_files().unwrap(), (Vec::new(), vec![m.id]), "{tag}");
    }

    // What a reclaim or a cut append does leave behind loads fine.
    let dir = TempDir::new("legal");
    let m = stored(dir.path(), 6, 2);
    let d = dir.path().join(m.id.as_hex());
    std::fs::remove_file(d.join("1")).unwrap(); // sealed and reclaimed
    std::fs::write(d.join("2"), [9u8; 3]).unwrap(); // below the watermark: not this replica's business
    std::fs::write(d.join("4"), [6u8; 1]).unwrap(); // tail cut short by a crash
    let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
    assert_eq!(ds.read_meta(m.id).unwrap().size, 25);
    assert_eq!(ds.append_local(m.id, b"ab").unwrap(), 27);
    assert_eq!(
        ds.read_local(m.id, 16, 100).unwrap().0,
        [6, 6, 6, 6, 6, 6, 6, 6, 6, b'a', b'b']
    );
}

/// An append that fails after some of its bytes reached a chunk file
/// must not leave the table behind the disk: the next append lands
/// where the files end, not where the table last stood.
#[test]
fn a_cut_append_is_followed_by_a_reload() {
    let dir = TempDir::new("cut");
    let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
    let m = meta(4, 8);
    ds.create_file(&m).unwrap();
    assert_eq!(ds.append_local(m.id, b"01234").unwrap(), 5);
    // The spill into the second chunk cannot open its file.
    let blocker = replica_dir(&ds, m.id).join("2");
    std::fs::create_dir(&blocker).unwrap();
    assert!(ds.append_local(m.id, b"abcdefghij").is_err());
    std::fs::remove_dir(&blocker).unwrap();
    // The three bytes that made it are part of the replica, as they
    // would be after a crash at that point.
    assert_eq!(
        ds.read_local(m.id, 0, 100).unwrap(),
        (b"01234abc".to_vec(), 8)
    );
    assert_eq!(ds.append_local(m.id, b"XY").unwrap(), 10);
    assert_eq!(ds.read_local(m.id, 0, 100).unwrap().0, b"01234abcXY");
    assert_eq!(
        file_sizes(&ds, m.id)[..2],
        [("1".to_string(), 8), ("2".to_string(), 2)]
    );
}

fn file_sizes(ds: &Dataserver, id: FileId) -> Vec<(String, u64)> {
    file_names(ds, id)
        .into_iter()
        .map(|n| {
            let len = std::fs::metadata(replica_dir(ds, id).join(&n))
                .unwrap()
                .len();
            (n, len)
        })
        .collect()
}

#[test]
fn list_files_names_the_replicas_it_could_not_load() {
    let dir = TempDir::new("skipped");
    let metas: Vec<FileMeta> = (1..=3).map(|id| stored(dir.path(), id, 0)).collect();
    std::fs::write(
        dir.path().join(metas[1].id.as_hex()).join("meta"),
        b"garbage",
    )
    .unwrap();
    let ds = Dataserver::open(HostId(0), dir.path()).unwrap();
    // A directory of fragments only is no replica: neither listed nor
    // reported.
    ds.put_fragment(FileId(9), 0, 1, 8, b"shard").unwrap();

    let (listed, skipped) = ds.list_files().unwrap();
    assert_eq!(skipped, vec![metas[1].id]);
    let sized = |m: &FileMeta| FileMeta {
        size: 27,
        ..m.clone()
    };
    assert_eq!(listed, vec![sized(&metas[0]), sized(&metas[2])]);
    // The healthy neighbours keep working.
    assert_eq!(ds.append_local(metas[0].id, b"x").unwrap(), 28);
    assert!(matches!(ds.read_meta(FileId(9)), Err(FsError::NotFound(_))));
}
