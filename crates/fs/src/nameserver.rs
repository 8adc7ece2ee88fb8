//! The nameserver: namespace and mappings (§3.3.1).

use std::sync::Arc;

use mayflower_kvstore::{KvStore, Options as KvOptions};
use mayflower_net::Topology;
use mayflower_simcore::SimRng;
use mayflower_workload::PlacementPolicy;
use parking_lot::Mutex;

use crate::dataserver::Dataserver;
use crate::error::FsError;
use crate::types::{FileId, FileMeta, Redundancy, DEFAULT_CHUNK_SIZE};

/// The replica placement rule every nameserver places by, and the
/// recovery planner places repairs by: the prototype's HDFS-style
/// rack-aware placement (§5).
pub const PLACEMENT: PlacementPolicy = PlacementPolicy::HdfsRackAware;

/// Nameserver configuration.
#[derive(Debug, Clone)]
pub struct NameserverConfig {
    /// Replication factor (default 3, §5).
    pub replication: usize,
    /// Chunk size for new files (default 256 MB, §5).
    pub chunk_size: u64,
    /// Seed for placement randomness.
    pub seed: u64,
}

impl Default for NameserverConfig {
    fn default() -> NameserverConfig {
        NameserverConfig {
            replication: 3,
            chunk_size: DEFAULT_CHUNK_SIZE,
            seed: 0x4E53, // "NS"
        }
    }
}

/// One transition of the namespace: the unit [`Nameserver::apply`]
/// validates and makes, and what a shard router sends to the shard
/// that owns the name. An op is fully decided — it carries no
/// randomness and reads no clock — so applying the same ops in the same
/// order yields the same namespace anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsOp {
    /// Create a file with pre-decided metadata (the output of a
    /// create's decide step). Refused with `AlreadyExists` if the
    /// name is taken, `InvalidArgument` if it is empty.
    Create(FileMeta),
    /// Store fully decided metadata over the existing entry of the same
    /// name, in one step: how repair, primary re-election and shard
    /// migration change where a file lives without the name ever being
    /// unmapped. Refused with `NotFound` if the name has no entry.
    Replace(FileMeta),
    /// Delete a file by name, returning its metadata. Refused with
    /// `NotFound`.
    Delete(String),
    /// Record a file's new size after an append. Refused with
    /// `NotFound`.
    RecordSize {
        /// File name.
        name: String,
        /// New size in bytes.
        size: u64,
    },
    /// Move a file to a new name (the paper's §3.3 move), returning the
    /// file an overwrite displaced. Renaming a file to itself changes
    /// nothing. Refused with `InvalidArgument` for an empty target,
    /// `NotFound` if `from` is missing, `AlreadyExists` if `to` exists
    /// and `overwrite` is false.
    Rename {
        /// Current name.
        from: String,
        /// New name.
        to: String,
        /// Whether an existing destination is displaced.
        overwrite: bool,
    },
    /// Advance a coded file's seal watermark. Refused with `NotFound`,
    /// or `InvalidArgument` for a replicated file or a watermark that
    /// moves backwards.
    RecordSeal {
        /// File name.
        name: String,
        /// New watermark, in chunks.
        sealed_chunks: u64,
    },
    /// Re-point one fragment slot at a new host after coded repair.
    /// Refused with `NotFound`, or `InvalidArgument` for an index the
    /// file has no fragment at.
    SetFragment {
        /// File name.
        name: String,
        /// Fragment index.
        index: usize,
        /// The fragment's new home.
        host: mayflower_net::HostId,
    },
}

impl NsOp {
    /// The names whose entries the op reads or writes: the first for
    /// every op, and the target of a rename. A partitioned namespace
    /// can apply the op on one partition only if that partition owns
    /// all of them.
    #[must_use]
    pub fn names(&self) -> (&str, Option<&str>) {
        match self {
            NsOp::Create(meta) | NsOp::Replace(meta) => (&meta.name, None),
            NsOp::Delete(name)
            | NsOp::RecordSize { name, .. }
            | NsOp::RecordSeal { name, .. }
            | NsOp::SetFragment { name, .. } => (name, None),
            NsOp::Rename { from, to, .. } => (from, Some(to)),
        }
    }
}

/// The centralized metadata service: stores file → chunks and file →
/// dataservers mappings in a persistent KV store, makes replica
/// placement decisions at file creation, and can rebuild its state by
/// scanning dataserver metadata after an unclean restart.
#[derive(Debug)]
pub struct Nameserver {
    topo: Arc<Topology>,
    db: Mutex<KvStore>,
    config: NameserverConfig,
    rng: Mutex<SimRng>,
}

/// Key prefix for name → metadata entries.
const NAME_PREFIX: &[u8] = b"n/";

impl Nameserver {
    /// Opens (or creates) a nameserver whose metadata database lives in
    /// `db_dir`.
    ///
    /// # Errors
    ///
    /// Returns an error if the database cannot be opened.
    pub fn open(
        topo: Arc<Topology>,
        db_dir: &std::path::Path,
        config: NameserverConfig,
    ) -> Result<Nameserver, FsError> {
        let db = KvStore::open(db_dir, KvOptions::default())?;
        // Re-opening a populated database must not replay the id/
        // placement stream from the top: a second process would mint
        // the same FileId the first one did and collide on the shared
        // dataservers. Perturb the seed by durable state; a fresh
        // database keeps the exact configured stream so deterministic
        // experiments are unchanged.
        let existing = db.scan_prefix(NAME_PREFIX).len() as u64;
        let seed = if existing == 0 {
            config.seed
        } else {
            config.seed ^ existing.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        };
        let rng = SimRng::seed_from(seed);
        Ok(Nameserver {
            topo,
            db: Mutex::new(db),
            config,
            rng: Mutex::new(rng),
        })
    }

    /// The topology used for placement.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &NameserverConfig {
        &self.config
    }

    fn name_key(name: &str) -> Vec<u8> {
        let mut k = NAME_PREFIX.to_vec();
        k.extend_from_slice(name.as_bytes());
        k
    }

    fn load(db: &KvStore, name: &str) -> Result<FileMeta, FsError> {
        let Some(body) = db.get(&Self::name_key(name)) else {
            return Err(FsError::NotFound(name.to_string()));
        };
        serde_json::from_slice(&body).map_err(|e| FsError::CorruptMetadata(e.to_string()))
    }

    fn store(db: &mut KvStore, meta: &FileMeta) -> Result<(), FsError> {
        let body = serde_json::to_vec(meta).map_err(|e| FsError::CorruptMetadata(e.to_string()))?;
        db.put(&Self::name_key(&meta.name), &body)?;
        Ok(())
    }

    /// Whether a file may be created under `name`: the check the decide
    /// step makes before it draws anything and [`NsOp::Create`] makes
    /// again when it is applied.
    fn vacant(db: &KvStore, name: &str) -> Result<(), FsError> {
        if name.is_empty() {
            return Err(FsError::InvalidArgument("file name is empty".into()));
        }
        if db.get(&Self::name_key(name)).is_some() {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        Ok(())
    }

    /// The **decide** step of a create: draws the [`FileId`] and the
    /// placement — `replicas` when the caller pins them, [`PLACEMENT`]
    /// otherwise, plus `k + m` fragment hosts for a coded file — and
    /// returns the metadata an [`NsOp::Create`] carries. Everything
    /// random happens here, once, on the node that takes the request;
    /// [`Nameserver::apply`] is deterministic, so the op it feeds
    /// stores the same entry wherever it is applied.
    ///
    /// Nothing is stored. A name that [`NsOp::Create`] would refuse is
    /// refused here too, before anything is drawn, so a failed create
    /// leaves the id/placement stream where it was.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for a name that is taken, or
    /// [`FsError::InvalidArgument`] for an empty name, an empty replica
    /// list or a policy the topology cannot host (`k + m` exceeding the
    /// host count).
    fn decide(
        &self,
        name: &str,
        redundancy: Redundancy,
        replicas: Option<Vec<mayflower_net::HostId>>,
    ) -> Result<FileMeta, FsError> {
        if replicas.as_ref().is_some_and(Vec::is_empty) {
            return Err(FsError::InvalidArgument("replica list is empty".into()));
        }
        Self::vacant(&self.db.lock(), name)?;
        let mut rng = self.rng.lock();
        let id = FileId((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()));
        let place = |n: usize, rng: &mut SimRng| {
            replicas.unwrap_or_else(|| PLACEMENT.place(&self.topo, n, rng))
        };
        let (replicas, fragments) = match redundancy {
            Redundancy::Replicated { n } => {
                if n == 0 {
                    return Err(FsError::InvalidArgument("replication factor 0".into()));
                }
                (place(n, &mut rng), Vec::new())
            }
            Redundancy::Coded { k, m } => {
                if k == 0 || m == 0 || k + m > 255 {
                    return Err(FsError::InvalidArgument(format!(
                        "invalid coded redundancy {k}+{m}"
                    )));
                }
                if k + m > self.topo.hosts().len() {
                    return Err(FsError::InvalidArgument(format!(
                        "coded redundancy {k}+{m} exceeds {} hosts",
                        self.topo.hosts().len()
                    )));
                }
                // The unsealed append chunk stays replicated (§3.2).
                let replicas = place(self.config.replication, &mut rng);
                // Fragment hosts must be pairwise distinct or a single
                // host failure costs several fragments, and `k + m`
                // routinely exceeds the rack count (which the replica
                // placement policy refuses), so fragments are dealt
                // across racks round-robin: a rack failure costs at
                // most `ceil((k + m) / racks)` fragments.
                let mut by_rack: std::collections::BTreeMap<_, Vec<mayflower_net::HostId>> =
                    std::collections::BTreeMap::new();
                for h in self.topo.hosts() {
                    by_rack.entry(self.topo.rack_of(h)).or_default().push(h);
                }
                let mut racks: Vec<Vec<mayflower_net::HostId>> = by_rack.into_values().collect();
                for r in &mut racks {
                    r.sort_unstable();
                }
                let offset = (rng.next_u64() as usize) % racks.len();
                let mut fragments: Vec<mayflower_net::HostId> = Vec::with_capacity(k + m);
                let mut depth = 0;
                while fragments.len() < k + m {
                    let mut advanced = false;
                    for i in 0..racks.len() {
                        if fragments.len() == k + m {
                            break;
                        }
                        if let Some(h) = racks[(offset + i) % racks.len()].get(depth) {
                            fragments.push(*h);
                            advanced = true;
                        }
                    }
                    if !advanced {
                        break; // host count guard above makes this unreachable
                    }
                    depth += 1;
                }
                (replicas, fragments)
            }
        };
        Ok(FileMeta {
            id,
            name: name.to_string(),
            chunk_size: self.config.chunk_size,
            size: 0,
            replicas,
            redundancy,
            fragments,
            sealed_chunks: 0,
        })
    }

    /// Validates `op` against the namespace and, if it is allowed,
    /// makes its transition — both under one hold of the database lock,
    /// so no other op or lookup sees the entry between the check and
    /// the write. Returns what the op removed from the namespace: the
    /// deleted file for [`NsOp::Delete`], the file an overwriting
    /// [`NsOp::Rename`] displaced (whose replica data the caller must
    /// garbage-collect), `None` otherwise.
    ///
    /// This is the only place the namespace's rules are written. A
    /// refused op (`NotFound`, `AlreadyExists`, `InvalidArgument`)
    /// changes nothing, and the verdict depends on nothing but the op
    /// and the entries it names — which is what lets a shard router
    /// carry an op to its owner and get the one nameserver's answer.
    ///
    /// # Errors
    ///
    /// Per op, see [`NsOp`]; database failures as [`FsError::Kv`].
    pub fn apply(&self, op: &NsOp) -> Result<Option<FileMeta>, FsError> {
        let db = &mut *self.db.lock();
        match op {
            NsOp::Create(meta) => {
                Self::vacant(db, &meta.name)?;
                Self::store(db, meta)?;
                Ok(None)
            }
            NsOp::Replace(meta) => {
                Self::load(db, &meta.name)?;
                Self::store(db, meta)?;
                Ok(None)
            }
            NsOp::Delete(name) => {
                let meta = Self::load(db, name)?;
                db.delete(&Self::name_key(name))?;
                Ok(Some(meta))
            }
            NsOp::RecordSize { name, size } => {
                let mut meta = Self::load(db, name)?;
                meta.size = *size;
                Self::store(db, &meta)?;
                Ok(None)
            }
            NsOp::Rename {
                from,
                to,
                overwrite,
            } => {
                if to.is_empty() {
                    return Err(FsError::InvalidArgument("target name is empty".into()));
                }
                let mut meta = Self::load(db, from)?;
                if from == to {
                    // Self-rename is a no-op (anything else would
                    // displace — and garbage-collect — the file itself).
                    return Ok(None);
                }
                let displaced = match Self::load(db, to) {
                    Ok(_) if !overwrite => return Err(FsError::AlreadyExists(to.clone())),
                    Ok(existing) => Some(existing),
                    Err(FsError::NotFound(_)) => None,
                    Err(e) => return Err(e),
                };
                // The new entry lands before the old one goes: a crash
                // between the two writes leaves both names, never
                // neither.
                meta.name.clone_from(to);
                Self::store(db, &meta)?;
                db.delete(&Self::name_key(from))?;
                Ok(displaced)
            }
            NsOp::RecordSeal {
                name,
                sealed_chunks,
            } => {
                let mut meta = Self::load(db, name)?;
                if !meta.is_coded() {
                    return Err(FsError::InvalidArgument(format!(
                        "{name} is not a coded file"
                    )));
                }
                if *sealed_chunks < meta.sealed_chunks {
                    return Err(FsError::InvalidArgument(format!(
                        "seal watermark cannot regress ({} -> {sealed_chunks})",
                        meta.sealed_chunks
                    )));
                }
                meta.sealed_chunks = *sealed_chunks;
                Self::store(db, &meta)?;
                Ok(None)
            }
            NsOp::SetFragment { name, index, host } => {
                let mut meta = Self::load(db, name)?;
                let Some(slot) = meta.fragments.get_mut(*index) else {
                    return Err(FsError::InvalidArgument(format!(
                        "fragment index {index} out of range for {name}"
                    )));
                };
                *slot = *host;
                Self::store(db, &meta)?;
                Ok(None)
            }
        }
    }

    /// Decides and applies a create, returning the stored metadata.
    fn create_decided(
        &self,
        name: &str,
        redundancy: Redundancy,
        replicas: Option<Vec<mayflower_net::HostId>>,
    ) -> Result<FileMeta, FsError> {
        let meta = self.decide(name, redundancy, replicas)?;
        self.apply(&NsOp::Create(meta.clone()))?;
        Ok(meta)
    }

    /// Creates a file: assigns a UUID, places replicas under the
    /// [`PLACEMENT`] fault-domain policy, records the mappings.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for duplicate names or
    /// [`FsError::InvalidArgument`] for an empty name.
    pub fn create(&self, name: &str) -> Result<FileMeta, FsError> {
        self.create_with(
            name,
            Redundancy::Replicated {
                n: self.config.replication,
            },
        )
    }

    /// Creates a file under an explicit [`Redundancy`] policy. For
    /// `Replicated{n}` this places `n` replicas; for `Coded{k, m}` it
    /// places the configured number of tail replicas (the unsealed
    /// append chunk stays replicated, §3.2) **plus** `k + m` fragment
    /// hosts under the same fault-domain policy.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for duplicate names or
    /// [`FsError::InvalidArgument`] for an empty name or a policy the
    /// topology cannot host (`k + m` exceeding the host count).
    pub fn create_with(&self, name: &str, redundancy: Redundancy) -> Result<FileMeta, FsError> {
        self.create_decided(name, redundancy, None)
    }

    /// Creates a file with an **explicit** replica placement instead of
    /// [`PLACEMENT`]. Used by experiments that must pin files
    /// to predetermined hosts (the paper's Figure 8 runs Mayflower and
    /// HDFS "with the same primary replica location"), and by
    /// migration tooling.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] for duplicate names or
    /// [`FsError::InvalidArgument`] for an empty name or replica list.
    pub fn create_placed(
        &self,
        name: &str,
        replicas: Vec<mayflower_net::HostId>,
    ) -> Result<FileMeta, FsError> {
        self.create_decided(name, Redundancy::default(), Some(replicas))
    }

    /// Stores fully-specified metadata verbatim: [`NsOp::Create`] for a
    /// caller that has already decided the UUID and placement.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if the name is taken.
    pub fn create_exact(&self, meta: &FileMeta) -> Result<(), FsError> {
        self.apply(&NsOp::Create(meta.clone())).map(drop)
    }

    /// Looks a file up by name.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names.
    pub fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
        Self::load(&self.db.lock(), name)
    }

    /// Records a file's new size after an append.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names.
    pub fn record_size(&self, name: &str, size: u64) -> Result<(), FsError> {
        let name = name.to_string();
        self.apply(&NsOp::RecordSize { name, size }).map(drop)
    }

    /// Records that chunks `[0, sealed_chunks)` of a coded file are now
    /// fragment-backed (DESIGN.md §14 seal-and-encode).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names or
    /// [`FsError::InvalidArgument`] when the file is not coded or the
    /// watermark moves backwards.
    pub fn record_seal(&self, name: &str, sealed_chunks: u64) -> Result<(), FsError> {
        let name = name.to_string();
        self.apply(&NsOp::RecordSeal {
            name,
            sealed_chunks,
        })
        .map(drop)
    }

    /// Re-homes fragment `index` of a coded file onto `host` after a
    /// coded repair rebuilt it there.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names or
    /// [`FsError::InvalidArgument`] for an out-of-range index.
    pub fn set_fragment(
        &self,
        name: &str,
        index: usize,
        host: mayflower_net::HostId,
    ) -> Result<(), FsError> {
        let name = name.to_string();
        self.apply(&NsOp::SetFragment { name, index, host })
            .map(drop)
    }

    /// Renames `old` to `new`, optionally overwriting an existing
    /// `new`. Returns the metadata displaced by an overwrite, whose
    /// replica data the caller must garbage-collect.
    ///
    /// This is the paper's **move** operation (§3.3): "random writes
    /// can be emulated in the application layer by creating and
    /// modifying a new copy of the file and using a move operation to
    /// overwrite the original file." Because dataserver directories
    /// are named by UUID, a rename touches only the nameserver.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `old` is missing,
    /// [`FsError::AlreadyExists`] if `new` exists and `overwrite` is
    /// false, or [`FsError::InvalidArgument`] for an empty target name.
    pub fn rename(
        &self,
        old: &str,
        new: &str,
        overwrite: bool,
    ) -> Result<Option<FileMeta>, FsError> {
        self.apply(&NsOp::Rename {
            from: old.to_string(),
            to: new.to_string(),
            overwrite,
        })
    }

    /// Deletes a file's mappings.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] for unknown names.
    pub fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
        self.apply(&NsOp::Delete(name.to_string()))?
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Lists all files, sorted by name.
    #[must_use]
    pub fn list(&self) -> Vec<FileMeta> {
        self.list_prefix("")
    }

    /// Lists files whose name starts with `prefix`, sorted by name —
    /// the namespace is path-like, so this is directory listing.
    #[must_use]
    pub fn list_prefix(&self, prefix: &str) -> Vec<FileMeta> {
        let mut key = NAME_PREFIX.to_vec();
        key.extend_from_slice(prefix.as_bytes());
        self.db
            .lock()
            .scan_prefix(&key)
            .into_iter()
            .filter_map(|(_, v)| serde_json::from_slice(&v).ok())
            .collect()
    }

    /// Number of files.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.db.lock().scan_prefix(NAME_PREFIX).len()
    }

    /// Flushes metadata to disk — the graceful-shutdown path that makes
    /// the next [`Nameserver::open`] fast and trustworthy.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn flush(&self) -> Result<(), FsError> {
        self.db.lock().flush()?;
        Ok(())
    }

    /// Rebuilds the mappings by scanning dataserver metadata — the
    /// paper's recovery path after an *unexpected* restart, when the
    /// (fsync-off) database may be stale: "instead of reading from the
    /// possibly stale database, the nameserver rebuilds the mappings by
    /// scanning the file metadata stored at the dataservers".
    ///
    /// Any existing database content is replaced. A replica whose
    /// dataserver could not load it (unparsable `meta`, impossible
    /// chunk layout) contributes nothing; the rebuild goes on from the
    /// healthy replicas and returns the ids of the files that had such
    /// a replica (sorted, each once), so the caller knows which
    /// mappings rest on fewer copies than were stored — or, when every
    /// copy of a file was unreadable, that the file is missing from the
    /// rebuilt namespace.
    ///
    /// # Errors
    ///
    /// Returns an error if a dataserver scan or a database write fails.
    pub fn rebuild_from_dataservers(
        &self,
        dataservers: &[Arc<Dataserver>],
    ) -> Result<Vec<FileId>, FsError> {
        let mut db = self.db.lock();
        // Clear the possibly-stale namespace.
        let stale: Vec<Vec<u8>> = db
            .scan_prefix(NAME_PREFIX)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for k in stale {
            db.delete(&k)?;
        }
        // Adopt the freshest replica metadata per file (largest size:
        // with primary-relayed appends the primary is never behind).
        let mut best: std::collections::HashMap<FileId, FileMeta> = Default::default();
        let mut skipped = Vec::new();
        for ds in dataservers {
            let (listed, unreadable) = ds.list_files()?;
            skipped.extend(unreadable);
            for meta in listed {
                let entry = best.entry(meta.id).or_insert_with(|| meta.clone());
                if meta.size > entry.size {
                    *entry = meta;
                }
            }
        }
        for meta in best.values() {
            Self::store(&mut db, meta)?;
        }
        skipped.sort();
        skipped.dedup();
        Ok(skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::TreeParams;
    use mayflower_simcore::testutil::TempDir;

    fn nameserver(dir: &TempDir) -> Nameserver {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        Nameserver::open(topo, &dir.path().join("db"), NameserverConfig::default()).unwrap()
    }

    #[test]
    fn create_lookup_delete() {
        let dir = TempDir::new("crud");
        let ns = nameserver(&dir);
        let meta = ns.create("a/b").unwrap();
        assert_eq!(meta.replicas.len(), 3);
        assert_eq!(meta.size, 0);
        assert_eq!(ns.lookup("a/b").unwrap(), meta);
        assert_eq!(ns.file_count(), 1);
        ns.delete("a/b").unwrap();
        assert!(matches!(ns.lookup("a/b"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let dir = TempDir::new("dup");
        let ns = nameserver(&dir);
        ns.create("x").unwrap();
        assert!(matches!(ns.create("x"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn empty_name_rejected() {
        let dir = TempDir::new("empty");
        let ns = nameserver(&dir);
        assert!(matches!(ns.create(""), Err(FsError::InvalidArgument(_))));
    }

    #[test]
    fn unique_file_ids() {
        let dir = TempDir::new("ids");
        let ns = nameserver(&dir);
        let mut ids = std::collections::HashSet::new();
        for i in 0..100 {
            let m = ns.create(&format!("f{i}")).unwrap();
            assert!(ids.insert(m.id), "duplicate id {}", m.id);
        }
    }

    #[test]
    fn record_size_persists() {
        let dir = TempDir::new("size");
        let ns = nameserver(&dir);
        ns.create("f").unwrap();
        ns.record_size("f", 1234).unwrap();
        assert_eq!(ns.lookup("f").unwrap().size, 1234);
    }

    #[test]
    fn graceful_restart_keeps_namespace() {
        let dir = TempDir::new("restart");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        {
            let ns = Nameserver::open(
                topo.clone(),
                &dir.path().join("db"),
                NameserverConfig::default(),
            )
            .unwrap();
            ns.create("kept").unwrap();
            ns.flush().unwrap();
        }
        let ns =
            Nameserver::open(topo, &dir.path().join("db"), NameserverConfig::default()).unwrap();
        assert!(ns.lookup("kept").is_ok());
    }

    #[test]
    fn rebuild_from_dataservers_recovers_lost_namespace() {
        let dir = TempDir::new("rebuild");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let ns = Nameserver::open(
            topo.clone(),
            &dir.path().join("db"),
            NameserverConfig {
                chunk_size: 8,
                ..NameserverConfig::default()
            },
        )
        .unwrap();
        // Create a file, materialize replicas on dataservers, append.
        let meta = ns.create("recoverme").unwrap();
        let ds: Vec<Arc<Dataserver>> = meta
            .replicas
            .iter()
            .map(|h| Arc::new(Dataserver::open(*h, &dir.path().join(format!("ds-{h}"))).unwrap()))
            .collect();
        for d in &ds {
            d.create_file(&meta).unwrap();
        }
        // Primary gets the append and an updated local meta.
        ds[0].append_local(meta.id, b"payload").unwrap();

        // Simulate a nameserver crash with a stale DB: wipe and rebuild.
        let fresh = Nameserver::open(
            Arc::clone(&topo),
            &dir.path().join("db2"),
            NameserverConfig::default(),
        )
        .unwrap();
        fresh.rebuild_from_dataservers(&ds).unwrap();
        let rebuilt = fresh.lookup("recoverme").unwrap();
        assert_eq!(rebuilt.id, meta.id);
        assert_eq!(rebuilt.size, 7, "freshest replica wins");
        assert_eq!(rebuilt.replicas, meta.replicas);
    }

    #[test]
    fn rebuild_reports_the_files_with_an_unreadable_replica() {
        let dir = TempDir::new("rebuild-skipped");
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let ns = Nameserver::open(
            topo.clone(),
            &dir.path().join("db"),
            NameserverConfig::default(),
        )
        .unwrap();
        let hurt = ns.create("hurt").unwrap();
        let whole = ns.create_placed("whole", hurt.replicas.clone()).unwrap();
        let roots: Vec<_> = hurt
            .replicas
            .iter()
            .map(|h| (*h, dir.path().join(format!("ds-{h}"))))
            .collect();
        for (host, root) in &roots {
            let ds = Dataserver::open(*host, root).unwrap();
            for meta in [&hurt, &whole] {
                ds.create_file(meta).unwrap();
                ds.append_local(meta.id, b"payload").unwrap();
            }
        }
        // One of the three copies of `hurt` loses its metadata; the
        // dataservers come back as new processes.
        std::fs::write(roots[1].1.join(hurt.id.as_hex()).join("meta"), b"\0\0").unwrap();
        let ds: Vec<Arc<Dataserver>> = roots
            .iter()
            .map(|(host, root)| Arc::new(Dataserver::open(*host, root).unwrap()))
            .collect();

        let fresh =
            Nameserver::open(topo, &dir.path().join("db2"), NameserverConfig::default()).unwrap();
        assert_eq!(fresh.rebuild_from_dataservers(&ds).unwrap(), vec![hurt.id]);
        // Both files are back, from the copies that could be read.
        for name in ["hurt", "whole"] {
            assert_eq!(fresh.lookup(name).unwrap().size, 7, "{name}");
        }
    }

    #[test]
    fn create_placed_pins_replicas() {
        use mayflower_net::HostId;
        let dir = TempDir::new("placed");
        let ns = nameserver(&dir);
        let replicas = vec![HostId(7), HostId(20), HostId(41)];
        let meta = ns.create_placed("pinned", replicas.clone()).unwrap();
        assert_eq!(meta.replicas, replicas);
        assert_eq!(ns.lookup("pinned").unwrap().replicas, replicas);
        assert!(matches!(
            ns.create_placed("pinned", replicas),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            ns.create_placed("bad", vec![]),
            Err(FsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn list_prefix_acts_as_directory_listing() {
        let dir = TempDir::new("lsprefix");
        let ns = nameserver(&dir);
        for n in ["logs/a", "logs/b", "data/x", "logs2/c"] {
            ns.create(n).unwrap();
        }
        let names: Vec<String> = ns
            .list_prefix("logs/")
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, vec!["logs/a", "logs/b"]);
        assert_eq!(ns.list_prefix("nope/").len(), 0);
        assert_eq!(ns.list_prefix("").len(), 4);
    }

    #[test]
    fn self_rename_is_a_noop() {
        let dir = TempDir::new("selfrename");
        let ns = nameserver(&dir);
        let meta = ns.create("same").unwrap();
        let displaced = ns.rename("same", "same", true).unwrap();
        assert!(displaced.is_none(), "self-rename must not displace itself");
        assert_eq!(ns.lookup("same").unwrap().id, meta.id);
    }

    #[test]
    fn list_sorted_by_name() {
        let dir = TempDir::new("list");
        let ns = nameserver(&dir);
        for n in ["c", "a", "b"] {
            ns.create(n).unwrap();
        }
        let names: Vec<String> = ns.list().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
