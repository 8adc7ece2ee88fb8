//! Op-list generators for the `fs_*` and `ctl_rpc` phases.
//!
//! Each generator owns a model of the state its ops will leave behind
//! (file sizes, which names exist), so every op it emits is valid when
//! it runs: no workload depends on an op failing. The lists are a pure
//! function of the seed; `tests/determinism.rs` pins their hashes.

use crate::gen::{fnv64, Rng, Zipf};

/// Sizes and counts of the filesystem phases. `Default` is the
/// configuration the benchmark runs; tests build others.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Chunk size of every file.
    pub chunk_bytes: u64,
    /// Replicated dataset files, and as many 4+2 coded ones.
    pub dataset_files: u32,
    /// Size of each dataset file.
    pub dataset_file_bytes: u64,
    /// Size of one bulk append.
    pub bulk_append_bytes: u64,
    /// A bulk append target is deleted and recreated at this size.
    pub bulk_append_cap: u64,
    /// Log files of the small-ops phase.
    pub logs: u32,
    /// Bytes in each log after set-up.
    pub log_prefill_bytes: u64,
    /// A log is deleted and recreated at this size.
    pub log_cap: u64,
    /// Size of one small read or append.
    pub small_io_bytes: u64,
    /// Names in the metadata population.
    pub names: u32,
    /// Zipf exponent over the name population (the paper's skew).
    pub name_skew: f64,
    /// Ops per bulk batch: replicated reads, coded reads, appends.
    pub bulk_batch: (u32, u32, u32),
    /// Ops per small-ops batch.
    pub small_batch: u32,
}

impl Default for FsConfig {
    fn default() -> FsConfig {
        FsConfig {
            chunk_bytes: 1 << 20,
            dataset_files: 8,
            dataset_file_bytes: 8 << 20,
            bulk_append_bytes: 1 << 20,
            bulk_append_cap: 16 << 20,
            logs: 8,
            log_prefill_bytes: 64 << 10,
            log_cap: 4 << 20,
            small_io_bytes: 4 << 10,
            names: 4096,
            name_skew: 1.1,
            // The issue's 1500 : 500 : 2000.
            bulk_batch: (6, 2, 8),
            small_batch: 250,
        }
    }
}

/// Live data may not pass this: beyond ~700 MB of freshly written
/// bytes this VM faults new pages from its host and a 1 MiB append
/// goes from 1.2 ms to 13 ms.
pub const LIVE_BYTES_LIMIT: u64 = 512 << 20;

impl FsConfig {
    /// An upper bound on the bytes the dataservers hold at any moment:
    /// three replicas of everything replicated, 1.5× of sealed 4+2
    /// chunks plus three replicas of one unsealed chunk, and half a
    /// KiB of metadata per replica or fragment directory.
    #[must_use]
    pub fn live_bytes_bound(&self) -> u64 {
        let files = u64::from(self.dataset_files);
        let coded = |bytes: u64| bytes * 3 / 2 + self.chunk_bytes * 3;
        let dataset = files * (self.dataset_file_bytes * 3 + coded(self.dataset_file_bytes));
        let targets = self.bulk_append_cap * 3 + coded(self.bulk_append_cap);
        let logs = u64::from(self.logs) * self.log_cap * 3;
        let directories =
            (files + 1) * (3 + 9) + (u64::from(self.logs) + u64::from(self.names)) * 3;
        dataset + targets + logs + directories * 512
    }

    /// Refuses a configuration that could pass [`LIVE_BYTES_LIMIT`] or
    /// whose sizes do not fit together.
    ///
    /// # Errors
    ///
    /// Says which rule the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        let bound = self.live_bytes_bound();
        if bound > LIVE_BYTES_LIMIT {
            return Err(format!(
                "live data could reach {bound} bytes, over the {LIVE_BYTES_LIMIT}-byte limit"
            ));
        }
        if !self.dataset_file_bytes.is_multiple_of(self.chunk_bytes)
            || !self.bulk_append_cap.is_multiple_of(self.bulk_append_bytes)
            || !self.log_cap.is_multiple_of(self.small_io_bytes)
            || !self.log_prefill_bytes.is_multiple_of(self.small_io_bytes)
            || self.log_prefill_bytes < self.small_io_bytes
            || self.log_prefill_bytes > self.log_cap
        {
            return Err("sizes must be whole multiples of their I/O unit".into());
        }
        if self.dataset_files == 0 || self.logs < 2 || self.names < 8 {
            return Err("need at least one dataset file, two logs and eight names".into());
        }
        Ok(())
    }
}

/// One op of the bulk phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkOp {
    /// Whole-file read of dataset file `file`.
    Read {
        /// From the 4+2 coded half of the dataset.
        coded: bool,
        /// Index within its half.
        file: u32,
    },
    /// One append to the replicated or the coded target.
    Append {
        /// To the 4+2 coded target.
        coded: bool,
    },
}

/// Generates bulk batches: a seeded shuffle of the fixed per-batch
/// composition, appends alternating between the two targets.
#[derive(Debug)]
pub struct BulkGen {
    rng: Rng,
    config: FsConfig,
    appends: u64,
}

impl BulkGen {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64, config: &FsConfig) -> BulkGen {
        BulkGen {
            rng: Rng::new(seed, "fs_bulk"),
            config: config.clone(),
            appends: 0,
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<BulkOp> {
        let (reads, coded_reads, appends) = self.config.bulk_batch;
        let files = u64::from(self.config.dataset_files);
        let mut ops = Vec::new();
        for _ in 0..reads {
            ops.push(BulkOp::Read {
                coded: false,
                file: self.rng.below(files) as u32,
            });
        }
        for _ in 0..coded_reads {
            ops.push(BulkOp::Read {
                coded: true,
                file: self.rng.below(files) as u32,
            });
        }
        ops.resize(
            ops.len() + appends as usize,
            BulkOp::Append { coded: false },
        );
        self.rng.shuffle(&mut ops);
        for op in &mut ops {
            if let BulkOp::Append { coded } = op {
                *coded = !self.appends.is_multiple_of(2);
                self.appends += 1;
            }
        }
        ops
    }
}

/// One op of the small-ops phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallOp {
    /// Read one I/O unit of log `log` at `offset`.
    Read {
        /// Which log.
        log: u32,
        /// Byte offset; the unit lies wholly inside the log.
        offset: u64,
    },
    /// Append one I/O unit to log `log`.
    Append {
        /// Which log.
        log: u32,
    },
    /// Delete and recreate log `log`, which is at its cap. Untimed
    /// housekeeping, not one of the counted ops.
    Rotate {
        /// Which log.
        log: u32,
    },
    /// Create name `name`, which does not exist.
    Create {
        /// Rank in the population.
        name: u32,
    },
    /// Look up name `name`, which exists and which this client has not
    /// touched since it last left the client's cache — so the lookup
    /// cannot be served from it.
    Lookup {
        /// Rank in the population.
        name: u32,
    },
    /// Rename `from` (exists) to `to` (does not).
    Rename {
        /// Source rank.
        from: u32,
        /// Destination rank.
        to: u32,
    },
    /// Delete name `name`, which exists.
    Delete {
        /// Rank in the population.
        name: u32,
    },
}

/// What the measuring client knows about one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameState {
    /// No such file.
    Absent,
    /// Exists; not in the client's cache whatever its policy, because
    /// the client has not named it since a rename or delete last
    /// dropped it (or never has).
    Untouched,
    /// Exists and the client created or looked it up since.
    Touched,
}

/// Generates small-ops batches: 40% reads, 30% appends, 30% metadata
/// ops in equal shares of create, uncached lookup, rename and delete,
/// names drawn Zipf(1.1) and moved to the nearest rank in the state
/// the op needs.
#[derive(Debug)]
pub struct SmallGen {
    rng: Rng,
    zipf: Zipf,
    config: FsConfig,
    /// Current size of each log.
    pub log_bytes: Vec<u64>,
    /// State of each name.
    pub names: Vec<NameState>,
}

impl SmallGen {
    /// A generator for `seed`, starting from the state set-up leaves:
    /// logs at their prefill size, every fourth rank existing and
    /// untouched.
    #[must_use]
    pub fn new(seed: u64, config: &FsConfig) -> SmallGen {
        SmallGen {
            rng: Rng::new(seed, "fs_small_ops"),
            zipf: Zipf::new(config.names as usize, config.name_skew),
            config: config.clone(),
            log_bytes: vec![config.log_prefill_bytes; config.logs as usize],
            names: (0..config.names)
                .map(|r| {
                    if SmallGen::exists_after_setup(r) {
                        NameState::Untouched
                    } else {
                        NameState::Absent
                    }
                })
                .collect(),
        }
    }

    /// Whether set-up creates name `rank`: one in four, spread over
    /// the popularity range. Creating a name costs three replica
    /// directories, and set-up runs three times per run.
    #[must_use]
    pub fn exists_after_setup(rank: u32) -> bool {
        rank.is_multiple_of(4)
    }

    /// The rank nearest a Zipf draw whose state is `want`.
    fn nearest(&mut self, want: NameState) -> Option<u32> {
        let n = self.names.len();
        let start = self.zipf.sample(&mut self.rng);
        (0..n)
            .flat_map(|d| {
                [
                    start.checked_sub(d),
                    start.checked_add(d).filter(|r| *r < n),
                ]
            })
            .flatten()
            .find(|r| self.names[*r] == want)
            .map(|r| r as u32)
    }

    fn metadata_op(&mut self) -> SmallOp {
        let first = self.rng.below(4);
        // If the drawn kind has no candidate (a state ran dry), the
        // next kind is tried; some kind always has one.
        for kind in (0..4).map(|i| (first + i) % 4) {
            match kind {
                0 => {
                    if let Some(name) = self.nearest(NameState::Absent) {
                        self.names[name as usize] = NameState::Touched;
                        return SmallOp::Create { name };
                    }
                }
                1 => {
                    if let Some(name) = self.nearest(NameState::Untouched) {
                        self.names[name as usize] = NameState::Touched;
                        return SmallOp::Lookup { name };
                    }
                }
                2 => {
                    let from = self
                        .nearest(NameState::Touched)
                        .or_else(|| self.nearest(NameState::Untouched));
                    if let (Some(from), Some(to)) = (from, self.nearest(NameState::Absent)) {
                        self.names[from as usize] = NameState::Absent;
                        self.names[to as usize] = NameState::Untouched;
                        return SmallOp::Rename { from, to };
                    }
                }
                _ => {
                    let name = self
                        .nearest(NameState::Touched)
                        .or_else(|| self.nearest(NameState::Untouched));
                    if let Some(name) = name {
                        self.names[name as usize] = NameState::Absent;
                        return SmallOp::Delete { name };
                    }
                }
            }
        }
        unreachable!("a population of eight or more names always allows a create or a delete")
    }

    fn append_to(&mut self, log: u32, out: &mut Vec<SmallOp>) {
        if self.log_bytes[log as usize] + self.config.small_io_bytes > self.config.log_cap {
            self.log_bytes[log as usize] = 0;
            out.push(SmallOp::Rotate { log });
        }
        self.log_bytes[log as usize] += self.config.small_io_bytes;
        out.push(SmallOp::Append { log });
    }

    /// The next batch: `small_batch` counted ops plus any rotations.
    pub fn next_batch(&mut self) -> Vec<SmallOp> {
        let unit = self.config.small_io_bytes;
        let logs = u64::from(self.config.logs);
        let mut out = Vec::with_capacity(self.config.small_batch as usize + 4);
        for _ in 0..self.config.small_batch {
            let draw = self.rng.below(10);
            let log = self.rng.below(logs) as u32;
            if draw < 4 {
                // The nearest log (cyclically) that holds a full unit;
                // just after a rotation the drawn one may not.
                let readable = (0..self.config.logs)
                    .map(|d| (log + d) % self.config.logs)
                    .find(|l| self.log_bytes[*l as usize] >= unit);
                match readable {
                    Some(log) => {
                        let span = self.log_bytes[log as usize] - unit;
                        out.push(SmallOp::Read {
                            log,
                            offset: self.rng.below(span + 1),
                        });
                    }
                    None => self.append_to(log, &mut out),
                }
            } else if draw < 7 {
                self.append_to(log, &mut out);
            } else {
                out.push(self.metadata_op());
            }
        }
        out
    }
}

/// One iteration of the control-plane phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlOp {
    /// Rank of the file to look up (Zipf over the population).
    pub file: u32,
    /// Host asking for the selection (uniform over the tree).
    pub client: u32,
    /// Also create, size and delete a fresh name this iteration.
    pub churn: bool,
}

/// Sizes and counts of the control-plane phase.
#[derive(Debug, Clone)]
pub struct CtlConfig {
    /// Files created at set-up.
    pub files: u32,
    /// Zipf exponent over them.
    pub skew: f64,
    /// Hosts a selection can come from.
    pub hosts: u32,
    /// Read size asked of the Flowserver.
    pub read_bytes: u64,
    /// Flows kept tracked: a cookie is completed this many selections
    /// after it was issued.
    pub tracked: usize,
    /// Every `churn_every`-th iteration adds create + size + delete.
    pub churn_every: u32,
    /// Iterations per batch.
    pub batch: u32,
}

impl Default for CtlConfig {
    fn default() -> CtlConfig {
        CtlConfig {
            files: 4096,
            skew: 1.1,
            hosts: crate::adapters::PAPER_HOSTS,
            read_bytes: 8 << 20,
            tracked: 64,
            churn_every: 10,
            batch: 250,
        }
    }
}

/// Generates control-plane batches.
#[derive(Debug)]
pub struct CtlGen {
    rng: Rng,
    zipf: Zipf,
    config: CtlConfig,
    iterations: u64,
}

impl CtlGen {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64, config: &CtlConfig) -> CtlGen {
        CtlGen {
            rng: Rng::new(seed, "ctl_rpc"),
            zipf: Zipf::new(config.files as usize, config.skew),
            config: config.clone(),
            iterations: 0,
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<CtlOp> {
        (0..self.config.batch)
            .map(|_| {
                self.iterations += 1;
                CtlOp {
                    file: self.zipf.sample(&mut self.rng) as u32,
                    client: self.rng.below(u64::from(self.config.hosts)) as u32,
                    churn: self
                        .iterations
                        .is_multiple_of(u64::from(self.config.churn_every)),
                }
            })
            .collect()
    }
}

/// A hash of a list of ops, through their `Debug` form.
#[must_use]
pub fn hash_ops<T: std::fmt::Debug>(ops: &[T]) -> u64 {
    fnv64(format!("{ops:?}").as_bytes())
}
