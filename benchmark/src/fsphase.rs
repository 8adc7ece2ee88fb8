//! The two filesystem phases, `fs_bulk` and `fs_small_ops`, against
//! one sharded on-disk cluster and one client.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::adapters::{FsClient, FsCounts, FsRig, Layout};
use crate::datadir::bytes_under;
use crate::gen::{file_key, Pattern};
use crate::ops::{BulkGen, BulkOp, FsConfig, NameState, SmallGen, SmallOp};
use crate::phase::{PhaseRun, Tally};
use crate::spans::Recorder;

/// The host the measuring client runs on.
const CLIENT_HOST: u32 = 40;
/// The host the set-up writer runs on.
const WRITER_HOST: u32 = 3;

/// Classes of the bulk phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkClass {
    /// Whole-file read of a three-way replicated file.
    Read = 0,
    /// Whole-file read of a sealed 4+2 file.
    CodedRead = 1,
    /// 1 MiB append (either target).
    Append = 2,
}

/// Classes of the small-ops phase. The last four are the metadata
/// ops, kept apart because their latencies are: pooled, the median
/// would sit on the edge between two of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallClass {
    /// 4 KiB ranged read.
    Read = 0,
    /// 4 KiB append.
    Append = 1,
    /// Create of a three-way replicated empty file.
    Create = 2,
    /// Metadata lookup that the client's cache cannot serve.
    Lookup = 3,
    /// Rename.
    Rename = 4,
    /// Delete.
    Delete = 5,
}

/// The metadata classes, in [`SmallClass`] order.
pub const META_CLASSES: [SmallClass; 4] = [
    SmallClass::Create,
    SmallClass::Lookup,
    SmallClass::Rename,
    SmallClass::Delete,
];

const FAMILY_REPLICATED: u8 = 1;
const FAMILY_CODED: u8 = 2;
const FAMILY_TARGET_REPLICATED: u8 = 3;
const FAMILY_TARGET_CODED: u8 = 4;
const FAMILY_LOG: u8 = 5;

/// A file the harness rewrites: its current generation and size.
#[derive(Debug, Clone, Copy, Default)]
struct Rolling {
    generation: u32,
    bytes: u64,
}

/// The cluster, its client and the harness's model of what is stored.
pub struct FsPhases {
    config: FsConfig,
    rig: FsRig,
    client: FsClient,
    pattern: Pattern,
    rec: Arc<Recorder>,
    bulk_gen: BulkGen,
    small_gen: SmallGen,
    targets: [Rolling; 2],
    logs: Vec<Rolling>,
    scratch: Vec<u8>,
    /// Bytes under all dataserver roots ÷ user bytes of the dataset,
    /// read once set-up is complete.
    pub stored_bytes_per_user_byte: f64,
}

fn dataset_name(coded: bool, file: u32) -> String {
    format!("data/{}{file}", if coded { 'c' } else { 'r' })
}

fn target_name(coded: bool) -> &'static str {
    if coded {
        "app/c"
    } else {
        "app/r"
    }
}

fn log_name(log: u32) -> String {
    format!("log/{log}")
}

fn name_of(rank: u32) -> String {
    format!("n/{rank:04}")
}

fn layout(coded: bool) -> Layout {
    if coded {
        Layout::Coded(4, 2)
    } else {
        Layout::Replicated(3)
    }
}

impl FsPhases {
    /// Creates the cluster under `dir` and generates the dataset: the
    /// `setup_s` share of the filesystem phases. `width` is the
    /// clients' internal fan-out width.
    ///
    /// # Errors
    ///
    /// Describes the first failure.
    pub fn set_up(
        dir: &Path,
        seed: u64,
        config: &FsConfig,
        width: usize,
        rec: &Arc<Recorder>,
    ) -> Result<FsPhases, String> {
        config.validate()?;
        let rig = FsRig::create(dir, config.chunk_bytes)?;
        let pattern = Pattern::new(seed);
        // A second client writes the dataset, so the measuring client
        // starts with an empty metadata cache.
        let mut writer = rig.client(WRITER_HOST, width, rec);
        let mut block = vec![0u8; config.chunk_bytes as usize];
        for coded in [false, true] {
            let family = if coded {
                FAMILY_CODED
            } else {
                FAMILY_REPLICATED
            };
            for file in 0..config.dataset_files {
                let name = dataset_name(coded, file);
                writer.create(&name, layout(coded))?;
                let mut offset = 0;
                while offset < config.dataset_file_bytes {
                    pattern.fill(file_key(family, file, 0), offset, &mut block);
                    offset = writer.append(&name, &block)?;
                }
            }
        }
        let stored: u64 = rig
            .dataserver_roots()
            .iter()
            .map(|r| bytes_under(r).map_err(|e| e.to_string()))
            .sum::<Result<u64, String>>()?;
        let user = u64::from(config.dataset_files) * 2 * config.dataset_file_bytes;

        for coded in [false, true] {
            writer.create(target_name(coded), layout(coded))?;
        }
        let mut prefill = vec![0u8; config.log_prefill_bytes as usize];
        for log in 0..config.logs {
            writer.create(&log_name(log), Layout::Replicated(3))?;
            pattern.fill(file_key(FAMILY_LOG, log, 0), 0, &mut prefill);
            writer.append(&log_name(log), &prefill)?;
        }
        for rank in (0..config.names).filter(|r| SmallGen::exists_after_setup(*r)) {
            writer.create(&name_of(rank), Layout::Replicated(3))?;
        }
        drop(writer);

        Ok(FsPhases {
            client: rig.client(CLIENT_HOST, width, rec),
            rig,
            pattern,
            rec: rec.clone(),
            bulk_gen: BulkGen::new(seed, config),
            small_gen: SmallGen::new(seed, config),
            targets: [Rolling::default(); 2],
            logs: vec![
                Rolling {
                    generation: 0,
                    bytes: config.log_prefill_bytes,
                };
                config.logs as usize
            ],
            scratch: Vec::new(),
            stored_bytes_per_user_byte: stored as f64 / user as f64,
            config: config.clone(),
        })
    }

    /// The cluster registry's counts.
    ///
    /// # Errors
    ///
    /// Names the counter the program no longer exports.
    pub fn counts(&self) -> Result<FsCounts, String> {
        self.rig.counts()
    }

    /// Times `op` under an op span named `span`, returning its result
    /// and its latency in seconds.
    fn timed<T>(
        &mut self,
        span: &'static str,
        op: impl FnOnce(&mut FsClient) -> Result<T, String>,
    ) -> (Result<T, String>, f64) {
        let open = self.rec.begin_op(span);
        let started = Instant::now();
        let out = op(&mut self.client);
        let seconds = started.elapsed().as_secs_f64();
        self.rec.end(open);
        (out, seconds)
    }

    fn bulk_op(&mut self, op: BulkOp) -> (BulkClass, u64, f64, Result<(), String>) {
        match op {
            BulkOp::Read { coded, file } => {
                let name = dataset_name(coded, file);
                let (class, span, family) = if coded {
                    (BulkClass::CodedRead, "client.coded_read", FAMILY_CODED)
                } else {
                    (BulkClass::Read, "client.read", FAMILY_REPLICATED)
                };
                let (out, seconds) = self.timed(span, |c| c.read(&name));
                let want = self.config.dataset_file_bytes;
                let outcome = out.and_then(|data| {
                    if self
                        .pattern
                        .matches_ends(file_key(family, file, 0), 0, &data, want)
                    {
                        Ok(())
                    } else {
                        Err(format!("{name}: read returned wrong bytes"))
                    }
                });
                (class, want, seconds, outcome)
            }
            BulkOp::Append { coded } => {
                let name = target_name(coded);
                let unit = self.config.bulk_append_bytes;
                let family = if coded {
                    FAMILY_TARGET_CODED
                } else {
                    FAMILY_TARGET_REPLICATED
                };
                let mut target = self.targets[usize::from(coded)];
                let mut outcome = Ok(());
                if target.bytes + unit > self.config.bulk_append_cap {
                    // Rotation: bounded live data. Untimed.
                    outcome = self
                        .client
                        .delete(name)
                        .and_then(|()| self.client.create(name, layout(coded)));
                    target = Rolling {
                        generation: target.generation + 1,
                        bytes: 0,
                    };
                }
                let mut data = std::mem::take(&mut self.scratch);
                data.resize(unit as usize, 0);
                self.pattern.fill(
                    file_key(family, 0, target.generation),
                    target.bytes,
                    &mut data,
                );
                let (out, seconds) = self.timed("client.bulk_append", |c| c.append(name, &data));
                self.scratch = data;
                target.bytes += unit;
                self.targets[usize::from(coded)] = target;
                let outcome = outcome.and(out).and_then(|size| {
                    if size == target.bytes {
                        Ok(())
                    } else {
                        Err(format!(
                            "{name}: append reported size {size}, want {}",
                            target.bytes
                        ))
                    }
                });
                (BulkClass::Append, unit, seconds, outcome)
            }
        }
    }

    /// Runs one bulk batch into `run`, recording spans if `traced`.
    pub fn bulk_batch(&mut self, traced: bool, run: &mut PhaseRun<3>, tally: &mut Tally) {
        let ops = self.bulk_gen.next_batch();
        self.rec.set_enabled(traced);
        run.batch(traced, |batch| {
            for op in ops {
                let (class, bytes, seconds, outcome) = self.bulk_op(op);
                tally.note(outcome);
                batch.op(class as usize, bytes, seconds);
            }
        });
        self.rec.set_enabled(false);
    }

    fn small_op(&mut self, op: SmallOp) -> (Option<SmallClass>, u64, f64, Result<(), String>) {
        let unit = self.config.small_io_bytes;
        match op {
            SmallOp::Read { log, offset } => {
                let name = log_name(log);
                let (out, seconds) =
                    self.timed("client.small_read", |c| c.read_range(&name, offset, unit));
                let key = file_key(FAMILY_LOG, log, self.logs[log as usize].generation);
                let outcome = out.and_then(|data| {
                    if data.len() as u64 == unit && self.pattern.matches(key, offset, &data) {
                        Ok(())
                    } else {
                        Err(format!("{name}: read at {offset} returned wrong bytes"))
                    }
                });
                (Some(SmallClass::Read), unit, seconds, outcome)
            }
            SmallOp::Append { log } => {
                let name = log_name(log);
                let at = self.logs[log as usize];
                let mut data = std::mem::take(&mut self.scratch);
                data.resize(unit as usize, 0);
                self.pattern.fill(
                    file_key(FAMILY_LOG, log, at.generation),
                    at.bytes,
                    &mut data,
                );
                let (out, seconds) = self.timed("client.small_append", |c| c.append(&name, &data));
                self.scratch = data;
                self.logs[log as usize].bytes += unit;
                let want = at.bytes + unit;
                let outcome = out.and_then(|size| {
                    if size == want {
                        Ok(())
                    } else {
                        Err(format!("{name}: append reported size {size}, want {want}"))
                    }
                });
                (Some(SmallClass::Append), unit, seconds, outcome)
            }
            SmallOp::Rotate { log } => {
                let name = log_name(log);
                let outcome = self
                    .client
                    .delete(&name)
                    .and_then(|()| self.client.create(&name, Layout::Replicated(3)));
                let at = &mut self.logs[log as usize];
                *at = Rolling {
                    generation: at.generation + 1,
                    bytes: 0,
                };
                (None, 0, 0.0, outcome)
            }
            SmallOp::Create { name } => {
                let name = name_of(name);
                let (out, seconds) =
                    self.timed("client.meta_op", |c| c.create(&name, Layout::Replicated(3)));
                (Some(SmallClass::Create), 0, seconds, out)
            }
            SmallOp::Lookup { name } => {
                let name = name_of(name);
                let (out, seconds) = self.timed("client.meta_op", |c| c.meta_size(&name));
                let outcome = out.and_then(|size| {
                    if size == 0 {
                        Ok(())
                    } else {
                        Err(format!("{name}: an empty file reports {size} bytes"))
                    }
                });
                (Some(SmallClass::Lookup), 0, seconds, outcome)
            }
            SmallOp::Rename { from, to } => {
                let (from, to) = (name_of(from), name_of(to));
                let (out, seconds) = self.timed("client.meta_op", |c| c.rename(&from, &to));
                (Some(SmallClass::Rename), 0, seconds, out)
            }
            SmallOp::Delete { name } => {
                let name = name_of(name);
                let (out, seconds) = self.timed("client.meta_op", |c| c.delete(&name));
                (Some(SmallClass::Delete), 0, seconds, out)
            }
        }
    }

    /// Runs one small-ops batch into `run`, recording spans if
    /// `traced`.
    pub fn small_batch(&mut self, traced: bool, run: &mut PhaseRun<6>, tally: &mut Tally) {
        let ops = self.small_gen.next_batch();
        self.rec.set_enabled(traced);
        run.batch(traced, |batch| {
            for op in ops {
                let (class, bytes, seconds, outcome) = self.small_op(op);
                tally.note(outcome);
                // A rotation is housekeeping: checked, not measured.
                if let Some(class) = class {
                    batch.op(class as usize, bytes, seconds);
                }
            }
        });
        self.rec.set_enabled(false);
    }

    fn verify_file(&mut self, name: &str, key: u64, bytes: u64, tally: &mut Tally) {
        let outcome = self.client.read(name).and_then(|data| {
            if data.len() as u64 == bytes && self.pattern.matches(key, 0, &data) {
                Ok(())
            } else {
                Err(format!(
                    "{name}: full re-read differs from the generator ({} of {bytes} bytes)",
                    data.len()
                ))
            }
        });
        tally.note(outcome);
    }

    /// The untimed pass after the run: re-reads every file and
    /// compares all bytes with the generator, and checks that exactly
    /// the names the model says exist resolve.
    pub fn verify(&mut self, tally: &mut Tally) {
        for coded in [false, true] {
            let family = if coded {
                FAMILY_CODED
            } else {
                FAMILY_REPLICATED
            };
            for file in 0..self.config.dataset_files {
                let bytes = self.config.dataset_file_bytes;
                self.verify_file(
                    &dataset_name(coded, file),
                    file_key(family, file, 0),
                    bytes,
                    tally,
                );
            }
            let family = if coded {
                FAMILY_TARGET_CODED
            } else {
                FAMILY_TARGET_REPLICATED
            };
            let at = self.targets[usize::from(coded)];
            self.verify_file(
                target_name(coded),
                file_key(family, 0, at.generation),
                at.bytes,
                tally,
            );
        }
        for log in 0..self.config.logs {
            let at = self.logs[log as usize];
            let modelled = self.small_gen.log_bytes[log as usize];
            tally.require(at.bytes == modelled, || {
                format!(
                    "log {log}: harness size {} but generator size {modelled}",
                    at.bytes
                )
            });
            self.verify_file(
                &log_name(log),
                file_key(FAMILY_LOG, log, at.generation),
                at.bytes,
                tally,
            );
        }
        for rank in 0..self.config.names {
            let exists = self.small_gen.names[rank as usize] != NameState::Absent;
            let found = self.client.meta_size(&name_of(rank)).is_ok();
            tally.note(if exists == found {
                Ok(())
            } else {
                Err(format!(
                    "name {rank}: exists={exists} but lookup found={found}"
                ))
            });
        }
    }
}
