//! Same seed ⇒ the same op list, pinned by hash; another seed ⇒
//! another list. A pinned hash changes only when a generator does, and
//! then every earlier reading of that workload stops being comparable.

use mfbench::adapters::SimRig;
use mfbench::ops::{hash_ops, BulkGen, CtlConfig, CtlGen, FsConfig, SmallGen};

const SEED: u64 = 1;

fn bulk(seed: u64) -> u64 {
    let mut gen = BulkGen::new(seed, &FsConfig::default());
    let ops: Vec<_> = (0..5).flat_map(|_| gen.next_batch()).collect();
    assert_eq!(ops.len(), 5 * 16);
    hash_ops(&ops)
}

fn small(seed: u64) -> u64 {
    let mut gen = SmallGen::new(seed, &FsConfig::default());
    let ops: Vec<_> = (0..40).flat_map(|_| gen.next_batch()).collect();
    hash_ops(&ops)
}

fn ctl(seed: u64) -> u64 {
    let mut gen = CtlGen::new(seed, &CtlConfig::default());
    let ops: Vec<_> = (0..5).flat_map(|_| gen.next_batch()).collect();
    hash_ops(&ops)
}

/// The simulator's input comes from the program's own generator
/// (`workload::TrafficMatrix`); its digest is pinned too, so a change
/// there is noticed as a change of workload, not of speed.
fn sim(seed: u64) -> u64 {
    SimRig::build(64, 300, seed).matrix_digest()
}

#[test]
fn fs_bulk_ops_are_pinned() {
    assert_eq!(bulk(SEED), bulk(SEED));
    assert_ne!(bulk(SEED), bulk(SEED + 1));
    assert_eq!(
        bulk(SEED),
        PINNED_BULK,
        "fs_bulk op list changed: {:#x}",
        bulk(SEED)
    );
}

#[test]
fn fs_small_ops_are_pinned() {
    assert_eq!(small(SEED), small(SEED));
    assert_ne!(small(SEED), small(SEED + 1));
    assert_eq!(
        small(SEED),
        PINNED_SMALL,
        "fs_small_ops op list changed: {:#x}",
        small(SEED)
    );
}

#[test]
fn ctl_rpc_ops_are_pinned() {
    assert_eq!(ctl(SEED), ctl(SEED));
    assert_ne!(ctl(SEED), ctl(SEED + 1));
    assert_eq!(
        ctl(SEED),
        PINNED_CTL,
        "ctl_rpc op list changed: {:#x}",
        ctl(SEED)
    );
}

#[test]
fn sim_replay_matrix_is_pinned() {
    assert_eq!(sim(SEED), sim(SEED));
    assert_ne!(sim(SEED), sim(SEED + 1));
    assert_eq!(
        sim(SEED),
        PINNED_SIM,
        "sim_replay matrix changed: {:#x}",
        sim(SEED)
    );
}

#[test]
fn small_ops_mix_has_the_stated_shares_and_stays_valid() {
    use mfbench::ops::{NameState, SmallOp};
    let config = FsConfig::default();
    let mut gen = SmallGen::new(SEED, &config);
    let mut exists: Vec<bool> = (0..config.names)
        .map(SmallGen::exists_after_setup)
        .collect();
    let mut sizes = vec![config.log_prefill_bytes; config.logs as usize];
    let mut counts = [0u32; 6];
    for _ in 0..200 {
        for op in gen.next_batch() {
            match op {
                SmallOp::Read { log, offset } => {
                    assert!(offset + config.small_io_bytes <= sizes[log as usize]);
                    counts[0] += 1;
                }
                SmallOp::Append { log } => {
                    sizes[log as usize] += config.small_io_bytes;
                    assert!(sizes[log as usize] <= config.log_cap);
                    counts[1] += 1;
                }
                SmallOp::Rotate { log } => sizes[log as usize] = 0,
                SmallOp::Create { name } => {
                    assert!(!std::mem::replace(&mut exists[name as usize], true));
                    counts[2] += 1;
                }
                SmallOp::Lookup { name } => {
                    assert!(exists[name as usize]);
                    counts[3] += 1;
                }
                SmallOp::Rename { from, to } => {
                    assert!(std::mem::replace(&mut exists[from as usize], false));
                    assert!(!std::mem::replace(&mut exists[to as usize], true));
                    counts[4] += 1;
                }
                SmallOp::Delete { name } => {
                    assert!(std::mem::replace(&mut exists[name as usize], false));
                    counts[5] += 1;
                }
            }
        }
    }
    // The generator's model and this replay of its ops agree.
    for (rank, e) in exists.iter().enumerate() {
        assert_eq!(*e, gen.names[rank] != NameState::Absent);
    }
    assert_eq!(sizes, gen.log_bytes);
    // 40% reads, 30% appends, 30% metadata in four equal shares.
    let total: u32 = counts.iter().sum();
    let share = |c: u32| f64::from(c) / f64::from(total);
    assert!((share(counts[0]) - 0.4).abs() < 0.02, "{counts:?}");
    assert!((share(counts[1]) - 0.3).abs() < 0.02, "{counts:?}");
    for kind in &counts[2..] {
        assert!((share(*kind) - 0.075).abs() < 0.01, "{counts:?}");
    }
}

const PINNED_BULK: u64 = 0x2e93_6606_cdfa_a976;
const PINNED_SMALL: u64 = 0xc416_273d_3aa1_9ac2;
const PINNED_CTL: u64 = 0x1dc4_29ff_12b1_53b3;
const PINNED_SIM: u64 = 0x6d37_b698_bd43_6a6a;
