//! The sharded-metadata scaling experiment, end to end: Zipf
//! throughput at 1/2/4/8 shards with lease-backed client caches, a
//! live shard migration over the real plane, flowserver-scheduled
//! vs. ECMP migration placement, and byte-identical determinism —
//! the acceptance gates of the metadata plane (DESIGN.md §15).
//! `ci.sh` runs this suite in release mode.

use mayflower_sim::{run_metadata_scaling, MetadataScalingConfig};
use mayflower_simcore::testutil::{SeedGuard, TempDir};

#[test]
fn sharded_plane_scales_and_scheduled_migration_protects_foreground() {
    let dir = TempDir::new("gates");
    let cfg = MetadataScalingConfig::default();
    let _seed_guard = SeedGuard::new("metadata_scaling::gates", cfg.seed);
    let r = run_metadata_scaling(&cfg, dir.path()).unwrap();

    let at = |n: u32| {
        r.points
            .iter()
            .find(|p| p.shards == n)
            .unwrap_or_else(|| panic!("sweep point for {n} shards"))
    };

    // Scaling: ≥3× throughput from 1 to 4 shards under Zipf(1.1),
    // because the lease caches absorb the head and the virtual-node
    // ring spreads the tail misses.
    assert!(
        at(4).speedup >= 3.0,
        "1→4 shard speedup {:.2} below the 3× gate",
        at(4).speedup
    );
    assert!(
        at(8).speedup > at(4).speedup,
        "adding shards must keep helping: {:.2} vs {:.2}",
        at(8).speedup,
        at(4).speedup
    );
    // The caches are doing the work: without them the Zipf head pins
    // one shard and scaling trails the cached arm.
    assert!(at(4).uncached_speedup < at(4).speedup);

    // Migration: the live plane grew by a shard, lost nothing, and
    // reclaimed every moved key's source copy.
    assert!(r.migration.keys_copied > 0);
    assert_eq!(r.migration.keys_gced, r.migration.keys_copied);
    assert_eq!(r.migration.to_epoch, r.migration.from_epoch + 1);
    assert_eq!(r.files_before, r.files_after);

    // Co-design: both arms move the identical transfer list, and the
    // flowserver-scheduled arm never slows foreground flows more than
    // blind ECMP hashing does.
    assert_eq!(r.scheduled.migration_flows, r.unscheduled.migration_flows);
    assert!(r.scheduled.migration_flows > 0);
    assert!(
        r.scheduled.fg_mean_secs <= r.unscheduled.fg_mean_secs + 1e-12,
        "scheduled fg {} vs unscheduled fg {}",
        r.scheduled.fg_mean_secs,
        r.unscheduled.fg_mean_secs
    );
}

#[test]
fn metadata_scaling_report_is_byte_identical_across_runs() {
    let one = TempDir::new("det-a");
    let two = TempDir::new("det-b");
    let cfg = MetadataScalingConfig::default();
    let a = run_metadata_scaling(&cfg, one.path()).unwrap();
    let b = run_metadata_scaling(&cfg, two.path()).unwrap();
    let a = serde_json::to_string_pretty(&a).unwrap();
    assert_eq!(a, serde_json::to_string_pretty(&b).unwrap());
    // The report carries its own config, so a diff of two JSON files
    // always shows which knobs differed.
    assert!(a.contains("\"shard_counts\""));
}
