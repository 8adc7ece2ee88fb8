//! The replication-vs-erasure-coding experiment, end to end: storage
//! overhead, degraded reads through the Flowserver's joint k-source +
//! path selection vs. ECMP, repair amplification, and byte-identical
//! determinism — the acceptance gates of the coding tier (DESIGN.md
//! §14). `ci.sh` runs this suite in release mode.

use mayflower_sim::{run_erasure, ErasureExperimentConfig};
use mayflower_simcore::testutil::{SeedGuard, TempDir};

#[test]
fn coding_tier_beats_replication_on_storage_and_ecmp_on_reads() {
    let dir = TempDir::new("arms");
    let cfg = ErasureExperimentConfig::default();
    let _seed_guard = SeedGuard::new("erasure_tier::arms", cfg.seed);
    let r = run_erasure(&cfg, dir.path()).unwrap();

    // Storage: 3× replication vs (k + m)/k plus checksum framing.
    assert!((r.replicated_storage.overhead - 3.0).abs() < 0.01);
    assert!(r.coded_storage.overhead < 2.0);
    assert!(
        r.coded_storage.overhead >= (cfg.k + cfg.m) as f64 / cfg.k as f64,
        "framing cannot shrink below the code rate: {}",
        r.coded_storage.overhead
    );

    // Degraded reads: every probe completed despite m crashed
    // fragment hosts, in both arms.
    assert_eq!(r.crashed.len(), cfg.lost_hosts);
    assert_eq!(r.mayflower_read_secs.len(), cfg.reads);
    assert_eq!(r.ecmp_read_secs.len(), cfg.reads);
    assert!(r.mayflower_read_secs.iter().all(|s| *s > 0.0));

    // The joint selection sees background load that ECMP hashes into
    // blindly. Eq. 2's impact-aware cost steers shards around the
    // elephants, so the scheduled arm never slows them more than ECMP
    // — and the read-latency premium it pays for yielding is bounded.
    assert!(
        r.mayflower_bg_mean_secs <= r.ecmp_bg_mean_secs + 1e-12,
        "mayflower bg {} vs ecmp bg {}",
        r.mayflower_bg_mean_secs,
        r.ecmp_bg_mean_secs
    );
    assert!(
        r.mayflower_mean_secs <= r.ecmp_mean_secs * 1.5,
        "mayflower read {} vs ecmp read {}",
        r.mayflower_mean_secs,
        r.ecmp_mean_secs
    );

    // Repair: re-replication moves exactly what it restores; coded
    // rebuild pays the k× amplification for the storage savings.
    assert_eq!(
        r.replica_repair.bytes_moved,
        r.replica_repair.bytes_restored
    );
    assert_eq!(
        r.coded_repair.bytes_moved,
        r.coded_repair.bytes_restored * cfg.k as u64
    );
    assert!(r.replica_repair.secs > 0.0 && r.coded_repair.secs > 0.0);
}

#[test]
fn same_seed_erasure_runs_render_byte_identical_results() {
    let a_dir = TempDir::new("det-a");
    let b_dir = TempDir::new("det-b");
    let cfg = ErasureExperimentConfig::default();
    let _seed_guard = SeedGuard::new("erasure_tier::byte_identical", cfg.seed);
    let a = run_erasure(&cfg, a_dir.path()).unwrap();
    let b = run_erasure(&cfg, b_dir.path()).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&b).unwrap(),
        "erasure run is not deterministic"
    );
    assert_eq!(a, b);
}
