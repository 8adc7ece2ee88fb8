//! The recovery chaos experiment, end to end: permanent dataserver
//! kills from the PR 1 fault schedule, recovery on vs. off, and
//! byte-identical determinism — the acceptance gates of the recovery
//! subsystem. `ci.sh` runs this suite in release mode.

use mayflower_sim::{run_recovery_chaos, RecoveryExperimentConfig};
use mayflower_simcore::testutil::{SeedGuard, TempDir};

#[test]
fn recovery_restores_full_replication_where_disabled_runs_stay_degraded() {
    let on_dir = TempDir::new("arm-on");
    let off_dir = TempDir::new("arm-off");
    let cfg = RecoveryExperimentConfig::default();
    let _seed_guard = SeedGuard::new("recovery_chaos::on_vs_off", cfg.seed);
    let on = run_recovery_chaos(&cfg, on_dir.path()).unwrap();
    let off = run_recovery_chaos(
        &RecoveryExperimentConfig {
            recovery_enabled: false,
            ..cfg.clone()
        },
        off_dir.path(),
    )
    .unwrap();

    // Same seed, same kills in both arms.
    assert_eq!(on.killed, off.killed);
    assert!(!on.killed.is_empty());

    // The enabled arm heals: full replication reached within the
    // horizon, backlog drained, every copy back on a live host.
    assert!(
        on.time_to_full_replication.is_some(),
        "recovery never converged: {:?}",
        on.health.last()
    );
    assert_eq!(on.final_under_replicated, 0);
    let last_on = on.health.last().unwrap();
    assert_eq!(last_on.fully_replicated, cfg.files);
    assert!((last_on.replica_capacity - 1.0).abs() < 1e-9);
    assert!(!on.report.completed.is_empty());

    // The disabled arm never does: capacity stays degraded for the
    // whole horizon and nothing was ever planned.
    assert!(off.time_to_full_replication.is_none());
    assert!(off.final_under_replicated > 0);
    let last_off = off.health.last().unwrap();
    assert!(last_off.replica_capacity < 1.0);
    assert!(off.report.planned.is_empty());
    assert!(off.report.completed.is_empty());

    // Both arms confirm the same deaths.
    for r in [&on.report, &off.report] {
        for k in &on.killed {
            assert!(
                r.transitions
                    .iter()
                    .any(|t| t.host == *k && t.to == mayflower_recovery::HealthState::Dead),
                "kill of {k} never confirmed"
            );
        }
    }

    // Degraded reads keep succeeding in both arms (rack-aware
    // placement leaves a live replica with kills < replication).
    for sample in on.health.iter().chain(off.health.iter()) {
        assert_eq!(sample.readable, cfg.files, "read outage at {:?}", sample.at);
    }

    // With recovery on, the healed arm strictly dominates the
    // disabled arm's replica capacity at the end of the run.
    assert!(last_on.replica_capacity > last_off.replica_capacity);
}

#[test]
fn same_seed_chaos_runs_render_byte_identical_results() {
    let a_dir = TempDir::new("det-a");
    let b_dir = TempDir::new("det-b");
    let cfg = RecoveryExperimentConfig::default();
    let _seed_guard = SeedGuard::new("recovery_chaos::byte_identical", cfg.seed);
    let a = run_recovery_chaos(&cfg, a_dir.path()).unwrap();
    let b = run_recovery_chaos(&cfg, b_dir.path()).unwrap();
    assert_eq!(a.to_json(), b.to_json(), "chaos run is not deterministic");
    assert_eq!(a, b);
}
