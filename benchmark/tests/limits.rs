//! The 512 MiB live-data assertion, and that temporary directories go
//! away on success, on failure and on a panic.

use std::path::PathBuf;
use std::sync::Arc;

use mfbench::datadir::DataDir;
use mfbench::fsphase::FsPhases;
use mfbench::ops::{FsConfig, LIVE_BYTES_LIMIT};
use mfbench::spans::Recorder;

fn tmp(tag: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&base).unwrap();
    base
}

#[test]
fn the_shipped_configuration_fits_under_the_limit() {
    let config = FsConfig::default();
    config.validate().unwrap();
    assert!(config.live_bytes_bound() <= LIVE_BYTES_LIMIT);
}

#[test]
fn an_over_sized_configuration_is_refused_before_anything_is_written() {
    let base = tmp("limits-oversized");
    for config in [
        FsConfig {
            dataset_files: 16,
            ..FsConfig::default()
        },
        FsConfig {
            bulk_append_cap: 128 << 20,
            ..FsConfig::default()
        },
        FsConfig {
            log_cap: 32 << 20,
            ..FsConfig::default()
        },
    ] {
        assert!(config.live_bytes_bound() > LIVE_BYTES_LIMIT);
        let err = config.validate().unwrap_err();
        assert!(err.contains("live data"), "{err}");
        let dir = DataDir::create(&base, "fs").unwrap();
        let rec = Arc::new(Recorder::new());
        let refused = FsPhases::set_up(dir.path(), 1, &config, 2, &rec);
        assert!(refused.is_err_and(|e| e.contains("live data")));
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            0,
            "a refused configuration writes nothing"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sizes_that_do_not_fit_together_are_refused() {
    let config = FsConfig {
        log_prefill_bytes: 1000,
        ..FsConfig::default()
    };
    assert!(config.validate().is_err());
}

fn fill(dir: &DataDir) {
    std::fs::create_dir_all(dir.path().join("a/b")).unwrap();
    std::fs::write(dir.path().join("a/b/file"), b"bytes").unwrap();
}

#[test]
fn directories_are_removed_on_success_failure_and_panic() {
    let base = tmp("limits-datadir");

    // Success: the guard drops at the end of the scope.
    let kept = {
        let dir = DataDir::create(&base, "ok").unwrap();
        fill(&dir);
        dir.path().to_path_buf()
    };
    assert!(!kept.exists());

    // Failure: an early error return drops the guard.
    fn failing(base: &std::path::Path, seen: &mut PathBuf) -> Result<(), String> {
        let dir = DataDir::create(base, "err").map_err(|e| e.to_string())?;
        fill(&dir);
        *seen = dir.path().to_path_buf();
        Err("the run failed".into())
    }
    let mut seen = PathBuf::new();
    assert!(failing(&base, &mut seen).is_err());
    assert!(!seen.as_os_str().is_empty() && !seen.exists());

    // Panic: unwinding drops the guard.
    let seen = std::sync::Mutex::new(PathBuf::new());
    let outcome = std::panic::catch_unwind(|| {
        let dir = DataDir::create(&base, "panic").unwrap();
        fill(&dir);
        *seen.lock().unwrap() = dir.path().to_path_buf();
        panic!("the run panicked");
    });
    assert!(outcome.is_err());
    let seen = seen.lock().unwrap().clone();
    assert!(!seen.as_os_str().is_empty() && !seen.exists());

    // Two guards never share a directory.
    let (a, b) = (
        DataDir::create(&base, "same").unwrap(),
        DataDir::create(&base, "same").unwrap(),
    );
    assert_ne!(a.path(), b.path());
    drop((a, b));
    assert_eq!(std::fs::read_dir(&base).unwrap().count(), 0);
    std::fs::remove_dir_all(&base).unwrap();
}
