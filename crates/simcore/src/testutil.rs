//! Shared test support: seed reporting for reproducible failures, and
//! a scratch directory that cleans up after itself.
//!
//! Every stochastic suite in the workspace draws from [`crate::
//! SimRng`] seeds, but a failing `#[test]` or proptest case that never
//! *prints* its seed is unreproducible — the one piece of state needed
//! to replay the failure dies with the process output. The guard here
//! closes that gap: hold one for the duration of a seeded test body
//! and the seed is printed if — and only if — the body panics.
//!
//! ```should_panic
//! use mayflower_simcore::testutil::SeedGuard;
//!
//! let seed = 42u64;
//! let _guard = SeedGuard::new("my_suite::my_case", seed);
//! // ... seeded test body; on panic the seed is printed to stderr:
//! // [seed] my_suite::my_case failed with seed=42 — rerun with this
//! // seed to reproduce
//! panic!("boom");
//! ```

use std::path::{Path, PathBuf};

/// Prints a test's seed to stderr when dropped during a panic, so
/// every stochastic failure states how to reproduce itself.
///
/// The guard is silent on the success path; it costs one branch at
/// drop time.
#[derive(Debug)]
pub struct SeedGuard {
    label: String,
    seed: u64,
}

impl SeedGuard {
    /// Arms a guard for the test named `label` running with `seed`.
    #[must_use]
    pub fn new(label: &str, seed: u64) -> SeedGuard {
        SeedGuard {
            label: label.to_string(),
            seed,
        }
    }

    /// The seed under guard.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "[seed] {} failed with seed={} — rerun with this seed to reproduce",
                self.label, self.seed
            );
        }
    }
}

/// A test's scratch directory under the system temp dir, removed on
/// drop.
///
/// The name joins the test's tag with the process id and the thread
/// id, so tests running in parallel, in one binary or several, never
/// share a directory. A leftover from an earlier run of the same test
/// is removed first; the directory itself is not created, so the code
/// under test meets a fresh path.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh path for the test tagged `tag`.
    #[must_use]
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "mayflower-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_on_success() {
        let g = SeedGuard::new("ok", 7);
        assert_eq!(g.seed(), 7);
        drop(g); // must not print (nothing to assert; no panic is the test)
    }

    #[test]
    fn reports_on_panic() {
        // The panic propagates out of the closure after the guard has
        // fired; we only verify the guard does not itself panic or
        // abort while the thread is unwinding.
        let result = std::panic::catch_unwind(|| {
            let _g = SeedGuard::new("boom", 99);
            panic!("expected");
        });
        assert!(result.is_err());
    }
}
