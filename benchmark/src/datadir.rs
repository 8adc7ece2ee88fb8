//! Where a run keeps its files, and the guarantee that none outlive it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory that is removed when the guard drops — on success, on
/// an error return and on a panic (unwinding runs `Drop`).
#[derive(Debug)]
pub struct DataDir {
    path: PathBuf,
}

static NEXT: AtomicU64 = AtomicU64::new(0);

impl DataDir {
    /// Creates a fresh, empty directory under `base`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn create(base: &Path, tag: &str) -> std::io::Result<DataDir> {
        let path = base.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is reported by the
        // caller's own check, not here.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when the command is run from the root of a checkout,
/// else the directory the package was built in.
#[must_use]
pub fn benchmark_dir() -> PathBuf {
    let from_cwd = PathBuf::from("benchmark");
    if from_cwd.join("Cargo.toml").is_file() {
        from_cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The filesystem type `path` lives on (`tmpfs`, `ext4`, ...), from
/// the longest matching mount point; `unknown` where `/proc/mounts`
/// is not readable.
#[must_use]
pub fn kind_of(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t.to_string())
}

/// Total size of the regular files under `root`.
///
/// # Errors
///
/// Returns the I/O error.
pub fn bytes_under(root: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let md = entry.metadata()?;
        if md.is_dir() {
            total += bytes_under(&entry.path())?;
        } else {
            total += md.len();
        }
    }
    Ok(total)
}
