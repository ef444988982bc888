//! Temporary store directories that remove themselves.
//!
//! A store opened on a throwaway directory (a `Session::new`, a test, an
//! example) should not outlive its owner on disk. [`TempDir`] names a
//! fresh directory under [`std::env::temp_dir`] and removes it, with
//! everything the stores wrote into it, when it drops.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory `dbpl-<label>-<pid>-<n>` under the system
/// temp directory, removed (best effort) when dropped. Derefs to its
/// [`Path`].
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create the directory. `label` only makes the name readable; the
    /// process id and a per-process counter make it unique.
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("dbpl-{label}-{}-{n}", std::process::id()));
        // A directory of that name can only be left by a killed process
        // that had the same id: it holds nothing of ours.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // A leftover temp directory is not worth failing a drop over.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_directory_lives_exactly_as_long_as_the_guard() {
        let dir = TempDir::new("tempdir-test").unwrap();
        let a = TempDir::new("tempdir-test").unwrap();
        assert_ne!(dir.path(), a.path(), "every guard gets its own directory");
        std::fs::write(dir.join("unit"), b"x").unwrap();
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists(), "dropping the guard removes the directory");
    }
}
