//! Test scratch directories that remove themselves.
//!
//! One file, pulled in with `#[path = "…/scratch.rs"] mod scratch;` by
//! the store's and the orchestrator's tests, so no crate exports a test
//! helper.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh directory `secreta-{name}-{pid}` under the system temp dir,
/// removed with everything in it when the guard drops. Derefs to what
/// `open` made of the directory: the directory itself, a file path in
/// it, or a store rooted there.
pub struct Scratch<T> {
    root: PathBuf,
    value: T,
}

impl<T> Scratch<T> {
    /// Create the directory, emptied of any leftover, and `open` it.
    pub fn new(name: &str, open: impl FnOnce(&Path) -> T) -> Scratch<T> {
        let root = std::env::temp_dir().join(format!("secreta-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create a scratch directory");
        let value = open(&root);
        Scratch { root, value }
    }
}

impl<T> Deref for Scratch<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: AsRef<Path>> AsRef<Path> for Scratch<T> {
    fn as_ref(&self) -> &Path {
        self.value.as_ref()
    }
}

impl<T> Drop for Scratch<T> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
