//! Crash-safe file replacement.
//!
//! The segment store's manifest — the one commit point of every durable
//! artifact in this workspace — is published this way: write the new
//! content to a sibling temp file, fsync it, rename it over the target,
//! then fsync the directory so the rename itself survives a power cut.
//! A reader therefore sees either the old file or the new one, never a
//! torn hybrid, and a crash at any instant leaves at most a stray
//! `.tmp` sibling behind.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Atomically replace `path` with `bytes`.
///
/// The temp file is `path` with `.tmp` appended, so concurrent writers
/// to *different* targets never collide. Callers that need multi-file
/// atomicity must funnel through a single manifest written with this
/// helper and treat everything it does not reference as garbage.
///
/// # Errors
/// Any I/O error from the write, fsync, or rename; the target is left
/// untouched in that case.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// The temp-sibling path `write_file_atomic` stages through, exposed so
/// recovery scans can recognize and discard a stray staging file.
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsync the parent directory of `path` so a just-completed rename is
/// durable. A missing parent (relative path with no directory part)
/// falls back to `.`; platforms that refuse directory fsyncs are
/// tolerated because the rename is already atomic for crash-consistency
/// against process death, which is what the fault drills simulate.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| Path::new("."));
    match File::open(dir) {
        Ok(handle) => match handle.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dox_fault_atomic_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn replaces_content_atomically_and_cleans_tmp() {
        let dir = scratch("replace");
        let target = dir.join("state.json");
        write_file_atomic(&target, b"one").expect("first write");
        assert_eq!(fs::read(&target).expect("read"), b"one");
        write_file_atomic(&target, b"two").expect("second write");
        assert_eq!(fs::read(&target).expect("read"), b"two");
        assert!(!tmp_sibling(&target).exists(), "tmp sibling is consumed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_sibling_is_a_distinct_sibling() {
        let p = Path::new("/a/b/manifest.json");
        let t = tmp_sibling(p);
        assert_eq!(t.parent(), p.parent());
        assert_eq!(
            t.file_name().and_then(|n| n.to_str()),
            Some("manifest.json.tmp")
        );
    }
}
