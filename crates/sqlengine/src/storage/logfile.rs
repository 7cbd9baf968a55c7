//! The two ways durable bytes reach a directory: an append-only log
//! file ([`LogFile`], under the WAL and the session journal) and a
//! whole-file atomic replace ([`atomic_replace`], under the snapshot,
//! the journal rewrite and the CLI checkpoint).
//!
//! A log is a magic prefix followed by [`codec`](super::codec) records.
//! Its owner reads the image ([`read_or_empty`]), walks it
//! ([`walk_records`](super::codec::walk_records)) and opens the file at
//! the length the walk accepted; appends are plain writes and
//! [`LogFile::sync`] is the acknowledgement point.

use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::error::{Error, Result};

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::io(format!("{what} {}", path.display()), e)
}

/// Read a whole file; a missing file reads as empty (nothing was ever
/// acknowledged in it).
pub fn read_or_empty(path: &Path) -> Result<Vec<u8>> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err("read", path, e)),
    }
}

/// An open append-only log file: append, sync, truncate.
#[derive(Debug)]
pub struct LogFile {
    file: fs::File,
    path: PathBuf,
    magic: &'static [u8],
    len: u64,
}

impl LogFile {
    /// Open (or create) the log at `path`, truncating it to `valid_len`
    /// as determined by the caller's walk over its image. A `valid_len`
    /// short of the magic means a fresh or fully-torn file: it is
    /// (re)initialised with the magic and synced, directory included.
    /// Otherwise the file must start with `magic`.
    pub fn open(path: &Path, magic: &'static [u8], valid_len: u64) -> Result<Self> {
        let io = |what: &str, e| io_err(what, path, e);
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io("open", e))?;
        let len = if valid_len < magic.len() as u64 {
            file.set_len(0).map_err(|e| io("truncate", e))?;
            file.write_all(magic).map_err(|e| io("write magic to", e))?;
            file.sync_all().map_err(|e| io("sync", e))?;
            sync_dir(path.parent().unwrap_or(Path::new(".")))?;
            magic.len() as u64
        } else {
            let mut prefix = vec![0u8; magic.len()];
            if file.read_exact(&mut prefix).is_err() || prefix != magic {
                return Err(Error::corruption(format!("{}: bad magic", path.display())));
            }
            file.set_len(valid_len).map_err(|e| io("truncate", e))?;
            file.sync_all().map_err(|e| io("sync", e))?;
            valid_len
        };
        file.seek(SeekFrom::End(0)).map_err(|e| io("seek", e))?;
        Ok(LogFile {
            file,
            path: path.to_path_buf(),
            magic,
            len,
        })
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records (magic only).
    pub fn is_empty(&self) -> bool {
        self.len <= self.magic.len() as u64
    }

    /// Append raw record bytes; returns the byte offset the run started
    /// at (used by crash simulation to compute tear points).
    pub fn append(&mut self, bytes: &[u8]) -> Result<u64> {
        let start = self.len;
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("append to", &self.path, e))?;
        self.len += bytes.len() as u64;
        Ok(start)
    }

    /// Truncate the file to `len` bytes (crash simulation: tear a
    /// partially-appended frame at an exact byte boundary).
    pub fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.file
            .set_len(len)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.len = len;
        Ok(())
    }

    /// fsync the log — the acknowledgement point of the protocol.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| io_err("sync", &self.path, e))
    }

    /// Reset the log to empty: truncate to the magic and sync. What it
    /// held now lives elsewhere (the snapshot, after a compaction).
    pub fn reset(&mut self) -> Result<()> {
        self.truncate_to(self.magic.len() as u64)?;
        self.sync()
    }
}

/// Where `dir/name` is staged while [`atomic_replace`] writes it.
fn staging_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.tmp"))
}

/// Replace `dir/name` with `bytes` atomically: stage to `name.tmp`,
/// fsync, rename over the target, then fsync the directory so the
/// rename itself is durable. Readers see the old complete file or the
/// new complete file, never a partial one.
pub fn atomic_replace(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let tmp = staging_path(dir, name);
    let io = |what: &str, e| io_err(what, &tmp, e);
    let mut f = fs::File::create(&tmp).map_err(|e| io("create", e))?;
    f.write_all(bytes).map_err(|e| io("write", e))?;
    f.sync_all().map_err(|e| io("sync", e))?;
    drop(f);
    fs::rename(&tmp, dir.join(name)).map_err(|e| io("rename", e))?;
    sync_dir(dir)
}

/// Remove what an interrupted [`atomic_replace`] of `dir/name` left
/// behind (it was never acknowledged).
pub fn remove_stale_staging(dir: &Path, name: &str) -> Result<()> {
    let tmp = staging_path(dir, name);
    match fs::remove_file(&tmp) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err("remove stale", &tmp, e)),
        _ => Ok(()),
    }
}

/// fsync a directory so a rename/create within it is durable.
fn sync_dir(dir: &Path) -> Result<()> {
    // Directory fsync is a POSIX-ism; on platforms where opening a
    // directory fails, the rename is still atomic and we proceed.
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().map_err(|e| io_err("sync directory", dir, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_commit, encode_frame, scan, wal_path, WalOp, WAL_MAGIC};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlem_logfile_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sql(s: &str) -> WalOp {
        WalOp::Sql(s.to_string())
    }

    #[test]
    fn wal_file_append_truncate_cycle() {
        let dir = tempdir("cycle");
        // Fresh log.
        let mut wal = LogFile::open(&wal_path(&dir), WAL_MAGIC, 0).unwrap();
        assert!(wal.is_empty());
        let frame = encode_frame(0, &sql("CREATE TABLE t (a BIGINT)"));
        let start = wal.append(&frame).unwrap();
        assert_eq!(start, WAL_MAGIC.len() as u64);
        wal.append(&encode_commit(0)).unwrap();
        wal.sync().unwrap();
        // Tear a second frame mid-way.
        let frame2 = encode_frame(1, &sql("DROP TABLE t"));
        let start2 = wal.append(&frame2).unwrap();
        wal.truncate_to(start2 + 3).unwrap();
        drop(wal);
        // Recovery: frame 0 survives, the torn frame 1 is discarded.
        let bytes = fs::read(wal_path(&dir)).unwrap();
        let r = scan(&bytes).unwrap();
        assert_eq!(r.committed.len(), 1);
        assert_eq!(r.valid_len as u64, start2);
        // Reopen at the valid length: the torn bytes are gone.
        let wal = LogFile::open(&wal_path(&dir), WAL_MAGIC, r.valid_len as u64).unwrap();
        assert_eq!(wal.len(), start2);
        assert_eq!(fs::read(wal_path(&dir)).unwrap().len() as u64, start2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_a_file_of_another_kind() {
        let dir = tempdir("magic");
        let path = dir.join("other.log");
        fs::write(&path, b"NOT THE MAGIC, but long enough").unwrap();
        assert!(matches!(
            LogFile::open(&path, WAL_MAGIC, 20),
            Err(Error::Corruption { .. })
        ));
        assert_eq!(fs::read(&path).unwrap().len(), 30, "left untouched");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_replace_swaps_whole_files_and_cleans_its_staging() {
        let dir = tempdir("replace");
        atomic_replace(&dir, "state.bin", b"first").unwrap();
        atomic_replace(&dir, "state.bin", b"second, longer").unwrap();
        assert_eq!(fs::read(dir.join("state.bin")).unwrap(), b"second, longer");
        assert!(!staging_path(&dir, "state.bin").exists());
        // A kill mid-replace leaves the staging file and the old target.
        fs::write(staging_path(&dir, "state.bin"), b"torn").unwrap();
        remove_stale_staging(&dir, "state.bin").unwrap();
        remove_stale_staging(&dir, "state.bin").unwrap(); // absent is fine
        assert!(!staging_path(&dir, "state.bin").exists());
        assert_eq!(fs::read(dir.join("state.bin")).unwrap(), b"second, longer");
        fs::remove_dir_all(&dir).ok();
    }
}
