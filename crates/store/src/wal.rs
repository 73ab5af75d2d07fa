//! The append-only write-ahead log file (`<store>/wal.log`).
//!
//! A [`Wal`] hands out strictly increasing LSNs and appends one frame per
//! record. Durability of each append is governed by the store's fsync
//! policy (`CX_FSYNC=always` syncs every frame; the default leaves
//! flushing to the OS, which is the usual trade for a reproduction-grade
//! store and exactly what the kill-replay harness exercises: any torn
//! tail must recover to a clean prefix).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::frame::encode_frame;
use crate::record::Record;

/// Append handle over the WAL file.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// LSN of the last frame written (or recovered).
    lsn: u64,
    /// Current file length in bytes.
    bytes: u64,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path` for appending.
    /// `lsn` seeds the sequence — pass the last LSN observed by recovery.
    /// `clean_len` is the length of the validated prefix; anything beyond
    /// it is a torn tail and is physically truncated here so stale bytes
    /// can never be mistaken for frames after future appends.
    pub fn open(path: &Path, lsn: u64, clean_len: u64) -> Result<Wal, StoreError> {
        let file = OpenOptions::new().create(true).append(true).read(true).open(path)?;
        let actual = file.metadata()?.len();
        if actual > clean_len {
            file.set_len(clean_len)?;
            file.sync_all()?;
        }
        Ok(Wal { file, path: path.to_path_buf(), lsn, bytes: clean_len.min(actual) })
    }

    /// Appends one record, returning its LSN. Syncs iff `fsync`.
    pub fn append(&mut self, record: &Record, fsync: bool) -> Result<u64, StoreError> {
        let lsn = self.lsn + 1;
        let frame = encode_frame(lsn, &record.encode());
        self.file.write_all(&frame)?;
        if fsync {
            self.file.sync_data()?;
        }
        self.lsn = lsn;
        self.bytes += frame.len() as u64;
        Ok(lsn)
    }

    /// LSN of the most recent frame.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Truncates the log to empty after a compaction folded it into
    /// snapshots. The LSN sequence continues — it never resets, so frames
    /// from before the truncation can never be confused with new ones.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.bytes = 0;
        Ok(())
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::scan;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cxwal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_scan_roundtrip_and_truncate() {
        let path = tmp("roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        assert_eq!(wal.append(&Record::Remove { name: "a".into(), generation: 1 }, false).unwrap(), 1);
        assert_eq!(wal.append(&Record::SetDefault { default: None }, true).unwrap(), 2);
        assert_eq!(wal.lsn(), 2);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, wal.bytes());
        let out = scan(&bytes, 0);
        assert!(out.tail.is_none());
        assert_eq!(out.frames.len(), 2);
        assert!(matches!(Record::decode(out.frames[0].record).unwrap(), Record::Remove { .. }));

        wal.truncate().unwrap();
        assert_eq!(wal.bytes(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // LSN keeps counting after truncation.
        assert_eq!(wal.append(&Record::SetDefault { default: None }, false).unwrap(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail() {
        let path = tmp("torn.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, 0, 0).unwrap();
            wal.append(&Record::Remove { name: "g".into(), generation: 1 }, true).unwrap();
        }
        let clean = std::fs::metadata(&path).unwrap().len();
        // Simulate a torn append.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        }
        let wal = Wal::open(&path, 1, clean).unwrap();
        assert_eq!(wal.bytes(), clean);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean);
        std::fs::remove_file(&path).unwrap();
    }
}
