//! The store manifest: the single source of truth for which snapshot
//! files are live, how far the WAL has been folded into them, and every
//! graph's generation counter.
//!
//! `<store>/MANIFEST` is a sealed file (see [`crate::sealed`]) with magic
//! `CXMF` and [`MANIFEST_VERSION`] as its word — the only version read:
//! any other, older or newer, is a typed
//! [`StoreError::UnsupportedVersion`]:
//!
//! ```text
//! body = [wal_lsn: u64] [default?] [counters] [entries]
//! ```
//!
//! The manifest is replaced atomically (write to `MANIFEST.tmp`, fsync,
//! rename), so a crash during compaction leaves either the old or the new
//! manifest — never a torn one. An entry with `file: None` is a
//! tombstone: the graph was removed at `generation` and must not be
//! resurrected by older snapshot files or WAL records.

use std::path::Path;

use cx_graph::codec::{ByteReader, ByteWriter};

use crate::error::StoreError;
use crate::record::{get_name, put_name};
use crate::sealed::{unseal, write_sealed};

const MAGIC: &[u8; 4] = b"CXMF";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// One graph's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Registry name.
    pub name: String,
    /// Generation the entry describes (checkpoint generation, or the
    /// generation the removal claimed for a tombstone).
    pub generation: u64,
    /// Snapshot filename under `snapshots/`, or `None` for a tombstone.
    pub file: Option<String>,
}

/// The decoded manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Every WAL record with `lsn <= wal_lsn` is already reflected in the
    /// snapshot set; replay ignores the log up to here.
    pub wal_lsn: u64,
    /// Default graph at checkpoint time.
    pub default_graph: Option<String>,
    /// Per-name generation counters for every name ever seen — counters
    /// survive remove/re-add so generations never move backwards.
    pub counters: Vec<(String, u64)>,
    /// Live snapshots and tombstones.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Encodes the body the MANIFEST file seals.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w.u64(self.wal_lsn);
        put_name(&mut w, self.default_graph.as_deref());
        w.u32(self.counters.len() as u32);
        for (name, counter) in &self.counters {
            w.str(name);
            w.u64(*counter);
        }
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.str(&e.name);
            w.u64(e.generation);
            put_name(&mut w, e.file.as_deref());
        }
        w
    }

    /// Decodes a body written by [`Manifest::encode`].
    pub fn decode(body: &[u8]) -> Result<Manifest, StoreError> {
        let mut r = ByteReader::new(body);
        let wal_lsn = r.u64()?;
        let default_graph = get_name(&mut r, "default")?;
        let n_counters = r.u32()? as usize;
        // A counter is at least a name length and a u64.
        r.claim(n_counters, 12, "counter")?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            counters.push((r.str()?.to_owned(), r.u64()?));
        }
        let n_entries = r.u32()? as usize;
        // An entry is at least a name length, a u64 and a presence byte.
        r.claim(n_entries, 13, "entry")?;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let name = r.str()?.to_owned();
            let generation = r.u64()?;
            let file = get_name(&mut r, "file")?;
            entries.push(ManifestEntry { name, generation, file });
        }
        r.finish("manifest payload")?;
        Ok(Manifest { wal_lsn, default_graph, counters, entries })
    }

    /// Loads the manifest at `path`; a missing file yields the empty
    /// manifest (fresh store).
    pub fn load(path: &Path) -> Result<Manifest, StoreError> {
        match std::fs::read(path) {
            Ok(bytes) => Manifest::decode(unseal(&bytes, MAGIC, MANIFEST_VERSION)?.0),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Manifest::default()),
            Err(e) => Err(e.into()),
        }
    }

    /// Atomically replaces the manifest at `path` (tmp + fsync + rename).
    pub fn store(&self, path: &Path) -> Result<(), StoreError> {
        write_sealed(path, MAGIC, MANIFEST_VERSION, &self.encode()).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::seal;

    /// The MANIFEST file `m` makes, sealed with `version`.
    fn sealed(m: &Manifest, version: u32) -> Vec<u8> {
        let body = m.encode();
        let (mut file, _) = seal(MAGIC, version, &body);
        file.extend_from_slice(&body);
        file
    }

    fn open(bytes: &[u8]) -> Result<Manifest, StoreError> {
        Manifest::decode(unseal(bytes, MAGIC, MANIFEST_VERSION)?.0)
    }

    fn sample() -> Manifest {
        Manifest {
            wal_lsn: 99,
            default_graph: Some("main".into()),
            counters: vec![("main".into(), 12), ("gone".into(), 4)],
            entries: vec![
                ManifestEntry {
                    name: "main".into(),
                    generation: 12,
                    file: Some("6d61696e-12.cxs".into()),
                },
                ManifestEntry { name: "gone".into(), generation: 4, file: None },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn load_store_atomic_cycle() {
        let dir = std::env::temp_dir().join(format!("cxmf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        // Missing file is an empty manifest.
        assert_eq!(Manifest::load(&path).unwrap(), Manifest::default());
        let m = sample();
        m.store(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        // No stray tmp left behind.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_and_future_version_rejected() {
        let bytes = sealed(&sample(), MANIFEST_VERSION);
        assert_eq!(open(&bytes).unwrap(), sample());
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(open(&bad).is_err());
        // Version 0 was never written: it is no more readable than a
        // version from the future.
        for version in [0, MANIFEST_VERSION + 7] {
            match open(&sealed(&sample(), version)) {
                Err(StoreError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (version, MANIFEST_VERSION))
                }
                other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
        for cut in 0..bytes.len() {
            assert!(open(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
