//! The durable store: directory layout, boot-time recovery, appends and
//! compaction.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/MANIFEST        atomic snapshot-set descriptor (see manifest.rs)
//! <dir>/wal.log         append-only frame log (see frame.rs / wal.rs)
//! <dir>/snapshots/*.cxs one checkpoint file per (graph, generation)
//! <dir>/snapshots/*.cxi that checkpoint's index sidecar (see snapshot.rs)
//! ```
//!
//! ## Recovery invariant
//!
//! Boot loads the manifest's live snapshots, then replays the WAL. A
//! per-graph record is applied iff its generation is strictly newer than
//! the generation recovery has already established for that name; the
//! manifest's generation *counters* (which survive removal) seed that
//! check, so a `Remove` followed by a re-`AddGraph` of the same name can
//! never be shadowed by stale on-disk state — the re-add carries a higher
//! generation than everything before it. A torn WAL tail (short frame,
//! bad checksum, non-monotone LSN) ends replay at the last clean frame
//! and is physically truncated, which is exactly the crash semantics the
//! kill-replay harness checks: recovery lands on a prefix of committed
//! generations, never on an invented state.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cx_graph::{AttributedGraph, VertexId};

use crate::error::StoreError;
use crate::frame;
use crate::manifest::{Manifest, ManifestEntry};
use crate::record::{Record, StoredProfile};
use crate::snapshot::{
    index_file_name, read_index, snapshot_file_name, write_index, GraphCheckpoint,
};
use crate::wal::Wal;

/// Name of the WAL file inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// Name of the manifest file inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Name of the snapshots subdirectory.
pub const SNAPSHOTS_DIR: &str = "snapshots";

/// One graph as reconstructed by recovery.
#[derive(Debug, Clone)]
pub struct RecoveredGraph {
    /// Graph contents at the recovered generation.
    pub graph: Arc<AttributedGraph>,
    /// The generation recovery landed on for this graph.
    pub generation: u64,
    /// Merged profiles at that generation.
    pub profiles: Vec<StoredProfile>,
    /// The index a compaction stored beside this graph's checkpoint, as
    /// the opaque bytes it was given — present only while `graph` is
    /// still exactly the checkpointed one (no `AddGraph` or `Edit` was
    /// replayed over it) and the sidecar file was whole and bound to
    /// that checkpoint. `None` means build the index from `graph`.
    pub index: Option<Vec<u8>>,
}

/// Where each vertex's row sits in a recovered graph's `profiles`, built
/// the first time replay merges into that graph, so a `SetProfiles`
/// record costs its own length rather than a scan per profile.
type ProfileRows = HashMap<String, HashMap<VertexId, usize>>;

/// Where and why the WAL stopped being readable.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// Byte offset of the first unreadable frame.
    pub offset: u64,
    /// Human-readable reason (checksum mismatch, short frame, ...).
    pub reason: String,
}

/// Everything recovery reconstructed from disk.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Live graphs by registry name.
    pub graphs: BTreeMap<String, RecoveredGraph>,
    /// Default graph (mirrors engine semantics across adds/removes).
    pub default_graph: Option<String>,
    /// Generation counters for every name ever seen — including removed
    /// graphs, so re-adds continue the sequence instead of restarting it.
    pub generations: BTreeMap<String, u64>,
    /// Present when the WAL had a torn tail that was truncated.
    pub torn_tail: Option<TornTail>,
    /// Clean WAL frames applied during replay.
    pub frames_replayed: usize,
}

/// Statistics returned by [`Store::compact`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionStats {
    /// Checkpoint files written.
    pub snapshots_written: usize,
    /// WAL bytes folded away by the truncation.
    pub wal_bytes_folded: u64,
    /// Superseded checkpoint files deleted.
    pub stale_files_removed: usize,
}

struct Inner {
    wal: Wal,
    /// The body checksum of every checkpoint the committed manifest
    /// references, by file name.
    checkpoints: HashMap<String, u32>,
}

/// Handle over one durable store directory. Cheap to share behind an
/// `Arc`; appends serialize on an internal lock.
pub struct Store {
    dir: PathBuf,
    fsync: bool,
    inner: Mutex<Inner>,
}

fn fsync_policy_from_env() -> bool {
    matches!(
        std::env::var("CX_FSYNC").as_deref(),
        Ok("always") | Ok("1") | Ok("on") | Ok("true")
    )
}

impl Store {
    /// Opens the store at `dir` (creating it if absent), runs recovery,
    /// and returns the handle plus the reconstructed state. The fsync
    /// policy is read from `CX_FSYNC` (`always`/`1`/`on` → sync every
    /// append).
    pub fn open(dir: &Path) -> Result<(Store, RecoveredState), StoreError> {
        Store::open_with_fsync(dir, fsync_policy_from_env())
    }

    /// [`Store::open`] with an explicit fsync policy (tests).
    pub fn open_with_fsync(dir: &Path, fsync: bool) -> Result<(Store, RecoveredState), StoreError> {
        let t0 = Instant::now();
        std::fs::create_dir_all(dir.join(SNAPSHOTS_DIR))?;
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE))?;

        let mut state = RecoveredState {
            default_graph: manifest.default_graph.clone(),
            ..RecoveredState::default()
        };
        for (name, counter) in &manifest.counters {
            state.generations.insert(name.clone(), *counter);
        }

        // Load live checkpoints; tombstones only contribute their counter
        // (already folded in above, but older manifests may lack an
        // explicit counter — keep the max).
        let mut checkpoints = HashMap::new();
        for entry in &manifest.entries {
            let gen_slot = state.generations.entry(entry.name.clone()).or_insert(0);
            *gen_slot = (*gen_slot).max(entry.generation);
            if let Some(file) = &entry.file {
                let path = dir.join(SNAPSHOTS_DIR).join(file);
                let bytes = std::fs::read(&path).map_err(|e| {
                    StoreError::Corrupt(format!(
                        "manifest references missing snapshot {}: {e}",
                        path.display()
                    ))
                })?;
                let (cp, crc) = GraphCheckpoint::decode_file(&bytes)?;
                drop(bytes); // before the sidecar is read
                if cp.name != entry.name || cp.generation != entry.generation {
                    return Err(StoreError::Corrupt(format!(
                        "snapshot {} does not match its manifest entry",
                        path.display()
                    )));
                }
                state.graphs.insert(
                    cp.name.clone(),
                    RecoveredGraph {
                        graph: cp.graph,
                        generation: cp.generation,
                        profiles: cp.profiles,
                        index: read_index(
                            &dir.join(SNAPSHOTS_DIR)
                                .join(index_file_name(&entry.name, entry.generation)),
                            crc,
                        ),
                    },
                );
                checkpoints.insert(file.clone(), crc);
            }
        }

        // Replay the WAL on top. `replayed_gen` tracks, per name, the
        // newest generation recovery has seen (checkpoint or applied
        // record) — the skip rule compares against it.
        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let scan = frame::scan(&wal_bytes, manifest.wal_lsn);
        if let Some(reason) = &scan.tail {
            state.torn_tail =
                Some(TornTail { offset: scan.clean_len as u64, reason: reason.to_string() });
            cx_obs::metrics::inc("cx_store_torn_tail_total");
        }
        let mut last_lsn = manifest.wal_lsn;
        let mut rows = ProfileRows::new();
        for f in &scan.frames {
            last_lsn = f.lsn;
            let record = Record::decode(f.record)?;
            Store::replay_one(&mut state, &mut rows, record)?;
            state.frames_replayed += 1;
        }

        // Default-graph sanity: replay mirrors engine semantics, but a
        // prefix cut can leave a default pointing at a graph whose add
        // never made it to disk. Fall back like the engine does.
        if state
            .default_graph
            .as_ref()
            .is_some_and(|d| !state.graphs.contains_key(d))
            || (state.default_graph.is_none() && !state.graphs.is_empty())
        {
            state.default_graph = state.graphs.keys().next().cloned();
        }

        // Open the WAL for appending, truncating any torn tail.
        let wal = Wal::open(&wal_path, last_lsn, scan.clean_len as u64)?;
        cx_obs::metrics::gauge_set("cx_store_wal_bytes", wal.bytes() as i64);
        cx_obs::metrics::observe_us("cx_store_recovery_us", t0.elapsed().as_micros() as u64);

        let inner = Mutex::new(Inner { wal, checkpoints });
        let store = Store { dir: dir.to_path_buf(), fsync, inner };
        Ok((store, state))
    }

    fn replay_one(
        state: &mut RecoveredState,
        rows: &mut ProfileRows,
        record: Record,
    ) -> Result<(), StoreError> {
        // SetDefault carries no generation; every scanned frame is newer
        // than the manifest's wal_lsn, so it always applies.
        let Some(name) = record.graph_name().map(str::to_owned) else {
            if let Record::SetDefault { default } = record {
                state.default_graph = default;
            }
            return Ok(());
        };
        let generation = record.generation().expect("per-graph records carry a generation");
        let seen = state.generations.get(&name).copied().unwrap_or(0);
        if generation <= seen {
            return Ok(()); // Already covered by a checkpoint.
        }
        match record {
            Record::AddGraph { graph, .. } => {
                rows.remove(&name);
                state.graphs.insert(
                    name.clone(),
                    RecoveredGraph {
                        graph,
                        generation,
                        profiles: Vec::new(),
                        index: None,
                    },
                );
                if state.default_graph.is_none() {
                    state.default_graph = Some(name.clone());
                }
            }
            Record::Edit { delta, .. } => {
                let rg = state.graphs.get_mut(&name).ok_or_else(|| {
                    StoreError::Replay(format!("edit for unknown graph '{name}'"))
                })?;
                rg.graph = Arc::new(rg.graph.apply_delta(&delta));
                // The checkpoint's index describes the graph before this edit.
                rg.index = None;
                rg.generation = generation;
            }
            Record::Remove { .. } => {
                rows.remove(&name);
                state.graphs.remove(&name);
                if state.default_graph.as_deref() == Some(name.as_str()) {
                    state.default_graph = state.graphs.keys().next().cloned();
                }
            }
            Record::SetProfiles { profiles, .. } => {
                let rg = state.graphs.get_mut(&name).ok_or_else(|| {
                    StoreError::Replay(format!("profiles for unknown graph '{name}'"))
                })?;
                // Merge the increment, newest wins per vertex — mirrors
                // `Engine::set_profiles`.
                let row_of = rows.entry(name.clone()).or_insert_with(|| {
                    rg.profiles.iter().enumerate().map(|(i, p)| (p.vertex, i)).collect()
                });
                for p in profiles {
                    match row_of.entry(p.vertex) {
                        Entry::Occupied(row) => rg.profiles[*row.get()] = p,
                        Entry::Vacant(row) => {
                            row.insert(rg.profiles.len());
                            rg.profiles.push(p);
                        }
                    }
                }
                rg.generation = generation;
            }
            Record::SetDefault { .. } => unreachable!("handled above"),
        }
        state.generations.insert(name, generation);
        Ok(())
    }

    /// Appends one record to the WAL, returning its LSN. Called *before*
    /// the corresponding in-memory publish, so a crash can lose the tail
    /// of the log but never admit an unlogged state.
    pub fn append(&self, record: &Record) -> Result<u64, StoreError> {
        let t0 = Instant::now();
        let mut inner = self.lock();
        let lsn = inner.wal.append(record, self.fsync)?;
        let bytes = inner.wal.bytes();
        drop(inner);
        cx_obs::metrics::gauge_set("cx_store_wal_bytes", bytes as i64);
        cx_obs::metrics::observe_us("cx_store_append_us", t0.elapsed().as_micros() as u64);
        Ok(lsn)
    }

    /// Current WAL size in bytes (drives compaction triggers).
    pub fn wal_bytes(&self) -> u64 {
        self.lock().wal.bytes()
    }

    /// LSN of the last appended frame.
    pub fn lsn(&self) -> u64 {
        self.lock().wal.lsn()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Folds the given cut of live state into fresh checkpoint files,
    /// atomically swaps the manifest, and truncates the WAL. A
    /// checkpoint that carries an `index` gets it written beside its
    /// file as the sidecar [`RecoveredGraph::index`] is read from.
    ///
    /// The caller must guarantee `live` + `counters` + `default_graph`
    /// form a consistent cut with no writer racing ahead (the engine
    /// quiesces writers around this call). Crash-safety: every file is
    /// written to a temporary name, synced and renamed into place, so a
    /// path only ever holds a whole file; checkpoint files land first,
    /// the manifest rename commits them, the truncation runs last — a
    /// crash between any two steps recovers correctly because replay
    /// skips records whose generation a checkpoint already covers.
    pub fn compact(
        &self,
        live: &[GraphCheckpoint],
        default_graph: Option<String>,
        counters: &[(String, u64)],
    ) -> Result<CompactionStats, StoreError> {
        let mut inner = self.lock();
        let snap_dir = self.dir.join(SNAPSHOTS_DIR);
        let mut stats = CompactionStats { wal_bytes_folded: inner.wal.bytes(), ..Default::default() };

        let mut entries = Vec::with_capacity(counters.len());
        let mut live_files = Vec::with_capacity(2 * live.len());
        let mut checkpoints = HashMap::with_capacity(live.len());
        for cp in live {
            let file = snapshot_file_name(&cp.name, cp.generation);
            // (name, generation) is unique, so a checkpoint the committed
            // manifest already references is reused as-is. Any other
            // file at this path is untrusted and replaced.
            let crc = match inner.checkpoints.get(&file) {
                Some(&crc) => crc,
                None => {
                    stats.snapshots_written += 1;
                    cp.write_file(&snap_dir.join(&file))?
                }
            };
            checkpoints.insert(file.clone(), crc);
            // The sidecar lands before the manifest swap that makes its
            // checkpoint live; one already there and whole — this
            // generation was compacted before — is left alone.
            let index_file = index_file_name(&cp.name, cp.generation);
            if let Some(index) = &cp.index {
                let index_path = snap_dir.join(&index_file);
                if read_index(&index_path, crc).is_none() {
                    write_index(&index_path, crc, index)?;
                }
            }
            live_files.push(index_file);
            live_files.push(file.clone());
            entries.push(ManifestEntry { name: cp.name.clone(), generation: cp.generation, file: Some(file) });
        }
        // Tombstones for every counted name with no live graph: they pin
        // the name's last generation even if stale files linger.
        for (name, counter) in counters {
            if !live.iter().any(|cp| &cp.name == name) {
                entries.push(ManifestEntry { name: name.clone(), generation: *counter, file: None });
            }
        }

        let manifest = Manifest {
            wal_lsn: inner.wal.lsn(),
            default_graph,
            counters: counters.to_vec(),
            entries,
        };
        manifest.store(&self.dir.join(MANIFEST_FILE))?;
        inner.checkpoints = checkpoints;
        inner.wal.truncate()?;

        // Everything that is neither a file the new manifest references
        // nor the sidecar of one is garbage.
        for entry in std::fs::read_dir(&snap_dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if !live_files.iter().any(|f| f.as_str() == fname) {
                std::fs::remove_file(entry.path())?;
                stats.stale_files_removed += 1;
            }
        }

        cx_obs::metrics::inc("cx_store_compactions_total");
        cx_obs::metrics::gauge_set("cx_store_wal_bytes", 0);
        Ok(stats)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::{GraphBuilder, VertexId};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cxstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn graph(n: u32, edges: &[(u32, u32)]) -> Arc<AttributedGraph> {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(&format!("v{i}"), &["kw"]);
        }
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        Arc::new(b.build())
    }

    #[test]
    fn fresh_store_recovers_appended_history() {
        let dir = tmpdir("fresh");
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        {
            let (store, state) = Store::open_with_fsync(&dir, false).unwrap();
            assert!(state.graphs.is_empty());
            store
                .append(&Record::AddGraph { name: "g".into(), generation: 1, graph: g.clone() })
                .unwrap();
            let delta = g.edge_delta(&[(VertexId(0), VertexId(2))], &[]).unwrap();
            store.append(&Record::Edit { name: "g".into(), generation: 2, delta }).unwrap();
        }
        let (_store, state) = Store::open_with_fsync(&dir, false).unwrap();
        assert_eq!(state.frames_replayed, 2);
        let rg = &state.graphs["g"];
        assert_eq!(rg.generation, 2);
        assert_eq!(rg.graph.edge_count(), 4);
        assert!(rg.graph.has_edge(VertexId(0), VertexId(2)));
        assert_eq!(state.default_graph.as_deref(), Some("g"));
        assert_eq!(state.generations["g"], 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_wal_and_recovery_uses_snapshots() {
        let dir = tmpdir("compact");
        let g = graph(3, &[(0, 1), (1, 2)]);
        {
            let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
            store
                .append(&Record::AddGraph { name: "g".into(), generation: 1, graph: g.clone() })
                .unwrap();
            store
                .append(&Record::SetProfiles {
                    name: "g".into(),
                    generation: 2,
                    profiles: vec![StoredProfile {
                        vertex: VertexId(1),
                        name: "B".into(),
                        areas: vec![],
                        institutes: vec![],
                        interests: vec!["x".into()],
                    }],
                })
                .unwrap();
            let cp = GraphCheckpoint {
                name: "g".into(),
                generation: 2,
                graph: g.clone(),
                profiles: vec![StoredProfile {
                    vertex: VertexId(1),
                    name: "B".into(),
                    areas: vec![],
                    institutes: vec![],
                    interests: vec!["x".into()],
                }],
                index: None,
            };
            let stats = store
                .compact(&[cp], Some("g".into()), &[("g".into(), 2)])
                .unwrap();
            assert_eq!(stats.snapshots_written, 1);
            assert_eq!(store.wal_bytes(), 0);
            // LSN continues after truncation.
            store
                .append(&Record::SetProfiles {
                    name: "g".into(),
                    generation: 3,
                    profiles: vec![StoredProfile {
                        vertex: VertexId(2),
                        name: "C".into(),
                        areas: vec![],
                        institutes: vec![],
                        interests: vec![],
                    }],
                })
                .unwrap();
        }
        let (_store, state) = Store::open_with_fsync(&dir, false).unwrap();
        let rg = &state.graphs["g"];
        assert_eq!(rg.generation, 3);
        assert_eq!(rg.profiles.len(), 2);
        assert_eq!(state.frames_replayed, 1); // only the post-compaction frame
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_then_readd_does_not_resurrect_after_compaction() {
        let dir = tmpdir("tombstone");
        let g1 = graph(3, &[(0, 1), (1, 2)]);
        let g2 = graph(2, &[(0, 1)]);
        {
            let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
            store
                .append(&Record::AddGraph { name: "g".into(), generation: 1, graph: g1.clone() })
                .unwrap();
            // Checkpoint at generation 1.
            let cp = GraphCheckpoint {
                name: "g".into(),
                generation: 1,
                graph: g1,
                profiles: vec![],
                index: None,
            };
            store.compact(&[cp], Some("g".into()), &[("g".into(), 1)]).unwrap();
            // Remove claims generation 2, re-add claims 3.
            store.append(&Record::Remove { name: "g".into(), generation: 2 }).unwrap();
            store
                .append(&Record::AddGraph { name: "g".into(), generation: 3, graph: g2.clone() })
                .unwrap();
            // Compact the *removed-then-readded* state: live graph at gen 3.
            let cp = GraphCheckpoint {
                name: "g".into(),
                generation: 3,
                graph: g2,
                profiles: vec![],
                index: None,
            };
            let stats = store.compact(&[cp], Some("g".into()), &[("g".into(), 3)]).unwrap();
            // The generation-1 snapshot file is now stale and deleted.
            assert_eq!(stats.stale_files_removed, 1);
        }
        let (_store, state) = Store::open_with_fsync(&dir, false).unwrap();
        assert_eq!(state.graphs["g"].graph.vertex_count(), 2);
        assert_eq!(state.generations["g"], 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstone_pins_generation_for_removed_graph() {
        let dir = tmpdir("tombstone2");
        let g = graph(2, &[(0, 1)]);
        {
            let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
            store
                .append(&Record::AddGraph { name: "g".into(), generation: 1, graph: g })
                .unwrap();
            store.append(&Record::Remove { name: "g".into(), generation: 2 }).unwrap();
            // Compaction with no live graphs writes a tombstone carrying
            // the counter.
            store.compact(&[], None, &[("g".into(), 2)]).unwrap();
        }
        let (store, state) = Store::open_with_fsync(&dir, false).unwrap();
        assert!(state.graphs.is_empty());
        assert_eq!(state.generations["g"], 2);
        // A re-add continues the generation sequence.
        let g2 = graph(3, &[]);
        store
            .append(&Record::AddGraph { name: "g".into(), generation: 3, graph: g2 })
            .unwrap();
        drop(store);
        let (_s, state) = Store::open_with_fsync(&dir, false).unwrap();
        assert_eq!(state.graphs["g"].generation, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_and_reported() {
        let dir = tmpdir("torn");
        let g = graph(2, &[(0, 1)]);
        {
            let (store, _) = Store::open_with_fsync(&dir, true).unwrap();
            store
                .append(&Record::AddGraph { name: "g".into(), generation: 1, graph: g })
                .unwrap();
        }
        let wal_path = dir.join(WAL_FILE);
        let clean = std::fs::metadata(&wal_path).unwrap().len();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
            f.write_all(&[1, 2, 3, 4, 5]).unwrap();
        }
        let (_store, state) = Store::open_with_fsync(&dir, false).unwrap();
        let tail = state.torn_tail.expect("tail must be reported");
        assert_eq!(tail.offset, clean);
        assert_eq!(state.graphs["g"].generation, 1);
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), clean);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
