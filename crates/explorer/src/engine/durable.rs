//! Durability: booting from a `cx-store` directory, logging every write
//! before it is published, and compaction.

use std::path::Path;
use std::sync::{Arc, Mutex};

use cx_cltree::ClTree;

use super::write::WriteState;
use super::{Engine, GraphSnapshot, Profile};
use crate::error::ExplorerError;
use crate::profile::ProfileStore;

impl Engine {
    /// An engine backed by the durable store at `dir`: recovers every
    /// graph to its exact pre-crash generation (manifest checkpoints plus
    /// WAL replay, see `cx-store`), loads each CL-tree index from the
    /// snapshot the last compaction stored beside the checkpoint —
    /// rebuilding it when there is none, the WAL has moved the graph past
    /// it, or it does not validate against the graph — and attaches the
    /// store so every subsequent write is logged before it is published.
    /// `cx_index_boot_total{source}` counts which of the two happened.
    pub fn open_durable(dir: &Path) -> Result<Self, ExplorerError> {
        let (store, state) = cx_store::Store::open(dir)?;
        let cx_store::RecoveredState { graphs, default_graph, generations, .. } = state;
        let e = Self::new();
        for (name, rg) in graphs {
            let loaded = rg
                .index
                .as_deref()
                .and_then(|index| ClTree::read_snapshot(&rg.graph, index).ok());
            cx_obs::metrics::inc(match loaded {
                Some(_) => "cx_index_boot_total{source=\"loaded\"}",
                None => "cx_index_boot_total{source=\"rebuilt\"}",
            });
            let tree = loaded.unwrap_or_else(|| ClTree::build(&rg.graph));
            let profiles = ProfileStore::from_pairs(rg.profiles.into_iter().map(|p| {
                let profile = Profile {
                    name: p.name,
                    areas: p.areas,
                    institutes: p.institutes,
                    interests: p.interests,
                };
                (p.vertex, profile)
            }));
            // Publishing with the store still unattached appends nothing
            // to the WAL; the recovered generation is installed as-is.
            e.publish(GraphSnapshot::new(
                name,
                rg.graph,
                Arc::new(tree),
                Arc::new(profiles),
                rg.generation,
            ));
        }
        {
            let mut r = e.registry();
            r.generations = generations.into_iter().collect();
            r.default_graph = default_graph;
        }
        let mut e = e;
        e.store = Some(Arc::new(store));
        Ok(e)
    }

    /// The durable store backing this engine, if any.
    pub fn store(&self) -> Option<&Arc<cx_store::Store>> {
        self.store.as_ref()
    }

    /// Appends `record` to the WAL when a store is attached. Called by
    /// every write path *before* its publish.
    pub(super) fn log(&self, record: &cx_store::Record) -> Result<(), ExplorerError> {
        if let Some(store) = &self.store {
            store.append(record)?;
        }
        Ok(())
    }

    /// Folds the WAL into fresh snapshot checkpoints and truncates it.
    /// No-op (returning `None`) on a non-durable engine.
    ///
    /// Writers are quiesced for the duration: the write-gate map lock is
    /// held (blocking any writer from even looking up its gate) and every
    /// existing gate is locked in sorted order (waiting out in-flight
    /// writes). Readers are unaffected — they run off pinned snapshots
    /// and never touch gates. The quiescence makes the (registry,
    /// generation counters, default) cut handed to the store consistent
    /// with the WAL truncation: no record can land between the cut and
    /// the truncate and be lost.
    pub fn compact_store(&self) -> Result<Option<cx_store::CompactionStats>, ExplorerError> {
        let Some(store) = &self.store else { return Ok(None) };

        // Quiesce: hold the gate map (blocks new writers incl. new graph
        // names) and then every gate (waits out in-flight writers).
        let gates_map = self.write_gates.lock().unwrap_or_else(|p| p.into_inner());
        let mut gates: Vec<(&String, &Arc<Mutex<WriteState>>)> = gates_map.iter().collect();
        gates.sort_unstable_by_key(|(name, _)| name.as_str());
        let _held: Vec<_> = gates
            .iter()
            .map(|(_, gate)| gate.lock().unwrap_or_else(|p| p.into_inner()))
            .collect();

        // A consistent cut of the registry.
        let (live, default_graph, counters) = {
            let r = self.registry();
            let mut live: Vec<cx_store::GraphCheckpoint> = r
                .snapshots
                .iter()
                .map(|(name, s)| {
                    // The column store iterates in vertex order, so the
                    // checkpoint's sorted-rows contract holds by
                    // construction.
                    let profiles: Vec<cx_store::StoredProfile> = s
                        .profiles
                        .iter()
                        .map(|(v, p)| cx_store::StoredProfile {
                            vertex: v,
                            name: p.name,
                            areas: p.areas,
                            institutes: p.institutes,
                            interests: p.interests,
                        })
                        .collect();
                    let mut index = Vec::new();
                    s.tree.write_snapshot(&mut index);
                    cx_store::GraphCheckpoint {
                        name: name.clone(),
                        generation: s.generation,
                        graph: Arc::clone(&s.graph),
                        profiles,
                        index: Some(index),
                    }
                })
                .collect();
            live.sort_unstable_by(|a, b| a.name.cmp(&b.name));
            let mut counters: Vec<(String, u64)> =
                r.generations.iter().map(|(n, g)| (n.clone(), *g)).collect();
            counters.sort_unstable();
            (live, r.default_graph.clone(), counters)
        };

        let stats = store.compact(&live, default_graph, &counters)?;
        Ok(Some(stats))
    }

    /// Kicks off [`Engine::compact_store`] on a background thread when
    /// the WAL has outgrown the `CX_COMPACT_BYTES` threshold (default
    /// 64 MiB) and no compaction is already running. Cheap enough to call
    /// after every write request.
    pub fn maybe_compact_in_background(self: &Arc<Self>) {
        use std::sync::atomic::Ordering;
        let Some(store) = &self.store else { return };
        if store.wal_bytes() < compact_threshold_bytes() {
            return;
        }
        if self.compacting.swap(true, Ordering::SeqCst) {
            return; // One at a time.
        }
        let me = Arc::clone(self);
        std::thread::spawn(move || {
            if let Err(e) = me.compact_store() {
                // Compaction failure is not fatal: the WAL keeps growing
                // and recovery still works; surface it via metrics.
                cx_obs::metrics::inc("cx_store_compaction_errors_total");
                eprintln!("background compaction failed: {e}");
            }
            me.compacting.store(false, Ordering::SeqCst);
        });
    }
}

/// WAL size that triggers a background compaction (`CX_COMPACT_BYTES`,
/// default 64 MiB).
fn compact_threshold_bytes() -> u64 {
    std::env::var("CX_COMPACT_BYTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64 << 20)
}
