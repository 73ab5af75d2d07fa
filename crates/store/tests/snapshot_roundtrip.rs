//! Snapshot checkpoints must round-trip real graph shapes exactly —
//! the recovered graph fingerprints, CL-tree canonical form, profiles
//! and coordinates byte-identical to what was written — and must reject
//! files from a future format version with a typed error instead of
//! misparsing them.

use std::path::PathBuf;
use std::sync::Arc;

use cx_check::{graph_fingerprint, tree_canonical};
use cx_cltree::ClTree;
use cx_datagen::{area_clustered_coords, dblp_like, figure5_graph, generate_profiles};
use cx_graph::AttributedGraph;
use cx_store::{
    snapshot_file_name, GraphCheckpoint, RecoveredGraph, Store, StoreError, StoredProfile,
    SNAPSHOTS_DIR, SNAPSHOT_VERSION,
};

/// A fresh store directory holding `cp` as its one checkpoint.
fn compacted(cp: &GraphCheckpoint) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-snap-rt-{}-{}", cp.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open_with_fsync(&dir, false).expect("store opens");
    let counters = [(cp.name.clone(), cp.generation)];
    store.compact(std::slice::from_ref(cp), None, &counters).expect("checkpoint writes");
    dir
}

/// Writes `cp` as a checkpoint file and reads it back through recovery.
fn roundtrip(cp: &GraphCheckpoint) -> RecoveredGraph {
    let dir = compacted(cp);
    let (_, mut state) = Store::open_with_fsync(&dir, false).expect("checkpoint reads back");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(state.frames_replayed, 0, "recovered from the checkpoint alone");
    state.graphs.remove(&cp.name).expect("the checkpointed graph recovers")
}

/// Asserts every recoverable facet of `cp` survives the codec.
fn assert_exact(cp: &GraphCheckpoint) {
    let back = roundtrip(cp);
    assert_eq!(back.generation, cp.generation);
    assert_eq!(
        graph_fingerprint(&back.graph),
        graph_fingerprint(&cp.graph),
        "graph fingerprint must survive the snapshot codec"
    );
    assert_eq!(
        tree_canonical(&ClTree::build(&back.graph)),
        tree_canonical(&ClTree::build(&cp.graph)),
        "CL-tree built on the recovered graph must canonicalize identically"
    );
    assert_eq!(back.profiles, cp.profiles, "profiles must survive exactly");
    assert_eq!(back.coords, cp.coords, "coordinates must survive exactly");
}

fn checkpoint(name: &str, graph: AttributedGraph, area_of: &[usize], seed: u64) -> GraphCheckpoint {
    let profiles: Vec<StoredProfile> = generate_profiles(&graph, area_of, 4)
        .into_iter()
        .map(|p| StoredProfile {
            vertex: p.vertex,
            name: p.name,
            areas: p.areas,
            institutes: p.institutes,
            interests: p.interests,
        })
        .collect();
    let coords = area_clustered_coords(area_of, 12.0, 0.05, seed);
    GraphCheckpoint {
        name: name.to_owned(),
        generation: 7,
        graph: Arc::new(graph),
        profiles,
        coords: Some(coords),
        index: None,
    }
}

#[test]
fn figure5_roundtrips_exactly() {
    let graph = figure5_graph();
    let area_of = vec![0usize; graph.vertex_count()];
    assert_exact(&checkpoint("figure5", graph, &area_of, 1));
}

#[test]
fn dblp_1k_roundtrips_exactly() {
    let (graph, area_of) = dblp_like(&cx_check::workload::check_params(1_000, 41));
    assert_exact(&checkpoint("dblp-1k", graph, &area_of, 41));
}

#[test]
fn dblp_10k_roundtrips_exactly() {
    let (graph, area_of) = dblp_like(&cx_check::workload::check_params(10_000, 43));
    assert_exact(&checkpoint("dblp-10k", graph, &area_of, 43));
}

#[test]
fn bare_checkpoint_roundtrips_without_decorations() {
    let cp = GraphCheckpoint {
        name: "bare".to_owned(),
        generation: 1,
        graph: Arc::new(figure5_graph()),
        profiles: Vec::new(),
        coords: None,
        index: None,
    };
    assert_exact(&cp);
}

/// A checkpoint written by a future release (higher format version) must
/// be rejected with the typed [`StoreError::UnsupportedVersion`] — never
/// misparsed into a graph.
#[test]
fn future_format_version_is_rejected_with_typed_error() {
    let cp = GraphCheckpoint {
        name: "v-next".to_owned(),
        generation: 3,
        graph: Arc::new(figure5_graph()),
        profiles: Vec::new(),
        coords: None,
        index: None,
    };
    let dir = compacted(&cp);
    let path = dir.join(SNAPSHOTS_DIR).join(snapshot_file_name(&cp.name, cp.generation));
    let mut buf = std::fs::read(&path).unwrap();
    // Bump the version field (little-endian u32 right after the magic).
    let future = SNAPSHOT_VERSION + 1;
    buf[4..8].copy_from_slice(&future.to_le_bytes());
    std::fs::write(&path, buf).unwrap();
    let opened = Store::open_with_fsync(&dir, false).map(drop);
    let _ = std::fs::remove_dir_all(&dir);
    match opened {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
