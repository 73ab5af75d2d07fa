//! The index sidecar: opaque bytes a compaction stores beside a
//! checkpoint and recovery hands back — but only while they can still be
//! the index of the recovered graph. The sidecar is derived data outside
//! the durability contract, so nothing that happens to it may fail
//! `Store::open`; the worst outcome is `index: None` and a rebuild.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_store::{
    index_file_name, snapshot_file_name, GraphCheckpoint, Record, Store, StoredProfile,
    SNAPSHOTS_DIR,
};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-sidecar-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn path_graph(n: u32) -> Arc<AttributedGraph> {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_vertex(&format!("v{i}"), &["kw"]);
    }
    for i in 1..n {
        b.add_edge(VertexId(i - 1), VertexId(i));
    }
    Arc::new(b.build())
}

fn checkpoint(
    name: &str,
    generation: u64,
    graph: &Arc<AttributedGraph>,
    index: Option<&[u8]>,
) -> GraphCheckpoint {
    GraphCheckpoint {
        name: name.into(),
        generation,
        graph: Arc::clone(graph),
        profiles: Vec::new(),
        index: index.map(<[u8]>::to_vec),
    }
}

/// A store holding "g" checkpointed at generation 1 with `INDEX` beside
/// it; returns the directory and the sidecar's path.
fn compacted(tag: &str) -> (PathBuf, PathBuf) {
    let dir = fresh_dir(tag);
    let g = path_graph(5);
    let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
    store
        .append(&Record::AddGraph { name: "g".into(), generation: 1, graph: Arc::clone(&g) })
        .unwrap();
    store
        .compact(&[checkpoint("g", 1, &g, Some(INDEX))], Some("g".into()), &[("g".into(), 1)])
        .unwrap();
    let sidecar = dir.join(SNAPSHOTS_DIR).join(index_file_name("g", 1));
    assert!(sidecar.exists());
    (dir, sidecar)
}

const INDEX: &[u8] = b"the index of g at generation 1";

fn recovered_index(dir: &Path) -> Option<Vec<u8>> {
    let (_, state) = Store::open_with_fsync(dir, false).expect("the sidecar never fails an open");
    let rg = &state.graphs["g"];
    assert_eq!(rg.graph.vertex_count(), 5, "the graph itself always recovers");
    rg.index.clone()
}

#[test]
fn a_whole_sidecar_comes_back_verbatim() {
    let (dir, _) = compacted("whole");
    assert_eq!(recovered_index(&dir).as_deref(), Some(INDEX));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_missing_truncated_or_flipped_sidecar_is_not_returned() {
    let (dir, sidecar) = compacted("damage");
    let whole = std::fs::read(&sidecar).unwrap();

    std::fs::remove_file(&sidecar).unwrap();
    assert_eq!(recovered_index(&dir), None, "missing");

    for cut in 0..whole.len() {
        std::fs::write(&sidecar, &whole[..cut]).unwrap();
        assert_eq!(recovered_index(&dir), None, "truncated to {cut} bytes");
    }
    for byte in 0..whole.len() {
        for bit in 0..8 {
            let mut flipped = whole.clone();
            flipped[byte] ^= 1 << bit;
            std::fs::write(&sidecar, &flipped).unwrap();
            assert_eq!(recovered_index(&dir), None, "bit {byte}.{bit} flipped");
        }
    }
    let mut longer = whole.clone();
    longer.push(0);
    std::fs::write(&sidecar, &longer).unwrap();
    assert_eq!(recovered_index(&dir), None, "a trailing byte");

    std::fs::write(&sidecar, &whole).unwrap();
    assert_eq!(recovered_index(&dir).as_deref(), Some(INDEX), "and whole again");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sidecar that is whole but was written for another checkpoint — here
/// the same name one generation later, copied into place — carries that
/// checkpoint's payload checksum, not this one's.
#[test]
fn a_sidecar_bound_to_another_checkpoint_is_not_returned() {
    let (dir, sidecar) = compacted("foreign");
    let (other_dir, other_sidecar) = {
        let dir = fresh_dir("foreign-src");
        let g = path_graph(6);
        let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
        store
            .compact(&[checkpoint("g", 2, &g, Some(b"some other index"))], None, &[("g".into(), 2)])
            .unwrap();
        let sidecar = dir.join(SNAPSHOTS_DIR).join(index_file_name("g", 2));
        (dir, sidecar)
    };
    std::fs::copy(&other_sidecar, &sidecar).unwrap();
    assert_eq!(recovered_index(&dir), None);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&other_dir).unwrap();
}

#[test]
fn replay_drops_the_index_exactly_when_the_graph_moves() {
    let profile = StoredProfile {
        vertex: VertexId(1),
        name: "B".into(),
        areas: vec![],
        institutes: vec![],
        interests: vec![],
    };

    // Decorations leave the graph, and so its index, as checkpointed.
    let (dir, _) = compacted("decorations");
    {
        let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
        store
            .append(&Record::SetProfiles {
                name: "g".into(),
                generation: 2,
                profiles: vec![profile],
            })
            .unwrap();
        store.append(&Record::SetDefault { default: Some("g".into()) }).unwrap();
    }
    let (_, state) = Store::open_with_fsync(&dir, false).unwrap();
    assert_eq!(state.graphs["g"].generation, 2);
    assert_eq!(state.graphs["g"].index.as_deref(), Some(INDEX));
    std::fs::remove_dir_all(&dir).unwrap();

    // An edit moves the graph past its checkpoint.
    let (dir, _) = compacted("edit");
    {
        let (store, state) = Store::open_with_fsync(&dir, false).unwrap();
        let delta = state.graphs["g"].graph.edge_delta(&[(VertexId(0), VertexId(4))], &[]).unwrap();
        store.append(&Record::Edit { name: "g".into(), generation: 2, delta }).unwrap();
    }
    let (_, state) = Store::open_with_fsync(&dir, false).unwrap();
    assert_eq!(state.graphs["g"].graph.edge_count(), 5);
    assert_eq!(state.graphs["g"].index, None);
    std::fs::remove_dir_all(&dir).unwrap();

    // So does replacing it.
    let (dir, _) = compacted("readd");
    {
        let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
        store
            .append(&Record::AddGraph { name: "g".into(), generation: 2, graph: path_graph(5) })
            .unwrap();
    }
    assert_eq!(recovered_index(&dir), None);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_sweeps_a_dead_checkpoints_sidecar_and_keeps_the_live_one() {
    let (dir, old_sidecar) = compacted("sweep");
    let g = path_graph(5);
    let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
    let stats = store
        .compact(
            &[checkpoint("g", 2, &g, Some(b"index at 2"))],
            Some("g".into()),
            &[("g".into(), 2)],
        )
        .unwrap();
    assert_eq!(stats.stale_files_removed, 2, "the generation-1 checkpoint and its sidecar");
    assert!(!old_sidecar.exists());
    let mut left: Vec<String> = std::fs::read_dir(dir.join(SNAPSHOTS_DIR))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, [index_file_name("g", 2), snapshot_file_name("g", 2)]);

    // A compaction that has no index to give leaves a live sidecar alone.
    store.compact(&[checkpoint("g", 2, &g, None)], Some("g".into()), &[("g".into(), 2)]).unwrap();
    drop(store);
    assert_eq!(recovered_index(&dir).as_deref(), Some(&b"index at 2"[..]));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store from before sidecars existed is a store whose checkpoints have
/// none: it opens (the index gets rebuilt), and the next compaction puts
/// one beside the checkpoint it finds already written. The same
/// compaction replaces a damaged sidecar.
#[test]
fn a_sidecar_less_store_opens_and_the_next_compaction_adds_one() {
    let dir = fresh_dir("legacy");
    let g = path_graph(5);
    let counters = [("g".to_owned(), 1)];
    {
        let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
        store.compact(&[checkpoint("g", 1, &g, None)], Some("g".into()), &counters).unwrap();
    }
    let sidecar = dir.join(SNAPSHOTS_DIR).join(index_file_name("g", 1));
    assert!(!sidecar.exists());
    assert_eq!(recovered_index(&dir), None);

    let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
    let stats =
        store.compact(&[checkpoint("g", 1, &g, Some(INDEX))], Some("g".into()), &counters).unwrap();
    assert_eq!(stats.snapshots_written, 0, "the checkpoint itself is reused");
    assert_eq!(recovered_index(&dir).as_deref(), Some(INDEX));

    std::fs::write(&sidecar, b"rot").unwrap();
    assert_eq!(recovered_index(&dir), None);
    store.compact(&[checkpoint("g", 1, &g, Some(INDEX))], Some("g".into()), &counters).unwrap();
    assert_eq!(recovered_index(&dir).as_deref(), Some(INDEX));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay merges a `SetProfiles` increment into the checkpoint's rows in
/// time linear in both: 50k rows over 50k rows (the scan per profile this
/// replaces made that 10⁹ comparisons), newest wins per vertex, existing
/// rows keep their place and new vertices follow in arrival order.
#[test]
fn a_large_profile_increment_replays_over_a_large_checkpoint() {
    const ROWS: u32 = 50_000;
    let row = |v: u32, name: &str| StoredProfile {
        vertex: VertexId(v),
        name: name.into(),
        areas: vec!["area".into()],
        institutes: vec![],
        interests: vec![],
    };
    let dir = fresh_dir("profiles");
    let g = path_graph(4);
    {
        let (store, _) = Store::open_with_fsync(&dir, false).unwrap();
        let mut cp = checkpoint("g", 1, &g, Some(INDEX));
        cp.profiles = (0..ROWS).map(|v| row(v, "old")).collect();
        store.compact(&[cp], Some("g".into()), &[("g".into(), 1)]).unwrap();
        // The second half of the existing rows and as many new vertices,
        // descending, then vertex 0 twice more: the last one must win.
        let mut increment: Vec<StoredProfile> =
            (ROWS / 2..ROWS + ROWS / 2 - 2).rev().map(|v| row(v, "new")).collect();
        increment.push(row(0, "newer"));
        increment.push(row(0, "newest"));
        assert_eq!(increment.len() as u32, ROWS);
        store
            .append(&Record::SetProfiles { name: "g".into(), generation: 2, profiles: increment })
            .unwrap();
    }
    let (_, state) = Store::open_with_fsync(&dir, false).unwrap();
    let rg = &state.graphs["g"];
    assert_eq!(rg.generation, 2);
    assert_eq!(rg.index.as_deref(), Some(INDEX), "profiles do not touch the graph");
    let rows = &rg.profiles;
    assert_eq!(rows.len() as u32, ROWS + ROWS / 2 - 2);
    for (i, p) in rows.iter().enumerate().take(ROWS as usize) {
        assert_eq!(p.vertex, VertexId(i as u32), "existing rows keep their place");
        let want = match i as u32 {
            0 => "newest",
            v if v < ROWS / 2 => "old",
            _ => "new",
        };
        assert_eq!(p.name, want, "row {i}");
    }
    for (i, p) in rows[ROWS as usize..].iter().enumerate() {
        assert_eq!(p.vertex, VertexId(ROWS + ROWS / 2 - 3 - i as u32), "new rows in arrival order");
        assert_eq!(p.name, "new");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
