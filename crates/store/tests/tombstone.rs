//! Regression tests for the remove/re-add resurrection gap: once a graph
//! is removed, no stale on-disk state — WAL frames or checkpoint files
//! from before the removal — may bring it (or its decorations) back,
//! across reopens, compactions, and re-adds of the same name. The last
//! test is the baseline case: an edited graph that was never removed
//! recovers exactly, from the WAL and again from its checkpoint.

use std::path::PathBuf;

use cx_check::graph_fingerprint;
use cx_datagen::{dblp_like, figure5_graph};
use cx_explorer::Engine;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-tombstone-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Remove + re-add of the same name across a reopen lands on the
/// re-added graph, never the original — even when a checkpoint of the
/// original is sitting on disk.
#[test]
fn readd_after_remove_does_not_resurrect_old_graph() {
    let dir = fresh_dir("readd");
    let (old, _) = dblp_like(&cx_check::workload::check_params(90, 5));
    let new = figure5_graph();
    let old_fp = graph_fingerprint(&old);
    let new_fp = graph_fingerprint(&new);
    assert_ne!(old_fp, new_fp);

    {
        let engine = Engine::open_durable(&dir).unwrap();
        engine.try_add_graph("g", old).unwrap();
        // Checkpoint the original so a stale snapshot file exists on disk.
        engine.compact_store().unwrap();
        engine.remove_graph("g").unwrap();
        engine.try_add_graph("g", new).unwrap();
    }

    let engine = Engine::open_durable(&dir).unwrap();
    let snap = engine.snapshot(Some("g")).unwrap();
    assert_eq!(
        graph_fingerprint(&snap.graph),
        new_fp,
        "recovery resurrected the removed graph instead of the re-added one"
    );
    // The re-add sits above the removal's reserved generation: add(1),
    // checkpoint, remove(2), re-add(3).
    assert_eq!(snap.generation, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A removal followed by a compaction writes a tombstone; reopening must
/// not revive the graph from the WAL or leave its checkpoint behind.
#[test]
fn removed_graph_stays_removed_after_compaction_and_reopen() {
    let dir = fresh_dir("stay-removed");
    {
        let engine = Engine::open_durable(&dir).unwrap();
        engine.try_add_graph("doomed", figure5_graph()).unwrap();
        engine.try_add_graph("keeper", figure5_graph()).unwrap();
        engine.compact_store().unwrap();
        engine.remove_graph("doomed").unwrap();
        engine.compact_store().unwrap();
    }

    let engine = Engine::open_durable(&dir).unwrap();
    assert!(engine.snapshot(Some("doomed")).is_err(), "tombstoned graph came back");
    assert!(engine.snapshot(Some("keeper")).is_ok(), "unrelated graph must survive");
    // The doomed graph's checkpoint file must have been swept.
    let snaps = dir.join(cx_store::SNAPSHOTS_DIR);
    let doomed_prefix = cx_store::hex_name("doomed");
    for entry in std::fs::read_dir(&snaps).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.starts_with(&doomed_prefix),
            "stale checkpoint survived compaction: {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full gauntlet: remove + re-add, then compact, then reopen — the
/// tombstoned generation counter must keep the re-added graph monotone
/// so later edits still order correctly.
#[test]
fn generation_counter_survives_remove_readd_compact_cycle() {
    let dir = fresh_dir("counter");
    {
        let engine = Engine::open_durable(&dir).unwrap();
        engine.try_add_graph("g", figure5_graph()).unwrap(); // gen 1
        engine.remove_graph("g").unwrap(); // gen 2
        engine.compact_store().unwrap(); // tombstone pins the counter
    }
    {
        let engine = Engine::open_durable(&dir).unwrap();
        engine.try_add_graph("g", figure5_graph()).unwrap(); // gen 3
        let snap = engine.snapshot(Some("g")).unwrap();
        assert_eq!(snap.generation, 3, "re-add must continue past the tombstoned counter");
    }
    let engine = Engine::open_durable(&dir).unwrap();
    assert_eq!(engine.snapshot(Some("g")).unwrap().generation, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The plain (no removal) recovery path: N toggle edits, then a reopen
/// replays the whole WAL onto generation N + 1 and the original graph;
/// compaction folds the WAL into a checkpoint and a second reopen lands
/// on exactly the same state.
#[test]
fn edited_graph_recovers_from_the_wal_and_again_from_its_checkpoint() {
    const EDITS: u64 = 12;
    let dir = fresh_dir("edits");
    let (g, _) = dblp_like(&cx_check::workload::check_params(90, 5));
    let fp = graph_fingerprint(&g);
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    let toggle = [(hub, g.neighbors(hub)[0])];
    {
        let engine = Engine::open_durable(&dir).unwrap();
        engine.try_add_graph("g", g).unwrap(); // gen 1
        for i in 0..EDITS {
            // Remove/add in pairs, so the graph ends unchanged.
            let (add, remove) =
                if i % 2 == 0 { (&[][..], &toggle[..]) } else { (&toggle[..], &[][..]) };
            engine.apply_edits(Some("g"), add, remove).unwrap();
        }
        assert_eq!(engine.snapshot(Some("g")).unwrap().generation, EDITS + 1);
    }
    {
        let engine = Engine::open_durable(&dir).unwrap();
        let snap = engine.snapshot(Some("g")).unwrap();
        assert_eq!(snap.generation, EDITS + 1, "replay must land on the last generation");
        assert_eq!(graph_fingerprint(&snap.graph), fp, "toggled graph must end unchanged");
        engine.compact_store().unwrap().expect("store attached");
    }
    let engine = Engine::open_durable(&dir).unwrap();
    let snap = engine.snapshot(Some("g")).unwrap();
    assert_eq!(snap.generation, EDITS + 1);
    assert_eq!(graph_fingerprint(&snap.graph), fp);
    let _ = std::fs::remove_dir_all(&dir);
}
