//! A compaction killed while it wrote a checkpoint leaves part of that
//! file in `snapshots/`. The next compaction of the same generation must
//! not mistake it for the whole file: if it committed the torn file and
//! truncated the WAL, the graph would be gone.

use std::path::{Path, PathBuf};

use cx_check::graph_fingerprint;
use cx_datagen::dblp_like;
use cx_explorer::Engine;
use cx_store::{snapshot_file_name, SNAPSHOTS_DIR};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-torn-cp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst.join(SNAPSHOTS_DIR)).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

#[test]
fn a_torn_checkpoint_left_by_a_killed_compaction_is_never_committed() {
    let dir = fresh_dir("store");
    let (g, _) = dblp_like(&cx_check::workload::check_params(400, 5));
    let fingerprint = graph_fingerprint(&g);
    {
        let engine = Engine::open_durable(&dir).unwrap();
        engine.try_add_graph("g", g).unwrap();
    }
    // The graph lives in the WAL only, at generation 1. The file a
    // compaction would write for it comes from a copy of the store.
    let file = snapshot_file_name("g", 1);
    let whole = {
        let copy = fresh_dir("copy");
        copy_store(&dir, &copy);
        Engine::open_durable(&copy).unwrap().compact_store().unwrap();
        let bytes = std::fs::read(copy.join(SNAPSHOTS_DIR).join(&file)).unwrap();
        let _ = std::fs::remove_dir_all(&copy);
        bytes
    };
    std::fs::write(dir.join(SNAPSHOTS_DIR).join(&file), &whole[..whole.len() / 2]).unwrap();

    // Reboot, compact, reboot.
    Engine::open_durable(&dir).unwrap().compact_store().unwrap();
    let engine = match Engine::open_durable(&dir) {
        Ok(engine) => engine,
        Err(e) => panic!("the store no longer opens after compacting over a torn checkpoint: {e}"),
    };
    let snap = engine.snapshot(Some("g")).expect("the graph survives");
    assert_eq!(snap.generation, 1);
    assert_eq!(graph_fingerprint(&snap.graph), fingerprint);
    assert_eq!(std::fs::read(dir.join(SNAPSHOTS_DIR).join(&file)).unwrap(), whole);
    let _ = std::fs::remove_dir_all(&dir);
}
