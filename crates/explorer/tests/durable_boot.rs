//! `Engine::open_durable` loads each CL-tree from the snapshot the last
//! compaction stored beside the checkpoint, and rebuilds it whenever that
//! is not possible. The two boots must be indistinguishable except in
//! `cx_index_boot_total{source}` — same canonical tree, same answers,
//! including `global`, which reads q's connected k-core off the tree.
//!
//! One test function: the counters are process-wide.

use std::sync::Arc;

use cx_check::workload::{check_params, edit_script};
use cx_check::{fingerprint, tree_canonical};
use cx_datagen::dblp_like;
use cx_explorer::{Engine, QuerySpec};

fn boots() -> (u64, u64) {
    let read = |source| {
        cx_obs::global().counter(&format!("cx_index_boot_total{{source=\"{source}\"}}")).get()
    };
    (read("loaded"), read("rebuilt"))
}

#[test]
fn boot_loads_the_index_and_rebuilds_when_it_cannot() {
    let dir = std::env::temp_dir().join(format!("cx-durable-boot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (g, _) = dblp_like(&check_params(400, 11));
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    let spec = QuerySpec::by_id(hub).k(3);
    let script = edit_script(&g, 6, 11);
    let answers = |e: &Engine| {
        let snap = e.snapshot(Some("g")).unwrap();
        let found = e.search_on(Some("g"), "acq", &spec).unwrap();
        let core = e.search_on(Some("g"), "global", &spec).unwrap();
        let peeled: Vec<_> = cx_algos::Global.fixed_k(&snap.graph, hub, 3).into_iter().collect();
        assert_eq!(core, peeled, "global must be the peeled connected 3-core");
        (snap.generation, tree_canonical(&snap.tree), fingerprint(&found), fingerprint(&core))
    };

    // The stored tree is one `update` produced, not a fresh build: node
    // ids differ from a rebuild's, the canonical form must not.
    let served = {
        let e = Engine::open_durable(&dir).unwrap();
        e.try_add_graph("g", g).unwrap();
        for step in &script[..3] {
            e.apply_edits(Some("g"), &step.add, &step.remove).unwrap();
        }
        e.compact_store().unwrap();
        answers(&e)
    };
    let sidecar = dir.join(cx_store::SNAPSHOTS_DIR).join(cx_store::index_file_name("g", served.0));
    assert!(sidecar.exists(), "compaction writes the index beside the checkpoint");

    let (loaded, rebuilt) = boots();
    assert_eq!(answers(&Engine::open_durable(&dir).unwrap()), served);
    assert_eq!(boots(), (loaded + 1, rebuilt), "a whole sidecar is loaded");

    // An index that is whole and bound to its checkpoint but is not a
    // CL-tree of the graph: the tree's own validation turns it down.
    std::fs::remove_file(&sidecar).unwrap();
    {
        let (store, state) = cx_store::Store::open(&dir).unwrap();
        let rg = &state.graphs["g"];
        let lie = cx_store::GraphCheckpoint {
            name: "g".into(),
            generation: rg.generation,
            graph: Arc::clone(&rg.graph),
            profiles: Vec::new(),
            index: Some(b"CXT1 but not a tree".to_vec()),
        };
        store.compact(&[lie], Some("g".into()), &[("g".into(), rg.generation)]).unwrap();
    }
    assert!(sidecar.exists());
    assert_eq!(answers(&Engine::open_durable(&dir).unwrap()), served);
    assert_eq!(boots(), (loaded + 1, rebuilt + 1), "an invalid index is rebuilt");

    // No sidecar at all — what a store written before sidecars looks like.
    std::fs::remove_file(&sidecar).unwrap();
    let e = Engine::open_durable(&dir).unwrap();
    assert_eq!(answers(&e), served);
    assert_eq!(boots(), (loaded + 1, rebuilt + 2), "a missing index is rebuilt");

    // Edits after the checkpoint leave the sidecar a generation behind:
    // the graph comes from the WAL, the index from a rebuild; the next
    // compaction stores the current one and the boot after it loads.
    e.compact_store().unwrap();
    assert!(sidecar.exists(), "compacting an unchanged generation restores its sidecar");
    for step in &script[3..] {
        e.apply_edits(Some("g"), &step.add, &step.remove).unwrap();
    }
    let served = answers(&e);
    drop(e);
    let e = Engine::open_durable(&dir).unwrap();
    assert_eq!(answers(&e), served);
    assert_eq!(boots(), (loaded + 1, rebuilt + 3), "a stale index is rebuilt");
    e.compact_store().unwrap();
    drop(e);
    assert!(!sidecar.exists(), "the dead checkpoint's sidecar is swept");
    assert_eq!(answers(&Engine::open_durable(&dir).unwrap()), served);
    assert_eq!(boots(), (loaded + 2, rebuilt + 3));

    let _ = std::fs::remove_dir_all(&dir);
}
