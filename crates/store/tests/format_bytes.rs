//! Every on-disk format, pinned byte for byte: the length and CRC-32 of
//! the CXG1 graph snapshot, the CXT1 CL-tree snapshot, the WAL, and every
//! file a compaction leaves (MANIFEST, `.cxs` checkpoint, `.cxi` index
//! sidecar), for the Figure 5 graph and a seeded DBLP-like graph with
//! profiles.
//!
//! A change to any codec that alters a single byte fails here; a
//! refactor of the codecs that passes this test wrote the same files.

use std::path::PathBuf;

use cx_cltree::ClTree;
use cx_datagen::{dblp_like, figure5_graph, generate_profiles};
use cx_explorer::{Engine, Profile};
use cx_graph::AttributedGraph;
use cx_store::{crc32, MANIFEST_FILE, SNAPSHOTS_DIR, WAL_FILE};

/// `(what, length, crc32)` of every pinned byte string.
type Pins = Vec<(String, usize, u32)>;

fn pin(pins: &mut Pins, what: impl Into<String>, bytes: &[u8]) {
    pins.push((what.into(), bytes.len(), crc32(bytes)));
}

fn dblp() -> (AttributedGraph, Vec<usize>) {
    dblp_like(&cx_check::workload::check_params(3_000, 1234))
}

fn cxg1(g: &AttributedGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = cx_graph::io::write_snapshot(g, &mut buf);
    buf
}

fn cxt1(g: &AttributedGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = ClTree::build(g).write_snapshot(&mut buf);
    buf
}

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-format-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One history that logs every `Record` kind, then a compaction.
fn store_files(pins: &mut Pins) {
    let dir = fresh_dir();
    let (g, area_of) = dblp();
    let profiles: Vec<_> = generate_profiles(&g, &area_of, 4)
        .into_iter()
        .map(|p| {
            let profile = Profile {
                name: p.name,
                areas: p.areas,
                institutes: p.institutes,
                interests: p.interests,
            };
            (p.vertex, profile)
        })
        .collect();
    let step = cx_check::workload::edit_script(&g, 1, 99).remove(0);

    let engine = Engine::open_durable(&dir).unwrap();
    engine.try_add_graph("fig5", figure5_graph()).unwrap();
    engine.try_add_graph("dblp", g).unwrap();
    engine.try_add_graph("gone", figure5_graph()).unwrap();
    engine.set_profiles(Some("dblp"), profiles).unwrap();
    engine.apply_edits(Some("dblp"), &step.add, &step.remove).unwrap();
    engine.remove_graph("gone").unwrap();
    engine.set_default_graph("dblp").unwrap();
    pin(pins, WAL_FILE, &std::fs::read(dir.join(WAL_FILE)).unwrap());

    engine.compact_store().unwrap();
    drop(engine);
    pin(pins, MANIFEST_FILE, &std::fs::read(dir.join(MANIFEST_FILE)).unwrap());
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join(SNAPSHOTS_DIR))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        pin(pins, name, &std::fs::read(&path).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_format_writes_the_pinned_bytes() {
    let mut pins = Pins::new();
    let fig5 = figure5_graph();
    let (dblp, _) = dblp();
    pin(&mut pins, "CXG1 figure5", &cxg1(&fig5));
    pin(&mut pins, "CXG1 dblp", &cxg1(&dblp));
    pin(&mut pins, "CXT1 figure5", &cxt1(&fig5));
    pin(&mut pins, "CXT1 dblp", &cxt1(&dblp));
    store_files(&mut pins);

    let expected: Vec<(String, usize, u32)> =
        EXPECTED.iter().map(|&(what, len, crc)| (what.to_owned(), len, crc)).collect();
    assert_eq!(pins, expected, "an on-disk format changed");
}

/// Recorded from the codecs as they were before they shared one byte
/// codec and one sealed-file envelope. The WAL, MANIFEST and dblp rows
/// were re-recorded when the history stopped setting coordinates; the
/// fig5 rows, whose history never changed, kept theirs.
const EXPECTED: &[(&str, usize, u32)] = &[
    ("CXG1 figure5", 330, 3843439195),
    ("CXG1 dblp", 220511, 1338278612),
    ("CXT1 figure5", 192, 3560686706),
    ("CXT1 dblp", 24872, 3609694659),
    ("wal.log", 234227, 3288581540),
    ("MANIFEST", 180, 3681345323),
    ("64626c70-3.cxi", 24892, 412432616),
    ("64626c70-3.cxs", 228363, 1375950260),
    ("66696735-1.cxi", 212, 3988716899),
    ("66696735-1.cxs", 383, 124041296),
];
