//! A damaged checkpoint, read the way boot reads it: through
//! `Store::open`, not through the envelope check alone.
//!
//! One small seeded graph with profiles is compacted into a store. Its
//! `.cxs` file is then cut at every byte, flipped at a sample of bytes
//! across the header, the graph block and the profile tail, and
//! re-sealed (checksum corrected) around a flipped graph block and
//! around a hostile column length. Each damaged file must give exactly
//! one error: the checksum mismatch wherever the checksum fails, the
//! length error wherever the header's body length disagrees with the
//! file, and the graph snapshot error for the re-sealed files.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cx_datagen::dblp_like;
use cx_graph::{GraphError, VertexId};
use cx_store::{crc32, snapshot_file_name, GraphCheckpoint, Store, StoreError, StoredProfile};

const HEADER: usize = 20;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-damaged-cp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A compacted store holding one seeded graph with a few profiles, and
/// the path of its checkpoint file.
fn store_with_checkpoint(dir: &Path) -> PathBuf {
    let (g, _) = dblp_like(&cx_check::workload::check_params(40, 3));
    let profiles = (0..6)
        .map(|v| StoredProfile {
            vertex: VertexId(v * 5),
            name: format!("Author {v}"),
            areas: vec!["databases".into()],
            institutes: vec![format!("Institute {}", v % 2)],
            interests: vec!["graphs".into(), "communities".into()],
        })
        .collect();
    let (store, _) = Store::open_with_fsync(dir, false).unwrap();
    let cp = GraphCheckpoint {
        name: "g".into(),
        generation: 1,
        graph: Arc::new(g),
        profiles,
        index: None,
    };
    store.compact(&[cp], Some("g".into()), &[("g".into(), 1)]).unwrap();
    dir.join(cx_store::SNAPSHOTS_DIR).join(snapshot_file_name("g", 1))
}

/// Boots the store over `bytes` written as its checkpoint file.
fn open_with(dir: &Path, file: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    std::fs::write(file, bytes).unwrap();
    Store::open_with_fsync(dir, false).map(drop)
}

fn corrupt_message(case: &str, result: Result<(), StoreError>) -> String {
    match result {
        Err(StoreError::Corrupt(msg)) => msg,
        other => panic!("{case}: expected StoreError::Corrupt, got {other:?}"),
    }
}

fn assert_checksum_mismatch(case: &str, result: Result<(), StoreError>) {
    let msg = corrupt_message(case, result);
    assert_eq!(msg, "CXSS checksum mismatch", "{case}");
}

fn assert_length_mismatch(case: &str, result: Result<(), StoreError>, body: usize, said: u64) {
    let msg = corrupt_message(case, result);
    assert_eq!(msg, format!("CXSS body is {body} bytes, its header says {said}"), "{case}");
}

fn header_len(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[8..16].try_into().unwrap())
}

/// `body` sealed again under the header of `whole`, checksum corrected.
fn resealed(whole: &[u8], body: &[u8]) -> Vec<u8> {
    let mut file = whole[..16].to_vec();
    file.extend_from_slice(&crc32(body).to_le_bytes());
    file.extend_from_slice(body);
    file
}

/// Offset in the file of the embedded CXG1 graph block's magic.
fn graph_block(whole: &[u8]) -> usize {
    whole.windows(4).position(|w| w == b"CXG1").expect("the graph block is in the file")
}

#[test]
fn every_damaged_checkpoint_gets_its_one_error_through_store_open() {
    let dir = fresh_dir("store");
    let file = store_with_checkpoint(&dir);
    let whole = std::fs::read(&file).unwrap();
    let body_len = header_len(&whole);
    assert_eq!(whole.len() as u64, HEADER as u64 + body_len);
    open_with(&dir, &file, &whole).expect("the undamaged checkpoint boots");

    // Cut at every byte.
    for cut in 0..whole.len() {
        let case = format!("cut at {cut}");
        let result = open_with(&dir, &file, &whole[..cut]);
        if cut < HEADER {
            let msg = corrupt_message(&case, result);
            assert!(msg.starts_with("truncated "), "{case}: {msg}");
        } else {
            assert_length_mismatch(&case, result, cut - HEADER, body_len);
        }
    }

    // Flip a sample of bytes: every header byte, then every 7th byte of
    // the body, which crosses the graph block and the profile tail.
    let block = graph_block(&whole);
    let tail = whole.len() - 64;
    assert!(block < tail, "the sample must reach past the graph block");
    let sample = (0..HEADER).chain((HEADER..whole.len()).step_by(7)).chain(tail..whole.len());
    for at in sample {
        let mut flipped = whole.clone();
        flipped[at] ^= 0x10;
        let case = format!("byte {at} flipped");
        let result = open_with(&dir, &file, &flipped);
        match at {
            0..4 => assert_eq!(corrupt_message(&case, result), "bad CXSS magic", "{case}"),
            4..8 => match result {
                Err(StoreError::UnsupportedVersion { supported: 2, .. }) => {}
                other => panic!("{case}: expected UnsupportedVersion, got {other:?}"),
            },
            8..16 => {
                assert_length_mismatch(&case, result, whole.len() - HEADER, header_len(&flipped))
            }
            _ => assert_checksum_mismatch(&case, result),
        }
    }

    // A flipped graph block sealed again with a corrected checksum: the
    // graph decoder must reject it.
    let mut body = whole[HEADER..].to_vec();
    body[block - HEADER] ^= 0x10;
    match open_with(&dir, &file, &resealed(&whole, &body)) {
        Err(StoreError::Graph(GraphError::Snapshot(msg))) => assert_eq!(msg, "bad magic"),
        other => panic!("re-sealed flipped magic: expected a snapshot error, got {other:?}"),
    }

    // A hostile vertex count, sealed likewise: rejected by the length
    // check that runs before the degree column is allocated.
    let mut body = whole[HEADER..].to_vec();
    let n_at = block - HEADER + 4;
    body[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match open_with(&dir, &file, &resealed(&whole, &body)) {
        Err(StoreError::Graph(GraphError::Snapshot(msg))) => {
            assert!(msg.starts_with("truncated degree list: 4294967295 entries claimed"), "{msg}")
        }
        other => panic!("re-sealed hostile length: expected a snapshot error, got {other:?}"),
    }

    open_with(&dir, &file, &whole).expect("the restored checkpoint boots again");
    let _ = std::fs::remove_dir_all(&dir);
}
