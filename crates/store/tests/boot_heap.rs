//! Boot's heap high-water mark, counted by the allocator itself.
//!
//! `Store::open` reads each checkpoint in pieces and decodes the graph
//! from them as they arrive, so the heap it needs on the way is what it
//! hands back plus small transients — not a second copy of the file.
//! A counting global allocator holds it to that on a checkpoint of
//! 50,000 vertices, and holds a hostile column length to no allocation
//! at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::VertexId;
use cx_store::{crc32, snapshot_file_name, GraphCheckpoint, Store, StoreError, StoredProfile};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`], keeping the live heap's size and its peak.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` through one of the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block beside the old one, which is what a
        // moving realloc holds for a moment.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its value, the live heap it left behind and the
/// highest the live heap rose above where it started, in bytes.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    let kept = LIVE.load(Relaxed).saturating_sub(base);
    (out, kept, PEAK.load(Relaxed) - base)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cx-boot-heap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A compacted store holding one seeded graph of `authors` vertices and
/// a profile for every tenth; returns its checkpoint file.
fn store_with_checkpoint(dir: &Path, authors: usize) -> PathBuf {
    let (g, _) = dblp_like(&DblpParams::scaled(authors, 42));
    let profiles = (0..authors as u32 / 10)
        .map(|i| StoredProfile {
            vertex: VertexId(10 * i),
            name: format!("Author {i}"),
            areas: vec![format!("area {}", i % 12)],
            institutes: vec![format!("Institute {}", i % 97)],
            interests: vec!["community search".into(), format!("topic {}", i % 31)],
        })
        .collect();
    let cp = GraphCheckpoint {
        name: "g".into(),
        generation: 1,
        graph: Arc::new(g),
        profiles,
        index: None,
    };
    let (store, _) = Store::open_with_fsync(dir, false).unwrap();
    store.compact(&[cp], Some("g".into()), &[("g".into(), 1)]).unwrap();
    dir.join(cx_store::SNAPSHOTS_DIR).join(snapshot_file_name("g", 1))
}

#[test]
fn open_peaks_within_a_quarter_of_what_it_recovers() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let dir = fresh_dir("bound");
    let file = store_with_checkpoint(&dir, 50_000);
    let file_bytes = std::fs::metadata(&file).unwrap().len() as usize;

    let (opened, kept, peak) = measured(|| Store::open_with_fsync(&dir, false).unwrap());
    let (_store, state) = opened;
    assert_eq!(state.graphs["g"].graph.vertex_count(), 50_000);
    assert!(kept > file_bytes / 2, "the recovered state holds {kept} bytes");
    let ratio = peak as f64 / kept as f64;
    assert!(
        ratio <= 1.25,
        "Store::open peaked at {peak} bytes of live heap against the {kept} it recovered \
         ({ratio:.2}x, checkpoint file {file_bytes} bytes)"
    );
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hostile_column_length_allocates_nothing_for_it() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let dir = fresh_dir("hostile");
    let file = store_with_checkpoint(&dir, 2_000);
    let whole = std::fs::read(&file).unwrap();
    // The graph block's vertex count, set to u32::MAX and sealed again
    // with a corrected checksum.
    let mut body = whole[20..].to_vec();
    let n_at = body.windows(4).position(|w| w == b"CXG1").unwrap() + 4;
    body[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut hostile = whole[..16].to_vec();
    hostile.extend_from_slice(&crc32(&body).to_le_bytes());
    hostile.extend_from_slice(&body);
    std::fs::write(&file, &hostile).unwrap();
    drop((whole, body, hostile));

    let (opened, _, peak) = measured(|| Store::open_with_fsync(&dir, false).map(drop));
    match opened {
        Err(StoreError::Graph(_)) => {}
        other => panic!("expected a graph snapshot error, got {other:?}"),
    }
    assert!(peak < 1 << 20, "a hostile length cost {peak} bytes of heap");
    let _ = std::fs::remove_dir_all(&dir);
}
