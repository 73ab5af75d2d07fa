//! CODICIL is the largest data-parallel site left in the workspace: its
//! content k-NN and pair weights fan out over the cx-par pool. Its
//! clustering must not depend on the thread count.

use cx_algos::Codicil;
use cx_check::oracle::with_threads;
use cx_datagen::{dblp_like, DblpParams};

#[test]
fn codicil_labels_identical_at_one_two_and_eight_threads() {
    let (g, _) = dblp_like(&DblpParams::scaled(5_000, 42));
    assert!(g.vertex_count() >= 5_000);
    let labels = |threads| with_threads(threads, || Codicil::default().detect(&g).labels);
    let base = labels(1);
    for threads in [2, 8] {
        assert!(labels(threads) == base, "labels differ at CX_THREADS={threads}");
    }
}
