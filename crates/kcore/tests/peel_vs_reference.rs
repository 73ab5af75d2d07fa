//! `PeelScratch`, the workspace's one subset peel, against cx-check's
//! naive fixpoint peel (`reference_core_component`), which shares no code
//! with it: seeded random graphs × random member multisets × query sets
//! of 1–3 vertices × k ∈ 0..=5, all through one reused scratch, plus a
//! member set large enough to take the frontier-parallel path.

use cx_check::invariants::reference_core_component;
use cx_check::oracle::with_threads;
use cx_graph::{AttributedGraph, GraphBuilder, VertexId};
use cx_kcore::scratch::PAR_MEMBER_THRESHOLD;
use cx_kcore::PeelScratch;
use cx_par::rng::Rng64;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

fn graph(n: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_vertex(&format!("v{i}"), &[]);
    }
    for (a, c) in edges {
        b.add_edge(v(a), v(c));
    }
    b.build()
}

/// The reference answer for a query set: q₀'s connected k-core inside
/// `members`, provided every other query vertex is in it too.
fn reference(
    g: &AttributedGraph,
    members: &[VertexId],
    qs: &[VertexId],
    k: u32,
) -> Option<Vec<VertexId>> {
    reference_core_component(g, members, qs[0], k)
        .filter(|c| qs.iter().all(|q| c.binary_search(q).is_ok()))
}

/// Runs one case through the scratch and the reference and compares.
/// Returns whether a community was found.
fn agree(
    s: &mut PeelScratch,
    g: &AttributedGraph,
    members: &[VertexId],
    qs: &[VertexId],
    k: u32,
    context: &str,
) -> bool {
    let mut out = vec![v(0)]; // stale content the call must clear
    let found = s.connected_k_core_containing_into(g, members, qs, k, &mut out);
    let want = reference(g, members, qs, k);
    assert_eq!(found, want.is_some(), "{context} qs={qs:?} k={k}");
    assert_eq!(out, want.unwrap_or_default(), "{context} qs={qs:?} k={k}");
    found
}

#[test]
fn scratch_matches_naive_peel_on_seeded_random_graphs() {
    let mut s = PeelScratch::new();
    let (mut hits, mut misses) = (0usize, 0usize);
    for seed in 0..60u64 {
        let mut rng = Rng64::seed_from_u64(0x9EE1 ^ seed);
        let n = rng.gen_range(1..=40u32);
        let m = rng.gen_range(0..=4 * n);
        let g = graph(n, (0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
        for round in 0..6 {
            // Every vertex once, or a random multiset (duplicates likely).
            let members: Vec<VertexId> = if round == 0 {
                g.vertices().collect()
            } else {
                (0..rng.gen_range(0..=2 * n)).map(|_| v(rng.gen_range(0..n))).collect()
            };
            for _ in 0..4 {
                let qs: Vec<VertexId> = (0..rng.gen_range(1..=3usize))
                    .map(|_| match members.len() {
                        len if len > 0 && rng.gen_bool(0.8) => members[rng.gen_range(0..len)],
                        _ => v(rng.gen_range(0..n)),
                    })
                    .collect();
                for k in 0..=5 {
                    let context = format!("seed={seed} round={round} members={members:?}");
                    if agree(&mut s, &g, &members, &qs, k, &context) {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
        }
    }
    assert!(hits > 1_000 && misses > 1_000, "hits {hits}, misses {misses}");
}

/// Hand-built cases: a pendant, an induced triangle inside a K4, two
/// components, isolated members, repeated query vertices, and a path
/// whose 2-core peel must cascade to nothing.
#[test]
fn scratch_matches_naive_peel_on_fixtures() {
    // K4 on 0-3, pendant 4 attached to 0, plus disjoint triangle 5-7.
    let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (5, 6), (6, 7), (5, 7)];
    let g = graph(8, edges);
    let all: Vec<VertexId> = g.vertices().collect();
    let mut s = PeelScratch::new();
    for members in [&all[..], &[v(0), v(1), v(2)], &[v(4), v(6)], &[]] {
        for k in 0..=5 {
            for &q in &all {
                agree(&mut s, &g, members, &[q], k, "fixture");
            }
            agree(&mut s, &g, members, &[v(0), v(5)], k, "fixture");
            agree(&mut s, &g, members, &[v(3), v(0), v(3)], k, "fixture");
        }
    }
    let path = graph(4, [(0, 1), (1, 2), (2, 3)]);
    let all: Vec<VertexId> = path.vertices().collect();
    for k in 0..=2 {
        agree(&mut s, &path, &all, &[v(3)], k, "path");
    }
}

/// A ring of K4 blocks joined by one bridge edge each, with at least
/// [`PAR_MEMBER_THRESHOLD`] members, at `CX_THREADS=2`: the peel and the
/// component BFS take the frontier-parallel path and must still match.
#[test]
fn parallel_frontier_matches_naive_peel_on_ring_of_k4() {
    let blocks = 16_384u32;
    let g = graph(
        blocks * 4,
        (0..blocks).flat_map(|blk| {
            let base = blk * 4;
            let clique = (0..4).flat_map(move |a| (a + 1..4).map(move |c| (base + a, base + c)));
            clique.chain([(base, (blk + 1) % blocks * 4)])
        }),
    );
    let all: Vec<VertexId> = g.vertices().collect();
    assert!(all.len() >= PAR_MEMBER_THRESHOLD);
    // Dropping one vertex of block 7 unravels that block at k = 3 and
    // cuts the ring there; listing every vertex twice changes nothing.
    let mut cut = all.clone();
    cut.retain(|&u| u != v(7 * 4 + 1));
    let twice: Vec<VertexId> = all.iter().chain(&all).copied().collect();
    with_threads(2, || {
        let mut s = PeelScratch::new();
        for members in [&all, &cut, &twice] {
            for (qs, k) in [
                (&[v(0)][..], 3),
                (&[v(7 * 4 + 2)], 3),
                (&[v(1), v(40_001)], 3),
                (&[v(4)], 4),
                (&[v(5)], 2),
            ] {
                agree(&mut s, &g, members, qs, k, "ring");
            }
        }
    });
}
