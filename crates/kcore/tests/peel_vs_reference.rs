//! `PeelScratch`, the workspace's one subset peel, against cx-check's
//! naive fixpoint peel (`reference_core_component`), which shares no code
//! with it: seeded random graphs × random member multisets × query sets
//! of 1–3 vertices × k ∈ 0..=5, all through one reused scratch, plus a
//! member set large enough to take the frontier-parallel path. Every case
//! also runs the seed + test entry, with a seeded test, against the
//! reference on the members that pass it.

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
/// Returns whether a community was found. The seed + test entry runs on
/// the same case with a test seeded from it.
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
    // About three vertices in four pass a test seeded by the case.
    let salt = context.bytes().chain(k.to_le_bytes()).fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    let test = |u: VertexId| (u64::from(u.0) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 != 0;
    agree_seeded(s, g, members, test, qs, k, context);
    found
}

/// The seed + test entry against the reference on `members` filtered by
/// `test`. Returns whether a community was found.
fn agree_seeded(
    s: &mut PeelScratch,
    g: &AttributedGraph,
    members: &[VertexId],
    test: impl Fn(VertexId) -> bool,
    qs: &[VertexId],
    k: u32,
    context: &str,
) -> bool {
    let passing: Vec<VertexId> = members.iter().copied().filter(|&u| test(u)).collect();
    let want = reference(g, &passing, qs, k);
    let mut out = vec![v(0)];
    let found = s.connected_k_core_in_seed_into(g, members.iter().copied(), test, qs, k, &mut out);
    assert_eq!(found, want.is_some(), "seeded: {context} passing={passing:?} qs={qs:?} k={k}");
    assert_eq!(out, want.unwrap_or_default(), "seeded: {context} qs={qs:?} k={k}");
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
/// components, isolated members, repeated query vertices, a path whose
/// 2-core peel must cascade to nothing, a peel that splits q's
/// component, q missing from the seed or failing the test, and query
/// vertices in different components of the admitted set.
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

    // Two K4s, 0-3 and 4-7, joined through 8 (degree 2): at k = 3 the
    // peel removes 8 and splits q's component, so the answer is q's K4.
    let k4 = |b: u32| (0..4).flat_map(move |a| (a + 1..4).map(move |c| (b + a, b + c)));
    let joined = graph(9, k4(0).chain(k4(4)).chain([(0, 8), (8, 4)]));
    let all: Vec<VertexId> = joined.vertices().collect();
    let every = |_: VertexId| true;
    for k in 0..=4 {
        for &q in &all {
            agree(&mut s, &joined, &all, &[q], k, "joined K4s");
        }
        agree(&mut s, &joined, &all, &[v(1), v(6)], k, "joined K4s");
    }
    assert!(agree_seeded(&mut s, &joined, &all, every, &[v(0)], 3, "split"));
    assert!(!agree_seeded(&mut s, &joined, &all, every, &[v(0), v(5)], 3, "split"));
    // q absent from the seed, and q failing the test.
    let without_q: Vec<VertexId> = all.iter().copied().filter(|&u| u != v(2)).collect();
    assert!(!agree_seeded(&mut s, &joined, &without_q, every, &[v(2)], 0, "q not seeded"));
    assert!(!agree_seeded(&mut s, &joined, &all, |u| u != v(2), &[v(2)], 0, "q fails"));
    assert!(!agree_seeded(&mut s, &joined, &all, |u| u != v(6), &[v(2), v(6)], 0, "q₂ fails"));
    // The query vertices in different components of the admitted set: 8
    // fails the test, which cuts the two K4s apart at every k.
    for k in 0..=3 {
        let found = agree_seeded(&mut s, &joined, &all, |u| u != v(8), &[v(1), v(6)], k, "cut");
        assert!(!found, "cut k={k}");
        let found = agree_seeded(&mut s, &joined, &all, every, &[v(1), v(6)], k, "uncut");
        assert_eq!(found, k <= 2, "uncut k={k}");
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
