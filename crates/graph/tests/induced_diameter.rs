//! `induced_diameter` against an all-pairs reference on the induced
//! subgraph, over seeded member sets of a DBLP-like graph.

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::traversal::induced_diameter;
use cx_graph::{AttributedGraph, VertexId};
use cx_par::rng::Rng64;

/// Floyd–Warshall over the subgraph induced by `members`; `None` when it
/// is empty or some pair is unreachable.
fn reference(g: &AttributedGraph, members: &[VertexId]) -> Option<usize> {
    const INF: usize = usize::MAX / 2;
    let c = members.len();
    let mut d = vec![vec![INF; c]; c];
    for i in 0..c {
        d[i][i] = 0;
        for j in 0..c {
            if g.has_edge(members[i], members[j]) {
                d[i][j] = 1;
            }
        }
    }
    for k in 0..c {
        for i in 0..c {
            for j in 0..c {
                d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
            }
        }
    }
    let widest = d.iter().flatten().copied().max()?;
    (widest < INF).then_some(widest)
}

#[test]
fn matches_floyd_warshall_on_seeded_member_sets() {
    let (g, _) = dblp_like(&DblpParams::scaled(2_000, 7));
    let n = g.vertex_count() as u32;
    let mut rng = Rng64::seed_from_u64(0xD1A);
    let (mut connected, mut disconnected) = (0, 0);
    for _ in 0..60 {
        // Grow a set outward from a random vertex, so most are connected…
        let mut members = vec![VertexId(rng.gen_range(0..n))];
        let target = rng.gen_range(1..40usize);
        for _ in 0..4 * target {
            let from = members[rng.gen_range(0..members.len())];
            let nbrs = g.neighbors(from);
            if nbrs.is_empty() || members.len() >= target {
                break;
            }
            let next = nbrs[rng.gen_range(0..nbrs.len())];
            if !members.contains(&next) {
                members.push(next);
            }
        }
        // …and now and then throw in a vertex from anywhere.
        if rng.gen_bool(0.25) {
            let stray = VertexId(rng.gen_range(0..n));
            if !members.contains(&stray) {
                members.push(stray);
            }
        }
        let got = induced_diameter(&g, &members);
        assert_eq!(got, reference(&g, &members), "members {members:?}");
        match got {
            Some(_) => connected += 1,
            None => disconnected += 1,
        }
    }
    assert!(connected >= 20 && disconnected >= 3, "{connected} connected, {disconnected} not");
}

#[test]
fn single_vertex_and_disconnected_pair() {
    let (g, _) = dblp_like(&DblpParams::scaled(2_000, 7));
    let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
    assert_eq!(induced_diameter(&g, &[hub]), Some(0));
    // A hub with more neighbours than the member set takes the probing
    // branch of the adjacency build.
    let nbr = g.neighbors(hub)[0];
    assert_eq!(induced_diameter(&g, &[nbr, hub]), Some(1));
    let far = g.vertices().find(|&v| v != hub && !g.has_edge(hub, v)).unwrap();
    assert_eq!(induced_diameter(&g, &[hub, far]), None);
    assert_eq!(induced_diameter(&g, &[]), None);
}
