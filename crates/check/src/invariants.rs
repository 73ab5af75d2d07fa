//! Invariant checks over returned communities.
//!
//! Every assertion here is computed *directly on the graph* with naive,
//! obviously-correct algorithms (fixpoint peeling, plain BFS) — never by
//! calling the optimised code under test — so a bug in `cx-kcore`,
//! `cx-cltree` or `cx-acq` cannot hide itself from its own oracle.
//!
//! The invariants come from the problem definitions (paper §2, and Fang et
//! al.'s community-search survey):
//!
//! 1. **Connectivity** — a community is a connected subgraph.
//! 2. **Query membership** — every query vertex belongs to it.
//! 3. **Structure cohesiveness** — every member has ≥ k neighbours inside
//!    (k-core), or every internal edge is in ≥ k−2 internal triangles
//!    (k-truss).
//! 4. **Theme consistency** — every member carries every keyword of the
//!    community's shared-keyword set.
//! 5. **Keyword maximality (ACQ)** — no strict superset of the shared
//!    keyword set admits a qualifying community for the same `q`, `k`.

use std::collections::HashSet;
use std::fmt;

use cx_acq::AcqResult;
use cx_cltree::ClTree;
use cx_graph::{AttributedGraph, Community, KeywordId, VertexId};

/// One violated invariant, with enough context to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short stable rule name (`connectivity`, `min-degree`, …).
    pub rule: &'static str,
    /// Human-readable description of what failed, with the witnesses.
    pub detail: String,
}

impl Violation {
    fn new(rule: &'static str, detail: impl Into<String>) -> Self {
        Self { rule, detail: detail.into() }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Whether `members` (as a set) induces a connected subgraph of `g`.
/// Empty sets count as connected; singletons always are.
fn is_connected(g: &AttributedGraph, members: &[VertexId]) -> bool {
    let Some(&start) = members.first() else { return true };
    let set: HashSet<VertexId> = members.iter().copied().collect();
    let mut seen = HashSet::with_capacity(set.len());
    let mut stack = vec![start];
    seen.insert(start);
    while let Some(v) = stack.pop() {
        for &u in g.neighbors(v) {
            if set.contains(&u) && seen.insert(u) {
                stack.push(u);
            }
        }
    }
    seen.len() == set.len()
}

/// Degree of `v` inside the member set.
fn internal_degree(g: &AttributedGraph, set: &HashSet<VertexId>, v: VertexId) -> usize {
    g.neighbors(v).iter().filter(|u| set.contains(u)).count()
}

/// Naive fixpoint peel: repeatedly drop members with internal degree < k
/// until stable, then keep q's connected component. Quadratic and proud of
/// it — this is the reference implementation the fast paths are judged
/// against, here and by the tests of `cx-kcore`'s subset peel. Returns
/// `None` when q is peeled away (no qualifying community exists within
/// `members`).
pub fn reference_core_component(
    g: &AttributedGraph,
    members: &[VertexId],
    q: VertexId,
    k: u32,
) -> Option<Vec<VertexId>> {
    let mut alive: HashSet<VertexId> = members.iter().copied().collect();
    if !alive.contains(&q) {
        return None;
    }
    loop {
        let doomed: Vec<VertexId> = alive
            .iter()
            .copied()
            .filter(|&v| internal_degree(g, &alive, v) < k as usize)
            .collect();
        if doomed.is_empty() {
            break;
        }
        for v in doomed {
            alive.remove(&v);
        }
    }
    if !alive.contains(&q) {
        return None;
    }
    let mut comp = component_of(g, &alive, q);
    comp.sort_unstable();
    Some(comp)
}

fn component_of(g: &AttributedGraph, set: &HashSet<VertexId>, q: VertexId) -> Vec<VertexId> {
    let mut seen = HashSet::new();
    let mut stack = vec![q];
    seen.insert(q);
    while let Some(v) = stack.pop() {
        for &u in g.neighbors(v) {
            if set.contains(&u) && seen.insert(u) {
                stack.push(u);
            }
        }
    }
    seen.into_iter().collect()
}

/// All vertices of `g` carrying every keyword in `ws`, sorted.
fn carriers(g: &AttributedGraph, ws: &[KeywordId]) -> Vec<VertexId> {
    g.vertices().filter(|&v| ws.iter().all(|&w| g.has_keyword(v, w))).collect()
}

/// Checks the structural invariants of one community: members in bounds,
/// connectivity, query-vertex membership, min internal degree ≥ k, and
/// theme consistency. Returns every violation found (empty = clean).
pub fn check_community(
    g: &AttributedGraph,
    c: &Community,
    qs: &[VertexId],
    k: u32,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if c.is_empty() {
        out.push(Violation::new("non-empty", "community has no members"));
        return out;
    }
    for &v in c.vertices() {
        if !g.contains(v) {
            out.push(Violation::new("bounds", format!("member {v:?} is not a vertex of the graph")));
            return out;
        }
    }
    for &q in qs {
        if !c.contains(q) {
            out.push(Violation::new(
                "query-membership",
                format!("query vertex {} ({:?}) missing from community", g.label(q), q),
            ));
        }
    }
    if !is_connected(g, c.vertices()) {
        out.push(Violation::new(
            "connectivity",
            format!("community of {} vertices is disconnected", c.len()),
        ));
    }
    let set: HashSet<VertexId> = c.vertices().iter().copied().collect();
    for &v in c.vertices() {
        let d = internal_degree(g, &set, v);
        if d < k as usize {
            out.push(Violation::new(
                "min-degree",
                format!("member {} has internal degree {d} < k={k}", g.label(v)),
            ));
        }
    }
    for &w in c.shared_keywords() {
        for &v in c.vertices() {
            if !g.has_keyword(v, w) {
                out.push(Violation::new(
                    "theme",
                    format!(
                        "member {} does not carry claimed shared keyword {:?}",
                        g.label(v),
                        g.interner().name(w).unwrap_or("<unknown>")
                    ),
                ));
            }
        }
    }
    out
}

/// Checks a full [`AcqResult`] for query `q`, degree `k` and effective
/// keyword set `s` (the resolved `S ⊆ W(q)`):
///
/// * an empty result is only legal when `q` has no connected k-core at all;
/// * every community passes [`check_community`];
/// * every community's theme has exactly `shared_keyword_count` keywords,
///   all drawn from `s`;
/// * **maximality**: for every returned theme `L` and every unused keyword
///   `w ∈ s ∖ L`, the vertices carrying `L ∪ {w}` must *not* contain a
///   connected k-core with `q` (otherwise a strictly larger shared set was
///   missed). Skipped when the result reports `truncated` (budget hit).
pub fn check_acq_result(
    g: &AttributedGraph,
    q: VertexId,
    k: u32,
    s: &[KeywordId],
    res: &AcqResult,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let all: Vec<VertexId> = g.vertices().collect();
    if res.communities.is_empty() {
        if reference_core_component(g, &all, q, k).is_some() {
            out.push(Violation::new(
                "completeness",
                format!("empty result but {} has a connected {k}-core", g.label(q)),
            ));
        }
        return out;
    }
    for c in &res.communities {
        out.extend(check_community(g, c, &[q], k));
        if c.shared_keywords().len() != res.shared_keyword_count {
            out.push(Violation::new(
                "theme-size",
                format!(
                    "community theme has {} keywords, result claims {}",
                    c.shared_keywords().len(),
                    res.shared_keyword_count
                ),
            ));
        }
        for &w in c.shared_keywords() {
            if !s.contains(&w) {
                out.push(Violation::new(
                    "theme-scope",
                    format!(
                        "shared keyword {:?} is outside the query set S",
                        g.interner().name(w).unwrap_or("<unknown>")
                    ),
                ));
            }
        }
        if res.truncated {
            continue; // budget exhausted: maximality not guaranteed
        }
        let theme = c.shared_keywords();
        for &w in s.iter().filter(|w| !theme.contains(w)) {
            let mut extended: Vec<KeywordId> = theme.to_vec();
            extended.push(w);
            let candidates = carriers(g, &extended);
            if reference_core_component(g, &candidates, q, k).is_some() {
                out.push(Violation::new(
                    "keyword-maximality",
                    format!(
                        "theme of size {} is not maximal: adding {:?} still admits a \
                         connected {k}-core with {}",
                        theme.len(),
                        g.interner().name(w).unwrap_or("<unknown>"),
                        g.label(q)
                    ),
                ));
            }
        }
    }
    out
}

/// Checks the k-truss invariant: the community is connected, contains the
/// query vertex, and every internal edge closes ≥ k−2 triangles whose
/// third vertex is also a member.
pub fn check_ktruss_community(
    g: &AttributedGraph,
    c: &Community,
    q: VertexId,
    k: u32,
) -> Vec<Violation> {
    // Degree bound for a k-truss is k-1, but the defining property is the
    // per-edge support; check structure with k=0 (connectivity/membership
    // only) and the edge support directly.
    let mut out = check_community(g, c, &[q], 0);
    let support_needed = k.saturating_sub(2) as usize;
    let set: HashSet<VertexId> = c.vertices().iter().copied().collect();
    for &u in c.vertices() {
        for &v in g.neighbors(u) {
            if u < v && set.contains(&v) {
                let support = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| set.contains(&w) && g.has_edge(v, w))
                    .count();
                if support < support_needed {
                    out.push(Violation::new(
                        "truss-support",
                        format!(
                            "edge {}–{} has {support} internal triangles < k-2={support_needed}",
                            g.label(u),
                            g.label(v)
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Differential check of a full core decomposition against the naive
/// fixpoint peel: for every `k` up to (and one past) the claimed maximum,
/// the vertex set `{v : core(v) ≥ k}` must equal the maximal k-core
/// computed by repeated minimum-degree removal.
pub fn check_core_numbers(g: &AttributedGraph, core_of: &dyn Fn(VertexId) -> u32) -> Vec<Violation> {
    let mut out = Vec::new();
    let max = g.vertices().map(|v| core_of(v)).max().unwrap_or(0);
    for k in 1..=max + 1 {
        let claimed: Vec<VertexId> = g.vertices().filter(|&v| core_of(v) >= k).collect();
        let mut alive: HashSet<VertexId> = g.vertices().collect();
        loop {
            let doomed: Vec<VertexId> = alive
                .iter()
                .copied()
                .filter(|&v| internal_degree(g, &alive, v) < k as usize)
                .collect();
            if doomed.is_empty() {
                break;
            }
            for v in doomed {
                alive.remove(&v);
            }
        }
        let mut reference: Vec<VertexId> = alive.into_iter().collect();
        reference.sort_unstable();
        if claimed != reference {
            out.push(Violation::new(
                "core-numbers",
                format!(
                    "{k}-core mismatch: decomposition says {} vertices, naive peel says {}",
                    claimed.len(),
                    reference.len()
                ),
            ));
        }
    }
    out
}

/// The CL-tree's preorder columns and keyword postings against the
/// definitions, by brute force on the graph: `order` is a permutation with
/// `rank_of` its inverse; a node's residents are ascending, live at its
/// level and open its rank interval, which its children's intervals then
/// tile in child order; every keyword's posting list is strictly
/// ascending; and for every node and keyword the carriers read through the
/// postings are exactly the subtree's vertices that carry the keyword.
pub fn check_tree_columns(g: &AttributedGraph, tree: &ClTree) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut bad = |detail: String| out.push(Violation::new("tree-columns", detail));
    let n = g.vertex_count();
    let order = tree.order();
    if order.len() != n {
        bad(format!("order holds {} vertices, the graph {n}", order.len()));
        return out;
    }
    for (rank, &v) in order.iter().enumerate() {
        if v.index() >= n || tree.rank_of(v) as usize != rank {
            bad(format!("rank {rank} holds {v:?} but rank_of says {}", tree.rank_of(v)));
            return out;
        }
    }
    for (id, node) in tree.iter_nodes() {
        let span = tree.subtree_ranks(id);
        let residents = tree.residents(id);
        if !residents.windows(2).all(|p| p[0] < p[1]) {
            bad(format!("{id:?}: residents not strictly ascending"));
        }
        if residents != &order[span.start..span.start + residents.len()] {
            bad(format!("{id:?}: residents do not open the subtree interval"));
        }
        for &v in residents {
            if tree.node_of(v) != id || tree.core(v) != node.level {
                bad(format!("{id:?}: resident {v:?} belongs to {:?}", tree.node_of(v)));
            }
        }
        let mut cursor = span.start + residents.len();
        for &c in &node.children {
            let child = tree.subtree_ranks(c);
            if child.start != cursor || child.end > span.end {
                bad(format!("{id:?}: child {c:?} at {child:?} does not tile {span:?} from {cursor}"));
            }
            cursor = child.end;
        }
        if cursor != span.end {
            bad(format!("{id:?}: children end at {cursor}, subtree at {}", span.end));
        }
        let members = &order[span];
        for (w, _) in g.interner().iter() {
            let mut want: Vec<VertexId> =
                members.iter().copied().filter(|&v| g.has_keyword(v, w)).collect();
            want.sort_unstable();
            let ranks = tree.carriers(id, w);
            if !ranks.windows(2).all(|p| p[0] < p[1]) {
                bad(format!("{id:?}: postings of {w:?} not strictly ascending"));
            }
            if tree.carrier_vertices(id, w) != want {
                bad(format!("{id:?}: carriers of {w:?} differ from the subtree's carriers"));
            }
        }
    }
    if tree.keyword_count() != g.keyword_count() {
        bad(format!("postings cover {} keywords, the graph {}", tree.keyword_count(), g.keyword_count()));
    }
    if tree.subtree_ranks(tree.root()) != (0..n) {
        bad(format!("root spans {:?}, not 0..{n}", tree.subtree_ranks(tree.root())));
    }
    out
}

/// The label column against its definition: the arena's offsets (and the
/// folded twin's) run from 0 to the end of the arena, never decrease and
/// fall on char boundaries; the twin holds `to_lowercase` of every label,
/// and is absent only when every label is its own fold; `order` is a
/// permutation of the vertices sorted strictly by (folded label, id).
pub fn check_label_column(g: &AttributedGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut bad = |detail: String| out.push(Violation::new("label-column", detail));
    let n = g.vertex_count();
    let col = g.labels();
    let arenas = [Some(("labels", col.arena())), col.folded_twin().map(|t| ("twin", t))];
    for (name, arena) in arenas.into_iter().flatten() {
        let (text, off) = (arena.text(), arena.offsets());
        if off.len() != n + 1 || off.first() != Some(&0) || off.last() != Some(&(text.len() as u32)) {
            bad(format!("{name}: {} offsets for {n} labels over {} bytes", off.len(), text.len()));
            return out;
        }
        if let Some(i) = off.windows(2).position(|w| w[0] > w[1]) {
            bad(format!("{name}: offset {i} decreases"));
            return out;
        }
        if let Some(&o) = off.iter().find(|&&o| !text.is_char_boundary(o as usize)) {
            bad(format!("{name}: offset {o} splits a char"));
            return out;
        }
    }
    for v in g.vertices() {
        let want = g.label(v).to_lowercase();
        if col.folded(v) != want {
            bad(format!("{v:?}: fold {:?}, to_lowercase {want:?}", col.folded(v)));
        }
    }
    let order = col.order();
    let mut seen = vec![false; n];
    for &v in order {
        if v.index() >= n || std::mem::replace(&mut seen[v.index()], true) {
            bad(format!("order holds {v:?} out of range or twice"));
            return out;
        }
    }
    if order.len() != n {
        bad(format!("order holds {} of {n} vertices", order.len()));
    }
    for (i, p) in order.windows(2).enumerate() {
        if (col.folded(p[0]), p[0]) >= (col.folded(p[1]), p[1]) {
            bad(format!("order[{i}] = {:?} is not below order[{}] = {:?}", p[0], i + 1, p[1]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_acq::{acq, AcqOptions, AcqStrategy};
    use cx_datagen::figure5_graph;

    #[test]
    fn clean_community_passes() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let tree = ClTree::build(&g);
        let res = acq(&g, &tree, a, &AcqOptions::with_k(2), AcqStrategy::Dec);
        assert_eq!(res.communities.len(), 1);
        let v = check_community(&g, &res.communities[0], &[a], 2);
        assert!(v.is_empty(), "{v:?}");
        let eff: Vec<KeywordId> = g.keywords(a).to_vec();
        let v = check_acq_result(&g, a, 2, &eff, &res);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn disconnected_community_is_flagged() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        // A's clique corner and the far H vertex are not adjacent.
        let c = Community::structural(vec![a, h]);
        let v = check_community(&g, &c, &[a], 0);
        assert!(v.iter().any(|x| x.rule == "connectivity"), "{v:?}");
    }

    #[test]
    fn low_degree_is_flagged() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let c = Community::structural(vec![a, b]);
        let v = check_community(&g, &c, &[a], 2);
        assert!(v.iter().any(|x| x.rule == "min-degree"), "{v:?}");
    }

    #[test]
    fn missing_query_vertex_is_flagged() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let c = g.vertex_by_label("C").unwrap();
        let comm = Community::structural(vec![b, c]);
        let v = check_community(&g, &comm, &[a], 1);
        assert!(v.iter().any(|x| x.rule == "query-membership"), "{v:?}");
    }

    #[test]
    fn bogus_theme_is_flagged() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        // B does not carry "w" (only A does).
        let w = g.interner().get("w").unwrap();
        let c = Community::new(vec![a, b], vec![w]);
        let v = check_community(&g, &c, &[a], 1);
        assert!(v.iter().any(|x| x.rule == "theme"), "{v:?}");
    }

    #[test]
    fn non_maximal_theme_is_flagged() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let tree = ClTree::build(&g);
        let mut res = acq(&g, &tree, a, &AcqOptions::with_k(2), AcqStrategy::Dec);
        // Corrupt the result: strip one keyword from the theme. The real
        // answer shares {x, y}, so {x} alone is non-maximal.
        let c = &res.communities[0];
        let smaller = Community::new(c.vertices().to_vec(), vec![c.shared_keywords()[0]]);
        res.communities = vec![smaller];
        res.shared_keyword_count = 1;
        let eff: Vec<KeywordId> = g.keywords(a).to_vec();
        let v = check_acq_result(&g, a, 2, &eff, &res);
        assert!(v.iter().any(|x| x.rule == "keyword-maximality"), "{v:?}");
    }

    #[test]
    fn empty_result_only_when_no_core() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        // Claiming "no community" for A at k=2 is a completeness violation.
        let v = check_acq_result(&g, a, 2, &[], &AcqResult::empty());
        assert!(v.iter().any(|x| x.rule == "completeness"), "{v:?}");
        // But for k=4 (beyond the graph's degeneracy) it is correct.
        let v = check_acq_result(&g, a, 4, &[], &AcqResult::empty());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ktruss_support_check() {
        let g = figure5_graph();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let c = g.vertex_by_label("C").unwrap();
        let d = g.vertex_by_label("D").unwrap();
        // The K4 is a 4-truss: every edge in 2 internal triangles.
        let k4 = Community::structural(vec![a, b, c, d]);
        assert!(check_ktruss_community(&g, &k4, a, 4).is_empty());
        // Claiming it is a 5-truss must fail.
        let v = check_ktruss_community(&g, &k4, a, 5);
        assert!(v.iter().any(|x| x.rule == "truss-support"), "{v:?}");
    }

    #[test]
    fn tree_columns_hold_on_figure5_and_after_an_update() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        assert_eq!(check_tree_columns(&g, &tree), Vec::new());
        let delta = g.edge_delta(&[(VertexId(6), VertexId(4))], &[(VertexId(7), VertexId(8))]);
        let delta = delta.unwrap();
        let g2 = g.apply_delta(&delta);
        let cores = cx_kcore::CoreDecomposition::compute(&g2).core_numbers().to_vec();
        assert_eq!(check_tree_columns(&g2, &tree.update(&g2, &delta, &cores)), Vec::new());
        // The same topology with every keyword set moved one vertex over:
        // the tree's postings no longer describe the graph.
        let mut b = cx_graph::GraphBuilder::new();
        for v in g.vertices() {
            let next = VertexId((v.0 + 1) % g.vertex_count() as u32);
            let kws = g.keyword_names(g.keywords(next));
            b.add_vertex(g.label(v), &kws.iter().map(String::as_str).collect::<Vec<_>>());
        }
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        let shifted = check_tree_columns(&b.build(), &tree);
        assert!(shifted.iter().any(|v| v.detail.contains("carriers of")), "{shifted:?}");
    }

    #[test]
    fn label_column_holds_with_and_without_a_twin() {
        assert_eq!(check_label_column(&figure5_graph()), Vec::new());
        let mut b = cx_graph::GraphBuilder::new();
        for l in ["author-2", "author-10", "", "author-2"] {
            b.add_vertex(l, &[]);
        }
        let plain = b.build();
        assert!(plain.labels().folded_twin().is_none());
        assert_eq!(check_label_column(&plain), Vec::new());
        let mut b = cx_graph::GraphBuilder::new();
        for l in ["İstanbul", "STRASSE", "Straße", "ΟΔΟΣ", "", "b", "B"] {
            b.add_vertex(l, &[]);
        }
        let folded = b.build();
        assert!(folded.labels().folded_twin().is_some());
        assert_eq!(check_label_column(&folded), Vec::new());
    }

    #[test]
    fn core_numbers_differential_on_figure5() {
        let g = figure5_graph();
        let cd = cx_kcore::CoreDecomposition::compute(&g);
        let v = check_core_numbers(&g, &|x| cd.core(x));
        assert!(v.is_empty(), "{v:?}");
        // A corrupted core function is caught.
        let v = check_core_numbers(&g, &|x| cd.core(x) + u32::from(x.0 == 0));
        assert!(!v.is_empty());
    }
}
