//! Canonical form, fingerprints and diffs for community result sets.
//!
//! Differential oracles compare *result sets*, and two correct paths may
//! legitimately return the same communities in different orders. The
//! canonical form fixes a total order (size descending, then member ids,
//! then theme), and the fingerprint renders the canonicalized set as one
//! deterministic string — what "byte-identical results" means everywhere
//! in cx-check.

use cx_cltree::{ClTree, NodeId};
use cx_graph::{AttributedGraph, Community, KeywordId, VertexId};

/// Sorts a result set into canonical order: larger communities first,
/// ties broken by member ids, then by shared keywords. Idempotent.
pub fn canonicalize(mut communities: Vec<Community>) -> Vec<Community> {
    communities.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.vertices().cmp(b.vertices()))
            .then_with(|| a.shared_keywords().cmp(b.shared_keywords()))
    });
    communities
}

/// Deterministic textual fingerprint of a result set (canonical order).
/// Two result sets are "byte-identical" iff their fingerprints are equal.
pub fn fingerprint(communities: &[Community]) -> String {
    let canon = canonicalize(communities.to_vec());
    let mut out = String::new();
    for (i, c) in canon.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push('{');
        for (j, v) in c.vertices().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.0.to_string());
        }
        out.push('|');
        for (j, w) in c.shared_keywords().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&w.0.to_string());
        }
        out.push('}');
    }
    out
}

/// Deterministic textual fingerprint of a graph's structure: vertex and
/// edge counts plus every edge in CSR iteration order. Two graphs with
/// the same fingerprint have identical adjacency, so this catches
/// corruption in the incrementally-patched CSR that coarser statistics
/// (counts, core numbers) would miss.
pub fn graph_fingerprint(g: &AttributedGraph) -> String {
    let mut out = format!("n={};m={};", g.vertex_count(), g.edge_count());
    for (u, v) in g.edges() {
        out.push_str(&u.0.to_string());
        out.push('-');
        out.push_str(&v.0.to_string());
        out.push(',');
    }
    out
}

/// Node-id-independent canonical encoding of a CL-tree.
///
/// [`ClTree::update`] may assign different node ids than a fresh
/// [`ClTree::build`] of the same graph, so equality must be structural:
/// each node renders as its level, resident list and every non-empty
/// `(keyword, carriers)` pair of its subtree, read back through
/// [`ClTree::carriers`] and mapped to vertex ids (catching a postings
/// column or rank interval that an update laid out differently from a
/// build), with children serialised in sorted canonical order. Two trees
/// are equivalent iff their encodings are byte-identical.
pub fn tree_canonical(tree: &ClTree) -> String {
    fn push_list(s: &mut String, vs: &[VertexId]) {
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.0.to_string());
        }
    }
    fn node_canon(tree: &ClTree, id: NodeId) -> String {
        let mut s = format!("L{}[", tree.node(id).level);
        push_list(&mut s, tree.residents(id));
        s.push('|');
        for w in 0..tree.keyword_count() as u32 {
            let carriers = tree.carrier_vertices(id, KeywordId(w));
            if !carriers.is_empty() {
                s.push_str(&w.to_string());
                s.push(':');
                push_list(&mut s, &carriers);
                s.push(';');
            }
        }
        s.push(']');
        let mut kids: Vec<String> = tree.children(id).map(|c| node_canon(tree, c)).collect();
        kids.sort();
        for k in kids {
            s.push('(');
            s.push_str(&k);
            s.push(')');
        }
        s
    }
    format!("cores={:?};{}", tree.core_numbers(), node_canon(tree, tree.root()))
}

/// First difference between two result sets, as a readable message, or
/// `None` when they are canonically identical. `label_a` / `label_b` name
/// the two paths being compared (e.g. `"Dec"` vs `"Inc-S"`).
pub fn diff_results(
    label_a: &str,
    a: &[Community],
    label_b: &str,
    b: &[Community],
) -> Option<String> {
    let ca = canonicalize(a.to_vec());
    let cb = canonicalize(b.to_vec());
    if ca.len() != cb.len() {
        return Some(format!(
            "{label_a} returned {} communities, {label_b} returned {}",
            ca.len(),
            cb.len()
        ));
    }
    for (i, (x, y)) in ca.iter().zip(&cb).enumerate() {
        if x.vertices() != y.vertices() {
            return Some(format!(
                "community #{i}: {label_a} has {} members {:?}…, {label_b} has {} members {:?}…",
                x.len(),
                x.vertices().iter().take(8).collect::<Vec<_>>(),
                y.len(),
                y.vertices().iter().take(8).collect::<Vec<_>>()
            ));
        }
        if x.shared_keywords() != y.shared_keywords() {
            return Some(format!(
                "community #{i}: themes differ ({label_a}: {:?}, {label_b}: {:?})",
                x.shared_keywords(),
                y.shared_keywords()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::VertexId;

    fn c(ids: &[u32]) -> Community {
        Community::structural(ids.iter().map(|&i| VertexId(i)).collect())
    }

    #[test]
    fn canonical_order_is_total_and_idempotent() {
        let set = vec![c(&[5, 6]), c(&[0, 1, 2]), c(&[3, 4])];
        let once = canonicalize(set.clone());
        assert_eq!(once[0].len(), 3);
        assert_eq!(once[1].vertices()[0], VertexId(3));
        assert_eq!(canonicalize(once.clone()), once);
    }

    #[test]
    fn fingerprint_ignores_input_order() {
        let a = vec![c(&[0, 1]), c(&[2, 3])];
        let b = vec![c(&[2, 3]), c(&[0, 1])];
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&[c(&[0, 1])]));
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = vec![c(&[0, 1, 2])];
        let b = vec![c(&[0, 1, 3])];
        let msg = diff_results("left", &a, "right", &b).unwrap();
        assert!(msg.contains("left") && msg.contains("right"), "{msg}");
        assert!(diff_results("l", &a, "r", &a).is_none());
        let msg = diff_results("l", &a, "r", &[]).unwrap();
        assert!(msg.contains("0 communities") || msg.contains("returned 0"), "{msg}");
    }

    #[test]
    fn graph_fingerprint_captures_every_edge() {
        let g = cx_datagen::figure5_graph();
        let fp = graph_fingerprint(&g);
        assert!(fp.starts_with("n=10;m=11;"));
        assert_eq!(fp, graph_fingerprint(&g));
        // A structurally different graph fingerprints differently.
        let delta = g.edge_delta(&[], &[(VertexId(0), VertexId(1))]).unwrap();
        assert_ne!(fp, graph_fingerprint(&g.apply_delta(&delta)));
    }

    #[test]
    fn tree_canonical_is_id_independent() {
        let g = cx_datagen::figure5_graph();
        let tree = cx_cltree::ClTree::build(&g);
        // An incremental round-trip (remove then re-add an edge) lands on
        // the same graph, possibly with different node ids; the canonical
        // forms must nevertheless match.
        let d1 = g.edge_delta(&[], &[(VertexId(0), VertexId(1))]).unwrap();
        let g1 = g.apply_delta(&d1);
        let c1 = cx_kcore::CoreDecomposition::compute(&g1);
        let t1 = tree.update(&g1, &d1, c1.core_numbers());
        let d2 = g1.edge_delta(&[(VertexId(0), VertexId(1))], &[]).unwrap();
        let g2 = g1.apply_delta(&d2);
        let c2 = cx_kcore::CoreDecomposition::compute(&g2);
        let t2 = t1.update(&g2, &d2, c2.core_numbers());
        assert_eq!(tree_canonical(&tree), tree_canonical(&t2));
        assert_ne!(tree_canonical(&tree), tree_canonical(&t1));
    }

    #[test]
    fn theme_differences_are_detected() {
        let a = vec![Community::new(vec![VertexId(0)], vec![cx_graph::KeywordId(1)])];
        let b = vec![Community::new(vec![VertexId(0)], vec![cx_graph::KeywordId(2)])];
        assert!(diff_results("a", &a, "b", &b).unwrap().contains("themes"));
    }
}
