//! CL-tree index persistence.
//!
//! Building the CL-tree is linear, but on very large graphs (the paper's
//! DBLP sample is ~1M vertices) a production deployment builds the index
//! offline once and memory-maps/loads it at server start — the paper's
//! "Indexing (offline)" box in Figure 3. The snapshot stores the tree
//! structure and core numbers; the preorder columns and keyword postings
//! are laid out again from the graph on load (they are derived data and
//! dominate the size).
//!
//! Format (little-endian): magic `CXT2`, vertex count, node count, then
//! per node in id (preorder) order its level and parent + 1 (0 for the
//! root), then per vertex its node id. Core numbers are the levels of the
//! vertices' nodes, and the residents, their order and the subtree
//! intervals are laid out again on load. Four local rules make the node
//! list a preorder tree, checked in one pass: node 0 is the only node
//! without a parent, and every other node's parent is below it, has a
//! lower level, and lies on the path from the root to the node before
//! it; every node above level 0 has a resident.

use cx_graph::codec::{ByteReader, ByteWriter};
use cx_graph::{AttributedGraph, GraphError, VertexId};

use crate::build::{layout, ClTree};
use crate::node::{ClTreeNode, NodeId};

const MAGIC: &[u8; 4] = b"CXT2";

fn invalid(what: &str) -> GraphError {
    GraphError::Snapshot(what.to_owned())
}

impl ClTree {
    /// Appends the index snapshot to `out`.
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        let n = self.core_numbers().len() as u32;
        out.extend_from_slice(MAGIC);
        out.u32(n);
        out.u32(self.node_count() as u32);
        for (_, node) in self.iter_nodes() {
            out.u32(node.level);
            out.u32(node.parent.map_or(0, |p| p.0 + 1));
        }
        out.u32s((0..n).map(|v| self.node_of(VertexId(v)).0));
    }

    /// Reads a snapshot written by [`ClTree::write_snapshot`], laying out
    /// the preorder columns and keyword postings from `g`. Fails if the
    /// snapshot does not match the graph's vertex count, breaks one of
    /// the format's rules (module docs) or has bytes left over.
    pub fn read_snapshot(g: &AttributedGraph, bytes: &[u8]) -> Result<Self, GraphError> {
        let mut r = ByteReader::new(bytes);
        if r.take(MAGIC.len(), "magic")? != MAGIC {
            return Err(GraphError::Snapshot("bad CL-tree magic".into()));
        }
        let n = r.u32()? as usize;
        if n != g.vertex_count() {
            return Err(GraphError::Snapshot(format!(
                "snapshot is for a {n}-vertex graph, got {}",
                g.vertex_count()
            )));
        }
        let node_count = r.u32()? as usize;
        if node_count == 0 || node_count > n + 1 {
            return Err(invalid("node count outside 1..=n + 1"));
        }
        let mut nodes: Vec<ClTreeNode> = Vec::with_capacity(node_count);
        // The path from the root to the node read last.
        let mut chain: Vec<u32> = Vec::new();
        for id in 0..node_count as u32 {
            let level = r.u32()?;
            let parent = match r.u32()? {
                0 if id == 0 => None,
                p if p == 0 || p > id => return Err(invalid("a node's parent is not below it")),
                p => Some(NodeId(p - 1)),
            };
            if let Some(p) = parent {
                while chain.last().is_some_and(|&x| x != p.0) {
                    chain.pop();
                }
                if chain.is_empty() {
                    return Err(invalid("a parent off the preorder chain"));
                }
                if nodes[p.index()].level >= level {
                    return Err(invalid("a level not above its parent's"));
                }
            }
            chain.push(id);
            nodes.push(ClTreeNode::new(level, parent));
        }
        let mut residents = vec![0u32; node_count];
        let mut node_of = Vec::with_capacity(n);
        for x in r.u32s(n, "node of")? {
            let count = residents.get_mut(x as usize).ok_or_else(|| invalid("a node out of range"))?;
            *count += 1;
            node_of.push(NodeId(x));
        }
        r.finish("CL-tree snapshot")?;
        if nodes.iter().zip(&residents).any(|(node, &r)| node.level > 0 && r == 0) {
            return Err(invalid("a node above level 0 without residents"));
        }
        let core = node_of.iter().map(|x| nodes[x.index()].level).collect();
        Ok(layout(g, nodes, node_of, core, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_datagen::{dblp_like, figure5_graph, DblpParams};

    fn roundtrip(g: &AttributedGraph) {
        let tree = ClTree::build(g);
        let mut buf = Vec::new();
        tree.write_snapshot(&mut buf);
        let loaded = ClTree::read_snapshot(g, &buf).unwrap();
        assert_eq!(loaded.node_count(), tree.node_count());
        assert_eq!(loaded.root(), tree.root());
        assert_eq!(loaded.core_numbers(), tree.core_numbers());
        for q in g.vertices() {
            for k in 0..=tree.max_core() {
                assert_eq!(
                    loaded.connected_k_core(q, k),
                    tree.connected_k_core(q, k),
                    "q={q} k={k}"
                );
            }
        }
        // The columns are laid out identically.
        assert_eq!(loaded.order(), tree.order());
        for (id, _) in tree.iter_nodes() {
            assert_eq!(loaded.residents(id), tree.residents(id));
            for (w, _) in g.interner().iter() {
                assert_eq!(loaded.carriers(id, w), tree.carriers(id, w));
            }
        }
    }

    #[test]
    fn figure5_roundtrip() {
        roundtrip(&figure5_graph());
    }

    #[test]
    fn dblp_roundtrip() {
        let (g, _) = dblp_like(&DblpParams { authors: 500, ..DblpParams::default() });
        roundtrip(&g);
    }

    #[test]
    fn rejects_wrong_graph() {
        let g = figure5_graph();
        let tree = ClTree::build(&g);
        let mut buf = Vec::new();
        tree.write_snapshot(&mut buf);
        let (other, _) = dblp_like(&DblpParams { authors: 50, ..DblpParams::default() });
        assert!(ClTree::read_snapshot(&other, &buf).is_err());
    }

    #[test]
    fn rejects_corruption() {
        let g = figure5_graph();
        let mut buf = Vec::new();
        ClTree::build(&g).write_snapshot(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(ClTree::read_snapshot(&g, &bad).is_err());
        for cut in 0..buf.len() {
            assert!(ClTree::read_snapshot(&g, &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// One mutation of a valid Figure 5 sidecar per rule. Its nodes in
    /// preorder: 0 the root {J} (level 0), 1 {F,G} (1), 2 {E} (2), 3
    /// {A,B,C,D} (3), 4 {H,I} (1); node `i`'s level is the u32 at
    /// `12 + 8i`, its parent + 1 the one after it, and vertex `v`'s node
    /// the u32 at `52 + 4v`.
    #[test]
    fn rejects_a_node_list_that_is_not_one_tree() {
        let g = figure5_graph();
        let mut valid = Vec::new();
        ClTree::build(&g).write_snapshot(&mut valid);
        assert_eq!(valid.len(), 92);
        let set = |bytes: &mut Vec<u8>, at: usize, x: u32| {
            bytes[at..at + 4].copy_from_slice(&x.to_le_bytes());
        };
        let level = |i: usize| 12 + 8 * i;
        let parent = |i: usize| 16 + 8 * i;
        let node_of = |v: usize| 52 + 4 * v;
        // (the error the rule gives, the mutation that breaks only it)
        type Mutation<'a> = &'a dyn Fn(&mut Vec<u8>);
        let cases: [(&str, Mutation<'_>); 7] = [
            ("a node's parent is not below it", &|b| set(b, parent(2), 3)),
            // {A,B,C,D} hangs off the root, so the chain before node 4 is
            // 0, 3: node 2 is off it, though below 4 and at a lower level.
            ("a parent off the preorder chain", &|b| {
                set(b, parent(3), 1);
                set(b, level(4), 3);
                set(b, parent(4), 3);
            }),
            ("a level not above its parent's", &|b| set(b, level(2), 1)),
            ("a node out of range", &|b| set(b, node_of(0), 5)),
            ("a node above level 0 without residents", &|b| set(b, node_of(4), 3)),
            ("node count outside 1..=n + 1", &|b| set(b, 8, 12)),
            ("1 trailing bytes after CL-tree snapshot", &|b| b.push(0)),
        ];
        assert!(ClTree::read_snapshot(&g, &valid).is_ok());
        for (rule, mutate) in cases {
            let mut bytes = valid.clone();
            mutate(&mut bytes);
            match ClTree::read_snapshot(&g, &bytes) {
                Err(GraphError::Snapshot(m)) if m.starts_with(rule) => {}
                other => panic!("{rule}: {:?}", other.map(|t| t.node_count())),
            }
        }
    }
}
