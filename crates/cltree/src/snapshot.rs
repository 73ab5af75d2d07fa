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
//! Format (little-endian): magic `CXT1`, vertex count, node count, root
//! id, core numbers, then per node: level, parent(+1, 0 = none), resident
//! list, child list. Every structural invariant is re-validated on load.

use cx_graph::codec::{ByteReader, ByteWriter};
use cx_graph::{AttributedGraph, GraphError};

use crate::build::{layout, ClTree};
use crate::node::{ClTreeNode, NodeId};

const MAGIC: &[u8; 4] = b"CXT1";

impl ClTree {
    /// Appends the index snapshot to `out`.
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        out.u32(self.core_numbers().len() as u32);
        out.u32(self.node_count() as u32);
        out.u32(self.root().0);
        out.u32s(self.core_numbers().iter().copied());
        for (id, node) in self.iter_nodes() {
            out.u32(node.level);
            out.u32(node.parent.map_or(0, |p| p.0 + 1));
            let residents = self.residents(id);
            out.u32(residents.len() as u32);
            out.u32s(residents.iter().map(|v| v.0));
            out.u32(node.children.len() as u32);
            out.u32s(node.children.iter().map(|c| c.0));
        }
    }

    /// Reads a snapshot written by [`ClTree::write_snapshot`], laying out
    /// the preorder columns and keyword postings from `g`. Fails if the
    /// snapshot does not match the graph (vertex count, structural
    /// invariants) or has bytes left over.
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
        if node_count > n + 1 {
            return Err(GraphError::Snapshot("node count exceeds linear bound".into()));
        }
        let root = NodeId(r.u32()?);
        if node_count == 0 || root.index() >= node_count {
            return Err(GraphError::Snapshot("root out of range".into()));
        }
        let core: Vec<u32> = r.u32s(n, "core numbers")?.collect();
        let mut nodes = Vec::with_capacity(node_count);
        let mut node_of = vec![NodeId(u32::MAX); n];
        for i in 0..node_count {
            let level = r.u32()?;
            let parent_raw = r.u32()?;
            let parent = if parent_raw == 0 {
                None
            } else {
                let p = NodeId(parent_raw - 1);
                if p.index() >= node_count {
                    return Err(GraphError::Snapshot("parent out of range".into()));
                }
                Some(p)
            };
            let v_len = r.u32()? as usize;
            if v_len > n {
                return Err(GraphError::Snapshot("vertex list too long".into()));
            }
            for v in r.u32s(v_len, "residents")? {
                if v as usize >= n {
                    return Err(GraphError::Snapshot("vertex id out of range".into()));
                }
                if node_of[v as usize] != NodeId(u32::MAX) {
                    return Err(GraphError::Snapshot("vertex appears in two nodes".into()));
                }
                node_of[v as usize] = NodeId(i as u32);
                // Core number must match the node level.
                if core[v as usize] != level {
                    return Err(GraphError::Snapshot("vertex core != node level".into()));
                }
            }
            let c_len = r.u32()? as usize;
            if c_len > node_count {
                return Err(GraphError::Snapshot("child list too long".into()));
            }
            let mut children = Vec::with_capacity(c_len);
            for c in r.u32s(c_len, "children")? {
                if c as usize >= node_count {
                    return Err(GraphError::Snapshot("child out of range".into()));
                }
                children.push(NodeId(c));
            }
            nodes.push(ClTreeNode::new(level, parent, children));
        }
        r.finish("CL-tree snapshot")?;
        if node_of.contains(&NodeId(u32::MAX)) {
            return Err(GraphError::Snapshot("some vertex belongs to no node".into()));
        }
        // The layout walks the nodes as a tree under `root`, so they must be
        // one: parent/child links agree, children sit at strictly higher
        // levels (no cycles), and every node but the parentless root is
        // listed as a child exactly once.
        let mut listed = vec![false; node_count];
        for (i, node) in nodes.iter().enumerate() {
            for &c in &node.children {
                if nodes[c.index()].parent != Some(NodeId(i as u32)) {
                    return Err(GraphError::Snapshot("parent/child mismatch".into()));
                }
                if nodes[c.index()].level <= node.level {
                    return Err(GraphError::Snapshot("child level not above parent".into()));
                }
                if std::mem::replace(&mut listed[c.index()], true) {
                    return Err(GraphError::Snapshot("child listed twice".into()));
                }
            }
        }
        let orphans = listed.iter().filter(|&&l| !l).count();
        if nodes[root.index()].parent.is_some() || orphans != 1 {
            return Err(GraphError::Snapshot("nodes do not form one tree under the root".into()));
        }
        Ok(layout(g, nodes, root, node_of, core, None))
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
        let tree = ClTree::build(&g);
        let mut buf = Vec::new();
        tree.write_snapshot(&mut buf);
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(ClTree::read_snapshot(&g, &bad).is_err());
        // Trailing bytes.
        let mut longer = buf.clone();
        longer.push(0);
        assert!(ClTree::read_snapshot(&g, &longer).is_err());
        // Truncation at every byte must never panic.
        for cut in 0..buf.len() {
            let mut t = buf.clone();
            t.truncate(cut);
            assert!(ClTree::read_snapshot(&g, &t).is_err(), "cut at {cut}");
        }
        // Flip a vertex id deep in the payload: must be caught by one of
        // the structural validations, never accepted silently as valid &
        // different.
        let mut flip = buf.clone();
        let last = flip.len() - 6;
        flip[last] ^= 0x01;
        if let Ok(loaded) = ClTree::read_snapshot(&g, &flip) {
            // If it somehow still parses, it must be structurally identical.
            assert_eq!(loaded.core_numbers(), tree.core_numbers());
        }
    }

    #[test]
    fn rejects_a_node_list_that_is_not_one_tree() {
        // Two triangles: nodes 0 and 1 (level 2) under an empty root 2.
        let mut b = cx_graph::GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(&format!("v{i}"), &["k"]);
        }
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(cx_graph::VertexId(x), cx_graph::VertexId(y));
        }
        let g = b.build();
        let mut buf = Vec::new();
        ClTree::build(&g).write_snapshot(&mut buf);
        // The root record is last: level, parent, 0 residents, 2 children.
        let kids = buf.len() - 8;
        assert_eq!(buf[kids..], [0, 0, 0, 0, 1, 0, 0, 0]);
        let load = |bytes: &[u8]| ClTree::read_snapshot(&g, bytes);
        assert!(load(&buf).is_ok());
        // Child 0 listed twice, child 1 orphaned: its vertices would get no rank.
        let mut twice = buf.clone();
        twice[kids + 4] = 0;
        assert!(load(&twice).is_err());
        // Child 1 dropped from the list altogether.
        let mut dropped = buf.clone();
        dropped.truncate(kids + 4);
        dropped[kids - 4] = 1;
        assert!(load(&dropped).is_err());
    }
}
