//! CL-tree node structure.

use std::ops::Range;

/// Index of a node within its [`crate::ClTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize for indexing the tree's node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One CL-tree node: a connected component of the `level`-core. Its
/// resident vertices (core number == `level`) are not stored here but in
/// the tree's preorder column — see [`crate::ClTree::residents`].
#[derive(Debug, Clone)]
pub struct ClTreeNode {
    /// The k this node's component belongs to.
    pub level: u32,
    /// Parent node (a component of some lower-level core), `None` for the root.
    pub parent: Option<NodeId>,
    /// Child nodes (higher-level core components nested in this one).
    pub children: Vec<NodeId>,
    /// Preorder rank of the first resident (== first rank of the subtree).
    pub(crate) first: u32,
    /// One past the last resident's rank; the children's subtrees follow.
    pub(crate) residents_end: u32,
    /// One past the last rank of the whole subtree.
    pub(crate) subtree_end: u32,
}

impl ClTreeNode {
    /// A node whose rank intervals the layout pass has yet to fill.
    pub(crate) fn new(level: u32, parent: Option<NodeId>, children: Vec<NodeId>) -> Self {
        Self { level, parent, children, first: 0, residents_end: 0, subtree_end: 0 }
    }

    /// Rank interval of the residents.
    #[inline]
    pub(crate) fn resident_ranks(&self) -> Range<usize> {
        self.first as usize..self.residents_end as usize
    }

    /// Rank interval of the whole subtree (residents, then each child's
    /// subtree in child order).
    #[inline]
    pub(crate) fn subtree_ranks(&self) -> Range<usize> {
        self.first as usize..self.subtree_end as usize
    }
}
