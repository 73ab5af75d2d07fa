//! CL-tree node structure.

use std::ops::Range;

/// Index of a node within its [`crate::ClTree`]: its position in the
/// tree's preorder, so the root is `NodeId(0)`, every node's id is above
/// its parent's, and a subtree is one contiguous id range.
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
/// the tree's preorder column — see [`crate::ClTree::residents`] — and its
/// descendants are the ids after its own, up to `end`.
#[derive(Debug, Clone)]
pub struct ClTreeNode {
    /// The k this node's component belongs to.
    pub level: u32,
    /// Parent node (a component of some lower-level core), `None` for the root.
    pub parent: Option<NodeId>,
    /// One past the last node id of the subtree (its descendants are the
    /// ids between this node's and `end`).
    pub(crate) end: u32,
    /// Preorder rank of the first resident (== first rank of the subtree).
    pub(crate) first: u32,
    /// One past the last resident's rank; the descendants' ranks follow.
    pub(crate) residents_end: u32,
    /// One past the last rank of the whole subtree.
    pub(crate) subtree_end: u32,
}

impl ClTreeNode {
    /// A node whose id range and rank intervals are yet to be filled.
    pub(crate) fn new(level: u32, parent: Option<NodeId>) -> Self {
        Self { level, parent, end: 0, first: 0, residents_end: 0, subtree_end: 0 }
    }

    /// Rank interval of the residents.
    #[inline]
    pub(crate) fn resident_ranks(&self) -> Range<usize> {
        self.first as usize..self.residents_end as usize
    }

    /// Rank interval of the whole subtree (residents, then each
    /// descendant's residents in id order).
    #[inline]
    pub(crate) fn subtree_ranks(&self) -> Range<usize> {
        self.first as usize..self.subtree_end as usize
    }
}
