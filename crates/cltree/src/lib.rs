#![warn(missing_docs)]

//! # cx-cltree — the CL-tree index (Section 3.2 of the paper)
//!
//! The CL-tree ("Core Label tree", from the ACQ paper, PVLDB'16) organises
//! all k-cores of an attributed graph in one tree by exploiting core
//! nestedness: a (k+1)-core is always contained in a k-core. Each tree node
//! represents a connected component of some k-core and is home to only
//! the vertices whose core number equals the node's level (every vertex
//! lives in exactly one node → linear space).
//!
//! The shape is stored once: node ids are preorder positions, so every
//! subtree is one contiguous interval of ids, and a node holds its parent
//! and where its subtree's ids end — no child lists. The vertex side
//! follows the same preorder: each node's residents, node by node, so
//! every subtree is also one contiguous interval of *ranks*. Keyword
//! lists are a CSR postings column over those ranks, so
//! keyword-constrained queries read their candidates as a slice — two
//! binary searches, without touching the graph or walking the tree.
//!
//! Construction is the ACQ paper's bottom-up "advanced" method: process
//! levels from `k_max` down to 0, merging components with an *anchored*
//! union-find (each union-find component remembers the tree node currently
//! representing it). Total cost is near-linear in `n + m`. Build and
//! update renumber their node arena to preorder in one place
//! (`build::finish`); they and snapshot load then finish through one
//! layout pass (`build::layout`).
//!
//! The two query primitives the ACQ algorithms need:
//!
//! * [`ClTree::connected_k_core`] — the connected k-core containing q, in
//!   output-sensitive time (walk up from q's node, copy one interval);
//! * [`ClTree::carriers`] — the vertices of that k-core carrying a given
//!   keyword, as a zero-copy slice of the postings.

pub mod build;
pub mod hierarchy;
pub mod node;
pub mod snapshot;
pub mod unionfind;
pub mod update;

pub use build::ClTree;
pub use hierarchy::{Expansion, Hierarchy, SupernodeStats};
pub use node::{ClTreeNode, NodeId};
pub use unionfind::UnionFind;
