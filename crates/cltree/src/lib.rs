#![warn(missing_docs)]

//! # cx-cltree — the CL-tree index (Section 3.2 of the paper)
//!
//! The CL-tree ("Core Label tree", from the ACQ paper, PVLDB'16) organises
//! all k-cores of an attributed graph in one tree by exploiting core
//! nestedness: a (k+1)-core is always contained in a k-core. Each tree node
//! represents a connected component of some k-core; the node stores only
//! the vertices whose core number equals the node's level (every vertex
//! lives in exactly one node → linear space), plus an inverted keyword list
//! over those vertices so keyword-constrained queries can collect candidate
//! vertices without touching the graph.
//!
//! Construction is the ACQ paper's bottom-up "advanced" method: process
//! levels from `k_max` down to 0, merging components with an *anchored*
//! union-find (each union-find component remembers the tree node currently
//! representing it). Total cost is near-linear in `n + m`.
//!
//! The two query primitives the ACQ algorithms need:
//!
//! * [`ClTree::connected_k_core`] — the connected k-core containing q, in
//!   output-sensitive time (walk up from q's node, collect a subtree);
//! * [`ClTree::keyword_vertices_in_k_core`] — the vertices of that k-core
//!   carrying a given keyword, via the per-node inverted lists.

pub mod build;
pub mod hierarchy;
pub mod node;
pub mod signature;
pub mod snapshot;
pub mod unionfind;
pub mod update;

pub use build::{ClTree, KeywordWalkStats};
pub use hierarchy::{Expansion, Hierarchy, SupernodeStats};
pub use node::{ClTreeNode, NodeId};
pub use signature::KeywordSignature;
pub use unionfind::UnionFind;
