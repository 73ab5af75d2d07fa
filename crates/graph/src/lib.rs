#![warn(missing_docs)]

//! # cx-graph — attributed graph substrate for C-Explorer
//!
//! This crate provides the storage layer every community-retrieval (CR)
//! algorithm in the workspace runs on: an immutable, CSR-packed, undirected
//! **attributed graph** in which every vertex carries a display label (e.g.
//! an author name) and a set of interned keywords, exactly as in the
//! C-Explorer paper (VLDB'17) and the underlying ACQ paper (PVLDB'16).
//!
//! The main types are:
//!
//! * [`AttributedGraph`] — the immutable graph: sorted CSR adjacency,
//!   per-vertex keyword sets, label↔vertex lookup.
//! * [`LabelColumn`] — every label in one arena with a case-folded twin
//!   and the vertices sorted by fold, so exact lookup and the name box's
//!   prefix search are binary searches.
//! * [`GraphBuilder`] — the only way to construct a graph; deduplicates
//!   edges, drops self-loops, sorts adjacency and keyword lists.
//! * [`KeywordInterner`] / [`KeywordId`] — string interning so keyword sets
//!   are small sorted integer slices and set intersection is a merge.
//! * [`Community`] — a retrieved community: member vertices plus the
//!   keywords its members share (the "theme" in the paper's UI).
//! * [`VertexSet`] — a dense membership mask reused across algorithms for
//!   O(1) `contains` during induced-subgraph work.
//! * [`Subgraph`] — a materialised induced subgraph with local ids and a
//!   mapping back to the parent graph.
//!
//! Text and binary persistence formats live in [`io`], on the
//! workspace's one little-endian byte codec in [`codec`]; traversal helpers
//! (BFS, connected components) in [`traversal`]; summary statistics in
//! [`stats`].
//!
//! ```
//! use cx_graph::{GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_vertex("alice", &["db", "ml"]);
//! let c = b.add_vertex("carol", &["db"]);
//! b.add_edge(a, c);
//! let g = b.build();
//! assert_eq!(g.vertex_count(), 2);
//! assert_eq!(g.degree(a), 1);
//! assert!(g.vertex_by_label("carol").is_some());
//! ```

pub mod builder;
pub mod codec;
pub mod community;
pub mod delta;
pub mod error;
pub mod graph;
pub mod inverted;
pub mod io;
pub mod keywords;
pub mod labels;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod vertexset;

pub use builder::GraphBuilder;
pub use community::Community;
pub use delta::EdgeDelta;
pub use error::GraphError;
pub use graph::{AttributedGraph, CsrOffset, VertexId};
pub use inverted::InvertedIndex;
pub use keywords::{KeywordId, KeywordInterner};
pub use labels::LabelColumn;
pub use stats::{DegreeStats, GraphStats};
pub use subgraph::Subgraph;
pub use vertexset::VertexSet;
