#![warn(missing_docs)]

//! # C-Explorer — browsing communities in large graphs
//!
//! A from-scratch Rust reproduction of the C-Explorer system (Fang, Cheng,
//! Luo, Hu, Huang — PVLDB 10(12), VLDB 2017): online, interactive community
//! retrieval over large attributed graphs, with attributed community search
//! (ACQ + CL-tree index), the Global/Local/CODICIL/k-truss comparison
//! algorithms, CPJ/CMF quality analysis, graph layout/visualization, and a
//! browser–server deployment.
//!
//! This facade crate re-exports every subsystem; depend on it to get the
//! whole system, or on an individual `cx-*` crate for one piece.
//!
//! ```
//! use c_explorer::prelude::*;
//!
//! // Build a small attributed graph, index it, and ask for Jim's community.
//! let mut b = GraphBuilder::new();
//! let jim = b.add_vertex("jim", &["db", "tx"]);
//! let mike = b.add_vertex("mike", &["db", "tx"]);
//! let ann = b.add_vertex("ann", &["db"]);
//! for (u, v) in [(jim, mike), (mike, ann), (jim, ann)] {
//!     b.add_edge(u, v);
//! }
//! let graph = b.build();
//!
//! let engine = Engine::with_graph("demo", graph);
//! let q = QuerySpec::by_label("jim").k(2);
//! let communities = engine.search("acq", &q).unwrap();
//! assert!(!communities.is_empty());
//! ```

pub use cx_acq as acq;
pub use cx_algos as algos;
pub use cx_cltree as cltree;
pub use cx_datagen as datagen;
pub use cx_explorer as explorer;
pub use cx_graph as graph;
pub use cx_kcore as kcore;
pub use cx_layout as layout;
pub use cx_metrics as metrics;
pub use cx_server as server;
pub use cx_store as store;

pub mod experiments;

/// One-stop imports for application code and the examples.
pub mod prelude {
    pub use cx_acq::{AcqOptions, AcqStrategy};
    pub use cx_algos::{codicil::CodicilParams, global::Global, local::Local};
    pub use cx_cltree::ClTree;
    pub use cx_datagen::{dblp_like, DblpParams};
    pub use cx_explorer::{CommunityReport, Engine, QuerySpec};
    pub use cx_graph::{
        AttributedGraph, Community, GraphBuilder, KeywordId, VertexId,
    };
    pub use cx_kcore::CoreDecomposition;
    pub use cx_layout::{LayoutAlgorithm, Scene};
    pub use cx_metrics::{cmf, cpj, CommunityStats};
}
