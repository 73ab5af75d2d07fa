#![warn(missing_docs)]

//! # cx-explorer — the C-Explorer engine (Section 3)
//!
//! The server-side core of the system: it owns the uploaded graphs and
//! their CL-tree indexes, a registry of pluggable community-retrieval
//! algorithms, the profile store behind the Figure 2 popup, and the
//! comparison-analysis module behind Figure 6.
//!
//! The public surface mirrors the paper's Figure 4 Java interface:
//!
//! | Paper (`CExplorer`)            | Here                                  |
//! |--------------------------------|---------------------------------------|
//! | `upload(String filePath)`      | [`Engine::upload`] / [`Engine::add_graph`] |
//! | `search(CSAlgorithm, Query)`   | [`Engine::search`]                    |
//! | `detect(CDAlgorithm)`          | [`Engine::detect`]                    |
//! | `analyze(Community)`           | [`Engine::analyze_snapshot`] / [`Engine::compare`] |
//! | `display(Community)`           | [`Engine::display`]                   |
//!
//! Third-party algorithms plug in by implementing [`CsAlgorithm`] or
//! [`CdAlgorithm`] and calling [`Engine::register_cs`] /
//! [`Engine::register_cd`]; they then appear in search and comparison
//! analysis exactly like the built-ins: the CS algorithms `acq`, `global`,
//! `local`, `ktruss`, `kecc` and `sac`, and the CD algorithms `codicil`
//! and `louvain`. `global`, `kecc` and `sac` start from q's connected
//! k-core, one preorder interval of the CL-tree, instead of a whole-graph
//! peel.

pub mod api;
pub mod cache;
pub mod compare;
pub mod engine;
pub mod error;
pub mod profile;
pub mod query;
pub mod report;

pub use api::{CdAlgorithm, CsAlgorithm, GraphContext};
pub use cx_cltree::{Expansion, Hierarchy, NodeId, SupernodeStats};
pub use compare::{ComparisonReport, ComparisonRow};
pub use engine::{Engine, GraphIndexEntry, GraphSnapshot, Profile, RegistryIndex};
pub use profile::ProfileStore;
pub use error::ExplorerError;
pub use query::{QuerySpec, VertexRef};
pub use report::{AnalysisReport, CommunityReport};
