#![warn(missing_docs)]

//! # cx-algos — the other community-retrieval algorithms C-Explorer ships
//!
//! Besides ACQ, the paper's system implements two community-*search*
//! algorithms and one community-*detection* algorithm, all reproduced here
//! from their original papers:
//!
//! * [`global::Global`] — Sozio & Gionis (SIGKDD'10) in fixed-k form: the
//!   connected k-core containing q (the `k-ĉore`) by a whole-graph peel —
//!   the index-free reference for the engine's CL-tree lookup.
//! * [`local::Local`] — Cui et al. (SIGMOD'14): local expansion from q;
//!   grows a candidate set by connection count and stops at the first
//!   connected k-core containing q, never touching the rest of the graph.
//! * [`codicil::Codicil`] — Ruan et al. (WWW'13): content-plus-links
//!   community detection. Builds content k-NN edges from TF-IDF cosine,
//!   unions them with topology edges, re-weights by combined similarity,
//!   sparsifies locally, and clusters with weighted label propagation.
//! * [`ecc`] and [`spatial`] — k-edge-connected (Hu et al., CIKM'16) and
//!   spatial-aware (Fang et al., PVLDB'17) community search, both run
//!   inside the connected k-core the caller passes in.
//!
//! k-truss community search (Huang et al., SIGMOD'14) lives in
//! [`cx_kcore::truss`] beside the decomposition it reads.

pub mod codicil;
pub mod ecc;
pub mod girvan_newman;
pub mod global;
pub mod local;
pub mod louvain;
pub mod spatial;

pub use codicil::{Codicil, CodicilParams, Clustering};
pub use ecc::kecc_community;
pub use girvan_newman::{GirvanNewman, GirvanNewmanParams};
pub use global::Global;
pub use spatial::{sac_appinc, SpatialCommunity};
pub use local::Local;
pub use louvain::{Louvain, LouvainParams};
