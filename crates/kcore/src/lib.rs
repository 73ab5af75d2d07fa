#![warn(missing_docs)]

//! # cx-kcore — core & truss decomposition primitives
//!
//! The structure-cohesiveness machinery every community-retrieval algorithm
//! in C-Explorer rests on:
//!
//! * [`CoreDecomposition`] — Batagelj–Zaversnik bucket peeling; computes the
//!   core number of every vertex in O(n + m). The k-core `H_k` is the
//!   largest subgraph in which every vertex has degree ≥ k; cores are nested
//!   (`H_{k+1} ⊆ H_k`), the property the CL-tree index is built on.
//! * [`scratch`] — peeling restricted to a vertex subset, against
//!   reusable epoch-cleared buffers ([`PeelScratch`]): the connected
//!   k-core containing a set of query vertices inside the subgraph a
//!   member set induces. ACQ's per-candidate verification, `Local`'s
//!   check, SAC's disk probes and `Global`'s whole-graph peel all run on
//!   it — zero heap allocations per steady-state call, with a
//!   level-synchronous frontier-parallel path for large member sets.
//! * [`truss`] — triangle counting, truss decomposition and the
//!   triangle-connected k-truss community search of Huang et al.
//!   (SIGMOD'14), the alternative cohesiveness measure the paper cites.

pub mod decomposition;
pub mod dynamic;
pub mod scratch;
pub mod truss;

pub use decomposition::CoreDecomposition;
pub use dynamic::DynamicCore;
pub use scratch::PeelScratch;
pub use truss::{truss_communities, TrussDecomposition};
