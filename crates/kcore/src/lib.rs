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
//! * [`subset`] — peeling restricted to a vertex subset: the maximal k-core
//!   of an induced subgraph, and the connected k-core containing a query
//!   vertex. This is the verification step ACQ runs per candidate keyword
//!   set, and the local check used by the `Local` algorithm.
//! * [`scratch`] — the same subset peeling against reusable epoch-cleared
//!   buffers ([`PeelScratch`]): zero heap allocations per steady-state
//!   verification, with a level-synchronous frontier-parallel path for
//!   large member sets. The ACQ query hot path runs on this.
//! * [`truss`] — triangle counting, truss decomposition and the
//!   triangle-connected k-truss community search of Huang et al.
//!   (SIGMOD'14), the alternative cohesiveness measure the paper cites.

pub mod decomposition;
pub mod dynamic;
pub mod scratch;
pub mod subset;
pub mod truss;

pub use decomposition::CoreDecomposition;
pub use dynamic::DynamicCore;
pub use scratch::PeelScratch;
pub use subset::{connected_k_core_containing, k_core_of_subset};
pub use truss::{truss_communities, TrussDecomposition};

/// Held by every unit test here that writes `CX_THREADS` or whose answer
/// path depends on it: environment variables are process-global and the
/// tests run on parallel threads.
#[cfg(test)]
fn test_env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
