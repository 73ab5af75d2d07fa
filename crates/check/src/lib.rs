#![warn(missing_docs)]

//! # cx-check — the correctness-tooling subsystem
//!
//! C-Explorer's value proposition is *comparison analysis*: the same query
//! answered by several community-retrieval methods side by side. The
//! comparison only means anything if each method is individually correct,
//! so this crate turns the formal guarantees of the underlying papers into
//! executable oracles:
//!
//! * [`invariants`] — reusable assertions over a returned community:
//!   connectivity, query-vertex membership, the k-core / k-truss degree
//!   bound, theme consistency, and ACQ keyword-cohesiveness *maximality*
//!   (no strict superset of the shared keyword set admits a qualifying
//!   community). Every check is implemented directly on the graph — never
//!   through the algorithm under test — so the oracle is independent.
//! * [`oracle`] — differential testing: ACQ's Dec/Inc-S/Inc-T strategies
//!   (and the index-free Basic baseline) are provably equivalent, the
//!   engine's cached and uncached paths must agree byte for byte, every
//!   `cx-par` helper is documented to be thread-count independent, and
//!   the incremental write path must land on exactly the state a
//!   from-scratch rebuild produces after every step of an edit script.
//!   The oracle runs both sides and diffs canonicalized results. The
//!   engine's CPJ and CMF must equal their pair-by-pair definitions
//!   bit for bit, and the structural searches it answers from a CL-tree
//!   interval (`global`, `kecc`, `sac`) their whole-graph-peel references.
//! * [`hierarchy`] — the reconstruction oracle for the multi-resolution
//!   summary: at every level, recursively expanding the level's
//!   supernodes must reproduce the exact vertex set and edge multiset of
//!   the k-core, with aggregates matching the explicit expansions.
//! * [`canonical`] — the canonical form and fingerprint the diffs compare.
//! * [`workload`] — a seeded graph/query matrix over [`cx_datagen`]
//!   generators, so the oracles sweep thousands of cases reproducibly.
//! * [`fuzz`] — a structure-aware HTTP API fuzzer: mutates valid requests
//!   (truncation, type swaps, huge/negative k, unknown vertices/keywords)
//!   and asserts the server always answers with well-formed JSON errors —
//!   never a panic, never a 500, never an empty body.
//! * [`killreplay`] — the durability oracle: runs a seeded history on a
//!   store-backed engine, then crashes the store at arbitrary WAL byte
//!   offsets (truncations and bit flips) or damages the CL-tree index
//!   sidecar of its checkpoint, and requires recovery to land on a
//!   committed generation with byte-identical graph and CL-tree
//!   fingerprints — never a panic, never an invented state.
//!
//! The crate doubles as a test-support library (dev-dependency of the
//! algorithm, engine and server crates) and a CI gate: the `cx-check`
//! binary runs the full seed matrix and exits non-zero on any violation.

pub mod canonical;
pub mod fuzz;
pub mod hierarchy;
pub mod invariants;
pub mod killreplay;
pub mod oracle;
pub mod workload;

pub use canonical::{canonicalize, diff_results, fingerprint, graph_fingerprint, tree_canonical};
pub use fuzz::{fuzz_server, FuzzParams, FuzzReport};
pub use hierarchy::hierarchy_reconstruction;
pub use killreplay::{kill_replay, KillReplayParams, KillReplayReport};
pub use invariants::{
    check_acq_result, check_community, check_ktruss_community, Violation,
};
pub use oracle::{
    acq_strategy_differential, analysis_vs_pairs, cached_vs_uncached, cd_search_vs_detect,
    cmf_all_members, cpj_all_pairs, incremental_vs_scratch, scratch_reuse_differential,
    snapshot_pinning_differential, structural_vs_peel, with_threads, Mismatch, TreeBranches,
};
pub use workload::{edit_script, graph_matrix, query_workload, EditStep, GraphCase, QueryCase};
