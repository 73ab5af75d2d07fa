//! `cxb` — the end-to-end benchmark of C-Explorer with a per-layer
//! waterfall. See `README.md` for what is measured and why.
//!
//! Two binaries share this library: `cxb` (end-to-end runs, `report`,
//! `compare`) and `cxb-trace` (the traced run, which carries a counting
//! allocator the end-to-end binary must not pay for).

#![warn(missing_docs)]

pub mod alloc;
pub mod answer;
pub mod cli;
pub mod http;
pub mod layers;
pub mod prep;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod util;
pub mod workload;
