#![warn(missing_docs)]

//! # cx-metrics — the comparison-analysis measures (Section 4)
//!
//! C-Explorer's Analysis tab compares communities retrieved by different
//! CR algorithms on two axes:
//!
//! * **Quality** — the two metrics proposed in the ACQ paper and named in
//!   this paper: [`cpj`] (Community Pairwise Jaccard — average keyword-set
//!   Jaccard similarity over all member pairs) and [`cmf`] (Community
//!   Member Frequency — how much of the query vertex's keyword set an
//!   average member carries). Higher is better for both.
//! * **Statistics** — the Figure 6(a) table: number of communities,
//!   average vertices, edges, and internal degree ([`CommunityStats`]).
//!
//! For validating community *detection* against ground truth the crate
//! also provides [`nmi`] (normalised mutual information) and set-overlap
//! scores ([`f1_score`]), plus a text bar chart ([`bar_chart`]) standing
//! in for the browser's bar graphs.

pub mod charts;
pub mod quality;
pub mod similarity;
pub mod stats;

pub use charts::bar_chart;
pub use quality::{cmf, conductance, cpj, cpj_single};
pub use similarity::{f1_score, modularity, nmi, pairwise_jaccard_matrix};
pub use stats::CommunityStats;
