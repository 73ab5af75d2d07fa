#![warn(missing_docs)]

//! # cx-layout — community visualization (the paper's `display` API)
//!
//! The demo used the JUNG project's layout algorithms to place community
//! vertices in the plane before rendering them in the browser. This crate
//! reimplements the same classic algorithms and two renderers:
//!
//! * [`LayoutAlgorithm::FruchtermanReingold`] — force-directed layout
//!   (JUNG's `FRLayout`), the default for community views, with the grid
//!   variant of repulsion so an iteration is linear in the member count;
//! * [`LayoutAlgorithm::KamadaKawai`] — stress-style layout over BFS
//!   distances (JUNG's `KKLayout`), up to [`KK_MAX_MEMBERS`] vertices;
//! * [`LayoutAlgorithm::Circular`] and [`LayoutAlgorithm::Shell`] —
//!   deterministic fallbacks (query vertex centred, members ringed by
//!   hop distance for `Shell`).
//!
//! [`layout_community`] produces a [`Scene`]: positions fitted to a
//! viewport plus edges and labels, which renders to SVG
//! ([`Scene::to_svg`], the "save as .jpg / print" stand-in); the server
//! writes the JSON the web UI draws on a canvas from the same fields.

pub mod force;
pub mod render;
pub mod scene;

pub use force::{LayoutAlgorithm, KK_MAX_MEMBERS};
pub use scene::{layout_community, layout_summary, Point, Scene, SummaryItem};
