//! `cx-store` — durable persistence for the explorer's graph registry.
//!
//! The engine keeps graphs as immutable in-memory snapshots; this crate
//! makes that registry survive crashes. Three pieces:
//!
//! - an **append-only WAL** (`wal.log`) of [`Record`]s framed with a
//!   length prefix, CRC-32 checksum and a global strictly-increasing LSN
//!   ([`frame`], [`wal`]);
//! - **snapshot checkpoints** (`snapshots/*.cxs`) freezing one graph
//!   generation each, committed as a set by an atomically-replaced
//!   **manifest** ([`snapshot`], [`manifest`]), each with an optional
//!   **index sidecar** (`*.cxi`): the caller's index over that graph as
//!   opaque bytes, handed back at boot only when it is whole and bound
//!   to the checkpoint it sits beside;
//! - **recovery and compaction** in [`Store`]: boot replays the WAL on
//!   top of the manifest's checkpoints and lands on the exact pre-crash
//!   generation (or a clean prefix if the tail was torn); compaction
//!   folds the WAL into fresh checkpoints and truncates it.
//!
//! The correctness contract is generation-based: every per-graph record
//! carries the engine generation it produced, recovery applies a record
//! iff its generation is strictly newer than what checkpoints cover, and
//! removal claims a generation of its own so remove/re-add sequences
//! cannot resurrect stale state. The kill-replay harness in `cx-check`
//! enforces this end to end by truncating the WAL at arbitrary byte
//! offsets and requiring recovered fingerprints to match the uncrashed
//! run.

#![warn(missing_docs)]

mod crc;
mod error;
pub mod frame;
mod manifest;
mod record;
mod sealed;
mod snapshot;
mod store;
mod wal;

pub use crc::crc32;
pub use error::StoreError;
pub use manifest::{Manifest, ManifestEntry, MANIFEST_VERSION};
pub use record::{Record, StoredProfile};
pub use snapshot::{
    hex_name, index_file_name, snapshot_file_name, GraphCheckpoint, SNAPSHOT_VERSION,
};
pub use store::{
    CompactionStats, RecoveredGraph, RecoveredState, Store, TornTail, MANIFEST_FILE,
    SNAPSHOTS_DIR, WAL_FILE,
};
pub use wal::Wal;
