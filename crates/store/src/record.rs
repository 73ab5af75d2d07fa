//! WAL record types and their byte codec.
//!
//! Each frame payload (after the LSN) is one [`Record`]. The first byte is
//! a kind tag; unknown tags are corruption, not silent skips — the store
//! never writes tags it cannot read back.
//!
//! Graph payloads inside `AddGraph` are embedded via the existing
//! `cx-graph` binary snapshot codec (`CXG1`), so graphs restored from the
//! log pass the same revalidation as graphs loaded from disk.

use std::sync::Arc;

use cx_graph::codec::{ByteReader, ByteWriter};
use cx_graph::io::{read_snapshot_bytes, write_snapshot};
use cx_graph::{AttributedGraph, EdgeDelta, VertexId};

use crate::error::StoreError;

/// A vertex profile as persisted by the store. Mirrors the explorer's
/// `Profile` plus the vertex it decorates; kept as a plain struct so
/// `cx-store` does not depend on `cx-explorer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredProfile {
    /// Vertex the profile describes.
    pub vertex: VertexId,
    /// Display name.
    pub name: String,
    /// Broad research areas.
    pub areas: Vec<String>,
    /// Institutions.
    pub institutes: Vec<String>,
    /// Research interests.
    pub interests: Vec<String>,
}

/// One durable event in a graph's life. `generation` on per-graph records
/// is the engine generation the event produced; replay applies a record
/// only when its generation is newer than what snapshots already cover.
#[derive(Debug, Clone)]
pub enum Record {
    /// A graph was created (upload or programmatic add).
    AddGraph {
        /// Registry name.
        name: String,
        /// Generation assigned at publish.
        generation: u64,
        /// Full graph contents.
        graph: Arc<AttributedGraph>,
    },
    /// A batch edit was applied.
    Edit {
        /// Registry name.
        name: String,
        /// Generation assigned at publish.
        generation: u64,
        /// The normalized delta.
        delta: EdgeDelta,
    },
    /// A graph was removed. Removal claims its own generation so it
    /// orders correctly against checkpoints taken before it.
    Remove {
        /// Registry name.
        name: String,
        /// Generation claimed by the removal.
        generation: u64,
    },
    /// A profile increment was attached (replay merges, matching
    /// `Engine::set_profiles`).
    SetProfiles {
        /// Registry name.
        name: String,
        /// Generation assigned at publish.
        generation: u64,
        /// The increment, not the merged result.
        profiles: Vec<StoredProfile>,
    },
    /// Precomputed layout coordinates were attached.
    SetCoords {
        /// Registry name.
        name: String,
        /// Generation assigned at publish.
        generation: u64,
        /// One `(x, y)` per vertex.
        coords: Vec<(f64, f64)>,
    },
    /// The default graph changed explicitly.
    SetDefault {
        /// New default, or `None` to clear.
        default: Option<String>,
    },
}

const KIND_ADD_GRAPH: u8 = 1;
const KIND_EDIT: u8 = 2;
const KIND_REMOVE: u8 = 3;
const KIND_SET_PROFILES: u8 = 4;
const KIND_SET_COORDS: u8 = 5;
const KIND_SET_DEFAULT: u8 = 6;

fn put_profiles(w: &mut Vec<u8>, profiles: &[StoredProfile]) {
    w.u32(profiles.len() as u32);
    for p in profiles {
        w.u32(p.vertex.0);
        w.str(&p.name);
        w.strs(&p.areas);
        w.strs(&p.institutes);
        w.strs(&p.interests);
    }
}

fn get_profiles(r: &mut ByteReader<'_>) -> Result<Vec<StoredProfile>, StoreError> {
    let len = r.u32()? as usize;
    // Each profile costs at least its vertex, name and three list lengths.
    r.claim(len, 20, "profile")?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(StoredProfile {
            vertex: VertexId(r.u32()?),
            name: r.str()?.to_owned(),
            areas: r.strs()?,
            institutes: r.strs()?,
            interests: r.strs()?,
        });
    }
    Ok(out)
}

/// A coordinate list, `u32 len` then `(x, y)` per vertex — the same in
/// a `SetCoords` record and in a checkpoint.
pub(crate) fn put_coords(w: &mut Vec<u8>, coords: &[(f64, f64)]) {
    w.u32(coords.len() as u32);
    for &(x, y) in coords {
        w.f64(x);
        w.f64(y);
    }
}

pub(crate) fn get_coords(r: &mut ByteReader<'_>) -> Result<Vec<(f64, f64)>, StoreError> {
    let len = r.u32()? as usize;
    r.claim(len, 16, "coordinate")?;
    (0..len).map(|_| Ok((r.f64()?, r.f64()?))).collect()
}

/// An optional value behind a presence byte, `0` (none) or `1` then the
/// value — the manifest's default graph and entry files, a checkpoint's
/// coordinates and `SetDefault`'s name.
pub(crate) fn put_option<T>(w: &mut Vec<u8>, x: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match x {
        Some(x) => {
            w.u8(1);
            put(w, x);
        }
        None => w.u8(0),
    }
}

pub(crate) fn get_option<'a, T>(
    r: &mut ByteReader<'a>,
    what: &str,
    get: impl FnOnce(&mut ByteReader<'a>) -> Result<T, StoreError>,
) -> Result<Option<T>, StoreError> {
    match r.u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        x => Err(StoreError::Corrupt(format!("invalid {what} presence byte {x}"))),
    }
}

/// A name behind a presence byte.
pub(crate) fn put_name(w: &mut Vec<u8>, name: Option<&str>) {
    put_option(w, name, |w, name| w.str(name));
}

pub(crate) fn get_name(r: &mut ByteReader<'_>, what: &str) -> Result<Option<String>, StoreError> {
    get_option(r, what, |r| Ok(r.str()?.to_owned()))
}

fn delta_pairs(edges: &[(VertexId, VertexId)]) -> Vec<(u32, u32)> {
    edges.iter().map(|&(u, v)| (u.0, v.0)).collect()
}

fn pairs_delta(pairs: Vec<(u32, u32)>) -> Vec<(VertexId, VertexId)> {
    pairs.into_iter().map(|(u, v)| (VertexId(u), VertexId(v))).collect()
}

impl Record {
    /// Encodes the record to its WAL byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        match self {
            Record::AddGraph { name, generation, graph } => {
                w.u8(KIND_ADD_GRAPH);
                w.str(name);
                w.u64(*generation);
                w.block(|w| write_snapshot(graph, w));
            }
            Record::Edit { name, generation, delta } => {
                w.u8(KIND_EDIT);
                w.str(name);
                w.u64(*generation);
                w.pairs(&delta_pairs(&delta.added));
                w.pairs(&delta_pairs(&delta.removed));
            }
            Record::Remove { name, generation } => {
                w.u8(KIND_REMOVE);
                w.str(name);
                w.u64(*generation);
            }
            Record::SetProfiles { name, generation, profiles } => {
                w.u8(KIND_SET_PROFILES);
                w.str(name);
                w.u64(*generation);
                put_profiles(&mut w, profiles);
            }
            Record::SetCoords { name, generation, coords } => {
                w.u8(KIND_SET_COORDS);
                w.str(name);
                w.u64(*generation);
                put_coords(&mut w, coords);
            }
            Record::SetDefault { default } => {
                w.u8(KIND_SET_DEFAULT);
                put_name(&mut w, default.as_deref());
            }
        }
        w
    }

    /// Decodes a record from WAL bytes, rejecting unknown kinds and
    /// trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Record, StoreError> {
        let mut r = ByteReader::new(bytes);
        let kind = r.u8()?;
        let rec = match kind {
            KIND_ADD_GRAPH => {
                let name = r.str()?.to_owned();
                let generation = r.u64()?;
                let graph = read_snapshot_bytes(r.bytes()?)?;
                Record::AddGraph { name, generation, graph: Arc::new(graph) }
            }
            KIND_EDIT => {
                let name = r.str()?.to_owned();
                let generation = r.u64()?;
                let added = pairs_delta(r.pairs()?);
                let removed = pairs_delta(r.pairs()?);
                Record::Edit { name, generation, delta: EdgeDelta { added, removed } }
            }
            KIND_REMOVE => Record::Remove { name: r.str()?.to_owned(), generation: r.u64()? },
            KIND_SET_PROFILES => {
                let name = r.str()?.to_owned();
                let generation = r.u64()?;
                let profiles = get_profiles(&mut r)?;
                Record::SetProfiles { name, generation, profiles }
            }
            KIND_SET_COORDS => {
                let name = r.str()?.to_owned();
                let generation = r.u64()?;
                let coords = get_coords(&mut r)?;
                Record::SetCoords { name, generation, coords }
            }
            KIND_SET_DEFAULT => Record::SetDefault { default: get_name(&mut r, "SetDefault")? },
            other => {
                return Err(StoreError::Corrupt(format!("unknown WAL record kind {other}")))
            }
        };
        r.finish("WAL record")?;
        Ok(rec)
    }

    /// The registry name this record touches, if any.
    pub fn graph_name(&self) -> Option<&str> {
        match self {
            Record::AddGraph { name, .. }
            | Record::Edit { name, .. }
            | Record::Remove { name, .. }
            | Record::SetProfiles { name, .. }
            | Record::SetCoords { name, .. } => Some(name),
            Record::SetDefault { .. } => None,
        }
    }

    /// The generation this record produced, if it is a per-graph record.
    pub fn generation(&self) -> Option<u64> {
        match self {
            Record::AddGraph { generation, .. }
            | Record::Edit { generation, .. }
            | Record::Remove { generation, .. }
            | Record::SetProfiles { generation, .. }
            | Record::SetCoords { generation, .. } => Some(*generation),
            Record::SetDefault { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_graph::GraphBuilder;

    fn tiny_graph() -> Arc<AttributedGraph> {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("a", &["x"]);
        let c = b.add_vertex("c", &["y", "z"]);
        let d = b.add_vertex("d", &[]);
        b.add_edge(a, c);
        b.add_edge(c, d);
        Arc::new(b.build())
    }

    fn roundtrip(rec: &Record) -> Record {
        Record::decode(&rec.encode()).unwrap()
    }

    #[test]
    fn add_graph_roundtrips_with_contents() {
        let g = tiny_graph();
        let rec = Record::AddGraph { name: "g1".into(), generation: 7, graph: g.clone() };
        match roundtrip(&rec) {
            Record::AddGraph { name, generation, graph } => {
                assert_eq!(name, "g1");
                assert_eq!(generation, 7);
                assert_eq!(graph.vertex_count(), g.vertex_count());
                assert_eq!(graph.edge_count(), g.edge_count());
                assert_eq!(graph.label(VertexId(1)), g.label(VertexId(1)));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn edit_remove_profiles_coords_default_roundtrip() {
        let delta = EdgeDelta {
            added: vec![(VertexId(0), VertexId(2))],
            removed: vec![(VertexId(1), VertexId(2))],
        };
        let rec = Record::Edit { name: "g".into(), generation: 3, delta: delta.clone() };
        match roundtrip(&rec) {
            Record::Edit { delta: d, .. } => {
                assert_eq!(d.added, delta.added);
                assert_eq!(d.removed, delta.removed);
            }
            other => panic!("wrong kind: {other:?}"),
        }

        match roundtrip(&Record::Remove { name: "g".into(), generation: 4 }) {
            Record::Remove { name, generation } => {
                assert_eq!((name.as_str(), generation), ("g", 4));
            }
            other => panic!("wrong kind: {other:?}"),
        }

        let profiles = vec![StoredProfile {
            vertex: VertexId(2),
            name: "Ada".into(),
            areas: vec!["databases".into()],
            institutes: vec![],
            interests: vec!["graphs".into(), "k-core".into()],
        }];
        match roundtrip(&Record::SetProfiles {
            name: "g".into(),
            generation: 5,
            profiles: profiles.clone(),
        }) {
            Record::SetProfiles { profiles: p, .. } => assert_eq!(p, profiles),
            other => panic!("wrong kind: {other:?}"),
        }

        let coords = vec![(0.5, -1.25), (3.0, 4.0)];
        match roundtrip(&Record::SetCoords { name: "g".into(), generation: 6, coords: coords.clone() }) {
            Record::SetCoords { coords: c, .. } => assert_eq!(c, coords),
            other => panic!("wrong kind: {other:?}"),
        }

        match roundtrip(&Record::SetDefault { default: Some("g".into()) }) {
            Record::SetDefault { default } => assert_eq!(default.as_deref(), Some("g")),
            other => panic!("wrong kind: {other:?}"),
        }
        match roundtrip(&Record::SetDefault { default: None }) {
            Record::SetDefault { default } => assert!(default.is_none()),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_and_trailing_garbage_rejected() {
        assert!(Record::decode(&[0xEE]).is_err());
        let mut bytes = Record::Remove { name: "g".into(), generation: 1 }.encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err());
        // Truncations error rather than panic.
        let full = Record::Remove { name: "graph-name".into(), generation: 1 }.encode();
        for cut in 0..full.len() {
            assert!(Record::decode(&full[..cut]).is_err());
        }
    }
}
