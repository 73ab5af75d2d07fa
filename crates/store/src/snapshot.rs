//! Snapshot checkpoint files: one graph generation frozen to disk.
//!
//! A checkpoint is a sealed file (see [`crate::sealed`]) with magic
//! `CXSS` and [`SNAPSHOT_VERSION`] as its word:
//!
//! ```text
//! body = [name] [generation: u64] [graph: CXG1 bytes]
//!        [profiles] [has_coords: u8 = 0]
//! ```
//!
//! Profiles are stored against a deduplicated string pool:
//! `[pool: strs] [count: u32]` then per profile
//! `[vertex: u32] [name: u32 pool id] [areas/institutes/interests: u32
//! pool-id lists]`. Profile vocabularies (areas, institute names,
//! interests) repeat heavily across vertices, so the pool shrinks
//! checkpoints roughly in proportion to that repetition.
//!
//! Files live under `<store>/snapshots/` and are named
//! `<hex(name)>-<generation>.cxs`; hex-encoding the graph name keeps
//! arbitrary registry names (slashes, dots, unicode) filesystem-safe.
//! [`SNAPSHOT_VERSION`] is the only version read or written: any other
//! value in the header is rejected with a typed
//! [`StoreError::UnsupportedVersion`] instead of decoding garbage.
//!
//! # Reading
//!
//! A checkpoint is never held whole in memory on its way in. Boot reads
//! the file in [`cx_graph::codec::PIECE`]-sized pieces
//! ([`crate::sealed::read_sealed`]): the header and its body length are
//! checked against the file first, then every piece goes through a
//! running checksum and, from the same buffer, into the graph's columns
//! ([`cx_graph::io::read_snapshot`], the one CXG1 decoder); only the
//! profile section after the graph, a few bytes per profile, is gathered
//! whole. The checksum is compared after the last byte, and a mismatch
//! wins over any decode error, so a damaged file gets the error a
//! whole-buffer check would give it.
//!
//! # Index sidecar
//!
//! Beside a checkpoint may sit `<hex(name)>-<generation>.cxi`, the
//! caller's index over that graph (the engine's CL-tree snapshot), which
//! the store carries as opaque bytes: a sealed file with magic `CXSI`
//! whose word is the body checksum of the checkpoint it was written for.
//!
//! It is derived data and outside the durability contract: it is handed
//! back only when it is whole and bound to the very checkpoint just
//! read, and a missing, torn, flipped or foreign sidecar is simply not
//! there.

use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use cx_graph::codec::{ByteReader, ByteWriter};
use cx_graph::io::{read_snapshot, write_snapshot};
use cx_graph::AttributedGraph;

use crate::error::StoreError;
use crate::record::StoredProfile;
use crate::sealed::{read_sealed, unseal, write_sealed};

const MAGIC: &[u8; 4] = b"CXSS";
const INDEX_MAGIC: &[u8; 4] = b"CXSI";

/// Current checkpoint format version (2 = interned profile strings).
pub const SNAPSHOT_VERSION: u32 = 2;

/// One graph generation, fully materialized: contents plus decorations.
#[derive(Debug, Clone)]
pub struct GraphCheckpoint {
    /// Registry name.
    pub name: String,
    /// Engine generation this checkpoint freezes.
    pub generation: u64,
    /// Graph contents.
    pub graph: Arc<AttributedGraph>,
    /// Merged vertex profiles at this generation.
    pub profiles: Vec<StoredProfile>,
    /// The caller's index over `graph`, as opaque bytes. Not part of the
    /// checkpoint file: [`crate::Store::compact`] writes it as the
    /// sidecar, and reading a checkpoint leaves it `None`.
    pub index: Option<Vec<u8>>,
}

fn intern<'a>(
    s: &'a str,
    ids: &mut std::collections::HashMap<&'a str, u32>,
    pool: &mut Vec<&'a str>,
) -> u32 {
    if let Some(&id) = ids.get(s) {
        return id;
    }
    let id = pool.len() as u32;
    pool.push(s);
    ids.insert(s, id);
    id
}

/// Profile section: a deduplicated string pool, then profiles referring
/// into it by `u32` id.
fn put_profiles(w: &mut Vec<u8>, profiles: &[StoredProfile]) {
    let mut ids = std::collections::HashMap::new();
    let mut pool: Vec<&str> = Vec::new();
    // (vertex, name, areas, institutes, interests), strings as pool ids.
    type Encoded = (u32, u32, Vec<u32>, Vec<u32>, Vec<u32>);
    let mut encoded: Vec<Encoded> = Vec::with_capacity(profiles.len());
    for p in profiles {
        let name = intern(&p.name, &mut ids, &mut pool);
        let areas = p.areas.iter().map(|s| intern(s, &mut ids, &mut pool)).collect();
        let insts = p.institutes.iter().map(|s| intern(s, &mut ids, &mut pool)).collect();
        let ints = p.interests.iter().map(|s| intern(s, &mut ids, &mut pool)).collect();
        encoded.push((p.vertex.0, name, areas, insts, ints));
    }
    w.u32(pool.len() as u32);
    for s in &pool {
        w.str(s);
    }
    w.u32(profiles.len() as u32);
    for (vertex, name, areas, insts, ints) in &encoded {
        w.u32(*vertex);
        w.u32(*name);
        for ids in [areas, insts, ints] {
            w.u32(ids.len() as u32);
            w.u32s(ids.iter().copied());
        }
    }
}

fn pooled(pool: &[String], id: u32) -> Result<String, StoreError> {
    pool.get(id as usize)
        .cloned()
        .ok_or_else(|| StoreError::Corrupt(format!("profile string id {id} out of pool range")))
}

fn get_id_list(r: &mut ByteReader<'_>, pool: &[String]) -> Result<Vec<String>, StoreError> {
    let len = r.u32()? as usize;
    r.u32s(len, "profile id list")?.map(|id| pooled(pool, id)).collect()
}

fn get_profiles(r: &mut ByteReader<'_>) -> Result<Vec<StoredProfile>, StoreError> {
    let pool = r.strs()?;
    let len = r.u32()? as usize;
    // Each profile costs at least its vertex, name id and three list lengths.
    r.claim(len, 20, "profile")?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(StoredProfile {
            vertex: cx_graph::VertexId(r.u32()?),
            name: pooled(&pool, r.u32()?)?,
            areas: get_id_list(r, &pool)?,
            institutes: get_id_list(r, &pool)?,
            interests: get_id_list(r, &pool)?,
        });
    }
    Ok(out)
}

impl GraphCheckpoint {
    /// The checkpoint's body: everything its file seals.
    fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(self.graph.memory_bytes());
        w.str(&self.name);
        w.u64(self.generation);
        w.block(|w| write_snapshot(&self.graph, w));
        put_profiles(&mut w, &self.profiles);
        // has_coords: always 0 (coordinates are retired), kept so files keep their bytes.
        w.u8(0);
        w
    }

    /// Writes the checkpoint file to `path` atomically, returning its
    /// body checksum — what the checkpoint's index sidecar binds to.
    pub(crate) fn write_file(&self, path: &Path) -> Result<u32, StoreError> {
        write_sealed(path, MAGIC, SNAPSHOT_VERSION, &self.encode())
    }

    /// Reads and validates the checkpoint file of `len` bytes that `src`
    /// yields — the envelope, then the body with no trailing bytes — and
    /// returns its body checksum. The file is read in pieces and the
    /// graph decoded from them as they arrive; only the profile section
    /// after it, a few bytes per profile, is gathered whole.
    pub(crate) fn read(src: impl Read, len: u64) -> Result<(GraphCheckpoint, u32), StoreError> {
        read_sealed(src, len, MAGIC, SNAPSHOT_VERSION, |r| {
            let name = r.str_with(str::to_owned)?;
            let generation = r.u64()?;
            let graph = Arc::new(r.block(read_snapshot)??);
            let at = r.position();
            let tail = r.vec(r.remaining(), "profiles")?;
            let mut r = ByteReader::starting_at(&tail, at);
            let profiles = get_profiles(&mut r)?;
            if let x @ 1.. = r.u8()? {
                let msg = format!("checkpoint has_coords byte {x}: coordinates are retired");
                return Err(StoreError::Corrupt(msg));
            }
            r.finish("snapshot payload")?;
            Ok(GraphCheckpoint { name, generation, graph, profiles, index: None })
        })
    }
}

/// Writes `index` atomically as the sidecar of the checkpoint whose body
/// checksum is `bound_to`.
pub(crate) fn write_index(path: &Path, bound_to: u32, index: &[u8]) -> Result<(), StoreError> {
    write_sealed(path, INDEX_MAGIC, bound_to, index).map(drop)
}

/// The index in the sidecar at `path`, if the file is whole and was
/// written for the checkpoint whose body checksum is `bound_to`.
pub(crate) fn read_index(path: &Path, bound_to: u32) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    unseal(&bytes, INDEX_MAGIC, bound_to).ok().map(|(index, _)| index.to_vec())
}

/// Hex-encodes a registry name for use in a snapshot filename.
pub fn hex_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() * 2);
    for b in name.bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// The snapshot filename for `(name, generation)`, relative to the
/// snapshots directory.
pub fn snapshot_file_name(name: &str, generation: u64) -> String {
    format!("{}-{generation}.cxs", hex_name(name))
}

/// The index sidecar's filename for `(name, generation)`, relative to
/// the snapshots directory.
pub fn index_file_name(name: &str, generation: u64) -> String {
    format!("{}-{generation}.cxi", hex_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::seal;
    use cx_graph::{GraphBuilder, VertexId};

    /// The file `body` makes when sealed with `version`.
    fn sealed(version: u32, body: &[u8]) -> Vec<u8> {
        let (mut file, _) = seal(MAGIC, version, body);
        file.extend_from_slice(body);
        file
    }

    fn file(cp: &GraphCheckpoint) -> Vec<u8> {
        sealed(SNAPSHOT_VERSION, &cp.encode())
    }

    fn read(bytes: &[u8]) -> Result<GraphCheckpoint, StoreError> {
        GraphCheckpoint::read(bytes, bytes.len() as u64).map(|(cp, _)| cp)
    }

    fn checkpoint() -> GraphCheckpoint {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("ada", &["db", "graphs"]);
        let c = b.add_vertex("cai", &["ml"]);
        let d = b.add_vertex("dan", &[]);
        b.add_edge(a, c);
        b.add_edge(a, d);
        GraphCheckpoint {
            name: "dblp/like graph".into(),
            generation: 42,
            graph: Arc::new(b.build()),
            profiles: vec![StoredProfile {
                vertex: VertexId(0),
                name: "Ada".into(),
                areas: vec!["CS".into()],
                institutes: vec!["Analytical Engine Inst".into()],
                interests: vec!["graphs".into()],
            }],
            index: None,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cp = checkpoint();
        let bytes = file(&cp);
        let (back, crc) = GraphCheckpoint::read(&bytes[..], bytes.len() as u64).unwrap();
        assert_eq!(crc, crate::crc32(&cp.encode()));
        assert_eq!(back.name, cp.name);
        assert_eq!(back.generation, 42);
        assert_eq!(back.graph.vertex_count(), 3);
        assert_eq!(back.graph.edge_count(), 2);
        assert_eq!(back.profiles, cp.profiles);
    }

    #[test]
    fn a_has_coords_byte_of_one_is_a_typed_error() {
        let mut body = checkpoint().encode();
        *body.last_mut().unwrap() = 1;
        match read(&sealed(SNAPSHOT_VERSION, &body)) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("has_coords byte 1"), "{msg}"),
            other => panic!("expected a typed has_coords error, got {other:?}"),
        }
    }

    #[test]
    fn future_version_rejected_with_typed_error() {
        let body = checkpoint().encode();
        for version in [0, 1, SNAPSHOT_VERSION + 1] {
            match read(&sealed(version, &body)) {
                Err(StoreError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, SNAPSHOT_VERSION);
                }
                other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_detected() {
        let bytes = file(&checkpoint());
        // Flip a payload byte: checksum must catch it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(read(&bad).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read(&bad).is_err());
        // Truncation at every prefix errors, never panics.
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn interned_pool_shrinks_repetitive_profiles() {
        // 200 profiles over a vocabulary of 4 strings: the file must be
        // much smaller than the profile strings written out per vertex.
        let mut b = GraphBuilder::new();
        for i in 0..200 {
            b.add_vertex(&format!("v{i}"), &[]);
        }
        let profiles: Vec<StoredProfile> = (0..200)
            .map(|i| StoredProfile {
                vertex: VertexId(i),
                name: "A. Researcher".into(),
                areas: vec!["database management systems".into()],
                institutes: vec!["The University of Somewhere".into()],
                interests: vec!["community search in large graphs".into()],
            })
            .collect();
        let cp = GraphCheckpoint {
            name: "dedup".into(),
            generation: 1,
            graph: Arc::new(b.build()),
            profiles,
            index: None,
        };
        let inline: usize = cp
            .profiles
            .iter()
            .map(|p| p.name.len() + p.areas[0].len() + p.institutes[0].len() + p.interests[0].len())
            .sum();
        let bytes = file(&cp);
        assert!(
            bytes.len() * 2 < inline,
            "pooled file ({}) should be well under half of the inline strings ({inline})",
            bytes.len()
        );
        let back = read(&bytes).unwrap();
        assert_eq!(back.profiles, cp.profiles);
    }

    #[test]
    fn hostile_pool_id_rejected() {
        // Find the name-id field of the first profile and point it past
        // the pool; the reader must error, not panic. Seal it afresh so
        // only the structural check can reject it.
        let mut payload = checkpoint().encode();
        // The profile section sits after the graph block; scan for the
        // profile count (1) followed by vertex id 0, then bump the next
        // u32 (the name id) to something out of range.
        let needle = [1u8, 0, 0, 0, 0, 0, 0, 0];
        let at = payload
            .windows(needle.len())
            .rposition(|w| w == needle)
            .expect("profile header bytes present");
        let name_at = at + needle.len();
        payload[name_at..name_at + 4].copy_from_slice(&[0xFF; 4]);
        match read(&sealed(SNAPSHOT_VERSION, &payload)) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("out of pool range"), "{msg}"),
            other => panic!("expected corrupt pool id, got {other:?}"),
        }
    }

    #[test]
    fn filenames_are_hex_and_stable() {
        assert_eq!(hex_name("ab"), "6162");
        assert_eq!(snapshot_file_name("a/b", 9), "612f62-9.cxs");
        assert_eq!(index_file_name("a/b", 9), "612f62-9.cxi");
        // Unicode and spaces survive.
        let f = snapshot_file_name("gráph name", 1);
        assert!(f.ends_with("-1.cxs"));
        assert!(!f.contains(' ') && !f.contains('/'));
    }
}
