//! Snapshot checkpoint files: one graph generation frozen to disk.
//!
//! File layout:
//!
//! ```text
//! [magic "CXSS"] [version: u32 le] [payload_len: u64 le]
//! [crc32(payload): u32 le] [payload]
//! payload = [name] [generation: u64] [graph: CXG1 bytes]
//!           [profiles] [has_coords: u8] [coords?]
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
//! # Index sidecar
//!
//! Beside a checkpoint may sit `<hex(name)>-<generation>.cxi`, the
//! caller's index over that graph (the engine's CL-tree snapshot), which
//! the store carries as opaque bytes:
//!
//! ```text
//! [magic "CXSI"] [crc32(checkpoint payload): u32 le]
//! [index_len: u64 le] [crc32(index): u32 le] [index]
//! ```
//!
//! It is derived data and outside the durability contract: it is handed
//! back only when it is whole and bound to the very payload just read,
//! and a missing, torn, flipped or foreign sidecar is simply not there.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use cx_graph::io::{read_snapshot_bytes, write_snapshot};
use cx_graph::AttributedGraph;

use crate::codec::{ByteReader, ByteWriter, MAX_LEN};
use crate::crc::crc32;
use crate::error::StoreError;
use crate::record::StoredProfile;

const MAGIC: &[u8; 4] = b"CXSS";
const INDEX_MAGIC: &[u8; 4] = b"CXSI";
/// Bytes before the payload of a checkpoint, and before the index of a
/// sidecar: magic, a `u32`, a `u64`, a `u32`.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

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
    /// Precomputed layout coordinates, if attached.
    pub coords: Option<Vec<(f64, f64)>>,
    /// The caller's index over `graph`, as opaque bytes. Not part of the
    /// checkpoint file: [`crate::Store::compact`] writes it as the
    /// sidecar, and [`GraphCheckpoint::read_from`] leaves it `None`.
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
fn put_profiles(w: &mut ByteWriter, profiles: &[StoredProfile]) {
    let mut ids = std::collections::HashMap::new();
    let mut pool: Vec<&str> = Vec::new();
    let mut encoded: Vec<(u32, u32, Vec<u32>, Vec<u32>, Vec<u32>)> =
        Vec::with_capacity(profiles.len());
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
    let put_ids = |w: &mut ByteWriter, ids: &[u32]| {
        w.u32(ids.len() as u32);
        for &id in ids {
            w.u32(id);
        }
    };
    for (vertex, name, areas, insts, ints) in &encoded {
        w.u32(*vertex);
        w.u32(*name);
        put_ids(w, areas);
        put_ids(w, insts);
        put_ids(w, ints);
    }
}

fn pooled(pool: &[String], id: u32) -> Result<String, StoreError> {
    pool.get(id as usize)
        .cloned()
        .ok_or_else(|| StoreError::Corrupt(format!("profile string id {id} out of pool range")))
}

fn get_id_list(r: &mut ByteReader<'_>, pool: &[String]) -> Result<Vec<String>, StoreError> {
    let len = r.u32()? as usize;
    if len.checked_mul(4).is_none_or(|b| b > r.remaining()) {
        return Err(StoreError::Corrupt("profile id list exceeds snapshot".into()));
    }
    (0..len).map(|_| r.u32().and_then(|id| pooled(pool, id))).collect()
}

fn get_profiles(r: &mut ByteReader<'_>) -> Result<Vec<StoredProfile>, StoreError> {
    let pool = r.strs()?;
    let len = r.u32()? as usize;
    if len > r.remaining() {
        return Err(StoreError::Corrupt("profile list length exceeds snapshot".into()));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(StoredProfile {
            vertex: cx_graph::VertexId(r.u32()?),
            name: r.u32().and_then(|id| pooled(&pool, id))?,
            areas: get_id_list(r, &pool)?,
            institutes: get_id_list(r, &pool)?,
            interests: get_id_list(r, &pool)?,
        });
    }
    Ok(out)
}

impl GraphCheckpoint {
    /// Serializes the checkpoint (header + checksummed payload) to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), StoreError> {
        let mut p = ByteWriter::with_capacity(self.graph.memory_bytes());
        p.str(&self.name);
        p.u64(self.generation);
        p.block(|buf| write_snapshot(&self.graph, buf))?;
        put_profiles(&mut p, &self.profiles);
        match &self.coords {
            Some(coords) => {
                p.u8(1);
                p.u32(coords.len() as u32);
                for &(x, y) in coords {
                    p.f64(x);
                    p.f64(y);
                }
            }
            None => p.u8(0),
        }
        let payload = p.into_bytes();
        w.write_all(MAGIC)?;
        w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&crc32(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
        Ok(())
    }

    /// Reads and validates a checkpoint: magic, version gate, length
    /// bound, checksum, then structural decode with no trailing garbage.
    pub fn read_from<R: Read>(r: &mut R) -> Result<GraphCheckpoint, StoreError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(StoreError::Corrupt("bad snapshot magic".into()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(header[8..16].try_into().unwrap());
        if payload_len as usize > MAX_LEN {
            return Err(StoreError::Corrupt("snapshot payload length too large".into()));
        }
        let want_crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
        let mut payload = vec![0u8; payload_len as usize];
        r.read_exact(&mut payload)?;
        if crc32(&payload) != want_crc {
            return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
        }
        let mut p = ByteReader::new(&payload);
        let name = p.str()?;
        let generation = p.u64()?;
        let graph = read_snapshot_bytes(p.bytes()?)?;
        let profiles = get_profiles(&mut p)?;
        let coords = match p.u8()? {
            0 => None,
            1 => {
                let len = p.u32()? as usize;
                if len.checked_mul(16).is_none_or(|b| b > p.remaining()) {
                    return Err(StoreError::Corrupt("coord list exceeds snapshot".into()));
                }
                let mut cs = Vec::with_capacity(len);
                for _ in 0..len {
                    cs.push((p.f64()?, p.f64()?));
                }
                Some(cs)
            }
            x => return Err(StoreError::Corrupt(format!("invalid coords presence byte {x}"))),
        };
        p.finish("snapshot payload")?;
        Ok(GraphCheckpoint { name, generation, graph: Arc::new(graph), profiles, coords, index: None })
    }
}

/// The payload checksum a checkpoint file's header records — what the
/// file's index sidecar binds to.
pub(crate) fn checkpoint_crc(path: &Path) -> Result<u32, StoreError> {
    let mut header = [0u8; HEADER_LEN];
    std::fs::File::open(path)?.read_exact(&mut header)?;
    Ok(u32::from_le_bytes(header[16..20].try_into().unwrap()))
}

/// Writes `index` as the sidecar of the checkpoint whose payload
/// checksum is `checkpoint_crc`, synced to disk.
pub(crate) fn write_index(path: &Path, checkpoint_crc: u32, index: &[u8]) -> Result<(), StoreError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(INDEX_MAGIC)?;
    f.write_all(&checkpoint_crc.to_le_bytes())?;
    f.write_all(&(index.len() as u64).to_le_bytes())?;
    f.write_all(&crc32(index).to_le_bytes())?;
    f.write_all(index)?;
    f.sync_all()?;
    Ok(())
}

/// The index in the sidecar at `path`, if the file is whole and was
/// written for the checkpoint whose payload checksum is `checkpoint_crc`.
pub(crate) fn read_index(path: &Path, checkpoint_crc: u32) -> Option<Vec<u8>> {
    let mut bytes = std::fs::read(path).ok()?;
    let header = bytes.get(..HEADER_LEN)?;
    let bound_to = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let want_crc = u32::from_le_bytes(header[16..20].try_into().unwrap());
    let whole = &header[0..4] == INDEX_MAGIC
        && bound_to == checkpoint_crc
        && len == (bytes.len() - HEADER_LEN) as u64
        && crc32(&bytes[HEADER_LEN..]) == want_crc;
    whole.then(|| bytes.split_off(HEADER_LEN))
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
    use cx_graph::{GraphBuilder, VertexId};

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
            coords: Some(vec![(0.0, 1.0), (-2.5, 3.5), (7.0, 7.0)]),
            index: None,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cp = checkpoint();
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        let back = GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(back.name, cp.name);
        assert_eq!(back.generation, 42);
        assert_eq!(back.graph.vertex_count(), 3);
        assert_eq!(back.graph.edge_count(), 2);
        assert_eq!(back.profiles, cp.profiles);
        assert_eq!(back.coords, cp.coords);
    }

    #[test]
    fn future_version_rejected_with_typed_error() {
        let cp = checkpoint();
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        // The checksum covers the payload only, so the header stays
        // CRC-valid and the version gate is what fires.
        for version in [0, 1, SNAPSHOT_VERSION + 1] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bytes)) {
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
        let cp = checkpoint();
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        // Flip a payload byte: checksum must catch it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bad)).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bad)).is_err());
        // Truncation at every prefix errors, never panics.
        for cut in 0..bytes.len() {
            assert!(GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bytes[..cut])).is_err());
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
            coords: None,
            index: None,
        };
        let inline: usize = cp
            .profiles
            .iter()
            .map(|p| p.name.len() + p.areas[0].len() + p.institutes[0].len() + p.interests[0].len())
            .sum();
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        assert!(
            bytes.len() * 2 < inline,
            "pooled file ({}) should be well under half of the inline strings ({inline})",
            bytes.len()
        );
        let back = GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(back.profiles, cp.profiles);
    }

    #[test]
    fn hostile_pool_id_rejected() {
        let cp = checkpoint();
        let mut bytes = Vec::new();
        cp.write_to(&mut bytes).unwrap();
        // Find the name-id field of the first profile and point it past
        // the pool; the reader must error, not panic. Rebuild the crc so
        // only the structural check can reject it.
        let payload_start = 20;
        let mut payload = bytes[payload_start..].to_vec();
        // The profile section sits after the graph block; scan for the
        // profile count (1) followed by vertex id 0, then bump the next
        // u32 (the name id) to something out of range.
        let needle = [1u8, 0, 0, 0, 0, 0, 0, 0];
        let at = payload
            .windows(needle.len())
            .rposition(|w| w == needle)
            .expect("profile header bytes present");
        let name_at = at + needle.len();
        payload[name_at..name_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&payload);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        bytes.truncate(payload_start);
        bytes.extend_from_slice(&payload);
        match GraphCheckpoint::read_from(&mut std::io::Cursor::new(&bytes)) {
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
