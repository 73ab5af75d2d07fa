//! Persistence: a line-oriented text format (what the paper's `upload` API
//! accepts) and a compact binary snapshot for large generated graphs.
//!
//! # Text format
//!
//! One record per line, tab-separated, `#` starts a comment:
//!
//! ```text
//! # vertices first, then edges
//! v\t<label>\t<kw1,kw2,...>     (keyword field may be empty)
//! e\t<u>\t<v>                   (0-based indices in vertex declaration order)
//! ```
//!
//! # Binary snapshot
//!
//! Little-endian: magic `CXG1`, then `n`, `m2` (directed slot count), the
//! degree column (`n`), the adjacency column (`m2`), the keyword slot
//! count, the keyword-count column (`n`), the keyword-id column, the
//! vocabulary size and its strings in id order, then the `n` labels; each
//! string is `u32 len + bytes` ([`crate::codec`]). The writer emits the
//! graph's columns as they are; the one reader, [`read_snapshot`],
//! decodes them from a stream as it arrives straight into the same
//! columns, then checks every graph invariant on them in place. Over
//! bytes in memory ([`read_snapshot_bytes`]) the stream is one slice.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::builder::GraphBuilder;
use crate::codec::{ByteWriter, StreamReader, PIECE};
use crate::error::GraphError;
use crate::graph::{AttributedGraph, CsrOffset, VertexId};
use crate::keywords::{KeywordId, KeywordInterner};
use crate::labels::LabelArena;

const MAGIC: &[u8; 4] = b"CXG1";

/// Writes `g` in the text format to `w`.
pub fn write_text<W: Write>(g: &AttributedGraph, w: &mut W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "# c-explorer attributed graph: {} vertices, {} edges",
        g.vertex_count(),
        g.edge_count()
    )?;
    for v in g.vertices() {
        let kws = g.keyword_names(g.keywords(v)).join(",");
        writeln!(w, "v\t{}\t{}", g.label(v), kws)?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "e\t{}\t{}", u.0, v.0)?;
    }
    w.flush()?;
    Ok(())
}

/// Parses the text format from `r`.
pub fn read_text<R: Read>(r: &mut R) -> Result<AttributedGraph, GraphError> {
    let reader = BufReader::new(r);
    let mut b = GraphBuilder::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.splitn(3, '\t');
        let kind = parts.next().unwrap_or("");
        match kind {
            "v" => {
                let label = parts.next().ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    message: "vertex line missing label".into(),
                })?;
                let kw_field = parts.next().unwrap_or("");
                let kws: Vec<&str> =
                    kw_field.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                b.add_vertex(label, &kws);
            }
            "e" => {
                let parse = |field: Option<&str>| -> Result<VertexId, GraphError> {
                    let s = field.ok_or_else(|| GraphError::Parse {
                        line: lineno,
                        message: "edge line missing endpoint".into(),
                    })?;
                    s.trim().parse::<u32>().map(VertexId).map_err(|_| GraphError::Parse {
                        line: lineno,
                        message: format!("invalid vertex index {s:?}"),
                    })
                };
                let u = parse(parts.next())?;
                let v = parse(parts.next())?;
                b.add_edge(u, v);
            }
            other => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("unknown record type {other:?}"),
                })
            }
        }
    }
    b.try_build()
}

/// Loads a text-format graph from a file path.
pub fn load_text_file<P: AsRef<Path>>(path: P) -> Result<AttributedGraph, GraphError> {
    let mut f = std::fs::File::open(path)?;
    read_text(&mut f)
}

/// Saves a graph in the text format to a file path.
pub fn save_text_file<P: AsRef<Path>>(g: &AttributedGraph, path: P) -> Result<(), GraphError> {
    let mut f = std::fs::File::create(path)?;
    write_text(g, &mut f)
}

/// The per-vertex counts a CSR offset column encodes.
fn counts(off: &[CsrOffset]) -> impl Iterator<Item = u32> + '_ {
    off.windows(2).map(|o| o[1] - o[0])
}

/// Appends the binary snapshot of `g` to `out`, column by column.
pub fn write_snapshot(g: &AttributedGraph, out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.u32(g.vertex_count() as u32);
    out.u32(g.adj.len() as u32);
    out.u32s(counts(&g.adj_off));
    out.u32s(g.adj.iter().map(|u| u.0));
    out.u32(g.kws.len() as u32);
    out.u32s(counts(&g.kw_off));
    out.u32s(g.kws.iter().map(|k| k.0));
    out.u32(g.interner.len() as u32);
    for (_, name) in g.interner.iter() {
        out.str(name);
    }
    for v in g.vertices() {
        out.str(g.label(v));
    }
}

fn bad(message: impl Into<String>) -> GraphError {
    GraphError::Snapshot(message.into())
}

/// A per-vertex count column as CSR offsets; the counts must add up to
/// `total` (which came from a `u32`, so the offsets fit one).
fn offsets<R: BufRead>(
    r: &mut StreamReader<R>,
    n: usize,
    total: usize,
    what: &str,
) -> Result<Vec<CsrOffset>, GraphError> {
    r.claim(n, 4, what)?;
    let mut off = Vec::with_capacity(n + 1);
    off.push(0);
    let mut end = 0u64;
    r.u32s_into(n, what, &mut off, |c| {
        end += u64::from(c);
        end as CsrOffset
    })?;
    if end != total as u64 {
        return Err(bad(format!("{what} column sums to {end}, header says {total}")));
    }
    Ok(off)
}

/// What the graph builder establishes by construction, checked in
/// place: neighbour ids in range, no self-loop, every list strictly
/// ascending, and the adjacency symmetric.
///
/// Symmetry is one cursor walk. Visiting `u` in ascending order, each
/// `v` in `N(u)` must find `u` as the *next unread* entry of `N(v)` —
/// true of a symmetric graph because every list is ascending. Each of the
/// `m2` slots reads exactly one entry and no list is read past its end,
/// so if every read matches, every list was read to its end.
fn check_adjacency(adj_off: &[CsrOffset], adj: &[VertexId]) -> Result<(), GraphError> {
    let n = adj_off.len() - 1;
    let mut next = adj_off[..n].to_vec();
    for u in 0..n {
        let mut prev = None;
        for &v in &adj[adj_off[u] as usize..adj_off[u + 1] as usize] {
            if v.index() >= n {
                return Err(bad(format!("neighbour {v} of v{u} out of range ({n} vertices)")));
            }
            if v.index() == u {
                return Err(bad(format!("self-loop at v{u}")));
            }
            if prev.is_some_and(|p| p >= v) {
                return Err(bad(format!("adjacency of v{u} not strictly ascending")));
            }
            prev = Some(v);
            let at = next[v.index()];
            if at == adj_off[v.index() + 1] || adj[at as usize].index() != u {
                return Err(bad(format!("edge v{u}-{v} has no reverse slot")));
            }
            next[v.index()] = at + 1;
        }
    }
    Ok(())
}

/// Keyword sets strictly ascending and inside the vocabulary.
fn check_keyword_sets(
    kw_off: &[CsrOffset],
    kws: &[KeywordId],
    vocab_len: usize,
) -> Result<(), GraphError> {
    for (v, span) in kw_off.windows(2).enumerate() {
        let set = &kws[span[0] as usize..span[1] as usize];
        if !set.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad(format!("keyword set of v{v} not strictly ascending")));
        }
        if let Some(w) = set.last().filter(|w| w.index() >= vocab_len) {
            return Err(bad(format!("keyword id {} of v{v} out of vocabulary ({vocab_len})", w.0)));
        }
    }
    Ok(())
}

/// Decodes a binary snapshot: every byte `r` has left. The columns go
/// straight from the stream into the graph's own, and every invariant of
/// [`AttributedGraph`] is checked on them in place, so a corrupted
/// snapshot cannot produce an inconsistent graph. Keyword ids are the
/// snapshot's own. Anything wrong — truncation and trailing bytes
/// included — is a [`GraphError::Snapshot`].
pub fn read_snapshot<R: BufRead>(r: &mut StreamReader<R>) -> Result<AttributedGraph, GraphError> {
    if &r.array::<4>("magic")? != MAGIC {
        return Err(bad("bad magic"));
    }
    let n = r.u32()? as usize;
    let m2 = r.u32()? as usize;
    if !m2.is_multiple_of(2) {
        return Err(bad(format!("odd adjacency length {m2}")));
    }
    let adj_off = offsets(r, n, m2, "degree")?;
    let mut adj = Vec::new();
    r.u32s_into(m2, "adjacency", &mut adj, VertexId)?;
    check_adjacency(&adj_off, &adj)?;

    let kw_total = r.u32()? as usize;
    let kw_off = offsets(r, n, kw_total, "keyword count")?;
    let mut kws = Vec::new();
    r.u32s_into(kw_total, "keyword ids", &mut kws, KeywordId)?;
    let vocab = r.strs()?;
    check_keyword_sets(&kw_off, &kws, vocab.len())?;
    let interner = KeywordInterner::from_names(vocab)
        .map_err(|dup| bad(format!("keyword {dup:?} appears twice in the vocabulary")))?;

    // The labels go straight into one arena, sized by the bytes that
    // remain after their length prefixes.
    r.claim(n, 4, "label")?;
    let mut labels = LabelArena::with_capacity(n, r.remaining() - 4 * n);
    for _ in 0..n {
        r.str_with(|s| labels.push(s))??;
    }
    r.finish("graph snapshot")?;
    Ok(AttributedGraph {
        adj_off,
        adj,
        kw_off: Arc::new(kw_off),
        kws: Arc::new(kws),
        labels: Arc::new(labels.seal()?),
        interner: Arc::new(interner),
    })
}

/// [`read_snapshot`] over a snapshot held in memory.
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<AttributedGraph, GraphError> {
    read_snapshot(&mut StreamReader::new(bytes, bytes.len()))
}

/// Loads a binary snapshot from a file path, read in [`PIECE`]-sized
/// pieces.
pub fn load_snapshot_file<P: AsRef<Path>>(path: P) -> Result<AttributedGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
    read_snapshot(&mut StreamReader::new(BufReader::with_capacity(PIECE, file), len))
}

/// Saves a binary snapshot to a file path.
pub fn save_snapshot_file<P: AsRef<Path>>(g: &AttributedGraph, path: P) -> Result<(), GraphError> {
    let mut out = Vec::new();
    write_snapshot(g, &mut out);
    Ok(std::fs::write(path, out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> AttributedGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("Jim Gray", &["transaction", "data"]);
        let c = b.add_vertex("Michael Stonebraker", &["data", "column"]);
        let d = b.add_vertex("solo", &[]);
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.build()
    }

    fn assert_same(a: &AttributedGraph, b: &AttributedGraph) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.vertices() {
            assert_eq!(a.label(v), b.label(v));
            assert_eq!(a.keyword_names(a.keywords(v)), b.keyword_names(b.keywords(v)));
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(&mut buf.as_slice()).unwrap();
        assert_same(&g, &g2);
    }

    #[test]
    fn text_parses_comments_blank_lines_and_empty_keywords() {
        let txt = "# comment\n\nv\talice\t\nv\tbob\tdb, ml\ne\t0\t1\n";
        let g = read_text(&mut txt.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.keywords(VertexId(0)).is_empty());
        assert_eq!(g.keywords(VertexId(1)).len(), 2);
        assert_eq!(g.keyword_names(g.keywords(VertexId(1))), vec!["db", "ml"]);
    }

    #[test]
    fn text_errors_carry_line_numbers() {
        let bad_type = "v\ta\t\nq\t0\t1\n";
        match read_text(&mut bad_type.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_idx = "v\ta\t\ne\tzero\t0\n";
        assert!(matches!(
            read_text(&mut bad_idx.as_bytes()),
            Err(GraphError::Parse { line: 2, .. })
        ));
        let dangling = "v\ta\t\ne\t0\t9\n";
        assert!(matches!(
            read_text(&mut dangling.as_bytes()),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    /// Upload bodies are untrusted, so the parser is total: seeded
    /// record-shaped garbage (any kind, 0–3 fields of digits, letters,
    /// commas, spaces, non-ASCII and invalid UTF-8) gives a graph or a
    /// typed error, never a panic, and an accepted graph keeps the
    /// handshake lemma.
    #[test]
    fn read_text_is_total_on_seeded_garbage() {
        const KINDS: [&[u8]; 6] = [b"v", b"e", b"x", b"#", b" v", b""];
        const TOKENS: [&[u8]; 8] = [b"0", b"1", b"7", b"a", b",", b" ", b"\xc3\xa9", b"\xff"];
        for seed in 0..3_000u64 {
            let mut rng = cx_par::rng::Rng64::seed_from_u64(seed);
            let mut input = Vec::new();
            for _ in 0..rng.gen_range(0..8u32) {
                input.extend_from_slice(KINDS[rng.gen_range(0..KINDS.len())]);
                for _ in 0..rng.gen_range(0..=3u32) {
                    input.extend_from_slice(b"\t");
                    for _ in 0..rng.gen_range(0..3u32) {
                        input.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())]);
                    }
                }
                input.push(b'\n');
            }
            let text = String::from_utf8_lossy(&input);
            let parsed = std::panic::catch_unwind(|| read_text(&mut input.as_slice()))
                .unwrap_or_else(|_| panic!("seed {seed}: read_text panicked on {text:?}"));
            if let Ok(g) = parsed {
                let degrees: usize = g.vertices().map(|v| g.degree(v)).sum();
                assert_eq!(degrees, 2 * g.edge_count(), "seed {seed}: {text:?}");
            }
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf);
        assert_same(&g, &read_snapshot_bytes(&buf).unwrap());
    }

    #[test]
    fn snapshot_rejects_bad_magic_and_truncation() {
        assert!(matches!(read_snapshot_bytes(b"NOPE"), Err(GraphError::Snapshot(_))));
        let g = sample();
        let mut buf = Vec::new();
        write_snapshot(&g, &mut buf);
        buf.truncate(buf.len() / 2);
        assert!(read_snapshot_bytes(&buf).is_err());
    }

    #[test]
    fn file_roundtrip_via_tempdir() {
        let dir = std::env::temp_dir().join("cx_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        let tpath = dir.join("g.txt");
        let spath = dir.join("g.bin");
        save_text_file(&g, &tpath).unwrap();
        save_snapshot_file(&g, &spath).unwrap();
        assert_same(&g, &load_text_file(&tpath).unwrap());
        assert_same(&g, &load_snapshot_file(&spath).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
