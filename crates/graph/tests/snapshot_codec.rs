//! The binary snapshot codec against hostile and honest input.
//!
//! The reader decodes CXG1 columns straight into the graph's own and
//! checks the graph's invariants on them in place, so each invariant has
//! a case here that breaks exactly it: the answer must be a typed
//! [`GraphError::Snapshot`], never a panic, never an allocation sized by
//! a number the input merely claims, and never an `Ok` graph that breaks
//! an invariant. The writer is held to the format by a second, per-value
//! encoder that uses only the graph's public accessors. A file read in
//! pieces decodes to what the same bytes decode to in one piece, and
//! fails with the same error, wherever the pieces split it.

use std::io::BufReader;

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::codec::StreamReader;
use cx_graph::io::{read_snapshot, read_snapshot_bytes, write_snapshot};
use cx_graph::{AttributedGraph, GraphBuilder, GraphError, VertexId};
use cx_par::rng::Rng64;

/// A CXG1 file as its fields, so a case can break one and re-encode.
#[derive(Clone)]
struct Raw {
    n: u32,
    m2: u32,
    degs: Vec<u32>,
    adj: Vec<u32>,
    kw_total: u32,
    kw_counts: Vec<u32>,
    kws: Vec<u32>,
    vocab_len: u32,
    vocab: Vec<Vec<u8>>,
    labels: Vec<Vec<u8>>,
}

impl Raw {
    /// Triangle 0-1-2 with the pendant 2-3; keywords x, y, z.
    fn valid() -> Raw {
        let strs = |ss: &[&str]| ss.iter().map(|s| s.as_bytes().to_vec()).collect();
        Raw {
            n: 4,
            m2: 8,
            degs: vec![2, 2, 3, 1],
            adj: vec![1, 2, 0, 2, 0, 1, 3, 2],
            kw_total: 5,
            kw_counts: vec![2, 1, 2, 0],
            kws: vec![0, 1, 0, 1, 2],
            vocab_len: 3,
            vocab: strs(&["x", "y", "z"]),
            labels: strs(&["a", "b", "c", "d"]),
        }
    }

    /// The section boundaries of the encoding, then the bytes.
    fn encode(&self) -> (Vec<usize>, Vec<u8>) {
        let mut out = b"CXG1".to_vec();
        let mut marks = vec![0, out.len()];
        let u32s = |out: &mut Vec<u8>, xs: &[u32]| {
            xs.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes()));
        };
        let strs = |out: &mut Vec<u8>, ss: &[Vec<u8>]| {
            for s in ss {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s);
            }
        };
        u32s(&mut out, &[self.n, self.m2]);
        marks.push(out.len());
        u32s(&mut out, &self.degs);
        marks.push(out.len());
        u32s(&mut out, &self.adj);
        marks.push(out.len());
        u32s(&mut out, &[self.kw_total]);
        marks.push(out.len());
        u32s(&mut out, &self.kw_counts);
        marks.push(out.len());
        u32s(&mut out, &self.kws);
        marks.push(out.len());
        u32s(&mut out, &[self.vocab_len]);
        marks.push(out.len());
        strs(&mut out, &self.vocab);
        marks.push(out.len());
        strs(&mut out, &self.labels);
        (marks, out)
    }

    fn bytes(&self) -> Vec<u8> {
        self.encode().1
    }
}

/// The same encoding, one value at a time, from the public accessors.
fn reference_bytes(g: &AttributedGraph) -> Vec<u8> {
    let mut out = b"CXG1".to_vec();
    let mut put = |x: usize| out.extend_from_slice(&(x as u32).to_le_bytes());
    put(g.vertex_count());
    put(g.edge_count() * 2);
    g.vertices().for_each(|v| put(g.degree(v)));
    g.vertices().for_each(|v| g.neighbors(v).iter().for_each(|u| put(u.index())));
    put(g.vertices().map(|v| g.keywords(v).len()).sum());
    g.vertices().for_each(|v| put(g.keywords(v).len()));
    g.vertices().for_each(|v| g.keywords(v).iter().for_each(|w| put(w.index())));
    put(g.keyword_count());
    let names = g.interner().iter().map(|(_, name)| name.to_owned());
    for s in names.chain(g.vertices().map(|v| g.label(v).to_owned())) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// Everything [`GraphBuilder`] guarantees of a graph it builds.
fn assert_invariants(g: &AttributedGraph) {
    let n = g.vertex_count();
    for u in g.vertices() {
        let ns = g.neighbors(u);
        assert!(ns.windows(2).all(|w| w[0] < w[1]), "adjacency of {u} not ascending");
        for &v in ns {
            assert!(v.index() < n && v != u, "bad neighbour {v} of {u}");
            assert!(g.neighbors(v).binary_search(&u).is_ok(), "edge {u}-{v} not symmetric");
        }
        let ws = g.keywords(u);
        assert!(ws.windows(2).all(|w| w[0] < w[1]), "keywords of {u} not ascending");
        assert!(ws.iter().all(|&w| g.interner().name(w).is_some()), "foreign keyword on {u}");
    }
    for (id, name) in g.interner().iter() {
        assert_eq!(g.interner().get(name), Some(id), "vocabulary entry {name:?} is ambiguous");
    }
}

fn expect_snapshot_error(case: &str, bytes: &[u8]) {
    match read_snapshot_bytes(bytes) {
        Err(GraphError::Snapshot(_)) => {}
        Err(other) => panic!("{case}: expected GraphError::Snapshot, got {other:?}"),
        Ok(_) => panic!("{case}: a hostile snapshot was accepted"),
    }
}

#[test]
fn the_valid_buffer_is_what_the_writer_emits() {
    let mut b = GraphBuilder::new();
    let ids: Vec<VertexId> =
        [("a", &["x", "y"][..]), ("b", &["x"]), ("c", &["y", "z"]), ("d", &[])]
            .iter()
            .map(|(label, kws)| b.add_vertex(label, kws))
            .collect();
    for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3)] {
        b.add_edge(ids[u], ids[v]);
    }
    let g = b.build();
    let mut written = Vec::new();
    write_snapshot(&g, &mut written);
    assert_eq!(written, Raw::valid().bytes());
    assert_eq!(written, reference_bytes(&g));
    assert_invariants(&read_snapshot_bytes(&written).unwrap());
}

#[test]
fn one_mutation_per_invariant_is_a_typed_error() {
    let edit = |f: &dyn Fn(&mut Raw)| {
        let mut raw = Raw::valid();
        f(&mut raw);
        raw.bytes()
    };
    let table: Vec<(&str, Vec<u8>)> = vec![
        // v3 claims v1, v1 does not claim v3.
        ("asymmetric edge", edit(&|r| r.adj[7] = 1)),
        ("descending list", edit(&|r| r.adj[4..7].copy_from_slice(&[1, 0, 3]))),
        ("duplicate neighbour", edit(&|r| r.adj[0..2].copy_from_slice(&[1, 1]))),
        ("self-loop", edit(&|r| r.adj[0] = 0)),
        ("neighbour id >= n", edit(&|r| r.adj[7] = 9)),
        ("keyword id >= vocabulary", edit(&|r| r.kws[4] = 3)),
        ("unsorted keyword set", edit(&|r| r.kws[0..2].copy_from_slice(&[1, 0]))),
        ("repeated keyword in a set", edit(&|r| r.kws[0..2].copy_from_slice(&[1, 1]))),
        ("duplicate vocabulary entry", edit(&|r| r.vocab[1] = b"x".to_vec())),
        ("degree sum above m2", edit(&|r| r.degs[0] = 3)),
        ("degree sum below m2", edit(&|r| r.degs[2] = 2)),
        ("keyword sum above total", edit(&|r| r.kw_counts[3] = 1)),
        ("keyword sum below total", edit(&|r| r.kw_counts[0] = 1)),
        (
            "odd m2",
            edit(&|r| {
                r.m2 = 7;
                r.degs[3] = 0;
                r.adj.pop();
            }),
        ),
        ("non-utf8 label", edit(&|r| r.labels[2] = vec![0xC3, 0x28])),
        ("non-utf8 keyword", edit(&|r| r.vocab[0] = vec![0xFF])),
        ("vertex count above the labels present", edit(&|r| r.n = 5)),
        ("vocabulary size above the strings present", edit(&|r| r.vocab_len = 4)),
        ("bad magic", {
            let mut b = Raw::valid().bytes();
            b[3] = b'2';
            b
        }),
        ("trailing byte", {
            let mut b = Raw::valid().bytes();
            b.push(0);
            b
        }),
    ];
    for (case, bytes) in &table {
        expect_snapshot_error(case, bytes);
    }
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let (marks, bytes) = Raw::valid().encode();
    for &cut in &marks {
        expect_snapshot_error(&format!("cut at section boundary {cut}"), &bytes[..cut]);
    }
    for cut in 0..bytes.len() {
        expect_snapshot_error(&format!("cut at byte {cut}"), &bytes[..cut]);
    }
}

/// A header may claim any size; what it claims is checked against the
/// bytes present before anything is allocated for it. At the parent
/// commit this file asked the allocator for tens of gigabytes.
#[test]
fn a_hostile_header_is_an_error_not_an_allocation() {
    let mut sixteen = b"CXG1".to_vec();
    sixteen.extend_from_slice(&u32::MAX.to_le_bytes()); // n
    sixteen.extend_from_slice(&(u32::MAX - 1).to_le_bytes()); // m2
    sixteen.extend_from_slice(&[0; 4]);
    assert_eq!(sixteen.len(), 16);
    expect_snapshot_error("n = u32::MAX in 16 bytes", &sixteen);

    // The same for each later count, behind otherwise honest sections.
    let edit = |f: &dyn Fn(&mut Raw)| {
        let mut raw = Raw::valid();
        f(&mut raw);
        raw.bytes()
    };
    expect_snapshot_error("m2 = u32::MAX - 1", &edit(&|r| r.m2 = u32::MAX - 1));
    expect_snapshot_error("kw_total = u32::MAX", &edit(&|r| r.kw_total = u32::MAX));
    expect_snapshot_error("vocab_len = u32::MAX", &edit(&|r| r.vocab_len = u32::MAX));
    let mut long_string = Raw::valid().bytes();
    let at = long_string.len() - 5; // the last label's length prefix
    long_string[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    expect_snapshot_error("string length = u32::MAX", &long_string);
}

/// No single flipped bit panics the reader, and whatever it still
/// accepts is a graph that keeps every invariant.
#[test]
fn every_single_bit_flip_is_rejected_or_harmless() {
    let bytes = Raw::valid().bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            match read_snapshot_bytes(&flipped) {
                Ok(g) => assert_invariants(&g),
                Err(GraphError::Snapshot(_)) => {}
                Err(other) => panic!("flip {byte}.{bit}: untyped error {other:?}"),
            }
        }
    }
}

/// Seeded small files whose every count and id is drawn near its valid
/// range, so they reach the checks a flipped bit of a valid file cannot:
/// each is a typed error or a graph that keeps every invariant.
#[test]
fn seeded_near_valid_files_are_rejected_or_harmless() {
    for seed in 0..3_000u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let (n, vocab_len) = (rng.gen_range(0..5u32), rng.gen_range(0..4u32));
        let mut column = |len: u32, below: u32| -> Vec<u32> {
            (0..len).map(|_| rng.gen_range(0..below.max(1))).collect()
        };
        let (degs, kw_counts) = (column(n, 4), column(n, 3));
        let (m2, kw_total) = (degs.iter().sum(), kw_counts.iter().sum());
        let adj = column(m2, n + 2);
        let kws = column(kw_total, vocab_len + 1);
        let vocab = column(vocab_len, 3).into_iter().map(|c| vec![b'a' + c as u8]).collect();
        let labels = (0..n).map(|_| b"l".to_vec()).collect();
        let raw = Raw { n, m2, degs, adj, kw_total, kw_counts, kws, vocab_len, vocab, labels };
        let bytes = raw.bytes();
        let checked = || read_snapshot_bytes(&bytes).map(|g| assert_invariants(&g));
        match std::panic::catch_unwind(checked) {
            Ok(Ok(())) | Ok(Err(GraphError::Snapshot(_))) => {}
            Ok(Err(other)) => panic!("seed {seed}: untyped error {other:?}"),
            Err(_) => panic!("seed {seed}: panicked or kept a broken graph on {bytes:?}"),
        }
    }
}

/// `write → read` is the identity on everything a graph holds — keyword
/// *ids* and vocabulary order included, which a reader that re-interned
/// the strings would only preserve by accident.
#[test]
fn dblp_roundtrip_is_the_identity() {
    let (g, _) = dblp_like(&DblpParams::scaled(2_000, 19));
    let mut bytes = Vec::new();
    write_snapshot(&g, &mut bytes);
    assert_eq!(bytes, reference_bytes(&g), "the column writer changed the format");

    let back = read_snapshot_bytes(&bytes).unwrap();
    assert_eq!(back.vertex_count(), g.vertex_count());
    assert_eq!(back.edge_count(), g.edge_count());
    for v in g.vertices() {
        assert_eq!(back.neighbors(v), g.neighbors(v), "adjacency of {v}");
        assert_eq!(back.keywords(v), g.keywords(v), "keyword ids of {v}");
        assert_eq!(back.label(v), g.label(v));
        assert_eq!(back.vertex_by_label(g.label(v)), g.vertex_by_label(g.label(v)));
    }
    assert!(back.interner().iter().eq(g.interner().iter()), "vocabulary order");
    assert_eq!(
        cx_check::canonical::graph_fingerprint(&back),
        cx_check::canonical::graph_fingerprint(&g)
    );
    assert_invariants(&back);

    // A second trip writes the same bytes.
    let mut again = Vec::new();
    write_snapshot(&back, &mut again);
    assert_eq!(again, bytes);
}

/// Labels whose case folds differ in length, are context-dependent, or
/// are empty survive the trip into the label column; cut anywhere in the
/// label section, or with a multi-byte char broken, they are a typed
/// error.
#[test]
fn folding_labels_roundtrip_and_their_damage_is_typed() {
    let tricky = ["İstanbul", "Straße", "ΟΔΟΣ", ""];
    let mut raw = Raw::valid();
    raw.labels = tricky.iter().map(|s| s.as_bytes().to_vec()).collect();
    let (marks, bytes) = raw.encode();
    let g = read_snapshot_bytes(&bytes).unwrap();
    for (v, want) in g.vertices().zip(tricky) {
        assert_eq!(g.label(v), want);
        assert_eq!(g.vertex_by_label(want), Some(v));
    }
    assert_eq!(g.labels().folded(VertexId(0)), "i\u{307}stanbul");
    assert_eq!(g.labels().folded(VertexId(2)), "οδος");
    assert_eq!(g.search_label_top("STRASSE", 8).0, Vec::<VertexId>::new());
    assert_eq!(g.search_label_top("STRAß", 8), (vec![VertexId(1)], 1));
    assert_eq!(g.search_label_top("ΟΔΟΣ", 8), (vec![VertexId(2)], 1));
    assert_eq!(cx_check::invariants::check_label_column(&g), Vec::new());
    let mut again = Vec::new();
    write_snapshot(&g, &mut again);
    assert_eq!(again, bytes);

    let labels_start = *marks.last().unwrap();
    for cut in labels_start..bytes.len() {
        expect_snapshot_error(&format!("label section cut at byte {cut}"), &bytes[..cut]);
    }
    let mut broken = raw.clone();
    broken.labels[1] = "Straße".as_bytes()[..5].to_vec(); // the first byte of ß alone
    expect_snapshot_error("a label ending inside a char", &broken.bytes());
    broken.labels[1] = vec![b'S', 0xC3, b'e'];
    expect_snapshot_error("a label with a broken char", &broken.bytes());
}

/// Labels may repeat; the index answers with the first, as the builder's
/// does.
#[test]
fn duplicate_labels_keep_first_wins() {
    let mut raw = Raw::valid();
    raw.labels[3] = b"a".to_vec();
    let g = read_snapshot_bytes(&raw.bytes()).unwrap();
    assert_eq!(g.vertex_by_label("a"), Some(VertexId(0)));
    assert_eq!(g.label(VertexId(3)), "a");
}

/// `bytes` decoded from pieces of `piece` bytes, re-encoded on success.
fn in_pieces(bytes: &[u8], piece: usize) -> Result<Vec<u8>, String> {
    let mut r = StreamReader::new(BufReader::with_capacity(piece, bytes), bytes.len());
    let g = read_snapshot(&mut r).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    write_snapshot(&g, &mut out);
    Ok(out)
}

/// Piece boundaries split words, strings and chars at every offset in
/// one-to-nine-byte pieces; the graph and every error are the ones the
/// whole buffer gives.
#[test]
fn pieces_of_any_size_decode_like_one_buffer() {
    let (g, _) = dblp_like(&DblpParams::scaled(300, 5));
    let mut bytes = Vec::new();
    write_snapshot(&g, &mut bytes);
    for piece in (1..=9).chain([64, 4_096]) {
        assert_eq!(in_pieces(&bytes, piece).as_ref(), Ok(&bytes), "pieces of {piece}");
    }

    let whole = |b: &[u8]| read_snapshot_bytes(b).map(|_| ()).map_err(|e| e.to_string());
    let valid = Raw::valid().bytes();
    let mut damaged: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for byte in 0..valid.len() {
        for bit in [0, 3, 7] {
            let mut flipped = valid.clone();
            flipped[byte] ^= 1 << bit;
            damaged.push(flipped);
        }
    }
    for bytes in &damaged {
        for piece in 1..=9 {
            assert_eq!(in_pieces(bytes, piece).map(drop), whole(bytes), "pieces of {piece}: {bytes:?}");
        }
    }
}
