//! WAL frame + record codec properties, driven by a seeded sweep:
//! round-trips of arbitrary deltas and records, single-bit-flip
//! detection, self-delimiting frames under concatenation and truncation,
//! and a retired record kind that recovery refuses instead of skipping.

use std::sync::Arc;

use cx_graph::{EdgeDelta, GraphBuilder, VertexId};
use cx_graph::codec::ByteWriter;
use cx_store::frame::{encode_frame, scan};
use cx_store::{crc32, Record, Store, StoreError, StoredProfile, WAL_FILE};

/// Minimal seeded generator (xorshift*) so the sweep needs no external
/// crates and reproduces from the constants below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A seeded, normalized delta over `n` vertices: disjoint added/removed
/// sets, each pair `u < v`, sorted — the shape `edge_delta` guarantees.
fn arbitrary_delta(rng: &mut Rng, n: u32) -> EdgeDelta {
    let mut pairs = std::collections::BTreeSet::new();
    for _ in 0..rng.below(12) {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u != v {
            pairs.insert((u.min(v), u.max(v)));
        }
    }
    let pairs: Vec<_> = pairs.into_iter().collect();
    let split = if pairs.is_empty() { 0 } else { rng.below(pairs.len() as u64 + 1) as usize };
    EdgeDelta {
        added: pairs[..split].iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect(),
        removed: pairs[split..].iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect(),
    }
}

fn arbitrary_string(rng: &mut Rng) -> String {
    let alphabet = ['a', 'Z', '0', ' ', '/', 'é', '💾', '.'];
    (0..rng.below(10)).map(|_| alphabet[rng.below(8) as usize]).collect()
}

fn arbitrary_record(rng: &mut Rng) -> Record {
    let name = format!("g{}", rng.below(4));
    let generation = rng.below(1000) + 1;
    match rng.below(5) {
        0 => {
            let n = 2 + rng.below(6) as u32;
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(&format!("v{i}"), &["k"]);
            }
            for u in 0..n.saturating_sub(1) {
                if rng.below(2) == 0 {
                    b.add_edge(VertexId(u), VertexId(u + 1));
                }
            }
            Record::AddGraph { name, generation, graph: Arc::new(b.build()) }
        }
        1 => Record::Edit { name, generation, delta: arbitrary_delta(rng, 32) },
        2 => Record::Remove { name, generation },
        3 => Record::SetProfiles {
            name,
            generation,
            profiles: (0..rng.below(4))
                .map(|i| StoredProfile {
                    vertex: VertexId(i as u32),
                    name: arbitrary_string(rng),
                    areas: vec![arbitrary_string(rng)],
                    institutes: vec![],
                    interests: vec![arbitrary_string(rng), arbitrary_string(rng)],
                })
                .collect(),
        },
        _ => Record::SetDefault { default: (rng.below(2) == 0).then(|| arbitrary_string(rng)) },
    }
}

fn assert_records_equal(a: &Record, b: &Record) {
    // The codec has no PartialEq (AttributedGraph is behind an Arc);
    // compare re-encoded bytes, which is exactly the durability contract.
    assert_eq!(a.encode(), b.encode());
}

#[test]
fn arbitrary_edge_deltas_roundtrip() {
    let mut rng = Rng(0x5EED_0001);
    for case in 0..200 {
        let delta = arbitrary_delta(&mut rng, 64);
        let rec = Record::Edit { name: "g".into(), generation: case + 1, delta: delta.clone() };
        match Record::decode(&rec.encode()).unwrap() {
            Record::Edit { delta: back, generation, .. } => {
                assert_eq!(back.added, delta.added, "case {case}");
                assert_eq!(back.removed, delta.removed, "case {case}");
                assert_eq!(generation, case + 1);
            }
            other => panic!("case {case}: wrong kind {other:?}"),
        }
    }
}

#[test]
fn arbitrary_records_roundtrip() {
    let mut rng = Rng(0x5EED_0002);
    for case in 0..150 {
        let rec = arbitrary_record(&mut rng);
        let back = Record::decode(&rec.encode())
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_records_equal(&rec, &back);
    }
}

#[test]
fn checksum_detects_every_single_bit_flip() {
    let mut rng = Rng(0x5EED_0003);
    for case in 0..20 {
        let rec = arbitrary_record(&mut rng);
        let frame = encode_frame(case + 1, &rec.encode());
        // CRC32 guarantees detection of any single-bit error.
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let out = scan(&bad, case);
                assert!(
                    out.frames.is_empty(),
                    "case {case}: flip at byte {byte} bit {bit} accepted"
                );
            }
        }
        assert_eq!(scan(&frame, case).frames.len(), 1);
    }
}

#[test]
fn frames_self_delimit_under_concatenation() {
    let mut rng = Rng(0x5EED_0004);
    for case in 0..30 {
        let records: Vec<Record> = (0..1 + rng.below(8)).map(|_| arbitrary_record(&mut rng)).collect();
        let mut log = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64 + 1, &rec.encode()));
        }
        let out = scan(&log, 0);
        assert!(out.tail.is_none(), "case {case}: clean log has no tail");
        assert_eq!(out.frames.len(), records.len(), "case {case}");
        for (frame, rec) in out.frames.iter().zip(&records) {
            assert_records_equal(&Record::decode(frame.record).unwrap(), rec);
        }
        // Any split point yields a clean prefix of whole frames.
        let cut = (rng.next() as usize) % (log.len() + 1);
        let prefix = scan(&log[..cut], 0);
        assert!(prefix.frames.len() <= records.len());
        for (frame, rec) in prefix.frames.iter().zip(&records) {
            assert_records_equal(&Record::decode(frame.record).unwrap(), rec);
        }
    }
}

/// A whole, checksummed frame of the retired coordinates kind (5) is not
/// a torn tail: `Store::open` answers the typed unknown-kind error and
/// leaves every byte of the WAL where it was.
#[test]
fn a_retired_record_kind_is_refused_not_truncated() {
    let dir = std::env::temp_dir().join(format!("cx-wal-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut retired = vec![5u8];
    retired.str("g");
    retired.u64(2);
    retired.u32(0);
    let first = Record::Remove { name: "g".into(), generation: 1 };
    let mut log = encode_frame(1, &first.encode());
    log.extend_from_slice(&encode_frame(2, &retired));
    let wal = dir.join(WAL_FILE);
    std::fs::write(&wal, &log).unwrap();
    match Store::open(&dir) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("unknown WAL record kind 5"), "{msg}")
        }
        Err(other) => panic!("expected the unknown-kind error, got {other}"),
        Ok(_) => panic!("a retired record kind must not open"),
    }
    assert_eq!(std::fs::read(&wal).unwrap(), log, "the WAL must be left as it was");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crc_reference_vector_pins_the_polynomial() {
    // If the CRC implementation ever changes, old WALs become
    // unreadable; this vector pins the exact function.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
