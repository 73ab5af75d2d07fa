//! Property-based tests for the WAL frame + record codec: round-trips on
//! arbitrary deltas, single-bit-flip detection, and self-delimiting
//! frames under concatenation and truncation.
//!
//! Gated behind the non-default `proptest` feature: the build environment
//! is offline, so the `proptest` dev-dependency is not in the manifest.
//! Restore it before enabling the feature in a networked environment —
//! see DESIGN.md "Offline build policy". The seeded offline twin of this
//! suite is `wal_codec.rs`, which always runs.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use cx_graph::{EdgeDelta, VertexId};
use cx_store::frame::{encode_frame, scan};
use cx_store::Record;

/// Strategy: a normalized [`EdgeDelta`] (disjoint sets, `u < v`, sorted)
/// — the exact shape `AttributedGraph::edge_delta` guarantees.
fn arb_delta(max_v: u32) -> impl Strategy<Value = EdgeDelta> {
    proptest::collection::btree_set((0..max_v, 0..max_v), 0..24).prop_flat_map(|pairs| {
        let pairs: Vec<(u32, u32)> =
            pairs.into_iter().filter(|(u, v)| u != v).map(|(u, v)| (u.min(v), u.max(v))).collect();
        let len = pairs.len();
        (Just(pairs), 0..=len).prop_map(|(pairs, split)| EdgeDelta {
            added: pairs[..split].iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect(),
            removed: pairs[split..].iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect(),
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delta_records_roundtrip(delta in arb_delta(64), generation in 1u64..1_000_000) {
        let rec = Record::Edit { name: "g".into(), generation, delta: delta.clone() };
        match Record::decode(&rec.encode()).unwrap() {
            Record::Edit { delta: back, generation: g2, .. } => {
                prop_assert_eq!(back.added, delta.added);
                prop_assert_eq!(back.removed, delta.removed);
                prop_assert_eq!(g2, generation);
            }
            other => prop_assert!(false, "wrong kind: {:?}", other),
        }
    }

    #[test]
    fn single_bit_flips_never_accepted(
        delta in arb_delta(32),
        lsn in 1u64..1_000,
        byte_sel in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let rec = Record::Edit { name: "g".into(), generation: 1, delta };
        let frame = encode_frame(lsn, &rec.encode());
        let mut bad = frame.clone();
        let byte = byte_sel.index(bad.len());
        bad[byte] ^= 1 << bit;
        prop_assert!(scan(&bad, lsn - 1).frames.is_empty());
        prop_assert_eq!(scan(&frame, lsn - 1).frames.len(), 1);
    }

    #[test]
    fn concatenated_frames_self_delimit(
        deltas in proptest::collection::vec(arb_delta(16), 1..8),
        cut_sel in any::<prop::sample::Index>(),
    ) {
        let mut log = Vec::new();
        for (i, d) in deltas.iter().enumerate() {
            let rec = Record::Edit { name: format!("g{i}"), generation: i as u64 + 1, delta: d.clone() };
            log.extend_from_slice(&encode_frame(i as u64 + 1, &rec.encode()));
        }
        let out = scan(&log, 0);
        prop_assert!(out.tail.is_none());
        prop_assert_eq!(out.frames.len(), deltas.len());
        // Any truncation point yields a clean prefix of whole frames that
        // decode to the original records.
        let cut = cut_sel.index(log.len() + 1);
        let prefix = scan(&log[..cut], 0);
        prop_assert!(prefix.frames.len() <= deltas.len());
        for (f, d) in prefix.frames.iter().zip(&deltas) {
            match Record::decode(f.record).unwrap() {
                Record::Edit { delta: back, .. } => {
                    prop_assert_eq!(&back.added, &d.added);
                    prop_assert_eq!(&back.removed, &d.removed);
                }
                other => prop_assert!(false, "wrong kind: {:?}", other),
            }
        }
    }
}
