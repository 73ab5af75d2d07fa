//! Fixed-width keyword signatures for subtree pruning (DESIGN.md §16).
//!
//! Every CL-tree node carries a 256-bit bloom-style signature of the
//! keywords present anywhere in its *subtree* (own inverted lists plus all
//! descendants). A keyword maps to two bit positions; a subtree whose
//! signature is missing either bit provably contains no carrier of that
//! keyword, so the ACQ candidate walk can skip it wholesale. False
//! positives merely descend a subtree that contributes nothing — the
//! answer never changes (no false negatives): `cx-check` compares every
//! strategy against the index-free `Basic` walk, which reads no signature.

use cx_graph::KeywordId;

use crate::node::ClTreeNode;

/// Width of a [`KeywordSignature`] in bits.
pub const SIGNATURE_BITS: usize = 256;
const WORDS: usize = SIGNATURE_BITS / 64;

/// A 256-bit bloom filter over the keyword ids of a CL-tree subtree.
///
/// Two bit positions per keyword (both derived from one `splitmix64`
/// round), OR-merged up the tree. `Copy` and inline in the node — carried
/// nodes in [`crate::ClTree::update`] keep their signature by plain clone,
/// which is sound because a preserved subtree's keyword set is immutable
/// under edge edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeywordSignature([u64; WORDS]);

impl KeywordSignature {
    /// The empty signature (no keywords).
    pub const EMPTY: Self = Self([0; WORDS]);

    /// The two-bit membership mask for one keyword. Computed once per
    /// query keyword, then tested against node signatures with
    /// [`Self::contains_all`].
    #[inline]
    pub fn mask_of(w: KeywordId) -> Self {
        // One splitmix64 finalization round; the low 16 bits give two
        // independent-enough probes into 256 positions.
        let mut x = (w.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let b1 = (x & 255) as usize;
        let b2 = ((x >> 8) & 255) as usize;
        let mut s = [0u64; WORDS];
        s[b1 >> 6] |= 1 << (b1 & 63);
        s[b2 >> 6] |= 1 << (b2 & 63);
        Self(s)
    }

    /// Adds one keyword to the signature.
    #[inline]
    pub fn insert(&mut self, w: KeywordId) {
        self.or(&Self::mask_of(w));
    }

    /// OR-merges another signature into this one (subtree aggregation).
    #[inline]
    pub fn or(&mut self, other: &Self) {
        for i in 0..WORDS {
            self.0[i] |= other.0[i];
        }
    }

    /// `true` iff every bit of `mask` is set — i.e. the subtree *may*
    /// contain the mask's keyword. `false` is a proof of absence.
    #[inline]
    pub fn contains_all(&self, mask: &Self) -> bool {
        (0..WORDS).all(|i| self.0[i] & mask.0[i] == mask.0[i])
    }

    /// `true` iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Little-endian byte image, used by `cx-check`'s canonical tree
    /// encoding so the incremental-vs-scratch oracle covers signatures.
    pub fn to_bytes(&self) -> [u8; SIGNATURE_BITS / 8] {
        let mut out = [0u8; SIGNATURE_BITS / 8];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// (Re)computes subtree signatures for every node whose level is
/// `<= up_to_level`, bottom-up. Children sit at strictly higher levels
/// than their parent (a structural CL-tree invariant, validated on
/// snapshot load), so a descending-level sweep sees every child before
/// its parent; children *above* the threshold keep their carried — still
/// valid — signature and are only read.
///
/// Buckets by level instead of sorting: `ClTree::update` calls this with
/// a small threshold on the edit path, and O(n log n) over the whole
/// arena would show up in the edit-latency budget.
pub(crate) fn compute_signatures(nodes: &mut [ClTreeNode], up_to_level: u32) {
    let max_level = nodes.iter().map(|n| n.level).max().unwrap_or(0).min(up_to_level);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
    for (i, n) in nodes.iter().enumerate() {
        if n.level <= up_to_level {
            buckets[n.level as usize].push(i as u32);
        }
    }
    for bucket in buckets.iter().rev() {
        for &i in bucket {
            let i = i as usize;
            let mut sig = KeywordSignature::EMPTY;
            for &w in nodes[i].inverted.keys() {
                sig.insert(w);
            }
            for ci in 0..nodes[i].children.len() {
                let c = nodes[i].children[ci];
                sig.or(&nodes[c.index()].signature);
            }
            nodes[i].signature = sig;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_roundtrip_no_false_negatives() {
        // Every inserted keyword must test positive — the soundness half
        // of the bloom contract.
        let mut sig = KeywordSignature::EMPTY;
        for id in (0..10_000u32).step_by(7) {
            sig.insert(KeywordId(id));
        }
        for id in (0..10_000u32).step_by(7) {
            assert!(sig.contains_all(&KeywordSignature::mask_of(KeywordId(id))));
        }
    }

    #[test]
    fn empty_signature_rejects_everything_with_two_probes() {
        let sig = KeywordSignature::EMPTY;
        assert!(sig.is_empty());
        for id in 0..512u32 {
            let mask = KeywordSignature::mask_of(KeywordId(id));
            assert!(!mask.is_empty());
            assert!(!sig.contains_all(&mask));
        }
    }

    #[test]
    fn union_is_commutative_and_monotone() {
        let mut a = KeywordSignature::EMPTY;
        a.insert(KeywordId(3));
        let mut b = KeywordSignature::EMPTY;
        b.insert(KeywordId(99));
        let mut ab = a;
        ab.or(&b);
        let mut ba = b;
        ba.or(&a);
        assert_eq!(ab, ba);
        assert!(ab.contains_all(&KeywordSignature::mask_of(KeywordId(3))));
        assert!(ab.contains_all(&KeywordSignature::mask_of(KeywordId(99))));
    }

    #[test]
    fn sparse_signatures_do_prune() {
        // With a handful of keywords, an unrelated id should almost
        // always miss; require at least a strong majority so a hash
        // regression that saturates the filter gets caught.
        let mut sig = KeywordSignature::EMPTY;
        for id in 0..8u32 {
            sig.insert(KeywordId(id));
        }
        let misses = (1000..2000u32)
            .filter(|&id| !sig.contains_all(&KeywordSignature::mask_of(KeywordId(id))))
            .count();
        assert!(misses > 900, "only {misses}/1000 unrelated keywords pruned");
    }

    #[test]
    fn to_bytes_distinguishes_signatures() {
        let mut a = KeywordSignature::EMPTY;
        a.insert(KeywordId(1));
        let mut b = KeywordSignature::EMPTY;
        b.insert(KeywordId(2));
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_eq!(KeywordSignature::EMPTY.to_bytes(), [0u8; 32]);
    }
}
