//! The label column: every vertex's display label in one UTF-8 arena, a
//! case-folded twin, and the vertex ids sorted by folded label — so an
//! exact lookup and a name-box prefix are binary searches, not scans.
//!
//! Case folding is `str::to_lowercase` applied to each label (and to each
//! query) as a whole, so a query matches a label exactly when the folded
//! label contains the folded query. The twin is omitted when every label
//! already equals its fold, as generated `author-N` labels do.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::error::GraphError;
use crate::graph::{CsrOffset, VertexId};

/// Strings in one UTF-8 arena: string `i` is
/// `text[offsets[i] .. offsets[i + 1]]`. Offsets are `u32` and every one
/// falls on a char boundary.
#[derive(Debug)]
pub struct LabelArena {
    text: String,
    off: Vec<CsrOffset>,
}

impl Default for LabelArena {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl LabelArena {
    /// An empty arena with room for `strings` strings of `bytes` bytes.
    pub(crate) fn with_capacity(strings: usize, bytes: usize) -> Self {
        let mut off = Vec::with_capacity(strings + 1);
        off.push(0);
        Self { text: String::with_capacity(bytes), off }
    }

    /// Appends the next string; errors once the arena outgrows the `u32`
    /// offset space.
    pub(crate) fn push(&mut self, s: &str) -> Result<(), GraphError> {
        let end = u32::try_from(self.text.len() + s.len())
            .map_err(|_| GraphError::Capacity("label bytes exceed the u32 offset space".into()))?;
        self.text.push_str(s);
        self.off.push(end);
        Ok(())
    }

    /// Number of strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether the arena holds no string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// String `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.text[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// The arena bytes, every string back to back.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The `len() + 1` offsets into [`Self::text`].
    pub fn offsets(&self) -> &[CsrOffset] {
        &self.off
    }

    fn memory_bytes(&self) -> usize {
        self.text.len() + self.off.len() * std::mem::size_of::<CsrOffset>()
    }

    /// Builds the folded twin and the sort order: the finished column.
    pub(crate) fn seal(self) -> Result<LabelColumn, GraphError> {
        let n = self.len();
        let mut folded: Option<LabelArena> = None;
        for i in 0..n {
            let label = self.get(i);
            let f = fold(label);
            if let Some(twin) = &mut folded {
                twin.push(&f)?;
            } else if f != label {
                // The first label its fold changes: every one before it
                // is its own fold.
                let mut twin = LabelArena::with_capacity(n, self.text.len());
                for j in 0..i {
                    twin.push(self.get(j))?;
                }
                twin.push(&f)?;
                folded = Some(twin);
            }
        }
        // Sort on the eight fold bytes that follow the prefix every fold
        // shares (`author-` in generated graphs), held inline as an
        // integer, and compare whole folds only on a tie: the order of
        // (fold, id), for half the time of comparing folds throughout at
        // a million labels.
        let keys = folded.as_ref().unwrap_or(&self);
        let fold_of = |i: u32| keys.get(i as usize).as_bytes();
        let shared = match n {
            0 => 0,
            _ => (1..n as u32).fold(fold_of(0).len(), |len, i| {
                fold_of(0)[..len].iter().zip(fold_of(i)).take_while(|(a, b)| a == b).count()
            }),
        };
        let mut keyed: Vec<(u64, u32)> = (0..n as u32)
            .map(|i| {
                let tail = &fold_of(i)[shared..];
                let mut word = [0u8; 8];
                let len = tail.len().min(8);
                word[..len].copy_from_slice(&tail[..len]);
                (u64::from_be_bytes(word), i)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| fold_of(a.1).cmp(fold_of(b.1))).then(a.1.cmp(&b.1))
        });
        let order = keyed.into_iter().map(|(_, v)| VertexId(v)).collect();
        Ok(LabelColumn { labels: self, folded, order })
    }
}

/// `s.to_lowercase()`, borrowed when that is `s` itself (ASCII with no
/// upper-case letter).
fn fold(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase() || !b.is_ascii()) {
        Cow::Owned(s.to_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Every vertex's label, its case fold, and the vertex ids sorted by
/// (folded label, id). Built once per graph and shared by `Arc` across
/// edge edits.
#[derive(Debug)]
pub struct LabelColumn {
    labels: LabelArena,
    /// `None` when every label equals its fold.
    folded: Option<LabelArena>,
    order: Vec<VertexId>,
}

impl LabelColumn {
    /// Number of labels (= vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the column holds no label.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> &str {
        self.labels.get(v.index())
    }

    /// The case fold of `v`'s label.
    #[inline]
    pub fn folded(&self, v: VertexId) -> &str {
        self.folded_arena().get(v.index())
    }

    /// The labels' arena.
    pub fn arena(&self) -> &LabelArena {
        &self.labels
    }

    /// The folded twin's arena, or `None` when every label is its own fold.
    pub fn folded_twin(&self) -> Option<&LabelArena> {
        self.folded.as_ref()
    }

    fn folded_arena(&self) -> &LabelArena {
        self.folded.as_ref().unwrap_or(&self.labels)
    }

    /// Every vertex id, sorted by (folded label, id).
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// The range of [`Self::order`] whose folded labels start with the
    /// (already folded) `prefix`: the labels with a prefix are contiguous
    /// in sorted order, right after every label below the prefix.
    fn prefix_range(&self, prefix: &str) -> Range<usize> {
        let lo = self.order.partition_point(|&v| self.folded(v) < prefix);
        let len = self.order[lo..].partition_point(|&v| self.folded(v).starts_with(prefix));
        lo..lo + len
    }

    /// The lowest-id vertex labelled exactly `label`: an equal range on
    /// the fold, then the first exact match in it.
    pub fn find(&self, label: &str) -> Option<VertexId> {
        let key = fold(label);
        let range = self.prefix_range(&key);
        self.order[range]
            .iter()
            .take_while(|&&v| self.folded(v).len() == key.len())
            .find(|&&v| self.get(v) == label)
            .copied()
    }

    /// The `top` best case-insensitive matches of `query`, best first, and
    /// a match count. Matches rank exact ▸ prefix ▸ interior (the folded
    /// label equals, starts with, or otherwise contains the folded query),
    /// each tier by `degree` descending, then id.
    ///
    /// The exact and prefix tiers are one range of [`Self::order`]. The
    /// interior tier needs a pass over the folded arena, which runs only
    /// when that range holds fewer than `top` matches; the count is the
    /// range's length, plus the interior matches whenever the pass ran.
    pub fn search(
        &self,
        query: &str,
        top: usize,
        degree: impl Fn(VertexId) -> usize,
    ) -> (Vec<VertexId>, usize) {
        let q = fold(query);
        let range = self.prefix_range(&q);
        let mut total = range.len();
        // Max-heap keeps the *worst* retained rank on top, so each new
        // candidate compares against the cutoff in O(1).
        let mut heap = BinaryHeap::new();
        let mut offer = |tier: u8, v: VertexId| {
            let rank = (tier, Reverse(degree(v)), v);
            if heap.len() < top {
                heap.push(rank);
            } else if let Some(mut worst) = heap.peek_mut() {
                if rank < *worst {
                    *worst = rank;
                }
            }
        };
        if top > 0 {
            for &v in &self.order[range] {
                // In the range every fold starts with q, so equal is as long.
                offer(u8::from(self.folded(v).len() != q.len()), v);
            }
        }
        if total < top && !q.is_empty() {
            self.each_interior(&q, |v| {
                total += 1;
                offer(2, v);
            });
        }
        (heap.into_sorted_vec().into_iter().map(|(_, _, v)| v).collect(), total)
    }

    /// Calls `f` for every vertex whose folded label contains the
    /// non-empty `q` but does not start with it, in id order: one
    /// allocation-free pass over the folded arena.
    fn each_interior(&self, q: &str, mut f: impl FnMut(VertexId)) {
        let arena = self.folded_arena();
        let (text, off) = (arena.text(), arena.offsets());
        let step = q.chars().next().map_or(1, char::len_utf8);
        let mut from = 0;
        while let Some(at) = text[from..].find(q).map(|i| from + i) {
            // The label holding the match's first byte (the last of any
            // empty labels at the same offset is the one that has it).
            let v = off.partition_point(|&o| o as usize <= at) - 1;
            let end = off[v + 1] as usize;
            if at + q.len() > end {
                // The match runs into the next label; look again one char on.
                from = at + step;
            } else {
                if at > off[v] as usize {
                    f(VertexId(v as u32));
                }
                from = end;
            }
        }
    }

    /// Heap bytes of the arena, offsets, twin and order.
    pub fn memory_bytes(&self) -> usize {
        self.labels.memory_bytes()
            + self.folded.as_ref().map_or(0, LabelArena::memory_bytes)
            + self.order.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(labels: &[&str]) -> LabelColumn {
        let mut arena = LabelArena::default();
        for l in labels {
            arena.push(l).unwrap();
        }
        arena.seal().unwrap()
    }

    #[test]
    fn order_sorts_by_fold_then_id() {
        let c = column(&["b", "A", "a", "B", ""]);
        let ids: Vec<u32> = c.order().iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![4, 1, 2, 0, 3]);
        // Every fold shares "xx-"; two tie on the eight bytes after it.
        let c = column(&["xx-abcdefgh2", "xx-abcdefgh1", "xx-a", "XX-abcdefgh1", "XX-B"]);
        let ids: Vec<u32> = c.order().iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![2, 1, 3, 0, 4]);
    }

    #[test]
    fn interior_matches_skip_prefixes_and_label_boundaries() {
        // The arena reads "xa|baba|caab|aab|": "aba" first matches across
        // the first boundary, and the real match inside "baba" overlaps
        // that hit, so a search that resumed after it would miss it.
        let c = column(&["xa", "baba", "caab", "aab", ""]);
        let mut aba = Vec::new();
        c.each_interior("aba", |v| aba.push(v.0));
        assert_eq!(aba, vec![1]);
        let mut aa = Vec::new();
        c.each_interior("aa", |v| aa.push(v.0));
        assert_eq!(aa, vec![2]);
    }
}
