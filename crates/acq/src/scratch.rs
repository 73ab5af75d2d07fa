//! Reusable per-query execution state — the zero-allocation hot path.
//!
//! A steady-state ACQ query over a warmed [`QueryScratch`] performs **zero
//! heap allocations**: every buffer the Dec strategy touches (the
//! candidate-core buffer, the keyword table and candidate bitset, the
//! peel marks, the walk's prefix and support stacks, the hit accumulator, and the final
//! answer itself) lives in the scratch or in the caller's
//! [`QueryAnswer`] and is cleared by `Vec::clear`/epoch bump rather than
//! reallocated. Capacities grow monotonically to the workload's high-water
//! mark during warmup and then stay put — verified by the counting global
//! allocator in `tests/zero_alloc.rs`.
//!
//! The public entries [`crate::acq`] and [`crate::acq_set`] draw a
//! scratch from a thread-local pool (one per engine worker thread), so
//! callers get the fast path without managing buffers;
//! [`crate::acq_with_scratch`] exposes the
//! scratch-resident answer for benchmarks and batch executors that want
//! to avoid even the final copy-out.

use std::cell::RefCell;

use cx_graph::{AttributedGraph, Community, KeywordId, VertexId};
use cx_kcore::PeelScratch;

use crate::AcqResult;

/// Buffers for [`crate::verify::Verifier`]: the per-query verification
/// context (q's k-core, keyword-list spans, peel state).
pub(crate) struct VerifyScratch {
    /// Subset-peel state (epoch-cleared dense buffers).
    pub peel: PeelScratch,
    /// Vertices of the connected k-core containing q (sorted).
    pub core: Vec<VertexId>,
    /// Surviving keywords of S, sorted by id.
    pub alive: Vec<KeywordId>,
    /// Where surviving keyword `i`'s ascending rank list sits: a span of
    /// the CL-tree's postings (deferred-peel mode, nothing copied) or of
    /// `singleton_ranks` (eager mode).
    pub spans: Vec<(usize, usize)>,
    /// Eager mode's peeled singleton cores, as ascending ranks.
    pub singleton_ranks: Vec<u32>,
    /// Keyword id → its index in `alive` (`u32::MAX` for any other
    /// keyword); sized to the largest alive keyword id seen, and reset
    /// from `alive` when the next query starts.
    pub kw_alive: Vec<u32>,
    /// The candidate being verified, as a bitset over `alive` indices.
    pub want: Vec<u64>,
    /// Output of the most recent peel.
    pub peeled: Vec<VertexId>,
    /// Per-neighbour-of-q keyword bitmasks over the query set S (bit `j`
    /// set iff `s[j] ∈ W(u)`), powering the exact-count candidate
    /// short-circuit: a k-core community keeps deg(q) ≥ k inside, so a
    /// candidate with fewer than k carrier neighbours can never verify.
    pub nbr_mask: Vec<u64>,
    /// For each surviving keyword `alive[i]`, its bit position in S (and
    /// in `nbr_mask`).
    pub alive_spos: Vec<u32>,
}

impl VerifyScratch {
    fn new() -> Self {
        Self {
            peel: PeelScratch::new(),
            core: Vec::new(),
            alive: Vec::new(),
            spans: Vec::new(),
            singleton_ranks: Vec::new(),
            kw_alive: Vec::new(),
            want: Vec::new(),
            peeled: Vec::new(),
            nbr_mask: Vec::new(),
            alive_spos: Vec::new(),
        }
    }
}

/// Buffers for the strategy drivers (Dec/Inc/Basic bookkeeping).
pub(crate) struct StratScratch {
    /// Effective query keyword set S.
    pub s: Vec<KeywordId>,
    /// Current keyword-subset combination (indices into `alive`): Dec's
    /// walk prefix, Basic's combination cursor.
    pub idxs: Vec<usize>,
    /// Dec's support stack: the alive-keyword neighbour masks, then per
    /// walk depth the masks that still cover the prefix.
    pub support: Vec<u64>,
    /// Flattened verified hits awaiting finalize: hit `i` is
    /// `hits_data[hits_off[i]..hits_off[i + 1]]`.
    pub hits_data: Vec<VertexId>,
    pub hits_off: Vec<usize>,
    /// Inc-T's stack of peeled prefix cores, flattened per depth.
    pub prefix_data: Vec<VertexId>,
    /// Finalize ordering buffer (indices of deduplicated hits).
    pub order: Vec<usize>,
    /// Shared-keyword accumulator and its ping-pong partner.
    pub shared_a: Vec<KeywordId>,
    pub shared_b: Vec<KeywordId>,
}

impl StratScratch {
    fn new() -> Self {
        Self {
            s: Vec::new(),
            idxs: Vec::new(),
            support: Vec::new(),
            hits_data: Vec::new(),
            hits_off: Vec::new(),
            prefix_data: Vec::new(),
            order: Vec::new(),
            shared_a: Vec::new(),
            shared_b: Vec::new(),
        }
    }

    /// Drops all recorded hits (keeps capacity).
    pub fn clear_hits(&mut self) {
        self.hits_data.clear();
        self.hits_off.clear();
        self.hits_off.push(0);
    }

    /// Number of recorded hits.
    pub fn hit_count(&self) -> usize {
        self.hits_off.len().saturating_sub(1)
    }

    /// Records one verified member list.
    pub fn push_hit(&mut self, members: &[VertexId]) {
        self.hits_data.extend_from_slice(members);
        self.hits_off.push(self.hits_data.len());
    }
}

/// Reusable execution state for one ACQ query stream: peel buffers,
/// verifier caches and strategy bookkeeping, all cleared in O(1) between
/// queries. Create once (or let [`crate::acq`] pool one per thread) and
/// reuse; buffers grow to the workload high-water mark and then every
/// further query is allocation-free.
pub struct QueryScratch {
    pub(crate) verify: VerifyScratch,
    pub(crate) strat: StratScratch,
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self { verify: VerifyScratch::new(), strat: StratScratch::new() }
    }
}

/// A scratch-resident ACQ answer: communities stored as flattened sorted
/// member and shared-keyword slices, reusable across queries without
/// reallocating. [`QueryAnswer::to_result`] copies out an owned
/// [`AcqResult`] for callers that need one.
pub struct QueryAnswer {
    members: Vec<VertexId>,
    m_off: Vec<usize>,
    shared: Vec<KeywordId>,
    s_off: Vec<usize>,
    /// Size of the maximal shared keyword set (0 on plain-core fallback).
    pub shared_keyword_count: usize,
    /// Number of candidate keyword sets verified (keyword lookups plus
    /// candidate traversals; candidates the neighbour masks refute are
    /// excluded).
    pub candidates_verified: usize,
    /// True when the candidate budget was exhausted before completion.
    pub truncated: bool,
}

impl Default for QueryAnswer {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryAnswer {
    /// An empty answer; buffers grow on first use.
    pub fn new() -> Self {
        let mut a = Self {
            members: Vec::new(),
            m_off: Vec::new(),
            shared: Vec::new(),
            s_off: Vec::new(),
            shared_keyword_count: 0,
            candidates_verified: 0,
            truncated: false,
        };
        a.clear();
        a
    }

    /// Resets to "no communities" (keeps capacity).
    pub fn clear(&mut self) {
        self.members.clear();
        self.m_off.clear();
        self.m_off.push(0);
        self.shared.clear();
        self.s_off.clear();
        self.s_off.push(0);
        self.shared_keyword_count = 0;
        self.candidates_verified = 0;
        self.truncated = false;
    }

    /// Number of communities in the answer.
    pub fn community_count(&self) -> usize {
        self.m_off.len() - 1
    }

    /// Sorted member vertices of community `i`.
    pub fn members(&self, i: usize) -> &[VertexId] {
        &self.members[self.m_off[i]..self.m_off[i + 1]]
    }

    /// Sorted shared keywords (`L`) of community `i`.
    pub fn shared(&self, i: usize) -> &[KeywordId] {
        &self.shared[self.s_off[i]..self.s_off[i + 1]]
    }

    /// Appends one community (members sorted, shared sorted).
    pub(crate) fn push_community(&mut self, members: &[VertexId], shared: &[KeywordId]) {
        self.members.extend_from_slice(members);
        self.m_off.push(self.members.len());
        self.shared.extend_from_slice(shared);
        self.s_off.push(self.shared.len());
    }

    /// Copies the answer out into an owned [`AcqResult`].
    pub fn to_result(&self) -> AcqResult {
        let communities = (0..self.community_count())
            .map(|i| Community::new(self.members(i).to_vec(), self.shared(i).to_vec()))
            .collect();
        AcqResult {
            communities,
            shared_keyword_count: self.shared_keyword_count,
            candidates_verified: self.candidates_verified,
            truncated: self.truncated,
        }
    }
}

/// Builds the final answer from the recorded hits: dedup by member set
/// (first occurrence wins), compute each community's actual shared
/// keyword set `L = S ∩ ⋂_{v} W(v)`, order largest-first (stable), and
/// write into `out` — allocation-free in steady state.
///
/// When `use_s` is false the shared sets are empty (the plain-core
/// fallback, `L = ∅`).
pub(crate) fn finalize_into(
    g: &AttributedGraph,
    strat: &mut StratScratch,
    use_s: bool,
    out: &mut QueryAnswer,
) {
    let hits_data = &strat.hits_data;
    let hits_off = &strat.hits_off;
    let order = &mut strat.order;
    let hit = |i: usize| &hits_data[hits_off[i]..hits_off[i + 1]];

    // Dedup by member set, keeping first occurrences in insertion order.
    order.clear();
    'hits: for i in 0..hits_off.len().saturating_sub(1) {
        for &j in order.iter() {
            if hit(j) == hit(i) {
                continue 'hits;
            }
        }
        order.push(i);
    }
    // Stable insertion sort, largest community first — `slice::sort` is
    // stable but allocates, so order the handful of hits by hand.
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && hit(order[j - 1]).len() < hit(order[j]).len() {
            order.swap(j - 1, j);
            j -= 1;
        }
    }

    let s: &[KeywordId] = if use_s { &strat.s } else { &[] };
    for &i in order.iter() {
        let members = hit(i);
        // L = ∩_{v∈Gq} (W(v) ∩ S)
        strat.shared_a.clear();
        strat.shared_a.extend_from_slice(s);
        for &v in members {
            cx_graph::keywords::intersect_sorted_into(
                &strat.shared_a,
                g.keywords(v),
                &mut strat.shared_b,
            );
            std::mem::swap(&mut strat.shared_a, &mut strat.shared_b);
            if strat.shared_a.is_empty() {
                break;
            }
        }
        out.push_community(members, &strat.shared_a);
    }
}

thread_local! {
    static POOL: RefCell<(QueryScratch, QueryAnswer)> =
        RefCell::new((QueryScratch::new(), QueryAnswer::new()));
}

/// Runs `f` with this thread's pooled scratch + answer pair. Falls back
/// to a fresh pair under reentrancy (a query issued from inside a query
/// callback), which allocates but stays correct.
pub(crate) fn with_pooled<R>(f: impl FnOnce(&mut QueryScratch, &mut QueryAnswer) -> R) -> R {
    POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pair) => {
            let (scratch, answer) = &mut *pair;
            f(scratch, answer)
        }
        Err(_) => f(&mut QueryScratch::new(), &mut QueryAnswer::new()),
    })
}
