//! Sharded, bounded LRU cache for engine community-search results.
//!
//! Browsing sessions re-run the same query constantly: the user tweaks
//! `k`, flips back, compares two algorithms on the same vertex, or
//! refreshes the page. The community itself is a pure function of
//! `(graph snapshot, algorithm, resolved query)`, so the engine keeps a
//! small LRU map from that key to the result vector.
//!
//! Invalidation is generation-*keyed* rather than eager: the snapshot
//! generation a result was computed against is part of [`QueryKey`], so a
//! query against a newer snapshot can never be answered from an older
//! one's entry — the stale key simply never matches. When the engine
//! publishes a new snapshot it calls [`ShardedCache::purge_older`] to
//! drop the orphaned entries of the replaced generation immediately;
//! anything that slips through (a reader pinned to an old snapshot may
//! re-insert) ages out through normal LRU eviction. Replacing a CS
//! algorithm (`register_cs`) clears the cache wholesale — the same name
//! may now mean different code.
//! CD clusterings are memoised on their `GraphSnapshot`, not here.
//!
//! Concurrency: the cache is split into shards, each behind its own
//! `Mutex`, selected by a deterministic hash of the key. Concurrent
//! readers on different queries proceed without contending on one global
//! cache lock (the pre-snapshot engine's bottleneck). The shard *count*
//! adapts to the capacity (`min(capacity, 8)`, at least 1) so tiny test
//! caches keep exact LRU semantics within their single shard.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use cx_graph::{Community, VertexId};

/// The identity of a query: everything that determines its answer.
///
/// `generation` pins the key to one published snapshot of the graph, so
/// edits can never leak a stale answer. `vertices` holds the *resolved*
/// query vertex ids, so `by_label("A")` and `by_id` of the same vertex
/// share a slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Resolved graph name (never the "default" alias).
    pub graph: String,
    /// Snapshot generation the result is valid for.
    pub generation: u64,
    /// Algorithm name as registered.
    pub algo: String,
    /// Resolved query vertices.
    pub vertices: Vec<VertexId>,
    /// Minimum-degree parameter.
    pub k: u32,
    /// Keyword selection, in query order.
    pub keywords: Vec<String>,
}

struct CacheEntry {
    /// Logical timestamp of the last hit or insert (for LRU eviction).
    last_used: u64,
    result: Vec<Community>,
}

/// Hit/miss/occupancy counters, for tests and the `/api/v1/stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the algorithm.
    pub misses: u64,
    /// Entries currently stored.
    pub len: usize,
    /// Maximum entries before LRU eviction kicks in.
    pub capacity: usize,
}

/// One shard: a plain LRU map. Exact LRU order holds within a shard.
pub struct QueryCache {
    map: HashMap<QueryKey, CacheEntry>,
    capacity: usize,
    tick: u64,
}

/// Default number of cached query results per engine.
pub const DEFAULT_CAPACITY: usize = 128;

/// Upper bound on shards; the effective count is `min(capacity, 8)`.
const MAX_SHARDS: usize = 8;

impl QueryCache {
    /// An empty shard holding at most `capacity` results (0 disables
    /// caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), capacity, tick: 0 }
    }

    /// Looks up `key`, refreshing its LRU position on a hit.
    pub fn get(&mut self, key: &QueryKey) -> Option<Vec<Community>> {
        let e = self.map.get_mut(key)?;
        self.tick += 1;
        e.last_used = self.tick;
        Some(e.result.clone())
    }

    /// Stores a freshly computed result, evicting the least-recently
    /// used entry if the shard is full.
    pub fn insert(&mut self, key: QueryKey, result: Vec<Community>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                cx_obs::metrics::inc("cx_engine_cache_total{event=\"evict\"}");
            }
        }
        self.tick += 1;
        self.map.insert(key, CacheEntry { last_used: self.tick, result });
    }

    /// Drops every entry for `graph` older than `generation`; returns how
    /// many were dropped.
    pub fn purge_older(&mut self, graph: &str, generation: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| k.graph != graph || k.generation >= generation);
        before - self.map.len()
    }

    /// Drops every entry for `graph` regardless of generation; returns
    /// how many were dropped.
    pub fn purge_graph(&mut self, graph: &str) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| k.graph != graph);
        before - self.map.len()
    }

    /// Drops every cached result.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        n
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Shard layout for one capacity setting.
fn shard_capacities(capacity: usize) -> Vec<usize> {
    let n = capacity.clamp(1, MAX_SHARDS);
    let (base, extra) = (capacity / n, capacity % n);
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// The concurrent cache the engine embeds: shards behind independent
/// mutexes plus process-lifetime hit/miss counters. The outer `RwLock`
/// is only write-locked by [`ShardedCache::set_capacity`] (which rebuilds
/// the shard layout); every query path takes it in read mode and then
/// contends only on its own shard.
pub struct ShardedCache {
    shards: RwLock<Vec<Mutex<QueryCache>>>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedCache {
    /// A cache holding at most `capacity` results across all shards
    /// (0 disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            shards: RwLock::new(
                shard_capacities(capacity).into_iter().map(|c| Mutex::new(QueryCache::new(c))).collect(),
            ),
            capacity: AtomicUsize::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Deterministic shard index for a key (`DefaultHasher` is keyed with
    /// constants, unlike `RandomState`, so placement is reproducible).
    fn shard_index(key: &QueryKey, n: usize) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % n
    }

    /// Looks up `key`, counting a hit or a miss.
    pub fn get(&self, key: &QueryKey) -> Option<Vec<Community>> {
        let shards = self.shards.read().unwrap_or_else(|p| p.into_inner());
        let shard = &shards[Self::shard_index(key, shards.len())];
        let out = shard.lock().unwrap_or_else(|p| p.into_inner()).get(key);
        self.record(out.is_some());
        out
    }

    /// Counts one lookup (also the engine's CD clustering lookups) in
    /// [`CacheStats`] and `cx_engine_cache_total`.
    pub fn record(&self, hit: bool) {
        let (counter, event) = match hit {
            true => (&self.hits, "cx_engine_cache_total{event=\"hit\"}"),
            false => (&self.misses, "cx_engine_cache_total{event=\"miss\"}"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        cx_obs::metrics::inc(event);
    }

    /// Stores a freshly computed result.
    pub fn insert(&self, key: QueryKey, result: Vec<Community>) {
        let shards = self.shards.read().unwrap_or_else(|p| p.into_inner());
        let shard = &shards[Self::shard_index(&key, shards.len())];
        shard.lock().unwrap_or_else(|p| p.into_inner()).insert(key, result);
    }

    /// Drops entries for `graph` whose generation predates `generation`
    /// (called when a new snapshot is published).
    pub fn purge_older(&self, graph: &str, generation: u64) {
        let shards = self.shards.read().unwrap_or_else(|p| p.into_inner());
        let mut dropped = 0usize;
        for shard in shards.iter() {
            dropped += shard.lock().unwrap_or_else(|p| p.into_inner()).purge_older(graph, generation);
        }
        cx_obs::metrics::add("cx_engine_cache_total{event=\"invalidate\"}", dropped as u64);
    }

    /// Drops every entry for `graph` (called when a graph is removed).
    pub fn purge_graph(&self, graph: &str) {
        let shards = self.shards.read().unwrap_or_else(|p| p.into_inner());
        let mut dropped = 0usize;
        for shard in shards.iter() {
            dropped += shard.lock().unwrap_or_else(|p| p.into_inner()).purge_graph(graph);
        }
        cx_obs::metrics::add("cx_engine_cache_total{event=\"invalidate\"}", dropped as u64);
    }

    /// Drops every cached result (counters survive).
    pub fn clear(&self) {
        let shards = self.shards.read().unwrap_or_else(|p| p.into_inner());
        let mut dropped = 0usize;
        for shard in shards.iter() {
            dropped += shard.lock().unwrap_or_else(|p| p.into_inner()).clear();
        }
        cx_obs::metrics::add("cx_engine_cache_total{event=\"invalidate\"}", dropped as u64);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let shards = self.shards.read().unwrap_or_else(|p| p.into_inner());
        let len = shards.iter().map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len()).sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len,
            capacity: self.capacity.load(Ordering::Relaxed),
        }
    }

    /// Resizes the cache. The shard layout depends on the capacity, so
    /// this rebuilds the shards and drops all cached entries (counted as
    /// invalidations); hit/miss counters survive.
    pub fn set_capacity(&self, capacity: usize) {
        let mut shards = self.shards.write().unwrap_or_else(|p| p.into_inner());
        let dropped: usize =
            shards.iter().map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len()).sum();
        *shards = shard_capacities(capacity).into_iter().map(|c| Mutex::new(QueryCache::new(c))).collect();
        self.capacity.store(capacity, Ordering::Relaxed);
        cx_obs::metrics::add("cx_engine_cache_total{event=\"invalidate\"}", dropped as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: &str) -> QueryKey {
        key_gen(tag, 1)
    }

    fn key_gen(tag: &str, generation: u64) -> QueryKey {
        QueryKey {
            graph: "g".into(),
            generation,
            algo: tag.into(),
            vertices: vec![VertexId(0)],
            k: 2,
            keywords: Vec::new(),
        }
    }

    #[test]
    fn shard_hit_after_insert_and_miss_before() {
        let mut c = QueryCache::new(4);
        assert!(c.get(&key("acq")).is_none());
        c.insert(key("acq"), vec![Community::structural(vec![VertexId(0)])]);
        let got = c.get(&key("acq")).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn generations_are_distinct_keys() {
        let mut c = QueryCache::new(4);
        c.insert(key_gen("acq", 1), Vec::new());
        assert!(c.get(&key_gen("acq", 2)).is_none(), "newer generation never sees older entry");
        assert!(c.get(&key_gen("acq", 1)).is_some(), "pinned readers still hit their generation");
        assert_eq!(c.purge_older("g", 2), 1);
        assert!(c.get(&key_gen("acq", 1)).is_none());
    }

    #[test]
    fn shard_lru_evicts_the_coldest() {
        let mut c = QueryCache::new(2);
        c.insert(key("a"), Vec::new());
        c.insert(key("b"), Vec::new());
        c.get(&key("a")); // touch a, making b the LRU
        c.insert(key("c"), Vec::new());
        assert!(c.get(&key("a")).is_some());
        assert!(c.get(&key("b")).is_none());
        assert!(c.get(&key("c")).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ShardedCache::new(0);
        c.insert(key("a"), Vec::new());
        assert!(c.get(&key("a")).is_none());
        let s = c.stats();
        assert_eq!((s.len, s.capacity), (0, 0));
    }

    #[test]
    fn sharded_counters_and_occupancy() {
        let c = ShardedCache::new(16);
        assert!(c.get(&key("a")).is_none());
        c.insert(key("a"), Vec::new());
        assert!(c.get(&key("a")).is_some());
        c.insert(key("b"), Vec::new());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len, s.capacity), (1, 1, 2, 16));
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for cap in [0, 1, 2, 3, 7, 8, 9, 128, 1000] {
            let caps = shard_capacities(cap);
            assert!(!caps.is_empty());
            assert!(caps.len() <= MAX_SHARDS);
            assert_eq!(caps.iter().sum::<usize>(), cap, "capacity {cap}");
        }
        assert_eq!(shard_capacities(1).len(), 1, "tiny caches stay single-shard (exact LRU)");
    }

    #[test]
    fn total_occupancy_never_exceeds_capacity() {
        let c = ShardedCache::new(5);
        for i in 0..40 {
            c.insert(key(&format!("algo{i}")), Vec::new());
        }
        assert!(c.stats().len <= 5);
    }

    #[test]
    fn purge_older_spares_other_graphs() {
        let c = ShardedCache::new(16);
        c.insert(key_gen("a", 1), Vec::new());
        let mut other = key_gen("a", 1);
        other.graph = "h".into();
        c.insert(other.clone(), Vec::new());
        c.purge_older("g", 2);
        assert!(c.get(&key_gen("a", 1)).is_none(), "stale generation purged");
        assert!(c.get(&other).is_some(), "other graph untouched");
    }

    #[test]
    fn set_capacity_rebuilds_but_keeps_counters() {
        let c = ShardedCache::new(8);
        c.insert(key("a"), Vec::new());
        c.get(&key("a"));
        c.set_capacity(2);
        let s = c.stats();
        assert_eq!((s.hits, s.len, s.capacity), (1, 0, 2));
    }

    #[test]
    fn shard_placement_is_deterministic() {
        let n = 8;
        let a = ShardedCache::shard_index(&key("acq"), n);
        for _ in 0..100 {
            assert_eq!(ShardedCache::shard_index(&key("acq"), n), a);
        }
    }
}
