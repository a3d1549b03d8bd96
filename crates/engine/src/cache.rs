//! The plan cache: (operand, plan) → prepared operand, with LRU eviction
//! under an entry bound.
//!
//! Reordering and clustering only pay off amortized over repeated
//! multiplications (paper §4.5, Fig. 10). The cache closes the loop for
//! *serving* workloads: repeated traffic on the same matrix hits its
//! [`OperandKey`] and reuses the full [`PreparedMatrix`] — permuted rows,
//! relabelled ids, everything — skipping preprocessing entirely. Entries are
//! shared out as `Arc`s, so hits cost one hash lookup and a refcount bump.
//!
//! Two design points guard correctness:
//!
//! * **Keys carry the plan.** Every entry is keyed by
//!   `(operand, plan)` ([`CacheKey`]) — parallelism and output shape
//!   included, since both are [`Plan`] fields. Preparations under
//!   different plans — a forced ablation plan, the planner's first choice,
//!   a race's challengers, the same pipeline run serially — coexist
//!   without clobbering each other. Each raced plan is prepared once, and
//!   the one the race locks is still resident: running it on is a cache
//!   hit, not a re-prepare. Equal plans
//!   produce byte-identical prepared operands, so sharing an entry between
//!   them is sound by construction.
//! * **Keys carry the whole operand.** An [`OperandKey`] is the sampled
//!   [`cw_sparse::fingerprint()`] *and* the full-content
//!   [`cw_sparse::checksum`] together. Two matrices that agree at every
//!   sampled position — one pattern, a value changed between samples — are
//!   two keys with an entry each, so a hit is never another matrix's
//!   preparation and alternating traffic on the pair never evicts either.
//!   A false hit would take a 64-bit checksum collision.

use crate::plan::Plan;
use crate::prepared::PreparedMatrix;
use cw_obs::{Counter, MetricsRegistry};
use cw_sparse::{checksum, fingerprint, CsrMatrix, MatrixFingerprint};
use std::collections::HashMap;
use std::sync::Arc;

/// The engine's one identity for an operand: its sampled fingerprint (which
/// also carries its dimensions and `nnz`) and its full-content checksum.
/// The plan cache, the feedback store and every [`PreparedMatrix`] key on
/// it, and a resolution computes it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandKey {
    /// Sampled fingerprint of the operand ([`cw_sparse::fingerprint()`]).
    pub fingerprint: MatrixFingerprint,
    /// Full-content checksum ([`cw_sparse::checksum`]).
    pub checksum: u64,
}

impl OperandKey {
    /// The identity of `a` (`O(nnz)`, dominated by the checksum pass).
    pub fn of(a: &CsrMatrix) -> OperandKey {
        OperandKey { fingerprint: fingerprint(a), checksum: checksum(a) }
    }

    /// Whether `b` is the operand this identifies, cheapest test first:
    /// dimensions and `nnz`, then the sampled fingerprint, then the
    /// checksum.
    pub(crate) fn identifies(&self, b: &CsrMatrix) -> bool {
        let fp = &self.fingerprint;
        (b.nrows as u64, b.ncols as u64, b.nnz() as u64) == (fp.nrows, fp.ncols, fp.nnz)
            && fingerprint(b) == *fp
            && checksum(b) == self.checksum
    }
}

/// Cache key: the operand plus the plan its preparation realizes.
/// Preparations under genuinely different pipelines — auto, forced, a
/// race's challengers, or the same pipeline run serially — never share an
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The operand's identity.
    pub operand: OperandKey,
    /// The preparing plan.
    pub plan: Plan,
}

/// Hit/miss/eviction counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a prepared operand.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the size bound.
    pub evictions: u64,
    /// Entries inserted over the cache's lifetime.
    pub insertions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The live atomic counters behind a cache's [`CacheStats`].
///
/// Since the observability pass, the cache's bookkeeping *is* a set of
/// shareable `cw_obs` counters rather than plain integers: cloning this
/// struct clones `Arc` handles onto the same cells, so a metrics registry
/// (via [`PlanCache::bind_metrics`]) and the legacy [`PlanCache::stats`]
/// snapshot observe identical values by construction.
#[derive(Debug, Clone, Default)]
pub struct CacheCounters {
    /// Hits (see [`CacheStats::hits`]).
    pub hits: Arc<Counter>,
    /// Misses (see [`CacheStats::misses`]).
    pub misses: Arc<Counter>,
    /// Size-bound evictions (see [`CacheStats::evictions`]).
    pub evictions: Arc<Counter>,
    /// Lifetime insertions (see [`CacheStats::insertions`]).
    pub insertions: Arc<Counter>,
}

impl CacheCounters {
    /// The current values as a plain [`CacheStats`] snapshot.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            insertions: self.insertions.get(),
        }
    }

    /// Adopt these counters into `registry` under
    /// `{prefix}hits`, `{prefix}misses`, `{prefix}evictions`,
    /// `{prefix}insertions`.
    pub fn bind_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.bind_counter(&format!("{prefix}hits"), Arc::clone(&self.hits));
        registry.bind_counter(&format!("{prefix}misses"), Arc::clone(&self.misses));
        registry.bind_counter(&format!("{prefix}evictions"), Arc::clone(&self.evictions));
        registry.bind_counter(&format!("{prefix}insertions"), Arc::clone(&self.insertions));
    }
}

/// One resident cache entry: the operand, its LRU recency tick, and its
/// byte footprint (frozen at insert time).
#[derive(Debug)]
struct CacheEntry {
    prepared: Arc<PreparedMatrix>,
    last_used: u64,
    bytes: usize,
}

/// A bounded LRU map from [`CacheKey`]s to prepared operands.
///
/// ```
/// use cw_engine::{CacheKey, OperandKey, Plan, PlanCache, PreparedMatrix};
/// use std::sync::Arc;
///
/// let a = cw_sparse::gen::grid::poisson2d(8, 8);
/// let plan = Plan::baseline();
/// let key = CacheKey { operand: OperandKey::of(&a), plan };
///
/// let mut cache = PlanCache::new(4);
/// assert!(cache.get(&key).is_none()); // cold
///
/// let prepared = PreparedMatrix::prepare(&a, plan, 7, &Default::default());
/// cache.insert(key, Arc::new(prepared));
/// assert!(cache.get(&key).is_some()); // warm: one hash lookup + Arc clone
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    bytes_used: usize,
    entries: HashMap<CacheKey, CacheEntry>,
    counters: CacheCounters,
}

impl PlanCache {
    /// Cache holding at most `capacity` prepared operands, whatever their
    /// size (`capacity == 0` disables caching: every lookup misses, inserts
    /// are dropped).
    ///
    /// * Eviction is LRU: when an insert would exceed the bound, the
    ///   least-recently-*used* entry (lookups refresh recency, inserts count
    ///   as a use) is dropped.
    /// * Replacing an entry under its own key never evicts a different
    ///   entry.
    /// * Evicted operands are not destroyed — entries are `Arc`s, so callers
    ///   already holding one keep a valid prepared operand; the cache merely
    ///   forgets it.
    ///
    /// ```
    /// use cw_engine::{CacheKey, OperandKey, Plan, PlanCache, PreparedMatrix};
    /// use std::sync::Arc;
    ///
    /// let entry = |n| {
    ///     let a = cw_sparse::gen::grid::poisson2d(n, n);
    ///     let key = CacheKey { operand: OperandKey::of(&a), plan: Plan::baseline() };
    ///     let prepared = PreparedMatrix::prepare(&a, Plan::baseline(), 7, &Default::default());
    ///     (a, key, Arc::new(prepared))
    /// };
    /// let ((_, k3, p3), (a4, k4, p4), (_, k5, p5)) = (entry(3), entry(4), entry(5));
    /// let mut cache = PlanCache::new(2);
    /// cache.insert(k3, Arc::clone(&p3));
    /// cache.insert(k4, Arc::clone(&p4));
    ///
    /// // A same-key re-insert evicts nothing else.
    /// cache.insert(k3, p3);
    /// assert_eq!((cache.len(), cache.stats().evictions), (2, 0));
    ///
    /// // A lookup is a use: k4 is now the stalest, and the next insert
    /// // evicts it.
    /// assert!(cache.get(&k3).is_some());
    /// cache.insert(k5, p5);
    /// assert!(cache.get(&k4).is_none() && cache.get(&k3).is_some());
    ///
    /// // The evicted operand still multiplies for whoever holds it.
    /// assert!(p4.multiply_shaped(&a4, None).bits_eq(&cw_spgemm::spgemm_serial(&a4, &a4)));
    /// ```
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            bytes_used: 0,
            entries: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Number of cached operands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Most operands the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident bytes across all cached operands (per
    /// [`PreparedMatrix::approx_bytes`]).
    pub fn bytes(&self) -> usize {
        self.bytes_used
    }

    /// Lifetime counters, snapshotted.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// The live atomic counters behind [`PlanCache::stats`]. Clone them to
    /// observe this cache from another thread, or bind them into a
    /// [`MetricsRegistry`] (see [`PlanCache::bind_metrics`]).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Adopt this cache's counters into `registry` under `prefix` (e.g.
    /// `"cache."` yields `cache.hits`, `cache.misses`, …). The legacy
    /// [`PlanCache::stats`] accessor and the registry then read the same
    /// atomic cells.
    pub fn bind_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        self.counters.bind_metrics(registry, prefix);
    }

    /// Looks up a prepared operand, refreshing its recency on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<PreparedMatrix>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.counters.hits.inc();
                Some(Arc::clone(&entry.prepared))
            }
            None => {
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Inserts a prepared operand under `key`, evicting the
    /// least-recently-used entry when the cache is full.
    pub fn insert(&mut self, key: CacheKey, prepared: Arc<PreparedMatrix>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            // Replacement: the old entry makes room for its successor, so
            // re-inserting under the same key never triggers eviction.
            self.bytes_used -= old.bytes;
        } else if self.entries.len() == self.capacity {
            // Evict the stalest entry (O(len) scan; resident counts are
            // small — tens of operands, not thousands).
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("a full cache holds at least one entry");
            let evicted = self.entries.remove(&victim).unwrap();
            self.bytes_used -= evicted.bytes;
            self.counters.evictions.inc();
        }
        let bytes = prepared.approx_bytes();
        self.counters.insertions.inc();
        self.bytes_used += bytes;
        self.entries.insert(key, CacheEntry { prepared, last_used: self.tick, bytes });
    }

    /// Looks up `key`, and on a miss prepares the operand and inserts it.
    /// Returns the operand and whether it was a cache hit.
    pub fn get_or_prepare(
        &mut self,
        key: CacheKey,
        prepare: impl FnOnce() -> PreparedMatrix,
    ) -> (Arc<PreparedMatrix>, bool) {
        if let Some(hit) = self.get(&key) {
            return (hit, true);
        }
        let prepared = Arc::new(prepare());
        self.insert(key, Arc::clone(&prepared));
        (prepared, false)
    }

    /// Drops every entry (stats are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::prepared::PreparedMatrix;
    use cw_core::ClusterConfig;
    use cw_sparse::gen::grid::poisson2d;

    fn prepared_for(a: &CsrMatrix) -> PreparedMatrix {
        PreparedMatrix::prepare(a, Plan::baseline(), 7, &ClusterConfig::default())
    }

    fn auto_key(a: &CsrMatrix) -> CacheKey {
        CacheKey { operand: OperandKey::of(a), plan: Plan::baseline() }
    }

    #[test]
    fn miss_then_hit() {
        let a = poisson2d(8, 8);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(4);
        assert!(cache.get(&key).is_none());
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert!(cache.get(&key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn get_or_prepare_prepares_once() {
        let a = poisson2d(10, 10);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(4);
        let mut calls = 0;
        for _ in 0..5 {
            let _ = cache.get_or_prepare(key, || {
                calls += 1;
                prepared_for(&a)
            });
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn distinct_knobs_occupy_distinct_entries_equal_knobs_share() {
        let a = poisson2d(9, 9);
        let key = |plan| CacheKey { operand: OperandKey::of(&a), plan };
        let baseline = Plan::baseline();
        let clustered = Plan { reorder: cw_reorder::Reordering::Hierarchical, ..Plan::baseline() };
        let mut cache = PlanCache::new(4);
        cache.insert(key(baseline), Arc::new(prepared_for(&a)));
        // A different pipeline for the same matrix is a distinct key...
        assert!(cache.get(&key(clustered)).is_none());
        assert!(cache.get(&key(baseline)).is_some());
        // ...as is the same pipeline run serially.
        let serial = Plan { parallel: false, ..baseline };
        assert!(cache.get(&key(serial)).is_none());
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mats: Vec<CsrMatrix> = (3..7).map(|n| poisson2d(n, n)).collect();
        let keys: Vec<_> = mats.iter().map(auto_key).collect();
        let mut cache = PlanCache::new(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(keys[0], Arc::new(prepared_for(&mats[0])));
        cache.insert(keys[1], Arc::new(prepared_for(&mats[1])));
        // Touch keys[0] so keys[1] is now the LRU victim.
        assert!(cache.get(&keys[0]).is_some());
        cache.insert(keys[2], Arc::new(prepared_for(&mats[2])));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[1]).is_none(), "LRU entry should be gone");
        assert!(cache.get(&keys[0]).is_some(), "recently used entry survives");
        assert!(cache.get(&keys[2]).is_some(), "new entry present");
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let a = poisson2d(6, 6);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(1);
        cache.insert(key, Arc::new(prepared_for(&a)));
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn replacement_releases_old_footprint() {
        let a = poisson2d(8, 8);
        let key = auto_key(&a);
        let p = Arc::new(prepared_for(&a));
        let sz = p.approx_bytes();
        let mut cache = PlanCache::new(4);
        cache.insert(key, Arc::clone(&p));
        cache.insert(key, p); // same key: must not double-count
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), sz);
        cache.clear();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let a = poisson2d(5, 5);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(0);
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert!(cache.is_empty());
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn bound_metrics_track_the_legacy_stats_exactly() {
        let a = poisson2d(7, 7);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(4);
        let registry = MetricsRegistry::new();
        cache.bind_metrics(&registry, "cache.");
        let _ = cache.get(&key); // miss
        cache.insert(key, Arc::new(prepared_for(&a)));
        let _ = cache.get(&key); // hit
        let stats = cache.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(stats.hits));
        assert_eq!(snap.counter("cache.misses"), Some(stats.misses));
        assert_eq!(snap.counter("cache.insertions"), Some(stats.insertions));
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        // Live handles, not copies: later traffic shows up in the registry
        // without re-binding.
        let _ = cache.get(&key);
        assert_eq!(registry.snapshot().counter("cache.hits"), Some(2));
    }

    #[test]
    fn clear_keeps_stats() {
        let a = poisson2d(5, 5);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(4);
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert!(cache.get(&key).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }
}
