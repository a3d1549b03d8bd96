//! The plan cache: (fingerprint, plan knobs — backend included) → prepared
//! operand, with LRU eviction, optional TTL expiry, and verified hits.
//!
//! Reordering and cluster construction only pay off amortized over
//! repeated multiplications (paper §4.5, Fig. 10). The cache closes the
//! loop for *serving* workloads: repeated traffic on the same matrix hits
//! the [`cw_sparse::fingerprint`] key and reuses the full
//! [`PreparedMatrix`] — permutation, `CSR_Cluster`, everything — skipping
//! preprocessing entirely. Entries are shared out as `Arc`s, so hits cost
//! one hash lookup and a refcount bump.
//!
//! Two design points guard correctness:
//!
//! * **Keys carry the plan knobs.** Every entry is keyed by
//!   `(fingerprint, knobs)` ([`CacheKey`]) — and the knobs include the
//!   execution backend, so the effective key is
//!   `(fingerprint, pipeline, backend)`. Preparations under different
//!   plans — a forced ablation plan, the planner's first choice, a later
//!   feedback re-plan, the same pipeline on a different backend — coexist
//!   without clobbering each other. When the feedback loop switches an
//!   operand's plan (or backend), the old preparation stays resident:
//!   switching *back* is a cache hit, not a re-prepare. Two plans with
//!   equal knobs produce byte-identical prepared operands, so sharing an
//!   entry between them is sound by construction.
//! * **Hits are verified.** The sampled fingerprint is a cheap lookup key,
//!   not an identity proof; [`PlanCache::get_or_prepare`] re-checks the
//!   full-content checksum before trusting a hit, demoting collisions to
//!   misses (counted in [`CacheStats::collisions`]).

use crate::plan::PlanKnobs;
use crate::prepared::PreparedMatrix;
use cw_obs::{Counter, MetricsRegistry};
use cw_sparse::MatrixFingerprint;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache key: the operand's fingerprint plus the behavior knobs of the
/// plan its preparation realizes. Identifying preparations by knobs (not
/// full [`crate::Plan`] equality) means plans differing only in their
/// `rationale` string share an entry, and preparations under genuinely
/// different pipelines — auto, forced, feedback-re-planned, or the same
/// pipeline on a different backend — never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Sampled fingerprint of the operand.
    pub fingerprint: MatrixFingerprint,
    /// Behavior knobs of the preparing plan (backend included).
    pub knobs: PlanKnobs,
}

impl CacheKey {
    /// Key for a preparation of the `fingerprint` operand under `knobs`.
    pub fn new(fingerprint: MatrixFingerprint, knobs: PlanKnobs) -> CacheKey {
        CacheKey { fingerprint, knobs }
    }
}

/// The size bound of a [`CacheBudget`]: a maximum entry count (the
/// original behavior and the default) or a maximum resident byte budget
/// sized from [`PreparedMatrix::approx_bytes`]. Byte budgets matter for
/// serving: prepared operands vary by orders of magnitude in size, so an
/// entry count bounds nothing useful about memory.
///
/// Exact semantics, shared by both variants:
///
/// * Eviction is LRU: when an insert would exceed the bound, the
///   least-recently-*used* entries (lookups refresh recency, inserts count
///   as a use) are dropped until the new entry fits.
/// * Replacing an entry under its own key first releases the old entry's
///   footprint, so a same-key re-insert never evicts a different entry.
/// * Evicted operands are not destroyed — entries are `Arc`s, so callers
///   already holding one keep a valid prepared operand; the cache merely
///   forgets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheBound {
    /// At most this many prepared operands, regardless of their size.
    /// `Entries(0)` disables caching entirely: every lookup misses and
    /// every insert is silently dropped (used by benchmarks to force the
    /// cold path).
    Entries(usize),
    /// At most this many resident bytes across all prepared operands, as
    /// measured by [`PreparedMatrix::approx_bytes`] at insert time. An
    /// operand larger than the whole budget is never cached (inserting it
    /// is a silent no-op, mirroring `Entries(0)`); anything smaller may
    /// evict every other entry to fit.
    Bytes(usize),
}

/// What bounds a [`PlanCache`]: a size [`CacheBound`] plus an optional
/// time-to-live. With a TTL, an entry older than `ttl` (measured from its
/// *insertion*, not its last use — a hot entry for a matrix that stopped
/// mattering is exactly what TTLs exist to drop) expires lazily: the next
/// lookup treats it as a miss, removes it, and counts it under
/// [`CacheStats::expirations`]. [`PlanCache::purge_expired`] sweeps
/// eagerly for callers that want the memory back without waiting for
/// traffic.
///
/// ```
/// use cw_engine::{CacheBudget, PlanCache};
/// use std::time::Duration;
///
/// // Entry-bounded: at most 8 prepared operands, any size, forever.
/// let by_count = PlanCache::with_budget(CacheBudget::entries(8));
/// assert_eq!(by_count.capacity(), 8);
///
/// // Byte-bounded with a TTL: at most 64 MiB, nothing older than 10 min.
/// let budget = CacheBudget::bytes(64 << 20).with_ttl(Duration::from_secs(600));
/// let by_bytes = PlanCache::with_budget(budget);
/// assert_eq!(by_bytes.capacity(), usize::MAX); // entry count unbounded
/// assert_eq!(by_bytes.bytes(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// The size bound (entries or bytes).
    pub bound: CacheBound,
    /// Optional time-to-live since insertion; `None` = entries never
    /// expire by age.
    pub ttl: Option<Duration>,
}

impl CacheBudget {
    /// Entry-count bound with no TTL (see [`CacheBound::Entries`]).
    pub fn entries(n: usize) -> CacheBudget {
        CacheBudget { bound: CacheBound::Entries(n), ttl: None }
    }

    /// Resident-byte bound with no TTL (see [`CacheBound::Bytes`]).
    pub fn bytes(b: usize) -> CacheBudget {
        CacheBudget { bound: CacheBound::Bytes(b), ttl: None }
    }

    /// The same size bound with entries additionally expiring `ttl` after
    /// insertion. A zero TTL expires everything on its next lookup.
    pub fn with_ttl(self, ttl: Duration) -> CacheBudget {
        CacheBudget { ttl: Some(ttl), ..self }
    }
}

/// Hit/miss/eviction counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a prepared operand (verified, when a verifier
    /// was supplied).
    pub hits: u64,
    /// Lookups that found nothing (expired entries included).
    pub misses: u64,
    /// Fingerprint collisions: lookups whose entry failed checksum
    /// verification (also counted under `misses`).
    pub collisions: u64,
    /// Entries evicted to respect the size bound.
    pub evictions: u64,
    /// Entries dropped because they outlived the budget's TTL (lazy, on
    /// lookup, also counted under `misses` — or eager, via
    /// [`PlanCache::purge_expired`], counted here only).
    pub expirations: u64,
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
    /// Verified hits (see [`CacheStats::hits`]).
    pub hits: Arc<Counter>,
    /// Misses, expired lookups included (see [`CacheStats::misses`]).
    pub misses: Arc<Counter>,
    /// Failed-verification collisions (see [`CacheStats::collisions`]).
    pub collisions: Arc<Counter>,
    /// Size-bound evictions (see [`CacheStats::evictions`]).
    pub evictions: Arc<Counter>,
    /// TTL expirations (see [`CacheStats::expirations`]).
    pub expirations: Arc<Counter>,
    /// Lifetime insertions (see [`CacheStats::insertions`]).
    pub insertions: Arc<Counter>,
}

impl CacheCounters {
    /// The current values as a plain [`CacheStats`] snapshot.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            collisions: self.collisions.get(),
            evictions: self.evictions.get(),
            expirations: self.expirations.get(),
            insertions: self.insertions.get(),
        }
    }

    /// Adopt these counters into `registry` under
    /// `{prefix}hits`, `{prefix}misses`, `{prefix}collisions`,
    /// `{prefix}evictions`, `{prefix}expirations`, `{prefix}insertions`.
    pub fn bind_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.bind_counter(&format!("{prefix}hits"), Arc::clone(&self.hits));
        registry.bind_counter(&format!("{prefix}misses"), Arc::clone(&self.misses));
        registry.bind_counter(&format!("{prefix}collisions"), Arc::clone(&self.collisions));
        registry.bind_counter(&format!("{prefix}evictions"), Arc::clone(&self.evictions));
        registry.bind_counter(&format!("{prefix}expirations"), Arc::clone(&self.expirations));
        registry.bind_counter(&format!("{prefix}insertions"), Arc::clone(&self.insertions));
    }
}

/// One resident cache entry: the operand, its LRU recency tick, its byte
/// footprint (frozen at insert time), and its insertion instant (TTL).
#[derive(Debug)]
struct CacheEntry {
    prepared: Arc<PreparedMatrix>,
    last_used: u64,
    bytes: usize,
    inserted_at: Instant,
}

/// A bounded LRU map from [`CacheKey`]s to prepared operands.
///
/// ```
/// use cw_engine::{CacheKey, Plan, PlanCache, PreparedMatrix};
/// use std::sync::Arc;
///
/// let a = cw_sparse::gen::grid::poisson2d(8, 8);
/// let plan = Plan::baseline();
/// let key = CacheKey::new(cw_sparse::fingerprint(&a), plan.knobs());
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
    budget: CacheBudget,
    tick: u64,
    bytes_used: usize,
    entries: HashMap<CacheKey, CacheEntry>,
    counters: CacheCounters,
}

impl PlanCache {
    /// Cache holding at most `capacity` prepared operands (`capacity == 0`
    /// disables caching: every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache::with_budget(CacheBudget::entries(capacity))
    }

    /// Cache bounded by an explicit [`CacheBudget`].
    pub fn with_budget(budget: CacheBudget) -> PlanCache {
        PlanCache {
            budget,
            tick: 0,
            bytes_used: 0,
            entries: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Number of cached operands. Entries past their TTL still count until
    /// a lookup or [`PlanCache::purge_expired`] removes them (expiry is
    /// lazy).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured budget.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Entry-count bound (`usize::MAX` under a byte budget, which does not
    /// limit entry count).
    pub fn capacity(&self) -> usize {
        match self.budget.bound {
            CacheBound::Entries(n) => n,
            CacheBound::Bytes(_) => usize::MAX,
        }
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

    /// True when `entry` has outlived the budget's TTL.
    fn expired(&self, entry: &CacheEntry) -> bool {
        self.budget.ttl.is_some_and(|ttl| entry.inserted_at.elapsed() >= ttl)
    }

    /// Looks up a prepared operand, refreshing its recency on hit. An
    /// entry past the budget's TTL is removed and reported as a miss
    /// (counted under both `misses` and `expirations`).
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<PreparedMatrix>> {
        self.tick += 1;
        let expired = match self.entries.get_mut(key) {
            Some(entry) if self.budget.ttl.is_none_or(|ttl| entry.inserted_at.elapsed() < ttl) => {
                entry.last_used = self.tick;
                self.counters.hits.inc();
                return Some(Arc::clone(&entry.prepared));
            }
            Some(_) => true,
            None => false,
        };
        if expired {
            let stale = self.entries.remove(key).expect("expired entry is resident");
            self.bytes_used -= stale.bytes;
            self.counters.expirations.inc();
        }
        self.counters.misses.inc();
        None
    }

    /// Eagerly removes every entry past the budget's TTL, returning how
    /// many were dropped (counted under `expirations`, not `misses` —
    /// nothing looked them up). A no-op without a TTL.
    pub fn purge_expired(&mut self) -> usize {
        if self.budget.ttl.is_none() {
            return 0;
        }
        let stale: Vec<CacheKey> =
            self.entries.iter().filter(|(_, e)| self.expired(e)).map(|(k, _)| *k).collect();
        for key in &stale {
            let entry = self.entries.remove(key).expect("listed entry is resident");
            self.bytes_used -= entry.bytes;
            self.counters.expirations.inc();
        }
        stale.len()
    }

    /// Inserts a prepared operand under `key`, evicting least-recently-used
    /// entries until the budget is respected. Under [`CacheBound::Bytes`],
    /// an operand larger than the entire budget is silently not cached
    /// (mirroring the `Entries(0)` behavior).
    pub fn insert(&mut self, key: CacheKey, prepared: Arc<PreparedMatrix>) {
        let bytes = prepared.approx_bytes();
        match self.budget.bound {
            CacheBound::Entries(0) => return,
            CacheBound::Bytes(b) if bytes > b => return,
            _ => {}
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            // Replacement: the old entry's footprint is released first so
            // re-inserting under the same key never triggers eviction.
            self.bytes_used -= old.bytes;
        }
        while self.over_budget_with(bytes) {
            // Evict the stalest entry (O(len) scan; resident counts are
            // small — tens of operands, not thousands).
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over budget implies at least one resident entry");
            let evicted = self.entries.remove(&victim).unwrap();
            self.bytes_used -= evicted.bytes;
            self.counters.evictions.inc();
        }
        self.counters.insertions.inc();
        self.bytes_used += bytes;
        self.entries.insert(
            key,
            CacheEntry { prepared, last_used: self.tick, bytes, inserted_at: Instant::now() },
        );
    }

    /// Would adding an entry of `incoming` bytes exceed the budget?
    fn over_budget_with(&self, incoming: usize) -> bool {
        match self.budget.bound {
            CacheBound::Entries(n) => self.entries.len() + 1 > n,
            CacheBound::Bytes(b) => !self.entries.is_empty() && self.bytes_used + incoming > b,
        }
    }

    /// Looks up `key`; a hit must also pass `verify` (full-content check —
    /// the fingerprint inside the key is only a sampled hash). Verification
    /// failure counts as a collision + miss, drops the stale entry, and
    /// falls through to `prepare`. Returns the operand and whether it was
    /// a (verified) cache hit.
    pub fn get_or_prepare(
        &mut self,
        key: CacheKey,
        verify: impl FnOnce(&PreparedMatrix) -> bool,
        prepare: impl FnOnce() -> PreparedMatrix,
    ) -> (Arc<PreparedMatrix>, bool) {
        if let Some(hit) = self.get(&key) {
            if verify(&hit) {
                return (hit, true);
            }
            // Fingerprint collision: the cached operand is not this matrix.
            // The hit recorded by `get` is reclassified, not merely
            // supplemented — hence the one legitimate `Counter::sub` call.
            self.counters.hits.sub(1);
            self.counters.misses.inc();
            self.counters.collisions.inc();
            if let Some(stale) = self.entries.remove(&key) {
                self.bytes_used -= stale.bytes;
            }
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
    use cw_sparse::{fingerprint, CsrMatrix};

    fn prepared_for(a: &CsrMatrix) -> PreparedMatrix {
        PreparedMatrix::prepare(a, Plan::baseline(), 7, &ClusterConfig::default())
    }

    fn auto_key(a: &CsrMatrix) -> CacheKey {
        CacheKey::new(fingerprint(a), Plan::baseline().knobs())
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
            let (_, hit) = cache.get_or_prepare(
                key,
                |_| true,
                || {
                    calls += 1;
                    prepared_for(&a)
                },
            );
            let _ = hit;
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn failed_verification_counts_a_collision_and_reprepares() {
        let a = poisson2d(10, 10);
        let key = auto_key(&a);
        let mut cache = PlanCache::new(4);
        let (_, hit) = cache.get_or_prepare(key, |_| true, || prepared_for(&a));
        assert!(!hit);
        // Simulate a fingerprint collision: verification rejects the entry.
        let mut calls = 0;
        let (_, hit) = cache.get_or_prepare(
            key,
            |_| false,
            || {
                calls += 1;
                prepared_for(&a)
            },
        );
        assert!(!hit, "collision must not count as a hit");
        assert_eq!(calls, 1, "collision must re-prepare");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.hits, 0, "demoted hit must not be counted");
        assert_eq!(s.misses, 2);
        // The replacement entry is live and verifiable again.
        let (_, hit) = cache.get_or_prepare(key, |_| true, || prepared_for(&a));
        assert!(hit);
    }

    #[test]
    fn distinct_knobs_occupy_distinct_entries_equal_knobs_share() {
        let a = poisson2d(9, 9);
        let fp = fingerprint(&a);
        let baseline = Plan::baseline();
        let clustered = Plan {
            clustering: crate::plan::ClusteringStrategy::Fixed(4),
            kernel: crate::plan::KernelChoice::ClusterWise,
            ..Plan::baseline()
        };
        let mut cache = PlanCache::new(4);
        cache.insert(CacheKey::new(fp, baseline.knobs()), Arc::new(prepared_for(&a)));
        // A different pipeline for the same matrix is a distinct key...
        assert!(cache.get(&CacheKey::new(fp, clustered.knobs())).is_none());
        assert!(cache.get(&CacheKey::new(fp, baseline.knobs())).is_some());
        // ...as is the same pipeline on a different backend...
        let serial = baseline.on_backend(crate::backend::BackendId::SerialReference);
        assert!(cache.get(&CacheKey::new(fp, serial.knobs())).is_none());
        // ...but a plan differing only in rationale shares the entry.
        let renamed = Plan { rationale: "same knobs, different words", ..baseline };
        assert!(cache.get(&CacheKey::new(fp, renamed.knobs())).is_some());
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mats: Vec<CsrMatrix> = (3..7).map(|n| poisson2d(n, n)).collect();
        let keys: Vec<_> = mats.iter().map(auto_key).collect();
        let mut cache = PlanCache::new(2);
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
    fn byte_budget_evicts_lru_to_fit() {
        let mats: Vec<CsrMatrix> = (6..9).map(|n| poisson2d(n, n)).collect();
        let prepared: Vec<_> = mats.iter().map(|m| Arc::new(prepared_for(m))).collect();
        let keys: Vec<_> = mats.iter().map(auto_key).collect();
        // Budget fits the two largest operands but not all three.
        let sizes: Vec<usize> = prepared.iter().map(|p| p.approx_bytes()).collect();
        let budget = sizes[1] + sizes[2];
        assert!(budget < sizes.iter().sum::<usize>());
        let mut cache = PlanCache::with_budget(CacheBudget::bytes(budget));
        cache.insert(keys[0], Arc::clone(&prepared[0]));
        cache.insert(keys[1], Arc::clone(&prepared[1]));
        assert_eq!(cache.bytes(), sizes[0] + sizes[1]);
        cache.insert(keys[2], Arc::clone(&prepared[2]));
        // keys[0] was the LRU entry and must have been evicted to fit.
        assert!(cache.get(&keys[0]).is_none());
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[2]).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.bytes() <= budget);
    }

    #[test]
    fn oversized_operand_is_never_cached_under_byte_budget() {
        let a = poisson2d(10, 10);
        let p = Arc::new(prepared_for(&a));
        let mut cache = PlanCache::with_budget(CacheBudget::bytes(p.approx_bytes() - 1));
        cache.insert(auto_key(&a), p);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn byte_budget_replacement_releases_old_footprint() {
        let a = poisson2d(8, 8);
        let key = auto_key(&a);
        let p = Arc::new(prepared_for(&a));
        let sz = p.approx_bytes();
        let mut cache = PlanCache::with_budget(CacheBudget::bytes(sz));
        cache.insert(key, Arc::clone(&p));
        cache.insert(key, p); // same key: must not evict or double-count
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), sz);
        assert_eq!(cache.stats().evictions, 0);
        cache.clear();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn entries_budget_matches_legacy_capacity_semantics() {
        let cache = PlanCache::new(7);
        assert_eq!(cache.budget(), CacheBudget::entries(7));
        assert_eq!(cache.capacity(), 7);
        let bytes = PlanCache::with_budget(CacheBudget::bytes(1 << 20));
        assert_eq!(bytes.capacity(), usize::MAX);
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

    #[test]
    fn zero_ttl_expires_on_next_lookup() {
        let a = poisson2d(7, 7);
        let key = auto_key(&a);
        let budget = CacheBudget::entries(4).with_ttl(Duration::ZERO);
        assert_eq!(budget.ttl, Some(Duration::ZERO));
        let mut cache = PlanCache::with_budget(budget);
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key).is_none(), "zero TTL must expire immediately");
        assert!(cache.is_empty(), "expired entry is removed on lookup");
        let s = cache.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.misses, 1, "expiry is reported as a miss");
        assert_eq!(s.hits, 0);
        assert_eq!(cache.bytes(), 0, "expired footprint is released");
    }

    #[test]
    fn entries_within_ttl_still_hit() {
        let a = poisson2d(7, 7);
        let key = auto_key(&a);
        let budget = CacheBudget::entries(4).with_ttl(Duration::from_secs(3600));
        let mut cache = PlanCache::with_budget(budget);
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert!(cache.get(&key).is_some(), "an hour-long TTL cannot expire mid-test");
        assert_eq!(cache.stats().expirations, 0);
    }

    #[test]
    fn ttl_measures_age_since_insertion_not_recency() {
        let a = poisson2d(6, 6);
        let key = auto_key(&a);
        let ttl = Duration::from_millis(40);
        let mut cache = PlanCache::with_budget(CacheBudget::entries(4).with_ttl(ttl));
        cache.insert(key, Arc::new(prepared_for(&a)));
        // Keep the entry hot: recency refreshes must NOT extend its life.
        assert!(cache.get(&key).is_some());
        std::thread::sleep(ttl + Duration::from_millis(20));
        assert!(cache.get(&key).is_none(), "hot-but-old entry must still expire");
        assert_eq!(cache.stats().expirations, 1);
        // Re-inserting restarts the clock.
        cache.insert(key, Arc::new(prepared_for(&a)));
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn get_or_prepare_reprepares_an_expired_entry() {
        let a = poisson2d(7, 7);
        let key = auto_key(&a);
        let mut cache = PlanCache::with_budget(CacheBudget::entries(4).with_ttl(Duration::ZERO));
        let mut calls = 0;
        for _ in 0..3 {
            let (_, hit) = cache.get_or_prepare(
                key,
                |_| true,
                || {
                    calls += 1;
                    prepared_for(&a)
                },
            );
            assert!(!hit, "every lookup against a zero TTL is stale");
        }
        assert_eq!(calls, 3);
        assert_eq!(cache.stats().expirations, 2, "first lookup was a plain miss");
    }

    #[test]
    fn purge_expired_sweeps_eagerly() {
        let mats: Vec<CsrMatrix> = (5..8).map(|n| poisson2d(n, n)).collect();
        let mut cache = PlanCache::with_budget(CacheBudget::entries(8).with_ttl(Duration::ZERO));
        for m in &mats {
            cache.insert(auto_key(m), Arc::new(prepared_for(m)));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.purge_expired(), 3);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        let s = cache.stats();
        assert_eq!(s.expirations, 3);
        assert_eq!(s.misses, 0, "eager purge is not a lookup");
        // Without a TTL the sweep is a no-op.
        let mut plain = PlanCache::new(4);
        plain.insert(auto_key(&mats[0]), Arc::new(prepared_for(&mats[0])));
        assert_eq!(plain.purge_expired(), 0);
        assert_eq!(plain.len(), 1);
    }
}
