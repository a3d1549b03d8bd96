//! Set-associative LRU cache model.

/// Cache geometry. Defaults model a per-core L2 slice like the evaluation
/// platform's EPYC 7763 (512 KiB, 8-way, 64-byte lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { size_bytes: 512 * 1024, line_bytes: 64, ways: 8 }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags per set are kept in recency order (most recent last); sets are
/// small (`ways` entries) so linear scans beat fancier structures.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache. `line_bytes` and `sets` must be powers of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two (got {sets})");
        assert!(cfg.ways >= 1);
        Cache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways); sets],
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accesses one byte address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            // Move to MRU position.
            let t = tags.remove(pos);
            tags.push(t);
            self.stats.hits += 1;
            true
        } else {
            if tags.len() == self.cfg.ways {
                tags.remove(0); // evict LRU
            }
            tags.push(line);
            self.stats.misses += 1;
            false
        }
    }

    /// Accesses every line in the byte range `[addr, addr + len)` once
    /// (streaming read of a contiguous array slice).
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr >> self.line_shift;
        let last = (addr + len - 1) >> self.line_shift;
        for line in first..=last {
            self.access(line << self.line_shift);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and zeroes counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2 })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines mapping to set 0: line numbers 0, 4, 8 (set = line & 3).
        let l = |line: u64| line * 64;
        c.access(l(0));
        c.access(l(4));
        // Touch line 0 -> it becomes MRU; line 4 is now LRU.
        assert!(c.access(l(0)));
        c.access(l(8)); // evicts line 4
        assert!(c.access(l(0)), "line 0 should survive");
        assert!(!c.access(l(4)), "line 4 should have been evicted");
    }

    #[test]
    fn access_range_touches_each_line_once() {
        let mut c = tiny();
        c.access_range(0, 256); // 4 lines
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().misses, 4);
        c.access_range(0, 1); // 1 line, within capacity? set0 ways...
        assert_eq!(c.stats().accesses(), 5);
    }

    #[test]
    fn fully_associative_behaves_as_lru_stack() {
        let mut c = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 64, ways: 4 });
        assert_eq!(c.config().sets(), 1);
        for i in 0..4u64 {
            c.access(i * 64);
        }
        // Working set of 4 lines fits: all re-accesses hit.
        for i in 0..4u64 {
            assert!(c.access(i * 64));
        }
        // A 5th line evicts the LRU (line 0).
        c.access(4 * 64);
        assert!(!c.access(0));
    }

    #[test]
    fn miss_ratio_and_reset() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        // A miss ratio of one half: the cold miss, then a hit.
        assert_eq!((c.stats().misses, c.stats().accesses()), (1, 2));
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0), "reset must empty the cache");
    }

    #[test]
    fn zero_length_range_is_noop() {
        let mut c = tiny();
        c.access_range(128, 0);
        assert_eq!(c.stats().accesses(), 0);
    }
}
