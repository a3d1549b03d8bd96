//! Service-level statistics: latency quantiles and per-shard counters.

use cw_engine::CacheStats;
use cw_obs::HistogramSnapshot;

/// End-to-end latency quantiles over every completed request, in seconds:
/// a summary of the service's `latency_seconds` histogram, so quantiles
/// carry its relative error ([`cw_obs::HISTOGRAM_MAX_RELATIVE_ERROR`])
/// while `count` and `max_seconds` are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Requests recorded.
    pub count: u64,
    /// Median end-to-end latency.
    pub p50_seconds: f64,
    /// 90th-percentile latency.
    pub p90_seconds: f64,
    /// 99th-percentile latency.
    pub p99_seconds: f64,
    /// Worst latency observed.
    pub max_seconds: f64,
}

impl LatencySummary {
    /// The summary of one `latency_seconds` histogram snapshot.
    pub(crate) fn from_histogram(h: &HistogramSnapshot) -> LatencySummary {
        LatencySummary {
            count: h.count,
            p50_seconds: h.quantile(0.50),
            p90_seconds: h.quantile(0.90),
            p99_seconds: h.quantile(0.99),
            max_seconds: h.max,
        }
    }
}

/// Counters for one worker shard.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Batches executed.
    pub batches: u64,
    /// Batches holding more than one request (coalescing actually paid).
    pub coalesced_batches: u64,
    /// Requests served.
    pub requests: u64,
    /// Largest batch served.
    pub max_batch_size: usize,
    /// Requests served from an already-prepared operand: the shard
    /// engine's plan-cache counters, with within-batch operand reuses
    /// counted as additional hits.
    pub cache: CacheStats,
    /// Prepared operands currently resident in the shard cache.
    pub cached_operands: usize,
    /// Resident bytes in the shard cache.
    pub cached_bytes: usize,
    /// Operands whose race locked a plan other than the planner's first
    /// pick.
    pub replans: u64,
    /// Operands (one per output shape requested) the shard engine's
    /// feedback store tracks.
    pub tracked_operands: usize,
}

/// Point-in-time snapshot of a running (or drained) service.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected at submission ([`crate::SubmitError::Full`] or
    /// [`crate::SubmitError::DeadlineExpired`]).
    pub rejected: u64,
    /// Rejections whose cause was an already-expired deadline (a subset
    /// of `rejected`).
    pub deadline_rejected: u64,
    /// Accepted requests a worker dropped with
    /// [`crate::ServiceError::Disconnected`] because their deadline
    /// passed while they queued.
    pub deadline_dropped: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Seconds since the service started.
    pub elapsed_seconds: f64,
    /// Completed requests per second of service lifetime.
    pub throughput_rps: f64,
    /// End-to-end latency quantiles from the `latency_seconds` histogram.
    pub latency: LatencySummary,
    /// Per-shard batch/cache counters.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Cache counters summed across every shard.
    pub fn total_cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.hits += s.cache.hits;
            total.misses += s.cache.misses;
            total.evictions += s.cache.evictions;
            total.insertions += s.cache.insertions;
        }
        total
    }

    /// Batches across every shard that coalesced more than one request.
    pub fn coalesced_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.coalesced_batches).sum()
    }

    /// Feedback-loop plan switches summed across every shard.
    pub fn total_replans(&self) -> u64 {
        self.shards.iter().map(|s| s.replans).sum()
    }

    /// Largest batch served by any shard.
    pub fn max_batch_size(&self) -> usize {
        self.shards.iter().map(|s| s.max_batch_size).max().unwrap_or(0)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "served {}/{} (rejected {}) | {:.1} req/s | p50 {:.3}ms p99 {:.3}ms | \
             cache hit rate {:.2} | coalesced batches {} (max {}) | replans {}",
            self.completed,
            self.submitted,
            self.rejected,
            self.throughput_rps,
            self.latency.p50_seconds * 1e3,
            self.latency.p99_seconds * 1e3,
            self.total_cache().hit_rate(),
            self.coalesced_batches(),
            self.max_batch_size(),
            self.total_replans(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_matches_a_known_stream_within_histogram_error() {
        assert_eq!(
            LatencySummary::from_histogram(&HistogramSnapshot::empty()),
            LatencySummary::default()
        );
        // 1 ms, 2 ms, …, 1 s: the exact q-quantile is q seconds.
        let h = cw_obs::LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0);
        }
        let s = LatencySummary::from_histogram(&h.snapshot());
        assert_eq!(s.count, 1000);
        assert_eq!(s.max_seconds, 1.0, "the maximum is exact, not bucketed");
        for (got, exact) in [(s.p50_seconds, 0.50), (s.p90_seconds, 0.90), (s.p99_seconds, 0.99)] {
            assert!(
                (got - exact).abs() <= cw_obs::HISTOGRAM_MAX_RELATIVE_ERROR * exact,
                "quantile {got} vs exact {exact}"
            );
        }
    }

    #[test]
    fn service_stats_aggregate_across_shards() {
        let mk = |shard, hits, misses, coalesced, max_b| ShardStats {
            shard,
            batches: 4,
            coalesced_batches: coalesced,
            requests: 10,
            max_batch_size: max_b,
            cache: CacheStats { hits, misses, ..CacheStats::default() },
            ..ShardStats::default()
        };
        let stats = ServiceStats {
            submitted: 20,
            rejected: 2,
            deadline_rejected: 1,
            deadline_dropped: 0,
            completed: 20,
            elapsed_seconds: 2.0,
            throughput_rps: 10.0,
            latency: LatencySummary::default(),
            shards: vec![mk(0, 6, 4, 1, 3), mk(1, 9, 1, 2, 5)],
        };
        let total = stats.total_cache();
        assert_eq!((total.hits, total.misses), (15, 5));
        assert!((total.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(stats.coalesced_batches(), 3);
        assert_eq!(stats.max_batch_size(), 5);
        assert!(stats.summary().contains("req/s"));
    }
}
