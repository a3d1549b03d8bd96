//! Named counters, gauges, and log-bucketed mergeable histograms.
//!
//! Everything here is lock-free on the hot path: counters and gauges are
//! single atomics, and a [`LogHistogram`] records into one of a fixed set
//! of atomic buckets. The registry itself ([`MetricsRegistry`]) takes a
//! mutex only on name lookup / snapshot, so callers cache the returned
//! `Arc` handles and never touch the map per event.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of histogram sub-buckets per power-of-two octave.
///
/// Bucket boundaries grow geometrically by `γ = 2^(1/16) ≈ 1.044`, so a
/// value is bucketed with its neighbours within ±2.2% (see
/// [`HISTOGRAM_MAX_RELATIVE_ERROR`]).
pub const SUB_BUCKETS_PER_OCTAVE: usize = 16;

/// Worst-case relative error of a [`HistogramSnapshot::quantile`] estimate
/// versus the exact order statistic: the geometric midpoint of a bucket is
/// at most `2^(1/32) − 1 ≈ 2.2%` away from any value in that bucket.
pub const HISTOGRAM_MAX_RELATIVE_ERROR: f64 = 0.022;

/// Smallest resolvable magnitude: `2^MIN_EXP` seconds ≈ 0.93 ns.
const MIN_EXP: i32 = -30;
/// Largest resolvable magnitude: `2^MAX_EXP` seconds ≈ 4.5 hours.
const MAX_EXP: i32 = 14;
const LOG_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB_BUCKETS_PER_OCTAVE;
/// Total slots: index 0 is the underflow bucket (`v < 2^MIN_EXP`, including
/// zero), `1..=LOG_BUCKETS` are the geometric buckets, and the last slot is
/// the overflow bucket.
const SLOTS: usize = LOG_BUCKETS + 2;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Telemetry must stay readable after a worker panic (the flight
    // recorder is dumped from exactly that path), so recover from poison.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An atomic event counter.
///
/// Counters are monotonically increasing except for [`Counter::sub`],
/// which exists for the rare bookkeeping paths that retroactively
/// reclassify an event (e.g. the service rolling back an admission whose
/// hand-off to the dispatcher failed).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrement by `n` (reclassification paths only; wraps if misused).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic signed gauge (a value that goes up *and* down: queue depth,
/// cached bytes, tracked operands).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is currently lower (running maximum).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Map a non-negative sample to its slot index.
fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0; // zero and negatives land in the underflow bucket
    }
    let l = v.log2();
    if l < f64::from(MIN_EXP) {
        return 0;
    }
    let i = ((l - f64::from(MIN_EXP)) * SUB_BUCKETS_PER_OCTAVE as f64) as usize;
    if i >= LOG_BUCKETS {
        SLOTS - 1
    } else {
        i + 1
    }
}

/// Representative (geometric midpoint) value of a slot, used when reading
/// quantiles back out. Underflow maps to the bottom of the range and
/// overflow to the top; callers clamp to the observed min/max anyway.
pub fn bucket_value(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    if index >= SLOTS - 1 {
        return f64::from(MAX_EXP).exp2();
    }
    let exp = f64::from(MIN_EXP) + (index as f64 - 0.5) / SUB_BUCKETS_PER_OCTAVE as f64;
    exp.exp2()
}

/// A log-bucketed histogram of non-negative samples (seconds, bytes,
/// batch sizes) with lock-free recording and *exactly mergeable*
/// snapshots.
///
/// Buckets are geometric with [`SUB_BUCKETS_PER_OCTAVE`] sub-buckets per
/// power of two, spanning `2^-30` (≈1 ns when recording seconds) to
/// `2^14` (≈4.5 h); values outside land in dedicated underflow/overflow
/// buckets. Because a merge is plain bucket-count addition, merging
/// per-shard snapshots is associative and gives *identical* quantiles to
/// recording the whole stream into one histogram.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    // f64 bit patterns order like the floats themselves for non-negative
    // values, so fetch_min/fetch_max on the bits is exact.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one sample. Non-finite samples are ignored; negative ones
    /// clamp to zero (the underflow bucket).
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let v = v.max(0.0);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An owned, mergeable snapshot of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// An owned histogram state: mergeable, queryable, exportable.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-slot sample counts (underflow, geometric buckets, overflow).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        Self { buckets: vec![0; SLOTS], count: 0, sum: 0.0, min: 0.0, max: 0.0 }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another snapshot into this one. Bucket counts add, so the
    /// merge is exact and associative: merging per-shard snapshots yields
    /// the same quantiles as one whole-stream histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        if other.count > 0 {
            self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`), accurate to
    /// [`HISTOGRAM_MAX_RELATIVE_ERROR`] and clamped to the observed
    /// `[min, max]`. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The non-empty buckets as `(slot index, count)` pairs — the sparse
    /// form used by the JSON-lines exporter.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }

    /// Rebuild a snapshot from the sparse exporter form.
    pub fn from_parts(parts: &[(usize, u64)], sum: f64, min: f64, max: f64) -> Self {
        let mut s = Self::empty();
        for &(i, c) in parts {
            if i < SLOTS {
                s.buckets[i] += c;
                s.count += c;
            }
        }
        s.sum = sum;
        s.min = min;
        s.max = max;
        s
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<LogHistogram>>,
}

/// A registry of named metrics.
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a mutex and allocates the
/// metric on first sight; callers hold the returned `Arc` and record
/// through it lock-free. Existing atomics owned by other structs (e.g. the
/// plan cache's counters) can be *adopted* under a name with
/// [`MetricsRegistry::bind_counter`] so legacy accessors and the registry
/// observe the same cells.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = lock(&self.inner);
        Arc::clone(
            inner.counters.entry(name.to_string()).or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = lock(&self.inner);
        Arc::clone(inner.gauges.entry(name.to_string()).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// Get or create the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut inner = lock(&self.inner);
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LogHistogram::new())),
        )
    }

    /// Adopt an existing counter under `name` (replacing any previous
    /// binding), so external owners and the registry share one cell.
    pub fn bind_counter(&self, name: &str, counter: Arc<Counter>) {
        lock(&self.inner).counters.insert(name.to_string(), counter);
    }

    /// A point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// A point-in-time view of a [`MetricsRegistry`], sorted by name
/// (deterministic export order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (no external crates in cw-obs).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.max(1);
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // top 53 bits → uniform in [0, 1)
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(5);
        c.sub(2);
        assert_eq!(c.get(), 4);
        let g = Gauge::new();
        g.set(10);
        g.add(3);
        g.sub(20);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn quantiles_match_exact_sort_within_bound() {
        let mut next = lcg(42);
        let h = LogHistogram::new();
        let mut exact: Vec<f64> = Vec::new();
        for _ in 0..10_000 {
            // log-uniform latencies from ~1 µs to ~1 s
            let v = 1e-6 * 1e6f64.powf(next());
            h.record(v);
            exact.push(v);
        }
        exact.sort_by(f64::total_cmp);
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let est = snap.quantile(q);
            let idx = ((q * exact.len() as f64).ceil() as usize).max(1) - 1;
            let truth = exact[idx];
            let rel = (est - truth).abs() / truth;
            assert!(rel <= 0.05, "q={q}: est {est} vs exact {truth} (rel err {rel})");
        }
        assert!((snap.mean() - exact.iter().sum::<f64>() / 1e4).abs() < 1e-9);
        assert_eq!(snap.min, *exact.first().unwrap());
        assert_eq!(snap.max, *exact.last().unwrap());
    }

    #[test]
    fn sharded_merge_equals_whole_stream() {
        let mut next = lcg(7);
        let whole = LogHistogram::new();
        let shards: Vec<LogHistogram> = (0..4).map(|_| LogHistogram::new()).collect();
        for i in 0..5_000 {
            let v = 1e-5 * 1e4f64.powf(next());
            whole.record(v);
            shards[i % 4].record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        for s in &shards {
            merged.merge(&s.snapshot());
        }
        let whole = whole.snapshot();
        assert_eq!(merged.buckets, whole.buckets);
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        for &q in &[0.5, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
        assert!((merged.sum - whole.sum).abs() < 1e-9 * whole.sum.abs().max(1.0));
    }

    #[test]
    fn merge_order_does_not_change_quantiles() {
        let mut next = lcg(99);
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let c = LogHistogram::new();
        for _ in 0..1_000 {
            a.record(next());
            b.record(10.0 * next());
            c.record(0.01 * next());
        }
        let (sa, sb, sc) = (a.snapshot(), b.snapshot(), c.snapshot());
        let mut abc = sa.clone();
        abc.merge(&sb);
        abc.merge(&sc);
        let mut cba = sc.clone();
        cba.merge(&sb);
        cba.merge(&sa);
        assert_eq!(abc.buckets, cba.buckets);
        assert_eq!(abc.quantile(0.5), cba.quantile(0.5));
        assert_eq!(abc.quantile(0.999), cba.quantile(0.999));
    }

    #[test]
    fn edge_samples_land_in_sentinel_buckets() {
        let h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0); // clamps to zero
        h.record(1e-12); // below 2^-30
        h.record(1e9); // above 2^14
        h.record(f64::NAN); // ignored
        h.record(f64::INFINITY); // ignored
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 3);
        assert_eq!(*s.buckets.last().unwrap(), 1);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1e9);
        // quantiles stay inside the observed range even for sentinels
        assert!(s.quantile(0.999) <= s.max);
    }

    #[test]
    fn sparse_round_trip_preserves_quantiles() {
        let mut next = lcg(3);
        let h = LogHistogram::new();
        for _ in 0..2_000 {
            h.record(1e-4 * 100f64.powf(next()));
        }
        let s = h.snapshot();
        let rebuilt = HistogramSnapshot::from_parts(&s.nonzero_buckets(), s.sum, s.min, s.max);
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn registry_get_or_create_and_bind() {
        let r = MetricsRegistry::new();
        r.counter("a").add(2);
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 3);
        let external = Arc::new(Counter::new());
        external.add(41);
        r.bind_counter("b", Arc::clone(&external));
        external.inc();
        r.gauge("depth").set(5);
        r.histogram("lat").record(0.25);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.counter("b"), Some(42));
        assert_eq!(snap.gauge("depth"), Some(5));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        // BTreeMap ⇒ sorted, deterministic order
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
