//! Sparse accumulators for Gustavson-style SpGEMM.
//!
//! A sparse accumulator collects the intermediate products of one output row
//! (`accumulate` in paper Fig. 1) and emits the compressed, sorted result
//! (`copy`). The paper uses a hash-table accumulator following Nagasaka et
//! al. \[40\]; a dense SPA is the alternative wherever its per-worker
//! arrays fit ([`dense_fits`]). Every kernel asks [`AccumulatorKind::resolve`]
//! which one runs at the width it allocates for, so a request for Dense runs
//! the hash accumulator (same bits) where Dense would not fit.
//!
//! Accumulators are designed for reuse across rows: `extract_into` drains
//! and resets in `O(row nnz)`, never `O(ncols)`, so one accumulator instance
//! serves a whole thread's worth of rows without re-allocation.
//!
//! The kernels are generic over `A: Accumulator` and pick the concrete type
//! once per call from [`AccumulatorKind`], so `add` inlines into the
//! multiply-add loop. Every accumulator merges duplicate columns in arrival
//! order and extracts in ascending column order, which makes the choice
//! bit-transparent.
//!
//! The ids an accumulator is keyed on need not be the labels a row is
//! emitted under. A kernel that runs in a permuted label space (the engine's
//! two-sided plans) passes a [`LabelMap`] to
//! [`Accumulator::extract_labelled_into`]: the sort half of
//! [`HashAccumulator`]'s packed word and of [`DenseAccumulator`]'s touched
//! list then holds `labels.label(key)` instead of `key` — one lookup per
//! *output entry*, none per multiply-add — and the same sort and gather emit
//! the row in ascending label order. [`SameLabels`] is the zero-sized
//! identity: `extract_into` is that instantiation, with the translation
//! compiled out.
//!
//! Most output rows are short, and most of their extraction time was the
//! comparison sort. A row of at most 32 entries (`SHORT_ROW`) is therefore
//! emitted without one: copied as is when its labels already ascend, else
//! each entry written at its rank — how many of the row's labels are below
//! its own. The keys of a row are distinct, so the rank order is the sorted
//! order and the bits do not change.

use cw_sparse::{ColIdx, Permutation, Value};

/// Sentinel for an empty hash slot (no valid column id equals `u32::MAX`
/// because matrix dimensions are `< u32::MAX`).
pub(crate) const EMPTY: u32 = u32::MAX;

/// Bytes a [`DenseAccumulator`] holds per output column: an `f64` value and
/// a `u32` generation stamp (the masked kernel's dense accumulator is the
/// same two arrays).
const DENSE_BYTES_PER_COL: usize = 12;

/// The most dense-accumulator memory one worker may hold: half of a 2 MiB L2,
/// and a bound on what any one request can make a worker allocate. Dense
/// measured no slower than Hash up to it, and past it to 3 MB (meshes and
/// block matrices, 16 k–260 k columns, 2-vCPU x86-64).
const DENSE_MAX_BYTES: usize = 1 << 20;

/// Whether `per_worker` dense accumulators over `ncols` output columns fit
/// in one worker's budget: `per_worker × ncols × 12 B ≤ 1 MiB`. A row-wise
/// kernel holds one per worker (Dense up to 87 381 columns), the cluster-wise
/// kernel one per member row of a cluster (up to 10 922 columns at eight).
///
/// Every kernel that allocates a dense accumulator applies it to the width
/// it allocates for through [`AccumulatorKind::resolve`], running
/// [`AccumulatorKind::Hash`] (the same bits) where it fails — so no request
/// can size a dense array from an unbounded width.
///
/// ```
/// use cw_spgemm::accumulator::dense_fits;
///
/// assert!(dense_fits(87_381, 1) && !dense_fits(87_382, 1));
/// assert!(dense_fits(10_922, 8) && !dense_fits(10_923, 8));
/// assert!(!dense_fits(usize::MAX, 2));
/// ```
pub fn dense_fits(ncols: usize, per_worker: usize) -> bool {
    per_worker.saturating_mul(ncols).saturating_mul(DENSE_BYTES_PER_COL) <= DENSE_MAX_BYTES
}

/// Rows of at most this many entries are extracted by rank placement
/// instead of a comparison sort (module docs): the rank counts grow with the
/// square of the row, and at 32 entries they still beat `sort_unstable` on
/// keys that arrive in a few ascending runs.
const SHORT_ROW: usize = 32;

/// Writes the `n ≤ SHORT_ROW` distinct keys `keys[..n]` to the front of
/// `cols` in ascending order, each with `value(i)` for `keys[i]` at the same
/// position of `vals`. Keys that already ascend are copied as is; otherwise
/// each goes to its rank, the count of the row's keys below it.
#[inline(always)]
fn emit_by_rank(
    keys: &[ColIdx; SHORT_ROW],
    n: usize,
    cols: &mut [ColIdx],
    vals: &mut [Value],
    value: impl Fn(usize) -> Value,
) {
    let row = &keys[..n];
    let (cols, vals) = (&mut cols[..n], &mut vals[..n]);
    if row.windows(2).all(|w| w[0] < w[1]) {
        cols.copy_from_slice(row);
        for (i, v) in vals.iter_mut().enumerate() {
            *v = value(i);
        }
        return;
    }
    // Every key is compared with whole groups of eight slots (those past `n`
    // are never read back), so the branch-free compares vectorise.
    let lanes = n.next_multiple_of(8);
    let mut rank = [0u32; SHORT_ROW];
    for &key in row {
        for (r, &k) in rank[..lanes].iter_mut().zip(&keys[..lanes]) {
            *r += (key < k) as u32;
        }
    }
    for (i, (&key, &r)) in row.iter().zip(&rank).enumerate() {
        cols[r as usize] = key;
        vals[r as usize] = value(i);
    }
}

/// Which accumulator implementation a kernel should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccumulatorKind {
    /// Open-addressing hash table (the paper's choice, \[40\]).
    #[default]
    Hash,
    /// Dense array with generation stamps (classic SPA).
    Dense,
}

impl AccumulatorKind {
    /// The accumulator a kernel that holds `per_worker` accumulators over
    /// `ncols` output columns runs when asked for `self`: Dense only where
    /// [`dense_fits`] holds, Hash otherwise. Both give the same bits.
    pub fn resolve(self, ncols: usize, per_worker: usize) -> AccumulatorKind {
        match self {
            AccumulatorKind::Dense if dense_fits(ncols, per_worker) => AccumulatorKind::Dense,
            _ => AccumulatorKind::Hash,
        }
    }
}

/// The labels a row is emitted under, as a function of the ids its
/// accumulator was keyed on. Must be injective on the keys of one row.
pub trait LabelMap: Sync {
    /// True when `label(key) == key` for every key: extraction skips the
    /// translation altogether.
    const IDENTITY: bool;
    /// The output label of accumulator key `key`.
    fn label(&self, key: ColIdx) -> ColIdx;
}

/// Keys are labels already (the zero-sized identity [`LabelMap`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SameLabels;

impl LabelMap for SameLabels {
    const IDENTITY: bool = true;
    #[inline(always)]
    fn label(&self, key: ColIdx) -> ColIdx {
        key
    }
}

/// Keys are positions under the permutation, labels the indices it moved
/// there: a kernel run on `P·A·Pᵀ` emits `A`'s own column labels.
impl LabelMap for Permutation {
    const IDENTITY: bool = false;
    #[inline(always)]
    fn label(&self, key: ColIdx) -> ColIdx {
        self.as_new_to_old()[key as usize]
    }
}

/// Common interface of all sparse accumulators.
///
/// `Send` is a supertrait so accumulators can serve as per-worker state in
/// the work-stealing pool's `map_init`/`for_each_init` (worker state slots
/// may be handed between OS threads across calls).
pub trait Accumulator: Send {
    /// A fresh accumulator for output rows `ncols` columns wide.
    fn with_ncols(ncols: usize) -> Self
    where
        Self: Sized;
    /// Adds `val` at column `col`, merging with any existing entry.
    fn add(&mut self, col: ColIdx, val: Value);
    /// Number of distinct columns currently held.
    fn len(&self) -> usize;
    /// True if no columns are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Writes the accumulated `(col, val)` entries to the front of
    /// `cols`/`vals` in ascending column order, resets the accumulator for
    /// the next row, and returns how many entries were written. Panics if
    /// either slice is shorter than [`Accumulator::len`].
    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [Value]) -> usize;
    /// [`Accumulator::extract_into`] for an accumulator keyed on ids other
    /// than the output's: writes `(labels.label(key), val)` in ascending
    /// *label* order.
    fn extract_labelled_into<L: LabelMap>(
        &mut self,
        labels: &L,
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize
    where
        Self: Sized;
    /// Drops the accumulated entries without emitting them (size probes
    /// read [`Accumulator::len`] first).
    fn clear(&mut self);
}

/// Fibonacci-style multiplicative hash: fast, good-enough spread for column
/// ids (the perf-book guidance: never SipHash in a kernel).
#[inline(always)]
pub(crate) fn hash32(x: u32, mask: usize) -> usize {
    (x.wrapping_mul(0x9E37_79B9) as usize) & mask
}

/// Open-addressing (linear probing) hash accumulator.
///
/// Capacity is always a power of two and grows at 50% load. `keys` holds
/// column ids (EMPTY = free), `vals` the running sums, and `occupied` one
/// packed `col << 32 | slot` word per used slot: reset costs `O(entries)`
/// rather than `O(capacity)`, and extraction orders those words by column
/// (rewritten to the column's *label* first when the kernel ran under a
/// [`LabelMap`]) — by rank up to 32 entries, natively sorted
/// past it — and gathers each value through its slot.
#[derive(Debug)]
pub struct HashAccumulator {
    keys: Vec<u32>,
    vals: Vec<Value>,
    occupied: Vec<u64>,
    mask: usize,
}

/// The low half of a packed word: the slot of an `occupied` entry (or the
/// column of a dense accumulator's label-sorted one).
#[inline(always)]
fn slot_of(packed: u64) -> usize {
    (packed & 0xFFFF_FFFF) as usize
}

impl HashAccumulator {
    /// Creates an accumulator sized for about `expected` entries.
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(8) * 2).next_power_of_two();
        HashAccumulator {
            keys: vec![EMPTY; cap],
            vals: vec![0.0; cap],
            occupied: Vec::with_capacity(expected.max(8)),
            mask: cap - 1,
        }
    }

    /// Creates an accumulator with the default small capacity.
    pub fn new() -> Self {
        Self::with_capacity(8)
    }

    #[inline]
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        let mut keys = vec![EMPTY; new_cap];
        let mut vals = vec![0.0; new_cap];
        let mask = new_cap - 1;
        let mut occupied = Vec::with_capacity(self.occupied.len() * 2);
        for &packed in &self.occupied {
            let k = (packed >> 32) as u32;
            let mut h = hash32(k, mask);
            while keys[h] != EMPTY {
                h = (h + 1) & mask;
            }
            keys[h] = k;
            vals[h] = self.vals[slot_of(packed)];
            occupied.push((k as u64) << 32 | h as u64);
        }
        self.keys = keys;
        self.vals = vals;
        self.mask = mask;
        self.occupied = occupied;
    }
}

impl Default for HashAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Accumulator for HashAccumulator {
    fn with_ncols(_ncols: usize) -> Self {
        Self::new()
    }

    #[inline]
    fn add(&mut self, col: ColIdx, val: Value) {
        debug_assert_ne!(col, EMPTY);
        if self.occupied.len() * 2 >= self.keys.len() {
            self.grow();
        }
        let mut h = hash32(col, self.mask);
        loop {
            let k = self.keys[h];
            if k == col {
                self.vals[h] += val;
                return;
            }
            if k == EMPTY {
                self.keys[h] = col;
                self.vals[h] = val;
                self.occupied.push((col as u64) << 32 | h as u64);
                return;
            }
            h = (h + 1) & self.mask;
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.occupied.len()
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [Value]) -> usize {
        self.extract_labelled_into(&SameLabels, cols, vals)
    }

    fn extract_labelled_into<L: LabelMap>(
        &mut self,
        labels: &L,
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize {
        let n = self.occupied.len();
        if n <= SHORT_ROW {
            let mut keys = [0; SHORT_ROW];
            for (key, &packed) in keys.iter_mut().zip(&self.occupied) {
                *key = labels.label((packed >> 32) as ColIdx);
            }
            let (occupied, sums) = (&self.occupied, &self.vals);
            emit_by_rank(&keys, n, cols, vals, |i| sums[slot_of(occupied[i])]);
            self.clear();
            return n;
        }
        if !L::IDENTITY {
            for packed in &mut self.occupied {
                let label = labels.label((*packed >> 32) as ColIdx);
                *packed = (label as u64) << 32 | (*packed & 0xFFFF_FFFF);
            }
        }
        self.occupied.sort_unstable();
        for ((&packed, c), v) in self.occupied.iter().zip(&mut cols[..n]).zip(&mut vals[..n]) {
            let slot = slot_of(packed);
            *c = (packed >> 32) as ColIdx;
            *v = self.vals[slot];
            self.keys[slot] = EMPTY;
        }
        self.occupied.clear();
        n
    }

    fn clear(&mut self) {
        for &packed in &self.occupied {
            self.keys[slot_of(packed)] = EMPTY;
        }
        self.occupied.clear();
    }
}

/// Dense accumulator ("SPA"): a value per column plus a generation stamp, so
/// reset is `O(1)` (bump the generation) and only touched columns are
/// ordered on extraction.
#[derive(Debug)]
pub struct DenseAccumulator {
    vals: Vec<Value>,
    stamp: Vec<u32>,
    gen: u32,
    touched: Vec<ColIdx>,
    /// `label << 32 | column` per touched column: what a labelled
    /// extraction sorts. Stays empty under [`SameLabels`].
    by_label: Vec<u64>,
}

impl DenseAccumulator {
    /// Creates a dense accumulator for matrices with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        DenseAccumulator {
            vals: vec![0.0; ncols],
            stamp: vec![0; ncols],
            gen: 1,
            touched: Vec::new(),
            by_label: Vec::new(),
        }
    }
}

impl Accumulator for DenseAccumulator {
    fn with_ncols(ncols: usize) -> Self {
        Self::new(ncols)
    }

    #[inline]
    fn add(&mut self, col: ColIdx, val: Value) {
        let c = col as usize;
        debug_assert!(c < self.vals.len());
        if self.stamp[c] == self.gen {
            self.vals[c] += val;
        } else {
            self.stamp[c] = self.gen;
            self.vals[c] = val;
            self.touched.push(col);
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.touched.len()
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [Value]) -> usize {
        self.extract_labelled_into(&SameLabels, cols, vals)
    }

    fn extract_labelled_into<L: LabelMap>(
        &mut self,
        labels: &L,
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize {
        let n = self.touched.len();
        if n <= SHORT_ROW {
            let mut keys = [0; SHORT_ROW];
            for (key, &col) in keys.iter_mut().zip(&self.touched) {
                *key = labels.label(col);
            }
            let (touched, sums) = (&self.touched, &self.vals);
            emit_by_rank(&keys, n, cols, vals, |i| sums[touched[i] as usize]);
        } else if L::IDENTITY {
            self.touched.sort_unstable();
            cols[..n].copy_from_slice(&self.touched);
            for (v, &c) in vals[..n].iter_mut().zip(&self.touched) {
                *v = self.vals[c as usize];
            }
        } else {
            self.by_label.clear();
            self.by_label
                .extend(self.touched.iter().map(|&c| (labels.label(c) as u64) << 32 | c as u64));
            self.by_label.sort_unstable();
            for ((&packed, c), v) in self.by_label.iter().zip(&mut cols[..n]).zip(&mut vals[..n]) {
                *c = (packed >> 32) as ColIdx;
                *v = self.vals[slot_of(packed)];
            }
        }
        self.clear();
        n
    }

    fn clear(&mut self) {
        self.touched.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Stamp wrap-around: invalidate everything once per 2^32 rows.
            self.stamp.fill(0);
            self.gen = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extracts (and resets) `acc` into fresh vectors.
    fn drain(acc: &mut dyn Accumulator) -> (Vec<ColIdx>, Vec<Value>) {
        let (mut cols, mut vals) = (vec![0; acc.len()], vec![0.0; acc.len()]);
        acc.extract_into(&mut cols, &mut vals);
        (cols, vals)
    }

    fn exercise(acc: &mut dyn Accumulator) {
        // Insert with duplicates, out of order.
        acc.add(5, 1.0);
        acc.add(2, 2.0);
        acc.add(5, 3.0);
        acc.add(9, -1.0);
        acc.add(2, 0.5);
        assert_eq!(acc.len(), 3);
        let (cols, vals) = drain(acc);
        assert_eq!(cols, vec![2, 5, 9]);
        assert_eq!(vals, vec![2.5, 4.0, -1.0]);
        // Accumulator must be reusable after extraction.
        assert_eq!(acc.len(), 0);
        acc.add(1, 1.0);
        assert_eq!(acc.len(), 1);
        let (c2, v2) = drain(acc);
        assert_eq!(c2, vec![1]);
        assert_eq!(v2, vec![1.0]);
    }

    #[test]
    fn resolve_runs_dense_up_to_one_mib_per_worker() {
        use AccumulatorKind::{Dense, Hash};
        // 12 B per column: one row-wise accumulator fits 87 381 columns in
        // 1 MiB, eight cluster members 10 922 each.
        for (ncols, per_worker, ran) in [
            (87_381, 1, Dense),
            (87_382, 1, Hash),
            (10_922, 8, Dense),
            (10_923, 8, Hash),
            (usize::MAX, 1, Hash),
        ] {
            assert_eq!(Dense.resolve(ncols, per_worker), ran, "{ncols} × {per_worker}");
            assert_eq!(Hash.resolve(ncols, per_worker), Hash, "Hash is never widened to Dense");
        }
    }

    #[test]
    fn hash_accumulator_basic() {
        exercise(&mut HashAccumulator::new());
    }

    #[test]
    fn dense_accumulator_basic() {
        exercise(&mut DenseAccumulator::new(16));
    }

    #[test]
    fn every_accumulator_merges_duplicates_in_arrival_order() {
        // Bit-identity across accumulators requires duplicate columns to
        // sum in arrival order. 300 products over 7 columns (long enough
        // that an unstable sort would reorder equal keys), on values where
        // float addition order is observable; the reference is a plain
        // left-to-right sum per column.
        let seq: Vec<(u32, f64)> = (0..300u32)
            .map(|i| {
                (i * 5 % 7, [1e16, 1.0, -1e16, 0.1, 3e-7][i as usize % 5] * (1 + i % 3) as f64)
            })
            .collect();
        let mut expect = [None::<f64>; 7];
        for &(c, v) in &seq {
            let e = &mut expect[c as usize];
            *e = Some(e.map_or(v, |sum| sum + v));
        }
        let expect: Vec<u64> = expect.iter().map(|e| e.unwrap().to_bits()).collect();
        for acc in
            [&mut HashAccumulator::new() as &mut dyn Accumulator, &mut DenseAccumulator::new(7)]
        {
            for &(c, v) in &seq {
                acc.add(c, v);
            }
            let (cols, vals) = drain(acc);
            assert_eq!(cols, (0..7).collect::<Vec<u32>>());
            assert_eq!(vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn a_labelled_extraction_is_the_plain_one_in_another_key_space() {
        // The sequence of the test above, keyed on `inv[col]` and extracted
        // under the permutation: same labels, same sums to the bit, in
        // ascending *label* order although the keys are not — and the
        // accumulator is clean for the next row.
        let seq: Vec<(u32, f64)> = (0..300u32)
            .map(|i| {
                (i * 5 % 7, [1e16, 1.0, -1e16, 0.1, 3e-7][i as usize % 5] * (1 + i % 3) as f64)
            })
            .collect();
        // Moves every key but 3 (a fixed point).
        let perm = Permutation::from_new_to_old(vec![5, 0, 6, 3, 1, 2, 4]).unwrap();
        let inv = perm.inverse_map();
        fn run<A: Accumulator, L: LabelMap>(
            acc: &mut A,
            labels: &L,
            seq: impl Iterator<Item = (u32, f64)>,
        ) -> (Vec<ColIdx>, Vec<u64>) {
            seq.for_each(|(c, v)| acc.add(c, v));
            let (mut cols, mut vals) = (vec![0; acc.len()], vec![0.0; acc.len()]);
            acc.extract_labelled_into(labels, &mut cols, &mut vals);
            assert!(acc.is_empty());
            (cols, vals.into_iter().map(f64::to_bits).collect())
        }
        let plain = seq.iter().copied();
        let keyed = || seq.iter().map(|&(c, v)| (inv[c as usize], v));
        let expect = run(&mut HashAccumulator::new(), &SameLabels, plain);
        assert_eq!(expect.0, (0..7).collect::<Vec<u32>>());
        let mut hash = HashAccumulator::with_capacity(2); // grows mid-row
        let mut dense = DenseAccumulator::new(7);
        for round in 0..2 {
            assert_eq!(run(&mut hash, &perm, keyed()), expect, "hash, round {round}");
            assert_eq!(run(&mut dense, &perm, keyed()), expect, "dense, round {round}");
        }
        // Back under the identity, the same accumulators are the plain ones.
        assert_eq!(run(&mut hash, &SameLabels, seq.iter().copied()), expect);
        assert_eq!(run(&mut dense, &SameLabels, seq.iter().copied()), expect);
    }

    #[test]
    fn hash_grows_past_initial_capacity() {
        let mut acc = HashAccumulator::with_capacity(2);
        for c in 0..1000u32 {
            acc.add(c * 7 % 997, 1.0);
        }
        // 997 distinct keys mod 997 -> 0..996, with duplicates merged.
        assert_eq!(acc.len(), 997);
        let (cols, vals) = drain(&mut acc);
        assert_eq!(cols.len(), 997);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        let total: f64 = vals.iter().sum();
        assert_eq!(total, 1000.0);
    }

    #[test]
    fn clear_discards_without_emitting() {
        for acc in
            [&mut HashAccumulator::new() as &mut dyn Accumulator, &mut DenseAccumulator::new(8)]
        {
            acc.add(3, 1.0);
            acc.add(4, 1.0);
            acc.clear();
            assert_eq!(acc.len(), 0);
            acc.add(3, 2.0);
            let (_, v) = drain(acc);
            assert_eq!(v, vec![2.0]); // old 1.0 must not leak through
        }
    }

    #[test]
    fn dense_generation_wraparound_is_safe() {
        let mut acc = DenseAccumulator::new(4);
        acc.gen = u32::MAX; // force wrap on next extract
        acc.add(1, 5.0);
        let (_, v) = drain(&mut acc);
        assert_eq!(v, vec![5.0]);
        // After wrap, stale stamps must not alias.
        acc.add(1, 7.0);
        let (_, v2) = drain(&mut acc);
        assert_eq!(v2, vec![7.0]);
    }
}
