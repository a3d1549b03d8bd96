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
//! A dense accumulator's `add` is one unconditional `+=`: its value slots
//! wait between rows at `-0.0`, which any first product leaves unchanged to
//! the bit ([`DenseAccumulator`]). Its stamps only decide which columns the
//! row appends to its touched list, so the accumulator still merges in
//! arrival order and the choice stays bit-transparent.
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

/// Bytes a [`DenseAccumulator`] holds per output column: an `f64` value, a
/// `u32` generation stamp and a `u32` slot of its touched list (the masked
/// kernel's dense accumulator holds only a `u32` slot per column, and is
/// budgeted as one).
const DENSE_BYTES_PER_COL: usize = 16;

/// The most dense-accumulator memory one worker may hold: half of a 2 MiB L2,
/// and a bound on what any one request can make a worker allocate. Dense
/// measured no slower than Hash up to it, and past it to 3 MB (meshes and
/// block matrices, 16 k–260 k columns, 2-vCPU x86-64).
const DENSE_MAX_BYTES: usize = 1 << 20;

/// Whether a dense accumulator over `ncols` output columns fits in one
/// worker's budget: `ncols × 16 B ≤ 1 MiB`, i.e. up to 65 536 columns. Every
/// kernel holds one accumulator per worker; the cluster-wise kernel's column
/// → lane map follows the same rule.
///
/// Every kernel that allocates a dense accumulator applies it to the width
/// it allocates for through [`AccumulatorKind::resolve`], running
/// [`AccumulatorKind::Hash`] (the same bits) where it fails — so no request
/// can size a dense array from an unbounded width.
///
/// ```
/// use cw_spgemm::accumulator::dense_fits;
///
/// assert!(dense_fits(65_536) && !dense_fits(65_537));
/// assert!(!dense_fits(usize::MAX));
/// ```
pub fn dense_fits(ncols: usize) -> bool {
    ncols.saturating_mul(DENSE_BYTES_PER_COL) <= DENSE_MAX_BYTES
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
    /// The accumulator a kernel runs over `ncols` output columns when asked
    /// for `self`: Dense only where [`dense_fits`] holds, Hash otherwise.
    /// Both give the same bits.
    pub fn resolve(self, ncols: usize) -> AccumulatorKind {
        match self {
            AccumulatorKind::Dense if dense_fits(ncols) => AccumulatorKind::Dense,
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
/// reset is `O(row nnz)` and only touched columns are ordered on extraction.
///
/// Between rows every value slot is *parked* at `-0.0`: in round-to-nearest
/// `-0.0 + v` is `v` to the bit for every `v` (`+0.0`, `-0.0` and NaNs
/// included). So `add` needs no first-touch branch — on meshes half of the
/// multiply-adds are a row's first touch of its column, and such a branch is
/// a coin flip. It always does `vals[c] += v`, and the stamp only decides
/// whether `c` is appended to `touched`: the column is written one past the
/// row's last one unconditionally, and the length advances by
/// `fresh as usize`. Extraction and [`Accumulator::clear`] park the touched
/// slots again.
#[derive(Debug)]
pub struct DenseAccumulator {
    vals: Vec<Value>,
    stamp: Vec<u32>,
    gen: u32,
    /// The row's columns in first-touch order in `touched[..len]`; one slot
    /// more than the width, for the write past the end of a full row.
    touched: Box<[ColIdx]>,
    len: usize,
    /// `label << 32 | column` per touched column: what a labelled
    /// extraction sorts. Stays empty under [`SameLabels`].
    by_label: Vec<u64>,
}

impl DenseAccumulator {
    /// Creates a dense accumulator for matrices with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        DenseAccumulator {
            vals: vec![-0.0; ncols],
            stamp: vec![0; ncols],
            gen: 1,
            touched: vec![0; ncols + 1].into_boxed_slice(),
            len: 0,
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
        self.vals[c] += val;
        let fresh = self.stamp[c] != self.gen;
        self.stamp[c] = self.gen;
        self.touched[self.len] = col;
        self.len += fresh as usize;
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
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
        let n = self.len;
        let touched = &mut self.touched[..n];
        if n <= SHORT_ROW {
            let mut keys = [0; SHORT_ROW];
            for (key, &col) in keys.iter_mut().zip(&*touched) {
                *key = labels.label(col);
            }
            let sums = &self.vals;
            emit_by_rank(&keys, n, cols, vals, |i| sums[touched[i] as usize]);
        } else if L::IDENTITY {
            touched.sort_unstable();
            cols[..n].copy_from_slice(touched);
            for (v, &c) in vals[..n].iter_mut().zip(&*touched) {
                *v = self.vals[c as usize];
            }
        } else {
            self.by_label.clear();
            self.by_label
                .extend(touched.iter().map(|&c| (labels.label(c) as u64) << 32 | c as u64));
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
        for &c in &self.touched[..self.len] {
            self.vals[c as usize] = -0.0;
        }
        self.len = 0;
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Stamp wrap-around: invalidate everything once per 2^32 rows.
            self.stamp.fill(0);
            self.gen = 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Extracts (and resets) `acc` into fresh vectors.
    fn drain(acc: &mut dyn Accumulator) -> (Vec<ColIdx>, Vec<Value>) {
        let (mut cols, mut vals) = (vec![0; acc.len()], vec![0.0; acc.len()]);
        acc.extract_into(&mut cols, &mut vals);
        (cols, vals)
    }

    /// `to_bits`, except that every NaN is one value (the rule of
    /// `CsrMatrix::bits_eq`: an optimised build may commute an `fadd` of two
    /// NaNs and return the other one).
    pub(crate) fn bits(vals: &[Value]) -> Vec<u64> {
        vals.iter().map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// Feeds `seq` to `acc` as one row and extracts it under `labels`,
    /// checking that the accumulator is left empty.
    fn labelled_row<A: Accumulator, L: LabelMap>(
        acc: &mut A,
        labels: &L,
        seq: impl IntoIterator<Item = (ColIdx, Value)>,
    ) -> (Vec<ColIdx>, Vec<u64>) {
        seq.into_iter().for_each(|(c, v)| acc.add(c, v));
        let (mut cols, mut vals) = (vec![0; acc.len()], vec![0.0; acc.len()]);
        acc.extract_labelled_into(labels, &mut cols, &mut vals);
        assert!(acc.is_empty());
        (cols, bits(&vals))
    }

    /// The terms of one row over `13 × groups` columns, in arrival order
    /// (columns descending within each round). Column `13g + k` receives the
    /// `k`-th of: `+0.0`; only `-0.0`s; `-0.0` then `+0.0`; `+0.0` then
    /// `-0.0`; `inf` then a number; `-inf`; `inf` then `-inf`; a NaN; a
    /// negative NaN of another payload then a number; both NaNs; a
    /// cancellation; a negative subnormal then `-0.0`; a number between
    /// `-0.0`s.
    pub(crate) fn odd_terms(groups: ColIdx) -> Vec<(ColIdx, Value)> {
        let inf = f64::INFINITY;
        let nan = f64::from_bits(0x7ff8_0000_0000_0a5a);
        let neg_nan = f64::from_bits(0xfff8_0000_0000_0b0b);
        let columns: [&[Value]; 13] = [
            &[0.0],
            &[-0.0, -0.0, -0.0],
            &[-0.0, 0.0],
            &[0.0, -0.0],
            &[inf, 1.0],
            &[-inf],
            &[inf, -inf],
            &[nan],
            &[neg_nan, 2.0],
            &[nan, neg_nan],
            &[1.0, -1.0],
            &[-1e-310, -0.0],
            &[-0.0, 5.0, -0.0],
        ];
        let mut seq = Vec::new();
        for round in 0..3 {
            for g in (0..groups).rev() {
                for (k, terms) in columns.iter().enumerate().rev() {
                    if let Some(&v) = terms.get(round) {
                        seq.push((13 * g + k as ColIdx, v));
                    }
                }
            }
        }
        seq
    }

    /// Whether every value slot of `acc` is parked at `-0.0`.
    fn parked(acc: &DenseAccumulator) -> bool {
        acc.vals.iter().all(|v| v.to_bits() == (-0.0f64).to_bits())
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
        // 16 B per column: one accumulator per worker fits 65 536 columns in
        // 1 MiB.
        for (ncols, ran) in [(65_536, Dense), (65_537, Hash), (usize::MAX, Hash)] {
            assert_eq!(Dense.resolve(ncols), ran, "{ncols}");
            assert_eq!(Hash.resolve(ncols), Hash, "Hash is never widened to Dense");
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
        let plain = seq.iter().copied();
        let keyed = || seq.iter().map(|&(c, v)| (inv[c as usize], v));
        let expect = labelled_row(&mut HashAccumulator::new(), &SameLabels, plain);
        assert_eq!(expect.0, (0..7).collect::<Vec<u32>>());
        let mut hash = HashAccumulator::with_capacity(2); // grows mid-row
        let mut dense = DenseAccumulator::new(7);
        for round in 0..2 {
            assert_eq!(labelled_row(&mut hash, &perm, keyed()), expect, "hash, round {round}");
            assert_eq!(labelled_row(&mut dense, &perm, keyed()), expect, "dense, round {round}");
        }
        // Back under the identity, the same accumulators are the plain ones.
        assert_eq!(labelled_row(&mut hash, &SameLabels, seq.iter().copied()), expect);
        assert_eq!(labelled_row(&mut dense, &SameLabels, seq.iter().copied()), expect);
    }

    #[test]
    fn dense_is_hash_to_the_bit_on_signed_zeros_infinities_and_nans() {
        // Dense adds a column's first term to a parked -0.0, Hash stores it:
        // the same bits for every term, whichever extraction path the row
        // takes (13 entries: rank placement; 52: sorted) and in either label
        // space.
        for groups in [1, 4] {
            let seq = odd_terms(groups);
            let width = 13 * groups;
            let mut sums = std::collections::BTreeMap::new();
            for &(c, v) in &seq {
                sums.entry(c).and_modify(|sum| *sum += v).or_insert(v);
            }
            let vals: Vec<Value> = sums.values().copied().collect();
            let expect = (sums.keys().copied().collect::<Vec<_>>(), bits(&vals));
            let zero = |c: ColIdx| sums[&c].to_bits();
            assert_eq!((zero(0), zero(1), zero(2), zero(3)), (0, 1 << 63, 0, 0));
            assert!(sums[&6].is_nan() && sums[&7].is_nan() && sums[&9].is_nan());
            let reversed = Permutation::from_new_to_old((0..width).rev().collect()).unwrap();
            let keyed = || seq.iter().map(|&(c, v)| (width - 1 - c, v));
            let mut hash = HashAccumulator::new();
            let mut dense = DenseAccumulator::new(width as usize);
            for round in 0..2 {
                assert_eq!(labelled_row(&mut hash, &SameLabels, seq.clone()), expect, "{round}");
                assert_eq!(labelled_row(&mut dense, &SameLabels, seq.clone()), expect, "{round}");
                assert_eq!(labelled_row(&mut hash, &reversed, keyed()), expect, "{round}");
                assert_eq!(labelled_row(&mut dense, &reversed, keyed()), expect, "{round}");
            }
        }
    }

    #[test]
    fn dense_value_slots_wait_at_negative_zero_between_rows() {
        let width = 13 * 4;
        let reversed = Permutation::from_new_to_old((0..width as ColIdx).rev().collect()).unwrap();
        let mut acc = DenseAccumulator::new(width);
        assert!(parked(&acc), "new");
        for groups in [1, 4] {
            let seq = odd_terms(groups);
            labelled_row(&mut acc, &SameLabels, seq.iter().copied());
            assert!(parked(&acc), "{groups} groups, same labels");
            labelled_row(&mut acc, &reversed, seq.iter().copied());
            assert!(parked(&acc), "{groups} groups, permuted");
            // What the symbolic probe does: read the length, then clear.
            seq.iter().for_each(|&(c, v)| acc.add(c, v));
            assert_eq!(acc.len(), 13 * groups as usize);
            acc.clear();
            assert!(parked(&acc) && acc.is_empty(), "{groups} groups, cleared");
        }
        // Every column, twice: the repeats write one slot past a full list.
        for _ in 0..2 {
            (0..width as ColIdx).for_each(|c| acc.add(c, 1.0));
        }
        let (cols, vals) = drain(&mut acc);
        assert_eq!(cols, (0..width as ColIdx).collect::<Vec<_>>());
        assert!(vals.iter().all(|&v| v == 2.0) && parked(&acc));
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
        acc.add(2, 1.0);
        let (_, v) = drain(&mut acc);
        assert_eq!(v, vec![5.0, 1.0]);
        assert!(parked(&acc), "the wrap keeps the slots parked");
        // After wrap, stale stamps must not alias.
        acc.add(1, 7.0);
        let (_, v2) = drain(&mut acc);
        assert_eq!(v2, vec![7.0]);
        // A bare clear wraps the same way.
        acc.gen = u32::MAX;
        acc.add(3, 2.0);
        acc.clear();
        assert!(parked(&acc) && acc.gen == 1);
        acc.add(3, -0.0);
        let (_, v3) = drain(&mut acc);
        assert_eq!(bits(&v3), bits(&[-0.0]));
    }
}
