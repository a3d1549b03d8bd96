//! The single-pass numeric driver shared by every Gustavson kernel.
//!
//! Row-wise ([`crate::rowwise`]) and cluster-wise (`cw_core::kernel`)
//! SpGEMM differ only in how one *unit* of work (a row, or a cluster of
//! rows) is accumulated. Everything around that is here: units are cut
//! into contiguous FLOP-balanced [`Chunk`]s,
//! each chunk accumulates → extracts → writes its rows **exactly once**
//! through a [`RowSink`], the per-row `nnz` falls out as a by-product, and
//! `row_ptr` is a prefix sum afterwards. There is no symbolic pass: nothing
//! is multiplied twice to learn a size.
//!
//! # Memory: reserved, touched, retained
//!
//! Without exact sizes the chunks need somewhere to write before the size
//! of `C` is known. A row of `C` holds at most `min(flops(row), ncols(B))`
//! entries, so the driver stages the output in `col_idx` / `vals` slabs of
//! `Σ_rows min(flops(row), ncols)` entries. The slabs are split into one
//! disjoint window per chunk (`split_at_mut`, no `unsafe`) and a chunk
//! writes its rows back to back from the start of its window. When the
//! chunks are done `nnz(C)` is known: the output arrays are allocated at
//! exactly that size on the caller's thread and the *pack step* copies every
//! entry into them, once. No output buffer is allocated on a pool thread
//! (memory freed there would stay in that worker's allocator arena).
//!
//! The pack step is also where rows reach their final position. A kernel
//! that ran over reordered rows passes the row map (`row_map`, computed row
//! → result row): `row_ptr` is then prefix-summed in result order and each
//! row is copied to its own offset, so the product leaves the driver in the
//! caller's row order and nobody allocates, writes and faults in a second
//! `nnz(C)`-sized copy to un-permute it. Without a map each window is one
//! contiguous run of the result and is copied whole. Column labels are not
//! the pack step's business: a kernel that also ran in permuted *column*
//! ids translates them as each row is extracted
//! ([`RowSink::push_labelled_row`]), so what sits in staging is already in
//! the caller's labels and sorted by them.
//!
//! * **Reserved**: a staging slab is a zeroed allocation (`vec![0; cap]`,
//!   i.e. `calloc`) of the bound, which a large request gets as untouched
//!   pages. Only pages that receive output are ever *touched*: `nnz(C)`
//!   entries plus at most a page per chunk, not the bound.
//! * **Retained**: a finished multiply hands its staging back to a small
//!   process-wide pool (at most [`MAX_POOLED`] slabs of at most
//!   [`MAX_POOLED_ENTRIES`] entries) and the next multiply starts from it,
//!   whichever thread it runs on. A multiply in steady state therefore
//!   allocates only its exact-size result, which belongs to the caller.
//!   Whether *that* memory is recycled is the allocator's call, not the
//!   driver's. Measured on glibc with a 13 MB product (`/proc/self/stat`,
//!   warm engine ops): a caller that drops each result before asking for
//!   the next gets the same pages back — 0 minor faults per product. A
//!   caller that makes a second product-sized copy per op (a separate
//!   un-permutation pass, say) and frees the pair crosses the allocator's
//!   trim threshold: both go back to the OS and every op pays two
//!   first-touch passes (5 265–6 727 faults). Handing rows out in their
//!   final order from the pack step is what keeps it at one allocation.
//!   (Staging that is allocated, touched and unmapped on every call costs
//!   thousands of minor faults per product. On a shared machine that work
//!   does not speed up and slow down with the rest of the kernel, so the
//!   kernel's run time stops following the machine's and varies from one
//!   process to the next.)
//!   The price is
//!   that the touched part of a pooled slab stays resident between calls:
//!   up to one extra copy of the largest `C` seen per pooled slab, and over
//!   many differently shaped products up to the largest bound seen, since
//!   windows start at bound-sized strides. Stale entries in a reused slab
//!   are harmless: a window is only read up to what its chunk wrote.
//!
//! When the bound is much larger than `nnz(C)` — high-compression products,
//! where many partial products collapse into each output entry — the
//! staging grows with `flops`, not with the result. A bound beyond
//! [`MAX_POOLED_ENTRIES`] is staged in a fresh reservation that is released
//! when the call returns, so nothing of that size is retained. A bound
//! beyond what the OS will overcommit fails like any other allocation,
//! where exact two-phase sizing would have fitted; bounding a request's
//! predicted FLOPs at admission is the guard for that.

use crate::accumulator::{Accumulator, LabelMap, SameLabels};
use crate::masked::MaskAccumulator;
use cw_sparse::{ColIdx, CsrMatrix, Permutation, Value};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// How many staging slabs the pool keeps: the number of multiplies that can
/// run concurrently without any of them allocating staging.
pub const MAX_POOLED: usize = 8;

/// Largest staging slab (in output entries, 12 bytes each) the pool keeps;
/// a larger one is released when its multiply returns.
pub const MAX_POOLED_ENTRIES: usize = 1 << 24;

/// Staging slabs between multiplies (module header: *retained*).
static POOL: Mutex<Vec<Staging>> = Mutex::new(Vec::new());

/// Where chunks write their rows until `nnz(C)` is known.
#[derive(Debug, Default)]
struct Staging {
    cols: Vec<ColIdx>,
    vals: Vec<Value>,
}

impl Staging {
    /// A slab of at least `cap` entries: a pooled one when it is big
    /// enough, else a fresh zeroed reservation.
    fn take(cap: usize) -> Staging {
        // Push and pop leave the pool valid at every step, so a poisoned
        // lock is still good to use.
        let pooled = POOL.lock().unwrap_or_else(PoisonError::into_inner).pop();
        match pooled {
            Some(slab) if slab.cols.len() >= cap => slab,
            _ => {
                // Release a too-small slab before reserving its replacement.
                drop(pooled);
                Staging { cols: vec![0; cap], vals: vec![0.0; cap] }
            }
        }
    }

    /// Hands the slab to the pool for the next multiply, if it has room.
    fn give_back(self) {
        if self.cols.len() <= MAX_POOLED_ENTRIES {
            let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
            if pool.len() < MAX_POOLED {
                pool.push(self);
            }
        }
    }
}

/// A worker's scratch on cache lines of its own. The pool keeps the workers'
/// states side by side in one array; accumulators stored inline there (their
/// lengths and cursors are written on every multiply-add) would share a line
/// between two workers, and every insert would bounce it between cores.
/// 128 rather than 64: adjacent lines are prefetched in pairs.
#[repr(align(128))]
pub(crate) struct OwnLines<S>(pub(crate) S);

/// One contiguous run of work units and the output rows they produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Work units (rows or clusters) of this chunk.
    pub units: Range<usize>,
    /// Output rows those units produce, in order.
    pub rows: Range<usize>,
    /// Upper bound on the output entries of `rows`.
    pub out_bound: usize,
}

/// Row chunks a parallel multiply cuts per pool worker: more balance the
/// load better and cost more scheduling.
const CHUNKS_PER_THREAD: usize = 8;

/// Number of chunks to cut a multiply into: `CHUNKS_PER_THREAD` per pool
/// worker, or one when the call is serial or the pool has a single worker
/// (a lone chunk runs inline on the caller and leaves no gaps to close).
pub fn chunk_target(parallel: bool) -> usize {
    let width = rayon::current_num_threads();
    if parallel && width > 1 {
        width * CHUNKS_PER_THREAD
    } else {
        1
    }
}

/// Contiguous ranges over `flops` whose totals are roughly balanced.
///
/// Returns half-open ranges covering `0..flops.len()`. `target_chunks` is a
/// hint (fewer ranges come back for tiny inputs), except that a target of
/// one is exactly one range: the serial path relies on it.
fn balanced_ranges(flops: &[u64], target_chunks: usize) -> Vec<(usize, usize)> {
    let n = flops.len();
    if n == 0 {
        return Vec::new();
    }
    // A unit weighs its flops + 1, so runs of empty units still advance.
    let total: u64 = flops.iter().map(|f| f + 1).sum();
    let target = (total / target_chunks.max(1) as u64).max(1);
    let mut ranges = Vec::with_capacity(target_chunks + 1);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &f) in flops.iter().enumerate() {
        acc += f + 1;
        if acc >= target && i + 1 < n {
            ranges.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    ranges.push((start, n));
    ranges
}

/// Cuts units with the given multiply-add counts into about `target_chunks`
/// FLOP-balanced chunks. `first_row(u)` is the first output row of unit `u`
/// (and the row count for `u == flops.len()`); `out_bound(u)` bounds the
/// output entries of unit `u`.
pub fn plan_chunks(
    flops: &[u64],
    target_chunks: usize,
    first_row: impl Fn(usize) -> usize,
    out_bound: impl Fn(usize) -> usize,
) -> Vec<Chunk> {
    balanced_ranges(flops, target_chunks)
        .into_iter()
        .map(|(s, e)| Chunk {
            units: s..e,
            rows: first_row(s)..first_row(e),
            out_bound: (s..e).map(&out_bound).sum(),
        })
        .collect()
}

/// [`plan_chunks`] for kernels whose unit is one output row: the bound of a
/// row is `min(flops(row), ncols)`.
pub fn plan_row_chunks(flops: &[u64], ncols: usize, target_chunks: usize) -> Vec<Chunk> {
    plan_chunks(flops, target_chunks, |i| i, |i| flops[i].min(ncols as u64) as usize)
}

/// A chunk's window of the output: its rows are pushed in order and land
/// back to back at the start of the window.
#[derive(Debug)]
pub struct RowSink<'s> {
    row_nnz: &'s mut [usize],
    cols: &'s mut [ColIdx],
    vals: &'s mut [Value],
    rows: usize,
    len: usize,
}

impl RowSink<'_> {
    /// Extracts `acc` (ascending columns) as the chunk's next output row
    /// and resets it.
    #[inline]
    pub fn push_row<A: Accumulator>(&mut self, acc: &mut A) {
        self.push_labelled_row(acc, &SameLabels);
    }

    /// [`RowSink::push_row`] for an accumulator keyed on ids other than the
    /// output's column labels: the row is emitted under `labels`, ascending
    /// in them.
    #[inline]
    pub fn push_labelled_row<A: Accumulator, L: LabelMap>(&mut self, acc: &mut A, labels: &L) {
        let n = acc.extract_labelled_into(
            labels,
            &mut self.cols[self.len..],
            &mut self.vals[self.len..],
        );
        self.row_nnz[self.rows] = n;
        self.rows += 1;
        self.len += n;
    }

    /// [`RowSink::push_row`] for a masked row: extracts the columns of
    /// `admitted` (the slice `acc` was seeded with) that received a product.
    #[inline]
    pub(crate) fn push_masked_row<M: MaskAccumulator>(&mut self, acc: &mut M, admitted: &[ColIdx]) {
        let n = acc.extract_into(admitted, &mut self.cols[self.len..], &mut self.vals[self.len..]);
        self.row_nnz[self.rows] = n;
        self.rows += 1;
        self.len += n;
    }
}

/// Runs `fill` once per chunk — in parallel on the pool when there is more
/// than one — and assembles the `nrows × ncols` product.
///
/// `chunks` must tile the rows `0..nrows` in order. `fill(state, units,
/// sink)` must push exactly one row per output row of `units`, in order;
/// `state` is per-worker scratch built by `init` (accumulators), reused
/// across the chunks a worker runs. Because chunk boundaries only decide
/// *where* a row is computed, never the order of its partial products, the
/// result does not depend on the chunking or the pool width.
///
/// `row_map` says where each computed row goes: the `r`-th row pushed
/// becomes row `row_map.old_of(r)` of the result (`None`: row `r`). A
/// kernel run over `P·A` with `Some(&P)` therefore returns its rows in
/// `A`'s order, at no cost beyond the pack step every product pays.
///
/// # Panics
///
/// Panics if `row_map` does not have `nrows` entries.
pub fn single_pass<S, I, F>(
    nrows: usize,
    ncols: usize,
    chunks: &[Chunk],
    row_map: Option<&Permutation>,
    init: I,
    fill: F,
) -> CsrMatrix
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>, &mut RowSink<'_>) + Sync,
{
    if let Some(map) = row_map {
        assert_eq!(map.len(), nrows, "row map must cover every output row");
    }
    let cap: usize = chunks.iter().map(|c| c.out_bound).sum();
    // row_ptr[r + 1] holds the nnz of the r-th row pushed until the pack
    // step turns sizes into offsets.
    let mut row_ptr = vec![0usize; nrows + 1];
    let mut staging = Staging::take(cap);

    let mut jobs: Vec<(Range<usize>, RowSink<'_>)> = Vec::with_capacity(chunks.len());
    {
        let mut rest_n: &mut [usize] = &mut row_ptr[1..];
        let mut rest_c: &mut [ColIdx] = &mut staging.cols;
        let mut rest_v: &mut [Value] = &mut staging.vals;
        for chunk in chunks {
            let (n_here, n_rest) = rest_n.split_at_mut(chunk.rows.len());
            let (c_here, c_rest) = rest_c.split_at_mut(chunk.out_bound);
            let (v_here, v_rest) = rest_v.split_at_mut(chunk.out_bound);
            rest_n = n_rest;
            rest_c = c_rest;
            rest_v = v_rest;
            let sink = RowSink { row_nnz: n_here, cols: c_here, vals: v_here, rows: 0, len: 0 };
            jobs.push((chunk.units.clone(), sink));
        }
        assert!(rest_n.is_empty(), "chunks must cover every output row");
    }

    jobs.par_iter_mut().for_each_init(
        || OwnLines(init()),
        |state, (units, sink)| {
            fill(&mut state.0, units.clone(), sink);
            assert_eq!(sink.rows, sink.row_nnz.len(), "kernel must push one row per output row");
        },
    );
    let written: Vec<usize> = jobs.iter().map(|(_, sink)| sink.len).collect();
    drop(jobs);

    // nnz(C) is known: pack the windows into exact-size arrays. This is the
    // one copy out of staging, so it is also where rows go to their final
    // place.
    let total: usize = written.iter().sum();
    let (col_idx, vals) = match row_map {
        // Rows stay in place: every window is one run of the result.
        None => {
            let mut col_idx = Vec::with_capacity(total);
            let mut vals = Vec::with_capacity(total);
            let mut window = 0usize;
            for (chunk, len) in chunks.iter().zip(written) {
                col_idx.extend_from_slice(&staging.cols[window..window + len]);
                vals.extend_from_slice(&staging.vals[window..window + len]);
                window += chunk.out_bound;
            }
            prefix_sum(&mut row_ptr);
            (col_idx, vals)
        }
        // Rows move: offsets come from the sizes in output order, then each
        // row is copied to its own. (Per-row copies into zeroed arrays cost
        // ×1.5 of the bulk arm on a 13 MB product whose rows do not move —
        // 1.7 ms against 1.1 ms — which is why that arm is kept.)
        Some(map) => {
            let mut out_ptr = vec![0usize; nrows + 1];
            for (r, &n) in row_ptr[1..].iter().enumerate() {
                out_ptr[map.old_of(r) + 1] = n;
            }
            prefix_sum(&mut out_ptr);
            let mut col_idx = vec![0; total];
            let mut vals = vec![0.0; total];
            let mut window = 0usize;
            for chunk in chunks {
                let mut src = window;
                for r in chunk.rows.clone() {
                    let n = row_ptr[r + 1];
                    let dst = out_ptr[map.old_of(r)];
                    col_idx[dst..dst + n].copy_from_slice(&staging.cols[src..src + n]);
                    vals[dst..dst + n].copy_from_slice(&staging.vals[src..src + n]);
                    src += n;
                }
                window += chunk.out_bound;
            }
            row_ptr = out_ptr;
            (col_idx, vals)
        }
    };
    staging.give_back();
    CsrMatrix { nrows, ncols, row_ptr, col_idx, vals }
}

/// Turns per-row sizes stored at `ptr[1..]` into CSR row offsets.
fn prefix_sum(ptr: &mut [usize]) {
    for i in 1..ptr.len() {
        ptr[i] += ptr[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::HashAccumulator;

    #[test]
    fn balanced_ranges_cover_all_units() {
        let flops = vec![5u64, 0, 100, 3, 3, 3, 50, 0, 0, 1];
        let ranges = balanced_ranges(&flops, 4);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, flops.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
        }
        assert!(ranges.len() <= 5);
    }

    #[test]
    fn balanced_ranges_empty_input() {
        assert!(balanced_ranges(&[], 4).is_empty());
    }

    #[test]
    fn a_target_of_one_is_one_range() {
        // The serial path relies on it: one chunk runs inline on the caller.
        assert_eq!(balanced_ranges(&[5, 0, 100, 3], 1), vec![(0, 4)]);
        assert_eq!(balanced_ranges(&[0, 0], 0), vec![(0, 2)]);
    }

    #[test]
    fn row_chunks_cap_the_bound_at_ncols() {
        let chunks = plan_row_chunks(&[3, 0, 100, 7], 10, 1);
        assert_eq!(chunks, vec![Chunk { units: 0..4, rows: 0..4, out_bound: 3 + 10 + 7 }]);
    }

    #[test]
    fn unit_chunks_map_units_to_rows() {
        // Three units of 2, 1 and 3 rows.
        let first_row = [0usize, 2, 3, 6];
        let chunks = plan_chunks(&[10, 10, 10], 3, |u| first_row[u], |u| 4 * (u + 1));
        let rows: Vec<_> = chunks.iter().map(|c| c.rows.clone()).collect();
        assert_eq!(rows.first().unwrap().start, 0);
        assert_eq!(rows.last().unwrap().end, 6);
        assert_eq!(chunks.iter().map(|c| c.out_bound).sum::<usize>(), 4 + 8 + 12);
    }

    #[test]
    fn windows_are_packed_into_exact_size_arrays() {
        // Rows of 2, 0, 1, 3 entries in windows bounded at 5 each: every
        // chunk after the first lands left of where its window began.
        let nnz = [2usize, 0, 1, 3];
        let chunks: Vec<Chunk> =
            (0..4).map(|i| Chunk { units: i..i + 1, rows: i..i + 1, out_bound: 5 }).collect();
        let c = single_pass(4, 8, &chunks, None, HashAccumulator::new, |acc, rows, sink| {
            for i in rows {
                for j in 0..nnz[i] {
                    acc.add(j as ColIdx, (10 * i + j) as Value);
                }
                sink.push_row(acc);
            }
        });
        c.validate().unwrap();
        assert_eq!(c.row_ptr, vec![0, 2, 2, 3, 6]);
        assert_eq!(c.col_idx, vec![0, 1, 0, 0, 1, 2]);
        assert_eq!(c.vals, vec![0.0, 1.0, 20.0, 30.0, 31.0, 32.0]);
        assert_eq!(c.col_idx.capacity(), 6);
        assert_eq!(c.vals.capacity(), 6);
    }

    /// Four rows in two chunks; row `i` holds `nnz[i]` entries `(j, 10·i + j)`.
    fn mapped(nnz: [usize; 4], row_map: Option<&Permutation>) -> CsrMatrix {
        let chunks: Vec<Chunk> = (0..2)
            .map(|c| Chunk { units: 2 * c..2 * c + 2, rows: 2 * c..2 * c + 2, out_bound: 8 })
            .collect();
        let c = single_pass(4, 8, &chunks, row_map, HashAccumulator::new, |acc, rows, sink| {
            for i in rows {
                for j in 0..nnz[i] {
                    acc.add(j as ColIdx, (10 * i + j) as Value);
                }
                sink.push_row(acc);
            }
        });
        c.validate().unwrap();
        c
    }

    #[test]
    fn a_row_map_places_rows_across_chunk_boundaries() {
        // The last computed row (second chunk) comes out first, and the
        // first chunk's rows end up on either side of the other chunk's.
        let map = Permutation::from_new_to_old(vec![1, 3, 2, 0]).unwrap();
        let c = mapped([2, 1, 3, 1], Some(&map));
        assert_eq!(c.row_ptr, vec![0, 1, 3, 6, 7]);
        assert_eq!(c.col_idx, vec![0, 0, 1, 0, 1, 2, 0]);
        assert_eq!(c.vals, vec![30.0, 0.0, 1.0, 20.0, 21.0, 22.0, 10.0]);
        assert_eq!((c.col_idx.capacity(), c.vals.capacity()), (7, 7));
        // It is the unmapped product with its rows moved.
        assert!(c.bits_eq(&map.inverse().permute_rows(&mapped([2, 1, 3, 1], None))));
    }

    #[test]
    fn a_row_map_moves_empty_rows_at_both_ends() {
        // Computed rows 0 and 3 are empty; they land in the middle, and the
        // result's first and last rows are the non-empty ones.
        let map = Permutation::from_new_to_old(vec![2, 0, 3, 1]).unwrap();
        let c = mapped([0, 2, 1, 0], Some(&map));
        assert_eq!(c.row_ptr, vec![0, 2, 2, 2, 3]);
        assert_eq!(c.vals, vec![10.0, 11.0, 20.0]);
        // And the other way round: empty rows moved to both ends.
        let map = Permutation::from_new_to_old(vec![1, 0, 3, 2]).unwrap();
        let c = mapped([2, 0, 0, 1], Some(&map));
        assert_eq!(c.row_ptr, vec![0, 0, 2, 3, 3]);
        assert_eq!(c.vals, vec![0.0, 1.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "row map must cover every output row")]
    fn a_row_map_of_the_wrong_length_is_caught() {
        let _ = mapped([1, 1, 1, 1], Some(&Permutation::identity(3)));
    }

    #[test]
    fn stale_staging_does_not_leak_into_the_next_product() {
        // A product that fills its windows, then one with the same windows
        // that writes less: the second must not see the first's entries.
        let run = |per_row: usize| {
            let chunks: Vec<Chunk> =
                (0..3).map(|i| Chunk { units: i..i + 1, rows: i..i + 1, out_bound: 4 }).collect();
            single_pass(3, 4, &chunks, None, HashAccumulator::new, |acc, rows, sink| {
                for i in rows {
                    for j in 0..per_row {
                        acc.add(j as ColIdx, (i + 1) as Value);
                    }
                    sink.push_row(acc);
                }
            })
        };
        assert_eq!(run(4).nnz(), 12);
        let c = run(1);
        c.validate().unwrap();
        assert_eq!(c.row_ptr, vec![0, 1, 2, 3]);
        assert_eq!(c.col_idx, vec![0, 0, 0]);
        assert_eq!(c.vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn the_pool_keeps_a_bounded_number_of_bounded_slabs() {
        let slab = |cap| Staging { cols: vec![0; cap], vals: vec![0.0; cap] };
        for _ in 0..2 * MAX_POOLED {
            slab(16).give_back();
        }
        slab(MAX_POOLED_ENTRIES + 1).give_back();
        let pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(pool.len() <= MAX_POOLED);
        assert!(pool.iter().all(|s| s.cols.len() <= MAX_POOLED_ENTRIES));
    }

    #[test]
    fn no_chunks_gives_an_empty_product() {
        let c = single_pass(0, 3, &[], None, HashAccumulator::new, |_, _, _| {});
        assert_eq!((c.nrows, c.ncols, c.nnz()), (0, 3, 0));
        c.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "one row per output row")]
    fn a_kernel_that_skips_a_row_is_caught() {
        let chunks = [Chunk { units: 0..1, rows: 0..2, out_bound: 0 }];
        let _ = single_pass(2, 2, &chunks, None, HashAccumulator::new, |acc, _, sink| {
            sink.push_row(acc);
        });
    }
}
