//! Cluster-wise SpGEMM (paper Algorithm 1).
//!
//! The loop structure — and the whole point of the format — differs from
//! row-wise Gustavson in *when* a `B` row is visited: once per **cluster**
//! that references its column, not once per row. While the `B` row is hot,
//! the kernel applies it to every member row of the cluster (the blue lines
//! of Alg. 1):
//!
//! ```text
//! for each cluster a_i∗ of A            (parallel)
//!   for each union column k of the cluster
//!     for each b_kj in row b_k∗         (B row streamed once)
//!       for each member row l with a_lk ≠ 0
//!         c_lj += a_lk · b_kj
//! ```
//!
//! # One accumulator per cluster: lanes
//!
//! The member rows of a cluster share one accumulator. Each output column
//! the cluster touches gets a *lane* — one value slot per member row, a
//! cache line of [`MAX_CLUSTER_LEN`] `f64`s — and a `u8` mask of the members
//! that received a product there, both kept in first-touch order. A
//! per-worker map takes a column to its lane: a `u32` per output column
//! where [`AccumulatorKind::resolve`] allows Dense at the product's width
//! (`u32::MAX` = no lane yet), else an open-addressing table (Hash; the same
//! bits). So one `b_kj` costs one map lookup however many members it feeds,
//! and the accumulator is as wide as one row-wise accumulator, not eight.
//!
//! * A union column every member holds (a *full* mask) runs a loop
//!   monomorphised on the cluster length `K ∈ 1..=8`:
//!   `lane[r] += a_rk · b_kj` for `r < K`, no mask test. Any other column
//!   walks its mask bit by bit, since a padding slot's `0.0` must not reach a
//!   lane (`0 · ∞` is a NaN, `-0.0 + 0.0` is `+0.0`).
//! * A lane is born at `-0.0`, which the first product leaves unchanged to
//!   the bit (as the dense row-wise accumulator parks its slots).
//! * Union columns are visited in ascending `k`, so every output entry sums
//!   its partial products in the order row-wise Gustavson does: the product
//!   is bit-identical to [`cw_spgemm::spgemm_serial`].
//! * Extraction sorts the cluster's touched columns *once* (by output label)
//!   and emits each member by a masked sweep of that order. The member view
//!   is an [`Accumulator`], so rows reach [`cw_spgemm::single_pass::RowSink`]
//!   under any [`LabelMap`] exactly as row-wise rows do.
//!
//! Sizing, FLOP-balanced chunking (of *clusters*), the parallel fan-out and
//! output assembly are `cw_spgemm::single_pass`'s: a cluster's member rows
//! are extracted straight into the output once, and nothing is accumulated
//! twice to learn a size.

use crate::format::{CsrCluster, MAX_CLUSTER_LEN};
use cw_sparse::{ColIdx, CsrMatrix, Permutation, Value};
use cw_spgemm::accumulator::{Accumulator, AccumulatorKind, LabelMap, SameLabels};
use cw_spgemm::rowwise::{CsrRows, SpGemmOptions};
use cw_spgemm::single_pass::{chunk_target, plan_chunks, single_pass};
use rayon::prelude::*;

/// No lane yet (map entry) / free slot (hash table key).
const EMPTY: u32 = u32::MAX;

/// `C = A · B` where `A` is stored in `CSR_Cluster` form. Default options
/// (hash accumulator, parallel).
pub fn clusterwise_spgemm(ac: &CsrCluster, b: &CsrMatrix) -> CsrMatrix {
    clusterwise_spgemm_with(ac, b, &SpGemmOptions::default())
}

/// [`clusterwise_spgemm`] with explicit accumulator/parallelism options.
/// Rows come back in `ac`'s row order.
///
/// # Panics
///
/// Panics on a dimension mismatch.
pub fn clusterwise_spgemm_with(ac: &CsrCluster, b: &CsrMatrix, opts: &SpGemmOptions) -> CsrMatrix {
    clusterwise_spgemm_labelled(ac.into(), b.into(), opts, None, &SameLabels)
}

/// The arrays of a [`CsrCluster`] as the kernel reads them. Like
/// [`CsrRows`], the union ids need not be the format's own: a cluster's ids
/// are the `B` rows it streams, in the order its partial products are
/// accumulated, so ids relabelled in place (no longer ascending) are valid.
#[derive(Debug, Clone, Copy)]
pub struct ClusterRows<'a> {
    /// Number of member rows over all clusters.
    pub nrows: usize,
    /// Number of columns (every id is below it).
    pub ncols: usize,
    /// Offsets into `ids` / `masks` per cluster (`nclusters + 1`).
    pub cluster_ptr: &'a [usize],
    /// Union ids, cluster by cluster.
    pub ids: &'a [ColIdx],
    /// Member-presence bitmask per union id.
    pub masks: &'a [u8],
    /// Offsets into `vals` per cluster (`nclusters + 1`).
    pub val_ptr: &'a [usize],
    /// Column-major (within cluster) value slots, `0.0` where a mask bit is
    /// clear.
    pub vals: &'a [Value],
    /// First row per cluster plus sentinel (`nclusters + 1`).
    pub row_start: &'a [u32],
}

impl<'a> From<&'a CsrCluster> for ClusterRows<'a> {
    fn from(cc: &'a CsrCluster) -> Self {
        ClusterRows {
            nrows: cc.nrows,
            ncols: cc.ncols,
            cluster_ptr: &cc.cluster_ptr,
            ids: &cc.col_ids,
            masks: &cc.masks,
            val_ptr: &cc.val_ptr,
            vals: &cc.vals,
            row_start: &cc.row_start,
        }
    }
}

impl<'a> ClusterRows<'a> {
    /// Number of clusters.
    #[inline]
    pub fn nclusters(&self) -> usize {
        self.cluster_ptr.len() - 1
    }

    /// Rows in cluster `c`.
    #[inline]
    pub fn cluster_size(&self, c: usize) -> usize {
        (self.row_start[c + 1] - self.row_start[c]) as usize
    }

    /// `(ids, masks, vals)` of cluster `c`: the value of member `r` at
    /// union position `p` is `vals[p · K + r]`.
    #[inline]
    pub fn cluster(&self, c: usize) -> (&'a [ColIdx], &'a [u8], &'a [Value]) {
        let (lo, hi) = (self.cluster_ptr[c], self.cluster_ptr[c + 1]);
        (&self.ids[lo..hi], &self.masks[lo..hi], &self.vals[self.val_ptr[c]..self.val_ptr[c + 1]])
    }
}

/// [`clusterwise_spgemm_with`] in a label space of the caller's choosing,
/// as [`cw_spgemm::spgemm_labelled`] is for row-wise: `a`'s union ids index
/// `b`'s rows, and entry `(i, j)` of the product is emitted as
/// `(row_map.old_of(i), labels.label(j))`, each row ascending in its labels.
/// Every output entry sums its partial products in the order cluster `a`
/// lists its union ids.
///
/// The engine's two-sided clustered plans are this with `a` = the clusters
/// of `P·A₀` (union ids relabelled through `P⁻¹`, left in `A₀`'s ascending
/// order), `b` = the rows of `P·A₀` relabelled the same way, and
/// `row_map = labels = P`: the result is `A₀ · A₀` bit for bit.
///
/// # Panics
///
/// Panics on a dimension mismatch, or if `row_map` does not have one entry
/// per row of `a`.
pub fn clusterwise_spgemm_labelled<L: LabelMap>(
    a: ClusterRows<'_>,
    b: CsrRows<'_>,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
    labels: &L,
) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: clustered A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    // One column → lane map per worker, `b.ncols` wide where a row-wise
    // dense accumulator of that width would fit, hashed otherwise.
    let kernel = match opts.acc.resolve(b.ncols) {
        AccumulatorKind::Dense => lane_kernel::<DenseSlots, L>,
        AccumulatorKind::Hash => lane_kernel::<HashSlots, L>,
    };
    kernel(a, b, opts, row_map, labels)
}

/// Column → lane index of one worker: `slot(col, fresh)` returns `col`'s
/// lane, assigning it `fresh` when it has none.
trait SlotMap: Send {
    fn with_ncols(ncols: usize) -> Self;
    fn slot(&mut self, col: ColIdx, fresh: u32) -> u32;
    /// Forgets every lane; `cols` are the columns that have one.
    fn clear(&mut self, cols: &[ColIdx]);
}

/// One `u32` per output column.
struct DenseSlots(Vec<u32>);

impl SlotMap for DenseSlots {
    fn with_ncols(ncols: usize) -> Self {
        DenseSlots(vec![EMPTY; ncols])
    }

    #[inline(always)]
    fn slot(&mut self, col: ColIdx, fresh: u32) -> u32 {
        // Branch-free: half of a cluster's lookups are first touches.
        let entry = &mut self.0[col as usize];
        let s = if *entry == EMPTY { fresh } else { *entry };
        *entry = s;
        s
    }

    fn clear(&mut self, cols: &[ColIdx]) {
        for &c in cols {
            self.0[c as usize] = EMPTY;
        }
    }
}

/// Open addressing (linear probing) on column ids, for widths Dense does
/// not fit. Grows at half load; `used` lists the occupied positions.
struct HashSlots {
    keys: Vec<u32>,
    slots: Vec<u32>,
    used: Vec<u32>,
    mask: usize,
}

impl HashSlots {
    #[inline(always)]
    fn home(col: ColIdx, mask: usize) -> usize {
        (col.wrapping_mul(0x9E37_79B9) as usize) & mask
    }

    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let mask = cap - 1;
        let (mut keys, mut slots) = (vec![EMPTY; cap], vec![0; cap]);
        for pos in &mut self.used {
            let (key, slot) = (self.keys[*pos as usize], self.slots[*pos as usize]);
            let mut h = Self::home(key, mask);
            while keys[h] != EMPTY {
                h = (h + 1) & mask;
            }
            (keys[h], slots[h]) = (key, slot);
            *pos = h as u32;
        }
        (self.keys, self.slots, self.mask) = (keys, slots, mask);
    }
}

impl SlotMap for HashSlots {
    fn with_ncols(_ncols: usize) -> Self {
        HashSlots { keys: vec![EMPTY; 64], slots: vec![0; 64], used: Vec::new(), mask: 63 }
    }

    #[inline]
    fn slot(&mut self, col: ColIdx, fresh: u32) -> u32 {
        if self.used.len() * 2 >= self.keys.len() {
            self.grow();
        }
        let mut h = Self::home(col, self.mask);
        loop {
            let k = self.keys[h];
            if k == col {
                return self.slots[h];
            }
            if k == EMPTY {
                (self.keys[h], self.slots[h]) = (col, fresh);
                self.used.push(h as u32);
                return fresh;
            }
            h = (h + 1) & self.mask;
        }
    }

    fn clear(&mut self, _cols: &[ColIdx]) {
        for &pos in &self.used {
            self.keys[pos as usize] = EMPTY;
        }
        self.used.clear();
    }
}

/// One output column's value slots, one per member row, on a cache line of
/// their own.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Lane([Value; MAX_CLUSTER_LEN]);

/// A lane before any product: `-0.0 + v` is `v` to the bit.
const PARKED: Lane = Lane([-0.0; MAX_CLUSTER_LEN]);

/// Clusters touching at most this many output columns order them by rank
/// rather than by a comparison sort (as short row-wise rows are emitted).
const SHORT_UNION: usize = 32;

/// The per-worker accumulator of the cluster being computed (module docs),
/// and — through `member` — the [`Accumulator`] view of one of its rows.
///
/// The cluster's lanes are the first `used` of `cols` / `lanes` /
/// `members`, which always have room for one more: a lookup writes the
/// next lane's column unconditionally and counts it only when it was a
/// first touch, with no branch. Past `used` every lane is parked and every
/// member mask zero.
struct Lanes<M> {
    map: M,
    /// Column of each lane, in first-touch order.
    cols: Vec<ColIdx>,
    lanes: Vec<Lane>,
    /// Members with a product in each lane.
    members: Vec<u8>,
    /// Lanes of the current cluster.
    used: usize,
    /// `label << 32 | lane` per lane, ascending: built by the cluster's
    /// first extraction, swept by every member's.
    order: Vec<u64>,
    /// Members with entries not extracted yet; at zero the cluster is reset.
    /// A member outside it has no entries, whatever `members` still says.
    live: u8,
    /// The member row `add` / `len` / extraction act on.
    member: usize,
}

impl<M: SlotMap> Lanes<M> {
    /// Makes room for `extra` more lanes (and the spare one).
    #[inline]
    fn reserve(&mut self, extra: usize) {
        let need = self.used + extra + 1;
        if self.cols.len() < need {
            let len = need.max(2 * self.cols.len());
            self.cols.resize(len, 0);
            self.lanes.resize(len, PARKED);
            self.members.resize(len, 0);
        }
    }

    /// The lane of `col`, the next (parked) one on first touch. Needs room
    /// for one more lane ([`Lanes::reserve`]).
    #[inline(always)]
    fn lane(&mut self, col: ColIdx) -> usize {
        let fresh = self.used as u32;
        let s = self.map.slot(col, fresh);
        self.cols[self.used] = col;
        self.used += (s == fresh) as usize;
        s as usize
    }

    /// Drops member `r`'s entries from every lane (parking its slots).
    fn forget(&mut self, r: usize) {
        let used = self.used;
        for (lane, m) in self.lanes[..used].iter_mut().zip(&mut self.members[..used]) {
            lane.0[r] = -0.0;
            *m &= !(1 << r);
        }
    }

    /// Sorts the lanes by output label into `order`: by rank up to
    /// [`SHORT_UNION`] lanes (the count of labels below each one, a
    /// branch-free loop that vectorises), natively past it.
    fn sort_lanes<L: LabelMap>(&mut self, labels: &L) {
        let (n, cols) = (self.used, &self.cols[..self.used]);
        let packed = |s: usize, label: ColIdx| (label as u64) << 32 | s as u64;
        if n > SHORT_UNION {
            self.order.extend(cols.iter().enumerate().map(|(s, &c)| packed(s, labels.label(c))));
            self.order.sort_unstable();
            return;
        }
        // Each label is compared with whole groups of eight (the slots past
        // `n` are never read back), so the branch-free compares vectorise.
        let mut keys = [0; SHORT_UNION];
        for (key, &c) in keys.iter_mut().zip(cols) {
            *key = labels.label(c);
        }
        let width = n.next_multiple_of(8);
        let mut rank = [0u32; SHORT_UNION];
        for &key in &keys[..n] {
            for (r, &k) in rank[..width].iter_mut().zip(&keys[..width]) {
                *r += (key < k) as u32;
            }
        }
        self.order.resize(n, 0);
        for (s, (&key, &r)) in keys[..n].iter().zip(&rank).enumerate() {
            self.order[r as usize] = packed(s, key);
        }
    }

    /// Forgets the cluster: every lane, its column and the extraction order.
    fn reset(&mut self) {
        let used = self.used;
        if used == 0 {
            // Nothing to forget; and a zero-length fill of a buffer never
            // allocated measured ≈ 130 ns, once per member of an empty cluster.
            self.live = 0;
            return;
        }
        self.map.clear(&self.cols[..used]);
        self.lanes[..used].fill(PARKED);
        self.members[..used].fill(0);
        self.order.clear();
        self.used = 0;
        self.live = 0;
    }
}

impl<M: SlotMap> Accumulator for Lanes<M> {
    fn with_ncols(ncols: usize) -> Self {
        Lanes {
            map: M::with_ncols(ncols),
            cols: Vec::new(),
            lanes: Vec::new(),
            members: Vec::new(),
            used: 0,
            order: Vec::new(),
            live: 0,
            member: 0,
        }
    }

    #[inline]
    fn add(&mut self, col: ColIdx, val: Value) {
        let (r, bit) = (self.member, 1u8 << self.member);
        if self.live & bit == 0 {
            // What an earlier extraction of this member left behind.
            self.forget(r);
        }
        self.reserve(1);
        let s = self.lane(col);
        self.lanes[s].0[r] += val;
        self.members[s] |= bit;
        self.live |= bit;
        // A new lane would be missing from an order already built.
        self.order.clear();
    }

    fn len(&self) -> usize {
        let bit = 1 << self.member;
        if self.live & bit == 0 {
            return 0;
        }
        self.members[..self.used].iter().filter(|&&m| m & bit != 0).count()
    }

    fn extract_into(&mut self, cols: &mut [ColIdx], vals: &mut [Value]) -> usize {
        self.extract_labelled_into(&SameLabels, cols, vals)
    }

    /// Emits the current member's entries. Every member of one cluster is
    /// extracted under the same `labels`: the order the first extraction
    /// sorts serves them all, and the last one resets the lanes.
    fn extract_labelled_into<L: LabelMap>(
        &mut self,
        labels: &L,
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize {
        let (r, bit) = (self.member, 1u8 << self.member);
        let mut n = 0;
        if self.live & bit != 0 {
            if self.order.is_empty() {
                self.sort_lanes(labels);
            }
            let (lanes, members) = (&self.lanes, &self.members);
            let entry = |packed: u64| {
                let s = (packed & 0xFFFF_FFFF) as usize;
                ((packed >> 32) as ColIdx, lanes[s].0[r], (members[s] >> r) & 1 != 0)
            };
            if cols.len() >= self.order.len() && vals.len() >= self.order.len() {
                // Room for every lane: write each one and keep the member's,
                // with no branch on the (often mixed) masks.
                for &packed in &self.order {
                    let (label, val, mine) = entry(packed);
                    cols[n] = label;
                    vals[n] = val;
                    n += mine as usize;
                }
            } else {
                for &packed in &self.order {
                    let (label, val, mine) = entry(packed);
                    if mine {
                        cols[n] = label;
                        vals[n] = val;
                        n += 1;
                    }
                }
            }
            self.live &= !bit;
        }
        if self.live == 0 {
            self.reset();
        }
        n
    }

    fn clear(&mut self) {
        self.forget(self.member);
        self.live &= !(1 << self.member);
        if self.live == 0 {
            self.reset();
        }
    }
}

/// Runs Alg. 1's inner loops for cluster `c` into `lanes`, monomorphised on
/// the cluster length.
#[inline]
fn accumulate_cluster<M: SlotMap>(
    a: ClusterRows<'_>,
    b: CsrRows<'_>,
    c: usize,
    lanes: &mut Lanes<M>,
) {
    match a.cluster_size(c) {
        1 => accumulate_k::<M, 1>(a, b, c, lanes),
        2 => accumulate_k::<M, 2>(a, b, c, lanes),
        3 => accumulate_k::<M, 3>(a, b, c, lanes),
        4 => accumulate_k::<M, 4>(a, b, c, lanes),
        5 => accumulate_k::<M, 5>(a, b, c, lanes),
        6 => accumulate_k::<M, 6>(a, b, c, lanes),
        7 => accumulate_k::<M, 7>(a, b, c, lanes),
        8 => accumulate_k::<M, 8>(a, b, c, lanes),
        k => unreachable!("a cluster of {k} rows exceeds the {MAX_CLUSTER_LEN}-bit mask"),
    }
}

#[inline(always)]
fn accumulate_k<M: SlotMap, const K: usize>(
    a: ClusterRows<'_>,
    b: CsrRows<'_>,
    c: usize,
    lanes: &mut Lanes<M>,
) {
    let full = u8::MAX >> (MAX_CLUSTER_LEN - K);
    let (ids, masks, vals) = a.cluster(c);
    let mut live = 0u8;
    for (p, (&k, &mask)) in ids.iter().zip(masks).enumerate() {
        // Member values at this union column (incl. padding slots).
        let av: &[Value; K] = vals[p * K..(p + 1) * K].try_into().expect("K slots per union id");
        let (b_cols, b_vals) = b.row(k as usize);
        lanes.reserve(b_cols.len());
        live |= mask;
        // Paper Alg. 1 lines 4–7: B entry outer, member rows inner — b_kj
        // stays in a register while it is applied to every member row.
        if mask == full {
            for (&j, &x) in b_cols.iter().zip(b_vals) {
                let s = lanes.lane(j);
                lanes.members[s] = full;
                let lane = &mut lanes.lanes[s].0;
                for r in 0..K {
                    lane[r] += av[r] * x;
                }
            }
        } else {
            for (&j, &x) in b_cols.iter().zip(b_vals) {
                let s = lanes.lane(j);
                lanes.members[s] |= mask;
                let lane = &mut lanes.lanes[s].0;
                let mut m = mask;
                while m != 0 {
                    let r = m.trailing_zeros() as usize;
                    m &= m - 1;
                    lane[r] += av[r] * x;
                }
            }
        }
    }
    // Only members whose union columns hit a non-empty `B` row have lanes.
    if lanes.used != 0 {
        lanes.live |= live;
        lanes.order.clear();
    }
}

/// Per cluster: its multiply-add count (for chunk balancing) and the upper
/// bound on its output entries, `Σ_member rows min(flops(row), ncols(B))`.
/// Computed on the pool, or (`pool == false`) on the calling thread alone —
/// a serial multiply must not wake the pool for it.
fn cluster_work(a: ClusterRows<'_>, b: CsrRows<'_>, pool: bool) -> (Vec<u64>, Vec<usize>) {
    let work = |c: usize| {
        let mut row_flops = [0u64; MAX_CLUSTER_LEN];
        let (ids, masks, _) = a.cluster(c);
        for (&k, &mask) in ids.iter().zip(masks) {
            let n = b.row_nnz(k as usize) as u64;
            let mut m = mask;
            while m != 0 {
                row_flops[m.trailing_zeros() as usize] += n;
                m &= m - 1;
            }
        }
        let row_flops = &row_flops[..a.cluster_size(c)];
        let bound: usize = row_flops.iter().map(|&f| f.min(b.ncols as u64) as usize).sum();
        (row_flops.iter().sum::<u64>(), bound)
    };
    let per_cluster: Vec<(u64, usize)> = if pool {
        (0..a.nclusters()).into_par_iter().map(work).collect()
    } else {
        (0..a.nclusters()).map(work).collect()
    };
    per_cluster.into_iter().unzip()
}

fn lane_kernel<M: SlotMap, L: LabelMap>(
    a: ClusterRows<'_>,
    b: CsrRows<'_>,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
    labels: &L,
) -> CsrMatrix {
    let target = chunk_target(opts.parallel);
    let (flops, bounds) = cluster_work(a, b, target > 1);
    let chunks = plan_chunks(&flops, target, |c| a.row_start[c] as usize, |c| bounds[c]);
    single_pass(
        a.nrows,
        b.ncols,
        &chunks,
        row_map,
        || Lanes::<M>::with_ncols(b.ncols),
        |lanes, clusters, sink| {
            for c in clusters {
                accumulate_cluster(a, b, c, lanes);
                for r in 0..a.cluster_size(c) {
                    lanes.member = r;
                    sink.push_labelled_row(lanes, labels);
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::format::Clustering;
    use crate::{fixed_clustering, hierarchical_clustering, variable_clustering};
    use cw_sparse::gen::banded::{block_diagonal, grouped_rows};
    use cw_sparse::gen::er::{erdos_renyi, erdos_renyi_rect};
    use cw_sparse::gen::grid::poisson2d;
    use cw_spgemm::rowwise::{spgemm_serial, SpGemmOptions};
    use cw_spgemm::AccumulatorKind;

    fn assert_matches_rowwise(a: &CsrMatrix, clustering: &Clustering) {
        let cc = CsrCluster::from_csr(a, clustering);
        cc.validate().unwrap();
        let expect = spgemm_serial(a, a);
        for parallel in [false, true] {
            for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
                let got = clusterwise_spgemm_with(&cc, a, &SpGemmOptions { acc, parallel });
                assert!(got.bits_eq(&expect), "mismatch acc={acc:?} parallel={parallel}");
            }
        }
    }

    #[test]
    fn fig1_matrix_fixed_clusters_match_rowwise() {
        let a = CsrMatrix::from_row_lists(
            6,
            vec![
                vec![(0, 1.0), (1, 2.0), (2, 3.0)],
                vec![(1, 4.0), (2, 5.0), (5, 6.0)],
                vec![(0, 7.0), (1, 8.0), (5, 9.0)],
                vec![(3, 10.0), (4, 11.0), (5, 12.0)],
                vec![(2, 13.0), (4, 14.0), (5, 15.0)],
                vec![(0, 16.0), (3, 17.0)],
            ],
        );
        assert_matches_rowwise(&a, &Clustering { sizes: vec![3, 3] });
        assert_matches_rowwise(&a, &Clustering { sizes: vec![3, 2, 1] });
        assert_matches_rowwise(&a, &Clustering { sizes: vec![1; 6] });
        assert_matches_rowwise(&a, &Clustering { sizes: vec![6] });
    }

    #[test]
    fn poisson_squared_all_cluster_lengths() {
        let a = poisson2d(9, 7);
        for k in 1..=MAX_CLUSTER_LEN {
            assert_matches_rowwise(&a, &fixed_clustering(&a, k));
        }
    }

    #[test]
    fn variable_clustering_correctness() {
        let a = grouped_rows(80, 5, 7, 2);
        let c = variable_clustering(&a, &ClusterConfig::default());
        assert_matches_rowwise(&a, &c);
    }

    #[test]
    fn hierarchical_pipeline_correctness_a_squared() {
        let a = block_diagonal(60, (3, 7), 0.15, 5);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        let (cc, pa) = h.build_symmetric(&a);
        let got = clusterwise_spgemm(&cc, &pa);
        // Reference: row-wise SpGEMM on the permuted matrix.
        let expect = spgemm_serial(&pa, &pa);
        assert!(got.bits_eq(&expect));
        // And the permuted product equals the permutation of the product.
        let c_orig = spgemm_serial(&a, &a);
        let expect2 = h.perm.permute_symmetric(&c_orig);
        assert!(got.numerically_eq(&expect2, 1e-9));
    }

    #[test]
    fn rectangular_tall_skinny_b() {
        let a = erdos_renyi(50, 6, 3);
        let b = erdos_renyi_rect(50, 12, 2, 4);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 4));
        let got = clusterwise_spgemm(&cc, &b);
        let expect = spgemm_serial(&a, &b);
        assert!(got.bits_eq(&expect));
        assert_eq!(got.ncols, 12);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::zeros(5, 5);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 2));
        let got = clusterwise_spgemm(&cc, &a);
        assert_eq!(got.nnz(), 0);
        assert_eq!(got.nrows, 5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(4, 4);
        let b = CsrMatrix::zeros(5, 4);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 2));
        let _ = clusterwise_spgemm(&cc, &b);
    }

    #[test]
    fn cluster_work_counts_real_entries_only() {
        // Padding slots must not contribute flops.
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![3] });
        let b = CsrMatrix::identity(3);
        assert_eq!(cluster_work((&cc).into(), (&b).into(), false), (vec![3], vec![3]));
    }

    #[test]
    fn cluster_work_caps_each_member_row_at_ncols() {
        // Row 0 collects 2 + 2 products into a 2-column output; row 1 has one.
        let a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)], vec![(1, 1.0)]]);
        let b = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)]; 2]);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![2] });
        assert_eq!(cluster_work((&cc).into(), (&b).into(), true), (vec![6], vec![2 + 2]));
    }

    #[test]
    fn the_hashed_map_grows_and_matches_the_dense_one() {
        // A cluster touching 300 columns: the hashed map grows several times
        // inside one cluster, and both maps come back clean for the next.
        let a = erdos_renyi(300, 40, 9);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 8));
        let expect = spgemm_serial(&a, &a);
        for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
            let opts = SpGemmOptions { acc, parallel: false };
            assert!(clusterwise_spgemm_with(&cc, &a, &opts).bits_eq(&expect), "{acc:?}");
        }
    }

    #[test]
    fn a_member_view_is_an_accumulator() {
        // Members 0 and 2 add through the view; each extracts its own row,
        // sorted, with its slots parked, and the last one resets the lanes.
        let mut lanes = Lanes::<DenseSlots>::with_ncols(8);
        for (member, terms) in
            [(0, [(5, 1.0), (2, -0.0), (5, 2.0)]), (2, [(7, 4.0), (5, 8.0), (0, 1.0)])]
        {
            lanes.member = member;
            terms.iter().for_each(|&(c, v)| lanes.add(c, v));
        }
        assert_eq!(lanes.len(), 3);
        let (mut cols, mut vals) = ([0; 8], [0.0; 8]);
        lanes.member = 0;
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes.extract_into(&mut cols, &mut vals), 2);
        assert_eq!(
            (&cols[..2], vals[0].to_bits(), vals[1]),
            (&[2, 5][..], (-0.0f64).to_bits(), 3.0)
        );
        lanes.member = 1;
        assert_eq!(lanes.extract_into(&mut cols, &mut vals), 0);
        lanes.member = 2;
        assert_eq!(lanes.extract_into(&mut cols, &mut vals), 3);
        assert_eq!((&cols[..3], &vals[..3]), (&[0, 5, 7][..], &[1.0, 8.0, 4.0][..]));
        assert!(lanes.used == 0 && lanes.map.0.iter().all(|&s| s == EMPTY));
    }
}
