//! Execution: *how* a prepared plan runs.
//!
//! A [`Plan`] says *what* to compute (row order × output shape) and, in
//! [`Plan::parallel`], whether the kernel runs on the rayon pool; the kernel
//! picks its accumulator by footprint
//! ([`cw_spgemm::AccumulatorKind::resolve`]). `parallel: false` is the
//! serial oracle every cross-validation suite compares against: because
//! the kernel accumulates an output entry in ascending-`k` order and
//! extracts sorted columns wherever it runs, the two are bit-identical under
//! otherwise equal plans.
//!
//! Both materialize the same `CpuOperand` (`materialize`) and run through
//! the one `execute` function, which is also where the output shape is
//! applied. There is no trait or registry: a new way to run a kernel earns a
//! `match` arm in `execute` by winning a measurement.
//!
//! # Row-wise and cluster-wise execution
//!
//! The kernel follows the operand, not the plan. After the row order,
//! `materialize` runs Alg. 2's representative scan
//! ([`cw_core::variable_clustering`], default [`ClusterConfig`]) over the
//! reordered rows — about two milliseconds on a few hundred thousand
//! entries — and measures how many member rows share each union column (the
//! *sharing factor*, `nnz / union columns`). Where that clears
//! [`MIN_SHARING_FACTOR`] it keeps the operand in `CSR_Cluster` form too,
//! and `execute` runs the cluster-wise lane kernel
//! ([`cw_core::clusterwise_spgemm_labelled`]): one `B`-row stream per union
//! column instead of one per row. Elsewhere (meshes with one unknown per
//! node, power-law graphs, any masked plan) it runs row-wise Gustavson. Both
//! give the same bits.
//!
//! # One-sided and two-sided execution
//!
//! A plan that moves `A`'s rows by `P` reads them in a cache-friendly
//! order, but against an arbitrary `B` that is all it can do: `B`'s rows
//! and the accumulator's keys stay in the caller's numbering (*one-sided*,
//! `P·A · B`). When `B` **is** the matrix the operand was prepared from —
//! the paper's `A²` protocol — the inner dimension and `C`'s columns can be
//! relabelled by the same `P` for free, because the prepared operand is then
//! also the relabelled `B`: the kernel computes `P·A·Pᵀ · P·A·Pᵀ`
//! (*two-sided*), so consecutive rows touch nearby `B` rows and probe
//! nearby accumulator slots, and each row is translated back to the
//! caller's labels as it is extracted. `materialize` keeps the relabelled
//! ids wherever that can apply and measured a win; `execute` uses them only
//! when its caller has proven `b` is the source. Both arms return the same bits: relabelled
//! ids keep the caller's ascending-`k` order inside every row, so each
//! output entry still sums its partial products in that order.

use crate::plan::{OutputShape, Plan};
use crate::report::StageTimings;
use cw_core::{
    clusterwise_spgemm_labelled, variable_clustering, ClusterConfig, ClusterRows, Clustering,
    CsrCluster,
};
use cw_reorder::Reordering;
use cw_sparse::{ColIdx, CsrMatrix, Permutation};
use cw_spgemm::accumulator::{dense_fits, SameLabels};
use cw_spgemm::rowwise::{spgemm_labelled, spgemm_mapped, CsrRows};
use cw_spgemm::AccumulatorKind;
use std::time::Instant;

/// The materialized left operand: `A`'s rows in the plan's order, the same
/// ids in the permuted label space where two-sided execution can apply, and
/// the rows' clusters where they pay (module docs; [`materialize`] says
/// when).
#[derive(Debug, Clone)]
pub(crate) struct CpuOperand {
    /// `P·A`: rows moved, column ids the caller's.
    pa: CsrMatrix,
    /// `inv[pa.col_idx[p]]` for every stored entry, in `pa`'s order.
    /// With `pa`'s `row_ptr` and `vals` this is `P·A·Pᵀ` — both operands
    /// of a two-sided product — except that a row's ids are in the
    /// caller's ascending order, not their own.
    relabelled: Option<Vec<ColIdx>>,
    /// `pa` in `CSR_Cluster` form, which the lane kernel runs on instead.
    clustered: Option<Clustered>,
}

/// `P·A`'s consecutive rows grouped by Alg. 2, kept because they share
/// columns enough to pay ([`MIN_SHARING_FACTOR`]).
#[derive(Debug, Clone)]
struct Clustered {
    cc: CsrCluster,
    /// `inv[id]` for every union id, parallel to `cc.col_ids`: present
    /// exactly when the operand's own ids are relabelled.
    relabelled: Option<Vec<ColIdx>>,
    /// `nnz / union columns`.
    sharing: f64,
}

impl CpuOperand {
    /// Approximate resident heap footprint in bytes, relabelled ids and
    /// clusters included.
    pub(crate) fn approx_bytes(&self) -> usize {
        let ids = |ids: &Option<Vec<ColIdx>>| ids.as_deref().map_or(0, std::mem::size_of_val);
        let clustered =
            self.clustered.as_ref().map_or(0, |c| c.cc.memory_bytes() + ids(&c.relabelled));
        self.pa.memory_bytes() + ids(&self.relabelled) + clustered
    }

    /// Whether a two-sided product can run on this operand.
    pub(crate) fn is_relabelled(&self) -> bool {
        self.relabelled.is_some()
    }

    /// The clustered form's sharing factor, when the lane kernel runs.
    pub(crate) fn sharing_factor(&self) -> Option<f64> {
        self.clustered.as_ref().map(|c| c.sharing)
    }
}

/// The smallest sharing factor — stored entries per union column of the
/// operand's clusters, i.e. how many member rows one `B`-row stream feeds on
/// average — at which the operand is kept clustered and the lane kernel
/// runs. Below it the lane kernel's own costs (a lane lookup per `B` entry,
/// one sort of each cluster's output columns, a sweep per member) eat what
/// the saved streams win, and the clusters would still cost their memory
/// and their build. Measured as the median of paired per-rep ratios, lane ÷
/// row-wise kernel seconds, both two-sided on the same shuffled operand
/// under RCM (serial / pool of 2, 2-vCPU x86-64, 2 MiB L2 per core; the
/// `lane_lab` example prints the same table): ×1.40–1.46 at 1.00 (meshes),
/// ×1.10–1.12 at 1.01 (power law), ×1.07 / 1.09 at 1.47, ×1.12 / 1.18 at
/// 1.73, ×0.89 / 0.91 at 2.00, ×1.04 / 1.03 at 2.16, ×1.01 / 1.02 at 2.45,
/// ×1.01 / 1.03 at 2.56 — a wash between 2 and 2.6 — then ×0.65–0.81 at
/// 2.88–3.00 (`kron(mesh, J₃)`) and ×0.74 / 0.75 at 4.69
/// (`block_diagonal(40 000, (6, 10))`, the benchmark's `wire-large`).
pub const MIN_SHARING_FACTOR: f64 = 2.75;

/// How far, on average and as a fraction of the matrix order, a relabelled id
/// may sit from the row that holds it for the relabelling to be kept. Two-
/// sided execution wins by walking `B` rows and accumulator keys that are
/// near each other, and pays one label lookup per output entry for it; an
/// order that leaves ids scattered has nothing to win and still pays.
/// Measured (kernel seconds two-sided ÷ one-sided, Hash and Dense, serial
/// and parallel): ×0.53–0.80 on operands at 0.000–0.024 (meshes and block
/// matrices under RCM or the hierarchical sweep), ×1.00–1.06 at 0.117–0.160
/// (power-law graphs under Degree or RCM); a random order reads 0.33.
const MAX_RELABELLED_DISTANCE: f64 = 0.1;

/// Where the kernel runs a dense accumulator at the operand's own width,
/// the smallest operand (bytes of `P·A` as CSR) whose relabelling is kept. A
/// dense accumulator's slots are as near each other as the cache they sit in
/// makes them, so relabelling `C`'s columns buys it nothing until the
/// operand outgrows that cache, while a
/// relabelled preparation still pays: the relabelling pass on every cache
/// miss and, wherever only `b` is in hand (every service and wire request),
/// a fingerprint and full checksum of `b` to prove it is the source. Kernel
/// seconds two-sided ÷ one-sided on shuffled `tri_mesh(s, s)` under RCM
/// (serial / parallel, 2-vCPU x86-64, short rows extracted by rank): 30 KB
/// ×1.00 / 1.00, 69 KB ×1.00 / 1.00, 124 KB ×0.97 / 0.99, 282 KB ×0.92 /
/// 0.93, 504 KB ×0.90 / 0.86, 2.0 MB ×0.79 / 0.82, 4.6 MB ×0.67 / 0.76 —
/// nothing to gain below the floor, and the 30 KB operands of the
/// benchmark's `service-small` served ×1.09 slower end to end without it.
/// The hash accumulator reads ×0.65–0.89 at every one of those sizes
/// (relabelled ids come in near-consecutive runs, which its low-bits hash
/// spreads over distinct slots) and has no floor.
const DENSE_RELABELLED_MIN_BYTES: usize = 128 << 10;

/// Materializes the operand for `plan`: computes and applies the row
/// permutation, relabels the operand's ids for two-sided execution where
/// that can apply, clusters the reordered rows where that pays, and records
/// the stage seconds (the other [`StageTimings`] fields stay zero): the
/// order's in `reorder_seconds`, or in `cluster_seconds` under
/// [`Reordering::Hierarchical`] (whose clusters are not kept: it is a row
/// order like any other), and the cluster scan always in `cluster_seconds`.
///
/// Every plan but the baseline (which prepares nothing) and a masked plan
/// (whose fused kernel is row-wise) scans `P·A` for clusters: Alg. 2 under
/// [`ClusterConfig::default`]. Where the clusters share at least
/// [`MIN_SHARING_FACTOR`] they are kept in `CSR_Cluster` form beside `P·A` —
/// with their union ids relabelled too when the operand's are — and the
/// lane kernel runs on them.
///
/// The relabelled ids (`inv[col]`, each row left in the caller's ascending
/// order) are kept when the operand is square and its rows moved — the
/// only case in which `b` can be the operand itself *and* a relabelling
/// differs from the ids already there — and the order made the operand
/// banded enough to pay ([`MAX_RELABELLED_DISTANCE`]; where the kernel runs
/// a dense accumulator at the operand's width, the operand must also be past
/// [`DENSE_RELABELLED_MIN_BYTES`]); never for a masked plan, whose fused
/// kernel is keyed on the mask's own columns and stays one-sided. One pass
/// over the ids, charged to the order's stage.
///
/// The returned permutation is the applied reordering (`new → old`:
/// kernel row `r` is original row `old_of(r)`), which is exactly the row
/// map — and, two-sided, the label map — [`execute`] needs to hand the
/// product back in the caller's order; `None` when the rows did not move.
pub(crate) fn materialize(
    a: &CsrMatrix,
    plan: &Plan,
    seed: u64,
) -> (CpuOperand, Option<Permutation>, StageTimings) {
    let mut timings = StageTimings::default();
    if !plan.has_preprocessing() {
        return (CpuOperand { pa: a.clone(), relabelled: None, clustered: None }, None, timings);
    }
    let t0 = Instant::now();
    let p = plan.reorder.compute(a, seed);
    let pa = p.permute_rows(a);
    // A permutation that moves nothing needs no row map.
    let row_map = (!p.is_identity()).then_some(p);
    let small_and_dense = dense_fits(a.ncols) && pa.memory_bytes() < DENSE_RELABELLED_MIN_BYTES;
    let inv = row_map
        .as_ref()
        .filter(|_| a.nrows == a.ncols && plan.shape != OutputShape::Masked && !small_and_dense)
        .map(Permutation::inverse_map);
    let relabelled = inv.as_deref().and_then(|inv| relabel_rows(&pa, inv));
    let seconds = t0.elapsed().as_secs_f64();
    if plan.reorder == Reordering::Hierarchical {
        timings.cluster_seconds = seconds;
    } else {
        timings.reorder_seconds = seconds;
    }
    let clustered = (plan.shape != OutputShape::Masked)
        .then(|| {
            let t1 = Instant::now();
            let clustered = cluster(&pa, relabelled.as_ref().and(inv.as_deref()));
            timings.cluster_seconds += t1.elapsed().as_secs_f64();
            clustered
        })
        .flatten();
    (CpuOperand { pa, relabelled, clustered }, row_map, timings)
}

/// `pa`'s Alg. 2 clusters in `CSR_Cluster` form, union ids relabelled
/// through `inv` when given — or `None` when they share too little to pay
/// ([`MIN_SHARING_FACTOR`]). An operand whose clusters cannot reach it even
/// if every member row shared every column is turned down before anything
/// is built ([`most_sharing`]).
fn cluster(pa: &CsrMatrix, inv: Option<&[u32]>) -> Option<Clustered> {
    let clustering = variable_clustering(pa, &ClusterConfig::default());
    if most_sharing(pa, &clustering) < MIN_SHARING_FACTOR {
        return None;
    }
    let cc = CsrCluster::from_csr(pa, &clustering);
    let sharing = pa.nnz() as f64 / cc.col_ids.len() as f64;
    if sharing < MIN_SHARING_FACTOR {
        return None;
    }
    let relabelled = inv.map(|inv| cc.col_ids.iter().map(|&c| inv[c as usize]).collect());
    Some(Clustered { cc, relabelled, sharing })
}

/// An upper bound on the sharing factor of `clustering` over `a`, from row
/// lengths alone: a cluster's union holds at least its longest row, and at
/// least its entries spread over all its rows. Meshes, whose clusters are
/// nearly all single rows, read about 1.
fn most_sharing(a: &CsrMatrix, clustering: &Clustering) -> f64 {
    let mut least_union = 0usize;
    let starts = clustering.row_starts();
    for w in starts.windows(2) {
        let rows = w[0] as usize..w[1] as usize;
        let longest = rows.clone().map(|r| a.row_nnz(r)).max().unwrap_or(0);
        let nnz = a.row_ptr[rows.end] - a.row_ptr[rows.start];
        least_union += longest.max(nnz.div_ceil(rows.len()));
    }
    a.nnz() as f64 / least_union.max(1) as f64
}

/// `inv[col]` for every stored id of `pa`, in place — or `None` when those
/// ids sit further from their rows than [`MAX_RELABELLED_DISTANCE`] allows.
fn relabel_rows(pa: &CsrMatrix, inv: &[u32]) -> Option<Vec<ColIdx>> {
    let mut ids = Vec::with_capacity(pa.nnz());
    let mut distance = 0u64;
    for row in 0..pa.nrows {
        for &col in pa.row_cols(row) {
            let id = inv[col as usize];
            distance += (id as u64).abs_diff(row as u64);
            ids.push(id);
        }
    }
    let budget = MAX_RELABELLED_DISTANCE * pa.nnz() as f64 * pa.nrows as f64;
    (distance as f64 <= budget).then_some(ids)
}

/// `shape(A · b)` under `plan`, whether it ran two-sided, and the
/// accumulator the kernel ran (the lane kernel's column map resolves the same
/// way: Dense wherever a row-wise accumulator of `b`'s width would).
/// `operand` is `A` with its rows reordered by `row_map` (what
/// [`materialize`] returned). Rows come back in `A`'s order — the caller's:
/// every kernel hands `row_map` to [`cw_spgemm::single_pass`], whose pack
/// step writes each row at its final offset, so no separate un-permutation
/// pass exists.
///
/// `b_is_source` is the caller's proof that `b` is, entry for entry, the
/// matrix `operand` was materialized from. With it, and relabelled ids on
/// the operand, the product runs in the permuted label space
/// ([`cw_spgemm::spgemm_labelled`] on the operand's own arrays — `b` is not
/// read) and every row is emitted under the caller's labels. Without either
/// it is exactly the one-sided product on the one-sided arrays. Either way
/// a clustered operand runs the lane kernel on its clusters.
///
/// `mask` must be `Some` exactly when the plan's shape is
/// [`OutputShape::Masked`], and is in the caller's row order like the
/// result.
///
/// A masked plan runs [`cw_spgemm::spgemm_masked_mapped`], which admits only
/// the mask's columns into the accumulator and never builds the rest of the
/// product. A top-k plan computes the full product and then keeps each
/// row's largest entries ([`cw_spgemm::row_topk`]).
///
/// # Panics
///
/// Panics if the shape is `Masked` and `mask` is `None`, or if the mask's
/// dimensions do not match the product's.
pub(crate) fn execute(
    operand: &CpuOperand,
    row_map: Option<&Permutation>,
    plan: &Plan,
    b: &CsrMatrix,
    b_is_source: bool,
    mask: Option<&CsrMatrix>,
) -> (CsrMatrix, bool, AccumulatorKind) {
    let opts = plan.spgemm_options();
    let acc = opts.acc.resolve(b.ncols);
    let CpuOperand { pa, relabelled, clustered } = operand;
    if plan.shape == OutputShape::Masked {
        let mask = mask.expect("masked plan executed without a mask operand");
        return (cw_spgemm::spgemm_masked_mapped(pa, b, mask, &opts, row_map), false, acc);
    }
    // A relabelled operand always comes with the permutation it was
    // relabelled by, and its clusters with relabelled union ids.
    let two_sided = relabelled.as_deref().zip(row_map.filter(|_| b_is_source));
    let full = match (clustered, two_sided) {
        (Some(cl), Some((ids, p))) => {
            let union =
                cl.relabelled.as_deref().expect("relabelled clusters beside relabelled rows");
            let a = ClusterRows { ids: union, ..ClusterRows::from(&cl.cc) };
            let b = CsrRows { ids, ..CsrRows::from(pa) };
            clusterwise_spgemm_labelled(a, b, &opts, row_map, p)
        }
        (Some(cl), None) => {
            clusterwise_spgemm_labelled((&cl.cc).into(), b.into(), &opts, row_map, &SameLabels)
        }
        (None, Some((ids, p))) => {
            let rows = CsrRows { ids, ..CsrRows::from(pa) };
            spgemm_labelled(rows, rows, &opts, row_map, p)
        }
        (None, None) => spgemm_mapped(pa, b, &opts, row_map),
    };
    let two_sided = two_sided.is_some();
    let shaped = match plan.shape {
        OutputShape::TopK(k) => cw_spgemm::row_topk(&full, k),
        _ => full,
    };
    (shaped, two_sided, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;

    fn product(a: &CsrMatrix, plan: Plan) -> CsrMatrix {
        let (operand, row_map, _) = materialize(a, &plan, 7);
        execute(&operand, row_map.as_ref(), &plan, a, true, None).0
    }

    fn assert_parallel_matches_oracle(a: &CsrMatrix, plan: Plan) {
        let oracle = product(a, Plan { parallel: false, ..plan });
        assert!(oracle.numerically_eq(&spgemm_serial(a, a), 1e-9));
        let got = product(a, Plan { parallel: true, ..plan });
        assert!(got.bits_eq(&oracle), "the parallel path diverges from the serial oracle");
    }

    #[test]
    fn all_backends_agree_bit_identically_on_rowwise_plans() {
        let a = gen::mesh::tri_mesh(12, 12, true, 3);
        assert_parallel_matches_oracle(&a, Plan { reorder: Reordering::Rcm, ..Plan::baseline() });
    }

    #[test]
    fn clusters_are_kept_only_where_they_share_enough() {
        use cw_sparse::gen::{banded, mesh};
        let rcm = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        let blocks = banded::block_diagonal(600, (6, 10), 0.02, 3);
        let blocks = cw_reorder::random_permutation(600, 4).permute_symmetric(&blocks);
        let (operand, _, timings) = materialize(&blocks, &rcm, 7);
        let sharing = operand.sharing_factor().expect("near-duplicate rows cluster");
        assert!(sharing >= MIN_SHARING_FACTOR, "{sharing}");
        assert!(timings.cluster_seconds > 0.0 && timings.reorder_seconds > 0.0);
        // The clusters are charged to the preparation's footprint.
        let rowwise = CpuOperand { clustered: None, ..operand.clone() };
        assert!(operand.approx_bytes() > rowwise.approx_bytes());
        // A mesh with one unknown per node forms no clusters, and a masked
        // plan never scans.
        let mesh = mesh::tri_mesh(20, 20, true, 1);
        assert_eq!(materialize(&mesh, &rcm, 7).0.sharing_factor(), None);
        let masked = rcm.with_shape(OutputShape::Masked);
        let (operand, _, timings) = materialize(&blocks, &masked, 7);
        assert_eq!((operand.sharing_factor(), timings.cluster_seconds), (None, 0.0));
    }

    #[test]
    fn the_sharing_bound_is_never_below_the_sharing_factor() {
        use cw_core::{fixed_clustering, CsrCluster};
        use cw_sparse::gen::{banded, er, mesh};
        let operands = [
            banded::block_diagonal(300, (3, 9), 0.1, 1),
            mesh::tri_mesh(15, 15, true, 2),
            er::erdos_renyi(200, 7, 3),
            CsrMatrix::zeros(5, 5),
        ];
        for a in &operands {
            for clustering in [
                variable_clustering(a, &ClusterConfig::default()),
                fixed_clustering(a, 1),
                fixed_clustering(a, 8),
            ] {
                let cc = CsrCluster::from_csr(a, &clustering);
                let sharing = a.nnz() as f64 / cc.col_ids.len().max(1) as f64;
                assert!(most_sharing(a, &clustering) >= sharing, "{sharing}");
            }
            // Single rows share nothing, whatever their lengths.
            assert!(most_sharing(a, &fixed_clustering(a, 1)) <= 1.0);
        }
    }

    #[test]
    fn all_backends_agree_bit_identically_on_hierarchical_plans() {
        let a = gen::banded::block_diagonal(96, (4, 8), 0.1, 2);
        assert_parallel_matches_oracle(
            &a,
            Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() },
        );
    }
}
