//! Execution: *how* a prepared plan runs.
//!
//! A [`Plan`] says *what* to compute (reordering × clustering ×
//! accumulator × output shape) and, in [`Plan::parallel`], whether the
//! kernel runs on the rayon pool. `parallel: false` is the serial oracle
//! every cross-validation suite compares against: because each kernel
//! accumulates an output entry in ascending-`k` order and extracts sorted
//! columns wherever it runs, the two are bit-identical under otherwise
//! equal plans.
//!
//! Both materialize the same `CpuOperand` (`materialize`) and run through
//! the one `execute` function, which is also where the output shape is
//! applied. There is no trait or registry: a new way to run a kernel earns
//! a `match` arm in `execute` by winning a measurement.
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

use crate::plan::{ClusteringStrategy, OutputShape, Plan};
use crate::report::StageTimings;
use cw_core::{
    fixed_clustering, hierarchical_clustering, variable_clustering, ClusterConfig, CsrCluster,
};
use cw_reorder::Reordering;
use cw_sparse::{ColIdx, CsrMatrix, Permutation, Value};
use cw_spgemm::rowwise::{spgemm_labelled, spgemm_mapped, CsrRows};
use cw_spgemm::AccumulatorKind;
use std::time::Instant;

/// The materialized left operand, which decides the kernel: plain CSR for
/// row-wise plans and for clustered plans whose clustering came out too
/// fine to pay (see [`materialize`]), `CSR_Cluster` for the rest. Either may
/// carry the same ids in the permuted label space (module docs: two-sided
/// execution; [`materialize`] says when).
#[derive(Debug, Clone)]
pub(crate) enum CpuOperand {
    /// Row-wise kernels run over plain (possibly permuted) CSR.
    RowWise {
        /// `P·A`: rows moved, column ids the caller's.
        pa: CsrMatrix,
        /// `inv[pa.col_idx[p]]` for every stored entry, in `pa`'s order.
        /// With `pa`'s `row_ptr` and `vals` this is `P·A·Pᵀ` — both operands
        /// of a two-sided product — except that a row's ids are in the
        /// caller's ascending order, not their own.
        relabelled: Option<Vec<ColIdx>>,
    },
    /// Cluster-wise kernels run over the paper's `CSR_Cluster`.
    ClusterWise {
        /// `CSR_Cluster` of `P·A`, union columns in the caller's ids.
        cc: CsrCluster,
        /// The two-sided form: `cc`'s union lists relabelled position for
        /// position, and `P·A·Pᵀ` as the right-hand side.
        relabelled: Option<(Vec<ColIdx>, RelabelledCsr)>,
    },
}

/// CSR arrays whose ids went through `inv[·]` and kept their place, so a
/// row's ids are not ascending: a kernel input ([`CsrRows`]), not a
/// [`CsrMatrix`], and never handed out of this module.
#[derive(Debug, Clone)]
pub(crate) struct RelabelledCsr {
    row_ptr: Vec<usize>,
    ids: Vec<ColIdx>,
    vals: Vec<Value>,
}

impl RelabelledCsr {
    /// The arrays as a kernel reads them (square: only such operands are
    /// relabelled).
    fn rows(&self) -> CsrRows<'_> {
        let n = self.row_ptr.len() - 1;
        CsrRows { nrows: n, ncols: n, row_ptr: &self.row_ptr, ids: &self.ids, vals: &self.vals }
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.row_ptr[..]) + size_of_val(&self.ids[..]) + size_of_val(&self.vals[..])
    }
}

impl CpuOperand {
    /// Approximate resident heap footprint in bytes, relabelled forms
    /// included.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of_val;
        match self {
            CpuOperand::RowWise { pa, relabelled } => {
                pa.memory_bytes() + relabelled.as_deref().map_or(0, size_of_val)
            }
            CpuOperand::ClusterWise { cc, relabelled } => {
                cc.memory_bytes()
                    + relabelled
                        .as_ref()
                        .map_or(0, |(union_ids, b)| size_of_val(&union_ids[..]) + b.memory_bytes())
            }
        }
    }

    /// Whether a two-sided product can run on this operand.
    pub(crate) fn is_relabelled(&self) -> bool {
        match self {
            CpuOperand::RowWise { relabelled, .. } => relabelled.is_some(),
            CpuOperand::ClusterWise { relabelled, .. } => relabelled.is_some(),
        }
    }
}

/// Below this many rows per cluster a clustered layout has found too little
/// to share: `CSR_Cluster` over (almost) singletons costs a union list, a
/// bitmask and a per-member scatter loop for every row and saves no `B`-row
/// reads, so the operand is kept as plain CSR on the same row order.
const MIN_ROWS_PER_CLUSTER: f64 = 1.5;

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

/// Under a dense accumulator, the smallest operand (bytes of `P·A` as CSR)
/// whose relabelling is kept. A dense accumulator's slots are as near each
/// other as the cache they sit in makes them, so relabelling `C`'s columns
/// buys it nothing until the operand outgrows that cache, while a
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
/// permutation, builds the clustered format when the plan asks for one and
/// the clustering found something to cluster, relabels the operand's ids for
/// two-sided execution where that can apply, and records the
/// `reorder`/`cluster` stage seconds (the other [`StageTimings`] fields
/// stay zero).
///
/// The operand is [`CpuOperand::ClusterWise`] only when the plan's
/// clustering averages at least [`MIN_ROWS_PER_CLUSTER`] rows per cluster;
/// otherwise it is the same reordered (for `Hierarchical`: swept and
/// grouped) rows as [`CpuOperand::RowWise`], still under `plan` — its cache
/// key and feedback identity do not change, only the kernel that runs.
///
/// The relabelled ids (`inv[col]`, each row left in the caller's ascending
/// order) are kept when the operand is square and its rows moved — the
/// only case in which `b` can be the operand itself *and* a relabelling
/// differs from the ids already there — and the order made the operand
/// banded enough to pay ([`MAX_RELABELLED_DISTANCE`]; under a dense
/// accumulator the operand must also be past
/// [`DENSE_RELABELLED_MIN_BYTES`]); never for a masked plan that runs
/// row-wise, whose fused kernel is keyed on the mask's own columns and stays
/// one-sided. One pass over the ids, charged to the stage that moved the
/// rows last.
///
/// The returned permutation is the total applied reordering (`new → old`:
/// kernel row `r` is original row `old_of(r)`), which is exactly the row
/// map — and, two-sided, the label map — [`execute`] needs to hand the
/// product back in the caller's order; `None` when the rows did not move.
pub(crate) fn materialize(
    a: &CsrMatrix,
    plan: &Plan,
    seed: u64,
    cluster: &ClusterConfig,
) -> (CpuOperand, Option<Permutation>, StageTimings) {
    let mut timings = StageTimings::default();

    // Stage 1: explicit reordering (paper Table 1 algorithms).
    let (base, mut perm_total) = if plan.reorder == Reordering::Original {
        (a.clone(), None)
    } else {
        let t0 = Instant::now();
        let p = plan.reorder.compute(a, seed);
        let pa = p.permute_rows(a);
        timings.reorder_seconds = t0.elapsed().as_secs_f64();
        (pa, Some(p))
    };

    // Stage 2: clustering (paper §3.2 / Algs. 2–3). Hierarchical
    // clustering brings its own permutation, composed onto any explicit
    // reordering.
    let t0 = Instant::now();
    let (grouped, clustering) = match plan.clustering {
        ClusteringStrategy::None => (base, None),
        ClusteringStrategy::Fixed(k) => {
            let clustering = fixed_clustering(&base, k.max(1));
            (base, Some(clustering))
        }
        ClusteringStrategy::Variable => {
            let clustering = variable_clustering(&base, cluster);
            (base, Some(clustering))
        }
        ClusteringStrategy::Hierarchical => {
            let h = hierarchical_clustering(&base, cluster);
            let grouped = h.perm.permute_rows(&base);
            // Compose: the explicit reorder ran first, then `h.perm`.
            perm_total = Some(match perm_total.take() {
                None => h.perm,
                Some(first) => first.then(&h.perm),
            });
            (grouped, Some(h.clustering))
        }
    };
    let row_map = identity_to_none(perm_total);
    let clustering =
        clustering.filter(|c| grouped.nrows as f64 >= MIN_ROWS_PER_CLUSTER * c.sizes.len() as f64);

    // Stage 3: the same ids in the permuted label space.
    let masked_rowwise = clustering.is_none() && plan.shape == OutputShape::Masked;
    let small_and_dense =
        plan.acc == AccumulatorKind::Dense && grouped.memory_bytes() < DENSE_RELABELLED_MIN_BYTES;
    let inv = row_map
        .as_ref()
        .filter(|_| a.nrows == a.ncols && !masked_rowwise && !small_and_dense)
        .map(Permutation::inverse_map);
    let ids = inv.as_deref().and_then(|inv| relabel_rows(&grouped, inv));
    let operand = match clustering {
        None => CpuOperand::RowWise { pa: grouped, relabelled: ids },
        Some(clustering) => {
            let cc = CsrCluster::from_csr(&grouped, &clustering);
            let relabelled = ids.zip(inv.as_deref()).map(|(ids, inv)| {
                let union_ids = cc.col_ids.iter().map(|&col| inv[col as usize]).collect();
                (union_ids, RelabelledCsr { row_ptr: grouped.row_ptr, ids, vals: grouped.vals })
            });
            CpuOperand::ClusterWise { cc, relabelled }
        }
    };
    let built = t0.elapsed().as_secs_f64();
    if plan.clustering != ClusteringStrategy::None {
        timings.cluster_seconds = built;
    } else if inv.is_some() {
        timings.reorder_seconds += built;
    }
    (operand, row_map, timings)
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

/// A permutation that moves nothing needs no row map.
fn identity_to_none(perm: Option<Permutation>) -> Option<Permutation> {
    perm.filter(|p| !p.is_identity())
}

/// `shape(A · b)` under `plan`, and whether it ran two-sided.
/// `operand` is `A` with its rows reordered by `row_map` (what
/// [`materialize`] returned). Rows come back in `A`'s order — the caller's:
/// every kernel hands `row_map` to [`cw_spgemm::single_pass`], whose pack
/// step writes each row at its final offset, so no separate un-permutation
/// pass exists.
///
/// `b_is_source` is the caller's proof that `b` is, entry for entry, the
/// matrix `operand` was materialized from. With it, and relabelled ids on
/// the operand, the product runs in the permuted label space
/// ([`cw_spgemm::spgemm_labelled`] /
/// [`cw_core::clusterwise_spgemm_labelled`] on the operand's own arrays —
/// `b` is not read) and every row is emitted under the caller's labels.
/// Without either it is exactly the one-sided product on the one-sided
/// arrays.
///
/// `mask` must be `Some` exactly when the plan's shape is
/// [`OutputShape::Masked`], and is in the caller's row order like the
/// result.
///
/// A masked row-wise plan runs [`cw_spgemm::spgemm_masked_mapped`], which
/// admits only the mask's columns into the accumulator and never builds
/// the rest of the product. Every other shaped arm computes the full
/// product and then applies the row-local shape transform
/// ([`cw_spgemm::row_topk`] / [`cw_spgemm::apply_mask`]) to it: it is the
/// only path on cluster-wise operands and top-k, and the oracle a fused arm
/// must stay bit-identical to.
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
) -> (CsrMatrix, bool) {
    let opts = plan.spgemm_options();
    let mask = || mask.expect("masked plan executed without a mask operand");
    if let (CpuOperand::RowWise { pa, .. }, OutputShape::Masked) = (operand, plan.shape) {
        return (cw_spgemm::spgemm_masked_mapped(pa, b, mask(), &opts, row_map), false);
    }
    // A relabelled operand always comes with the permutation it was
    // relabelled by.
    let labels = row_map.filter(|_| b_is_source);
    let (full, two_sided) = match (operand, labels) {
        (CpuOperand::RowWise { pa, relabelled: Some(ids) }, Some(p)) => {
            let rows = CsrRows { ids, ..CsrRows::from(pa) };
            (spgemm_labelled(rows, rows, &opts, row_map, p), true)
        }
        (CpuOperand::ClusterWise { cc, relabelled: Some((union_ids, b)) }, Some(p)) => {
            let c =
                cw_core::clusterwise_spgemm_labelled(cc, union_ids, b.rows(), &opts, row_map, p);
            (c, true)
        }
        (CpuOperand::RowWise { pa, .. }, _) => (spgemm_mapped(pa, b, &opts, row_map), false),
        (CpuOperand::ClusterWise { cc, .. }, _) => {
            (cw_core::clusterwise_spgemm_mapped(cc, b, &opts, row_map), false)
        }
    };
    let shaped = match plan.shape {
        OutputShape::Masked => cw_spgemm::apply_mask(&full, mask()),
        OutputShape::TopK(k) => cw_spgemm::row_topk(&full, k),
        OutputShape::Full => full,
    };
    (shaped, two_sided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;

    fn product(a: &CsrMatrix, plan: Plan) -> CsrMatrix {
        let (operand, row_map, _) = materialize(a, &plan, 7, &ClusterConfig::default());
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
    fn all_backends_agree_bit_identically_on_clusterwise_plans() {
        let a = gen::banded::block_diagonal(96, (4, 8), 0.1, 2);
        assert_parallel_matches_oracle(
            &a,
            Plan { clustering: ClusteringStrategy::Variable, ..Plan::baseline() },
        );
    }
}
