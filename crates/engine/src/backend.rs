//! Execution backends: *where and how* a prepared plan runs.
//!
//! The plan → prepare → execute pipeline deliberately splits *what* to do
//! (a [`Plan`]: reordering × clustering × kernel × accumulator knobs) from
//! *how to run it*. This module makes the second half a first-class seam:
//! an [`ExecutionBackend`] owns both **prepare** (materializing a
//! backend-specific [`BackendPayload`] from the operand) and **execute**
//! (the kernel dispatch), declares a [`BackendId`] plus a [`BackendCaps`]
//! capability descriptor the [`crate::CostModel`] prices plans with, and
//! registers in a [`BackendRegistry`] the [`crate::Planner`] and
//! [`crate::Engine`] resolve against. Related work motivates the seam:
//! the same SpGEMM pipeline pays off very differently per architecture
//! (Nagasaka et al. on KNL vs multicore), and reordering benefit is
//! backend-sensitive (the SpMV reordering study) — so the execution
//! strategy must be swappable without touching planning or caching.
//!
//! Four backends ship in [`BackendRegistry::builtin`]:
//!
//! * [`ParallelCpu`] — the reference rayon path (the default; exactly the
//!   execution behavior the engine had before this seam existed).
//! * [`SerialReference`] — a deterministic single-threaded oracle used by
//!   cross-validation: every other backend must produce bit-identical
//!   output for the same plan knobs.
//! * [`TiledCpu`] — column-tiled (cache-blocked) execution: `B` is split
//!   into column tiles so each tile's accumulator working set stays
//!   cache-resident; a genuinely different performance point the planner
//!   can discover through execution feedback.
//! * [`AdaptiveCpu`] — the per-row kernel zoo: sorted-array / hash / dense
//!   accumulators chosen per output row from upper-bound FLOP estimates
//!   (`cw_spgemm::adaptive`), single-pass parallel, bit-identical to the
//!   oracle because selection depends only on operand structure.
//!
//! Backend identity is part of [`crate::PlanKnobs`], so the plan cache
//! keys preparations by `(fingerprint, knobs, backend)` and the
//! [`crate::FeedbackStore`] learns per-backend timings.

use crate::plan::{ClusteringStrategy, KernelChoice, OutputShape, Plan};
use crate::prepared::PrepTimings;
use cw_core::{
    fixed_clustering, hierarchical_clustering, variable_clustering, ClusterConfig, CsrCluster,
};
use cw_reorder::Reordering;
use cw_sparse::{ColIdx, CsrMatrix, Permutation};
use cw_spgemm::adaptive::{spgemm_adaptive_with, AdaptiveOptions, AdaptiveThresholds};
use cw_spgemm::rowwise::{spgemm_with, SpGemmOptions};
use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Default column-tile width for the builtin [`TiledCpu`] backend: wide
/// enough that the dense accumulator slab plus the tile's `B` rows stay
/// L2-resident, narrow enough that genuinely wide outputs split into
/// several tiles.
pub const DEFAULT_TILE_COLS: usize = 512;

/// Identity of one execution backend.
///
/// The id is what travels inside [`Plan`]s (and therefore cache keys and
/// feedback state); the [`BackendRegistry`] maps it back to the
/// implementation at prepare/execute time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// The reference rayon CPU path (the default).
    #[default]
    ParallelCpu,
    /// Single-threaded deterministic oracle for cross-validation.
    SerialReference,
    /// Column-tiled (cache-blocked) CPU execution.
    TiledCpu,
    /// Per-row adaptive kernel zoo (sorted-array / hash / dense).
    AdaptiveCpu,
}

impl BackendId {
    /// Every builtin backend id, in registry order.
    pub const ALL: [BackendId; 4] = [
        BackendId::ParallelCpu,
        BackendId::SerialReference,
        BackendId::TiledCpu,
        BackendId::AdaptiveCpu,
    ];

    /// Short human-readable name (stable across releases; used in reports
    /// and as the backend key in serialized calibration profiles).
    pub fn name(&self) -> &'static str {
        match self {
            BackendId::ParallelCpu => "parallel-cpu",
            BackendId::SerialReference => "serial-reference",
            BackendId::TiledCpu => "tiled-cpu",
            BackendId::AdaptiveCpu => "adaptive-cpu",
        }
    }

    /// Inverse of [`BackendId::name`]: resolves a stable name back to the
    /// id (how [`crate::CalibrationProfile`] parsing maps JSON entries).
    pub fn parse(name: &str) -> Option<BackendId> {
        BackendId::ALL.iter().copied().find(|id| id.name() == name)
    }

    /// The capability descriptor of the *builtin* implementation of this
    /// id. Registry-resolved backends may override (e.g. a [`TiledCpu`]
    /// constructed with a custom tile width); this is the default the
    /// standalone [`crate::CostModel::estimate`] convenience uses.
    pub fn caps(&self) -> BackendCaps {
        match self {
            BackendId::ParallelCpu => BackendCaps {
                backend: *self,
                description: "reference rayon path",
                parallel: true,
                planner_candidate: true,
                kernel_scale: 1.0,
                tile_cols: None,
                deterministic_oracle: false,
            },
            BackendId::SerialReference => BackendCaps {
                backend: *self,
                description: "single-threaded deterministic oracle",
                parallel: false,
                planner_candidate: false,
                kernel_scale: 1.0,
                tile_cols: None,
                deterministic_oracle: true,
            },
            BackendId::TiledCpu => BackendCaps {
                backend: *self,
                description: "column-tiled cache-blocked execution",
                parallel: true,
                planner_candidate: true,
                kernel_scale: 1.0,
                tile_cols: Some(DEFAULT_TILE_COLS),
                deterministic_oracle: false,
            },
            BackendId::AdaptiveCpu => BackendCaps {
                backend: *self,
                description: "per-row adaptive kernel zoo",
                parallel: true,
                planner_candidate: true,
                kernel_scale: 1.0,
                tile_cols: None,
                deterministic_oracle: false,
            },
        }
    }
}

/// What a backend can do and how the [`crate::CostModel`] should price it.
///
/// The descriptor is deliberately analytic, not boolean feature flags: the
/// cost model folds `kernel_scale`, the parallel capability, and the tile
/// geometry directly into its kernel-seconds estimate, so a backend's
/// self-description *is* its prior in plan ranking (execution feedback then
/// corrects it, exactly as for any other cost-model constant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCaps {
    /// The backend this descriptor belongs to.
    pub backend: BackendId,
    /// One-line human-readable description.
    pub description: &'static str,
    /// Whether the backend can exploit the rayon pool (`false` means the
    /// cost model never applies the parallel speedup, whatever
    /// [`Plan::parallel`] says).
    pub parallel: bool,
    /// Whether [`crate::Planner::plans_costed`] offers this backend as a
    /// candidate for auto traffic. The [`SerialReference`] oracle sets
    /// this `false`: it exists for validation, not for winning races.
    pub planner_candidate: bool,
    /// Multiplier on modeled kernel seconds relative to the reference
    /// rayon path at equal knobs (`1.0` = priced identically).
    pub kernel_scale: f64,
    /// `Some(width)` when execution is column-tiled with this tile width;
    /// the cost model prices the per-tile pass overhead and the
    /// cache-blocking gain from it.
    pub tile_cols: Option<usize>,
    /// Whether the backend guarantees bit-reproducible output across runs
    /// and thread counts (the cross-validation oracle property).
    pub deterministic_oracle: bool,
}

/// A backend-specific materialized operand, stored inside
/// [`crate::PreparedMatrix`]. The engine treats it as opaque bytes with a
/// size; only the backend that produced it downcasts it back (via
/// [`BackendPayload::as_any`]) at execute time.
pub trait BackendPayload: Any + Send + Sync + fmt::Debug {
    /// Approximate resident heap footprint in bytes (sizes byte-bounded
    /// cache eviction).
    fn approx_bytes(&self) -> usize;
    /// Downcast hook for the owning backend's `execute`.
    fn as_any(&self) -> &dyn Any;
}

/// One execution strategy: owns materialization of its payload and the
/// kernel dispatch over it.
///
/// Contract:
///
/// * `prepare` must honor every knob of the plan that affects *what* is
///   computed (reordering, clustering, kernel family) so results stay
///   bit-comparable across backends; knobs that only affect *how*
///   (parallelism, tiling) are the backend's to interpret.
/// * `execute` returns the kernel output in the operand's *internal*
///   (post-reordering) row order; [`crate::PreparedMatrix::multiply_timed`]
///   applies the inverse permutation afterwards, so backends never deal
///   with un-permutation.
/// * `execute` is handed payloads produced by this backend's own
///   `prepare`; receiving a foreign payload is a caller bug and may panic.
pub trait ExecutionBackend: fmt::Debug + Send + Sync {
    /// The identity plans carry to name this backend.
    fn id(&self) -> BackendId;
    /// Capability/affinity descriptor consumed by the cost model.
    fn caps(&self) -> BackendCaps;
    /// Materializes `plan` for `a`: the backend-specific payload, the
    /// inverse row permutation (when the plan reorders), and per-stage
    /// preparation timings.
    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings);
    /// `C = payload · b` in internal row order.
    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix;

    /// `C = payload · b` shaped by [`Plan::shape`], in internal row order.
    ///
    /// `mask` must be `Some` exactly when the plan's shape is
    /// [`OutputShape::Masked`], with its rows already in the payload's
    /// *internal* (post-reordering) row order —
    /// [`crate::PreparedMatrix::multiply_shaped`] handles that permutation,
    /// so backends never deal with it.
    ///
    /// The default implementation computes the full product with
    /// [`ExecutionBackend::execute`] and applies the row-local shape
    /// transform via [`apply_output_shape`]; both transforms commute with
    /// row permutation, so every backend inheriting this default is
    /// bit-identical to the serial reference per shape. Backends with
    /// genuinely truncated kernels (e.g. a future masked SpGEMM that
    /// skips non-mask columns) may override it, as long as they preserve
    /// bit-identity with the default.
    fn execute_shaped(
        &self,
        payload: &dyn BackendPayload,
        plan: &Plan,
        b: &CsrMatrix,
        mask: Option<&CsrMatrix>,
    ) -> CsrMatrix {
        apply_output_shape(self.execute(payload, plan, b), plan.shape, mask)
    }
}

/// Applies an [`OutputShape`] to a computed product: the identity for
/// `Full`, [`cw_spgemm::row_topk`] for `TopK`, and
/// [`cw_spgemm::apply_mask`] for `Masked`.
///
/// Row-local by construction, so it may be applied in any row order as
/// long as `mask` rows align with `c` rows.
///
/// # Panics
///
/// Panics if the shape is [`OutputShape::Masked`] and `mask` is `None`
/// (the mask is request data the caller must supply), or if the mask's
/// dimensions do not match `c`'s.
pub fn apply_output_shape(c: CsrMatrix, shape: OutputShape, mask: Option<&CsrMatrix>) -> CsrMatrix {
    match shape {
        OutputShape::Full => c,
        OutputShape::TopK(k) => cw_spgemm::row_topk(&c, k),
        OutputShape::Masked => {
            let mask = mask.expect("masked plan executed without a mask operand");
            cw_spgemm::apply_mask(&c, mask)
        }
    }
}

/// The shared CPU operand representation: plain CSR for row-wise plans,
/// `CSR_Cluster` for cluster-wise plans. All three builtin backends
/// materialize this (the tiled backend wraps it in [`TiledOperand`]);
/// custom backends are free to reuse it via [`materialize_cpu`].
#[derive(Debug, Clone)]
pub enum CpuOperand {
    /// Row-wise kernels run over plain (possibly permuted) CSR.
    RowWise(CsrMatrix),
    /// Cluster-wise kernels run over the paper's `CSR_Cluster`.
    ClusterWise(CsrCluster),
}

impl BackendPayload for CpuOperand {
    fn approx_bytes(&self) -> usize {
        match self {
            CpuOperand::RowWise(m) => m.memory_bytes(),
            CpuOperand::ClusterWise(cc) => cc.memory_bytes(),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The [`TiledCpu`] payload: the shared CPU operand plus the column-tile
/// width chosen at prepare time.
#[derive(Debug, Clone)]
pub struct TiledOperand {
    /// The materialized operand the per-tile kernels run over.
    pub operand: CpuOperand,
    /// Column-tile width (output columns per tile).
    pub tile_cols: usize,
}

impl BackendPayload for TiledOperand {
    fn approx_bytes(&self) -> usize {
        self.operand.approx_bytes() + std::mem::size_of::<usize>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Materializes the CPU operand for `plan`: computes and applies the row
/// permutation, builds the clustered format when the plan asks for one,
/// and records per-stage timings. The returned permutation is the
/// *inverse* of the total applied reordering (what maps kernel output rows
/// back to original ids), matching the [`ExecutionBackend::prepare`]
/// contract. Shared by every builtin backend (their payloads only differ
/// in what wraps this operand), public so custom backends can reuse the
/// same preprocessing.
pub fn materialize_cpu(
    a: &CsrMatrix,
    plan: &Plan,
    seed: u64,
    cluster: &ClusterConfig,
) -> (CpuOperand, Option<Permutation>, PrepTimings) {
    let mut timings = PrepTimings::default();

    // Stage 1: explicit reordering (paper Table 1 algorithms).
    let mut perm_total: Option<Permutation> = None;
    let mut pa: Option<CsrMatrix> = None;
    if let Some(r) = plan.reorder {
        if r != Reordering::Original {
            let t0 = Instant::now();
            let p = r.compute(a, seed);
            pa = Some(p.permute_rows(a));
            perm_total = Some(p);
            timings.reorder_seconds += t0.elapsed().as_secs_f64();
        }
    }

    // Stage 2: clustering (paper §3.2 / Algs. 2–3). The kernel choice is
    // authoritative: a row-wise plan never builds clusters, and a
    // cluster-wise plan with `ClusteringStrategy::None` falls back to
    // fixed-length grouping. Hierarchical clustering brings its own
    // permutation, composed onto any explicit reordering.
    let base = pa.unwrap_or_else(|| a.clone());
    let operand = match plan.kernel {
        KernelChoice::RowWise => CpuOperand::RowWise(base),
        KernelChoice::ClusterWise => {
            let t0 = Instant::now();
            let cc = match plan.clustering {
                ClusteringStrategy::None => {
                    let c = fixed_clustering(&base, cluster.max_cluster.max(1));
                    CsrCluster::from_csr(&base, &c)
                }
                ClusteringStrategy::Fixed(k) => {
                    let c = fixed_clustering(&base, k.max(1));
                    CsrCluster::from_csr(&base, &c)
                }
                ClusteringStrategy::Variable => {
                    let c = variable_clustering(&base, cluster);
                    CsrCluster::from_csr(&base, &c)
                }
                ClusteringStrategy::Hierarchical => {
                    let h = hierarchical_clustering(&base, cluster);
                    let hp = h.perm;
                    let grouped = hp.permute_rows(&base);
                    let cc = CsrCluster::from_csr(&grouped, &h.clustering);
                    // Compose: the explicit reorder ran first, then `hp`.
                    perm_total = Some(match perm_total.take() {
                        None => hp,
                        Some(first) => first.then(&hp),
                    });
                    cc
                }
            };
            timings.cluster_seconds += t0.elapsed().as_secs_f64();
            CpuOperand::ClusterWise(cc)
        }
    };

    (operand, perm_total.map(|p| p.inverse()), timings)
}

/// Runs the plan's kernel family over a CPU operand with explicit options.
fn run_cpu_kernel(operand: &CpuOperand, opts: &SpGemmOptions, b: &CsrMatrix) -> CsrMatrix {
    match operand {
        CpuOperand::RowWise(pa) => spgemm_with(pa, b, opts),
        CpuOperand::ClusterWise(cc) => cw_core::clusterwise_spgemm_with(cc, b, opts),
    }
}

fn downcast<'p, P: BackendPayload>(payload: &'p dyn BackendPayload, backend: &str) -> &'p P {
    payload.as_any().downcast_ref::<P>().unwrap_or_else(|| {
        // Deliberately does not Debug-format the payload itself: it holds
        // the whole prepared matrix, and a panic string with every nonzero
        // in it helps nobody.
        panic!(
            "{backend} backend handed a foreign payload (expected {}); payloads are only valid \
             with the backend that prepared them",
            std::any::type_name::<P>()
        )
    })
}

/// The reference rayon path: exactly the engine's pre-seam execution
/// behavior, and the default backend of every plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelCpu;

impl ExecutionBackend for ParallelCpu {
    fn id(&self) -> BackendId {
        BackendId::ParallelCpu
    }

    fn caps(&self) -> BackendCaps {
        BackendId::ParallelCpu.caps()
    }

    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings) {
        let (operand, unpermute, timings) = materialize_cpu(a, plan, seed, cluster);
        (Arc::new(operand), unpermute, timings)
    }

    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix {
        let operand = downcast::<CpuOperand>(payload, "parallel-cpu");
        run_cpu_kernel(operand, &plan.spgemm_options(), b)
    }
}

/// Single-threaded oracle: same materialization as [`ParallelCpu`], but
/// execution always runs the serial kernel path regardless of
/// [`Plan::parallel`]. Because every kernel accumulates each output entry
/// in ascending-`k` order and extracts sorted columns, its output is
/// bit-identical to the parallel and tiled backends under equal plan knobs
/// — which is exactly what makes it a useful cross-validation reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialReference;

impl ExecutionBackend for SerialReference {
    fn id(&self) -> BackendId {
        BackendId::SerialReference
    }

    fn caps(&self) -> BackendCaps {
        BackendId::SerialReference.caps()
    }

    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings) {
        let (operand, unpermute, timings) = materialize_cpu(a, plan, seed, cluster);
        (Arc::new(operand), unpermute, timings)
    }

    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix {
        let operand = downcast::<CpuOperand>(payload, "serial-reference");
        let opts = SpGemmOptions { parallel: false, ..plan.spgemm_options() };
        run_cpu_kernel(operand, &opts, b)
    }
}

/// Column-tiled (cache-blocked) execution: `B` is split into column tiles
/// of `tile_cols` columns, the plan's kernel runs once per tile (so the
/// accumulator working set is bounded by the tile width instead of
/// `ncols(B)`), and the per-tile outputs are stitched back together.
///
/// Tiling partitions work by *output column*, so each output entry's
/// multiply-add sequence is unchanged (same ascending-`k` order) — the
/// result is bit-identical to the untiled backends, only the memory access
/// pattern differs. Outputs narrower than one tile degenerate to the
/// untiled path.
#[derive(Debug, Clone, Copy)]
pub struct TiledCpu {
    tile_cols: usize,
}

impl Default for TiledCpu {
    fn default() -> Self {
        TiledCpu::new(DEFAULT_TILE_COLS)
    }
}

impl TiledCpu {
    /// Tiled backend with an explicit column-tile width (floored at 1).
    pub fn new(tile_cols: usize) -> TiledCpu {
        TiledCpu { tile_cols: tile_cols.max(1) }
    }

    /// The configured column-tile width.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }
}

impl ExecutionBackend for TiledCpu {
    fn id(&self) -> BackendId {
        BackendId::TiledCpu
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps { tile_cols: Some(self.tile_cols), ..BackendId::TiledCpu.caps() }
    }

    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings) {
        let (operand, unpermute, timings) = materialize_cpu(a, plan, seed, cluster);
        (Arc::new(TiledOperand { operand, tile_cols: self.tile_cols }), unpermute, timings)
    }

    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix {
        let tiled = downcast::<TiledOperand>(payload, "tiled-cpu");
        let opts = plan.spgemm_options();
        let w = tiled.tile_cols.max(1);
        let ntiles = b.ncols.div_ceil(w);
        if ntiles <= 1 {
            // Narrower than one tile: blocking buys nothing, run untiled.
            return run_cpu_kernel(&tiled.operand, &opts, b);
        }
        let parts: Vec<CsrMatrix> = (0..ntiles)
            .map(|t| {
                let lo = t * w;
                let hi = ((t + 1) * w).min(b.ncols);
                let bt = column_tile(b, lo, hi);
                run_cpu_kernel(&tiled.operand, &opts, &bt)
            })
            .collect();
        hstack_tiles(&parts, w, b.ncols)
    }
}

/// The column slice `b[:, lo..hi)` as its own CSR matrix (column indices
/// rebased to the tile).
fn column_tile(b: &CsrMatrix, lo: usize, hi: usize) -> CsrMatrix {
    let mut row_ptr = Vec::with_capacity(b.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::new();
    let mut vals = Vec::new();
    for i in 0..b.nrows {
        let (cols, vs) = b.row(i);
        // CSR rows are column-sorted, so the tile's slice is contiguous.
        let s = cols.partition_point(|&c| (c as usize) < lo);
        let e = cols.partition_point(|&c| (c as usize) < hi);
        col_idx.extend(cols[s..e].iter().map(|&c| c - lo as ColIdx));
        vals.extend_from_slice(&vs[s..e]);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows: b.nrows, ncols: hi - lo, row_ptr, col_idx, vals }
}

/// Stitches per-tile products (tile `t` covering columns `[t·w, …)`) back
/// into one matrix: each output row is the concatenation of its tile rows
/// with column indices re-offset, which preserves sorted order because the
/// tiles partition the column range in ascending order.
fn hstack_tiles(parts: &[CsrMatrix], w: usize, ncols: usize) -> CsrMatrix {
    let nrows = parts[0].nrows;
    let total: usize = parts.iter().map(|p| p.nnz()).sum();
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for i in 0..nrows {
        for (t, part) in parts.iter().enumerate() {
            let offset = (t * w) as ColIdx;
            let (cols, vs) = part.row(i);
            col_idx.extend(cols.iter().map(|&c| c + offset));
            vals.extend_from_slice(vs);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows, ncols, row_ptr, col_idx, vals }
}

/// Per-row adaptive execution: the kernel zoo of `cw_spgemm::adaptive`.
/// Each output row's accumulator (sorted-array / hash / dense SPA) is
/// chosen from its upper-bound intermediate-product count; chunking and
/// output assembly are the single-pass driver's (`cw_spgemm::single_pass`),
/// shared with the row-wise and cluster-wise kernels.
///
/// Selection depends only on the structure of the operands and every zoo
/// accumulator merges duplicate columns in arrival order, so output is
/// bit-identical to [`SerialReference`] for any thresholds. Cluster-wise
/// plans have no per-row dispatch (the cluster kernel amortizes across
/// member rows already) and fall back to the standard cluster kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveCpu {
    thresholds: AdaptiveThresholds,
}

impl AdaptiveCpu {
    /// Adaptive backend with explicit kernel-selection thresholds.
    pub fn new(thresholds: AdaptiveThresholds) -> AdaptiveCpu {
        AdaptiveCpu { thresholds }
    }

    /// The configured kernel-selection thresholds.
    pub fn thresholds(&self) -> AdaptiveThresholds {
        self.thresholds
    }
}

impl ExecutionBackend for AdaptiveCpu {
    fn id(&self) -> BackendId {
        BackendId::AdaptiveCpu
    }

    fn caps(&self) -> BackendCaps {
        BackendId::AdaptiveCpu.caps()
    }

    fn prepare(
        &self,
        a: &CsrMatrix,
        plan: &Plan,
        seed: u64,
        cluster: &ClusterConfig,
    ) -> (Arc<dyn BackendPayload>, Option<Permutation>, PrepTimings) {
        let (operand, unpermute, timings) = materialize_cpu(a, plan, seed, cluster);
        (Arc::new(operand), unpermute, timings)
    }

    fn execute(&self, payload: &dyn BackendPayload, plan: &Plan, b: &CsrMatrix) -> CsrMatrix {
        let operand = downcast::<CpuOperand>(payload, "adaptive-cpu");
        let opts = plan.spgemm_options();
        match operand {
            CpuOperand::RowWise(pa) => spgemm_adaptive_with(
                pa,
                b,
                &AdaptiveOptions { thresholds: self.thresholds, parallel: opts.parallel },
            ),
            CpuOperand::ClusterWise(_) => run_cpu_kernel(operand, &opts, b),
        }
    }
}

/// The set of execution backends a planner/engine can resolve, keyed by
/// [`BackendId`]. Registering a backend under an id that is already
/// present replaces it (how tests install a [`TiledCpu`] with a custom
/// tile width).
///
/// ```
/// use cw_engine::{BackendId, BackendRegistry, TiledCpu};
/// use std::sync::Arc;
///
/// let mut reg = BackendRegistry::builtin();
/// assert_eq!(reg.ids(), BackendId::ALL.to_vec());
///
/// // Replace the tiled backend with a narrower tile width.
/// reg.register(Arc::new(TiledCpu::new(64)));
/// assert_eq!(reg.resolve(BackendId::TiledCpu).caps().tile_cols, Some(64));
/// ```
#[derive(Clone)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn ExecutionBackend>>,
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry").field("ids", &self.ids()).finish()
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::builtin()
    }
}

impl BackendRegistry {
    /// A registry with no backends (build up with [`BackendRegistry::register`]).
    pub fn empty() -> BackendRegistry {
        BackendRegistry { backends: Vec::new() }
    }

    /// The four builtin backends: [`ParallelCpu`], [`SerialReference`],
    /// [`TiledCpu`] at [`DEFAULT_TILE_COLS`], and [`AdaptiveCpu`] with
    /// default thresholds.
    pub fn builtin() -> BackendRegistry {
        let mut reg = BackendRegistry::empty();
        reg.register(Arc::new(ParallelCpu));
        reg.register(Arc::new(SerialReference));
        reg.register(Arc::new(TiledCpu::default()));
        reg.register(Arc::new(AdaptiveCpu::default()));
        reg
    }

    /// Adds `backend`, replacing any existing backend with the same id.
    pub fn register(&mut self, backend: Arc<dyn ExecutionBackend>) {
        let id = backend.id();
        self.backends.retain(|b| b.id() != id);
        self.backends.push(backend);
    }

    /// Registered backend count.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True when no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Registered ids, in registration order.
    pub fn ids(&self) -> Vec<BackendId> {
        self.backends.iter().map(|b| b.id()).collect()
    }

    /// Iterates the registered backends in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn ExecutionBackend>> {
        self.backends.iter()
    }

    /// The backend registered under `id`, if any.
    pub fn get(&self, id: BackendId) -> Option<Arc<dyn ExecutionBackend>> {
        self.backends.iter().find(|b| b.id() == id).cloned()
    }

    /// Like [`BackendRegistry::get`] but panics with a diagnostic when the
    /// backend is missing — the engine-internal resolution path, where an
    /// unregistered id in a plan is a configuration bug.
    pub fn resolve(&self, id: BackendId) -> Arc<dyn ExecutionBackend> {
        self.get(id).unwrap_or_else(|| {
            panic!("execution backend {id:?} is not registered (registered: {:?})", self.ids())
        })
    }

    /// The capability descriptor for `id` as registered here, falling back
    /// to the builtin descriptor when `id` is unregistered (so cost
    /// estimation never panics on a foreign plan).
    pub fn caps(&self, id: BackendId) -> BackendCaps {
        self.get(id).map_or_else(|| id.caps(), |b| b.caps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;

    fn prepared_product(backend: &dyn ExecutionBackend, a: &CsrMatrix, plan: Plan) -> CsrMatrix {
        let cfg = ClusterConfig::default();
        let (payload, unpermute, _) = backend.prepare(a, &plan, 7, &cfg);
        let c = backend.execute(payload.as_ref(), &plan, a);
        match unpermute {
            None => c,
            Some(q) => q.permute_rows(&c),
        }
    }

    #[test]
    fn builtin_registry_has_all_builtin_backends() {
        let reg = BackendRegistry::builtin();
        assert_eq!(reg.len(), BackendId::ALL.len());
        for id in BackendId::ALL {
            let b = reg.resolve(id);
            assert_eq!(b.id(), id);
            assert_eq!(b.caps().backend, id);
        }
        assert!(!reg.caps(BackendId::ParallelCpu).deterministic_oracle);
        assert!(reg.caps(BackendId::SerialReference).deterministic_oracle);
        assert!(!reg.caps(BackendId::SerialReference).planner_candidate);
    }

    #[test]
    fn register_replaces_same_id() {
        let mut reg = BackendRegistry::builtin();
        reg.register(Arc::new(TiledCpu::new(32)));
        assert_eq!(reg.len(), BackendId::ALL.len());
        assert_eq!(reg.caps(BackendId::TiledCpu).tile_cols, Some(32));
    }

    #[test]
    fn unregistered_caps_fall_back_to_builtin() {
        let reg = BackendRegistry::empty();
        assert!(reg.is_empty());
        assert_eq!(reg.caps(BackendId::TiledCpu).tile_cols, Some(DEFAULT_TILE_COLS));
        assert!(reg.get(BackendId::ParallelCpu).is_none());
    }

    #[test]
    fn all_backends_agree_bit_identically_on_rowwise_plans() {
        let a = gen::mesh::tri_mesh(12, 12, true, 3);
        let plan = Plan { reorder: Some(Reordering::Rcm), ..Plan::baseline() };
        let oracle = prepared_product(&SerialReference, &a, plan);
        assert!(oracle.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        for backend in
            [&ParallelCpu as &dyn ExecutionBackend, &TiledCpu::new(16), &AdaptiveCpu::default()]
        {
            let got = prepared_product(backend, &a, plan);
            assert!(
                got.approx_eq(&oracle, 0.0),
                "{:?} diverges from the serial oracle",
                backend.id()
            );
        }
    }

    #[test]
    fn all_backends_agree_bit_identically_on_clusterwise_plans() {
        let a = gen::banded::block_diagonal(96, (4, 8), 0.1, 2);
        let plan = Plan {
            clustering: ClusteringStrategy::Variable,
            kernel: KernelChoice::ClusterWise,
            ..Plan::baseline()
        };
        let oracle = prepared_product(&SerialReference, &a, plan);
        assert!(oracle.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        for backend in
            [&ParallelCpu as &dyn ExecutionBackend, &TiledCpu::new(8), &AdaptiveCpu::default()]
        {
            let got = prepared_product(backend, &a, plan);
            assert!(
                got.approx_eq(&oracle, 0.0),
                "{:?} diverges from the serial oracle",
                backend.id()
            );
        }
    }

    #[test]
    fn column_tile_round_trips_through_hstack() {
        let b = gen::er::erdos_renyi_rect(40, 37, 4, 9);
        let w = 10;
        let ntiles = b.ncols.div_ceil(w);
        let parts: Vec<CsrMatrix> =
            (0..ntiles).map(|t| column_tile(&b, t * w, ((t + 1) * w).min(b.ncols))).collect();
        for p in &parts {
            p.validate().unwrap();
        }
        let back = hstack_tiles(&parts, w, b.ncols);
        assert!(back.approx_eq(&b, 0.0), "tiling must partition the columns exactly");
    }

    #[test]
    fn tiled_backend_degenerates_for_narrow_outputs() {
        let a = gen::grid::poisson2d(6, 6); // 36 cols < any sensible tile
        let plan = Plan::baseline();
        let tiled = prepared_product(&TiledCpu::new(512), &a, plan);
        let reference = prepared_product(&ParallelCpu, &a, plan);
        assert!(tiled.approx_eq(&reference, 0.0));
    }

    #[test]
    fn tiled_backend_handles_rectangular_rhs() {
        let a = gen::er::erdos_renyi(50, 5, 3);
        let b = gen::er::erdos_renyi_rect(50, 23, 3, 4);
        let cfg = ClusterConfig::default();
        let backend = TiledCpu::new(7);
        let plan = Plan::baseline();
        let (payload, _, _) = backend.prepare(&a, &plan, 7, &cfg);
        let got = backend.execute(payload.as_ref(), &plan, &b);
        assert!(got.numerically_eq(&spgemm_serial(&a, &b), 1e-9));
        assert_eq!(got.ncols, 23);
    }

    #[test]
    #[should_panic(expected = "foreign payload")]
    fn foreign_payload_is_rejected() {
        let a = gen::grid::poisson2d(4, 4);
        let plan = Plan::baseline();
        let (payload, _, _) = TiledCpu::new(8).prepare(&a, &plan, 7, &ClusterConfig::default());
        // A TiledOperand handed to the plain CPU backend must not be
        // silently misinterpreted.
        let _ = ParallelCpu.execute(payload.as_ref(), &plan, &a);
    }

    #[test]
    fn backend_ids_name_and_order() {
        assert_eq!(BackendId::default(), BackendId::ParallelCpu);
        let names: Vec<_> = BackendId::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["parallel-cpu", "serial-reference", "tiled-cpu", "adaptive-cpu"]);
        for id in BackendId::ALL {
            assert_eq!(BackendId::parse(id.name()), Some(id));
        }
    }
}
