//! Execution plans: what the planner decides, what `prepare` materializes.
//!
//! A [`Plan`] is the explicit, inspectable record of every choice the
//! paper's evaluation shows matters for SpGEMM throughput: the row
//! reordering (Table 1), the clustering scheme (§3.2, Algs. 2–3), the
//! kernel (row-wise Gustavson vs cluster-wise, Alg. 1), the sparse
//! accumulator (Nagasaka et al.), and the parallelism knobs. Plans are
//! plain data — building one does no work; [`crate::PreparedMatrix`]
//! materializes it.

use crate::backend::BackendId;
use cw_reorder::advisor::Suggestion;
use cw_reorder::Reordering;
use cw_spgemm::rowwise::SpGemmOptions;
use cw_spgemm::AccumulatorKind;

/// Which multiply kernel executes the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Row-wise Gustavson over plain CSR (the paper's baseline, §2.2).
    RowWise,
    /// Cluster-wise computation over `CSR_Cluster` (paper Alg. 1).
    ClusterWise,
}

/// What portion of the product the caller wants back.
///
/// Output shape is a **plan knob**: it participates in [`Plan::knobs`], so
/// plan-cache entries, [`crate::FeedbackStore`] candidates, and cost-model
/// pricing for different shapes never collide — a top-k request and a full
/// request on the same operand learn and cache independently. Execution
/// computes the full product and applies the row-local shape transform
/// ([`cw_spgemm::row_topk`] / [`cw_spgemm::apply_mask`]), which commutes
/// with row permutation, so every backend stays bit-identical to the
/// serial reference per shape.
///
/// The mask operand itself is *request data*, not plan data — it travels
/// alongside the multiply (e.g. `cw_service`'s `RequestShape::Masked`)
/// while the plan only records *that* the output is masked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OutputShape {
    /// The whole product (the default).
    #[default]
    Full,
    /// Only entries at positions present in a caller-provided mask
    /// pattern (GraphBLAS-style `C⟨M⟩ = A·B`).
    Masked,
    /// The `k` largest-magnitude entries of each output row.
    TopK(usize),
}

impl OutputShape {
    /// Compact human-readable form, e.g. `full` / `masked` / `top4`.
    pub fn describe(&self) -> String {
        match self {
            OutputShape::Full => "full".to_string(),
            OutputShape::Masked => "masked".to_string(),
            OutputShape::TopK(k) => format!("top{k}"),
        }
    }
}

/// How the prepared operand's rows are grouped into clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusteringStrategy {
    /// No clustering; the operand stays in CSR.
    None,
    /// Equal-size clusters of the given length (paper §3.2).
    Fixed(usize),
    /// Jaccard-threshold growing (paper Alg. 2).
    Variable,
    /// Similar-row discovery + union-find merging; also reorders
    /// (paper Alg. 3).
    Hierarchical,
}

/// A complete, explicit recipe for one SpGEMM pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Row reordering applied to the operand before clustering
    /// (`None` = keep input order). Hierarchical clustering brings its own
    /// reordering and composes with this one.
    pub reorder: Option<Reordering>,
    /// Row-grouping strategy.
    pub clustering: ClusteringStrategy,
    /// Kernel executing the multiply.
    pub kernel: KernelChoice,
    /// Sparse accumulator the kernel is instantiated with.
    pub acc: AccumulatorKind,
    /// Run the kernel's rayon-parallel path.
    pub parallel: bool,
    /// Row/cluster chunks per rayon thread (load-balance granularity).
    pub chunks_per_thread: usize,
    /// Execution backend the plan runs on.
    pub backend: BackendId,
    /// What portion of the product to return ([`OutputShape::Full`] by
    /// default). A masked plan expects the mask operand alongside the
    /// multiply call.
    pub shape: OutputShape,
    /// One-line explanation of why the planner chose this plan.
    pub rationale: &'static str,
}

/// The behavior-determining subset of a [`Plan`] — everything except the
/// `rationale` metadata. Two plans with equal knobs produce identical
/// prepared operands, so this (not full `Plan` equality) is what cache
/// identity and plan comparison should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKnobs {
    /// See [`Plan::reorder`].
    pub reorder: Option<Reordering>,
    /// See [`Plan::clustering`].
    pub clustering: ClusteringStrategy,
    /// See [`Plan::kernel`].
    pub kernel: KernelChoice,
    /// See [`Plan::acc`].
    pub acc: AccumulatorKind,
    /// See [`Plan::parallel`].
    pub parallel: bool,
    /// See [`Plan::chunks_per_thread`].
    pub chunks_per_thread: usize,
    /// See [`Plan::backend`]. Backend identity is part of the knobs, so
    /// cache entries and feedback candidates are effectively keyed by
    /// `(fingerprint, pipeline knobs, backend)`.
    pub backend: BackendId,
    /// See [`Plan::shape`]. Output shape is part of the knobs, so
    /// preparations and feedback for different shapes never collide.
    pub shape: OutputShape,
}

impl Plan {
    /// The do-nothing plan: row-wise Gustavson on the matrix as given.
    pub fn baseline() -> Plan {
        Plan {
            reorder: None,
            clustering: ClusteringStrategy::None,
            kernel: KernelChoice::RowWise,
            acc: AccumulatorKind::Hash,
            parallel: true,
            chunks_per_thread: 8,
            backend: BackendId::ParallelCpu,
            shape: OutputShape::Full,
            rationale: "baseline row-wise Gustavson",
        }
    }

    /// The same pipeline on a different execution backend (builder-style;
    /// used to force a backend for ablations and cross-validation).
    pub fn on_backend(self, backend: BackendId) -> Plan {
        Plan { backend, ..self }
    }

    /// The same pipeline producing a different output shape
    /// (builder-style). Because the shape is a knob, the shaped plan
    /// caches and learns separately from the full-product one.
    pub fn with_shape(self, shape: OutputShape) -> Plan {
        Plan { shape, ..self }
    }

    /// Translates an advisor [`Suggestion`] into a plan skeleton
    /// (accumulator/parallelism knobs keep baseline defaults; the planner
    /// tunes them afterwards from the profile).
    pub fn from_suggestion(suggestion: Suggestion) -> Plan {
        match suggestion {
            Suggestion::Reorder(r) => Plan {
                reorder: Some(r),
                rationale: "advisor: reorder rows, then row-wise SpGEMM",
                ..Plan::baseline()
            },
            Suggestion::ClusterInPlace => Plan {
                clustering: ClusteringStrategy::Variable,
                kernel: KernelChoice::ClusterWise,
                rationale: "advisor: rows already similar in order; cluster in place",
                ..Plan::baseline()
            },
            Suggestion::Hierarchical => Plan {
                clustering: ClusteringStrategy::Hierarchical,
                kernel: KernelChoice::ClusterWise,
                rationale: "advisor: hierarchical clustering (reorders and clusters)",
                ..Plan::baseline()
            },
            Suggestion::LeaveOriginal => {
                Plan { rationale: "advisor: no technique predicted to pay off", ..Plan::baseline() }
            }
        }
    }

    /// The behavior-determining knobs, excluding the `rationale` string.
    pub fn knobs(&self) -> PlanKnobs {
        PlanKnobs {
            reorder: self.reorder,
            clustering: self.clustering,
            kernel: self.kernel,
            acc: self.acc,
            parallel: self.parallel,
            chunks_per_thread: self.chunks_per_thread,
            backend: self.backend,
            shape: self.shape,
        }
    }

    /// The kernel options this plan implies.
    pub fn spgemm_options(&self) -> SpGemmOptions {
        SpGemmOptions {
            acc: self.acc,
            parallel: self.parallel,
            chunks_per_thread: self.chunks_per_thread,
        }
    }

    /// True if materializing this plan does nontrivial preprocessing
    /// (reordering or cluster construction) worth caching.
    pub fn has_preprocessing(&self) -> bool {
        self.reorder.is_some_and(|r| r != Reordering::Original)
            || self.clustering != ClusteringStrategy::None
    }

    /// Compact human-readable form, e.g. `RCM → Variable → ClusterWise`.
    pub fn describe(&self) -> String {
        let reorder = match self.reorder {
            None => "Original".to_string(),
            Some(r) => r.name().to_string(),
        };
        let clustering = match self.clustering {
            ClusteringStrategy::None => "NoClustering".to_string(),
            ClusteringStrategy::Fixed(k) => format!("Fixed({k})"),
            ClusteringStrategy::Variable => "Variable".to_string(),
            ClusteringStrategy::Hierarchical => "Hierarchical".to_string(),
        };
        let kernel = match self.kernel {
            KernelChoice::RowWise => "RowWise",
            KernelChoice::ClusterWise => "ClusterWise",
        };
        let shape = match self.shape {
            OutputShape::Full => String::new(),
            other => format!(" ⊳{}", other.describe()),
        };
        format!(
            "{reorder} → {clustering} → {kernel} [{:?}] @{}{shape}",
            self.acc,
            self.backend.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_plain_rowwise() {
        let p = Plan::baseline();
        assert_eq!(p.reorder, None);
        assert_eq!(p.clustering, ClusteringStrategy::None);
        assert_eq!(p.kernel, KernelChoice::RowWise);
        assert!(!p.has_preprocessing());
    }

    #[test]
    fn suggestions_map_to_expected_pipelines() {
        let p = Plan::from_suggestion(Suggestion::Reorder(Reordering::Rcm));
        assert_eq!(p.reorder, Some(Reordering::Rcm));
        assert_eq!(p.kernel, KernelChoice::RowWise);
        assert!(p.has_preprocessing());

        let p = Plan::from_suggestion(Suggestion::ClusterInPlace);
        assert_eq!(p.clustering, ClusteringStrategy::Variable);
        assert_eq!(p.kernel, KernelChoice::ClusterWise);

        let p = Plan::from_suggestion(Suggestion::Hierarchical);
        assert_eq!(p.clustering, ClusteringStrategy::Hierarchical);
        assert_eq!(p.kernel, KernelChoice::ClusterWise);

        let p = Plan::from_suggestion(Suggestion::LeaveOriginal);
        assert!(!p.has_preprocessing());
    }

    #[test]
    fn original_reorder_is_not_preprocessing() {
        let p = Plan { reorder: Some(Reordering::Original), ..Plan::baseline() };
        assert!(!p.has_preprocessing());
    }

    #[test]
    fn describe_names_all_stages() {
        let p = Plan::from_suggestion(Suggestion::Reorder(Reordering::Degree));
        let s = p.describe();
        assert!(s.contains("Degree") && s.contains("RowWise"), "{s}");
    }

    #[test]
    fn backend_is_part_of_the_knobs_and_description() {
        let p = Plan::baseline();
        assert_eq!(p.backend, BackendId::ParallelCpu);
        let t = p.on_backend(BackendId::SerialReference);
        assert_ne!(p.knobs(), t.knobs(), "backend must change cache identity");
        assert!(t.describe().contains("serial-reference"), "{}", t.describe());
    }

    #[test]
    fn output_shape_is_part_of_the_knobs_and_description() {
        let full = Plan::baseline();
        assert_eq!(full.shape, OutputShape::Full);
        let topk = full.with_shape(OutputShape::TopK(8));
        let masked = full.with_shape(OutputShape::Masked);
        assert_ne!(full.knobs(), topk.knobs(), "shape must change cache identity");
        assert_ne!(topk.knobs(), masked.knobs());
        assert!(topk.describe().contains("top8"), "{}", topk.describe());
        assert!(masked.describe().contains("masked"), "{}", masked.describe());
        assert!(!full.describe().contains("full"), "{}", full.describe());
    }

    #[test]
    fn options_round_trip() {
        let p = Plan { acc: AccumulatorKind::Dense, parallel: false, ..Plan::baseline() };
        let o = p.spgemm_options();
        assert_eq!(o.acc, AccumulatorKind::Dense);
        assert!(!o.parallel);
        assert_eq!(o.chunks_per_thread, 8);
    }
}
