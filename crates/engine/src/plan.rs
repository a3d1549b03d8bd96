//! Execution plans: what the planner decides, what `prepare` materializes.
//!
//! A [`Plan`] is the explicit, inspectable record of every choice the
//! paper's evaluation shows matters for SpGEMM throughput, each said once:
//! the row order — one of Table 1's reorderings, or hierarchical
//! clustering's sweep (Alg. 3) — whether the kernel runs in parallel, and
//! the output shape. No plan names a kernel — the prepared operand decides
//! between row-wise and cluster-wise — and the sparse accumulator is the
//! kernel's, not the plan's (see [`Plan::spgemm_options`]). Plans are plain
//! `Copy + Eq + Hash` data: building one does no work
//! ([`crate::PreparedMatrix`] materializes it), and the plan itself is the
//! cache and feedback identity of the pipeline it describes.

use cw_reorder::advisor::Suggestion;
use cw_reorder::Reordering;
use cw_spgemm::rowwise::SpGemmOptions;
use cw_spgemm::AccumulatorKind;

/// What portion of the product the caller wants back.
///
/// Output shape is a **plan field**, so plan-cache entries and
/// [`crate::FeedbackStore`] candidates for different shapes never collide
/// — a top-k request and a full request on the same operand learn and
/// cache independently. A shape is a row-local transform of the product
/// ([`cw_spgemm::row_topk`] / [`cw_spgemm::apply_mask`]), so it commutes
/// with row permutation and every plan stays bit-identical to the serial
/// product with that transform applied. Row-wise masked plans fuse the
/// mask into the kernel ([`cw_spgemm::spgemm_masked_with`]) and never
/// build the entries it drops; the other shaped plans compute the full
/// product and then apply the transform.
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

/// A complete, explicit recipe for one SpGEMM pipeline. Equal plans
/// produce byte-identical prepared operands, so `Plan` equality is cache
/// and feedback identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Plan {
    /// The operand's row order ([`Reordering::Original`] = keep input
    /// order; [`Reordering::Hierarchical`] = hierarchical clustering's).
    pub reorder: Reordering,
    /// Run the kernel's rayon-parallel path; `false` runs it on the calling
    /// thread, the serial oracle the parallel path is bit-identical to.
    pub parallel: bool,
    /// What portion of the product to return ([`OutputShape::Full`] by
    /// default). A masked plan expects the mask operand alongside the
    /// multiply call.
    pub shape: OutputShape,
}

impl Plan {
    /// The do-nothing plan: row-wise Gustavson on the matrix as given.
    pub fn baseline() -> Plan {
        Plan { reorder: Reordering::Original, parallel: true, shape: OutputShape::Full }
    }

    /// The same pipeline producing a different output shape
    /// (builder-style). The shaped plan is a different plan, so it caches
    /// and learns separately from the full-product one.
    pub fn with_shape(self, shape: OutputShape) -> Plan {
        Plan { shape, ..self }
    }

    /// Translates an advisor [`Suggestion`] into a plan skeleton
    /// (`parallel` keeps the baseline default; the planner tunes it
    /// afterwards from the operand's size).
    pub fn from_suggestion(suggestion: Suggestion) -> Plan {
        let reorder = match suggestion {
            Suggestion::Reorder(r) => r,
            Suggestion::Hierarchical => Reordering::Hierarchical,
            Suggestion::LeaveOriginal => Reordering::Original,
        };
        Plan { reorder, ..Plan::baseline() }
    }

    /// The kernel options this plan implies: always Dense, which the kernel
    /// runs wherever it fits the product's width and replaces with Hash, same
    /// bits, where it does not ([`AccumulatorKind::resolve`]; Nagasaka et
    /// al.: a dense SPA wins wherever it fits in cache).
    pub fn spgemm_options(&self) -> SpGemmOptions {
        SpGemmOptions { acc: AccumulatorKind::Dense, parallel: self.parallel }
    }

    /// True if materializing this plan computes a row order worth caching.
    pub fn has_preprocessing(&self) -> bool {
        self.reorder != Reordering::Original
    }

    /// Compact human-readable form, e.g. `Hierarchical @parallel`.
    pub fn describe(&self) -> String {
        let shape = match self.shape {
            OutputShape::Full => String::new(),
            other => format!(" ⊳{}", other.describe()),
        };
        format!(
            "{} @{}{shape}",
            self.reorder.name(),
            if self.parallel { "parallel" } else { "serial" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_plain_rowwise() {
        let p = Plan::baseline();
        assert_eq!(p.reorder, Reordering::Original);
        assert!(!p.has_preprocessing());
    }

    #[test]
    fn original_reorder_is_not_preprocessing() {
        assert!(!Plan::baseline().has_preprocessing());
        assert!(Plan { reorder: Reordering::Random, ..Plan::baseline() }.has_preprocessing());
    }

    #[test]
    fn suggestions_map_to_expected_pipelines() {
        let p = Plan::from_suggestion(Suggestion::Reorder(Reordering::Rcm));
        assert_eq!(p.reorder, Reordering::Rcm);
        assert!(p.has_preprocessing());

        let p = Plan::from_suggestion(Suggestion::Hierarchical);
        assert_eq!(p, Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() });
        assert!(p.has_preprocessing());

        let p = Plan::from_suggestion(Suggestion::LeaveOriginal);
        assert_eq!(p, Plan::baseline());
    }

    #[test]
    fn describe_names_all_stages() {
        let p = Plan::from_suggestion(Suggestion::Reorder(Reordering::Degree));
        assert_eq!(p.describe(), "Degree @parallel");
        let p = Plan::from_suggestion(Suggestion::Hierarchical).with_shape(OutputShape::TopK(3));
        assert_eq!(p.describe(), "Hierarchical @parallel ⊳top3");
    }

    #[test]
    fn backend_is_part_of_the_knobs_and_description() {
        // Where the kernel runs is the `parallel` field: it changes cache
        // identity and the description, which never claims a pool a serial
        // plan does not use.
        let p = Plan::baseline();
        assert!(p.parallel);
        let t = Plan { parallel: false, ..p };
        assert_ne!(p, t, "parallel must change cache identity");
        assert!(t.describe().ends_with("@serial"), "{}", t.describe());
        assert!(!t.describe().contains("parallel"), "{}", t.describe());
    }

    #[test]
    fn output_shape_is_part_of_the_knobs_and_description() {
        let full = Plan::baseline();
        assert_eq!(full.shape, OutputShape::Full);
        let topk = full.with_shape(OutputShape::TopK(8));
        let masked = full.with_shape(OutputShape::Masked);
        assert_ne!(full, topk, "shape must change cache identity");
        assert_ne!(topk, masked);
        assert!(topk.describe().contains("top8"), "{}", topk.describe());
        assert!(masked.describe().contains("masked"), "{}", masked.describe());
        assert!(!full.describe().contains("full"), "{}", full.describe());
    }

    #[test]
    fn options_round_trip() {
        let p = Plan { parallel: false, ..Plan::baseline() };
        let o = p.spgemm_options();
        assert_eq!(o.acc, AccumulatorKind::Dense);
        assert!(!o.parallel);
    }
}
