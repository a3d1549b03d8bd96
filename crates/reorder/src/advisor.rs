//! Reordering advisor — a rule-based realization of the paper's future-work
//! item ("using machine learning to predict the best choice of reordering
//! combined with the best clustering scheme", §5).
//!
//! The evaluation's empirical findings reduce to a small decision surface
//! over cheap structural statistics:
//!
//! * rows already similar in order (high consecutive Jaccard) → keep the
//!   order;
//! * mesh-like matrices with destroyed locality (low bandwidth ratio is
//!   recoverable, bounded degree) → RCM / GP (paper Fig. 9);
//! * power-law degree distributions → Degree / SlashBurn families;
//! * unstructured uniform sparsity → nothing helps, keep Original
//!   (paper: "no one-size-fits-all reordering method");
//! * everything else → hierarchical clustering, the balanced default.
//!
//! The advisor returns a ranked list so callers can fall through under a
//! preprocessing budget.

use crate::Reordering;
use cw_sparse::stats::{stats, MatrixStats};
use cw_sparse::CsrMatrix;

/// What the advisor suggests doing with the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suggestion {
    /// Apply this reordering before SpGEMM.
    Reorder(Reordering),
    /// Order the rows by hierarchical clustering ([`Reordering::Hierarchical`]).
    Hierarchical,
    /// Leave the matrix alone; no technique is predicted to pay off.
    LeaveOriginal,
}

/// Structural profile driving the decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Degree skew: max row nnz over mean row nnz.
    pub degree_skew: f64,
    /// Bandwidth as a fraction of n.
    pub relative_bandwidth: f64,
    /// Mean Jaccard similarity of consecutive rows.
    pub consecutive_jaccard: f64,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
}

/// One advisor suggestion with the rule that ranked it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedSuggestion {
    /// The suggested technique.
    pub suggestion: Suggestion,
    /// One-line explanation of why this suggestion ranked where it did.
    pub why: &'static str,
}

/// The advisor's full output: the profile it measured and the ranked
/// suggestions with their rationale, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// The structural profile the ranking was derived from.
    pub profile: Profile,
    /// Ranked suggestions, best first; never empty.
    pub ranked: Vec<RankedSuggestion>,
}

/// Computes the advisor's input profile from matrix statistics.
pub fn profile(a: &CsrMatrix) -> Profile {
    let s: MatrixStats = stats(a);
    let mean = s.avg_row_nnz.max(1e-9);
    Profile {
        degree_skew: s.max_row_nnz as f64 / mean,
        relative_bandwidth: if s.nrows == 0 { 0.0 } else { s.bandwidth as f64 / s.nrows as f64 },
        consecutive_jaccard: s.avg_consecutive_jaccard,
        avg_row_nnz: s.avg_row_nnz,
    }
}

/// Ranked suggestions (best first) for accelerating SpGEMM on `a`.
/// Shorthand for [`advise_profiled`] when only the ordering matters.
pub fn advise(a: &CsrMatrix) -> Vec<Suggestion> {
    advise_profiled(a).ranked.into_iter().map(|r| r.suggestion).collect()
}

/// Ranked suggestions for `a` with the profile and per-suggestion rationale
/// attached. The order is identical to [`advise`].
pub fn advise_profiled(a: &CsrMatrix) -> Advice {
    let p = profile(a);
    let rank = |suggestion, why| RankedSuggestion { suggestion, why };
    let ranked = if p.consecutive_jaccard >= 0.5 {
        // Rows are already grouped; reordering risks destroying that (paper:
        // shuffling a good order has GM 0.43).
        vec![rank(Suggestion::LeaveOriginal, "consecutive rows already similar; keep their order")]
    } else if p.degree_skew >= 8.0 {
        // Heavy-tailed graphs: hub-grouping orders; partitioners struggle
        // (no small separators), meshes' RCM irrelevant.
        vec![
            rank(
                Suggestion::Reorder(Reordering::Degree),
                "heavy-tailed degrees; group hubs by degree",
            ),
            rank(
                Suggestion::Reorder(Reordering::SlashBurn),
                "heavy-tailed degrees; SlashBurn hub/spoke order",
            ),
            rank(Suggestion::Hierarchical, "fallback: balanced default"),
        ]
    } else if p.avg_row_nnz <= 16.0 && p.relative_bandwidth > 0.25 {
        // Bounded-degree, scattered numbering: the scrambled-mesh case
        // where RCM/GP/HP win up to an order of magnitude (paper Fig. 9).
        vec![
            rank(
                Suggestion::Reorder(Reordering::Rcm),
                "bounded degree, scattered numbering; RCM recovers the band",
            ),
            rank(
                Suggestion::Reorder(Reordering::Gp(16)),
                "bounded degree, scattered numbering; partition for locality",
            ),
            rank(Suggestion::Hierarchical, "fallback: balanced default"),
        ]
    } else if p.relative_bandwidth <= 0.05 {
        vec![rank(Suggestion::LeaveOriginal, "already banded; nothing to recover")]
    } else {
        // Default: the paper's balanced recommendation.
        vec![
            rank(Suggestion::Hierarchical, "no dominant structure; balanced default"),
            rank(
                Suggestion::Reorder(Reordering::Gp(16)),
                "no dominant structure; partitioning sometimes pays",
            ),
            rank(Suggestion::LeaveOriginal, "fallback: leave the matrix alone"),
        ]
    };
    Advice { profile: p, ranked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;

    #[test]
    fn grouped_rows_keep_their_order() {
        let a = gen::banded::block_diagonal(128, (6, 8), 0.0, 1);
        assert_eq!(advise(&a), vec![Suggestion::LeaveOriginal]);
    }

    #[test]
    fn scrambled_mesh_suggests_rcm_family() {
        let a = gen::mesh::tri_mesh(24, 24, true, 3);
        let first = advise(&a)[0];
        assert!(
            matches!(first, Suggestion::Reorder(Reordering::Rcm | Reordering::Gp(_))),
            "{first:?}"
        );
    }

    #[test]
    fn powerlaw_suggests_hub_orders() {
        let a = gen::rmat::rmat(10, 8, gen::rmat::RmatParams::default(), 3);
        let first = advise(&a)[0];
        assert!(
            matches!(first, Suggestion::Reorder(Reordering::Degree | Reordering::SlashBurn)),
            "{first:?}"
        );
    }

    #[test]
    fn natural_band_suggests_leaving_alone() {
        let a = gen::grid::poisson2d(64, 4); // bandwidth 64 of 256 rows... narrow band
        let s = advise(&a);
        assert!(s.contains(&Suggestion::LeaveOriginal), "{s:?}");
    }

    #[test]
    fn advice_is_never_empty_and_deterministic() {
        for (i, a) in [
            gen::er::erdos_renyi(100, 5, 1),
            gen::kkt::kkt(80, 20, 2, 3, 2),
            gen::road::road(12, 12, 0.9, 4, 5),
        ]
        .into_iter()
        .enumerate()
        {
            let s1 = advise(&a);
            let s2 = advise(&a);
            assert!(!s1.is_empty(), "case {i}");
            assert_eq!(s1, s2, "case {i}");
        }
    }

    #[test]
    fn advise_profiled_matches_advise_order_with_sane_features() {
        for a in [
            gen::banded::block_diagonal(128, (6, 8), 0.0, 1),
            gen::mesh::tri_mesh(24, 24, true, 3),
            gen::rmat::rmat(10, 8, gen::rmat::RmatParams::default(), 3),
            gen::er::erdos_renyi(100, 5, 1),
        ] {
            let advice = advise_profiled(&a);
            let order: Vec<Suggestion> = advice.ranked.iter().map(|r| r.suggestion).collect();
            assert_eq!(order, advise(&a), "advise must be the projection of advise_profiled");
            assert!(advice.ranked.iter().all(|r| !r.why.is_empty()));
        }
    }

    #[test]
    fn profile_fields_are_sane() {
        let a = gen::grid::poisson2d(10, 10);
        let p = profile(&a);
        assert!(p.degree_skew >= 1.0);
        assert!((0.0..=1.0).contains(&p.consecutive_jaccard));
        assert!(p.avg_row_nnz > 0.0);
    }
}
