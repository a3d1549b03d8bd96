//! Fiduccia–Mattheyses 2-way refinement.
//!
//! Classic FM with the structure METIS uses for boundary refinement:
//! per-pass hill climbing with tentative moves, each vertex moved at most
//! once per pass, best-prefix rollback, and a vertex-weight balance
//! constraint. Gains are tracked with a lazy binary heap (stale entries are
//! versioned out), which keeps the implementation safe and simple while
//! staying `O(m log n)` per pass.

use crate::edge_cut;
use crate::graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Allowed part-0 weight range as a fraction of its target: a move is legal
/// while `w0 ∈ [target0/ratio, target0·ratio]`. Graph and hypergraph FM
/// share it.
pub(crate) const BALANCE_RATIO: f64 = 1.10;

/// Most improvement passes one refinement runs (graph and hypergraph FM).
pub(crate) const MAX_PASSES: usize = 8;

/// Computes the FM gain of every vertex: `Σ w(cut edges) − Σ w(internal
/// edges)` (positive = moving the vertex reduces the cut).
fn compute_gains(g: &Graph, parts: &[u32]) -> Vec<i64> {
    let mut gains = vec![0i64; g.nvtx()];
    for v in 0..g.nvtx() {
        let (nbrs, wgts) = g.neighbors(v);
        let mut gain = 0i64;
        for (&u, &w) in nbrs.iter().zip(wgts) {
            if parts[u as usize] != parts[v] {
                gain += w as i64;
            } else {
                gain -= w as i64;
            }
        }
        gains[v] = gain;
    }
    gains
}

/// Refines a 2-way partition in place. `target0` is the desired total vertex
/// weight of part 0 (supports unbalanced splits for recursive k-way).
/// Returns the final cut.
pub(crate) fn fm_refine(g: &Graph, parts: &mut [u32], target0: u64) -> u64 {
    let n = g.nvtx();
    if n == 0 {
        return 0;
    }
    let total: u64 = g.total_vwgt();
    let hi0 = ((target0 as f64) * BALANCE_RATIO).ceil() as u64;
    let lo0 = ((target0 as f64) / BALANCE_RATIO).floor() as u64;
    // Never let a nonzero target round down to an empty part (or a full
    // one): recursive k-way relies on both sides staying populated.
    let lo0 = lo0.clamp(u64::from(target0 > 0), total);
    let hi0 = hi0.min(total.saturating_sub(u64::from(target0 < total)));
    let hi0 = hi0.max(lo0);

    let mut cut = edge_cut(g, parts) as i64;
    let mut w0: u64 = (0..n).filter(|&v| parts[v] == 0).map(|v| g.vwgt[v]).sum();

    for _pass in 0..MAX_PASSES {
        let mut gains = compute_gains(g, parts);
        let mut version = vec![0u32; n];
        let mut locked = vec![false; n];
        // Max-heap of (gain, Reverse(vertex), version). Vertex tiebreak keeps
        // the pass deterministic.
        let mut heap: BinaryHeap<(i64, Reverse<u32>, u32)> =
            (0..n).map(|v| (gains[v], Reverse(v as u32), 0u32)).collect();

        let feasible = |w: u64| w >= lo0 && w <= hi0;
        let balance_dist = |w: u64| (w as i64 - target0 as i64).unsigned_abs();

        // Pass state: tentative move log and best prefix.
        let mut moves: Vec<u32> = Vec::new();
        let start_feasible = feasible(w0);
        let mut best: (bool, i64, u64) = (start_feasible, cut, balance_dist(w0));
        let mut best_prefix = 0usize;
        let mut cur_cut = cut;
        let mut cur_w0 = w0;

        while let Some((gain, Reverse(v), ver)) = heap.pop() {
            let v = v as usize;
            if locked[v] || ver != version[v] {
                continue;
            }
            // Would this move keep/achieve balance?
            let vw = g.vwgt[v];
            let new_w0 = if parts[v] == 0 { cur_w0 - vw } else { cur_w0 + vw };
            let legal = if feasible(cur_w0) {
                feasible(new_w0)
            } else {
                // If currently infeasible, only allow balance-improving moves.
                balance_dist(new_w0) < balance_dist(cur_w0)
            };
            if !legal {
                locked[v] = true; // cannot move this pass
                continue;
            }
            // Execute tentative move.
            let old_side = parts[v];
            parts[v] = 1 - old_side;
            cur_cut -= gain;
            cur_w0 = new_w0;
            locked[v] = true;
            moves.push(v as u32);
            // Update neighbor gains.
            let (nbrs, wgts) = g.neighbors(v);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                if parts[u] == old_side {
                    gains[u] += 2 * w as i64;
                } else {
                    gains[u] -= 2 * w as i64;
                }
                version[u] += 1;
                heap.push((gains[u], Reverse(u as u32), version[u]));
            }
            // Is this prefix the best so far?
            let state = (feasible(cur_w0), cur_cut, balance_dist(cur_w0));
            let better = match (state.0, best.0) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => state.1 < best.1,
                (false, false) => state.2 < best.2 || (state.2 == best.2 && state.1 < best.1),
            };
            if better {
                best = state;
                best_prefix = moves.len();
            }
        }

        // Roll back moves after the best prefix.
        for &v in moves[best_prefix..].iter().rev() {
            let v = v as usize;
            let vw = g.vwgt[v];
            if parts[v] == 0 {
                cur_w0 -= vw;
            } else {
                cur_w0 += vw;
            }
            parts[v] = 1 - parts[v];
        }
        let improved = best.1 < cut || (best.0 && !start_feasible);
        cut = best.1;
        w0 = cur_w0;
        debug_assert_eq!(cut, edge_cut(g, parts) as i64, "incremental cut drifted");
        if !improved {
            break;
        }
    }
    cut.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::grid::poisson2d;

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        Graph::from_matrix(&poisson2d(nx, ny))
    }

    #[test]
    fn fm_fixes_interleaved_partition() {
        // 8x4 grid with a pathological alternating partition.
        let g = grid_graph(8, 4);
        let mut parts: Vec<u32> = (0..32).map(|v| (v % 2) as u32).collect();
        let before = edge_cut(&g, &parts);
        let after = fm_refine(&g, &mut parts, 16);
        assert!(after < before, "FM should improve cut: {before} -> {after}");
        assert_eq!(after, edge_cut(&g, &parts));
        // A good 8x4 bisection cuts ~4 edges (one column cut).
        assert!(after <= 8, "cut {after} too large");
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert!((12..=20).contains(&w0), "imbalanced: {w0}");
    }

    #[test]
    fn fm_keeps_optimal_partition() {
        let g = grid_graph(6, 2);
        // Already optimal: left half vs right half (cut = 2).
        let mut parts: Vec<u32> = (0..12).map(|v| if v % 6 < 3 { 0 } else { 1 }).collect();
        let cut = fm_refine(&g, &mut parts, 6);
        assert_eq!(cut, 2);
    }

    #[test]
    fn fm_respects_unbalanced_target() {
        let g = grid_graph(10, 1); // path of 10
        let mut parts: Vec<u32> = (0..10).map(|v| if v < 5 { 0 } else { 1 }).collect();
        // Ask for 3/7 split.
        let _ = fm_refine(&g, &mut parts, 3);
        let w0 = parts.iter().filter(|&&p| p == 0).count() as u64;
        assert!((2..=4).contains(&w0), "w0={w0} not near target 3");
        // A path split anywhere has cut >= 1; FM must keep it at 1 contiguous cut.
        assert_eq!(edge_cut(&g, &parts), 1);
    }

    #[test]
    fn fm_recovers_from_infeasible_start() {
        let g = grid_graph(4, 4);
        // Everything in part 1 — infeasible for target 8.
        let mut parts = vec![1u32; 16];
        let _ = fm_refine(&g, &mut parts, 8);
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert!(w0 > 0, "FM failed to move anything toward balance");
        assert!((6..=10).contains(&w0), "w0={w0}");
    }

    #[test]
    fn gains_match_definition() {
        let g = grid_graph(3, 1); // path 0-1-2
        let parts = vec![0u32, 1, 1];
        let gains = compute_gains(&g, &parts);
        // v0: 1 cut edge -> +1; v1: 1 cut, 1 internal -> 0; v2: 1 internal -> -1.
        assert_eq!(gains, vec![1, 0, -1]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph { xadj: vec![0], adjncy: vec![], adjwgt: vec![], vwgt: vec![] };
        let mut parts: Vec<u32> = vec![];
        assert_eq!(fm_refine(&g, &mut parts, 0), 0);
    }
}
