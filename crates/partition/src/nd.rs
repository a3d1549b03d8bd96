//! Vertex separators and nested-dissection ordering (George 1973).
//!
//! ND recursively bisects the graph, orders the two halves first, and places
//! the separator vertices last. Fill-reducing for factorization, and — the
//! property the paper cares about — groups structurally-related rows into
//! contiguous index ranges.

use crate::graph::Graph;
use crate::multilevel::bisect_graph;

/// Subgraphs of at most this many vertices are not dissected further.
const LEAF_SIZE: usize = 64;

/// Extracts a vertex separator from a 2-way partition: the smaller of the
/// two boundary sides. Removing it disconnects the remaining parts (every
/// cut edge has an endpoint in each boundary; taking one full side covers
/// all cut edges).
pub(crate) fn separator_from_bisection(g: &Graph, parts: &[u32]) -> Vec<u32> {
    let mut b0 = Vec::new();
    let mut b1 = Vec::new();
    for v in 0..g.nvtx() {
        let (nbrs, _) = g.neighbors(v);
        if nbrs.iter().any(|&u| parts[u as usize] != parts[v]) {
            if parts[v] == 0 {
                b0.push(v as u32);
            } else {
                b1.push(v as u32);
            }
        }
    }
    if b0.len() <= b1.len() {
        b0
    } else {
        b1
    }
}

/// Nested-dissection ordering: returns a `new → old` order (a vertex list)
/// with halves first and separators last at every level. Subgraphs of at
/// most `LEAF_SIZE` (64) vertices are ordered by ascending degree (a cheap
/// minimum-degree surrogate).
pub fn nested_dissection_order(g: &Graph, seed: u64) -> Vec<u32> {
    let mut order = Vec::with_capacity(g.nvtx());
    let vertices: Vec<u32> = (0..g.nvtx() as u32).collect();
    nd_rec(g, vertices, seed, &mut order);
    order
}

fn nd_rec(root: &Graph, vertices: Vec<u32>, seed: u64, out: &mut Vec<u32>) {
    if vertices.len() <= LEAF_SIZE {
        let mut vs = vertices;
        vs.sort_by_key(|&v| (root.degree(v as usize), v));
        out.extend_from_slice(&vs);
        return;
    }
    let (sub, map) = root.subgraph(&vertices);
    let (parts, cut) = bisect_graph(&sub, 0.5, seed);
    if cut == 0 {
        // Disconnected: order side 0 then side 1 with no separator.
        let side0: Vec<u32> =
            map.iter().zip(&parts).filter_map(|(&v, &p)| (p == 0).then_some(v)).collect();
        let side1: Vec<u32> =
            map.iter().zip(&parts).filter_map(|(&v, &p)| (p == 1).then_some(v)).collect();
        if side0.is_empty() || side1.is_empty() {
            // Degenerate bisection; fall back to degree order to guarantee
            // progress.
            let mut vs = if side0.is_empty() { side1 } else { side0 };
            vs.sort_by_key(|&v| (root.degree(v as usize), v));
            out.extend_from_slice(&vs);
            return;
        }
        nd_rec(root, side0, next_seed(seed, 1), out);
        nd_rec(root, side1, next_seed(seed, 2), out);
        return;
    }
    let sep_local = separator_from_bisection(&sub, &parts);
    let mut in_sep = vec![false; sub.nvtx()];
    for &v in &sep_local {
        in_sep[v as usize] = true;
    }
    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    let mut sep = Vec::with_capacity(sep_local.len());
    for (loc, &p) in parts.iter().enumerate() {
        let global = map[loc];
        if in_sep[loc] {
            sep.push(global);
        } else if p == 0 {
            side0.push(global);
        } else {
            side1.push(global);
        }
    }
    if side0.is_empty() && side1.is_empty() {
        // Separator swallowed everything (tiny dense graph): emit directly.
        sep.sort_by_key(|&v| (root.degree(v as usize), v));
        out.extend_from_slice(&sep);
        return;
    }
    nd_rec(root, side0, next_seed(seed, 1), out);
    nd_rec(root, side1, next_seed(seed, 2), out);
    // Separator last (eliminated after both halves).
    sep.sort_by_key(|&v| (root.degree(v as usize), v));
    out.extend_from_slice(&sep);
}

fn next_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::grid::poisson2d;
    use cw_sparse::gen::mesh::tri_mesh;
    use cw_sparse::Permutation;

    #[test]
    fn separator_disconnects() {
        let a = poisson2d(8, 8);
        let g = Graph::from_matrix(&a);
        let (parts, _) = bisect_graph(&g, 0.5, 3);
        let sep = separator_from_bisection(&g, &parts);
        assert!(!sep.is_empty());
        // Remove separator; remaining graph must have no cut edge between
        // part 0 and part 1 remnants.
        let mut in_sep = vec![false; g.nvtx()];
        for &v in &sep {
            in_sep[v as usize] = true;
        }
        for v in 0..g.nvtx() {
            if in_sep[v] {
                continue;
            }
            let (nbrs, _) = g.neighbors(v);
            for &u in nbrs {
                if !in_sep[u as usize] {
                    assert_eq!(parts[v], parts[u as usize], "edge {v}-{u} crosses after removal");
                }
            }
        }
        // Separator should be small relative to the graph (8x8 grid: ~8).
        assert!(sep.len() <= 16, "separator size {}", sep.len());
    }

    #[test]
    fn nd_order_is_permutation() {
        let a = tri_mesh(10, 10, true, 5);
        let g = Graph::from_matrix(&a);
        let ord = nested_dissection_order(&g, 1);
        assert_eq!(ord.len(), g.nvtx());
        assert!(Permutation::from_new_to_old(ord).is_ok());
    }

    #[test]
    fn nd_deterministic() {
        let g = Graph::from_matrix(&poisson2d(16, 16));
        assert_eq!(nested_dissection_order(&g, 2), nested_dissection_order(&g, 2));
    }

    #[test]
    fn nd_on_path_puts_a_middle_vertex_late() {
        // On a path, the first separator is near the middle and must be
        // ordered after both halves (each of which is then one leaf).
        let n = 129;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut r = vec![(i, 2.0)];
            if i > 0 {
                r.push((i - 1, 1.0));
            }
            if i + 1 < n {
                r.push((i + 1, 1.0));
            }
            rows.push(r);
        }
        let a = cw_sparse::CsrMatrix::from_row_lists(n, rows);
        let g = Graph::from_matrix(&a);
        let ord = nested_dissection_order(&g, 7);
        let last = *ord.last().unwrap() as usize;
        assert!(
            (n / 4..=3 * n / 4).contains(&last),
            "last-ordered vertex {last} is not an interior separator"
        );
    }

    #[test]
    fn nd_small_graph_degenerates_gracefully() {
        let g = Graph::from_matrix(&poisson2d(2, 2));
        let ord = nested_dissection_order(&g, 0);
        assert_eq!(ord.len(), 4);
        assert!(Permutation::from_new_to_old(ord).is_ok());
    }
}
