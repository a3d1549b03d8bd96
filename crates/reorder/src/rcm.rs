//! Reverse Cuthill–McKee ordering (Cuthill & McKee 1969; Liu & Sherman
//! 1976) with George–Liu pseudo-peripheral starting vertices.
//!
//! CM performs a BFS from a peripheral vertex, visiting each level's
//! vertices in ascending degree; RCM reverses the resulting sequence, which
//! Liu & Sherman showed never increases (and usually decreases) fill. The
//! effect the paper cares about: nonzeros concentrate near the diagonal, so
//! consecutive rows of `A` touch overlapping column ranges of `B`.

use cw_partition::graph::Bfs;
use cw_partition::Graph;
use cw_sparse::{CsrMatrix, Permutation};
use std::collections::VecDeque;

/// Computes the RCM permutation of a square matrix (pattern symmetrized).
pub fn rcm_order(a: &CsrMatrix) -> Permutation {
    let g = Graph::from_matrix(a);
    let n = g.nvtx();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let mut nbr_buf: Vec<u32> = Vec::new();
    let mut bfs = Bfs::new(n);

    // Process components in order of their smallest vertex (deterministic).
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = g.pseudo_peripheral_with(start, &mut bfs);
        visited[root] = true;
        queue.push_back(root as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let (nbrs, _) = g.neighbors(v as usize);
            nbr_buf.clear();
            nbr_buf.extend(nbrs.iter().copied().filter(|&u| !visited[u as usize]));
            // CM rule: enqueue unvisited neighbors by ascending degree.
            nbr_buf.sort_by_key(|&u| (g.degree(u as usize), u));
            for &u in &nbr_buf {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse(); // the "R" in RCM
    Permutation::from_new_to_old(order).expect("RCM produced a non-permutation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::grid::poisson2d;
    use cw_sparse::gen::mesh::tri_mesh;
    use cw_sparse::stats::bandwidth;
    use cw_sparse::Permutation as P;

    #[test]
    fn rcm_is_a_permutation_on_disconnected_graphs() {
        // Block-diagonal disconnected matrix.
        let a = cw_sparse::gen::banded::block_diagonal(40, (5, 5), 0.0, 1);
        let p = rcm_order(&a);
        assert_eq!(p.len(), 40);
    }

    #[test]
    fn rcm_restores_scrambled_grid_bandwidth() {
        let natural = poisson2d(12, 12);
        let bw_natural = bandwidth(&natural);
        // Scramble, then RCM.
        let shuffle = crate::random_permutation(144, 3);
        let scrambled = shuffle.permute_symmetric(&natural);
        assert!(bandwidth(&scrambled) > 3 * bw_natural);
        let p = rcm_order(&scrambled);
        let restored = p.permute_symmetric(&scrambled);
        // RCM should get within ~2x of the natural grid bandwidth.
        assert!(
            bandwidth(&restored) <= 2 * bw_natural + 2,
            "restored bandwidth {} vs natural {}",
            bandwidth(&restored),
            bw_natural
        );
    }

    #[test]
    fn rcm_on_path_is_monotone() {
        // Path graph: RCM must produce an end-to-end sweep (bandwidth 1).
        let n = 20;
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
        let a = CsrMatrix::from_row_lists(n, rows);
        let shuffled = crate::random_permutation(n, 9).permute_symmetric(&a);
        let p = rcm_order(&shuffled);
        assert_eq!(bandwidth(&p.permute_symmetric(&shuffled)), 1);
    }

    #[test]
    fn rcm_deterministic() {
        let a = tri_mesh(9, 9, true, 2);
        assert_eq!(rcm_order(&a), rcm_order(&a));
    }

    #[test]
    fn rcm_identity_sized_edge_cases() {
        let a = CsrMatrix::identity(1);
        assert_eq!(rcm_order(&a), P::identity(1));
        let empty = CsrMatrix::zeros(0, 0);
        assert_eq!(rcm_order(&empty).len(), 0);
    }
}
