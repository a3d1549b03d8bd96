//! Multilevel graph bisection and recursive k-way partitioning
//! (the METIS recipe: coarsen → initial partition → uncoarsen + refine).

use crate::fm::fm_refine;
use crate::graph::Graph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Heavy-edge matching: visits vertices in random order, matching each
/// unmatched vertex with its heaviest unmatched neighbor. Returns
/// `match_of[v]` (`== v` for unmatched vertices).
pub(crate) fn heavy_edge_matching(g: &Graph, rng: &mut SmallRng) -> Vec<u32> {
    let n = g.nvtx();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    for &v in &order {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        let (nbrs, wgts) = g.neighbors(v);
        let mut best: Option<(u64, u32)> = None;
        for (&u, &w) in nbrs.iter().zip(wgts) {
            if u as usize != v && !matched[u as usize] {
                match best {
                    Some((bw, bu)) if (w, u) <= (bw, bu) => {}
                    _ => best = Some((w, u)),
                }
            }
        }
        if let Some((_, u)) = best {
            matched[v] = true;
            matched[u as usize] = true;
            match_of[v] = u;
            match_of[u as usize] = v as u32;
        }
    }
    match_of
}

/// Contracts a matching: returns the coarse graph and the fine→coarse map.
pub(crate) fn contract(g: &Graph, match_of: &[u32]) -> (Graph, Vec<u32>) {
    let n = g.nvtx();
    let mut cmap = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        let u = match_of[v] as usize;
        if cmap[v] == u32::MAX {
            cmap[v] = nc;
            cmap[u] = nc; // u == v for unmatched
            nc += 1;
        }
    }
    let nc = nc as usize;
    // Gather fine members per coarse vertex (1 or 2 each).
    let mut members: Vec<Vec<u32>> = vec![Vec::with_capacity(2); nc];
    for (v, &cm) in cmap.iter().enumerate().take(n) {
        let c = cm as usize;
        if members[c].last() != Some(&(v as u32)) {
            members[c].push(v as u32);
        }
    }
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0usize);
    let mut adjncy: Vec<u32> = Vec::with_capacity(g.adjncy.len());
    let mut adjwgt: Vec<u64> = Vec::with_capacity(g.adjncy.len());
    let mut vwgt = vec![0u64; nc];
    // Marker array: pos[c] = index into the adjacency being built, or MAX.
    let mut pos = vec![u32::MAX; nc];
    for c in 0..nc {
        let row_start = adjncy.len();
        for &v in &members[c] {
            vwgt[c] += g.vwgt[v as usize];
            let (nbrs, wgts) = g.neighbors(v as usize);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let cu = cmap[u as usize] as usize;
                if cu == c {
                    continue; // contracted internal edge
                }
                if pos[cu] == u32::MAX {
                    pos[cu] = adjncy.len() as u32;
                    adjncy.push(cu as u32);
                    adjwgt.push(w);
                } else {
                    adjwgt[pos[cu] as usize] += w;
                }
            }
        }
        for &u in &adjncy[row_start..] {
            pos[u as usize] = u32::MAX;
        }
        xadj.push(adjncy.len());
    }
    (Graph { xadj, adjncy, adjwgt, vwgt }, cmap)
}

/// Greedy graph growing: BFS-grow part 0 from a random-ish start until its
/// vertex weight reaches `target0`; everything else is part 1. Jumps to a
/// fresh component if the frontier empties early.
fn greedy_growing(g: &Graph, target0: u64, rng: &mut SmallRng) -> Vec<u32> {
    let n = g.nvtx();
    let mut parts = vec![1u32; n];
    if n == 0 || target0 == 0 {
        return parts;
    }
    let mut w0 = 0u64;
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    let start = rng.gen_range(0..n);
    queue.push_back(start as u32);
    visited[start] = true;
    let mut scan = 0usize; // fallback cursor for disconnected graphs
    while w0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v as usize,
            None => {
                while scan < n && visited[scan] {
                    scan += 1;
                }
                if scan >= n {
                    break;
                }
                visited[scan] = true;
                scan
            }
        };
        parts[v] = 0;
        w0 += g.vwgt[v];
        let (nbrs, _) = g.neighbors(v);
        for &u in nbrs {
            if !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    parts
}

/// Coarsening stops once a graph has at most this many vertices.
const COARSEN_TO: usize = 64;

/// Random initial partitions tried on the coarsest graph; the best cut wins.
const INIT_TRIES: usize = 4;

/// Multilevel 2-way partition. `frac0` is the target fraction of total
/// vertex weight in part 0 (0.5 for a balanced bisection). Returns the part
/// labels and the achieved edge cut.
pub fn bisect_graph(g: &Graph, frac0: f64, seed: u64) -> (Vec<u32>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // --- coarsening ---
    let mut graphs: Vec<Graph> = vec![g.clone()];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    loop {
        let cur = graphs.last().unwrap();
        if cur.nvtx() <= COARSEN_TO {
            break;
        }
        let m = heavy_edge_matching(cur, &mut rng);
        let (coarse, cmap) = contract(cur, &m);
        // Matching failure (e.g. star graphs) => diminishing returns; stop
        // when contraction shrinks the graph by < 10%.
        if coarse.nvtx() as f64 > cur.nvtx() as f64 * 0.9 {
            break;
        }
        graphs.push(coarse);
        maps.push(cmap);
    }
    // --- initial partition on the coarsest graph ---
    let coarsest = graphs.last().unwrap();
    let target0 = (coarsest.total_vwgt() as f64 * frac0).round().max(0.0) as u64;
    let mut best_parts: Option<(Vec<u32>, u64)> = None;
    for _ in 0..INIT_TRIES {
        let mut parts = greedy_growing(coarsest, target0, &mut rng);
        let cut = fm_refine(coarsest, &mut parts, target0);
        if best_parts.as_ref().is_none_or(|&(_, bc)| cut < bc) {
            best_parts = Some((parts, cut));
        }
    }
    let (mut parts, mut cut) = best_parts.unwrap();
    // --- uncoarsening + refinement ---
    for lvl in (0..maps.len()).rev() {
        let fine = &graphs[lvl];
        let cmap = &maps[lvl];
        let mut fine_parts = vec![0u32; fine.nvtx()];
        for v in 0..fine.nvtx() {
            fine_parts[v] = parts[cmap[v] as usize];
        }
        let target_fine = (fine.total_vwgt() as f64 * frac0).round() as u64;
        cut = fm_refine(fine, &mut fine_parts, target_fine);
        parts = fine_parts;
    }
    (parts, cut)
}

/// Recursive-bisection k-way partition (the METIS_PartGraphRecursive
/// analogue). Returns one part id in `0..k` per vertex.
pub fn partition_graph(g: &Graph, k: usize, seed: u64) -> Vec<u32> {
    assert!(k >= 1);
    let mut parts = vec![0u32; g.nvtx()];
    if k == 1 || g.nvtx() == 0 {
        return parts;
    }
    let vertices: Vec<u32> = (0..g.nvtx() as u32).collect();
    recurse_kway(g, &vertices, k, 0, seed, &mut parts);
    parts
}

fn recurse_kway(
    root: &Graph,
    vertices: &[u32],
    k: usize,
    base_label: u32,
    seed: u64,
    out: &mut [u32],
) {
    if k == 1 || vertices.is_empty() {
        for &v in vertices {
            out[v as usize] = base_label;
        }
        return;
    }
    let k0 = k / 2;
    let k1 = k - k0;
    let (sub, map) = root.subgraph(vertices);
    let frac0 = k0 as f64 / k as f64;
    let (parts, _) = bisect_graph(&sub, frac0, seed);
    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    for (loc, &p) in parts.iter().enumerate() {
        if p == 0 {
            side0.push(map[loc]);
        } else {
            side1.push(map[loc]);
        }
    }
    recurse_kway(root, &side0, k0, base_label, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1), out);
    recurse_kway(
        root,
        &side1,
        k1,
        base_label + k0 as u32,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(2),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_cut, imbalance};
    use cw_sparse::gen::grid::poisson2d;
    use cw_sparse::gen::mesh::tri_mesh;

    #[test]
    fn matching_is_symmetric_and_valid() {
        let g = Graph::from_matrix(&poisson2d(8, 8));
        let mut rng = SmallRng::seed_from_u64(1);
        let m = heavy_edge_matching(&g, &mut rng);
        for v in 0..g.nvtx() {
            let u = m[v] as usize;
            assert_eq!(m[u] as usize, v, "matching not symmetric at {v}");
        }
    }

    #[test]
    fn contract_preserves_total_weight_and_edges() {
        let g = Graph::from_matrix(&poisson2d(6, 6));
        let mut rng = SmallRng::seed_from_u64(2);
        let m = heavy_edge_matching(&g, &mut rng);
        let (coarse, cmap) = contract(&g, &m);
        assert_eq!(coarse.total_vwgt(), g.total_vwgt());
        assert!(coarse.nvtx() < g.nvtx());
        // Every fine edge is either internal to a coarse vertex or present.
        for v in 0..g.nvtx() {
            let (nbrs, _) = g.neighbors(v);
            for &u in nbrs {
                let (cv, cu) = (cmap[v], cmap[u as usize]);
                if cv != cu {
                    let (cn, _) = coarse.neighbors(cv as usize);
                    assert!(cn.contains(&cu));
                }
            }
        }
    }

    #[test]
    fn bisection_of_grid_is_good() {
        let a = poisson2d(16, 16);
        let g = Graph::from_matrix(&a);
        let (parts, cut) = bisect_graph(&g, 0.5, 7);
        assert_eq!(edge_cut(&g, &parts), cut);
        // Optimal is 16; multilevel should be within 2x.
        assert!(cut <= 32, "cut {cut}");
        assert!(imbalance(&g, &parts, 2) < 1.15, "imbalance {}", imbalance(&g, &parts, 2));
    }

    #[test]
    fn bisection_deterministic() {
        let g = Graph::from_matrix(&poisson2d(10, 10));
        let (p1, c1) = bisect_graph(&g, 0.5, 3);
        let (p2, c2) = bisect_graph(&g, 0.5, 3);
        assert_eq!(p1, p2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn kway_partition_covers_all_labels() {
        let a = tri_mesh(16, 16, true, 4);
        let g = Graph::from_matrix(&a);
        let k = 8;
        let parts = partition_graph(&g, k, 5);
        let mut counts = vec![0usize; k];
        for &p in &parts {
            assert!((p as usize) < k);
            counts[p as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "part {i} empty");
        }
        let max = *counts.iter().max().unwrap() as f64;
        let ideal = g.nvtx() as f64 / k as f64;
        assert!(max / ideal < 1.5, "kway imbalance {}", max / ideal);
    }

    #[test]
    fn kway_k1_is_trivial() {
        let g = Graph::from_matrix(&poisson2d(4, 4));
        assert!(partition_graph(&g, 1, 0).iter().all(|&p| p == 0));
    }

    #[test]
    fn partition_quality_beats_random_on_mesh() {
        let a = tri_mesh(20, 20, true, 9);
        let g = Graph::from_matrix(&a);
        let (parts, cut) = bisect_graph(&g, 0.5, 11);
        // Random bisection expectation: ~half the edges cut.
        let random_cut = g.nedges() as u64 / 2;
        assert!(cut * 3 < random_cut, "cut {cut} vs random {random_cut}");
        assert!(imbalance(&g, &parts, 2) < 1.15);
    }

    #[test]
    fn disconnected_graph_bisects() {
        // Two 4x4 grids, no connection.
        let a = poisson2d(4, 4);
        let n = 16;
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        let g1 = Graph::from_matrix(&a);
        for copy in 0..2 {
            for v in 0..n {
                let (nbrs, _) = g1.neighbors(v);
                for &u in nbrs {
                    adjncy.push(u + (copy * n) as u32);
                }
                xadj.push(adjncy.len());
            }
        }
        let ne = adjncy.len();
        let g = Graph { xadj, adjncy, adjwgt: vec![1; ne], vwgt: vec![1; 2 * n] };
        let (parts, cut) = bisect_graph(&g, 0.5, 1);
        // Perfect split: one component each side, zero cut.
        assert_eq!(cut, 0, "parts: {parts:?}");
        assert!(imbalance(&g, &parts, 2) < 1.05);
    }
}
