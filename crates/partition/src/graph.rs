//! Weighted undirected graph representation and traversal utilities.

use cw_sparse::CsrMatrix;

/// An undirected graph in adjacency (CSR-like) form with vertex and edge
/// weights. Every edge is stored in both directions with equal weight; no
/// self-loops.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Adjacency offsets, `xadj.len() == nvtx + 1`.
    pub xadj: Vec<usize>,
    /// Neighbor lists.
    pub adjncy: Vec<u32>,
    /// Edge weights parallel to `adjncy`.
    pub adjwgt: Vec<u64>,
    /// Vertex weights.
    pub vwgt: Vec<u64>,
}

/// BFS state kept between passes over one graph: `level` is `u32::MAX`
/// wherever the last pass did not reach, and `order` lists what it reached,
/// in visiting order.
#[derive(Debug, Clone)]
pub struct Bfs {
    level: Vec<u32>,
    order: Vec<u32>,
}

impl Bfs {
    /// State for a graph of `nvtx` vertices.
    pub fn new(nvtx: usize) -> Bfs {
        Bfs { level: vec![u32::MAX; nvtx], order: Vec::new() }
    }
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn nvtx(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn nedges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbor ids and edge weights of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> (&[u32], &[u64]) {
        let lo = self.xadj[v];
        let hi = self.xadj[v + 1];
        (&self.adjncy[lo..hi], &self.adjwgt[lo..hi])
    }

    /// Degree of `v` (neighbor count).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Builds the adjacency graph of a square matrix: vertices are rows,
    /// edges connect `i ↔ j` when `a_ij` or `a_ji` is nonzero (`i ≠ j`).
    /// Unit vertex and edge weights.
    pub fn from_matrix(a: &CsrMatrix) -> Graph {
        let s = a.symmetrized_pattern();
        Graph {
            xadj: s.row_ptr.clone(),
            adjncy: s.col_idx.clone(),
            adjwgt: vec![1; s.nnz()],
            vwgt: vec![1; s.nrows],
        }
    }

    /// One BFS pass from `start` into `bfs`, forgetting the pass before it;
    /// returns the last vertex visited (one of the final level). Costs the
    /// component of `start`, not the graph.
    fn bfs_into(&self, start: usize, bfs: &mut Bfs) -> usize {
        for &v in &bfs.order {
            bfs.level[v as usize] = u32::MAX;
        }
        bfs.order.clear();
        bfs.level[start] = 0;
        bfs.order.push(start as u32);
        let mut head = 0;
        while head < bfs.order.len() {
            let v = bfs.order[head] as usize;
            head += 1;
            let (nbrs, _) = self.neighbors(v);
            for &u in nbrs {
                if bfs.level[u as usize] == u32::MAX {
                    bfs.level[u as usize] = bfs.level[v] + 1;
                    bfs.order.push(u);
                }
            }
        }
        bfs.order[head - 1] as usize
    }

    /// George–Liu style pseudo-peripheral vertex of the component containing
    /// `start`: repeat BFS from the farthest low-degree vertex of the last
    /// level until the eccentricity stops growing.
    ///
    /// The BFS state is the caller's, kept across the once-per-component
    /// calls: each call then costs its component, where a fresh
    /// `nvtx`-sized level array and a whole-graph scan per BFS cost the
    /// graph — quadratic in the number of components (thousands of 160 KB
    /// fills for RCM on a 40 000-row block matrix, at a speed that depends
    /// on where the allocator puts them).
    pub fn pseudo_peripheral_with(&self, start: usize, bfs: &mut Bfs) -> usize {
        let last = self.bfs_into(start, bfs);
        let mut ecc = bfs.level[last];
        loop {
            // Among the deepest level, pick the minimum-degree vertex
            // (lowest id on ties).
            let best = bfs
                .order
                .iter()
                .map(|&u| u as usize)
                .filter(|&u| bfs.level[u] == ecc)
                .min_by_key(|&u| (self.degree(u), u))
                .expect("the deepest level holds the last vertex visited");
            let last = self.bfs_into(best, bfs);
            if bfs.level[last] > ecc {
                ecc = bfs.level[last];
            } else {
                return best;
            }
        }
    }

    /// Extracts the vertex-induced subgraph over `vertices` (which need not
    /// be sorted). Returns the subgraph and the mapping `sub_id -> orig_id`.
    pub fn subgraph(&self, vertices: &[u32]) -> (Graph, Vec<u32>) {
        let mut global_to_local = vec![u32::MAX; self.nvtx()];
        for (loc, &v) in vertices.iter().enumerate() {
            global_to_local[v as usize] = loc as u32;
        }
        let mut xadj = Vec::with_capacity(vertices.len() + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(vertices.len());
        for &v in vertices {
            let (nbrs, wgts) = self.neighbors(v as usize);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let lu = global_to_local[u as usize];
                if lu != u32::MAX {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
            vwgt.push(self.vwgt[v as usize]);
        }
        (Graph { xadj, adjncy, adjwgt, vwgt }, vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::grid::poisson2d;

    fn path_graph(n: usize) -> Graph {
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len());
        }
        let ne = adjncy.len();
        Graph { xadj, adjncy, adjwgt: vec![1; ne], vwgt: vec![1; n] }
    }

    #[test]
    fn from_matrix_drops_diagonal() {
        let a = poisson2d(3, 3);
        let g = Graph::from_matrix(&a);
        assert_eq!(g.nvtx(), 9);
        // Poisson has diagonal + 4 neighbors; the graph keeps only neighbors.
        assert_eq!(g.degree(4), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.nedges(), 12);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(5);
        let mut bfs = Bfs::new(g.nvtx());
        assert_eq!(g.bfs_into(0, &mut bfs), 4, "the last vertex visited");
        assert_eq!(bfs.level, vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs.order.len(), 5);
    }

    #[test]
    fn pseudo_peripheral_of_path_is_endpoint() {
        let g = path_graph(9);
        let p = g.pseudo_peripheral_with(4, &mut Bfs::new(g.nvtx()));
        assert!(p == 0 || p == 8, "got {p}");
    }

    #[test]
    fn kept_bfs_state_does_not_leak_between_components() {
        // A mesh and, disconnected from it, a path: asking about one
        // component after the other on the same state must answer as a
        // fresh search does, in either order and repeatedly.
        let mesh = Graph::from_matrix(&poisson2d(4, 5));
        let path = path_graph(7);
        let shift = mesh.nvtx();
        let mut g = mesh.clone();
        g.xadj.extend(path.xadj[1..].iter().map(|&x| x + mesh.adjncy.len()));
        g.adjncy.extend(path.adjncy.iter().map(|&u| u + shift as u32));
        g.adjwgt.extend(&path.adjwgt);
        g.vwgt.extend(&path.vwgt);
        let mut bfs = Bfs::new(g.nvtx());
        for start in [7, shift + 3, 0, shift, 12, shift + 6] {
            let expect = g.pseudo_peripheral_with(start, &mut Bfs::new(g.nvtx()));
            assert_eq!(g.pseudo_peripheral_with(start, &mut bfs), expect, "start {start}");
            assert_eq!(expect >= shift, start >= shift, "the answer is in start's component");
        }
    }

    #[test]
    fn subgraph_keeps_internal_edges_only() {
        let g = path_graph(5);
        let (sub, map) = g.subgraph(&[1, 2, 4]);
        assert_eq!(sub.nvtx(), 3);
        assert_eq!(map, vec![1, 2, 4]);
        // Edge 1-2 survives; vertex 4 is isolated in the subgraph.
        assert_eq!(sub.degree(0), 1);
        assert_eq!(sub.degree(1), 1);
        assert_eq!(sub.degree(2), 0);
    }

    #[test]
    fn bfs_unreachable_vertices_marked() {
        let g = Graph {
            xadj: vec![0, 1, 2, 2],
            adjncy: vec![1, 0],
            adjwgt: vec![1, 1],
            vwgt: vec![1; 3],
        };
        let mut bfs = Bfs::new(g.nvtx());
        g.bfs_into(0, &mut bfs);
        assert_eq!(bfs.order.len(), 2);
        assert_eq!(bfs.level[2], u32::MAX);
    }
}
