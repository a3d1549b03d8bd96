//! Hierarchical clustering (paper Algorithm 3).
//!
//! 0. Sweep the rows into a local order first (`locality_sweep`): one
//!    Cuthill–McKee pass over the row/column bipartite graph, so that rows
//!    which share columns — the `B` rows they read — sit near each other.
//!    Steps 1–2 then run on the swept rows.
//! 1. Generate candidate similar-row pairs with one pattern SpGEMM
//!    `A · Aᵀ`, keeping the top-`(max_cluster−1)` per row by Jaccard score
//!    ([`cw_spgemm::topk`]).
//! 2. Greedily merge pairs in order of similarity, tracked with a
//!    union-find; a pair whose endpoints were already merged into larger
//!    clusters is *re-scored* between the cluster representatives and
//!    re-inserted if still similar (Alg. 3 lines 12–21).
//! 3. The resulting clusters define both the **row ordering** and the
//!    **`CSR_Cluster`** structure — no separate reordering pass, which is
//!    the paper's second key change vs. the LSH-based prior work \[32\].
//!    Members become consecutive and clusters follow each other in sweep
//!    order (by their first member), so the order is local *between*
//!    clusters as well as inside them: an operand on which nothing merges
//!    still comes back reordered for locality instead of as it arrived.
//!
//! Sweeping before step 1 rather than after step 2 is deliberate: the
//! `A · Aᵀ` pass is itself a locality-bound SpGEMM and runs faster on the
//! swept rows, which pays for the sweep.
//!
//! Steps 0 and 1 share one transpose, of the pattern only (ids, no
//! values): the sweep walks it as the bipartite graph's column side, and
//! step 1 reads it as `Aᵀ`. Step 1 copies no values either. It reads the
//! swept rows as a pattern labelled in the sweep's own row *and* column
//! order, and `Aᵀ` relabelled the same way, so the `Aᵀ` rows one row's scan
//! walks — and the counts it raises — sit next to each other. Labels change
//! no overlap count, and re-scoring reads the rows of `a` itself, so the
//! clusters are the ones a copy of the swept rows would give.

use crate::config::ClusterConfig;
use crate::format::{Clustering, CsrCluster, MAX_CLUSTER_LEN};
use crate::unionfind::UnionFind;
use cw_sparse::jaccard::jaccard;
use cw_sparse::{ColIdx, CsrMatrix, Permutation};
use cw_spgemm::topk::{spgemm_topk_pattern, Pattern};
use std::collections::BinaryHeap;
use std::collections::HashSet;

/// Result of hierarchical clustering: the cluster-grouping permutation and
/// the cluster sizes (in the permuted row order).
#[derive(Debug, Clone)]
pub struct HierarchicalClustering {
    /// Permutation (`new → old`) placing cluster members consecutively.
    pub perm: Permutation,
    /// Cluster sizes, aligned with the permuted row order.
    pub clustering: Clustering,
}

/// Max-heap key: highest Jaccard first, then smallest `(i, j)` for
/// determinism.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    score: f64,
    i: u32,
    j: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.i.cmp(&self.i))
            .then_with(|| other.j.cmp(&self.j))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The row/column bipartite graph of a matrix: row `r` is node `r`, column
/// `c` is node `nrows + c`, and every stored entry is an edge. Two rows are
/// two hops apart exactly when they share a column, whatever the shape.
struct Bipartite<'m> {
    a: &'m CsrMatrix,
    at: &'m Pattern<'m>,
}

impl Bipartite<'_> {
    fn degree(&self, v: usize) -> usize {
        match v.checked_sub(self.a.nrows) {
            None => self.a.row_nnz(v),
            Some(c) => self.at.row_len(c),
        }
    }

    /// Node ids adjacent to `v`, ascending.
    fn neighbours(&self, v: usize) -> (&[ColIdx], usize) {
        match v.checked_sub(self.a.nrows) {
            None => (self.a.row_cols(v), self.a.nrows),
            Some(c) => (self.at.row(c), 0),
        }
    }

    /// Appends the Cuthill–McKee order of `root`'s component to `order`:
    /// breadth-first, each node's unvisited neighbours by ascending degree,
    /// then id.
    fn cuthill_mckee(&self, root: usize, visited: &mut [bool], order: &mut Vec<usize>) {
        let mut head = order.len();
        visited[root] = true;
        order.push(root);
        let mut next: Vec<usize> = Vec::new();
        while head < order.len() {
            let (ids, offset) = self.neighbours(order[head]);
            head += 1;
            // A CSR row lists each neighbour once, so `next` has no repeats.
            next.clear();
            next.extend(ids.iter().map(|&u| u as usize + offset).filter(|&u| !visited[u]));
            next.sort_unstable_by_key(|&u| (self.degree(u), u));
            for &u in &next {
                visited[u] = true;
            }
            order.extend_from_slice(&next);
        }
    }
}

/// A row order in which rows that share columns are close: one
/// Cuthill–McKee pass over the [`Bipartite`] graph of `a` (`at` is the
/// pattern of its transpose). Returns the rows' order and the order in which
/// it reached the columns that hold an entry (both `new → old`).
///
/// Components are taken in order of their smallest row, and each is entered
/// at a row far from that one (the last row a probe pass from it reaches),
/// so the sweep runs end to end instead of outwards from the middle.
/// `O(nnz)` plus the neighbour sorts; deterministic.
fn locality_sweep(a: &CsrMatrix, at: &Pattern) -> (Permutation, Vec<u32>) {
    let g = Bipartite { a, at };
    let nodes = a.nrows + a.ncols;
    let (mut probed, mut visited) = (vec![false; nodes], vec![false; nodes]);
    let mut probe: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = Vec::with_capacity(nodes);
    for start in 0..a.nrows {
        if visited[start] {
            continue;
        }
        probe.clear();
        g.cuthill_mckee(start, &mut probed, &mut probe);
        let far = probe.iter().rev().copied().find(|&v| v < a.nrows).unwrap_or(start);
        g.cuthill_mckee(far, &mut visited, &mut order);
    }
    let (mut rows, mut cols) = (Vec::with_capacity(a.nrows), Vec::new());
    for v in order {
        match v.checked_sub(a.nrows) {
            None => rows.push(v as u32),
            Some(c) => cols.push(c as u32),
        }
    }
    (Permutation::from_new_to_old(rows).expect("the sweep visits every row once"), cols)
}

/// Runs Algorithm 3 on `a`, returning the permutation + clustering.
///
/// The rows are first put in a local order (module docs, step 0); Alg. 3
/// runs on those, and the returned `perm` is the composition.
pub fn hierarchical_clustering(a: &CsrMatrix, cfg: &ClusterConfig) -> HierarchicalClustering {
    let n = a.nrows;
    let pattern = Pattern::of(a);
    let at = pattern.transpose();
    let (sweep, col_order) = locality_sweep(a, &at);
    let max_cluster = cfg.max_cluster.clamp(1, MAX_CLUSTER_LEN) as u32;

    // Line 3: candidate pairs via SpGEMM_TopK(A, Aᵀ, topk, jacc_th), on the
    // swept rows labelled in the sweep's row and column order (module docs).
    let mut col_label = vec![u32::MAX; a.ncols];
    for (new, &old) in col_order.iter().enumerate() {
        col_label[old as usize] = new as u32;
    }
    let swept = pattern.relabelled(sweep.as_new_to_old(), &col_label, col_order.len());
    let swept_t = at.relabelled(&col_order, &sweep.inverse_map(), n);
    drop(at);
    let candidates = spgemm_topk_pattern(&swept, &swept_t, cfg.topk(), cfg.jacc_th);
    drop((swept, swept_t));

    // Line 5: the candidates come ranked, highest Jaccard first, so they
    // are popped in order through a cursor; the max-heap holds only the
    // re-scored pairs. A re-scored key is new to `seen`, so no two keys
    // tie and the pops come in heap order. Line 6: singleton cluster ids.
    let mut ranked = candidates
        .iter()
        .map(|p| HeapEntry { score: p.jaccard, i: p.row_i, j: p.row_j })
        .peekable();
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut seen: HashSet<(u32, u32)> = candidates.iter().map(|p| (p.row_i, p.row_j)).collect();
    let mut uf = UnionFind::new(n);

    // Lines 8–23: greedy merging with stale-pair re-scoring.
    loop {
        let next = match (ranked.peek(), heap.peek()) {
            (Some(c), Some(r)) if r > c => heap.pop(),
            (Some(_), _) => ranked.next(),
            (None, _) => heap.pop(),
        };
        let Some(HeapEntry { score: _, i, j }) = next else { break };
        let ri = uf.find(i);
        let rj = uf.find(j);
        if ri == rj {
            continue;
        }
        if ri == i && rj == j {
            // Fresh pair: merge if the size cap allows.
            if uf.set_size(ri) + uf.set_size(rj) <= max_cluster {
                uf.union(ri, rj);
            }
        } else {
            // Stale endpoints: re-score the cluster representatives
            // (the roots' original rows) and re-insert if still similar.
            let key = if ri < rj { (ri, rj) } else { (rj, ri) };
            if seen.insert(key) {
                let row = |r: u32| a.row_cols(sweep.old_of(r as usize));
                let s = jaccard(row(ri), row(rj));
                if s > cfg.jacc_th {
                    heap.push(HeapEntry { score: s, i: key.0, j: key.1 });
                }
            }
        }
    }

    // Lines 25–26: clusters → ordering + sizes. A cluster sits where its
    // first member does in the sweep, members ascending: cluster order is
    // sweep order, and rows nothing merged with stay where the sweep put
    // them.
    const UNSEEN: u32 = u32::MAX;
    let mut cluster_of_root = vec![UNSEEN; n];
    let mut cluster_of_row: Vec<u32> = Vec::with_capacity(n);
    let mut sizes: Vec<u32> = Vec::new();
    for row in 0..n as u32 {
        let root = uf.find(row) as usize;
        if cluster_of_root[root] == UNSEEN {
            cluster_of_root[root] = sizes.len() as u32;
            sizes.push(0);
        }
        let cluster = cluster_of_root[root];
        sizes[cluster as usize] += 1;
        cluster_of_row.push(cluster);
    }
    // Counting sort of the rows by cluster.
    let mut next: Vec<u32> = Vec::with_capacity(sizes.len());
    let mut start = 0u32;
    for &size in &sizes {
        next.push(start);
        start += size;
    }
    let mut order = vec![0u32; n];
    for (row, &cluster) in cluster_of_row.iter().enumerate() {
        let slot = &mut next[cluster as usize];
        order[*slot as usize] = row as u32;
        *slot += 1;
    }
    let grouped = Permutation::from_new_to_old(order)
        .expect("hierarchical clustering produced a non-permutation");
    HierarchicalClustering { perm: sweep.then(&grouped), clustering: Clustering { sizes } }
}

impl HierarchicalClustering {
    /// Builds the `CSR_Cluster` operand for the `A²` workload: applies the
    /// permutation **symmetrically** (`P·A·Pᵀ`, so the second operand moves
    /// with the first) and lays out the clusters.
    ///
    /// Returns the clustered first operand and the permuted square matrix
    /// (used as `B`).
    pub fn build_symmetric(&self, a: &CsrMatrix) -> (CsrCluster, CsrMatrix) {
        let pa = self.perm.permute_symmetric(a);
        (CsrCluster::from_csr(&pa, &self.clustering), pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::banded::block_diagonal;

    /// Paper Fig. 7(a): a matrix whose similar rows are *not* adjacent.
    fn fig7_matrix() -> CsrMatrix {
        CsrMatrix::from_row_lists(
            6,
            vec![
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(1, 1.0), (2, 1.0), (5, 1.0)],
                vec![(0, 1.0), (2, 1.0), (4, 1.0)],
                vec![(3, 1.0), (4, 1.0)],
                vec![(2, 1.0), (3, 1.0), (4, 1.0)],
                vec![(1, 1.0), (4, 1.0), (5, 1.0)],
            ],
        )
    }

    #[test]
    fn produces_valid_permutation_and_clustering() {
        let a = fig7_matrix();
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        assert_eq!(h.perm.len(), 6);
        h.clustering.validate(6).unwrap();
    }

    #[test]
    fn scattered_identical_rows_get_clustered() {
        // Interleave two row patterns so similar rows are never adjacent:
        // even rows = {0,1,2}, odd rows = {7,8,9}.
        let mut rows = Vec::new();
        for i in 0..12usize {
            if i % 2 == 0 {
                rows.push(vec![(0usize, 1.0), (1, 1.0), (2, 1.0)]);
            } else {
                rows.push(vec![(7usize, 1.0), (8, 1.0), (9, 1.0)]);
            }
        }
        let a = CsrMatrix::from_row_lists(12, rows);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        // Variable clustering on the original order sees J=0 between all
        // neighbors; hierarchical must find the two groups of 6 (≤ cap 8).
        let max_size = *h.clustering.sizes.iter().max().unwrap();
        assert!(max_size >= 6, "sizes: {:?}", h.clustering.sizes);
        // Members of one cluster must share a pattern: check via the
        // permuted matrix's consecutive similarity.
        let pa = h.perm.permute_rows(&a);
        let sim = cw_sparse::stats::avg_consecutive_jaccard(&pa);
        assert!(sim > 0.8, "consecutive similarity {sim}");
    }

    #[test]
    fn respects_cluster_size_cap() {
        // 20 identical rows with cap 8: no cluster may exceed 8.
        let rows = vec![vec![(0usize, 1.0), (1, 1.0)]; 20];
        let a = CsrMatrix::from_row_lists(4, rows);
        let cfg = ClusterConfig { jacc_th: 0.3, max_cluster: 8 };
        let h = hierarchical_clustering(&a, &cfg);
        assert!(h.clustering.sizes.iter().all(|&s| s <= 8), "{:?}", h.clustering.sizes);
        assert_eq!(h.clustering.nrows(), 20);
    }

    #[test]
    fn dissimilar_rows_stay_singletons() {
        let a = CsrMatrix::identity(8);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        assert_eq!(h.clustering.sizes, vec![1; 8]);
        assert!(h.perm.is_identity());
    }

    #[test]
    fn deterministic() {
        let a = block_diagonal(48, (3, 6), 0.1, 7);
        let h1 = hierarchical_clustering(&a, &ClusterConfig::default());
        let h2 = hierarchical_clustering(&a, &ClusterConfig::default());
        assert_eq!(h1.perm, h2.perm);
        assert_eq!(h1.clustering, h2.clustering);
    }

    #[test]
    fn rectangular_operands_get_a_valid_order() {
        // Rows are neighbours through shared columns, so nothing needs the
        // operand to be square — wide or tall.
        for (nrows, ncols) in [(40, 9), (9, 40)] {
            let a = cw_sparse::gen::er::erdos_renyi_rect(nrows, ncols, 3, 6);
            let h = hierarchical_clustering(&a, &ClusterConfig::default());
            assert_eq!(h.perm.len(), nrows);
            h.clustering.validate(nrows).unwrap();
            CsrCluster::from_csr(&h.perm.permute_rows(&a), &h.clustering).validate().unwrap();
        }
    }

    #[test]
    fn the_sweep_walks_a_shuffled_path_end_to_end() {
        // Row i holds columns {i, i + 1}: a path in the row/column graph,
        // handed over with its rows shuffled. The sweep must enter at one
        // end and visit the rows in path order, whichever end that is.
        let n = 32u32;
        let shuffle: Vec<u32> = (0..n).map(|i| (i * 13 + 5) % n).collect();
        let rows = shuffle.iter().map(|&i| vec![(i as usize, 1.0), (i as usize + 1, 1.0)]);
        let a = CsrMatrix::from_row_lists(n as usize + 1, rows.collect());
        let (sweep, _) = locality_sweep(&a, &Pattern::of(&a).transpose());
        let swept: Vec<u32> = sweep.as_new_to_old().iter().map(|&r| shuffle[r as usize]).collect();
        let ascending: Vec<u32> = (0..n).collect();
        let descending: Vec<u32> = (0..n).rev().collect();
        assert!(swept == ascending || swept == descending, "{swept:?}");
    }

    #[test]
    fn clusters_follow_each_other_in_sweep_order() {
        // Blocks of four identical rows, scrambled: each block becomes one
        // cluster, and consecutive clusters are consecutive blocks of the
        // chain that the shared boundary columns make of them.
        let blocks = 6usize;
        let row = |b: usize| (3 * b..3 * b + 4).map(|c| (c, 1.0)).collect::<Vec<_>>();
        let scrambled: Vec<usize> = (0..4 * blocks).map(|i| (i * 7 + 3) % (4 * blocks)).collect();
        let a = CsrMatrix::from_row_lists(
            3 * blocks + 1,
            scrambled.iter().map(|&i| row(i / 4)).collect(),
        );
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        assert_eq!(h.clustering.sizes, vec![4; blocks]);
        let block_of_cluster: Vec<usize> =
            (0..blocks).map(|c| scrambled[h.perm.old_of(4 * c)] / 4).collect();
        let ascending: Vec<usize> = (0..blocks).collect();
        let descending: Vec<usize> = (0..blocks).rev().collect();
        assert!(
            block_of_cluster == ascending || block_of_cluster == descending,
            "{block_of_cluster:?}"
        );
    }

    #[test]
    fn build_symmetric_round_trips_product_semantics() {
        let a = fig7_matrix();
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        let (cc, pa) = h.build_symmetric(&a);
        cc.validate().unwrap();
        assert!(cc.to_csr().approx_eq(&pa, 0.0));
    }

    /// FNV-1a over whole words: moving any one word moves the digest.
    fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
    }

    /// The operands whose Alg. 3 output is pinned: a scrambled mesh, a
    /// FEM-like operand with three unknowns per node, a block operand, a
    /// power-law graph and a tall-skinny rectangle.
    fn golden_operands() -> Vec<(&'static str, CsrMatrix)> {
        use cw_sparse::gen::{er, kron::kron, mesh::tri_mesh, rmat};
        let j3 = CsrMatrix::from_dense(3, 3, &[1.0; 9]);
        let fem = kron(&tri_mesh(16, 16, false, 1), &j3);
        let n = fem.nrows as u32;
        let shuffle = Permutation::from_new_to_old((0..n).map(|i| (i * 7 + 3) % n).collect());
        vec![
            ("tri_mesh(48, 48) scrambled", tri_mesh(48, 48, true, 1)),
            ("kron(tri_mesh(16, 16), J3) shuffled", shuffle.unwrap().permute_symmetric(&fem)),
            ("block_diagonal(600, (6, 10), 0.02)", block_diagonal(600, (6, 10), 0.02, 1)),
            ("rmat(9, 8)", rmat::rmat(9, 8, rmat::RmatParams::default(), 1)),
            ("erdos_renyi_rect(500, 40, 4)", er::erdos_renyi_rect(500, 40, 4, 1)),
        ]
    }

    #[test]
    fn order_and_sizes_match_their_pinned_digests() {
        // Digests of `perm` (new → old) and of the cluster sizes, taken from
        // the implementation before the scan read a pattern of the swept
        // rows: a faster Alg. 3 must find the same clusters in the same
        // order, at any pool width.
        let pinned: [(u64, u64); 5] = [
            (0xb6b0_9d3b_43f1_896b, 0x39e0_7e2c_25e1_2ff1),
            (0x2454_91ad_4dba_227b, 0x49d7_a98a_a977_7497),
            (0x2769_9e31_c173_635b, 0x9270_3cf9_650f_8031),
            (0xc75e_1659_3fae_9c17, 0x6ca9_1b62_88ff_132d),
            (0x1037_9435_a04a_bd1f, 0x1a0e_f953_fe4e_db5f),
        ];
        let got: Vec<(u64, u64)> = golden_operands()
            .iter()
            .map(|(_, a)| {
                let h = hierarchical_clustering(a, &ClusterConfig::default());
                (
                    digest(h.perm.as_new_to_old().iter().map(|&r| r as u64)),
                    digest(h.clustering.sizes.iter().map(|&s| s as u64)),
                )
            })
            .collect();
        assert_eq!(
            got,
            pinned,
            "{:?}",
            golden_operands().iter().map(|(name, _)| *name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn candidate_pairs_match_their_pinned_digests() {
        use cw_spgemm::topk::spgemm_topk;
        // `SpGEMM_TopK`'s pair list (rows and the bits of each score) at
        // Alg. 3's default settings, pinned like the order above, on the
        // FEM-like operand and the rectangle.
        let cfg = ClusterConfig::default();
        let operands = golden_operands();
        let got: Vec<(usize, u64)> = [&operands[1].1, &operands[4].1]
            .into_iter()
            .map(|a| {
                let pairs = spgemm_topk(a, cfg.topk(), cfg.jacc_th);
                let words = pairs
                    .iter()
                    .flat_map(|p| [p.row_i as u64, p.row_j as u64, p.jaccard.to_bits()]);
                (pairs.len(), digest(words))
            })
            .collect();
        assert_eq!(got, [(858, 0xaf91_a926_8653_f011), (2570, 0xb8e4_0e22_a9df_1844)]);
    }

    #[test]
    fn shuffled_block_matrix_recovers_blocks() {
        // Scramble a perfect block matrix; hierarchical clustering should
        // regroup rows of the same block.
        let a = block_diagonal(32, (4, 4), 0.0, 3);
        let shuffle =
            cw_sparse::Permutation::from_new_to_old((0..32u32).map(|i| (i * 13) % 32).collect())
                .unwrap();
        let scrambled = shuffle.permute_rows(&a);
        let h = hierarchical_clustering(&scrambled, &ClusterConfig::default());
        let pa = h.perm.permute_rows(&scrambled);
        let sim = cw_sparse::stats::avg_consecutive_jaccard(&pa);
        assert!(sim > 0.7, "similarity after hierarchical clustering: {sim}");
    }
}
