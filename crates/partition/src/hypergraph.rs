//! Multilevel hypergraph bisection with the cut-net objective
//! (the PaToH recipe, used by the paper's HP reordering).
//!
//! The **column-net model** of a sparse matrix puts one vertex per row and
//! one net per column; net `j` pins every row with a nonzero in column `j`.
//! A partition's *cut-net* cost counts nets spanning both parts — exactly
//! the number of `B`-matrix rows shared by the two row groups in SpGEMM,
//! which is why HP reorderings group rows with common column structure.

use crate::fm::{BALANCE_RATIO, MAX_PASSES};
use cw_sparse::{CscMatrix, CsrMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A hypergraph in dual CSR form (nets→pins and vertex→nets).
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// Net offsets into `pins`.
    pub net_ptr: Vec<usize>,
    /// Pin lists per net (vertex ids).
    pub pins: Vec<u32>,
    /// Vertex offsets into `vnets`.
    pub vnet_ptr: Vec<usize>,
    /// Incident-net lists per vertex.
    pub vnets: Vec<u32>,
    /// Vertex weights.
    pub vwgt: Vec<u64>,
    /// Net weights.
    pub net_wgt: Vec<u64>,
}

impl Hypergraph {
    /// Number of vertices.
    #[inline]
    pub fn nvtx(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of nets.
    #[inline]
    pub fn nnets(&self) -> usize {
        self.net_wgt.len()
    }

    /// Pins of net `n`.
    #[inline]
    pub fn net_pins(&self, n: usize) -> &[u32] {
        &self.pins[self.net_ptr[n]..self.net_ptr[n + 1]]
    }

    /// Nets incident to vertex `v`.
    #[inline]
    pub fn vertex_nets(&self, v: usize) -> &[u32] {
        &self.vnets[self.vnet_ptr[v]..self.vnet_ptr[v + 1]]
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Builds the column-net model of `a`: vertices are rows, nets are
    /// columns, pins are the nonzeros. Unit weights. Empty columns produce
    /// empty nets (harmless: never cut).
    pub fn column_net_model(a: &CsrMatrix) -> Hypergraph {
        let csc = CscMatrix::from_csr(a);
        Hypergraph {
            net_ptr: csc.col_ptr.clone(),
            pins: csc.row_idx.clone(),
            vnet_ptr: a.row_ptr.clone(),
            vnets: a.col_idx.clone(),
            vwgt: vec![1; a.nrows],
            net_wgt: vec![1; a.ncols],
        }
    }

    /// Cut-net cost of a 2-way (or k-way) partition: total weight of nets
    /// with pins in more than one part.
    pub fn cut_net(&self, parts: &[u32]) -> u64 {
        let mut cut = 0u64;
        for n in 0..self.nnets() {
            let pins = self.net_pins(n);
            if let Some(&first) = pins.first() {
                let p0 = parts[first as usize];
                if pins.iter().any(|&p| parts[p as usize] != p0) {
                    cut += self.net_wgt[n];
                }
            }
        }
        cut
    }

    /// Restriction to a vertex subset: keeps pins inside `vertices`, drops
    /// nets with ≤ 1 remaining pin (they can never be cut). Returns the sub-
    /// hypergraph and the `local → global` vertex map.
    pub fn restrict(&self, vertices: &[u32]) -> (Hypergraph, Vec<u32>) {
        let mut g2l = vec![u32::MAX; self.nvtx()];
        for (loc, &v) in vertices.iter().enumerate() {
            g2l[v as usize] = loc as u32;
        }
        let mut net_ptr = vec![0usize];
        let mut pins = Vec::new();
        let mut net_wgt = Vec::new();
        let mut kept_net_of_old: Vec<u32> = vec![u32::MAX; self.nnets()];
        for (n, kept) in kept_net_of_old.iter_mut().enumerate() {
            let start = pins.len();
            for &p in self.net_pins(n) {
                let lp = g2l[p as usize];
                if lp != u32::MAX {
                    pins.push(lp);
                }
            }
            if pins.len() - start >= 2 {
                *kept = net_wgt.len() as u32;
                net_wgt.push(self.net_wgt[n]);
                net_ptr.push(pins.len());
            } else {
                pins.truncate(start);
            }
        }
        // vertex -> nets of the restriction
        let mut vnet_ptr = vec![0usize];
        let mut vnets = Vec::new();
        let mut vwgt = Vec::with_capacity(vertices.len());
        for &v in vertices {
            for &n in self.vertex_nets(v as usize) {
                let kn = kept_net_of_old[n as usize];
                if kn != u32::MAX {
                    vnets.push(kn);
                }
            }
            vnet_ptr.push(vnets.len());
            vwgt.push(self.vwgt[v as usize]);
        }
        (Hypergraph { net_ptr, pins, vnet_ptr, vnets, vwgt, net_wgt }, vertices.to_vec())
    }
}

/// Nets with more pins than this are skipped by coarsening's partner scan
/// and by the initial graph growing, to stay near-linear.
const NET_SCAN_CAP: usize = 256;

/// Matching-based coarsening: pairs each unmatched vertex with the unmatched
/// vertex sharing the greatest total net weight (scanning nets with at most
/// `NET_SCAN_CAP` pins). Returns the coarse hypergraph and the fine→coarse
/// map.
pub(crate) fn coarsen(hg: &Hypergraph, rng: &mut SmallRng) -> (Hypergraph, Vec<u32>) {
    let n = hg.nvtx();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut match_of: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    // Scratch: shared-weight counts against candidate partners.
    let mut count: Vec<u64> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();
    for &v in &order {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        touched.clear();
        for &nt in hg.vertex_nets(v) {
            let pins = hg.net_pins(nt as usize);
            if pins.len() > NET_SCAN_CAP {
                continue;
            }
            let w = hg.net_wgt[nt as usize];
            for &u in pins {
                let u = u as usize;
                if u != v && !matched[u] {
                    if count[u] == 0 {
                        touched.push(u as u32);
                    }
                    count[u] += w;
                }
            }
        }
        let mut best: Option<(u64, u32)> = None;
        for &u in &touched {
            let c = count[u as usize];
            match best {
                Some((bc, bu)) if (c, Reverse(u)) <= (bc, Reverse(bu)) => {}
                _ => best = Some((c, u)),
            }
        }
        for &u in &touched {
            count[u as usize] = 0;
        }
        if let Some((_, u)) = best {
            matched[v] = true;
            matched[u as usize] = true;
            match_of[v] = u;
            match_of[u as usize] = v as u32;
        }
    }
    // Assign coarse ids.
    let mut cmap = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if cmap[v] == u32::MAX {
            cmap[v] = nc;
            cmap[match_of[v] as usize] = nc;
            nc += 1;
        }
    }
    let nc = nc as usize;
    // Rebuild nets with coarse pins, dedup, drop degenerate nets.
    let mut net_ptr = vec![0usize];
    let mut pins = Vec::with_capacity(hg.pins.len());
    let mut net_wgt = Vec::new();
    let mut seen = vec![u32::MAX; nc];
    for nt in 0..hg.nnets() {
        let start = pins.len();
        for &p in hg.net_pins(nt) {
            let cp = cmap[p as usize];
            if seen[cp as usize] != nt as u32 {
                seen[cp as usize] = nt as u32;
                pins.push(cp);
            }
        }
        if pins.len() - start >= 2 {
            net_wgt.push(hg.net_wgt[nt]);
            net_ptr.push(pins.len());
        } else {
            pins.truncate(start);
        }
    }
    // Coarse vertex weights and incidence.
    let mut vwgt = vec![0u64; nc];
    for v in 0..n {
        vwgt[cmap[v] as usize] += hg.vwgt[v];
    }
    let nnets = net_wgt.len();
    let mut vnet_counts = vec![0usize; nc + 1];
    for nt in 0..nnets {
        for &p in &pins[net_ptr[nt]..net_ptr[nt + 1]] {
            vnet_counts[p as usize + 1] += 1;
        }
    }
    for i in 0..nc {
        vnet_counts[i + 1] += vnet_counts[i];
    }
    let vnet_ptr = vnet_counts.clone();
    let mut vnets = vec![0u32; *vnet_ptr.last().unwrap()];
    let mut cursor = vnet_counts;
    for nt in 0..nnets {
        for &p in &pins[net_ptr[nt]..net_ptr[nt + 1]] {
            vnets[cursor[p as usize]] = nt as u32;
            cursor[p as usize] += 1;
        }
    }
    (Hypergraph { net_ptr, pins, vnet_ptr, vnets, vwgt, net_wgt }, cmap)
}

/// Cut-net FM refinement of a 2-way partition (in place). Returns the cut.
pub(crate) fn fm_refine_hg(hg: &Hypergraph, parts: &mut [u32], target0: u64) -> u64 {
    let n = hg.nvtx();
    if n == 0 {
        return 0;
    }
    let total = hg.total_vwgt();
    let hi0 = ((target0 as f64) * BALANCE_RATIO).ceil().min(total as f64) as u64;
    let lo0 = ((target0 as f64) / BALANCE_RATIO).floor() as u64;
    // Keep both sides populated for nonzero targets (see graph FM).
    let lo0 = lo0.clamp(u64::from(target0 > 0), total);
    let hi0 = hi0.min(total.saturating_sub(u64::from(target0 < total))).max(lo0);
    // Pin counts per net per side.
    let mut cnt = vec![[0u32; 2]; hg.nnets()];
    for (nt, c) in cnt.iter_mut().enumerate() {
        for &p in hg.net_pins(nt) {
            c[parts[p as usize] as usize] += 1;
        }
    }
    let cut_now = |cnt: &[[u32; 2]]| -> i64 {
        (0..hg.nnets())
            .filter(|&nt| cnt[nt][0] > 0 && cnt[nt][1] > 0)
            .map(|nt| hg.net_wgt[nt] as i64)
            .sum()
    };
    let mut cut = cut_now(&cnt);
    let mut w0: u64 = (0..n).filter(|&v| parts[v] == 0).map(|v| hg.vwgt[v]).sum();

    for _pass in 0..MAX_PASSES {
        // FM gains from pin counts.
        let mut gains = vec![0i64; n];
        for (v, gain) in gains.iter_mut().enumerate() {
            let s = parts[v] as usize;
            for &nt in hg.vertex_nets(v) {
                let c = cnt[nt as usize];
                let w = hg.net_wgt[nt as usize] as i64;
                if c[s] == 1 && c[1 - s] > 0 {
                    *gain += w;
                } else if c[1 - s] == 0 && c[s] > 1 {
                    *gain -= w;
                }
            }
        }
        let mut version = vec![0u32; n];
        let mut locked = vec![false; n];
        let mut heap: BinaryHeap<(i64, Reverse<u32>, u32)> =
            (0..n).map(|v| (gains[v], Reverse(v as u32), 0u32)).collect();
        let feasible = |w: u64| w >= lo0 && w <= hi0;
        let bdist = |w: u64| (w as i64 - target0 as i64).unsigned_abs();
        let mut moves: Vec<u32> = Vec::new();
        let start_feasible = feasible(w0);
        let mut best = (start_feasible, cut, bdist(w0));
        let mut best_prefix = 0usize;
        let (mut cur_cut, mut cur_w0) = (cut, w0);

        while let Some((gain, Reverse(v), ver)) = heap.pop() {
            let v = v as usize;
            if locked[v] || ver != version[v] {
                continue;
            }
            let s = parts[v] as usize;
            let t = 1 - s;
            let vw = hg.vwgt[v];
            let new_w0 = if s == 0 { cur_w0 - vw } else { cur_w0 + vw };
            let legal =
                if feasible(cur_w0) { feasible(new_w0) } else { bdist(new_w0) < bdist(cur_w0) };
            if !legal {
                locked[v] = true;
                continue;
            }
            // Gain updates around the move (classic FM pin-count rules).
            let bump = |u: usize,
                        delta: i64,
                        gains: &mut Vec<i64>,
                        version: &mut Vec<u32>,
                        heap: &mut BinaryHeap<(i64, Reverse<u32>, u32)>,
                        locked: &[bool]| {
                if !locked[u] {
                    gains[u] += delta;
                    version[u] += 1;
                    heap.push((gains[u], Reverse(u as u32), version[u]));
                }
            };
            for &nt in hg.vertex_nets(v) {
                let nt = nt as usize;
                let w = hg.net_wgt[nt] as i64;
                let pins = hg.net_pins(nt);
                // Before the move:
                if cnt[nt][t] == 0 {
                    for &u in pins {
                        if u as usize != v {
                            bump(u as usize, w, &mut gains, &mut version, &mut heap, &locked);
                        }
                    }
                } else if cnt[nt][t] == 1 {
                    for &u in pins {
                        if parts[u as usize] as usize == t {
                            bump(u as usize, -w, &mut gains, &mut version, &mut heap, &locked);
                        }
                    }
                }
                cnt[nt][s] -= 1;
                cnt[nt][t] += 1;
                // After the move:
                if cnt[nt][s] == 0 {
                    for &u in pins {
                        if u as usize != v {
                            bump(u as usize, -w, &mut gains, &mut version, &mut heap, &locked);
                        }
                    }
                } else if cnt[nt][s] == 1 {
                    for &u in pins {
                        if u as usize != v && parts[u as usize] as usize == s {
                            bump(u as usize, w, &mut gains, &mut version, &mut heap, &locked);
                        }
                    }
                }
            }
            parts[v] = t as u32;
            locked[v] = true;
            cur_cut -= gain;
            cur_w0 = new_w0;
            moves.push(v as u32);
            let state = (feasible(cur_w0), cur_cut, bdist(cur_w0));
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
        // Roll back past-best moves (and their pin counts).
        for &v in moves[best_prefix..].iter().rev() {
            let v = v as usize;
            let t = parts[v] as usize; // current side (after move)
            let s = 1 - t;
            for &nt in hg.vertex_nets(v) {
                cnt[nt as usize][t] -= 1;
                cnt[nt as usize][s] += 1;
            }
            if t == 0 {
                cur_w0 -= hg.vwgt[v];
            } else {
                cur_w0 += hg.vwgt[v];
            }
            parts[v] = s as u32;
        }
        let improved = best.1 < cut || (best.0 && !start_feasible);
        cut = best.1;
        w0 = cur_w0;
        debug_assert_eq!(cut, cut_now(&cnt), "incremental hypergraph cut drifted");
        if !improved {
            break;
        }
    }
    cut.max(0) as u64
}

/// Multilevel 2-way hypergraph partition with target fraction `frac0` for
/// part 0. Returns labels and the cut-net cost.
pub(crate) fn bisect_hypergraph(hg: &Hypergraph, frac0: f64, seed: u64) -> (Vec<u32>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut levels: Vec<Hypergraph> = vec![hg.clone()];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    loop {
        let cur = levels.last().unwrap();
        if cur.nvtx() <= 96 {
            break;
        }
        let (coarse, cmap) = coarsen(cur, &mut rng);
        if coarse.nvtx() as f64 > cur.nvtx() as f64 * 0.9 {
            break;
        }
        levels.push(coarse);
        maps.push(cmap);
    }
    let coarsest = levels.last().unwrap();
    let target0 = (coarsest.total_vwgt() as f64 * frac0).round() as u64;
    // Initial candidates refined by FM: one connectivity-grown assignment
    // (finds natural component/cluster boundaries, e.g. zero-cut splits of
    // disconnected hypergraphs, independent of the RNG stream) plus random
    // balanced restarts.
    let mut best: Option<(Vec<u32>, u64)> = None;
    for try_idx in 0..4 {
        let mut parts = if try_idx == 0 {
            grown_balanced(coarsest, target0, &mut rng)
        } else {
            random_balanced(coarsest, target0, &mut rng)
        };
        let cut = fm_refine_hg(coarsest, &mut parts, target0);
        if best.as_ref().is_none_or(|&(_, bc)| cut < bc) {
            best = Some((parts, cut));
        }
    }
    let (mut parts, mut cut) = best.unwrap();
    for lvl in (0..maps.len()).rev() {
        let fine = &levels[lvl];
        let cmap = &maps[lvl];
        let mut fine_parts = vec![0u32; fine.nvtx()];
        for v in 0..fine.nvtx() {
            fine_parts[v] = parts[cmap[v] as usize];
        }
        let t0 = (fine.total_vwgt() as f64 * frac0).round() as u64;
        cut = fm_refine_hg(fine, &mut fine_parts, t0);
        parts = fine_parts;
    }
    (parts, cut)
}

/// Graph-growing initial bisection (METIS/PaToH-style): BFS over the
/// vertex–net–vertex adjacency from a random start, moving visited vertices
/// into part 0 until it reaches `target0` weight. Restarts from a fresh
/// random unvisited vertex when a connected component is exhausted, so
/// disconnected hypergraphs split along component boundaries with zero cut.
fn grown_balanced(hg: &Hypergraph, target0: u64, rng: &mut SmallRng) -> Vec<u32> {
    let n = hg.nvtx();
    let mut parts = vec![1u32; n];
    let mut visited = vec![false; n];
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut w0 = 0u64;
    let mut assigned = 0usize;
    while w0 < target0 && assigned < n {
        let v = match queue.pop_front() {
            Some(v) => v as usize,
            None => {
                // Next component: a random unvisited vertex.
                let mut v = rng.gen_range(0..n);
                while visited[v] {
                    v = (v + 1) % n;
                }
                v
            }
        };
        if visited[v] {
            continue;
        }
        visited[v] = true;
        parts[v] = 0;
        w0 += hg.vwgt[v];
        assigned += 1;
        for &nt in hg.vertex_nets(v) {
            let pins = hg.net_pins(nt as usize);
            if pins.len() > NET_SCAN_CAP {
                continue;
            }
            for &u in pins {
                if !visited[u as usize] {
                    queue.push_back(u);
                }
            }
        }
    }
    parts
}

fn random_balanced(hg: &Hypergraph, target0: u64, rng: &mut SmallRng) -> Vec<u32> {
    let n = hg.nvtx();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut parts = vec![1u32; n];
    let mut w0 = 0u64;
    for &v in &order {
        if w0 >= target0 {
            break;
        }
        parts[v as usize] = 0;
        w0 += hg.vwgt[v as usize];
    }
    parts
}

/// Recursive-bisection k-way hypergraph partition (PaToH analogue).
pub fn partition_hypergraph(hg: &Hypergraph, k: usize, seed: u64) -> Vec<u32> {
    assert!(k >= 1);
    let mut parts = vec![0u32; hg.nvtx()];
    if k == 1 || hg.nvtx() == 0 {
        return parts;
    }
    let vertices: Vec<u32> = (0..hg.nvtx() as u32).collect();
    recurse(hg, &vertices, k, 0, seed, &mut parts);
    parts
}

fn recurse(root: &Hypergraph, vertices: &[u32], k: usize, base: u32, seed: u64, out: &mut [u32]) {
    if k == 1 || vertices.is_empty() {
        for &v in vertices {
            out[v as usize] = base;
        }
        return;
    }
    let k0 = k / 2;
    let (sub, map) = root.restrict(vertices);
    let (parts, _) = bisect_hypergraph(&sub, k0 as f64 / k as f64, seed);
    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    for (loc, &p) in parts.iter().enumerate() {
        if p == 0 {
            side0.push(map[loc]);
        } else {
            side1.push(map[loc]);
        }
    }
    recurse(root, &side0, k0, base, seed.wrapping_mul(0x9E37_79B9).wrapping_add(3), out);
    recurse(
        root,
        &side1,
        k - k0,
        base + k0 as u32,
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(4),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::banded::block_diagonal;
    use cw_sparse::gen::grid::poisson2d;

    #[test]
    fn column_net_model_shapes() {
        let a = poisson2d(4, 4);
        let hg = Hypergraph::column_net_model(&a);
        assert_eq!(hg.nvtx(), 16);
        assert_eq!(hg.nnets(), 16);
        assert_eq!(hg.pins.len(), a.nnz());
        // Net j pins = rows with a nonzero in column j = column structure.
        assert_eq!(hg.net_pins(0), &[0, 1, 4]);
        // Vertex v's nets = its row's columns.
        assert_eq!(hg.vertex_nets(0), a.row_cols(0));
    }

    #[test]
    fn cut_net_counts_spanning_nets() {
        let a = poisson2d(4, 1); // path: columns 0..3
        let hg = Hypergraph::column_net_model(&a);
        // Split 0,1 | 2,3: nets (columns) 1 and 2 span both sides.
        let parts = vec![0, 0, 1, 1];
        assert_eq!(hg.cut_net(&parts), 2);
        // Everything together: zero cut.
        assert_eq!(hg.cut_net(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn block_diagonal_bisects_with_zero_cut() {
        // Two 8-row identical blocks: the column-net hypergraph is two
        // disconnected cliques; a perfect bisection cuts no net.
        let a = block_diagonal(16, (8, 8), 0.0, 1);
        let hg = Hypergraph::column_net_model(&a);
        let (parts, cut) = bisect_hypergraph(&hg, 0.5, 42);
        assert_eq!(cut, 0, "parts: {parts:?}");
        assert_eq!(hg.cut_net(&parts), 0);
        let w0 = parts.iter().filter(|&&p| p == 0).count();
        assert_eq!(w0, 8);
    }

    #[test]
    fn fm_improves_random_partition_on_grid() {
        let a = poisson2d(10, 10);
        let hg = Hypergraph::column_net_model(&a);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut parts = random_balanced(&hg, 50, &mut rng);
        let before = hg.cut_net(&parts);
        let after = fm_refine_hg(&hg, &mut parts, 50);
        assert_eq!(after, hg.cut_net(&parts));
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn restriction_drops_degenerate_nets() {
        let a = poisson2d(4, 1);
        let hg = Hypergraph::column_net_model(&a);
        let (sub, map) = hg.restrict(&[0, 1]);
        assert_eq!(map, vec![0, 1]);
        assert_eq!(sub.nvtx(), 2);
        // Only nets with >= 2 pins inside {0,1} survive: columns 0 and 1.
        assert_eq!(sub.nnets(), 2);
    }

    #[test]
    fn kway_hypergraph_partition_balanced() {
        let a = poisson2d(12, 12);
        let hg = Hypergraph::column_net_model(&a);
        let k = 4;
        let parts = partition_hypergraph(&hg, k, 17);
        let mut counts = vec![0usize; k];
        for &p in &parts {
            counts[p as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 0);
        }
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / (144.0 / k as f64) < 1.5);
    }

    #[test]
    fn coarsen_preserves_weight() {
        let a = poisson2d(8, 8);
        let hg = Hypergraph::column_net_model(&a);
        let mut rng = SmallRng::seed_from_u64(3);
        let (coarse, cmap) = coarsen(&hg, &mut rng);
        assert_eq!(coarse.total_vwgt(), hg.total_vwgt());
        assert!(coarse.nvtx() < hg.nvtx());
        assert_eq!(cmap.len(), hg.nvtx());
        // vnet incidence is consistent with pins.
        for v in 0..coarse.nvtx() {
            for &nt in coarse.vertex_nets(v) {
                assert!(coarse.net_pins(nt as usize).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn deterministic_partitions() {
        let a = poisson2d(9, 9);
        let hg = Hypergraph::column_net_model(&a);
        assert_eq!(partition_hypergraph(&hg, 4, 9), partition_hypergraph(&hg, 4, 9));
    }
}
