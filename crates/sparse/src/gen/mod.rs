//! Seeded synthetic matrix generators.
//!
//! The paper evaluates on 110 SuiteSparse matrices spanning a handful of
//! structural families. Those inputs are not redistributable here, so each
//! family gets a generator that reproduces the structural property the
//! reordering/clustering algorithms respond to:
//!
//! | SuiteSparse family (examples) | generator | key structure |
//! |---|---|---|
//! | 2D/3D PDE meshes (poisson3Da, AS365, M6, NLR, hugetric) | [`grid`], [`mesh`] | bounded degree, planar-ish locality, natural ordering often good |
//! | power-law graphs (LiveJournal, wikipedia, webbase) | [`rmat`] | heavy-tailed degrees, community structure only after reordering |
//! | road networks (europe_osm, GAP-road) | [`road`] | degree ≤ 4, enormous diameter |
//! | chemistry/LP block matrices (cage12, pdb1HYS, rma10) | [`banded`] | dense diagonal blocks and bands |
//! | optimization KKT systems (kkt_power) | [`kkt`] | saddle-point 2×2 block structure |
//! | quasi-uniform random (conf5_4-8x8-05-like lattice QCD) | [`er`], [`grid::grid4d`] | regular stencil on a 4D torus |
//!
//! Every generator takes an explicit seed and is deterministic.

pub mod banded;
pub mod er;
pub mod grid;
pub mod kkt;
pub mod kron;
pub mod mesh;
pub mod rmat;
pub mod road;

use crate::{CooMatrix, CsrMatrix, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a CSR matrix from an undirected edge list (both directions stored),
/// with unit values and a unit diagonal when `with_diagonal` is set.
pub(crate) fn from_undirected_edges(
    n: usize,
    edges: &[(u32, u32)],
    with_diagonal: bool,
    seed: u64,
) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2 + n);
    for &(u, v) in edges {
        let w: Value = rng.gen_range(0.5..1.5);
        coo.push(u as usize, v as usize, w);
        if u != v {
            coo.push(v as usize, u as usize, w);
        }
    }
    if with_diagonal {
        for i in 0..n {
            coo.push(i, i, rng.gen_range(2.0..3.0));
        }
    }
    // Duplicate edges may exist (generators may emit the same pair twice);
    // summing keeps the pattern and values valid.
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_undirected_edges_symmetric() {
        let m = from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)], true, 7);
        assert!(m.is_pattern_symmetric());
        assert_eq!(m.nnz(), 3 * 2 + 4);
    }
}
