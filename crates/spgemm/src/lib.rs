//! Row-wise Gustavson SpGEMM and its sparse accumulators (paper §2.2).
//!
//! This crate is the *baseline* the paper compares against, plus the shared
//! machinery the cluster-wise kernel (in `cw-core`) reuses:
//!
//! * [`accumulator`] — sparse accumulators: the hash-table accumulator the
//!   paper adopts from Nagasaka et al. \[40\] and a dense "SPA" accumulator
//!   with generation stamping, behind one trait.
//! * [`rowwise`] — serial and rayon-parallel Gustavson SpGEMM over CSR.
//! * [`single_pass`] — the numeric driver under every Gustavson kernel here
//!   and in `cw-core`: FLOP-balanced chunks compute each row once into a
//!   window of one pooled staging slab; no symbolic pass.
//! * [`flops`] — multiplication FLOP counts: the work measure the kernels
//!   balance chunks and bound output rows by.
//! * [`topk`] — `SpGEMM_TopK(A, Aᵀ)`: the candidate-pair generation step of
//!   hierarchical clustering (paper Alg. 3 line 3).
//! * [`masked`] — [`spgemm_masked_with`]: row-wise `C⟨M⟩ = A·B` with the
//!   mask seeded into the accumulator, so only the entries it admits are
//!   ever built; what the engine's `OutputShape::Masked` runs on row-wise
//!   plans.
//! * [`shape`] — output-shape postprocess kernels ([`apply_mask`],
//!   [`row_topk`]): the row-local transforms that define the engine's
//!   `OutputShape`s, applied to a finished product where no kernel fuses
//!   them, and the oracle for the one that does.
//! * [`trace`] — extraction of the B-row access sequence a kernel performs,
//!   consumed by `cw-cachesim` for deterministic locality measurements.
//! * [`colwise`], [`heap`], [`pattern`] — alternative kernels (column-wise
//!   Gustavson, k-way heap merge, symbolic-only): the independent oracles
//!   `tests/kernel_cross_validation.rs` holds the production kernels to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod colwise;
pub mod flops;
pub mod heap;
pub mod masked;
pub mod pattern;
pub mod rowwise;
pub mod shape;
pub mod single_pass;
pub mod topk;
pub mod trace;

pub use accumulator::{
    Accumulator, AccumulatorKind, DenseAccumulator, HashAccumulator, LabelMap, SameLabels,
};
pub use colwise::spgemm_colwise;
pub use heap::spgemm_heap;
pub use masked::{spgemm_masked_mapped, spgemm_masked_with};
pub use pattern::spgemm_pattern;
pub use rowwise::{
    spgemm, spgemm_labelled, spgemm_mapped, spgemm_serial, spgemm_with, CsrRows, SpGemmOptions,
};
pub use shape::{apply_mask, row_topk};
pub use topk::{spgemm_topk, CandidatePair};
