//! Deterministic cache simulation for SpGEMM access traces.
//!
//! The paper measures locality effects with wall-clock speedups on
//! Perlmutter. That hardware is not reproducible here, so this crate makes
//! the locality argument *deterministic*: kernels export their `B`-row
//! access sequences (`cw_spgemm::trace`, `cw_core::trace`), and this crate
//! replays them through
//!
//! * [`cache`] — a set-associative LRU cache model with configurable size /
//!   line / associativity, and
//! * [`reuse`] — exact LRU stack (reuse) distance histograms, the
//!   cache-size-independent characterization of temporal locality.
//!
//! If reordering or clustering improves locality, the replayed miss count
//! and the reuse-distance mass below cache capacity improve with it — same
//! claim as the paper's speedups, minus the noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod replay;
pub mod reuse;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use replay::{replay_b_row_trace, ReplayStats};
pub use reuse::{reuse_distance_histogram, ReuseHistogram};
