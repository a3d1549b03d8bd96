//! Experiment harness regenerating every figure and table of the paper's
//! evaluation (§4).
//!
//! * [`stats`] — geometric means, the GM / Pos.% / +GM summary of Table 2,
//!   box-plot quantiles (Figs. 2–3), performance profiles (Fig. 10), CDFs
//!   (Fig. 11).
//! * [`runner`] — wall-clock timing (median-of-N with warmup) and the
//!   shared per-dataset measurement pipeline.
//! * [`report`] — markdown, CSV, and machine-readable `BENCH_*.json`
//!   emission (where the CI perf gate reads its two bounded metrics).
//! * [`experiments`] — one module per paper artifact: `fig2`, `fig3`,
//!   `fig8`, `fig9`, `fig10`, `fig11`, `table2`, `table3`, `table4` — plus
//!   `engine` (adaptive pipeline vs fixed, plan-cache amortization),
//!   `planner` (static advisor vs cost model vs feedback-converged plan
//!   selection), `calibrate` (cost-model fitting: sweep →
//!   [`cw_engine::Calibrator`] → held-out prediction error and
//!   first-choice plan agreement), and `serving` (service offered-load
//!   sweep).
//!
//! The `paper` binary (`cargo run -p cw-bench --release --bin paper`) drives
//! them; the `perf_gate` binary checks emitted `BENCH_*.json` against the
//! pinned bounds in `ci/bench_baseline.json` in CI (see
//! `docs/ARCHITECTURE.md`, "The CI perf gate"); criterion micro-benchmarks live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod stats;
