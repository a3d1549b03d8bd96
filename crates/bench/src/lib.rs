//! Experiment harness regenerating every figure and table of the paper's
//! evaluation (§4).
//!
//! * [`stats`] — geometric means, the GM / Pos.% / +GM summary of Table 2,
//!   box-plot quantiles (Figs. 2–3), performance profiles (Fig. 10), CDFs
//!   (Fig. 11).
//! * [`runner`] — wall-clock timing (median-of-N with warmup) and the
//!   shared per-dataset measurement pipeline.
//! * [`report`] — markdown and CSV emission, plus the in-memory named
//!   metrics the calibration acceptance test reads.
//! * [`experiments`] — one module per paper artifact: `fig2`, `fig3`,
//!   `fig8`, `fig9`, `fig10`, `fig11`, `table2`, `table3`, `table4` — plus
//!   `ablation`, `corpus`, `summary` and `calibrate` (cost-model fitting:
//!   sweep → [`cw_engine::Calibrator`] → held-out prediction error and
//!   first-choice plan agreement).
//!
//! The `paper` binary (`cargo run -p cw-bench --release --bin paper`) drives
//! them. How the *system* performs — engine, service, wire — is not
//! measured here: that is the repo benchmark's job (`benchmark/`,
//! `BENCHMARK.json`; see `docs/ARCHITECTURE.md`, "How performance is
//! judged").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod stats;
