//! The reference kernel: benchmark-owned work, run between ops, whose rate
//! tells how fast the machine is *right now*.
//!
//! On a shared VM the same memory-bound op drifts by 10-30 % over minutes
//! (a compute-bound loop beside it by ±5 %) — more than any bound worth
//! fixing. This kernel — plain Gustavson SpGEMM with a dense accumulator over
//! every `ROW_STRIDE`-th row of the workload's own operand, on two threads
//! like the ops — touches memory the way the ops do (random gathers of B
//! rows, a freshly allocated output), so it drifts with them: over 7 minutes
//! the 25 s medians of the two library workloads had a coefficient of
//! variation of 6.9-7.2 % raw and 1.9-5.3 % as a ratio to this kernel. It
//! shares no code with the library, so a library change cannot move it. It
//! reports a *rate* (multiply-adds per second), so how much work the sampled
//! rows happen to hold (power-law operands) does not matter.

use cw_sparse::CsrMatrix;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Rows sampled: every `ROW_STRIDE`-th, so the reference costs ≈ 10 % of an op.
const ROW_STRIDE: usize = 4;

/// Gustavson over the sampled rows of `rows`; returns its multiply-adds.
fn sampled_product(a: &CsrMatrix, rows: Range<usize>) -> u64 {
    let mut acc = vec![0.0f64; a.ncols];
    // `stamp[j] == i + 1` marks column `j` as touched by output row `i`.
    let mut stamp = vec![0usize; a.ncols];
    let mut touched: Vec<u32> = Vec::new();
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    let mut madds = 0u64;
    for i in rows.step_by(ROW_STRIDE) {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &v) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = a.row(k as usize);
            madds += b_cols.len() as u64;
            for (&j, &w) in b_cols.iter().zip(b_vals) {
                let j = j as usize;
                if stamp[j] == i + 1 {
                    acc[j] += v * w;
                } else {
                    stamp[j] = i + 1;
                    acc[j] = v * w;
                    touched.push(j as u32);
                }
            }
        }
        for &j in &touched {
            cols.push(j);
            vals.push(acc[j as usize]);
        }
        touched.clear();
    }
    black_box((cols, vals));
    madds
}

/// Runs the reference kernel on `a` once — one half of the rows on this
/// thread, the other on a second — and returns its multiply-adds per second.
pub fn reference_rate(a: &CsrMatrix) -> f64 {
    let half = a.nrows / 2;
    let start = Instant::now();
    let madds = std::thread::scope(|scope| {
        let other = scope.spawn(|| sampled_product(a, half..a.nrows));
        sampled_product(a, 0..half) + other.join().expect("reference kernel thread panicked")
    });
    madds as f64 / start.elapsed().as_secs_f64()
}
