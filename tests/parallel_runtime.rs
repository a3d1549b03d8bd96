//! Parallelism battery for the vendored work-stealing runtime.
//!
//! The pool (`vendor/rayon`) is persistent: long-lived workers with
//! per-worker deques, a global injector, and recursive split-on-steal
//! scheduling. These tests lock down the properties the kernels rely on:
//!
//! * **Determinism** — every parallel product is *bit-identical* to the
//!   serial reference at every pool width, because chunk boundaries only
//!   move *where* rows are computed, never the per-entry arithmetic
//!   order.
//! * **Order preservation** — `collect()` returns results in submission
//!   index order no matter which worker stole which subrange.
//! * **Isolation** — a panic inside one parallel body propagates to that
//!   caller and leaves the pool serving later jobs from any thread.
//! * **Soak** — concurrent submitter threads with FLOP-skewed operands
//!   (power-law rows force uneven splits, hence steals) never corrupt
//!   results.
//!
//! The CI matrix additionally runs the whole suite under
//! `RAYON_NUM_THREADS=1` and `=2`; in-process width pinning goes through
//! `rayon::with_pool_width`.

mod common;

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use proptest::prelude::*;
use rayon::prelude::*;
use std::sync::Arc;

#[test]
fn every_pool_width_is_bit_identical_to_the_serial_path() {
    // Width 1 must fall through to the serial single-pass path; wider
    // pools chunk rows but keep per-entry accumulation order. Either way
    // the bits cannot move.
    let mats = [
        ("rmat_skewed", gen::rmat::rmat(8, 8, gen::rmat::RmatParams::default(), 3)),
        ("poisson2d", gen::grid::poisson2d(13, 13)),
    ];
    for (name, a) in &mats {
        let expect = spgemm_serial(a, a);
        for width in [1usize, 2, 8] {
            let got = rayon::with_pool_width(width, || {
                assert_eq!(rayon::current_num_threads(), width);
                spgemm_with(a, a, &SpGemmOptions::default())
            });
            assert!(got.bits_eq(&expect), "{name}: width {width} moved bits");
        }
    }
}

#[test]
fn width_pinned_parallel_backend_matches_the_serial_reference_backend() {
    // The same invariant end to end through a prepared operand: a parallel
    // plan prepared and executed inside pinned-width pools is bit-identical
    // to the same plan run serially.
    let a = gen::mesh::tri_mesh(12, 12, true, 9);
    for plan in [Plan::baseline(), Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() }] {
        common::assert_parallel_matches_serial("scrambled_mesh", &a, plan, None);
    }
}

#[test]
fn soak_concurrent_submitters_with_skewed_rows() {
    // Four submitter threads hammer the same width-4 pool concurrently
    // with power-law operands (heavily skewed per-row FLOP counts force
    // uneven splits and steals). Every product from every thread and
    // round must be bit-identical to the serial reference.
    let mats: Vec<Arc<CsrMatrix>> = (0..4)
        .map(|s| Arc::new(gen::rmat::rmat(8, 8, gen::rmat::RmatParams::default(), 40 + s)))
        .collect();
    let expected: Arc<Vec<CsrMatrix>> =
        Arc::new(mats.iter().map(|a| spgemm_serial(a, a)).collect());
    let tasks_before = rayon::pool_stats().tasks;

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let mats = mats.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                rayon::with_pool_width(4, || {
                    for round in 0..6 {
                        let i = (t + round) % mats.len();
                        let got = spgemm_with(&mats[i], &mats[i], &SpGemmOptions::default());
                        assert!(
                            got.bits_eq(&expected[i]),
                            "submitter {t} round {round}: corrupted product"
                        );
                    }
                })
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread must not panic");
    }

    // The pool actually ran tasks for this soak (counters are process
    // totals, hence monotone — only the delta is meaningful).
    assert!(rayon::pool_stats().tasks > tasks_before);
}

#[test]
fn panic_in_parallel_body_propagates_and_pool_survives() {
    rayon::with_pool_width(4, || {
        for round in 0..3 {
            // A payload raised inside a stolen leaf must surface in *this*
            // caller, message intact.
            let err = std::panic::catch_unwind(|| {
                let v: Vec<usize> = (0..2048usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 1234 {
                            panic!("boom at round {round}");
                        }
                        i
                    })
                    .collect();
                v
            })
            .expect_err("the panic must propagate to the submitting caller");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("boom"), "panic payload lost: {msg:?}");

            // The pool is not poisoned: the very next job on the same
            // pool completes correctly.
            let v: Vec<usize> = (0..512usize).into_par_iter().map(|i| i * 3).collect();
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3), "pool poisoned");
        }
    });
}

#[test]
fn panicking_spgemm_does_not_poison_later_multiplies() {
    // Same property through the real kernels: a dimension-mismatch panic
    // inside one multiply leaves the pool fine for the next.
    let a = gen::grid::poisson2d(10, 10);
    let wrong = CsrMatrix::zeros(3, 3);
    rayon::with_pool_width(2, || {
        for _ in 0..2 {
            assert!(std::panic::catch_unwind(|| spgemm(&a, &wrong)).is_err());
            let got = spgemm(&a, &a);
            assert!(got.bits_eq(&spgemm_serial(&a, &a)));
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // `collect()` must return elements in submission index order no
    // matter how the range was split or which worker stole what. Skewed
    // per-index workloads (busy loop proportional to a hash of the
    // index) make splits uneven, so steals actually occur at width > 1.
    #[test]
    fn collect_preserves_index_order_under_stealing(
        n in 1usize..4096,
        w_idx in 0usize..3,
    ) {
        let width = [1usize, 2, 8][w_idx];
        let got: Vec<u64> = rayon::with_pool_width(width, || {
            (0..n)
                .into_par_iter()
                .map(|i| {
                    // Skew: some indices spin two orders of magnitude
                    // longer than others.
                    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
                    let mut acc = i as u64;
                    for k in 0..(h * h) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    i as u64
                })
                .collect()
        });
        prop_assert_eq!(got.len(), n);
        for (i, &x) in got.iter().enumerate() {
            prop_assert_eq!(x, i as u64, "index {} out of order at width {}", i, width);
        }
    }

    // Chunked mutable-slice iteration writes every element exactly once,
    // regardless of width.
    #[test]
    fn slice_for_each_init_touches_every_element_once(
        n in 1usize..2048,
        w_idx in 0usize..3,
    ) {
        let width = [1usize, 2, 8][w_idx];
        let mut data = vec![0u32; n];
        rayon::with_pool_width(width, || {
            data.par_iter_mut().for_each(|x| *x += 1);
        });
        prop_assert!(data.iter().all(|&x| x == 1));
    }
}
