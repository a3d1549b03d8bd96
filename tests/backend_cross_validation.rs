//! Parallel ≡ serial: a plan run on the rayon pool must be
//! **bit-identical** to the same plan with `parallel: false`, the serial
//! oracle — same sparsity pattern (explicit zeros included), same
//! floating-point values to the last ulp — across every planner branch,
//! every output shape, and over random matrices. The parallel side runs in
//! pools pinned to two and eight workers, so it is cut into chunks whatever
//! the process-wide pool width.
//!
//! Bit-identity is achievable (not just approximate agreement) because the
//! two differ only in *where* work runs, never in the per-entry arithmetic
//! order: the row-wise kernels accumulate each output entry in
//! ascending-`k` order whether execution is serial or rayon-chunked, and
//! every accumulator extracts sorted columns. Any
//! divergence therefore indicates a real dispatch bug, not floating-point
//! noise.

mod common;

use clusterwise_spgemm::engine::{
    OutputShape, Plan, Planner, PreparedMatrix, Suggestion, DEFAULT_CACHE_CAPACITY,
};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::reorder::advisor::advise;
use clusterwise_spgemm::sparse::gen;
use clusterwise_spgemm::sparse::{fingerprint, CooMatrix};
use clusterwise_spgemm::spgemm::{apply_mask, row_topk};
use common::assert_parallel_matches_serial;
use proptest::prelude::*;

const SEED: u64 = 7;

/// Parallel ≡ serial on `plan`'s full product, and the serial oracle
/// agrees with the independent row-wise serial baseline (up to the usual
/// float tolerance — different pipeline, different summation order).
fn assert_full_product_matches(name: &str, a: &CsrMatrix, plan: Plan) {
    let oracle = assert_parallel_matches_serial(name, a, plan, None);
    assert!(
        oracle.numerically_eq(&spgemm_serial(a, a), 1e-9),
        "{name}: oracle diverges from the row-wise baseline under {}",
        plan.describe()
    );
}

/// The generator corpus exercising every structural family the advisor's
/// decision surface branches on.
fn corpus() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("scrambled_mesh", gen::mesh::tri_mesh(12, 12, true, 3)),
        ("poisson2d", gen::grid::poisson2d(12, 12)),
        ("block_diagonal", gen::banded::block_diagonal(96, (4, 8), 0.1, 5)),
        ("grouped_rows", gen::banded::grouped_rows(90, 5, 6, 2)),
        ("rmat_powerlaw", gen::rmat::rmat(7, 6, gen::rmat::RmatParams::default(), 4)),
        ("erdos_renyi", gen::er::erdos_renyi(120, 5, 9)),
    ]
}

#[test]
fn every_advisor_branch_parallel_equals_serial() {
    let planner = Planner::default();
    for (name, a) in corpus() {
        for suggestion in [
            Suggestion::LeaveOriginal,
            Suggestion::Hierarchical,
            Suggestion::Reorder(Reordering::Rcm),
            Suggestion::Reorder(Reordering::Degree),
        ] {
            let plan = planner.plan_for_suggestion(&a, suggestion);
            assert_full_product_matches(name, &a, plan);
        }
    }
}

#[test]
fn every_ranked_candidate_parallel_equals_serial() {
    // Every candidate the planner can hand a race must be exact either
    // way, so a lock can never change results: every advisor suggestion,
    // admitted or not, and the baseline.
    let planner = Planner::with_seed(SEED);
    for (name, a) in [
        ("scrambled_mesh", gen::mesh::tri_mesh(11, 11, true, 7)),
        ("block_diagonal", gen::banded::block_diagonal(80, (4, 8), 0.15, 1)),
    ] {
        for suggestion in advise(&a).into_iter().chain([Suggestion::LeaveOriginal]) {
            assert_full_product_matches(name, &a, planner.plan_for_suggestion(&a, suggestion));
        }
    }
}

#[test]
fn fixed_cluster_lengths_are_bit_identical_across_backends() {
    // The cluster-wise kernel (paper Alg. 1), which `paper` measures and no
    // plan runs, held to the engine kernel's contract: at every fixed
    // length and accumulator, on pools pinned to two and eight workers, it
    // returns its own serial run's bits.
    let a = gen::grid::poisson2d(10, 9);
    for k in [1usize, 3, 8] {
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, k));
        for acc in [AccumulatorKind::Dense, AccumulatorKind::Hash] {
            let opts = |parallel| SpGemmOptions { acc, parallel };
            let serial = clusterwise_spgemm::core::clusterwise_spgemm_with(&cc, &a, &opts(false));
            assert!(serial.numerically_eq(&spgemm_serial(&a, &a), 1e-9), "fixed({k}) {acc:?}");
            for width in [2, 8] {
                let parallel = rayon::with_pool_width(width, || {
                    clusterwise_spgemm::core::clusterwise_spgemm_with(&cc, &a, &opts(true))
                });
                assert!(parallel.bits_eq(&serial), "fixed({k}) {acc:?} at width {width}");
            }
        }
    }
}

#[test]
fn engine_traffic_parallel_equals_the_serial_engine() {
    // End to end through Engine (cache + feedback in the loop). 144 rows is
    // below the planner's parallel threshold, so the auto door *is* the
    // serial engine; the same pipeline forced parallel, in pinned-width
    // pools, must serve the same products round after round.
    let a = gen::mesh::tri_mesh(12, 12, true, 5);
    let mut oracle_engine = Engine::new(Planner::with_seed(SEED), DEFAULT_CACHE_CAPACITY);
    let (oracle, oracle_report) = oracle_engine.multiply(&a, &a);
    assert!(!oracle_report.plan.parallel, "{}", oracle_report.plan.describe());
    let forced = Plan { parallel: true, ..oracle_report.plan };
    for width in [2, 8] {
        let mut engine = Engine::new(Planner::with_seed(SEED), DEFAULT_CACHE_CAPACITY);
        for round in 0..3 {
            let (got, rep) =
                rayon::with_pool_width(width, || engine.multiply_planned(&a, &a, forced));
            assert_eq!(rep.plan, forced, "round {round}");
            assert_eq!(rep.cache_hit, round > 0, "round {round}");
            assert!(
                got.bits_eq(&oracle),
                "width {width}: the parallel engine diverges from the serial one (round {round})"
            );
        }
    }
}

#[test]
fn the_default_door_never_flips_the_planned_parallelism() {
    // 2 000 adaptive multiplies over 8 shuffles of one small mesh — the
    // shape of traffic where feedback used to adopt a slower twin on a
    // timing spike. Whatever plan switches happen, every plan keeps the
    // planner's choice for a 400-row operand: serial.
    let natural = gen::mesh::tri_mesh(20, 20, false, 11);
    let shuffles: Vec<CsrMatrix> = (0..8u64)
        .map(|i| {
            clusterwise_spgemm::reorder::random_permutation(natural.nrows, 100 + i)
                .permute_symmetric(&natural)
        })
        .collect();
    let mut engine = Engine::default();
    for op in 0..2000 {
        let a = &shuffles[op % shuffles.len()];
        let (_, report) = engine.multiply(a, a);
        assert!(!report.plan.parallel, "op {op}: {}", report.plan.describe());
    }
}

/// The output-shape fixtures for the square product `A · A`: top-k with
/// `k` below, near, and above every row's length (`usize::MAX` ≥ any row
/// nnz, so top-k must degenerate to the full product), and masks from
/// empty through the diagonal to the operand's own pattern.
fn shape_cases(a: &CsrMatrix) -> Vec<(&'static str, OutputShape, Option<CsrMatrix>)> {
    let mut diag = CooMatrix::new(a.nrows, a.ncols);
    for i in 0..a.nrows.min(a.ncols) {
        diag.push(i, i, 1.0);
    }
    vec![
        ("topk(0)", OutputShape::TopK(0), None),
        ("topk(2)", OutputShape::TopK(2), None),
        ("topk(MAX)", OutputShape::TopK(usize::MAX), None),
        ("masked by the operand pattern", OutputShape::Masked, Some(a.clone())),
        ("masked by the diagonal", OutputShape::Masked, Some(diag.to_csr())),
        ("masked by the empty mask", OutputShape::Masked, {
            Some(CooMatrix::new(a.nrows, a.ncols).to_csr())
        }),
    ]
}

/// Asserts, for every shape fixture: (1) the parallel shaped product is
/// bit-identical to the serial one, including under plans that permute rows
/// (each computed row has to meet the mask row, and land in the result row,
/// of the original order); (2) the serial shaped product equals the shape
/// transform applied to the serial *full* product — the shapes are pure
/// row-local postprocesses.
fn assert_shaped_products_match(name: &str, a: &CsrMatrix, plan: Plan) {
    let full = assert_parallel_matches_serial(name, a, plan, None);
    for (label, shape, mask) in shape_cases(a) {
        let mask = mask.as_ref();
        let expected = match shape {
            OutputShape::Full => full.clone(),
            OutputShape::TopK(k) => row_topk(&full, k),
            OutputShape::Masked => apply_mask(&full, mask.unwrap()),
        };
        let what = format!("{name}/{label}");
        let oracle = assert_parallel_matches_serial(&what, a, plan.with_shape(shape), mask);
        assert!(
            oracle.bits_eq(&expected),
            "{what}: shaped serial product is not the postprocessed full product under {}",
            plan.describe()
        );
    }
}

#[test]
fn shaped_products_parallel_equals_serial() {
    // Full-product bit-identity must carry over to masked and top-k
    // outputs — including under reordering plans, where the kernel
    // computes rows in its own order and must match each one to the
    // caller's mask row and result row.
    let planner = Planner::default();
    for (name, a) in corpus() {
        for suggestion in [
            Suggestion::LeaveOriginal,
            Suggestion::Reorder(Reordering::Rcm),
            Suggestion::Hierarchical,
        ] {
            let plan = planner.plan_for_suggestion(&a, suggestion);
            assert_shaped_products_match(name, &a, plan);
        }
    }
}

#[test]
fn shaped_degenerate_rows_stay_bit_identical() {
    // Shapes over degenerate structure: empty rows (nothing to keep), a
    // singleton row (k ≥ nnz keeps it whole), a fully dense row (top-k
    // actually truncates), and duplicate COO entries summed on conversion
    // — in both the operand and the mask.
    let n = 40;
    let mut coo = CooMatrix::new(n, n);
    coo.push(1, 7, 2.5);
    for j in 0..n {
        coo.push(2, j, (j as f64 - 11.0) * 0.25);
    }
    for i in 3..n {
        for d in 0..=(i % 4) {
            let j = (i + d * 5) % n;
            coo.push(i, j, 0.1 * i as f64 - 0.3 * d as f64);
            if d == 1 {
                coo.push(i, j, 0.75); // duplicate entry, summed
            }
        }
    }
    let a = coo.to_csr();
    for plan in [Plan::baseline(), Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() }] {
        assert_shaped_products_match("degenerate", &a, plan);
    }
}

#[test]
fn the_whole_plan_space_is_bit_identical_to_the_serial_product() {
    // A plan is three fields and every value of each is enumerable, so this
    // is the table's outer half in full: row order × parallel × shape, each
    // product compared bit for bit with the plain
    // serial row-wise product (shaped by the public row-local transforms).
    // Row reordering permutes whole rows and the kernels accumulate an
    // output entry in ascending-`k` order, so no plan may change a single
    // bit (`CsrMatrix::bits_eq`: stricter than `approx_eq(_, 0.0)`, which
    // lets `-0.0` pass for `0.0`).
    let mut reorderings = Reordering::all_ten();
    reorderings.extend([Reordering::Original, Reordering::Hierarchical]);
    for (name, a) in [
        ("scrambled_mesh", gen::mesh::tri_mesh(8, 8, true, 3)),
        ("rmat_powerlaw", gen::rmat::rmat(6, 5, gen::rmat::RmatParams::default(), 4)),
    ] {
        let full = spgemm_serial(&a, &a);
        let expected = [
            (OutputShape::Full, None, full.clone()),
            (OutputShape::TopK(2), None, row_topk(&full, 2)),
            (OutputShape::Masked, Some(&a), apply_mask(&full, &a)),
        ];
        for &reorder in &reorderings {
            for parallel in [true, false] {
                for (shape, mask, expect) in &expected {
                    let plan = Plan { reorder, parallel, shape: *shape };
                    let got = PreparedMatrix::prepare(&a, plan, SEED, &ClusterConfig::default())
                        .multiply_shaped(&a, *mask);
                    assert!(got.bits_eq(expect), "{name}: {} changes bits", plan.describe());
                }
            }
        }
    }
}

#[test]
fn a_reordered_plan_runs_two_sided_exactly_when_b_is_the_prepared_operand() {
    // The identity axis. A preparation that carries relabelled ids — a
    // square `a` whose rows an order moved *into a band*: RCM and the
    // hierarchical sweep on these meshes, not Degree or Random, which leave
    // ids scattered — runs in its permuted label space on both sides when,
    // and only when, `b` is `a`: the same reference through
    // `Engine::multiply_planned`, or a content-equal matrix through the full
    // checksum. A `b` one *unsampled* value away from `a` (same fingerprint),
    // `aᵀ` and a rectangular `b` must take the one-sided arm; so must every
    // preparation without a relabelling and every masked plan, on the small
    // mesh and the large one alike. Whichever arm runs, the product is
    // `spgemm_serial(a, b)`
    // under the public shape transforms, bit for bit — the report's
    // `two_sided` says which it was.
    let mut engine = Engine::default();
    for mut a in [gen::mesh::tri_mesh(12, 12, true, 3), gen::mesh::tri_mesh(48, 48, true, 3)] {
        // The mesh is symmetric; make sure its transpose is another matrix.
        for (p, v) in a.vals.iter_mut().enumerate() {
            *v += 0.125 * (p % 5) as f64;
        }
        let clone = a.clone();
        let mut near_miss = a.clone();
        let unsampled = (1..a.nnz())
            .find(|&p| {
                near_miss.vals[p] += 0.5;
                let collides = fingerprint(&near_miss) == fingerprint(&a);
                if !collides {
                    near_miss.vals[p] = a.vals[p];
                }
                collides
            })
            .expect("an operand past 256 stored entries has values the fingerprint skips");
        assert_ne!(near_miss.vals[unsampled], a.vals[unsampled]);
        let transposed = a.transpose();
        let rect = gen::er::erdos_renyi_rect(a.nrows, 9, 3, 4);
        // (name, b, whether b is a).
        let rhs: [(&str, &CsrMatrix, bool); 5] = [
            ("the same reference", &a, true),
            ("a content-equal clone", &clone, true),
            ("one unsampled value changed", &near_miss, false),
            ("the transpose", &transposed, false),
            ("a rectangular b", &rect, false),
        ];
        for reorder in [
            Reordering::Rcm,
            Reordering::Degree,
            Reordering::Random,
            Reordering::Original,
            Reordering::Hierarchical,
        ] {
            for parallel in [false, true] {
                for shape in [OutputShape::Full, OutputShape::TopK(2), OutputShape::Masked] {
                    let plan = Plan { reorder, parallel, shape };
                    for (name, b, b_is_a) in rhs {
                        let what = format!("{}² mesh, {name} under {}", a.nrows, plan.describe());
                        let full = spgemm_serial(&a, b);
                        // A mask has the product's dimensions.
                        let mask = if b.ncols == a.ncols { &a } else { b };
                        let (prepared, timings, hit) =
                            engine.prepare_with_shape(&a, Some(plan), shape);
                        let (got, report, expect) = match shape {
                            OutputShape::Masked => {
                                let (got, report) = engine.execute_prepared_shaped(
                                    &prepared,
                                    b,
                                    Some(mask),
                                    timings,
                                    hit,
                                );
                                (got, report, apply_mask(&full, mask))
                            }
                            OutputShape::TopK(k) => {
                                let (got, report) = engine.multiply_planned(&a, b, plan);
                                (got, report, row_topk(&full, k))
                            }
                            OutputShape::Full => {
                                let (got, report) = engine.multiply_planned(&a, b, plan);
                                (got, report, full)
                            }
                        };
                        assert!(got.bits_eq(&expect), "{what}: bits changed");
                        assert_eq!(report.accumulator, AccumulatorKind::Dense, "{what}");
                        // What the preparation must carry: nothing
                        // unless the rows moved into a band, and never
                        // under a masked plan.
                        let masked = shape == OutputShape::Masked;
                        let banded = matches!(reorder, Reordering::Rcm | Reordering::Hierarchical);
                        assert_eq!(prepared.is_relabelled(), banded && !masked, "{what}");
                        assert_eq!(
                            report.two_sided,
                            b_is_a && prepared.is_relabelled(),
                            "{what}: wrong arm ({})",
                            report.summary()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_clustered_operand_runs_the_lane_kernel_bit_identically_on_both_arms() {
    // The lane arm of the table: near-duplicate rows, shuffled. Every
    // unmasked plan keeps the operand clustered (ExecutionReport::clustered)
    // and runs the cluster-wise lane kernel — two-sided when `b` is proven
    // to be `a` (the same reference, or a content-equal clone), one-sided
    // otherwise; a masked plan never scans and runs row-wise. Whatever ran, the product is
    // `spgemm_serial(a, b)` under the shape transforms, bit for bit, in
    // pools of one, two and four workers and at the process-wide width.
    let natural = gen::banded::block_diagonal(2_000, (6, 10), 0.02, 5);
    let a = clusterwise_spgemm::reorder::random_permutation(natural.nrows, 9)
        .permute_symmetric(&natural);
    let clone = a.clone();
    let mut other = a.clone();
    other.vals[0] += 1.0;
    let mut engine = Engine::default();
    let mut run = |plan: Plan, b: &CsrMatrix| {
        let mask = (plan.shape == OutputShape::Masked).then_some(&a);
        let (prepared, timings, hit) = engine.prepare_with_shape(&a, Some(plan), plan.shape);
        // `multiply_planned` proves `b` by reference but takes no mask.
        let (got, report) = if std::ptr::eq(b, &a) && mask.is_none() {
            engine.multiply_planned(&a, b, plan)
        } else {
            engine.execute_prepared_shaped(&prepared, b, mask, timings, hit)
        };
        (got, report, prepared.is_relabelled())
    };
    for reorder in [Reordering::Rcm, Reordering::Hierarchical] {
        for parallel in [false, true] {
            for shape in [OutputShape::Full, OutputShape::TopK(2), OutputShape::Masked] {
                let plan = Plan { reorder, parallel, shape };
                for (name, b, b_is_a) in
                    [("a", &a, true), ("a clone", &clone, true), ("not a", &other, false)]
                {
                    let full = spgemm_serial(&a, b);
                    let expect = match shape {
                        OutputShape::Full => full,
                        OutputShape::TopK(k) => row_topk(&full, k),
                        OutputShape::Masked => apply_mask(&full, &a),
                    };
                    for width in [None, Some(1), Some(2), Some(4)] {
                        let what = format!("{name} under {} at width {width:?}", plan.describe());
                        let (got, report, relabelled) = match width {
                            None => run(plan, b),
                            Some(w) => rayon::with_pool_width(w, || run(plan, b)),
                        };
                        assert!(got.bits_eq(&expect), "{what}: bits changed");
                        let masked = shape == OutputShape::Masked;
                        assert_eq!(
                            report.clustered.is_some(),
                            !masked,
                            "{what}: {}",
                            report.summary()
                        );
                        assert_eq!(relabelled, !masked, "{what}");
                        assert_eq!(
                            report.two_sided,
                            b_is_a && !masked,
                            "{what}: {}",
                            report.summary()
                        );
                    }
                }
            }
        }
    }
}

/// Strategy: a random sparse square matrix (duplicates summed by the COO →
/// CSR conversion, exactly as the other property suites build inputs).
fn sparse_square(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (4usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -4.0f64..4.0), 0..max_nnz).prop_map(move |entries| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in entries {
                coo.push(i, j, v);
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]


    #[test]
    fn random_matrices_are_bit_identical_across_backends(a in sparse_square(40, 220)) {
        let planner = Planner::default();
        // The planner's top choice, the baseline and hierarchical clustering's
        // row order.
        let mut plans = vec![
            planner.plan(&a),
            Plan::baseline(),
            Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() },
        ];
        plans.dedup();
        for plan in plans {
            let what = format!("a random {}x{} matrix", a.nrows, a.ncols);
            assert_parallel_matches_serial(&what, &a, plan, None);
        }
    }

    #[test]
    fn random_shaped_products_parallel_equals_serial(
        a in sparse_square(32, 160),
        k in 0usize..6,
    ) {
        let plan = Planner::default().plan(&a);
        let what = format!("a random {}x{} matrix", a.nrows, a.ncols);
        let full = assert_parallel_matches_serial(&what, &a, plan, None);
        for (shape, mask) in [
            (OutputShape::TopK(k), None),
            (OutputShape::Masked, Some(a.clone())),
        ] {
            let mask = mask.as_ref();
            let expected = match shape {
                OutputShape::Full => full.clone(),
                OutputShape::TopK(k) => row_topk(&full, k),
                OutputShape::Masked => apply_mask(&full, mask.unwrap()),
            };
            let got = assert_parallel_matches_serial(&what, &a, plan.with_shape(shape), mask);
            prop_assert!(
                got.bits_eq(&expected),
                "the serial {:?} product is not the postprocessed oracle on {} under {}",
                shape, what, plan.describe()
            );
        }
    }
}
