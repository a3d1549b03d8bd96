//! Property-based tests (proptest) on the core data structures and
//! invariants: format round-trips, kernel correctness against a dense
//! reference, permutation algebra, clustering laws, and similarity bounds.

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::jaccard::{jaccard, jaccard_from_overlap};
use clusterwise_spgemm::sparse::CooMatrix;
use clusterwise_spgemm::spgemm::{
    Accumulator, DenseAccumulator, HashAccumulator, LabelMap, SameLabels,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random sparse `nrows × ncols` matrix (both at least 1).
fn sparse_rect(nrows: usize, ncols: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec((0..nrows, 0..ncols, -4.0f64..4.0), 0..max_nnz).prop_map(
        move |entries| {
            let mut coo = CooMatrix::new(nrows, ncols);
            for (i, j, v) in entries {
                coo.push(i, j, v);
            }
            coo.to_csr()
        },
    )
}

/// Strategy: a random sparse square matrix of order `2..=max_n`.
fn sparse_square(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2usize..=max_n).prop_flat_map(move |n| sparse_rect(n, n, max_nnz))
}

/// Strategy: a random clustering of `n` rows with sizes in 1..=8.
fn clustering_of(n: usize) -> impl Strategy<Value = Clustering> {
    proptest::collection::vec(1u32..=8, 1..=n).prop_map(move |mut sizes| {
        // Trim/pad so sizes sum to exactly n.
        let mut total = 0u32;
        let mut out = Vec::new();
        for s in sizes.drain(..) {
            if total + s >= n as u32 {
                out.push(n as u32 - total);
                total = n as u32;
                break;
            }
            total += s;
            out.push(s);
        }
        while total < n as u32 {
            let s = (n as u32 - total).min(8);
            out.push(s);
            total += s;
        }
        out.retain(|&s| s > 0);
        Clustering { sizes: out }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_coo_round_trip(a in sparse_square(24, 120)) {
        let back = a.to_coo().to_csr();
        prop_assert!(a.approx_eq(&back, 0.0));
    }

    #[test]
    fn transpose_is_involution(a in sparse_square(24, 120)) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn transpose_preserves_frobenius(a in sparse_square(24, 120)) {
        let t = a.transpose();
        prop_assert!((a.frobenius_norm() - t.frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn spgemm_matches_dense_reference(a in sparse_square(14, 60)) {
        let c = spgemm(&a, &a);
        let reference = cw_spgemm_dense_ref(&a, &a);
        prop_assert!(c.numerically_eq(&reference, 1e-9));
    }

    #[test]
    fn csr_cluster_round_trips(
        (a, clustering) in sparse_square(24, 150).prop_flat_map(|a| {
            let n = a.nrows;
            (Just(a), clustering_of(n))
        })
    ) {
        clustering.validate(a.nrows).unwrap();
        let cc = CsrCluster::from_csr(&a, &clustering);
        cc.validate().unwrap();
        prop_assert_eq!(cc.nnz(), a.nnz());
        prop_assert!(cc.to_csr().approx_eq(&a, 0.0));
    }

    #[test]
    fn clusterwise_matches_rowwise_any_clustering(
        (a, clustering) in sparse_square(16, 80).prop_flat_map(|a| {
            let n = a.nrows;
            (Just(a), clustering_of(n))
        })
    ) {
        let cc = CsrCluster::from_csr(&a, &clustering);
        let got = clusterwise_spgemm(&cc, &a);
        let expected = spgemm_serial(&a, &a);
        prop_assert!(got.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn fused_mask_equals_the_post_filter(
        (a, b, mask) in (1usize..=12, 1usize..=12, 1usize..=12).prop_flat_map(|(n, k, m)| {
            (sparse_rect(n, k, 60), sparse_rect(k, m, 60), sparse_rect(n, m, 60))
        })
    ) {
        let expected = apply_mask(&spgemm_serial(&a, &b), &mask);
        for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
            for parallel in [false, true] {
                let opts = SpGemmOptions { acc, parallel, ..SpGemmOptions::default() };
                let got = spgemm_masked_with(&a, &b, &mask, &opts);
                prop_assert!(got.bits_eq(&expected), "{:?}, parallel {}", acc, parallel);
            }
        }
    }

    #[test]
    fn masked_plan_under_a_reordering_equals_the_post_filter(
        (a, b, mask) in (2usize..=16, 1usize..=12).prop_flat_map(|(n, m)| {
            (sparse_rect(n, n, 80), sparse_rect(n, m, 60), sparse_rect(n, m, 60))
        })
    ) {
        // RCM permutes A's rows, so the mask has to follow them into the
        // kernel's row order and the product has to come back out of it.
        let plan = Plan { reorder: Reordering::Rcm, shape: OutputShape::Masked, ..Plan::baseline() };
        let mut engine = Engine::default();
        let (prepared, timings, hit) = engine.prepare_with_shape(&a, Some(plan), plan.shape);
        let (got, report) =
            engine.execute_prepared_shaped(&prepared, &b, Some(&mask), timings, hit);
        prop_assert_eq!(report.plan, plan);
        prop_assert!(got.bits_eq(&apply_mask(&spgemm_serial(&a, &b), &mask)));
    }

    #[test]
    fn mapped_kernels_equal_the_serial_product_with_its_rows_moved(
        (a, b, mask, seed) in (1usize..=12, 1usize..=12, 1usize..=12).prop_flat_map(|(n, k, m)| {
            (sparse_rect(n, k, 60), sparse_rect(k, m, 60), sparse_rect(n, m, 60), 0u64..1000)
        })
    ) {
        use clusterwise_spgemm::core::clusterwise_spgemm_mapped;
        use clusterwise_spgemm::spgemm::{spgemm_mapped, spgemm_masked_mapped};
        // Row `i` of the product goes to row `map.old_of(i)` of the result;
        // the mask is in the result's row order.
        let map = clusterwise_spgemm::reorder::random_permutation(a.nrows, seed);
        let expected = map.inverse().permute_rows(&spgemm_serial(&a, &b));
        let expected_masked = apply_mask(&expected, &mask);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 3));
        for parallel in [false, true] {
            let opts = SpGemmOptions { parallel, ..SpGemmOptions::default() };
            prop_assert!(spgemm_mapped(&a, &b, &opts, Some(&map)).bits_eq(&expected));
            prop_assert!(clusterwise_spgemm_mapped(&cc, &b, &opts, Some(&map)).bits_eq(&expected));
            let got = spgemm_masked_mapped(&a, &b, &mask, &opts, Some(&map));
            prop_assert!(got.bits_eq(&expected_masked), "masked, parallel {}", parallel);
        }
    }

    #[test]
    fn two_sided_kernels_equal_the_one_sided_ones(
        a in sparse_square(16, 90),
        seed in 0u64..1000,
    ) {
        use clusterwise_spgemm::core::{clusterwise_spgemm_labelled, clusterwise_spgemm_mapped};
        use clusterwise_spgemm::spgemm::{spgemm_labelled, spgemm_mapped, CsrRows};
        // One-sided: `P·A · A`, rows handed back through `P`. Two-sided: the
        // same rows with every id sent through `P⁻¹` in place, as both
        // operands, and `P` as row map and label map. Same product, same
        // bits — and both are the serial `A · A`.
        let p = clusterwise_spgemm::reorder::random_permutation(a.nrows, seed);
        let pa = p.permute_rows(&a);
        let inv = p.inverse_map();
        let ids: Vec<u32> = pa.col_idx.iter().map(|&c| inv[c as usize]).collect();
        let rows = CsrRows { ids: &ids, ..CsrRows::from(&pa) };
        let cc = CsrCluster::from_csr(&pa, &fixed_clustering(&pa, 3));
        let union_ids: Vec<u32> = cc.col_ids.iter().map(|&c| inv[c as usize]).collect();
        let expected = spgemm_serial(&a, &a);
        for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
            for parallel in [false, true] {
                let opts = SpGemmOptions { acc, parallel, ..SpGemmOptions::default() };
                let one_sided = spgemm_mapped(&pa, &a, &opts, Some(&p));
                let two_sided = spgemm_labelled(rows, rows, &opts, Some(&p), &p);
                prop_assert!(one_sided.bits_eq(&expected) && two_sided.bits_eq(&expected));
                let one_sided = clusterwise_spgemm_mapped(&cc, &a, &opts, Some(&p));
                let two_sided =
                    clusterwise_spgemm_labelled(&cc, &union_ids, rows, &opts, Some(&p), &p);
                prop_assert!(one_sided.bits_eq(&expected) && two_sided.bits_eq(&expected));
            }
        }
    }

    #[test]
    fn planned_products_come_back_in_caller_order(
        (a, b, mask) in (2usize..=16, 1usize..=12).prop_flat_map(|(n, m)| {
            (sparse_rect(n, n, 80), sparse_rect(n, m, 60), sparse_rect(n, m, 60))
        })
    ) {
        // Both pipelines run the kernel over moved rows; whatever the shape,
        // the caller sees the oracle's rows where it left them.
        let full = spgemm_serial(&a, &b);
        let pipelines = [
            Plan { reorder: Reordering::Rcm, ..Plan::baseline() },
            Plan { clustering: ClusteringStrategy::Hierarchical, ..Plan::baseline() },
        ];
        for pipeline in pipelines {
            for shape in [OutputShape::Full, OutputShape::TopK(2), OutputShape::Masked] {
                let plan = pipeline.with_shape(shape);
                let mut engine = Engine::default();
                let (got, expected) = match shape {
                    OutputShape::Full => (engine.multiply_planned(&a, &b, plan).0, full.clone()),
                    OutputShape::TopK(k) => {
                        (engine.multiply_planned(&a, &b, plan).0, row_topk(&full, k))
                    }
                    // `multiply_planned` carries no mask operand.
                    OutputShape::Masked => {
                        let (prepared, timings, hit) =
                            engine.prepare_with_shape(&a, Some(plan), shape);
                        let (got, _) = engine
                            .execute_prepared_shaped(&prepared, &b, Some(&mask), timings, hit);
                        (got, apply_mask(&full, &mask))
                    }
                };
                prop_assert!(got.bits_eq(&expected), "{}", plan.describe());
            }
        }
    }

    #[test]
    fn variable_clustering_is_a_partition(a in sparse_square(40, 200)) {
        let c = variable_clustering(&a, &ClusterConfig::default());
        prop_assert!(c.validate(a.nrows).is_ok());
    }

    #[test]
    fn hierarchical_produces_valid_permutation_and_partition(a in sparse_square(30, 150)) {
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        prop_assert_eq!(h.perm.len(), a.nrows);
        prop_assert!(h.clustering.validate(a.nrows).is_ok());
        // Every cluster respects the cap.
        prop_assert!(h.clustering.sizes.iter().all(|&s| s <= 8));
    }

    #[test]
    fn permutation_inverse_composes_to_identity(n in 1usize..64, seed in 0u64..1000) {
        let p = clusterwise_spgemm::reorder::random_permutation(n, seed);
        prop_assert!(p.then(&p.inverse()).is_identity());
        prop_assert!(p.inverse().then(&p).is_identity());
    }

    #[test]
    fn symmetric_permutation_preserves_value_multiset(
        a in sparse_square(20, 100),
        seed in 0u64..100,
    ) {
        let p = clusterwise_spgemm::reorder::random_permutation(a.nrows, seed);
        let b = p.permute_symmetric(&a);
        prop_assert_eq!(a.nnz(), b.nnz());
        let mut va = a.vals.clone();
        let mut vb = b.vals.clone();
        va.sort_by(f64::total_cmp);
        vb.sort_by(f64::total_cmp);
        prop_assert_eq!(va, vb);
    }

    #[test]
    fn jaccard_bounds_and_symmetry(
        xs in proptest::collection::btree_set(0u32..64, 0..20),
        ys in proptest::collection::btree_set(0u32..64, 0..20),
    ) {
        let xv: Vec<u32> = xs.iter().copied().collect();
        let yv: Vec<u32> = ys.iter().copied().collect();
        let j1 = jaccard(&xv, &yv);
        let j2 = jaccard(&yv, &xv);
        prop_assert!((j1 - j2).abs() < 1e-15);
        prop_assert!((0.0..=1.0).contains(&j1));
        // Consistency with the overlap formulation.
        let inter = xs.intersection(&ys).count();
        prop_assert!((j1 - jaccard_from_overlap(inter, xv.len(), yv.len())).abs() < 1e-15);
    }

    #[test]
    fn flops_bound_output_size(a in sparse_square(16, 80)) {
        // nnz(C) can never exceed the multiply-add count.
        let c = spgemm(&a, &a);
        let ma = clusterwise_spgemm::spgemm::flops::multiply_adds(&a, &a);
        prop_assert!(c.nnz() as u64 <= ma);
    }
}

/// Keys of one accumulator row: the width a dense accumulator is built for,
/// and the size of the permutation label map.
const ROW_KEYS: u32 = 4096;

/// A label map onto the top of the id range: key `k` is emitted as
/// `u32::MAX − 1 − k`, so labels descend as keys ascend.
struct Reflect;

impl LabelMap for Reflect {
    const IDENTITY: bool = false;
    fn label(&self, key: u32) -> u32 {
        u32::MAX - 1 - key
    }
}

/// `keys` in insertion order `order` (0 ascending, 1 descending, else an
/// arbitrary order from `seed`), each as `(key, value)`, with every third
/// key added a second time later in the row so merging is exercised too.
fn insertion_sequence(keys: &BTreeSet<u32>, order: u8, seed: u64) -> Vec<(u32, f64)> {
    let mut ks: Vec<u32> = keys.iter().copied().collect();
    match order {
        0 => {}
        1 => ks.reverse(),
        _ => {
            let mut s = seed | 1;
            for i in (1..ks.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ks.swap(i, (s % (i as u64 + 1)) as usize);
            }
        }
    }
    let mut adds: Vec<(u32, f64)> = ks.iter().map(|&k| (k, 0.5 + (k % 97) as f64 / 7.0)).collect();
    adds.extend(ks.iter().filter(|&&k| k % 3 == 0).map(|&k| (k, -1e-3 * k as f64)));
    adds
}

/// What extraction must emit: each key's sum in arrival order, under its
/// label, in ascending label order — the comparison sort's answer.
fn sorted_row<L: LabelMap>(labels: &L, adds: &[(u32, f64)]) -> (Vec<u32>, Vec<u64>) {
    let mut sums: Vec<(u32, f64)> = Vec::new();
    for &(k, v) in adds {
        match sums.iter_mut().find(|(c, _)| *c == k) {
            Some(entry) => entry.1 += v,
            None => sums.push((k, v)),
        }
    }
    let mut row: Vec<(u32, u64)> =
        sums.iter().map(|&(k, v)| (labels.label(k), v.to_bits())).collect();
    row.sort_unstable();
    row.into_iter().unzip()
}

/// Feeds `adds` to `acc` and extracts under `labels`: the row must be
/// [`sorted_row`]'s, bit for bit, and the accumulator empty afterwards.
fn extracts_the_sorted_row<A: Accumulator, L: LabelMap>(
    acc: &mut A,
    labels: &L,
    adds: &[(u32, f64)],
) -> Result<(), TestCaseError> {
    for &(k, v) in adds {
        acc.add(k, v);
    }
    let n = acc.len();
    let (mut cols, mut vals) = (vec![0; n], vec![0.0; n]);
    prop_assert_eq!(acc.extract_labelled_into(labels, &mut cols, &mut vals), n);
    prop_assert!(acc.is_empty());
    let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!((cols, bits), sorted_row(labels, adds));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Rows of up to `SHORT_ROW` entries are placed by rank, longer ones
    // sorted; both must emit what a comparison sort does, for either
    // accumulator, with or without a label map, from any insertion order.
    // One accumulator of each kind serves three rows per case, so a row
    // that left state behind shows up in the next.
    #[test]
    fn short_and_long_rows_extract_what_the_sort_extracts(
        rows in proptest::collection::vec(
            (proptest::collection::btree_set(0..ROW_KEYS, 0..=33), 0u8..3, 0u64..u64::MAX),
            3,
        ),
        perm_seed in 0u64..1000,
    ) {
        let perm = clusterwise_spgemm::reorder::random_permutation(ROW_KEYS as usize, perm_seed);
        let mut hash = HashAccumulator::new();
        let mut dense = DenseAccumulator::new(ROW_KEYS as usize);
        for (keys, order, seed) in &rows {
            let adds = insertion_sequence(keys, *order, *seed);
            extracts_the_sorted_row(&mut hash, &SameLabels, &adds)?;
            extracts_the_sorted_row(&mut dense, &SameLabels, &adds)?;
            extracts_the_sorted_row(&mut hash, &perm, &adds)?;
            extracts_the_sorted_row(&mut dense, &perm, &adds)?;
            extracts_the_sorted_row(&mut hash, &Reflect, &adds)?;
            extracts_the_sorted_row(&mut dense, &Reflect, &adds)?;
            // Keys at the top of the id range (the hash accumulator's own;
            // `u32::MAX` itself is its empty-slot sentinel).
            let high: Vec<(u32, f64)> = adds.iter().map(|&(k, v)| (u32::MAX - 1 - k, v)).collect();
            extracts_the_sorted_row(&mut hash, &SameLabels, &high)?;
        }
    }
}

/// Dense reference multiply (kept here to avoid exposing test helpers).
fn cw_spgemm_dense_ref(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let da = a.to_dense();
    let db = b.to_dense();
    let mut dc = vec![0.0; a.nrows * b.ncols];
    for i in 0..a.nrows {
        for k in 0..a.ncols {
            let av = da[i * a.ncols + k];
            if av != 0.0 {
                for j in 0..b.ncols {
                    dc[i * b.ncols + j] += av * db[k * b.ncols + j];
                }
            }
        }
    }
    CsrMatrix::from_dense(a.nrows, b.ncols, &dc)
}
