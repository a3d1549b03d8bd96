//! Cross-validation of all five independent SpGEMM implementations:
//! row-wise (hash/dense accumulators), column-wise, heap-merge,
//! pattern-only, and cluster-wise. Any bug that slips one kernel's unit
//! tests must also fool four structurally different implementations to
//! pass here.
//!
//! The second half is the single-pass driver's table: every kernel that
//! runs on it × accumulator × pool width × chunking × row map, bit-for-bit
//! (`CsrMatrix::bits_eq`) against the serial oracle on the degenerate
//! operands — the masked kernel against the oracle filtered by `apply_mask`,
//! a mapped kernel against the oracle with its rows moved the same way, a
//! labelled kernel (run on `P·A·Pᵀ` with ids left in `A`'s order) against the
//! oracle itself, and the cluster-wise lane kernel — fixed clusters of 1, 4
//! and 8 rows, variable and hierarchical ones; rows mapped, and two-sided on
//! relabelled union ids — against the serial product of its operand, moved
//! and labelled the same way.

use clusterwise_spgemm::core::{clusterwise_spgemm_labelled, clusterwise_spgemm_with, ClusterRows};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::reorder::random_permutation;
use clusterwise_spgemm::sparse::gen;
use clusterwise_spgemm::spgemm::flops::multiply_adds;
use clusterwise_spgemm::spgemm::SameLabels;
use clusterwise_spgemm::spgemm::{
    spgemm_colwise, spgemm_heap, spgemm_labelled, spgemm_mapped, spgemm_masked_mapped,
    spgemm_pattern, CsrRows,
};

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("mesh", gen::mesh::tri_mesh(11, 10, true, 1)),
        ("rmat", gen::rmat::rmat(7, 5, gen::rmat::RmatParams::default(), 2)),
        ("blocks", gen::banded::block_diagonal(70, (3, 6), 0.08, 3)),
        ("kkt", gen::kkt::kkt(60, 20, 2, 2, 4)),
        ("er", gen::er::erdos_renyi(80, 5, 5)),
    ]
}

#[test]
fn five_kernels_agree_on_a_squared() {
    let cfg = ClusterConfig::default();
    for (name, a) in matrices() {
        let rowwise = spgemm_serial(&a, &a);
        let colwise = spgemm_colwise(&a, &a);
        assert!(colwise.approx_eq(&rowwise, 1e-9), "{name}: colwise");
        let heap = spgemm_heap(&a, &a);
        assert!(heap.approx_eq(&rowwise, 1e-9), "{name}: heap");
        let pattern = spgemm_pattern(&a, &a);
        assert_eq!(pattern.col_idx, rowwise.col_idx, "{name}: pattern");
        let cc = CsrCluster::from_csr(&a, &variable_clustering(&a, &cfg));
        let cluster = clusterwise_spgemm(&cc, &a);
        assert!(cluster.approx_eq(&rowwise, 1e-9), "{name}: clusterwise");
        let ablate = clusterwise_spgemm::core::ablation::clusterwise_row_major(&cc, &a);
        assert!(ablate.approx_eq(&rowwise, 1e-9), "{name}: row-major ablation");
    }
}

#[test]
fn spgemm_against_spmv_oracle() {
    // (A·B)·x == A·(B·x) for dense x: cross-checks SpGEMM against SpMV.
    use clusterwise_spgemm::sparse::spmv::spmv;
    for (name, a) in matrices() {
        let b = gen::er::erdos_renyi(a.nrows, 4, 99);
        let c = spgemm(&a, &b);
        let x: Vec<f64> = (0..a.nrows).map(|i| ((i * 7 + 1) as f64).recip()).collect();
        let via_c = spmv(&c, &x);
        let bx = spmv(&b, &x);
        let via_chain = spmv(&a, &bx);
        for (u, v) in via_c.iter().zip(&via_chain) {
            assert!((u - v).abs() < 1e-9, "{name}");
        }
    }
}

#[test]
fn kron_product_identity_via_spgemm() {
    // (A ⊗ I)(I ⊗ B) == A ⊗ B.
    use clusterwise_spgemm::sparse::gen::kron::kron;
    let a = gen::er::erdos_renyi(6, 2, 1);
    let b = gen::er::erdos_renyi(5, 2, 2);
    let i_a = CsrMatrix::identity(6);
    let i_b = CsrMatrix::identity(5);
    let lhs = spgemm(&kron(&a, &i_b), &kron(&i_a, &b));
    let rhs = kron(&a, &b);
    assert!(lhs.numerically_eq(&rhs, 1e-10));
}

#[test]
fn advisor_suggestions_are_executable() {
    use clusterwise_spgemm::reorder::advisor::{advise, Suggestion};
    for (name, a) in matrices() {
        let reference = spgemm_serial(&a, &a);
        // Variable-length clustering in the input order, whatever the
        // advisor suggests.
        let cc = CsrCluster::from_csr(&a, &variable_clustering(&a, &ClusterConfig::default()));
        assert!(clusterwise_spgemm(&cc, &a).approx_eq(&reference, 1e-9), "{name}");
        for s in advise(&a) {
            match s {
                Suggestion::Reorder(algo) => {
                    let p = algo.compute(&a, 3);
                    let pa = p.permute_symmetric(&a);
                    let c = spgemm_serial(&pa, &pa);
                    assert!(
                        c.numerically_eq(&p.permute_symmetric(&reference), 1e-8),
                        "{name}: {algo:?}"
                    );
                }
                Suggestion::Hierarchical => {
                    let h = hierarchical_clustering(&a, &ClusterConfig::default());
                    let (cc, pa) = h.build_symmetric(&a);
                    let c = clusterwise_spgemm(&cc, &pa);
                    assert!(
                        c.numerically_eq(&h.perm.permute_symmetric(&reference), 1e-8),
                        "{name}"
                    );
                }
                Suggestion::LeaveOriginal => {}
            }
        }
    }
}

/// Values whose sums depend on the order of addition, so a kernel that
/// reassociates partial products cannot pass a bit-for-bit comparison.
fn val(i: usize, j: usize) -> f64 {
    0.1 + (i * 31 + j * 17) as f64 / 7.0
}

/// Operand pairs the single-pass driver's sizing and assembly could get
/// wrong: `(name, A, B)`.
fn degenerate_operands() -> Vec<(&'static str, CsrMatrix, CsrMatrix)> {
    let dense = |nrows: usize, ncols: usize| {
        let rows = (0..nrows).map(|i| (0..ncols).map(|j| (j, val(i, j))).collect()).collect();
        CsrMatrix::from_row_lists(ncols, rows)
    };
    let er = gen::er::erdos_renyi(24, 12, 7);

    // Full rows separated by runs of empty ones (also first and last).
    let gappy = CsrMatrix::from_row_lists(
        12,
        (0..12)
            .map(|i| if i % 4 == 1 { (0..12).map(|j| (j, val(i, j))).collect() } else { vec![] })
            .collect(),
    );

    // One row references every B row: flops(row) = nnz(B) > ncols, so its
    // bound is capped by ncols and it fills its whole window.
    let mut one_dense_row: Vec<Vec<(usize, f64)>> = (0..24).map(|i| vec![(i, val(i, i))]).collect();
    one_dense_row[5] = (0..24).map(|j| (j, val(5, j))).collect();

    // +x and -x meet in one output column: an explicit stored zero.
    let cancel_a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)], vec![(1, 2.0)]]);
    let cancel_b = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.5), (2, 1.0)], vec![(0, -1.5)]]);

    // NaN, infinities and signed zeros as stored values.
    let odd = [f64::NAN, -0.0, 0.0, f64::INFINITY, -1.0, f64::NEG_INFINITY, 1e-310, 3.5];
    let odd_a = CsrMatrix::from_row_lists(
        8,
        (0..8)
            .map(|i| (0..8).step_by(i % 3 + 1).map(|j| (j, odd[(i + j) % 8])).collect())
            .collect(),
    );
    // The same values in sixteen full rows: clusters of eight members with
    // every union column full (the cluster-wise kernel's unmasked lanes),
    // then an empty row in each half for the masked ones.
    let odd_full = |gaps: bool| {
        let row = |i: usize| (0..8).map(|j| (j, odd[(i + 3 * j) % 8])).collect();
        let rows = (0..16).map(|i| if gaps && i % 8 == 5 { vec![] } else { row(i) }).collect();
        CsrMatrix::from_row_lists(8, rows)
    };
    let square = |m: &CsrMatrix| {
        // `B` is the 8 × 8 operand of `m`'s first eight rows.
        let rows = (0..8).map(|k| m.row_cols(k).iter().zip(m.row_vals(k)));
        let rows = rows.map(|r| r.map(|(&j, &v)| (j as usize, v)).collect()).collect();
        CsrMatrix::from_row_lists(8, rows)
    };

    // 50 partial products collapse into each output entry: every row of A
    // hits the same 50 B rows, which all share the same 8 columns of 1000.
    // The bound (400 per row) is 50x the result.
    let hubs_b = CsrMatrix::from_row_lists(
        1000,
        (0..50).map(|k| (0..8).map(|c| (c * 125, val(k, c))).collect()).collect(),
    );

    vec![
        ("empty", CsrMatrix::zeros(6, 6), CsrMatrix::zeros(6, 6)),
        ("no-rows", CsrMatrix::zeros(0, 4), CsrMatrix::zeros(4, 3)),
        ("empty-rows-between-full", gappy.clone(), gappy),
        ("one-dense-row", CsrMatrix::from_row_lists(24, one_dense_row), er),
        ("inner-1xn-nx1", dense(1, 40), dense(40, 1)),
        ("outer-nx1-1xn", dense(40, 1), dense(1, 40)),
        ("cancellation", cancel_a, cancel_b),
        ("nan-and-signed-zero", odd_a.clone(), odd_a),
        ("full-clusters-of-odd-values", odd_full(false), square(&odd_full(false))),
        ("full-clusters-with-empty-rows", odd_full(true), square(&odd_full(true))),
        ("high-compression", dense(40, 50), hubs_b),
    ]
}

fn assert_bits_eq(got: &CsrMatrix, expect: &CsrMatrix, what: &str) {
    got.validate().unwrap_or_else(|e| panic!("{what}: invalid CSR: {e:?}"));
    assert!(got.bits_eq(expect), "{what}: not bit-identical\n  got {got:?}\n want {expect:?}");
    // The output arrays are sized to the result (one allocator granule of
    // slack at most), whatever the upper bound the staging was reserved at.
    const GRANULE: usize = 16;
    assert!(got.col_idx.capacity() <= got.nnz() + GRANULE, "{what}: col_idx oversized");
    assert!(got.vals.capacity() <= got.nnz() + GRANULE, "{what}: vals oversized");
}

/// Masks for a product `c`, as `(name, mask)`: what a kernel that admits
/// only the mask's columns could get wrong. Every built mask stores
/// explicit zeros — a mask is its pattern.
fn degenerate_masks(c: &CsrMatrix) -> Vec<(&'static str, CsrMatrix)> {
    let mask = |row: &dyn Fn(usize) -> Vec<usize>| {
        let rows = (0..c.nrows).map(|i| row(i).into_iter().map(|j| (j, 0.0)).collect()).collect();
        let m = CsrMatrix::from_row_lists(c.ncols, rows);
        assert_eq!((m.nrows, m.ncols), (c.nrows, c.ncols));
        m
    };
    let own = |i: usize| c.row_cols(i).iter().map(|&j| j as usize).collect::<Vec<_>>();
    let all = || (0..c.ncols).collect::<Vec<_>>();
    vec![
        ("own pattern", c.clone()),
        ("empty", CsrMatrix::zeros(c.nrows, c.ncols)),
        // Empty mask rows over non-empty product rows, and full mask rows
        // over empty product rows.
        ("rows swapped", mask(&|i| if c.row_nnz(i) == 0 { all() } else { vec![] })),
        // Only columns the product lacks: admitted, never touched.
        ("complement", {
            mask(&|i| {
                let present = own(i);
                all().into_iter().filter(|j| !present.contains(j)).collect()
            })
        }),
        // Some columns of each kind in every row.
        ("stripes", mask(&|_| (0..c.ncols).step_by(2).collect())),
        // One fully dense mask row among own-pattern rows.
        ("one dense row", mask(&|i| if i == c.nrows / 2 { all() } else { own(i) })),
    ]
}

#[test]
fn single_pass_kernels_are_bit_identical_to_serial_on_degenerate_operands() {
    let cfg = ClusterConfig::default();
    for (name, a, b) in degenerate_operands() {
        let oracle = spgemm_serial(&a, &b);
        if name == "cancellation" {
            assert_eq!(oracle.get(0, 0), Some(0.0), "the zero must stay stored");
        }
        if name == "high-compression" {
            assert!(multiply_adds(&a, &b) >= 50 * oracle.nnz() as u64);
        }

        // Cluster-wise runs on a row-permuted A under hierarchical
        // clustering; its oracle is the serial product of that same A.
        let h = hierarchical_clustering(&a, &cfg);
        let ha = h.perm.permute_rows(&a);
        let mut clustered: Vec<(String, CsrCluster, CsrMatrix)> = Vec::new();
        for k in [1usize, 4, 8] {
            let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, k));
            clustered.push((format!("fixed({k})"), cc, oracle.clone()));
        }
        let cc = CsrCluster::from_csr(&a, &variable_clustering(&a, &cfg));
        clustered.push(("variable".to_string(), cc, oracle.clone()));
        let cc = CsrCluster::from_csr(&ha, &h.clustering);
        clustered.push(("hierarchical".to_string(), cc, spgemm_serial(&ha, &b)));

        // The masked kernel's oracle is the serial product, filtered.
        let masked: Vec<(&str, CsrMatrix, CsrMatrix)> = degenerate_masks(&oracle)
            .into_iter()
            .map(|(label, mask)| (label, apply_mask(&oracle, &mask), mask))
            .collect();
        if name == "cancellation" {
            let dense_row = &masked.iter().find(|(label, ..)| *label == "one dense row").unwrap().1;
            // Row 0 keeps its own pattern, row 1 admits every column.
            assert_eq!(dense_row.get(0, 0), Some(0.0), "an admitted zero must stay stored");
            assert_eq!(dense_row.row_cols(1), &[0], "admitted but never touched must not appear");
        }

        // Where a kernel is told to put its rows: nowhere else, in reverse,
        // and shuffled. A mapped product is the oracle with its rows moved
        // (row `i` at `map.old_of(i)`); a mask travels with the rows it
        // filters, since the kernel takes it in the result's order.
        let maps: [(&str, Option<Permutation>); 3] = [
            ("in place", None),
            (
                "reversed",
                Some(Permutation::from_new_to_old((0..a.nrows as u32).rev().collect()).unwrap()),
            ),
            ("shuffled", Some(random_permutation(a.nrows, 11))),
        ];
        for (map_name, map) in &maps {
            let map = map.as_ref();
            let moved =
                |m: &CsrMatrix| map.map_or_else(|| m.clone(), |p| p.inverse().permute_rows(m));
            let oracle = moved(&oracle);
            let masked: Vec<(&str, CsrMatrix, CsrMatrix)> = masked
                .iter()
                .map(|(label, expect, mask)| (*label, moved(expect), moved(mask)))
                .collect();

            for width in [1usize, 2, 4] {
                rayon::with_pool_width(width, || {
                    for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
                        let opts = SpGemmOptions { acc, parallel: true };
                        let what = format!("{name}: {acc:?} w{width} rows {map_name}");
                        assert_bits_eq(
                            &spgemm_mapped(&a, &b, &opts, map),
                            &oracle,
                            &format!("{what} row-wise"),
                        );
                        // Cluster-wise, the rows of its own operand moved.
                        for (label, cc, expect) in &clustered {
                            let got = clusterwise_spgemm_labelled(
                                cc.into(),
                                (&b).into(),
                                &opts,
                                map,
                                &SameLabels,
                            );
                            assert_bits_eq(
                                &got,
                                &moved(expect),
                                &format!("{what} cluster-wise {label}"),
                            );
                        }
                        for (label, expect, mask) in &masked {
                            let got = spgemm_masked_mapped(&a, &b, mask, &opts, map);
                            assert_bits_eq(&got, expect, &format!("{what} masked by {label}"));
                        }
                    }
                });
            }
        }
    }
}

#[test]
fn labelled_kernels_return_the_serial_product_from_any_label_space() {
    // What the engine's two-sided plans run: `P·A` with every id sent
    // through `P⁻¹` but left where it was, as both operands, and `P` as row
    // map and label map. The result must be `A · A` itself — rows, column
    // labels, and every bit of every sum — on operands holding NaN, ±0.0,
    // ±inf, empty rows and a dense row, under permutations that keep fixed
    // points, reverse, and shuffle. The cluster-wise kernel runs fixed-length
    // clusters of the same `P·A` both ways: against `A` in `A`'s labels it
    // must return the serial `P·A · A`, and with its union ids relabelled
    // against the relabelled rows, `A · A` itself.
    for (name, a, _) in degenerate_operands() {
        if a.nrows != a.ncols || a.nrows < 2 {
            continue;
        }
        let n = a.nrows as u32;
        let oracle = spgemm_serial(&a, &a);
        let mut swap_ends: Vec<u32> = (0..n).collect();
        swap_ends.swap(0, n as usize - 1);
        for (perm_name, p) in [
            ("identity", Permutation::identity(a.nrows)),
            ("two moved", Permutation::from_new_to_old(swap_ends).unwrap()),
            ("reversed", Permutation::from_new_to_old((0..n).rev().collect()).unwrap()),
            ("shuffled", random_permutation(a.nrows, 11)),
        ] {
            let pa = p.permute_rows(&a);
            let inv = p.inverse_map();
            let relabel = |ids: &[u32]| ids.iter().map(|&c| inv[c as usize]).collect::<Vec<u32>>();
            let ids = relabel(&pa.col_idx);
            let rows = CsrRows { ids: &ids, ..CsrRows::from(&pa) };
            let clustered: Vec<(usize, CsrCluster, Vec<u32>)> = [1usize, 3, 8]
                .into_iter()
                .map(|k| {
                    let cc = CsrCluster::from_csr(&pa, &fixed_clustering(&pa, k));
                    let union = relabel(&cc.col_ids);
                    (k, cc, union)
                })
                .collect();
            let pa_oracle = spgemm_serial(&pa, &a);
            for width in [1usize, 2] {
                rayon::with_pool_width(width, || {
                    for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
                        for parallel in [false, true] {
                            let opts = SpGemmOptions { acc, parallel };
                            let what =
                                format!("{name}: {acc:?} w{width} par {parallel} {perm_name}");
                            assert_bits_eq(
                                &spgemm_labelled(rows, rows, &opts, Some(&p), &p),
                                &oracle,
                                &format!("{what} row-wise"),
                            );
                            for (k, cc, union) in &clustered {
                                let got = clusterwise_spgemm_with(cc, &a, &opts);
                                assert_bits_eq(&got, &pa_oracle, &format!("{what} fixed({k})"));
                                let two_sided = ClusterRows { ids: union, ..cc.into() };
                                assert_bits_eq(
                                    &clusterwise_spgemm_labelled(
                                        two_sided,
                                        rows,
                                        &opts,
                                        Some(&p),
                                        &p,
                                    ),
                                    &oracle,
                                    &format!("{what} fixed({k}) two-sided"),
                                );
                            }
                        }
                    }
                });
            }
        }
    }
}
