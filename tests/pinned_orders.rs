//! Golden digests of every row order and of the operand identity that keys
//! the plan cache and shard routing. A partitioner, ND or fingerprint
//! setting that moves from a parameter into a constant keeps its value, so
//! these digests must not move; they hold at any pool width and in debug
//! and release builds alike.

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen::{banded::block_diagonal, mesh::tri_mesh, rmat};

/// FNV-1a over whole words: moving any one word moves the digest.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

/// A symmetric relabelling `i ↦ (7i + 3) mod n`, independent of every
/// reordering under test (`n` is coprime with 7 for all three operands).
fn shuffled(a: &CsrMatrix) -> CsrMatrix {
    let n = a.nrows as u32;
    let p = Permutation::from_new_to_old((0..n).map(|i| (i * 7 + 3) % n).collect()).unwrap();
    p.permute_symmetric(a)
}

/// A mesh, a power-law graph and a block operand, each shuffled.
fn operands() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("tri_mesh(30, 30)", shuffled(&tri_mesh(30, 30, false, 1))),
        ("rmat(9, 8)", shuffled(&rmat::rmat(9, 8, rmat::RmatParams::default(), 1))),
        ("block_diagonal(600, (6, 10), 0.02)", shuffled(&block_diagonal(600, (6, 10), 0.02, 1))),
    ]
}

#[test]
fn all_ten_reorderings_match_their_pinned_digests() {
    // One digest of `new → old` per reordering, in `Reordering::all_ten()`
    // order: Random, Rabbit, AMD, RCM, ND, GP(16), HP(16), Gray, Degree,
    // SlashBurn.
    let pinned: [[u64; 10]; 3] = [
        [
            0x248e_1fe0_9116_701b,
            0x0029_64c8_d38e_cfd7,
            0x41c9_d141_fa28_2e13,
            0x5b3e_0abe_d227_e601,
            0xba3d_1b17_da19_decf,
            0xc6e8_4207_fe18_f20f,
            0x69bf_e081_7f19_fb9f,
            0xe51f_8e6e_fa6f_3541,
            0x2beb_0dd8_3634_fbc3,
            0x911a_bd0d_71e6_f873,
        ],
        [
            0x013d_dde6_5788_ffbb,
            0x254c_cf12_5021_1d81,
            0xd8d1_7ea0_b095_4d75,
            0x5c11_846d_fe8c_3df3,
            0x145c_1d44_2826_c5c7,
            0x25be_4f06_ae8b_c641,
            0x28d5_6c31_a0a8_3e6b,
            0x3cef_cacb_9b2d_ef77,
            0xdcb8_3aac_ac4d_8167,
            0xe582_7aa3_3d1e_60f5,
        ],
        [
            0x0325_5f36_0a76_ea65,
            0x02ef_fb70_3e2d_5861,
            0x9a2f_8a1e_6051_6513,
            0x2d8c_3987_402f_7c71,
            0x20fe_e4df_890b_075d,
            0xe708_0d54_4715_8af9,
            0xfdd3_ee5e_a848_70c9,
            0x80b2_50ea_4fb8_2217,
            0x1d20_9624_33b1_7bf1,
            0x6926_449c_494f_abdd,
        ],
    ];
    let got: Vec<[u64; 10]> = operands()
        .iter()
        .map(|(_, a)| {
            let mut row = [0u64; 10];
            for (slot, r) in row.iter_mut().zip(Reordering::all_ten()) {
                let perm = r.compute(a, 7);
                *slot = digest(perm.as_new_to_old().iter().map(|&v| v as u64));
            }
            row
        })
        .collect();
    assert_eq!(got, pinned, "{:?}", operands().iter().map(|(name, _)| *name).collect::<Vec<_>>());
}

#[test]
fn fingerprints_and_shard_routing_match_their_pinned_digests() {
    // Every fingerprint field plus the two-shard route, per operand.
    let pinned: [(u64, usize); 3] =
        [(0xaa56_ce6e_db97_9d6e, 1), (0x577d_f95e_c097_6881, 1), (0x2c82_ffa6_23d2_343f, 0)];
    let got: Vec<(u64, usize)> = operands()
        .iter()
        .map(|(_, a)| {
            let f = fingerprint(a);
            (digest([f.nrows, f.ncols, f.nnz, f.structure_hash]), f.shard_index(2))
        })
        .collect();
    assert_eq!(got, pinned, "{:?}", operands().iter().map(|(name, _)| *name).collect::<Vec<_>>());
}
