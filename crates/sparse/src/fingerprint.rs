//! Cheap matrix fingerprints for plan caching.
//!
//! A [`MatrixFingerprint`] identifies a matrix by its dimensions, nonzero
//! count, and a hash over a deterministic *sample* of its structure and
//! values. Computing one costs `O(samples)` — independent of `nnz` — so a
//! serving front door can fingerprint every incoming matrix to route it,
//! and an identity test can reject a different matrix before it pays for
//! the full-content [`checksum`].
//!
//! The hash samples `row_ptr`, `col_idx`, and `vals` at evenly spaced
//! positions, so two matrices that differ only at unsampled positions — one
//! pattern with a value changed between samples — share a fingerprint. That
//! is why a fingerprint is never an identity on its own: a cache keys on
//! the fingerprint *and* the full-content [`checksum`] together, and the
//! fingerprint alone is for what tolerates a shared value, such as routing
//! both matrices of such a pair to one shard
//! ([`MatrixFingerprint::shard_index`]).

use crate::CsrMatrix;

/// Default number of positions sampled from each array.
pub const DEFAULT_SAMPLES: usize = 256;

/// A compact, hashable identity for a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixFingerprint {
    /// Row count.
    pub nrows: u64,
    /// Column count.
    pub ncols: u64,
    /// Nonzero count.
    pub nnz: u64,
    /// Hash of sampled structure (`row_ptr`, `col_idx`) and value bits.
    pub structure_hash: u64,
}

impl MatrixFingerprint {
    /// A well-mixed 64-bit routing key folding in every fingerprint field.
    /// Sharded serving layers route operands to workers by this value so
    /// all requests on one matrix land on the same shard (and its plan
    /// cache) without cross-shard locking. The extra mixing matters:
    /// `structure_hash` alone is already avalanche-mixed, but small
    /// matrices with few samples lean on `nrows`/`ncols`/`nnz`, which are
    /// nearly collinear across a family of generators.
    pub fn route_hash(&self) -> u64 {
        let mut h = self.structure_hash;
        h = mix(h, self.nrows);
        h = mix(h, self.ncols);
        h = mix(h, self.nnz);
        h
    }

    /// Maps this fingerprint onto one of `shards` workers
    /// (`shards == 0` is treated as a single shard).
    pub fn shard_index(&self, shards: usize) -> usize {
        (self.route_hash() % shards.max(1) as u64) as usize
    }
}

/// SplitMix64 finalizer — strong bit avalanche for cheap mixing.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprints `a` with [`DEFAULT_SAMPLES`] samples per array.
pub fn fingerprint(a: &CsrMatrix) -> MatrixFingerprint {
    fingerprint_with_samples(a, DEFAULT_SAMPLES)
}

/// Fingerprints `a`, sampling up to `samples` evenly spaced positions from
/// each of `row_ptr`, `col_idx`, and `vals`. `samples == 0` hashes
/// dimensions and nnz only.
pub fn fingerprint_with_samples(a: &CsrMatrix, samples: usize) -> MatrixFingerprint {
    let mut h = 0xA076_1D64_78BD_642Fu64; // xxh64 prime seed
    h = mix(h, a.nrows as u64);
    h = mix(h, a.ncols as u64);
    h = mix(h, a.nnz() as u64);
    h = sample_into(h, &a.row_ptr, samples, |&p| p as u64);
    h = sample_into(h, &a.col_idx, samples, |&c| c as u64);
    h = sample_into(h, &a.vals, samples, |&v| v.to_bits());
    MatrixFingerprint {
        nrows: a.nrows as u64,
        ncols: a.ncols as u64,
        nnz: a.nnz() as u64,
        structure_hash: h,
    }
}

/// Full-content checksum over dimensions, `row_ptr`, `col_idx`, and value
/// bits — `O(nnz)`, and it sees every position where the sampled
/// [`fingerprint`] does not. Together the two are a cache key: the
/// fingerprint carries the dimensions and `nnz` (and answers a mismatch
/// cheaply), the checksum tells apart matrices that agree at every sample.
///
/// It runs at memory speed: the arrays are read as 64-bit words (`col_idx`
/// two ids to a word), dealt round-robin to four independent
/// multiply-rotate lanes, and the lanes are folded through the `SplitMix64`
/// finalizer together with the dimensions and the three array lengths.
/// Every step is a bijection of the word it takes in, so an edit at any one
/// position always changes the result.
pub fn checksum(a: &CsrMatrix) -> u64 {
    let mut lanes = Lanes::new();
    lanes.absorb(&a.row_ptr, 1, |p| p[0] as u64);
    lanes.absorb(&a.col_idx, 2, |c| c[0] as u64 | c.get(1).map_or(0, |&hi| (hi as u64) << 32));
    lanes.absorb(&a.vals, 1, |v| v[0].to_bits());
    let mut h = 0x27D4_EB2F_1656_67C5u64;
    for x in [a.nrows, a.ncols, a.row_ptr.len(), a.col_idx.len(), a.vals.len()] {
        h = mix(h, x as u64);
    }
    lanes.0.iter().fold(h, |h, &lane| mix(h, lane))
}

/// The four accumulators of [`checksum`]. Consecutive words go to
/// consecutive lanes, so the lanes' multiply chains overlap.
struct Lanes([u64; 4]);

impl Lanes {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

    fn new() -> Lanes {
        Lanes([0x60EA_27EE_ADC0_B5D6, 0xC2B2_AE3D_27D4_EB4F, 0, 0x61C8_8646_80B5_83EB])
    }

    /// One xxHash64-style round: bijective in `lane` and in `word`.
    #[inline(always)]
    fn round(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(Self::P2)).rotate_left(31).wrapping_mul(Self::P1)
    }

    /// Deals `xs`, read `per_word` elements to a word by `word`, to the
    /// lanes (a short last word is handed the elements that are left).
    #[inline(always)]
    fn absorb<T>(&mut self, xs: &[T], per_word: usize, word: impl Fn(&[T]) -> u64) {
        let mut blocks = xs.chunks_exact(4 * per_word);
        for block in &mut blocks {
            for (lane, w) in self.0.iter_mut().zip(block.chunks_exact(per_word)) {
                *lane = Self::round(*lane, word(w));
            }
        }
        for (lane, w) in self.0.iter_mut().zip(blocks.remainder().chunks(per_word)) {
            *lane = Self::round(*lane, word(w));
        }
    }
}

/// Hashes up to `samples` evenly spaced elements of `xs` (always including
/// the first and last) into `h`.
fn sample_into<T>(mut h: u64, xs: &[T], samples: usize, key: impl Fn(&T) -> u64) -> u64 {
    let n = xs.len();
    if n == 0 || samples == 0 {
        return mix(h, n as u64);
    }
    let take = samples.min(n);
    for k in 0..take {
        // Evenly spaced indices over [0, n): floor(k * n / take).
        let idx = k * n / take;
        h = mix(h, key(&xs[idx]));
    }
    // Always fold in the final element so tail edits are visible.
    h = mix(h, key(&xs[n - 1]));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::erdos_renyi;
    use crate::gen::grid::poisson2d;

    #[test]
    fn identical_matrices_share_fingerprints() {
        let a = poisson2d(20, 20);
        let b = poisson2d(20, 20);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_structure_changes_hash() {
        let a = erdos_renyi(200, 5, 1);
        let b = erdos_renyi(200, 5, 2);
        let fa = fingerprint(&a);
        let fb = fingerprint(&b);
        assert_eq!(fa.nrows, fb.nrows);
        assert_ne!(fa.structure_hash, fb.structure_hash);
    }

    #[test]
    fn dimension_and_nnz_always_distinguish() {
        let a = poisson2d(10, 10);
        let b = poisson2d(10, 11);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn value_edits_at_sampled_positions_change_hash() {
        let a = poisson2d(16, 16);
        let mut b = a.clone();
        // First value is always sampled.
        b.vals[0] += 1.0;
        assert_ne!(fingerprint(&a).structure_hash, fingerprint(&b).structure_hash);
        let mut c = a.clone();
        let last = c.vals.len() - 1;
        c.vals[last] += 1.0;
        assert_ne!(fingerprint(&a).structure_hash, fingerprint(&c).structure_hash);
    }

    #[test]
    fn zero_samples_still_capture_shape() {
        let a = poisson2d(8, 8);
        let f = fingerprint_with_samples(&a, 0);
        assert_eq!(f.nrows, 64);
        assert_eq!(f.nnz, a.nnz() as u64);
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let a = erdos_renyi(300, 6, 9);
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_eq!(fingerprint_with_samples(&a, 64), fingerprint_with_samples(&a, 64));
    }

    #[test]
    fn checksum_sees_every_position() {
        // Unlike the sampled fingerprint, the checksum must catch an edit
        // at *any* value position.
        let a = erdos_renyi(40, 8, 5);
        let base = checksum(&a);
        for idx in 0..a.vals.len() {
            let mut b = a.clone();
            b.vals[idx] += 1.0;
            assert_ne!(checksum(&b), base, "edit at {idx} missed");
        }
        assert_eq!(checksum(&a), base, "checksum must be deterministic");
    }

    #[test]
    fn checksum_sees_every_structural_position() {
        // An edit at any position of `row_ptr` or `col_idx` changes it — on
        // an even and an odd number of ids, so both the paired ids and the
        // one left alone in the last word are covered.
        let a = erdos_renyi(30, 7, 3);
        let mut shorter = a.clone();
        shorter.col_idx.pop();
        shorter.vals.pop();
        *shorter.row_ptr.last_mut().unwrap() -= 1;
        assert_ne!(checksum(&shorter), checksum(&a), "dropping the last entry went unseen");
        for m in [a, shorter] {
            let base = checksum(&m);
            for idx in 0..m.row_ptr.len() {
                let mut b = m.clone();
                b.row_ptr[idx] ^= 1;
                assert_ne!(checksum(&b), base, "row_ptr edit at {idx} missed");
            }
            for idx in 0..m.col_idx.len() {
                let mut b = m.clone();
                b.col_idx[idx] ^= 1;
                assert_ne!(checksum(&b), base, "col_idx edit at {idx} missed");
            }
        }
    }

    #[test]
    fn checksum_sees_an_entry_moved_to_the_next_row() {
        // Same `col_idx` and `vals` arrays, one boundary shifted: row 0's
        // last entry now opens row 1.
        let a = CsrMatrix::from_row_lists(4, vec![vec![(0, 1.0), (3, 2.0)], vec![(1, 3.0)]]);
        let mut b = a.clone();
        b.row_ptr[1] -= 1;
        assert_eq!((b.col_idx.clone(), b.vals.clone()), (a.col_idx.clone(), a.vals.clone()));
        assert_ne!(checksum(&a), checksum(&b));
    }

    #[test]
    fn checksum_sees_two_adjacent_words_swapped() {
        // Swaps that keep every value in the matrix but change its order:
        // adjacent values (neighbouring words), adjacent pairs of ids, and
        // the two ids inside one word.
        let a = erdos_renyi(30, 7, 4);
        let base = checksum(&a);
        for idx in 0..a.vals.len() - 1 {
            let mut b = a.clone();
            b.vals.swap(idx, idx + 1);
            if b.vals[idx] != a.vals[idx] {
                assert_ne!(checksum(&b), base, "vals swap at {idx} missed");
            }
        }
        for idx in 0..a.col_idx.len() - 1 {
            let mut b = a.clone();
            b.col_idx.swap(idx, idx + 1);
            assert_ne!(checksum(&b), base, "col_idx swap at {idx} missed");
            if idx + 3 < a.col_idx.len() && idx % 2 == 0 {
                let mut c = a.clone();
                c.col_idx[idx..idx + 4].rotate_left(2);
                assert_ne!(checksum(&c), base, "col_idx word swap at {idx} missed");
            }
        }
    }

    #[test]
    fn route_hash_spreads_a_matrix_family_across_shards() {
        // Eight same-family matrices must not all route to one of four
        // shards — the whole point of the extra mixing.
        let fps: Vec<_> = (0..8).map(|s| fingerprint(&erdos_renyi(150, 5, s))).collect();
        let mut hit = [false; 4];
        for fp in &fps {
            let shard = fp.shard_index(4);
            assert!(shard < 4);
            hit[shard] = true;
        }
        assert!(hit.iter().filter(|h| **h).count() >= 2, "all matrices routed to one shard");
        // Routing is deterministic and total over shard counts.
        for fp in &fps {
            assert_eq!(fp.shard_index(4), fp.shard_index(4));
            assert_eq!(fp.shard_index(0), 0, "zero shards degrades to a single shard");
            assert_eq!(fp.shard_index(1), 0);
        }
    }

    #[test]
    fn empty_matrix_fingerprints() {
        let a = CsrMatrix::zeros(0, 0);
        let f = fingerprint(&a);
        assert_eq!(f.nnz, 0);
        assert_eq!(f, fingerprint(&a));
    }
}
