//! Property-based tests for the `CSRB` binary codec: the round trip, and
//! that the stream codec ([`write_csr`] / [`read_csr`]) is the slice codec
//! ([`encode_csr`] / [`decode_csr`]) — same bytes, same matrices, same
//! refusals — however the transport slices its calls.

use cw_sparse::io::{
    decode_csr, decode_csr_exact, encode_csr, read_csr, write_csr, CsrCodecError, CsrReadError,
    CSR_BINARY_HEADER_BYTES,
};
use cw_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;
use std::io::{self, Read, Write};

/// Strategy: a random sparse rectangular matrix, including empty rows,
/// duplicate-coordinate collapse, and values spanning several magnitudes.
fn sparse_rect(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1usize..=max_dim, 1usize..=max_dim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -1e6f64..1e6), 0..max_nnz).prop_map(
            move |entries| {
                let mut coo = CooMatrix::new(nr, nc);
                for (i, j, v) in entries {
                    coo.push(i, j, v);
                }
                coo.to_csr()
            },
        )
    })
}

/// Strategy: any matrix the codec may meet — zero rows or columns, no
/// entries, rectangular — with values overwritten by the bit patterns `==`
/// cannot see: NaNs with payloads, `-0.0`, arbitrary bits.
fn any_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    let entry = (0usize..max_dim, 0usize..max_dim, 0u8..4, 0u64..u64::MAX);
    (0usize..=max_dim, 0usize..=max_dim, proptest::collection::vec(entry, 0..max_nnz)).prop_map(
        |(nr, nc, entries)| {
            if nr == 0 || nc == 0 {
                return CsrMatrix::zeros(nr, nc);
            }
            let mut coo = CooMatrix::new(nr, nc);
            for &(i, j, _, _) in &entries {
                coo.push(i % nr, j % nc, 1.0);
            }
            let mut a = coo.to_csr();
            for (v, &(_, _, kind, bits)) in a.vals.iter_mut().zip(&entries) {
                *v = match kind {
                    0 => f64::from_bits(0x7ff8_0000_0000_0000 | (bits >> 13)),
                    1 => -0.0,
                    2 => f64::from_bits(bits),
                    _ => *v,
                };
            }
            a
        },
    )
}

/// A transport that moves `1..=max` bytes per call, cycling, and counts
/// what crossed it.
struct Dribble<T> {
    inner: T,
    max: usize,
    calls: usize,
    bytes: usize,
}

impl<T> Dribble<T> {
    fn new(inner: T, max: usize) -> Self {
        Dribble { inner, max, calls: 0, bytes: 0 }
    }

    fn next_len(&mut self, want: usize) -> usize {
        self.calls += 1;
        want.min(1 + self.calls % self.max)
    }
}

impl<W: Write> Write for Dribble<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.next_len(buf.len());
        let n = self.inner.write(&buf[..n])?;
        self.bytes += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Dribble<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.next_len(buf.len());
        let n = self.inner.read(&mut buf[..n])?;
        self.bytes += n;
        Ok(n)
    }
}

/// Whether the stream decoder said of `bytes` (all of them its `limit`)
/// exactly what the slice decoder says: the same matrix bit for bit and the
/// same `consumed`, or the same [`CsrCodecError`].
fn stream_agrees_with_slice(bytes: &[u8]) -> bool {
    let streamed = read_csr(&mut Dribble::new(bytes, 5), bytes.len());
    match (decode_csr(bytes), streamed) {
        (Ok((a, used)), Ok((b, consumed))) => a.bits_eq(&b) && used == consumed,
        (Err(slice), Err(CsrReadError::Codec(stream))) => slice == stream,
        _ => false,
    }
}

#[test]
fn an_oversized_declaration_is_refused_at_the_header() {
    // nnz = 2^40 would need 12 TiB; under a 64-byte limit the decoder must
    // say so having read the 32-byte header and nothing else.
    let mut blob = encode_csr(&CsrMatrix::zeros(3, 3));
    blob[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
    blob.resize(1024, 0);
    let mut counting = Dribble::new(&blob[..], usize::MAX);
    let needed = CSR_BINARY_HEADER_BYTES + 4 * 8 + 12 * (1usize << 40);
    match read_csr(&mut counting, 64) {
        Err(CsrReadError::Codec(e)) => {
            assert_eq!(e, CsrCodecError::Truncated { needed, have: 64 })
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert_eq!(counting.bytes, CSR_BINARY_HEADER_BYTES);
    assert_eq!(decode_csr(&blob[..64]).unwrap_err(), CsrCodecError::Truncated { needed, have: 64 });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn write_csr_emits_encode_csr_bytes_however_the_writer_slices_them(a in any_matrix(20, 120)) {
        let mut sink = Dribble::new(Vec::new(), 7);
        write_csr(&mut sink, &a).unwrap();
        prop_assert_eq!(sink.inner, encode_csr(&a));
    }

    #[test]
    fn read_csr_returns_decode_csr_matrix_however_the_reader_slices_it(a in any_matrix(20, 120)) {
        let mut blob = encode_csr(&a);
        let blob_len = blob.len();
        blob.extend_from_slice(&[0xAA; 7]);
        let (want, used) = decode_csr(&blob).unwrap();
        let mut source = Dribble::new(&blob[..], 5);
        let (got, consumed) = read_csr(&mut source, blob.len()).unwrap();
        prop_assert!(got.bits_eq(&want) && got.bits_eq(&a));
        prop_assert_eq!((consumed, used), (blob_len, blob_len));
        // Not one byte past the blob was taken from the stream.
        prop_assert_eq!(source.bytes, blob_len);
    }

    #[test]
    fn stream_and_slice_refuse_identically(a in any_matrix(10, 40)) {
        let blob = encode_csr(&a);
        for cut in 0..blob.len() {
            prop_assert!(stream_agrees_with_slice(&blob[..cut]), "truncated at {}", cut);
        }
        for at in 0..CSR_BINARY_HEADER_BYTES {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = blob.clone();
                bad[at] ^= flip;
                prop_assert!(stream_agrees_with_slice(&bad), "byte {} ^ {:#x}", at, flip);
            }
        }
    }

    #[test]
    fn csrb_round_trip_is_identity(a in sparse_rect(24, 160)) {
        let blob = encode_csr(&a);
        let b = decode_csr_exact(&blob).unwrap();
        // PartialEq on CsrMatrix compares vals with f64 ==; additionally
        // assert bit patterns so -0.0 vs 0.0 differences cannot hide.
        prop_assert_eq!(&a, &b);
        for (x, y) in a.vals.iter().zip(b.vals.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn csrb_consumed_matches_blob_len(a in sparse_rect(16, 80)) {
        let mut blob = encode_csr(&a);
        let tail = [0xAAu8; 7];
        blob.extend_from_slice(&tail);
        let (b, used) = decode_csr(&blob).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(used, blob.len() - tail.len());
    }

    #[test]
    fn csrb_any_truncation_is_typed(a in sparse_rect(12, 60), frac in 0.0f64..1.0) {
        let blob = encode_csr(&a);
        let cut = ((blob.len() as f64) * frac) as usize;
        if cut < blob.len() {
            match decode_csr(&blob[..cut]) {
                Err(CsrCodecError::Truncated { needed, have }) => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(needed > cut);
                }
                other => prop_assert!(false, "expected Truncated, got {:?}", other),
            }
        }
    }
}
