//! Matrix I/O: Matrix Market (`.mtx`) text and the `CSRB` binary codec.
//!
//! The Matrix Market reader supports the `matrix coordinate
//! {real,integer,pattern} {general,symmetric,skew-symmetric}` subset, which
//! covers the SuiteSparse matrices the paper evaluates. Symmetric inputs are
//! expanded to general storage on read (both triangles materialized),
//! matching what the SpGEMM kernels expect.
//!
//! The binary codec is the *byte-exact* interchange format shared by the
//! `cw-net` wire frames and future out-of-core panel files: little-endian,
//! versioned, self-delimiting, and value-preserving down to the f64 bit
//! pattern (NaN payloads and `-0.0` survive a round trip, unlike the decimal
//! `.mtx` path). It is one encoder and one decoder over `std::io`
//! ([`write_csr`] / [`read_csr`]) that move the arrays between their typed
//! form and bytes 64 KiB at a time, so a socket or a file needs no
//! blob-sized buffer on either side; [`encode_csr`], [`encode_csr_into`],
//! [`decode_csr`] and [`decode_csr_exact`] are those two routines pointed at
//! a `Vec` or a slice — same bytes, same checks, same [`CsrCodecError`]s.

use crate::{ColIdx, CooMatrix, CsrMatrix, SparseError, Value};
use std::fmt;
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market file from a path.
pub fn read_matrix_market_path(path: &Path) -> Result<CsrMatrix, SparseError> {
    let f = std::fs::File::open(path)
        .map_err(|e| SparseError::Parse(format!("open {}: {e}", path.display())))?;
    read_matrix_market(std::io::BufReader::new(f))
}

/// Reads a Matrix Market stream.
pub fn read_matrix_market<R: BufRead>(mut reader: R) -> Result<CsrMatrix, SparseError> {
    let mut line = String::new();
    // --- header ---
    if reader.read_line(&mut line).map_err(|e| SparseError::Parse(e.to_string()))? == 0 {
        return Err(SparseError::Parse("empty file".into()));
    }
    let header = line.trim().to_ascii_lowercase();
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(SparseError::Parse(format!("bad header: {header}")));
    }
    if toks[2] != "coordinate" {
        return Err(SparseError::Parse(format!("only coordinate supported, got {}", toks[2])));
    }
    let field = match toks[3] {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(SparseError::Parse(format!("unsupported field: {other}"))),
    };
    let symmetry = match toks[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(SparseError::Parse(format!("unsupported symmetry: {other}"))),
    };
    // --- size line (skipping comments) ---
    let (nrows, ncols, nnz) = loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| SparseError::Parse(e.to_string()))? == 0 {
            return Err(SparseError::Parse("missing size line".into()));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let nr: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SparseError::Parse(format!("bad size line: {t}")))?;
        let nc: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SparseError::Parse(format!("bad size line: {t}")))?;
        let nz: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SparseError::Parse(format!("bad size line: {t}")))?;
        break (nr, nc, nz);
    };
    let cap = if symmetry == Symmetry::General { nnz } else { nnz * 2 };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap);
    let mut seen = 0usize;
    while seen < nnz {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| SparseError::Parse(e.to_string()))? == 0 {
            return Err(SparseError::Parse(format!("expected {nnz} entries, got {seen}")));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SparseError::Parse(format!("bad entry: {t}")))?;
        let j: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SparseError::Parse(format!("bad entry: {t}")))?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(SparseError::Parse(format!("1-based entry out of range: {t}")));
        }
        let v: f64 = match field {
            Field::Pattern => 1.0,
            _ => it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| SparseError::Parse(format!("missing value: {t}")))?,
        };
        let (r, c) = (i - 1, j - 1);
        coo.push(r, c, v);
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r != c {
                    coo.push(c, r, v);
                }
            }
            Symmetry::SkewSymmetric => {
                if r != c {
                    coo.push(c, r, -v);
                }
            }
        }
        seen += 1;
    }
    Ok(coo.to_csr())
}

/// Writes a matrix in `coordinate real general` format.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by clusterwise-spgemm")?;
    writeln!(w, "{} {} {}", a.nrows, a.ncols, a.nnz())?;
    for (i, j, v) in a.iter() {
        writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
    }
    w.flush()
}

// ---------------------------------------------------------------------------
// CSRB binary codec
// ---------------------------------------------------------------------------

/// Magic bytes opening every binary CSR blob.
pub const CSR_BINARY_MAGIC: [u8; 4] = *b"CSRB";

/// Schema version emitted by [`encode_csr`]; decoders reject anything newer.
pub const CSR_BINARY_VERSION: u16 = 1;

/// Fixed-size prefix: magic(4) + version(2) + reserved(2) + nrows(8) +
/// ncols(8) + nnz(8).
pub const CSR_BINARY_HEADER_BYTES: usize = 32;

/// Errors produced while decoding a `CSRB` blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrCodecError {
    /// The first four bytes were not `b"CSRB"`.
    BadMagic,
    /// The schema version is newer than this decoder understands.
    UnsupportedVersion(u16),
    /// The buffer ended before the encoded length was satisfied.
    Truncated {
        /// Bytes the blob claims to need (header + arrays).
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// [`decode_csr_exact`] found bytes past the end of the blob.
    TrailingBytes(usize),
    /// A declared dimension or nnz does not fit in `usize`, or the implied
    /// byte length overflows. Oversized payloads land here instead of
    /// triggering a huge allocation.
    LengthOverflow,
    /// The arrays decoded cleanly but do not form a valid CSR matrix
    /// (row_ptr not monotone, column index out of range, ...).
    Invalid(SparseError),
}

impl fmt::Display for CsrCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrCodecError::BadMagic => write!(f, "bad magic: expected CSRB"),
            CsrCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported CSRB version {v} (max {CSR_BINARY_VERSION})")
            }
            CsrCodecError::Truncated { needed, have } => {
                write!(f, "truncated CSRB blob: need {needed} bytes, have {have}")
            }
            CsrCodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after CSRB blob")
            }
            CsrCodecError::LengthOverflow => {
                write!(f, "CSRB dimensions overflow addressable length")
            }
            CsrCodecError::Invalid(e) => write!(f, "decoded CSR is invalid: {e}"),
        }
    }
}

impl std::error::Error for CsrCodecError {}

impl From<SparseError> for CsrCodecError {
    fn from(e: SparseError) -> Self {
        CsrCodecError::Invalid(e)
    }
}

/// Exact byte length of the `CSRB` encoding of `a`.
pub fn encoded_csr_len(a: &CsrMatrix) -> usize {
    CSR_BINARY_HEADER_BYTES + (a.nrows + 1) * 8 + a.nnz() * 4 + a.nnz() * 8
}

/// Most bytes [`write_csr`] hands its writer, or [`read_csr`] asks of its
/// reader, in one call: the arrays cross between their typed form and
/// little-endian bytes through one staging buffer of at most this size, so
/// neither side of a stream ever holds a blob-sized byte buffer.
const CHUNK_BYTES: usize = 64 << 10;

/// Packs little-endian bytes into a [`CHUNK_BYTES`] staging buffer and hands
/// the writer one full buffer at a time.
struct ChunkWriter<'w, W: Write> {
    w: &'w mut W,
    buf: Vec<u8>,
    len: usize,
}

impl<W: Write> ChunkWriter<'_, W> {
    /// Appends every element of `src` as the `N` bytes `to_le` makes of it.
    fn put<T: Copy, const N: usize>(
        &mut self,
        mut src: &[T],
        to_le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        while !src.is_empty() {
            if self.buf.len() - self.len < N {
                self.flush()?;
            }
            let room = (self.buf.len() - self.len) / N;
            let (now, later) = src.split_at(room.min(src.len()));
            let dst = &mut self.buf[self.len..self.len + now.len() * N];
            for (bytes, &v) in dst.chunks_exact_mut(N).zip(now) {
                bytes.copy_from_slice(&to_le(v));
            }
            self.len += now.len() * N;
            src = later;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }
}

/// Writes the `CSRB` encoding of `a` to `w`: exactly [`encoded_csr_len`]
/// bytes, in calls of at most 64 KiB. The one encoder — [`encode_csr`] and
/// [`encode_csr_into`] are this routine writing to a `Vec`.
///
/// Layout: `magic "CSRB" | version u16 | reserved u16 | nrows u64 | ncols
/// u64 | nnz u64 | row_ptr (nrows+1)×u64 | col_idx nnz×u32 | values
/// nnz×f64`, all little-endian. Values are stored via [`f64::to_bits`], so
/// the round trip is bit-exact (NaN payloads and `-0.0` included).
pub fn write_csr<W: Write>(w: &mut W, a: &CsrMatrix) -> io::Result<()> {
    let mut out = ChunkWriter { w, buf: vec![0u8; encoded_csr_len(a).min(CHUNK_BYTES)], len: 0 };
    out.put(&CSR_BINARY_MAGIC, |b| [b])?;
    out.put(&[CSR_BINARY_VERSION, 0], u16::to_le_bytes)?;
    out.put(&[a.nrows, a.ncols, a.nnz()], |n| (n as u64).to_le_bytes())?;
    out.put(&a.row_ptr, |p| (p as u64).to_le_bytes())?;
    out.put(&a.col_idx, ColIdx::to_le_bytes)?;
    out.put(&a.vals, |v| v.to_bits().to_le_bytes())?;
    out.flush()
}

/// Encodes a matrix as a self-delimiting little-endian `CSRB` blob (see
/// [`write_csr`] for the layout).
pub fn encode_csr(a: &CsrMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    encode_csr_into(&mut out, a);
    out
}

/// Appends the `CSRB` encoding of `a` to `out` (see [`write_csr`]).
pub fn encode_csr_into(out: &mut Vec<u8>, a: &CsrMatrix) {
    out.reserve(encoded_csr_len(a));
    write_csr(out, a).expect("writing to a Vec cannot fail");
}

/// Why [`read_csr`] failed: the transport ran dry or broke, or the bytes it
/// delivered are not a `CSRB` blob. A stream that fails the second way is
/// still positioned inside the blob's declared extent.
#[derive(Debug)]
pub enum CsrReadError {
    /// The reader failed (including end of stream before `limit` bytes).
    Io(io::Error),
    /// The bytes read are not a valid blob.
    Codec(CsrCodecError),
}

impl fmt::Display for CsrReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrReadError::Io(e) => write!(f, "reading CSRB blob: {e}"),
            CsrReadError::Codec(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CsrReadError {}

impl From<io::Error> for CsrReadError {
    fn from(e: io::Error) -> Self {
        CsrReadError::Io(e)
    }
}

impl From<CsrCodecError> for CsrReadError {
    fn from(e: CsrCodecError) -> Self {
        CsrReadError::Codec(e)
    }
}

/// Reads `count` `N`-byte little-endian elements from `r` into a vector,
/// at most one `chunk` per read. The caller has already bounded `count * N`
/// by what the stream may hold.
fn read_array<R: Read, T, const N: usize>(
    r: &mut R,
    chunk: &mut [u8],
    count: usize,
    mut from_le: impl FnMut([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(count);
    let per_read = chunk.len() / N;
    while out.len() < count {
        let bytes = &mut chunk[..per_read.min(count - out.len()) * N];
        r.read_exact(bytes)?;
        out.extend(
            bytes.chunks_exact(N).map(|b| from_le(b.try_into().expect("chunks_exact yields N"))),
        );
    }
    Ok(out)
}

/// Reads one `CSRB` blob from `r`, of which at most `limit` bytes belong to
/// it (a slice's length; what is left of a frame). The one decoder —
/// [`decode_csr`] and [`decode_csr_exact`] are this routine reading a slice.
///
/// Returns the matrix and the number of bytes consumed, so callers can
/// read several blobs back to back (the `cw-net` SUBMIT payload does
/// exactly that). The checks run in a fixed order — `limit` holds a header,
/// magic, version, dimensions fit `usize`, the checked-arithmetic blob
/// length fits `limit` — and only then is anything allocated, so a hostile
/// header cannot size an allocation beyond `limit`; the arrays are read in
/// calls of at most 64 KiB and re-validated through
/// [`CsrMatrix::from_parts`]. A blob refused at its header has had only
/// those 32 bytes consumed; what to do with the rest of `limit` is the
/// caller's business (`cw-net` drains it to stay frame-aligned).
pub fn read_csr<R: Read>(r: &mut R, limit: usize) -> Result<(CsrMatrix, usize), CsrReadError> {
    if limit < CSR_BINARY_HEADER_BYTES {
        return Err(
            CsrCodecError::Truncated { needed: CSR_BINARY_HEADER_BYTES, have: limit }.into()
        );
    }
    let mut header = [0u8; CSR_BINARY_HEADER_BYTES];
    r.read_exact(&mut header)?;
    if header[0..4] != CSR_BINARY_MAGIC {
        return Err(CsrCodecError::BadMagic.into());
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version == 0 || version > CSR_BINARY_VERSION {
        return Err(CsrCodecError::UnsupportedVersion(version).into());
    }
    let dim =
        |at: usize| usize::try_from(u64::from_le_bytes(header[at..at + 8].try_into().unwrap()));
    let (Ok(nrows), Ok(ncols), Ok(nnz)) = (dim(8), dim(16), dim(24)) else {
        return Err(CsrCodecError::LengthOverflow.into());
    };
    // Total length via checked arithmetic: a hostile header must not be able
    // to overflow into a small allocation or a giant one.
    let total = nrows
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .and_then(|b| nnz.checked_mul(4).and_then(|x| b.checked_add(x)))
        .and_then(|b| nnz.checked_mul(8).and_then(|x| b.checked_add(x)))
        .and_then(|b| b.checked_add(CSR_BINARY_HEADER_BYTES))
        .ok_or(CsrCodecError::LengthOverflow)?;
    if limit < total {
        return Err(CsrCodecError::Truncated { needed: total, have: limit }.into());
    }
    let mut chunk = vec![0u8; (total - CSR_BINARY_HEADER_BYTES).min(CHUNK_BYTES)];
    let mut fits = true;
    let row_ptr = read_array(r, &mut chunk, nrows + 1, |b| {
        usize::try_from(u64::from_le_bytes(b)).unwrap_or_else(|_| {
            fits = false;
            0
        })
    })?;
    if !fits {
        return Err(CsrCodecError::LengthOverflow.into());
    }
    let col_idx = read_array(r, &mut chunk, nnz, ColIdx::from_le_bytes)?;
    let vals = read_array(r, &mut chunk, nnz, |b| Value::from_bits(u64::from_le_bytes(b)))?;
    let m = CsrMatrix::from_parts(nrows, ncols, row_ptr, col_idx, vals)
        .map_err(CsrCodecError::Invalid)?;
    Ok((m, total))
}

/// Decodes one `CSRB` blob from the front of `buf` ([`read_csr`] with the
/// slice's length as its limit): the matrix and the bytes consumed, or a
/// typed [`CsrCodecError`] on truncated, oversized, or structurally invalid
/// input.
pub fn decode_csr(buf: &[u8]) -> Result<(CsrMatrix, usize), CsrCodecError> {
    match read_csr(&mut &buf[..], buf.len()) {
        Ok(decoded) => Ok(decoded),
        Err(CsrReadError::Codec(e)) => Err(e),
        Err(CsrReadError::Io(e)) => unreachable!("read_csr stays inside its limit: {e}"),
    }
}

/// Like [`decode_csr`] but requires the blob to span the whole buffer.
pub fn decode_csr_exact(buf: &[u8]) -> Result<CsrMatrix, CsrCodecError> {
    let (m, used) = decode_csr(buf)?;
    if used != buf.len() {
        return Err(CsrCodecError::TrailingBytes(buf.len() - used));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 3\n1 1 2.0\n2 3 -1.5\n3 1 4.0\n";
        let m = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.nrows, 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), Some(2.0));
        assert_eq!(m.get(1, 2), Some(-1.5));
        assert_eq!(m.get(2, 0), Some(4.0));
    }

    #[test]
    fn read_symmetric_expands() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 5.0\n3 2 6.0\n";
        let m = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(1, 0), Some(5.0));
        assert!(m.is_pattern_symmetric());
    }

    #[test]
    fn read_skew_symmetric_negates() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.get(1, 0), Some(3.0));
        assert_eq!(m.get(0, 1), Some(-3.0));
    }

    #[test]
    fn read_pattern_sets_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(1, 0), Some(1.0));
    }

    #[test]
    fn round_trip() {
        let a = CsrMatrix::from_row_lists(
            4,
            vec![vec![(0, 1.25), (3, -2.5)], vec![], vec![(2, 1e-10)], vec![(1, 7.0)]],
        );
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(Cursor::new(buf)).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn rejects_bad_header() {
        let text = "%%NotMatrixMarket foo\n1 1 0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_array_format() {
        let text = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    // --- CSRB binary codec ---

    fn sample() -> CsrMatrix {
        CsrMatrix::from_row_lists(
            4,
            vec![vec![(0, 1.25), (3, -2.5)], vec![], vec![(2, 1e-10)], vec![(1, 7.0)]],
        )
    }

    #[test]
    fn csrb_round_trip_bit_exact() {
        let a = sample();
        let blob = encode_csr(&a);
        assert_eq!(blob.len(), encoded_csr_len(&a));
        let b = decode_csr_exact(&blob).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn csrb_preserves_nan_and_negative_zero() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let a = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![nan, -0.0]).unwrap();
        let b = decode_csr_exact(&encode_csr(&a)).unwrap();
        assert_eq!(b.vals[0].to_bits(), nan.to_bits());
        assert_eq!(b.vals[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn csrb_empty_matrix() {
        let a = CsrMatrix::zeros(0, 0);
        let b = decode_csr_exact(&encode_csr(&a)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn csrb_concatenated_blobs_self_delimit() {
        let a = sample();
        let b = CsrMatrix::identity(3);
        let mut blob = encode_csr(&a);
        encode_csr_into(&mut blob, &b);
        let (a2, used) = decode_csr(&blob).unwrap();
        let (b2, used2) = decode_csr(&blob[used..]).unwrap();
        assert_eq!(a, a2);
        assert_eq!(b, b2);
        assert_eq!(used + used2, blob.len());
    }

    #[test]
    fn csrb_rejects_bad_magic() {
        let mut blob = encode_csr(&sample());
        blob[0] = b'X';
        assert_eq!(decode_csr(&blob).unwrap_err(), CsrCodecError::BadMagic);
    }

    #[test]
    fn csrb_rejects_future_version() {
        let mut blob = encode_csr(&sample());
        blob[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert_eq!(decode_csr(&blob).unwrap_err(), CsrCodecError::UnsupportedVersion(99));
    }

    #[test]
    fn csrb_rejects_truncation_at_every_length() {
        let blob = encode_csr(&sample());
        for cut in 0..blob.len() {
            match decode_csr(&blob[..cut]) {
                Err(CsrCodecError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut={cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn csrb_rejects_trailing_bytes() {
        let mut blob = encode_csr(&sample());
        blob.push(0);
        assert_eq!(decode_csr_exact(&blob).unwrap_err(), CsrCodecError::TrailingBytes(1));
    }

    #[test]
    fn csrb_rejects_oversized_header() {
        // nnz = u64::MAX would overflow the implied byte length; the decoder
        // must fail typed instead of attempting the allocation.
        let mut blob = encode_csr(&CsrMatrix::zeros(1, 1));
        blob[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_csr(&blob).unwrap_err(), CsrCodecError::LengthOverflow);
    }

    #[test]
    fn csrb_rejects_invalid_structure() {
        // Corrupt row_ptr[0] (must be 0) without changing any lengths.
        let mut blob = encode_csr(&sample());
        blob[CSR_BINARY_HEADER_BYTES..CSR_BINARY_HEADER_BYTES + 8]
            .copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(decode_csr(&blob), Err(CsrCodecError::Invalid(_))));
    }
}
