//! Wire lab: what a wire multiply's bytes cost between the socket and the
//! matrix arrays, on the `wire-large` benchmark operand (`C = A·A`: a
//! 4.2 MB SUBMIT carrying `A` once, 8.5 MB with both operand blobs; 6.1 MB
//! RESULT). The deterministic half asserts that the flag-clear streamed
//! frames are byte-for-byte the buffered encoding, that the SUBMIT under
//! `FLAG_RHS_IS_LHS` — what `NetClient` sends for `multiply(&a, &a)` — is
//! the header plus one operand blob and reads back as one matrix, and that
//! no single read or write on that path moves more than the codec's 64 KiB
//! conversion chunk. The wall-clock half only prints: the loopback round
//! trip with no kernel in it — `A` streamed once, streamed twice, and
//! through whole-frame buffers as the wire layer did before it streamed —
//! with the minor page faults each costs, and the slice codec's seconds
//! per MB.
//!
//! ```text
//! cargo run --release --example wire_lab
//! ```

use clusterwise_spgemm::engine::OutputShape;
use clusterwise_spgemm::net::frame::{
    decode_result_payload, decode_submit_payload_shaped, encode_result_payload,
    encode_submit_payload_shaped, read_frame, read_result_payload, read_submit_payload,
    write_result, write_submit, FLAG_RHS_IS_LHS, FRAME_HEADER_BYTES,
};
use clusterwise_spgemm::net::{Frame, FrameHeader, OpCode, WireReport};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::reorder::random_permutation;
use clusterwise_spgemm::sparse::gen::banded::block_diagonal;
use clusterwise_spgemm::sparse::io::{decode_csr_exact, encode_csr, encoded_csr_len};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// What `cw_sparse::io` documents as the most it moves per call.
const CHUNK_BYTES: usize = 64 << 10;
const MAX_FRAME: usize = 64 << 20;
const MB: f64 = 1024.0 * 1024.0;

fn main() {
    let blocks = block_diagonal(40_000, (6, 10), 0.02, 1);
    let a = random_permutation(blocks.nrows, 1).permute_symmetric(&blocks);
    let product = spgemm(&a, &a);
    let report = WireReport {
        shard: 0,
        batch_size: 1,
        queue_seconds: 0.0,
        execute_seconds: 0.0,
        latency_seconds: 0.0,
        cache_hit: true,
        parallel: true,
        priority: Priority::High,
        deadline_slack_seconds: None,
        shape: OutputShape::Full,
    };
    let wire = Wire { a: &a, product: &product, report: &report };
    println!(
        "operand: {} rows, {} nnz; product {} nnz (shuffled block_diagonal(40000,(6,10),0.02))",
        a.nrows,
        a.nnz(),
        product.nnz()
    );

    // --- same bytes, small calls ---------------------------------------------
    let submit = wire.buffered_submit().encode();
    let result = wire.buffered_result().encode();
    println!(
        "SUBMIT {:.2} MB, RESULT {:.2} MB",
        submit.len() as f64 / MB,
        result.len() as f64 / MB
    );

    let mut out = Recorder::new(Vec::new());
    wire.write_submit(&mut out, 0).expect("a Vec takes every byte");
    assert!(out.inner == submit, "the streamed SUBMIT is not the buffered frame");
    let submit_writes = out.within_chunk("SUBMIT write");
    let mut out = Recorder::new(Vec::new());
    wire.write_result(&mut out).expect("a Vec takes every byte");
    assert!(out.inner == result, "the streamed RESULT is not the buffered frame");
    let result_writes = out.within_chunk("RESULT write");

    let mut src = Recorder::new(&submit[..]);
    let head = FrameHeader::read(&mut src, MAX_FRAME).expect("own header");
    let (lhs, rhs, shape) =
        read_submit_payload(&mut src, &head, None).expect("own SUBMIT").unwrap();
    assert!(lhs.bits_eq(&a) && rhs.bits_eq(&a) && matches!(shape, RequestShape::Full));
    let submit_reads = src.within_chunk("SUBMIT read");
    let mut src = Recorder::new(&result[..]);
    let head = FrameHeader::read(&mut src, MAX_FRAME).expect("own header");
    let (back, c) = read_result_payload(&mut src, head.payload_len as usize).expect("own RESULT");
    assert!(back == report && c.bits_eq(&product));
    let result_reads = src.within_chunk("RESULT read");
    println!(
        "✓ streamed frames are the buffered bytes; no call above {} KiB \
         (SUBMIT {submit_writes} writes / {submit_reads} reads, \
         RESULT {result_writes} writes / {result_reads} reads)",
        CHUNK_BYTES >> 10
    );

    // `C = A·A` as `NetClient` sends it: the header and one operand blob,
    // read back as one matrix serving as both operands.
    let mut out = Recorder::new(Vec::new());
    wire.write_submit(&mut out, FLAG_RHS_IS_LHS).expect("a Vec takes every byte");
    let once_writes = out.within_chunk("flagged SUBMIT write");
    let once = out.inner;
    assert_eq!(once.len(), FRAME_HEADER_BYTES + encoded_csr_len(&a), "not one operand blob");
    let mut src = Recorder::new(&once[..]);
    let head = FrameHeader::read(&mut src, MAX_FRAME).expect("own header");
    let (lhs, rhs, shape) =
        read_submit_payload(&mut src, &head, None).expect("own flagged SUBMIT").unwrap();
    assert!(Arc::ptr_eq(&lhs, &rhs), "the flagged SUBMIT decoded two matrices");
    assert!(lhs.bits_eq(&a) && matches!(shape, RequestShape::Full));
    let once_reads = src.within_chunk("flagged SUBMIT read");
    println!(
        "✓ A·A's SUBMIT under FLAG_RHS_IS_LHS is {:.2} MB, the header and one operand blob: \
         {:.2} MB saved per request, one matrix decoded \
         ({once_writes} writes / {once_reads} reads, none above {} KiB)",
        once.len() as f64 / MB,
        (submit.len() - once.len()) as f64 / MB,
        CHUNK_BYTES >> 10
    );

    // --- wall clock: printed, never asserted ---------------------------------
    println!("\nloopback round trip, no kernel (SUBMIT up, RESULT back), median of 15");
    println!("{:<44} {:>8} {:>16}", "", "ms", "minor faults/op");
    for (name, mode) in [
        ("whole-frame buffers (before streaming)", Mode::Buffered),
        ("streamed, A twice (flag clear)", Mode::Streamed(0)),
        ("streamed, A once (what cw-net runs)", Mode::Streamed(FLAG_RHS_IS_LHS)),
    ] {
        let (ms, faults) = round_trip(&wire, mode, 15);
        let faults = faults.map_or("n/a".to_string(), |f| format!("{f:.0}"));
        println!("{name:<44} {ms:>8.1} {faults:>16}");
    }

    let blob = encode_csr(&a);
    let encode_ms = median_ms(15, || drop(std::hint::black_box(encode_csr(&a))));
    let decode_ms =
        median_ms(15, || drop(std::hint::black_box(decode_csr_exact(&blob).expect("own blob"))));
    let blob_mb = blob.len() as f64 / MB;
    println!("\nslice codec on the {blob_mb:.2} MB operand blob, median of 15");
    println!("encode_csr       {encode_ms:>6.2} ms  {:.3} ms/MB", encode_ms / blob_mb);
    println!("decode_csr_exact {decode_ms:>6.2} ms  {:.3} ms/MB", decode_ms / blob_mb);
}

/// One multiply's traffic: the SUBMIT a client would send and the RESULT a
/// server would answer, each as a streamed write and as a buffered frame.
#[derive(Clone, Copy)]
struct Wire<'m> {
    a: &'m CsrMatrix,
    product: &'m CsrMatrix,
    report: &'m WireReport,
}

impl Wire<'_> {
    /// `A·A`'s SUBMIT under `flags`: both blobs, or one under
    /// [`FLAG_RHS_IS_LHS`].
    fn write_submit<W: Write>(&self, w: &mut W, flags: u16) -> io::Result<()> {
        let head = FrameHeader { flags, ..FrameHeader::control(OpCode::Submit, 1) };
        write_submit(w, &head, self.a, self.a, &SubmitShape::Full)
    }

    fn write_result<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_result(w, &FrameHeader::control(OpCode::Result, 1), self.report, self.product)
    }

    fn buffered_submit(&self) -> Frame {
        let payload = encode_submit_payload_shaped(self.a, self.a, &SubmitShape::Full);
        Frame { payload, ..Frame::control(OpCode::Submit, 1) }
    }

    fn buffered_result(&self) -> Frame {
        let payload = encode_result_payload(self.report, self.product);
        Frame { payload, ..Frame::control(OpCode::Result, 1) }
    }
}

/// How a round trip moves its frames.
#[derive(Clone, Copy)]
enum Mode {
    /// Whole frames staged in buffers, both operand blobs.
    Buffered,
    /// Streamed from and into the matrices, the SUBMIT under these flags.
    Streamed(u16),
}

/// Median wall clock (ms) of `ops` SUBMIT → RESULT exchanges over one
/// loopback connection, and the process's minor page faults per exchange
/// (both peers; `None` off Linux).
fn round_trip(wire: &Wire<'_>, mode: Mode, ops: usize) -> (f64, Option<f64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            peer.set_nodelay(true).expect("nodelay");
            // One warm-up exchange, then the timed ones.
            for _ in 0..=ops {
                if let Mode::Streamed(_) = mode {
                    let head = FrameHeader::read(&mut peer, MAX_FRAME).expect("SUBMIT header");
                    read_submit_payload(&mut peer, &head, None).expect("SUBMIT");
                    wire.write_result(&mut peer).expect("RESULT");
                } else {
                    let submit = read_frame(&mut peer, MAX_FRAME).expect("SUBMIT frame");
                    decode_submit_payload_shaped(&submit.payload).expect("SUBMIT");
                    wire.buffered_result().write_to(&mut peer).expect("RESULT");
                }
            }
        });
        let mut conn = TcpStream::connect(addr).expect("connect loopback");
        conn.set_nodelay(true).expect("nodelay");
        let mut exchange = || {
            if let Mode::Streamed(flags) = mode {
                wire.write_submit(&mut conn, flags).expect("SUBMIT");
                let head = FrameHeader::read(&mut conn, MAX_FRAME).expect("RESULT header");
                drop(read_result_payload(&mut conn, head.payload_len as usize).expect("RESULT"));
            } else {
                wire.buffered_submit().write_to(&mut conn).expect("SUBMIT");
                let result = read_frame(&mut conn, MAX_FRAME).expect("RESULT frame");
                drop(decode_result_payload(&result.payload).expect("RESULT"));
            }
        };
        exchange();
        let faults_before = minor_faults();
        let ms = median_ms(ops, &mut exchange);
        let faults = minor_faults().zip(faults_before).map(|(b, a)| (b - a) as f64 / ops as f64);
        server.join().expect("server thread");
        (ms, faults)
    })
}

fn median_ms(reps: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// This process's minor page faults so far: field 10 of `/proc/self/stat`.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after it.
    stat.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse().ok()
}

/// A transport that records how many calls crossed it and the largest.
struct Recorder<T> {
    inner: T,
    calls: usize,
    largest: usize,
}

impl<T> Recorder<T> {
    fn new(inner: T) -> Self {
        Recorder { inner, calls: 0, largest: 0 }
    }

    fn record(&mut self, len: usize) {
        self.calls += 1;
        self.largest = self.largest.max(len);
    }

    /// Asserts no call exceeded the conversion chunk; returns the call count.
    fn within_chunk(&self, what: &str) -> usize {
        assert!(
            self.largest <= CHUNK_BYTES,
            "{what}: one call moved {} bytes, above the {CHUNK_BYTES}-byte chunk",
            self.largest
        );
        self.calls
    }
}

impl<W: Write> Write for Recorder<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.record(buf.len());
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Recorder<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.record(buf.len());
        self.inner.read(buf)
    }
}
