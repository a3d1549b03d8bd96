//! The untraced run of one workload: set-up, cold ops, the measured closed
//! loop, and the end-to-end metrics they yield.

use crate::doors::{Client, Door, Stages};
use crate::reference::reference_rate;
use crate::spans::{Span, Spans};
use crate::stats::{median, quantile};
use crate::workload::{generate, oracle, Operands, Scale, Spec, SplitMix64};
use cw_sparse::{checksum, CsrMatrix};
use std::time::Instant;

/// A named measurement with its unit.
pub type Metric = (String, f64, &'static str);

/// What a correct product of one operand looks like: every timed op is
/// checked against this outside the timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    nnz: usize,
    checksum: u64,
}

impl Expected {
    fn of(product: &CsrMatrix) -> Expected {
        Expected { nnz: product.nnz(), checksum: checksum(product) }
    }

    fn matches(&self, product: &CsrMatrix) -> bool {
        product.nnz() == self.nnz && checksum(product) == self.checksum
    }
}

/// One successful, verified op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub lat_s: f64,
    pub stages: Stages,
    /// Spans were recorded for this op (traced runs alternate).
    pub traced: bool,
}

/// Ops attempted and failed (errors, rejects, oracle mismatches).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The result of driving a door for a while.
#[derive(Debug)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Sum over clients of verified ops ÷ time inside ops (verification and
    /// the reference kernel excluded).
    pub ops_per_s: f64,
    pub tally: Tally,
    /// Spans of the traced ops, parents indexed within this list.
    pub spans: Vec<Span>,
    /// Rates of the reference kernel (multiply-adds per second), run before
    /// every op when asked for.
    pub reference_rate: Vec<f64>,
}

impl Window {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.lat_s).collect()
    }
}

/// Records the spans of one op: a root `op` span with children rebuilt from
/// the durations its report carries.
fn record_op(spans: &mut Spans, op_id: u64, start_ns: u64, end_ns: u64, stages: &Stages) {
    let root = spans.push("op", start_ns, end_ns, None, op_id);
    let (mut parent, mut lo, mut hi) = (root, start_ns, end_ns);
    if let Some(server_s) = stages.server_s {
        // Where inside the op the server interval sits is not reported:
        // centre it, leaving the wire tax split evenly around it.
        let slack = (hi - lo).saturating_sub((server_s * 1e9) as u64);
        (lo, hi) = (lo + slack / 2, hi - slack / 2);
        parent = spans.push("net.server", lo, hi, Some(root), op_id);
    }
    if let (Some(queue_s), Some(execute_s)) = (stages.queue_s, stages.execute_s) {
        let queue_end = lo + (queue_s * 1e9) as u64;
        spans.push("service.queue", lo, queue_end, Some(parent), op_id);
        hi = queue_end + (execute_s * 1e9) as u64;
        parent = spans.push("service.execute", queue_end, hi, Some(parent), op_id);
    }
    if let Some(t) = stages.engine {
        let children = [
            ("engine.plan", t.plan_seconds),
            ("engine.reorder", t.reorder_seconds),
            ("engine.cluster", t.cluster_seconds),
            ("engine.kernel", t.kernel_seconds),
            ("engine.postprocess", t.postprocess_seconds),
        ];
        spans.push_stages_ending_at(&children, hi, parent, op_id);
    }
}

/// How to drive a door: see [`drive`].
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// `C = (A·A) ∩ A` instead of `C = A·A`.
    pub masked: bool,
    /// Every client does at least this many ops ...
    pub min_ops: usize,
    /// ... and keeps going until this many seconds have passed.
    pub seconds: f64,
    /// Seeds the popularity-weighted operand order.
    pub seed: u64,
    /// Record spans for every second op, against this time origin.
    pub trace_origin: Option<Instant>,
    /// Run the reference kernel before every op (outside the op's timing).
    pub with_reference: bool,
}

/// Drives every client of `door` in a closed loop. Every product is verified
/// outside the timed interval.
pub fn drive(door: &mut Door, ops: &Operands, expected: &[Expected], load: Load) -> Window {
    let Load { masked, min_ops, seconds, seed, trace_origin, with_reference } = load;
    let per_client = |index: usize, client: &mut Client| {
        let mut rng = SplitMix64(seed.wrapping_add(index as u64));
        let mut spans = Spans::new(trace_origin.unwrap_or_else(Instant::now));
        let (mut samples, mut tally, mut busy_s) = (Vec::new(), Tally::default(), 0.0);
        let mut reference = Vec::new();
        let began = Instant::now();
        while (tally.attempted as usize) < min_ops || began.elapsed().as_secs_f64() < seconds {
            let which = rng.popular_index(ops.mats.len());
            let traced = trace_origin.is_some() && tally.attempted % 2 == 1;
            tally.attempted += 1;
            if with_reference {
                reference.push(reference_rate(&ops.mats[0]));
            }
            let start_ns = spans.now_ns();
            let start = Instant::now();
            let result = client.op(&ops.mats[which], masked);
            let lat_s = start.elapsed().as_secs_f64();
            busy_s += lat_s;
            match result {
                Ok((product, stages)) if expected[which].matches(&product) => {
                    if traced {
                        let op_id = ((index as u64) << 32) | tally.attempted;
                        let end_ns = start_ns + (lat_s * 1e9) as u64;
                        record_op(&mut spans, op_id, start_ns, end_ns, &stages);
                    }
                    samples.push(Sample { lat_s, stages, traced });
                }
                Ok(_) => tally.failed += 1,
                Err(error) => {
                    if tally.failed == 0 {
                        eprintln!("benchmark: op failed: {error}");
                    }
                    tally.failed += 1;
                }
            }
        }
        let rate = samples.len() as f64 / busy_s;
        (samples, tally, rate, spans, reference)
    };
    let per_client = &per_client;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = door
            .clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| scope.spawn(move || per_client(index, client)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut window = Window {
        samples: Vec::new(),
        ops_per_s: 0.0,
        tally: Tally::default(),
        spans: Vec::new(),
        reference_rate: Vec::new(),
    };
    for (samples, tally, rate, spans, reference) in results {
        window.reference_rate.extend(reference);
        window.samples.extend(samples);
        window.tally.add(tally);
        window.ops_per_s += rate;
        let base = window.spans.len();
        window.spans.extend(spans.rows.into_iter().map(|s| s.rebased(base)));
    }
    window
}

/// A workload ready to be measured: operands, what their products must be,
/// and a warmed front door.
#[derive(Debug)]
pub struct Ready {
    pub ops: Operands,
    pub expected: Vec<Expected>,
    pub door: Door,
    pub tally: Tally,
}

/// Set-up: operand generation, oracle products, door start, the bit-for-bit
/// correctness gate (one op per operand against the oracle), warm-up ops.
/// `corrupt_oracle` flips one value of the oracle the gate compares against,
/// so that the package's test can show a wrong product is caught.
pub fn setup(spec: &Spec, seed: u64, scale: Scale, corrupt_oracle: bool) -> Result<Ready, String> {
    let ops = generate(spec, seed, scale);
    let mut door = Door::open(spec.door, &spec.service, spec.plan, spec.clients)?;
    let mut tally = Tally::default();
    let mut expected = Vec::with_capacity(ops.mats.len());
    for a in &ops.mats {
        let mut want = oracle(spec, a);
        expected.push(Expected::of(&want));
        if corrupt_oracle {
            if let Some(v) = want.vals.first_mut() {
                *v = -*v;
            }
        }
        tally.attempted += 1;
        match door.clients[0].op(a, spec.masked) {
            Ok((got, _)) if got.numerically_eq(&want, 0.0) => {}
            Ok(_) => tally.failed += 1,
            Err(error) => {
                eprintln!("benchmark: correctness gate op failed: {error}");
                tally.failed += 1;
            }
        }
    }
    let load = Load {
        masked: spec.masked,
        min_ops: spec.warmup_ops,
        seconds: 0.0,
        seed: seed ^ 0x3a9,
        trace_origin: None,
        with_reference: false,
    };
    let warmup = drive(&mut door, &ops, &expected, load);
    tally.add(warmup.tally);
    Ok(Ready { ops, expected, door, tally })
}

/// Cold ops: the first op of every distinct operand on each of
/// `spec.cold_doors` fresh doors (plan + prepare + kernel — the
/// preprocessing the paper's Fig. 10 amortises).
pub fn cold_ops(
    spec: &Spec,
    ops: &Operands,
    expected: &[Expected],
) -> Result<(Vec<f64>, Tally), String> {
    let (mut seconds, mut tally) = (Vec::new(), Tally::default());
    for _ in 0..spec.cold_doors {
        let mut door = Door::open(spec.door, &spec.service, spec.plan, 1)?;
        for (a, want) in ops.mats.iter().zip(expected) {
            tally.attempted += 1;
            let start = Instant::now();
            let result = door.clients[0].op(a, spec.masked);
            let lat_s = start.elapsed().as_secs_f64();
            match result {
                Ok((product, _)) if want.matches(&product) => seconds.push(lat_s),
                _ => tally.failed += 1,
            }
        }
    }
    Ok((seconds, tally))
}

/// `VmHWM` (peak resident set) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading is the
/// peak since now. Where the kernel refuses, readings stay peaks since start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Slices per run. A run is cut into `SLICES` equal parts, each with its own
/// set-up (fresh operand allocations, fresh front door), its own cold ops and
/// its own share of the measured window; every end-to-end timing is the
/// median over slices. On a shared machine an op's speed shifts by 10-20 %
/// with where its operands happen to land in memory and stays shifted for
/// the life of the allocation, so one long window measures one draw of that
/// lottery; slices measure `SLICES` draws.
pub const SLICES: usize = 5;

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Recorded spans (traced runs only).
    pub spans: Option<Spans>,
    /// Run-header fragments (JSON objects): final operand sizes, op counts.
    pub operands: String,
    pub counts: String,
}

/// The untraced run: every end-to-end metric of one workload.
///
/// Where the workload names a nominal reference rate, every timing of a
/// slice is scaled by `(the slice's median reference-kernel rate) ÷ nominal`:
/// seconds as they would read with the machine in its nominal state (see
/// `reference.rs`). The unscaled median latency goes into the run header.
pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    scale: Scale,
    corrupt_oracle: bool,
) -> Result<Outcome, String> {
    let nominal_rate = spec.reference_nominal_rate;
    let (mut setup_s, mut cold_s, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50_s, mut p95_s, mut ops_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_p50_s, mut reference) = (Vec::new(), Vec::new());
    let (mut tally, mut warm_ops, mut cold_ops_done) = (Tally::default(), 0, 0);
    let mut operands = String::new();
    for slice in 0..SLICES as u64 {
        // Each slice's set-up is dropped before the next begins (end of this
        // body), so peak memory stays that of one live set-up.
        reset_peak_rss();
        let start = Instant::now();
        let mut ready = setup(spec, seed, scale, corrupt_oracle)?;
        let slice_setup_s = start.elapsed().as_secs_f64();
        tally.add(ready.tally);
        let (cold, cold_tally) = cold_ops(spec, &ready.ops, &ready.expected)?;
        tally.add(cold_tally);
        let load = Load {
            masked: spec.masked,
            min_ops: 1,
            seconds: seconds / SLICES as f64,
            seed: seed ^ 0x77a1 ^ (slice << 20),
            trace_origin: None,
            with_reference: nominal_rate.is_some(),
        };
        let window = drive(&mut ready.door, &ready.ops, &ready.expected, load);
        tally.add(window.tally);
        operands = ready.ops.describe();
        let lat = window.latencies();
        if lat.is_empty() || cold.is_empty() {
            continue;
        }
        let to_nominal = match nominal_rate {
            Some(nominal_rate) => {
                let rate_now = median(&window.reference_rate);
                reference.push(rate_now);
                rate_now / nominal_rate
            }
            None => 1.0,
        };
        warm_ops += lat.len();
        cold_ops_done += cold.len();
        raw_p50_s.push(median(&lat));
        setup_s.push(slice_setup_s * to_nominal);
        cold_s.push(median(&cold) * to_nominal);
        p50_s.push(median(&lat) * to_nominal);
        p95_s.push(quantile(&lat, 0.95) * to_nominal);
        ops_per_s.push(window.ops_per_s / to_nominal);
        rss_mb.push(peak_rss_mb());
    }
    if p50_s.is_empty() {
        return Err(format!("{}: no op succeeded, nothing to report", spec.name));
    }
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s), "s"),
        ("cold_op_s".to_string(), median(&cold_s), "s"),
        ("op_p50_s".to_string(), median(&p50_s), "s"),
        ("op_p95_s".to_string(), median(&p95_s), "s"),
        ("ops_per_s".to_string(), median(&ops_per_s), "1/s"),
        // What the allocator and thread timing add to a slice's peak is
        // one-sided, so the smallest slice peak is the steadiest reading.
        ("peak_rss_mb".to_string(), rss_mb.iter().copied().fold(f64::INFINITY, f64::min), "MB"),
    ];
    let reference =
        if reference.is_empty() { "null".to_string() } else { median(&reference).to_string() };
    let counts = format!(
        "{{\"slices\":{SLICES},\"cold_ops\":{cold_ops_done},\"warm_ops\":{warm_ops},\
         \"beyond_p95\":{},\"raw_op_p50_s\":{},\"reference_madds_per_s\":{reference}}}",
        warm_ops / 20,
        median(&raw_p50_s)
    );
    Ok(Outcome { metrics, tally, spans: None, operands, counts })
}
