//! The traced run of one workload: the layer waterfall, taken from outside.
//!
//! Every number here comes from timing calls into a layer's public
//! functions on the workload's own operands, or from the report structs
//! those calls already return. Layer = crate. Every workload reports every
//! metric, so a layer the workload's own front door bypasses still gets a
//! number on that workload's operand (the "bypass" side of a prediction).

use crate::doors::{Client, Door};
use crate::run::{drive, setup, Load, Metric, Outcome, Ready, Sample, Tally};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::workload::{oracle, pinned_plan, DoorKind, Scale, Spec};
use cw_core::cluster_stats::cluster_stats;
use cw_core::{clusterwise_spgemm_with, hierarchical_clustering, ClusterConfig};
use cw_engine::{PreparedMatrix, StageTimings};
use cw_net::frame::{
    decode_result_payload, decode_submit_payload_shaped, encode_result_payload,
    encode_submit_payload_shaped,
};
use cw_net::SubmitShape;
use cw_reorder::{random_permutation, Reordering};
use cw_service::ServiceConfig;
use cw_sparse::io::{decode_csr_exact, encode_csr};
use cw_sparse::{checksum, fingerprint, CsrMatrix};
use cw_spgemm::flops::multiply_adds;
use cw_spgemm::rowwise::symbolic_row_nnz;
use cw_spgemm::{apply_mask, spgemm, spgemm_serial, AccumulatorKind, SpGemmOptions};
use std::hint::black_box;
use std::time::Instant;

const MB: f64 = 1024.0 * 1024.0;

/// Repetitions of a direct layer call: at most `PROBE_REPS`, stopping early
/// once `PROBE_BUDGET_S` is spent, so a slow reordering costs one run.
const PROBE_REPS: usize = 3;
const PROBE_BUDGET_S: f64 = 0.6;

/// Metrics under construction plus the span buffer the probes record into.
struct Waterfall {
    metrics: Vec<Metric>,
    spans: Spans,
    /// Root span of the direct layer probes.
    probes: usize,
}

impl Waterfall {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Times `f` (median of up to `PROBE_REPS` runs, one span each), reports
    /// it as `name`, and hands back the seconds and the last result.
    fn probe<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> (f64, R) {
        let began = Instant::now();
        let mut seconds = Vec::with_capacity(PROBE_REPS);
        loop {
            let start = Instant::now();
            let out = self.spans.within(name, Some(self.probes), || black_box(f()));
            seconds.push(start.elapsed().as_secs_f64());
            if seconds.len() == PROBE_REPS || began.elapsed().as_secs_f64() > PROBE_BUDGET_S {
                let s = median(&seconds);
                self.put(name, s, "s");
                return (s, out);
            }
        }
    }
}

/// Median of `f` over the samples that have it; NaN when none does (the
/// caller reports a non-finite metric as a failed run).
fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> Option<f64>) -> f64 {
    let values: Vec<f64> = samples.iter().filter_map(f).collect();
    if values.is_empty() {
        f64::NAN
    } else {
        median(&values)
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run: every per-layer metric of one workload, and the spans.
pub fn layers(spec: &Spec, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let origin = Instant::now();
    let Ready { ops, expected, mut door, mut tally } = setup(spec, seed, scale, false)?;
    let mut spans = Spans::new(origin);
    let probes = spans.push("probes", 0, 0, None, 0);
    let mut w = Waterfall { metrics: Vec::new(), spans, probes };
    let a = &*ops.mats[0];
    let plan = pinned_plan(spec);
    // Drives a door briefly with spans on: at least 6 ops, `budget` seconds.
    let short = |door: &mut Door, budget: f64, tally: &mut Tally, spans: &mut Spans| {
        let load = Load {
            masked: spec.masked,
            min_ops: 6,
            seconds: budget,
            seed: seed ^ 0x1a7e,
            trace_origin: Some(origin),
            with_reference: false,
        };
        let mut window = drive(door, &ops, &expected, load);
        tally.add(window.tally);
        spans.absorb(std::mem::take(&mut window.spans));
        window
    };

    // -- the workload's own front door, alternating traced / untraced ops --
    let pool_before = rayon::pool_stats();
    let own = short(&mut door, seconds / 4.0, &mut tally, &mut w.spans);
    let pool_after = rayon::pool_stats();
    drop(door);
    let own_ops = own.tally.attempted.max(1) as f64;
    let p50_where =
        |traced: bool| median_of(&own.samples, |s| (s.traced == traced).then_some(s.lat_s));
    let own_p50 = p50_where(false);
    w.put("bench.op_p50_s", own_p50, "s");
    w.put("bench.trace_overhead_frac", p50_where(true) / own_p50 - 1.0, "ratio");
    w.put("pool.width", rayon::current_num_threads() as f64, "count");
    w.put("pool.tasks_per_op", (pool_after.tasks - pool_before.tasks) as f64 / own_ops, "count");
    w.put("pool.steals_per_op", (pool_after.steals - pool_before.steals) as f64 / own_ops, "count");

    // -- engine: the pinned plan through a direct Engine, cold then warm --
    let frozen = &spec.service;
    let mut cold: Vec<Sample> = Vec::new();
    let mut engine_door = None;
    for _ in 0..3 {
        drop(engine_door.take());
        let mut fresh = Door::open(DoorKind::Engine, frozen, Some(plan), 1)?;
        tally.attempted += 1;
        let start = Instant::now();
        match fresh.clients[0].op(&ops.mats[0], spec.masked) {
            Ok((_, stages)) => {
                cold.push(Sample { lat_s: start.elapsed().as_secs_f64(), stages, traced: false })
            }
            Err(_) => tally.failed += 1,
        }
        engine_door = Some(fresh);
    }
    let mut engine_door = engine_door.expect("three cold doors were opened");
    let engine_s = |samples: &[Sample], f: fn(&StageTimings) -> f64| {
        median_of(samples, |s| s.stages.engine.as_ref().map(f))
    };
    w.put("engine.reorder_s", engine_s(&cold, |t| t.reorder_seconds), "s");
    w.put("engine.cluster_s", engine_s(&cold, |t| t.cluster_seconds), "s");
    let pinned = short(&mut engine_door, seconds / 8.0, &mut tally, &mut w.spans);
    let pinned = &pinned.samples;
    w.put("engine.kernel_s", engine_s(pinned, |t| t.kernel_seconds), "s");
    w.put("engine.postprocess_s", engine_s(pinned, |t| t.postprocess_seconds), "s");
    let unexplained = |s: &Sample| s.stages.engine.map(|t| s.lat_s - t.total());
    w.put("engine.overhead_s", median_of(pinned, unexplained), "s");
    let coverage = |s: &Sample| s.stages.engine.map(|t| t.total() / s.lat_s);
    w.put("engine.coverage_frac", median_of(pinned, coverage), "ratio");
    let cache = engine_door.engine_cache_stats().unwrap_or_default();
    w.put("engine.cache_hit_frac", cache.hit_rate(), "ratio");
    let replans = |samples: &[Sample]| samples.iter().filter(|s| s.stages.replanned).count() as f64;
    w.put("engine.replans", replans(pinned), "count");
    drop(engine_door);
    let prepared = w
        .spans
        .within("engine.prepare", Some(probes), || {
            PreparedMatrix::prepare(a, plan, 0, &ClusterConfig::default())
        })
        .approx_bytes();
    w.put("engine.prepared_mb", prepared as f64 / MB, "MB");

    // -- engine: the ungated default door (adaptive planning + feedback) --
    let mut adaptive_door = Door::open(DoorKind::Engine, frozen, None, 1)?;
    let adaptive = short(&mut adaptive_door, seconds / 8.0, &mut tally, &mut w.spans);
    drop(adaptive_door);
    let adaptive = &adaptive.samples;
    let first_plan_s = adaptive.first().and_then(|s| s.stages.engine).map(|t| t.plan_seconds);
    w.put("engine.plan_s", first_plan_s.unwrap_or(f64::NAN), "s");
    w.put("engine.adaptive_p50_s", median_of(adaptive, |s| Some(s.lat_s)), "s");
    let adaptive_lat: Vec<f64> = adaptive.iter().map(|s| s.lat_s).collect();
    let adaptive_p95 =
        if adaptive_lat.is_empty() { f64::NAN } else { quantile(&adaptive_lat, 0.95) };
    w.put("engine.adaptive_p95_s", adaptive_p95, "s");
    w.put("engine.adaptive_replans", replans(adaptive), "count");

    // -- service: same operands through SpgemmService, obs tracing off / on --
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let (mut coalesced, mut rejected, mut replans, mut hits, mut lookups) = (0, 0, 0, 0, 0);
    let (mut obs_spans, mut obs_traces) = (0usize, 0usize);
    for round in 0..4 {
        let tracing = round % 2 == 1;
        let config = ServiceConfig { tracing, ..spec.service.clone() };
        let mut service_door = Door::open(DoorKind::Service, &config, spec.plan, spec.clients)?;
        let window = short(&mut service_door, seconds / 16.0, &mut tally, &mut w.spans);
        if tracing {
            let traces = service_door.service().map(|s| s.tracer().flight_traces());
            for trace in traces.unwrap_or_default() {
                obs_spans += trace.spans.len();
                obs_traces += 1;
            }
            on.extend(window.samples);
        } else {
            let stats = service_door.service().expect("a service door has a service").stats();
            let cache = stats.total_cache();
            coalesced += stats.coalesced_batches();
            rejected += stats.rejected;
            replans += stats.total_replans();
            hits += cache.hits;
            lookups += cache.hits + cache.misses;
            off.extend(window.samples);
        }
    }
    let inproc_p50 = median_of(&off, |s| Some(s.lat_s));
    w.put("service.queue_s", median_of(&off, |s| s.stages.queue_s), "s");
    w.put("service.execute_s", median_of(&off, |s| s.stages.execute_s), "s");
    let outside = |s: &Sample| Some(s.lat_s - s.stages.queue_s? - s.stages.execute_s?);
    w.put("service.overhead_s", median_of(&off, outside), "s");
    w.put(
        "service.batch_size_mean",
        off.iter().map(|s| s.stages.batch_size as f64).sum::<f64>() / off.len().max(1) as f64,
        "count",
    );
    w.put("service.coalesced_batches", coalesced as f64, "count");
    w.put("service.rejected", rejected as f64, "count");
    w.put("service.replans", replans as f64, "count");
    w.put("service.cache_hit_frac", frac(hits, lookups), "ratio");
    let traced_p50 = median_of(&on, |s| Some(s.lat_s));
    w.put("obs.tracing_overhead_frac", traced_p50 / inproc_p50 - 1.0, "ratio");
    w.put("obs.spans_per_request", obs_spans as f64 / obs_traces.max(1) as f64, "count");

    // -- net: same operands over loopback, and the codec pieces on their own --
    let mut wire_door = Door::open(DoorKind::Wire, &spec.service, None, spec.clients)?;
    let wire = short(&mut wire_door, seconds / 8.0, &mut tally, &mut w.spans);
    let wire_report = match &mut wire_door.clients[0] {
        Client::Wire(client) => {
            client.multiply(&ops.mats[0], &ops.mats[0]).map_err(|e| e.to_string())?.report
        }
        _ => unreachable!("a wire door hands out wire clients"),
    };
    drop(wire_door);
    let product = oracle(spec, a);
    let shape = if spec.masked { SubmitShape::Masked(a.clone()) } else { SubmitShape::Full };
    let (enc_submit_s, submit) =
        w.probe("net.encode_submit_s", || encode_submit_payload_shaped(a, a, &shape));
    let (dec_submit_s, _) = w.probe("net.decode_submit_s", || {
        decode_submit_payload_shaped(&submit).expect("own submit payload decodes")
    });
    let (enc_result_s, result) =
        w.probe("net.encode_result_s", || encode_result_payload(&wire_report, &product));
    let (dec_result_s, _) = w.probe("net.decode_result_s", || {
        decode_result_payload(&result).expect("own result payload decodes")
    });
    let wire_p50 = median_of(&wire.samples, |s| Some(s.lat_s));
    let server_s = median_of(&wire.samples, |s| s.stages.server_s);
    let explained = server_s + enc_submit_s + dec_submit_s + enc_result_s + dec_result_s;
    w.put("net.submit_mb", submit.len() as f64 / MB, "MB");
    w.put("net.result_mb", result.len() as f64 / MB, "MB");
    w.put("net.server_latency_s", server_s, "s");
    w.put("net.inproc_p50_s", inproc_p50, "s");
    w.put("net.wire_p50_s", wire_p50, "s");
    w.put("net.wire_tax_s", wire_p50 - inproc_p50, "s");
    w.put("net.residual_s", wire_p50 - explained, "s");
    w.put("net.coverage_frac", explained / wire_p50, "ratio");

    direct_probes(&mut w, a, &ops.natural, seed);

    w.put("bench.fail_frac", frac(tally.failed, tally.attempted), "ratio");
    w.put("bench.spans", w.spans.rows.len() as f64, "count");
    let counts =
        format!("{{\"own_door_ops\":{},\"spans\":{}}}", own.tally.attempted, w.spans.rows.len());
    Ok(Outcome {
        metrics: w.metrics,
        tally,
        spans: Some(w.spans),
        operands: ops.describe(),
        counts,
    })
}

/// Direct calls into `cw-sparse`, `cw-spgemm`, `cw-reorder` (incl.
/// `cw-partition`) and `cw-core` on operand `a` (`natural`: the same operand
/// in generator order).
fn direct_probes(w: &mut Waterfall, a: &CsrMatrix, natural: &CsrMatrix, seed: u64) {
    // -- sparse --
    w.probe("sparse.fingerprint_s", || fingerprint(a));
    w.probe("sparse.checksum_s", || checksum(a));
    let shuffle = random_permutation(a.nrows, seed);
    w.probe("sparse.permute_s", || shuffle.permute_symmetric(a));
    let (encode_s, blob) = w.probe("sparse.encode_s", || encode_csr(a));
    let (decode_s, _) =
        w.probe("sparse.decode_s", || decode_csr_exact(&blob).expect("own blob decodes"));
    let blob_mb = blob.len() as f64 / MB;
    w.put("sparse.encode_s_per_mb", encode_s / blob_mb, "s/MB");
    w.put("sparse.decode_s_per_mb", decode_s / blob_mb, "s/MB");

    // -- spgemm: the plain kernels on the operand as given --
    let madds = multiply_adds(a, a) as f64;
    let (serial_s, full) = w.probe("spgemm.rowwise_serial_s", || spgemm_serial(a, a));
    w.probe("spgemm.rowwise_parallel_s", || spgemm(a, a));
    w.probe("spgemm.rowwise_natural_s", || spgemm_serial(natural, natural));
    w.probe("spgemm.symbolic_s", || symbolic_row_nnz(a, a, AccumulatorKind::Hash));
    w.probe("spgemm.mask_s", || apply_mask(&full, a));
    // Computed, not measured: 12 B (4 B column + 8 B value) per entry of A
    // read, per B entry streamed (one per multiply-add) and per C entry
    // written. Cache misses are not in it.
    let bytes = 12.0 * (a.nnz() as f64 + madds + full.nnz() as f64);
    w.put("spgemm.madds", madds, "count");
    w.put("spgemm.out_nnz", full.nnz() as f64, "count");
    w.put("spgemm.bytes_computed", bytes, "B");
    w.put("spgemm.madds_per_byte", madds / bytes, "1/B");
    w.put("spgemm.madds_per_s", madds / serial_s, "1/s");

    // -- reorder (incl. cw-partition): each reordering, then row-wise on it --
    let reorderings: [(Reordering, &'static str, &'static str); 3] = [
        (Reordering::Rcm, "reorder.rcm_s", "reorder.rcm_rowwise_s"),
        (Reordering::Rabbit, "reorder.rabbit_s", "reorder.rabbit_rowwise_s"),
        (Reordering::Gp(16), "reorder.gp_s", "reorder.gp_rowwise_s"),
    ];
    for (algo, compute_name, rowwise_name) in reorderings {
        let (_, perm) = w.probe(compute_name, || algo.compute(a, seed));
        let reordered = perm.permute_symmetric(a);
        w.probe(rowwise_name, || spgemm_serial(&reordered, &reordered));
    }

    // -- core: hierarchical clustering, CSR_Cluster, the cluster-wise kernel --
    let (_, clustering) =
        w.probe("core.hierarchical_s", || hierarchical_clustering(a, &ClusterConfig::default()));
    let (_, (clustered, permuted)) = w.probe("core.build_s", || clustering.build_symmetric(a));
    let parallel = SpGemmOptions::default();
    let serial = SpGemmOptions { parallel: false, ..parallel };
    w.probe("core.clusterwise_s", || clusterwise_spgemm_with(&clustered, &permuted, &parallel));
    let (clusterwise_serial_s, _) = w.probe("core.clusterwise_serial_s", || {
        clusterwise_spgemm_with(&clustered, &permuted, &serial)
    });
    let quality = cluster_stats(&clustered);
    w.put("core.padding_frac", quality.padding_fraction, "ratio");
    w.put("core.avg_cluster_len", quality.avg_cluster_size, "count");
    w.put("core.bytes_ratio", clustered.memory_bytes() as f64 / a.memory_bytes() as f64, "ratio");
    // The paper's direction of effect: > 1 means cluster-wise beats row-wise.
    w.put("core.speedup_vs_rowwise", serial_s / clusterwise_serial_s, "ratio");
}
