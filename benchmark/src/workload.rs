//! The four workloads: what operands each multiplies, through which front
//! door, under which pinned plan — and why (see `README.md`).

use cw_engine::{OutputShape, Plan, PlanningPolicy, Suggestion};
use cw_reorder::random_permutation;
use cw_service::ServiceConfig;
use cw_sparse::{gen, CsrMatrix};
use cw_spgemm::flops::multiply_adds;
use cw_spgemm::{apply_mask, spgemm_serial};
use std::sync::Arc;

/// The front door an op goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorKind {
    /// In-process `cw_engine::Engine`, one caller.
    Engine,
    /// In-process `SpgemmService::submit(..).wait()`.
    Service,
    /// `NetClient::multiply` against an in-process `NetServer` on loopback.
    Wire,
}

/// Operand scale: the benchmark proper, or the ÷10 smoke run the package's
/// own test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One workload: a fixed recipe from `(seed, scale)` to operands and a door.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub door: DoorKind,
    /// Closed-loop client threads / connections.
    pub clients: usize,
    /// `C = (A·A) ∩ A` instead of `C = A·A`.
    pub masked: bool,
    /// Pinned plan (`None` = the service's own planner decides).
    pub plan: Option<Plan>,
    /// Service configuration behind the service and wire doors.
    pub service: ServiceConfig,
    /// Fresh doors opened per slice for cold ops (each contributes one
    /// first-op per distinct operand).
    pub cold_doors: usize,
    /// Warm-up ops per client before the measured window.
    pub warmup_ops: usize,
    /// The operand in generator order, from `(scale, seed)`.
    pub natural: fn(Scale, u64) -> CsrMatrix,
    /// How many distinct shuffles of it the workload multiplies.
    pub distinct: fn(Scale) -> usize,
    /// The reference kernel's rate (`reference.rs`, multiply-adds per second)
    /// on this workload's first operand with the machine in its nominal
    /// state: timings are reported scaled to it. `None` where the op is
    /// wait-bound (a batch-window timer), so machine drift does not reach it
    /// and scaling would only add the reference's own noise.
    pub reference_nominal_rate: Option<f64>,
}

/// Names of the four workloads, in reporting order.
pub const NAMES: [&str; 4] = ["cluster-mesh", "masked-powerlaw", "service-small", "wire-large"];

/// The plan the engine-door probes pin for this workload: its own, or the
/// do-nothing baseline where the workload leaves planning to the service.
pub fn pinned_plan(spec: &Spec) -> Plan {
    let shape = if spec.masked { OutputShape::Masked } else { OutputShape::Full };
    spec.plan.unwrap_or_else(Plan::baseline).with_shape(shape)
}

fn frozen_single_shard() -> ServiceConfig {
    ServiceConfig { shards: 1, policy: PlanningPolicy::frozen(), ..ServiceConfig::default() }
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        door: DoorKind::Engine,
        clients: 1,
        masked: false,
        plan: None,
        service: frozen_single_shard(),
        cold_doors: 3,
        warmup_ops: 12,
        // Every workload below names its own generator.
        natural: |_, _| CsrMatrix::zeros(0, 0),
        distinct: |_| 1,
        reference_nominal_rate: None,
    };
    Some(match name {
        // The paper's pipeline on the input it is for: hierarchical
        // clustering -> CSR_Cluster -> cluster-wise kernel, pinned.
        "cluster-mesh" => Spec {
            name: NAMES[0],
            plan: Some(Plan::from_suggestion(Suggestion::Hierarchical)),
            natural: |scale, seed| {
                let side = if scale == Scale::Full { 240 } else { 76 };
                gen::mesh::tri_mesh(side, side, false, seed)
            },
            reference_nominal_rate: Some(115e6),
            ..base
        },
        // Triangle-counting shape on a power-law graph: row-wise kernel,
        // reordering and clustering bypassed, mask applied to the product.
        "masked-powerlaw" => Spec {
            name: NAMES[1],
            masked: true,
            plan: Some(Plan::baseline().with_shape(OutputShape::Masked)),
            natural: |scale, seed| {
                let log2_n = if scale == Scale::Full { 12 } else { 9 };
                gen::rmat::rmat(log2_n, 6, Default::default(), seed)
            },
            reference_nominal_rate: Some(320e6),
            ..base
        },
        // Many small operands through the default adaptive service: fixed
        // per-request cost dominates. Cold = first sighting of each operand.
        "service-small" => Spec {
            name: NAMES[2],
            door: DoorKind::Service,
            clients: 2,
            service: ServiceConfig::default(),
            cold_doors: 1,
            warmup_ops: 150,
            natural: |scale, seed| {
                let side = if scale == Scale::Full { 20 } else { 8 };
                gen::mesh::tri_mesh(side, side, false, seed)
            },
            distinct: |scale| if scale == Scale::Full { 96 } else { 40 },
            ..base
        },
        // High bytes-per-madd operand over loopback: codec + socket are a
        // large share of the op.
        "wire-large" => Spec {
            name: NAMES[3],
            door: DoorKind::Wire,
            natural: |scale, seed| {
                let n = if scale == Scale::Full { 40_000 } else { 4_000 };
                gen::banded::block_diagonal(n, (6, 10), 0.02, seed)
            },
            reference_nominal_rate: Some(160e6),
            ..base
        },
        _ => return None,
    })
}

/// Generated inputs of one workload.
#[derive(Debug, Clone)]
pub struct Operands {
    /// The distinct `A` operands (`B = A`; the mask, when used, is `A` too).
    pub mats: Vec<Arc<CsrMatrix>>,
    /// `mats[0]` in generator order, before the seeded shuffle: the
    /// locality ceiling for `spgemm.rowwise_natural_s`.
    pub natural: CsrMatrix,
}

impl Operands {
    /// Final operand sizes for the run header, as a JSON object: distinct
    /// operands, and rows / stored entries / multiply-adds of `A·A` / CSR
    /// bytes of the first one (all share the generator-order structure).
    pub fn describe(&self) -> String {
        let a = &*self.mats[0];
        format!(
            "{{\"distinct\":{},\"n\":{},\"nnz\":{},\"madds\":{},\"bytes\":{}}}",
            self.mats.len(),
            a.nrows,
            a.nnz(),
            multiply_adds(a, a),
            a.memory_bytes()
        )
    }
}

/// SplitMix64: the benchmark's only random source besides the library's
/// seeded generators (request order and sub-seeds).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Operand index `⌊(n+1)^u⌋ − 1`, `u` uniform (log-uniform popularity,
    /// Zipf-like): a few hot operands and a long tail, so a working set
    /// larger than the plan caches sees both hits and evictions.
    pub fn popular_index(&mut self, n: usize) -> usize {
        (((n + 1) as f64).powf(self.next_f64()) as usize).clamp(1, n) - 1
    }
}

/// Symmetric seeded shuffle: the state real inputs arrive in, and the one in
/// which reordering/clustering has locality to recover.
fn shuffled(natural: &CsrMatrix, seed: u64) -> CsrMatrix {
    random_permutation(natural.nrows, seed).permute_symmetric(natural)
}

/// Generates the workload's operands from the seed.
pub fn generate(spec: &Spec, seed: u64, scale: Scale) -> Operands {
    let mut sub = SplitMix64(seed ^ 0xc1a5_7e12_5eed_0000);
    let (gen_seed, perm_seed) = (sub.next_u64(), sub.next_u64());
    let natural = (spec.natural)(scale, gen_seed);
    // Distinct operands share the generator-order structure and differ in
    // their shuffle (and so in fingerprint, checksum and plan-cache key).
    let mats = (0..(spec.distinct)(scale) as u64)
        .map(|i| Arc::new(shuffled(&natural, perm_seed.wrapping_add(i))))
        .collect();
    Operands { mats, natural }
}

/// The oracle product for operand `a`: single-thread row-wise Gustavson on
/// the operand as given, masked by `apply_mask` for masked workloads.
pub fn oracle(spec: &Spec, a: &CsrMatrix) -> CsrMatrix {
    let full = spgemm_serial(a, a);
    if spec.masked {
        apply_mask(&full, a)
    } else {
        full
    }
}
