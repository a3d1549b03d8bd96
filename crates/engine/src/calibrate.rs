//! Calibration: fitting the [`CostModel`]'s constants from measured runs.
//!
//! The analytic cost model ships with hand-tuned constants that only need
//! to *rank* plans sensibly; their absolute scale is wrong on any machine
//! that is not the one they were guessed on (debug builds are off by an
//! order of magnitude, accelerators by more). Related work on
//! profile-guided sparse-kernel selection (Asudeh et al.'s SpMV reordering
//! study, Akbudak & Aykanat's locality models) shows offline-profiled
//! models beat static heuristics — so this module closes the loop
//! *offline*, complementing the online [`crate::FeedbackStore`]:
//!
//! 1. A bench sweep measures [`CalibrationSample`]s — operand features ×
//!    plan × observed prep/kernel seconds.
//! 2. The [`Calibrator`] fits the model's per-madd rate, parallel
//!    speedup, and preprocessing rates by least squares (in log space for
//!    the multiplicative kernel terms, through the origin for the
//!    linear-in-`nnz` preprocessing terms). The accumulator is not a model
//!    term (the planner picks it by footprint after ranking), so samples of
//!    either accumulator feed one per-madd rate.
//! 3. The fit serializes as a versioned [`CalibrationProfile`] — a
//!    hand-rolled JSON document (the build container has no serde) that
//!    [`crate::Planner::with_profile`], [`crate::Engine::with_profile`],
//!    and the service's `ServiceConfig::profile` load at construction, so
//!    first-sight planning starts calibrated instead of pessimistic.
//!
//! ```
//! use cw_engine::{CalibrationProfile, Planner};
//!
//! let json = CalibrationProfile::default().to_json();
//! let profile = CalibrationProfile::from_json(&json).unwrap();
//! let planner = Planner::with_profile(7, profile.clone());
//! assert_eq!(planner.cost, profile.cost_model());
//! ```

use crate::cost::{cluster_overlap, CostModel, OperandFeatures};
use crate::plan::{ClusteringStrategy, Plan};
use cw_reorder::Reordering;
use std::fmt;
use std::path::Path;

pub mod json;

use json::JsonValue;

/// Schema version written into (and required from) profile JSON. Bump on
/// any incompatible field change; the golden-file test pins it. Version 3
/// dropped the dense-accumulator discount.
pub const PROFILE_SCHEMA_VERSION: u64 = 3;

/// One measured execution: the operand's features, the plan that ran
/// (`parallel` included), the advisor affinity the model would
/// price it with, and the observed one-off preprocessing plus warm
/// per-multiply kernel seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Features of the left-hand operand the plan ran on.
    pub features: OperandFeatures,
    /// The executed plan.
    pub plan: Plan,
    /// Advisor structural-evidence affinity for the plan's technique
    /// (`0` for the baseline), as fed to [`CostModel::estimate`].
    pub affinity: f64,
    /// Observed one-off preprocessing seconds (reorder + clustering);
    /// the same whether the kernel then runs in parallel or not.
    pub prep_seconds: f64,
    /// Observed warm per-multiply kernel seconds (preparation cached).
    pub kernel_seconds: f64,
}

/// A fitted, serializable calibration: the cost model's constants,
/// versioned for forward compatibility.
///
/// The profile is the *artifact* of a [`Calibrator::fit`]: check one in
/// (`profiles/default.json`), load it at construction
/// ([`crate::Planner::with_profile`]), and regenerate it whenever the
/// hardware or the kernels change (`paper calibrate` emits a fresh one).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    /// Schema version of the serialized form
    /// ([`PROFILE_SCHEMA_VERSION`] when produced by this build).
    pub schema_version: u64,
    /// Total samples the fit ingested (0 = uncalibrated defaults).
    pub fitted_from_samples: usize,
    /// The fitted cost-model constants.
    pub model: CostModel,
}

impl Default for CalibrationProfile {
    /// The uncalibrated profile: hand-tuned [`CostModel`] constants.
    fn default() -> Self {
        CalibrationProfile {
            schema_version: PROFILE_SCHEMA_VERSION,
            fitted_from_samples: 0,
            model: CostModel::default(),
        }
    }
}

/// Why a profile JSON document failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileParseError {
    /// The document is not valid JSON.
    Json(String),
    /// The document parsed but a required field is missing or mistyped.
    Schema(String),
    /// The document's `schema_version` is not one this build understands.
    Version(u64),
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileParseError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProfileParseError::Schema(e) => write!(f, "schema error: {e}"),
            ProfileParseError::Version(v) => write!(
                f,
                "unsupported calibration profile schema version {v} (this build reads \
                 {PROFILE_SCHEMA_VERSION}); regenerate the profile with `paper calibrate`"
            ),
        }
    }
}

impl std::error::Error for ProfileParseError {}

/// The cost-model constants in serialization order: one place defines the
/// JSON field set, so the writer and parser cannot drift apart.
const MODEL_FIELDS: [&str; 10] = [
    "seconds_per_madd",
    "parallel_speedup",
    "reorder_gain",
    "cluster_gain",
    "cluster_row_overhead",
    "cheap_reorder_per_nnz",
    "heavy_reorder_per_nnz",
    "fixed_cluster_per_nnz",
    "variable_cluster_per_nnz",
    "hierarchical_cluster_per_nnz",
];

fn model_field(model: &CostModel, name: &str) -> f64 {
    match name {
        "seconds_per_madd" => model.seconds_per_madd,
        "parallel_speedup" => model.parallel_speedup,
        "reorder_gain" => model.reorder_gain,
        "cluster_gain" => model.cluster_gain,
        "cluster_row_overhead" => model.cluster_row_overhead,
        "cheap_reorder_per_nnz" => model.cheap_reorder_per_nnz,
        "heavy_reorder_per_nnz" => model.heavy_reorder_per_nnz,
        "fixed_cluster_per_nnz" => model.fixed_cluster_per_nnz,
        "variable_cluster_per_nnz" => model.variable_cluster_per_nnz,
        "hierarchical_cluster_per_nnz" => model.hierarchical_cluster_per_nnz,
        _ => unreachable!("unknown model field {name}"),
    }
}

fn set_model_field(model: &mut CostModel, name: &str, v: f64) {
    match name {
        "seconds_per_madd" => model.seconds_per_madd = v,
        "parallel_speedup" => model.parallel_speedup = v,
        "reorder_gain" => model.reorder_gain = v,
        "cluster_gain" => model.cluster_gain = v,
        "cluster_row_overhead" => model.cluster_row_overhead = v,
        "cheap_reorder_per_nnz" => model.cheap_reorder_per_nnz = v,
        "heavy_reorder_per_nnz" => model.heavy_reorder_per_nnz = v,
        "fixed_cluster_per_nnz" => model.fixed_cluster_per_nnz = v,
        "variable_cluster_per_nnz" => model.variable_cluster_per_nnz = v,
        "hierarchical_cluster_per_nnz" => model.hierarchical_cluster_per_nnz = v,
        _ => unreachable!("unknown model field {name}"),
    }
}

impl CalibrationProfile {
    /// The fitted cost model (what [`crate::Planner::with_profile`]
    /// installs as the planner's pricing model).
    pub fn cost_model(&self) -> CostModel {
        self.model
    }

    /// Serializes the profile as pretty-printed JSON. Floats are written
    /// in Rust's shortest round-trip form, so
    /// [`CalibrationProfile::from_json`] recovers them bit-exactly.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        s.push_str(&format!("  \"fitted_from_samples\": {},\n", self.fitted_from_samples));
        s.push_str("  \"cost_model\": {\n");
        for (i, name) in MODEL_FIELDS.iter().enumerate() {
            let comma = if i + 1 < MODEL_FIELDS.len() { "," } else { "" };
            s.push_str(&format!("    \"{name}\": {:?}{comma}\n", model_field(&self.model, name)));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Parses a profile from JSON produced by [`CalibrationProfile::to_json`]
    /// (or hand-edited — unknown fields are rejected as schema errors to
    /// catch typos in checked-in profiles).
    pub fn from_json(text: &str) -> Result<CalibrationProfile, ProfileParseError> {
        let doc = json::parse(text).map_err(ProfileParseError::Json)?;
        let obj = |v: &JsonValue, what: &str| -> Result<(), ProfileParseError> {
            if v.as_object().is_some() {
                Ok(())
            } else {
                Err(ProfileParseError::Schema(format!("{what} must be an object")))
            }
        };
        obj(&doc, "document")?;
        let num = |v: Option<&JsonValue>, what: &str| -> Result<f64, ProfileParseError> {
            v.and_then(JsonValue::as_f64)
                .ok_or_else(|| ProfileParseError::Schema(format!("missing number `{what}`")))
        };
        let version = num(doc.get("schema_version"), "schema_version")? as u64;
        if version != PROFILE_SCHEMA_VERSION {
            return Err(ProfileParseError::Version(version));
        }
        let samples = num(doc.get("fitted_from_samples"), "fitted_from_samples")? as usize;

        let model_json = doc
            .get("cost_model")
            .ok_or_else(|| ProfileParseError::Schema("missing `cost_model`".into()))?;
        let fields = model_json
            .as_object()
            .ok_or_else(|| ProfileParseError::Schema("`cost_model` must be an object".into()))?;
        for (k, _) in fields {
            if !MODEL_FIELDS.contains(&k.as_str()) {
                return Err(ProfileParseError::Schema(format!("unknown cost_model field `{k}`")));
            }
        }
        let mut model = CostModel::default();
        for name in MODEL_FIELDS {
            set_model_field(&mut model, name, num(model_json.get(name), name)?);
        }

        Ok(CalibrationProfile { schema_version: version, fitted_from_samples: samples, model })
    }

    /// Writes the profile JSON to `path` (creating parent directories).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a profile from `path`.
    pub fn load(path: &Path) -> std::io::Result<CalibrationProfile> {
        let text = std::fs::read_to_string(path)?;
        CalibrationProfile::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// The preprocessing-cost class a plan's prep seconds are attributed to
/// (each maps to one linear-in-`nnz` [`CostModel`] constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrepClass {
    CheapReorder,
    HeavyReorder,
    FixedCluster,
    VariableCluster,
    HierarchicalCluster,
}

/// The prep classes `plan` pays for (0, 1, or 2 entries: reorder and/or
/// cluster construction).
fn prep_classes(plan: &Plan) -> Vec<PrepClass> {
    let mut classes = Vec::with_capacity(2);
    match plan.reorder {
        Reordering::Original => {}
        Reordering::Rcm | Reordering::Degree | Reordering::Gray | Reordering::Random => {
            classes.push(PrepClass::CheapReorder)
        }
        _ => classes.push(PrepClass::HeavyReorder),
    }
    match plan.clustering {
        ClusteringStrategy::None => {}
        ClusteringStrategy::Fixed(_) => classes.push(PrepClass::FixedCluster),
        ClusteringStrategy::Variable => classes.push(PrepClass::VariableCluster),
        ClusteringStrategy::Hierarchical => classes.push(PrepClass::HierarchicalCluster),
    }
    classes
}

/// Fits [`CostModel`] constants from [`CalibrationSample`]s.
///
/// The fit is deliberately closed-form (no iterative optimizer in the
/// offline container):
///
/// * **Preprocessing rates** — each per-`nnz` constant is a least-squares
///   line through the origin over the samples whose plan pays *only* that
///   prep class (mixed reorder+cluster samples are skipped: attributing a
///   summed observation would need a joint solve for little gain, since
///   the sweep measures single-class plans too).
/// * **Technique gains** — `reorder_gain` and `cluster_gain` from the
///   observed kernel *ratio* of each technique pipeline to the baseline
///   pipeline on the same operand and parallelism (scale-free, so they can
///   be fitted before the per-madd rate), regressed through the origin
///   against the advisor affinity / row-overlap term the model multiplies
///   them by.
/// * **Parallel speedup** — the geometric mean of serial ÷ parallel
///   observed kernel seconds over (operand, pipeline) pairs measured with
///   [`Plan::parallel`] both set and cleared.
/// * **Per-madd rate** — the model's kernel estimate is multiplicative, so
///   over every sample `log(observed)` minus `log(structural factor)` is
///   `log(seconds_per_madd)`: the rate is the exponential of the residuals'
///   mean.
///
/// ```
/// use cw_engine::Calibrator;
///
/// let calibrator = Calibrator::new();
/// assert!(calibrator.is_empty());
/// let profile = calibrator.fit(); // no samples: uncalibrated defaults
/// assert_eq!(profile.fitted_from_samples, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Calibrator {
    samples: Vec<CalibrationSample>,
    base: CostModel,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Empty calibrator over the default structural constants.
    pub fn new() -> Calibrator {
        Calibrator { samples: Vec::new(), base: CostModel::default() }
    }

    /// Adds one measured sample. Non-finite or non-positive kernel
    /// observations are rejected (dropped) — a zero-second timing carries
    /// no information and would blow up the log-space fit.
    pub fn push(&mut self, sample: CalibrationSample) {
        if sample.kernel_seconds.is_finite()
            && sample.kernel_seconds > 0.0
            && sample.prep_seconds.is_finite()
            && sample.prep_seconds >= 0.0
        {
            self.samples.push(sample);
        }
    }

    /// Adds many samples (same filtering as [`Calibrator::push`]).
    pub fn extend<I: IntoIterator<Item = CalibrationSample>>(&mut self, samples: I) {
        for s in samples {
            self.push(s);
        }
    }

    /// Samples accepted so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample was accepted.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The accepted samples.
    pub fn samples(&self) -> &[CalibrationSample] {
        &self.samples
    }

    /// Fits a [`CalibrationProfile`] from the accepted samples. Constants
    /// without supporting samples keep their hand-tuned defaults, so a
    /// partial sweep degrades gracefully to a partially calibrated model.
    pub fn fit(&self) -> CalibrationProfile {
        let mut model = self.base;

        // --- Preprocessing rates: per-class LSQ through the origin. ---
        // prep ≈ k · nnz  ⇒  k = Σ(prep·nnz) / Σ(nnz²).
        let mut sums: Vec<(PrepClass, f64, f64)> = Vec::new();
        for s in &self.samples {
            let classes = prep_classes(&s.plan);
            if classes.len() != 1 || s.prep_seconds <= 0.0 {
                continue;
            }
            let nnz = s.features.nnz as f64;
            let entry = match sums.iter_mut().find(|(c, _, _)| *c == classes[0]) {
                Some(e) => e,
                None => {
                    sums.push((classes[0], 0.0, 0.0));
                    sums.last_mut().expect("just pushed")
                }
            };
            entry.1 += s.prep_seconds * nnz;
            entry.2 += nnz * nnz;
        }
        for (class, num, den) in sums {
            if den <= 0.0 {
                continue;
            }
            let k = num / den;
            match class {
                PrepClass::CheapReorder => model.cheap_reorder_per_nnz = k,
                PrepClass::HeavyReorder => model.heavy_reorder_per_nnz = k,
                PrepClass::FixedCluster => model.fixed_cluster_per_nnz = k,
                PrepClass::VariableCluster => model.variable_cluster_per_nnz = k,
                PrepClass::HierarchicalCluster => model.hierarchical_cluster_per_nnz = k,
            }
        }

        // --- Technique gains: ratio fits against the baseline pipeline. ---
        // kernel(reordered) = kernel(baseline) · (1 − reorder_gain · affinity)
        // is scale-free: the per-madd rate cancels in the observed ratio,
        // so the gains can be fitted before it. Pairs match on operand,
        // accumulator, and parallelism.
        let is_baseline = |p: &Plan| !p.has_preprocessing();
        let op_key = |s: &CalibrationSample| {
            (s.features.nrows, s.features.ncols, s.features.nnz, s.plan.acc, s.plan.parallel)
        };
        let baseline_for = |s: &CalibrationSample| {
            self.samples
                .iter()
                .find(|b| is_baseline(&b.plan) && op_key(b) == op_key(s) && b.kernel_seconds > 0.0)
        };
        let (mut rnum, mut rden) = (0.0f64, 0.0f64);
        let (mut cnum, mut cden) = (0.0f64, 0.0f64);
        for s in &self.samples {
            let Some(b) = baseline_for(s) else { continue };
            let a = s.affinity.clamp(0.0, 1.0);
            if let Some(overlap) = cluster_overlap(&s.features, &s.plan, a) {
                // Subtract the modeled per-row bookkeeping before reading
                // off the multiplicative gain.
                let adjusted = (s.kernel_seconds
                    - self.base.cluster_row_overhead * s.features.nrows as f64)
                    / b.kernel_seconds;
                cnum += (1.0 - adjusted) * overlap;
                cden += overlap * overlap;
            } else if s.plan.reorder != Reordering::Original {
                rnum += (1.0 - s.kernel_seconds / b.kernel_seconds) * a;
                rden += a * a;
            }
        }
        if rden > 0.0 {
            model.reorder_gain = (rnum / rden).clamp(0.0, 0.95);
        }
        if cden > 0.0 {
            model.cluster_gain = (cnum / cden).clamp(0.0, 0.95);
        }

        // --- Parallel speedup: geomean over serial/parallel pairs. ---
        // Pair key: same operand (nrows, ncols, nnz) and same plan modulo
        // `parallel`.
        let pair_key = |s: &CalibrationSample| {
            let plan = Plan { parallel: true, ..s.plan };
            (s.features.nrows, s.features.ncols, s.features.nnz, plan)
        };
        let mut log_speedups = Vec::new();
        for s in self.samples.iter().filter(|s| s.plan.parallel) {
            for t in self.samples.iter().filter(|t| !t.plan.parallel) {
                if pair_key(t) == pair_key(s) && t.kernel_seconds > 0.0 {
                    log_speedups.push((t.kernel_seconds / s.kernel_seconds).ln());
                }
            }
        }
        if !log_speedups.is_empty() {
            let mean = log_speedups.iter().sum::<f64>() / log_speedups.len() as f64;
            model.parallel_speedup = mean.exp().max(1.0);
        }

        // --- Per-madd rate (log space). ---
        // With seconds_per_madd = 1 the model's kernel estimate is the
        // structural factor X, and log(observed) − log(X) = log(s). Every
        // sample enters: X already divides a parallel plan by the speedup
        // fitted above and prices a serial one without it.
        let mut unit = model;
        unit.seconds_per_madd = 1.0;
        unit.cluster_row_overhead = 0.0; // additive term excluded from the log fit
        let residuals: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| {
                let x = unit.estimate(&s.features, &s.plan, s.affinity).kernel_seconds;
                (x > 0.0).then(|| (s.kernel_seconds / x).ln())
            })
            .collect();
        if !residuals.is_empty() {
            model.seconds_per_madd = (residuals.iter().sum::<f64>() / residuals.len() as f64).exp();
        }

        CalibrationProfile {
            schema_version: PROFILE_SCHEMA_VERSION,
            fitted_from_samples: self.samples.len(),
            model,
        }
    }
}

/// Median of `xs` (0 when empty); the robust aggregate the `calibrate`
/// experiment uses for prediction-error summaries.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Relative kernel-prediction errors `|predicted − observed| / observed`
/// of `profile` over `samples`. Pair with [`median`] for the held-out
/// error summary.
pub fn prediction_errors(profile: &CalibrationProfile, samples: &[CalibrationSample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kernel_seconds > 0.0)
        .map(|s| {
            let predicted = profile.model.estimate(&s.features, &s.plan, s.affinity);
            (predicted.kernel_seconds - s.kernel_seconds).abs() / s.kernel_seconds
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use cw_reorder::advisor::Profile;

    fn features(nrows: usize, ncols: usize, nnz: usize) -> OperandFeatures {
        OperandFeatures {
            nrows,
            ncols,
            nnz,
            profile: Profile {
                degree_skew: 1.5,
                relative_bandwidth: 0.2,
                consecutive_jaccard: 0.4,
                avg_row_nnz: nnz as f64 / nrows.max(1) as f64,
            },
        }
    }

    /// Samples generated *from* a known model, so the fit has exact ground
    /// truth to recover (no timing noise).
    fn synthetic_samples(truth: &CalibrationProfile) -> Vec<CalibrationSample> {
        let mut samples = Vec::new();
        let operands = [
            features(500, 500, 4000),
            features(1200, 1200, 9000),
            features(2000, 2000, 30_000),
            features(800, 2000, 12_000),
        ];
        let pipelines = [
            Plan::baseline(),
            Plan { reorder: Reordering::Rcm, ..Plan::baseline() },
            Plan { reorder: Reordering::Gp(16), ..Plan::baseline() },
            Plan { clustering: ClusteringStrategy::Variable, ..Plan::baseline() },
            Plan { clustering: ClusteringStrategy::Hierarchical, ..Plan::baseline() },
        ];
        for f in operands {
            for p in pipelines {
                for parallel in [true, false] {
                    let plan = Plan { parallel, ..p };
                    let est = truth.model.estimate(&f, &plan, 0.4);
                    samples.push(CalibrationSample {
                        features: f,
                        plan,
                        affinity: 0.4,
                        prep_seconds: est.prep_seconds,
                        kernel_seconds: est.kernel_seconds,
                    });
                }
            }
        }
        samples
    }

    #[test]
    fn fit_recovers_a_known_model_from_noiseless_samples() {
        let mut truth = CalibrationProfile::default();
        // A machine 20× slower than the hand-tuned guess, with a different
        // parallel speedup.
        truth.model.seconds_per_madd = 30e-9;
        truth.model.parallel_speedup = 6.0;
        truth.model.cheap_reorder_per_nnz = 40e-9;
        truth.model.variable_cluster_per_nnz = 80e-9;
        // The additive cluster-row overhead is excluded from the log fit;
        // zero it in the ground truth so recovery is exact.
        truth.model.cluster_row_overhead = 0.0;

        let mut cal = Calibrator::new();
        cal.extend(synthetic_samples(&truth));
        let fitted = cal.fit();
        assert_eq!(fitted.fitted_from_samples, cal.len());

        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
        assert!(rel(fitted.model.seconds_per_madd, truth.model.seconds_per_madd) < 0.05);
        assert!(rel(fitted.model.parallel_speedup, truth.model.parallel_speedup) < 0.05);
        assert!(rel(fitted.model.cheap_reorder_per_nnz, truth.model.cheap_reorder_per_nnz) < 0.05);
        assert!(
            rel(fitted.model.variable_cluster_per_nnz, truth.model.variable_cluster_per_nnz) < 0.05
        );
        // And the fitted profile predicts the ground-truth timings far
        // better than the hand-tuned defaults.
        let samples = synthetic_samples(&truth);
        let fitted_err = median(&prediction_errors(&fitted, &samples));
        let default_err = median(&prediction_errors(&CalibrationProfile::default(), &samples));
        assert!(
            fitted_err < 0.05 && fitted_err < default_err,
            "fitted {fitted_err} vs default {default_err}"
        );
    }

    #[test]
    fn empty_fit_degrades_to_defaults() {
        let profile = Calibrator::new().fit();
        assert_eq!(profile.fitted_from_samples, 0);
        assert_eq!(profile.model, CostModel::default());
    }

    #[test]
    fn degenerate_samples_are_rejected() {
        let mut cal = Calibrator::new();
        let f = features(100, 100, 500);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            cal.push(CalibrationSample {
                features: f,
                plan: Plan::baseline(),
                affinity: 0.0,
                prep_seconds: 0.0,
                kernel_seconds: bad,
            });
        }
        cal.push(CalibrationSample {
            features: f,
            plan: Plan::baseline(),
            affinity: 0.0,
            prep_seconds: f64::NAN,
            kernel_seconds: 1.0,
        });
        assert!(cal.is_empty());
    }

    #[test]
    fn profile_json_round_trips_bit_exactly() {
        let mut cal = Calibrator::new();
        let mut truth = CalibrationProfile::default();
        truth.model.seconds_per_madd = 12.5e-9;
        cal.extend(synthetic_samples(&truth));
        let profile = cal.fit();
        let parsed = CalibrationProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(parsed, profile, "every fitted constant must survive the round trip");
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(matches!(
            CalibrationProfile::from_json("not json"),
            Err(ProfileParseError::Json(_))
        ));
        assert!(matches!(CalibrationProfile::from_json("{}"), Err(ProfileParseError::Schema(_))));
        let wrong_version = CalibrationProfile::default()
            .to_json()
            .replace("\"schema_version\": 3", "\"schema_version\": 2");
        let rejected = CalibrationProfile::from_json(&wrong_version).unwrap_err();
        assert_eq!(rejected, ProfileParseError::Version(2));
        assert!(rejected.to_string().contains("paper calibrate"), "{rejected}");
        let unknown_field = CalibrationProfile::default()
            .to_json()
            .replace("\"seconds_per_madd\"", "\"seconds_per_mad\"");
        assert!(matches!(
            CalibrationProfile::from_json(&unknown_field),
            Err(ProfileParseError::Schema(_))
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let profile = CalibrationProfile::default();
        let dir = std::env::temp_dir().join("cw_calibrate_test");
        let path = dir.join("profile.json");
        profile.save(&path).unwrap();
        assert_eq!(CalibrationProfile::load(&path).unwrap(), profile);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn median_is_robust() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 100.0, 2.0]), 2.0);
    }
}
