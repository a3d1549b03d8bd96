//! `perf_gate` — checks freshly emitted `BENCH_*.json` reports against the
//! pinned bounds in a checked-in baseline.
//!
//! ```text
//! perf_gate --current DIR --baseline FILE
//! ```
//!
//! The gate contract (documented in `docs/ARCHITECTURE.md`): every entry of
//! the baseline file is a **pinned bound** — a ceiling (`direction: lower`)
//! or floor (`direction: higher`) on the metric of the same experiment and
//! name in the current run, compared absolutely. The bounds are policies,
//! not past measurements: the obs tracing-overhead fraction
//! (`bounded_obs_overhead_frac`) and the wire-vs-in-process latency ratio
//! (`bounded_wire_overhead_ratio`). A baseline metric missing from the
//! current run fails (metric names are the keys and must stay stable).
//!
//! Timing regressions are not judged here: the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`) compares parent and change on operands
//! large enough to measure, and the calibration quality bars are asserted
//! in `tests/calibration.rs`.

use cw_bench::report::{Direction, BENCH_JSON_SCHEMA_VERSION};
use cw_engine::calibrate::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One metric with its owning experiment.
#[derive(Debug, Clone)]
struct Entry {
    experiment: String,
    name: String,
    value: f64,
    direction: Direction,
}

fn usage() -> ! {
    eprintln!("usage: perf_gate --current DIR --baseline FILE");
    std::process::exit(2)
}

fn parse_doc(text: &str, what: &str) -> Result<JsonValue, String> {
    let doc = json::parse(text).map_err(|e| format!("{what}: {e}"))?;
    let version = doc.get("schema_version").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    if version != BENCH_JSON_SCHEMA_VERSION {
        return Err(format!(
            "{what}: schema_version {version} (this build reads {BENCH_JSON_SCHEMA_VERSION})"
        ));
    }
    Ok(doc)
}

/// Reads every `BENCH_*.json` in `dir` into a flat entry list.
fn read_current(dir: &Path) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|f| f.ok().map(|f| f.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json found in {}", dir.display()));
    }
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let doc = parse_doc(&text, &path.display().to_string())?;
        let experiment = doc
            .get("experiment")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: missing experiment", path.display()))?
            .to_string();
        for m in doc.get("metrics").and_then(JsonValue::as_array).unwrap_or(&[]) {
            entries.push(parse_metric(m, &experiment)?);
        }
    }
    Ok(entries)
}

fn parse_metric(m: &JsonValue, experiment: &str) -> Result<Entry, String> {
    let name = m.get("name").and_then(JsonValue::as_str).ok_or("metric missing name")?.to_string();
    let value =
        m.get("value").and_then(JsonValue::as_f64).ok_or_else(|| format!("{name}: no value"))?;
    let direction = m
        .get("direction")
        .and_then(JsonValue::as_str)
        .and_then(Direction::parse)
        .ok_or_else(|| format!("{name}: bad direction"))?;
    let experiment =
        m.get("experiment").and_then(JsonValue::as_str).unwrap_or(experiment).to_string();
    Ok(Entry { experiment, name, value, direction })
}

/// Reads a merged baseline file.
fn read_baseline(path: &Path) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_doc(&text, &path.display().to_string())?;
    let mut entries = Vec::new();
    for m in doc.get("metrics").and_then(JsonValue::as_array).unwrap_or(&[]) {
        entries.push(parse_metric(m, "")?);
    }
    Ok(entries)
}

fn find<'a>(entries: &'a [Entry], experiment: &str, name: &str) -> Option<&'a Entry> {
    entries.iter().find(|e| e.experiment == experiment && e.name == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut current_dir: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(PathBuf::from);
        match args[i].as_str() {
            "--current" => current_dir = value,
            "--baseline" => baseline_path = value,
            _ => usage(),
        }
        i += 2;
    }
    let (Some(current_dir), Some(baseline_path)) = (current_dir, baseline_path) else { usage() };

    let (current, baseline) = match (read_current(&current_dir), read_baseline(&baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[perf-gate] {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    println!("[perf-gate] {} pinned bounds vs {} current metrics", baseline.len(), current.len());
    for b in &baseline {
        let Some(c) = find(&current, &b.experiment, &b.name) else {
            println!("  FAIL {}/{}: missing from current run", b.experiment, b.name);
            failures += 1;
            continue;
        };
        let ok = match b.direction {
            Direction::LowerIsBetter => c.value <= b.value,
            Direction::HigherIsBetter => c.value >= b.value,
        };
        if ok {
            println!(
                "  ok   {}/{}: {:.6} within pinned bound {:.6}",
                b.experiment, b.name, c.value, b.value
            );
        } else {
            println!(
                "  FAIL {}/{}: {:.6} violates pinned bound {:.6}",
                b.experiment, b.name, c.value, b.value
            );
            failures += 1;
        }
    }
    println!("[perf-gate] {failures} failure(s)");
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
