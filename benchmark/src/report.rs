//! Output: the result line the harness reads, the run header, run files,
//! and the comparison of two run files against `BENCHMARK.json`'s bounds.

use crate::run::Metric;
use crate::stats::{median, quartiles, spread};
use cw_engine::calibrate::json::{self, JsonValue};
use std::fmt::Write as _;
use std::process::Command;

/// One run of one workload, as written to and read back from run files.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    pub fn new(
        workload: &str,
        trace: bool,
        seed: u64,
        attempted: u64,
        failed: u64,
        metrics: &[Metric],
    ) -> Record {
        Record {
            workload: workload.to_string(),
            trace,
            seed,
            correct: failed == 0,
            attempted,
            failed,
            metrics: metrics.iter().map(|(n, v, u)| (n.clone(), *v, u.to_string())).collect(),
        }
    }

    /// The `{"correct", "attempted", "failed", "metrics"}` object the harness
    /// reads from the last line of standard output. Values keep every digit
    /// (Rust prints the shortest string that round-trips the `f64`).
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                json::escape(name),
                json::escape(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The result line's fields plus which run it was.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},{}",
            json::escape(&self.workload),
            u8::from(self.trace),
            self.seed,
            &self.result_line()[1..]
        )
    }

    pub fn from_json(v: &JsonValue) -> Result<Record, String> {
        let num = |key: &str| {
            v.get(key).and_then(JsonValue::as_f64).ok_or(format!("run record lacks `{key}`"))
        };
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("run record lacks `metrics`")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(JsonValue::as_f64);
                let unit = m.get("unit").and_then(JsonValue::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric `{name}` lacks a value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Record {
            workload: v
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or("run record lacks `workload`")?
                .to_string(),
            trace: num("trace")? != 0.0,
            seed: num("seed")? as u64,
            correct: matches!(v.get("correct"), Some(JsonValue::Bool(true))),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size"))
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The run header: what was run, on what, at which sizes. `operands` and
/// `counts` are the JSON fragments the run itself produced.
pub fn header_json(seed: u64, seconds: f64, smoke: bool, operands: &str, counts: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"smoke\":{smoke},\"git_commit\":\"{}\",\
         \"rustc\":\"{}\",\"nproc\":{nproc},\"pool_width\":{},\"l2\":\"{}\",\"l3\":\"{}\",\
         \"operands\":{operands},\"op_counts\":{counts}}}",
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        json::escape(&command_line("rustc", &["-V"])),
        rayon::current_num_threads(),
        json::escape(&cache_size(2)),
        json::escape(&cache_size(3)),
    )
}

/// Direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark reads back.
#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
}

impl Contract {
    /// Reads `BENCHMARK.json` from here (the repo root) or one directory up
    /// (the package's own test runs from `benchmark/`).
    pub fn load() -> Result<Contract, String> {
        let candidates = ["BENCHMARK.json", "../BENCHMARK.json"];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .ok_or(format!("cannot read any of {candidates:?}"))?;
        let doc = json::parse(&text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("BENCHMARK.json lacks `{key}`"))
        };
        let text_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json entry lacks `{key}`"))
        };
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: text_of(m, "name")?,
                    better: match text_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("unknown direction `{other}`")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(JsonValue::as_f64)
                        .ok_or("BENCHMARK.json end-to-end metric lacks `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json lacks `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end,
        })
    }
}

/// Writes a run file: `{"header": .., "runs": [..]}`.
pub fn write_run_file(path: &str, header: &str, records: &[Record]) -> Result<(), String> {
    let runs: Vec<String> = records.iter().map(Record::to_json).collect();
    let body = format!("{{\"header\":{header},\n\"runs\":[\n{}\n]}}\n", runs.join(",\n"));
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))
}

/// Reads the records of a run file.
pub fn read_run_file(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .ok_or(format!("{path}: no `runs` array"))?
        .iter()
        .map(Record::from_json)
        .collect()
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metric(metric))
        .collect()
}

/// Per (workload, end-to-end metric): median, quartiles and run-to-run
/// spread of a set of runs beside the bound — the measured noise floor.
pub fn noise_table(records: &[Record], contract: &Contract) -> String {
    let mut out = format!(
        "{:<16} {:<12} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}\n",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for workload in &contract.workloads {
        for m in &contract.end_to_end {
            let v = values(records, workload, &m.name);
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&v);
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>8.4} {:>6.2}",
                workload,
                m.name,
                v.len(),
                median(&v),
                q1,
                q3,
                spread(&v),
                m.bound
            );
        }
    }
    out
}

/// Compares run file `b` against base `a`: both medians and quartiles, the
/// ratio b ÷ a, the bound, and a verdict per (workload, metric). Returns the
/// table and whether anything is `worse`.
pub fn compare(a: &[Record], b: &[Record], contract: &Contract) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<12} {:>30} {:>30} {:>9} {:>6}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "new/base", "bound"
    );
    let mut any_worse = false;
    for workload in &contract.workloads {
        for m in &contract.end_to_end {
            let (va, vb) = (values(a, workload, &m.name), values(b, workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound;
            let (ma, mb) = (median(&va), median(&vb));
            let worsening = match m.better {
                Better::Lower => mb / ma - 1.0,
                Better::Higher => ma / mb - 1.0,
            };
            // A spread wider than the bound cannot resolve a change of the
            // bound's size either way.
            let verdict = if spread(&va) > bound || spread(&vb) > bound {
                "unresolved"
            } else if worsening > bound {
                any_worse = true;
                "worse"
            } else {
                "same"
            };
            let cell = |v: &[f64], med: f64| {
                let (q1, q3) = quartiles(v);
                format!("{med:.6} [{q1:.6}, {q3:.6}]")
            };
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>30} {:>30} {:>9.4} {:>6.2}  {verdict}",
                workload,
                m.name,
                cell(&va, ma),
                cell(&vb, mb),
                mb / ma,
                bound
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(values: &[f64]) -> Vec<Record> {
        values
            .iter()
            .map(|&v| Record::new("w", false, 1, 1, 0, &[("op_p50_s".to_string(), v, "s")]))
            .collect()
    }

    fn contract() -> Contract {
        Contract {
            run_seconds: 1.0,
            workloads: vec!["w".to_string()],
            end_to_end: vec![Declared {
                name: "op_p50_s".to_string(),
                better: Better::Lower,
                bound: 0.10,
            }],
        }
    }

    #[test]
    fn compare_tells_worse_from_same_from_unresolved() {
        let base = records(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let (table, worse) = compare(&base, &records(&[1.20, 1.21, 1.19, 1.20, 1.22]), &contract());
        assert!(worse && table.contains("worse"), "{table}");
        let (table, worse) = compare(&base, &records(&[1.05, 1.04, 1.06, 1.05, 1.05]), &contract());
        assert!(!worse && table.contains("same"), "{table}");
        let (table, worse) = compare(&base, &records(&[0.9, 1.5, 1.1, 1.9, 1.3]), &contract());
        assert!(!worse && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn records_round_trip_through_a_run_file_line() {
        let r = Record::new("w", true, 7, 12, 1, &[("a.b_c-d".to_string(), 0.1 + 0.2, "1/s")]);
        let back = Record::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!((back.workload.as_str(), back.trace, back.seed), ("w", true, 7));
        assert_eq!((back.correct, back.attempted, back.failed), (false, 12, 1));
        assert_eq!(back.metrics, vec![("a.b_c-d".to_string(), 0.1 + 0.2, "1/s".to_string())]);
    }
}
