//! The repo benchmark. See `README.md` for the metric glossary, the
//! workloads and why they exist, and how to run and compare.

mod doors;
mod layers;
mod reference;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use cw_engine::calibrate::json;
use report::{Contract, Record};
use std::process::{Command, ExitCode, Stdio};
use workload::Scale;

const USAGE: &str = "\
usage:
  cw-benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
      one run of one workload in this process; the last line of standard
      output is {\"correct\", \"attempted\", \"failed\", \"metrics\"}
  cw-benchmark [--seed <u64>] [--workload <name>] [--trace] [--repeat <n>] [--out <file>]
      every workload (or the named one), each run in a child process;
      --trace adds the traced run, --repeat n runs seeds seed..seed+n-1 and
      prints the run-to-run spread beside each bound
  cw-benchmark --compare <base.json> <new.json>
      compare two run files against the bounds in BENCHMARK.json
options:
  --smoke            operands / 10, sub-second windows (the package's own test)
  --seconds <s>      measured window per run (default: run_seconds of BENCHMARK.json)
  --out-dir <dir>    where spans and run files go (default benchmark/out)
workloads: cluster-mesh masked-powerlaw service-small wire-large";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: Option<String>,
    out_dir: Option<String>,
    compare: Option<(String, String)>,
    /// Test hook: flip one oracle value, so every product reads as wrong.
    corrupt_oracle: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { seed: 1, ..Args::default() };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            "--out" => args.out = Some(value("a file")?),
            "--out-dir" => args.out_dir = Some(value("a directory")?),
            "--compare" => args.compare = Some((value("two run files")?, value("two run files")?)),
            "--smoke" => args.smoke = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            // `--trace` alone, or `--trace 0|1` as the harness passes it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn out_dir(&self) -> String {
        self.out_dir.clone().unwrap_or_else(|| "benchmark/out".to_string())
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or_else(|| {
            if self.smoke {
                0.4
            } else {
                Contract::load().map_or(20.0, |c| c.run_seconds)
            }
        })
    }
}

/// One run of one workload in this process.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = workload::spec(name).ok_or(format!("unknown workload `{name}`\n{USAGE}"))?;
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };
    let seconds = args.seconds();
    let outcome = if args.trace {
        layers::layers(&spec, args.seed, seconds, scale)?
    } else {
        run::end_to_end(&spec, args.seed, seconds, scale, args.corrupt_oracle)?
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{}: metric {name} is not finite ({value})", spec.name));
    }
    let record = Record::new(
        spec.name,
        args.trace,
        args.seed,
        outcome.tally.attempted,
        outcome.tally.failed,
        &outcome.metrics,
    );
    let header =
        report::header_json(args.seed, seconds, args.smoke, &outcome.operands, &outcome.counts);
    if let Some(spans) = &outcome.spans {
        let dir = args.out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
        let path = format!("{dir}/{}.spans.jsonl", spec.name);
        std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        report::write_run_file(path, &header, std::slice::from_ref(&record))?;
    }
    for (name, value, unit) in &record.metrics {
        println!("{:<16} {name:<30} {value:>16.6} {unit}", spec.name);
    }
    println!("{{\"header\":{header}}}");
    println!("{}", record.result_line());
    Ok(record.correct)
}

/// Every requested workload × seed (× traced), each in a child process, so
/// peak memory and allocator state are per run.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => workload::NAMES.iter().map(|s| s.to_string()).collect(),
    };
    let seconds = args.seconds();
    let (mut records, mut header, mut all_correct) = (Vec::new(), None, true);
    for seed in (0..args.repeat.unwrap_or(1) as u64).map(|i| args.seed + i) {
        for name in &names {
            for trace in [false, true].into_iter().filter(|&t| args.trace || !t) {
                eprintln!("benchmark: {name} seed {seed} trace {}", u8::from(trace));
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(["--out-dir", &args.out_dir()])
                    .stderr(Stdio::inherit());
                if args.smoke {
                    child.arg("--smoke");
                }
                let output = child.output().map_err(|e| format!("spawn child: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let mut lines = stdout.lines().rev();
                let result = lines.next().filter(|l| l.starts_with("{\"correct\""));
                let Some(result) = result else {
                    return Err(format!("{name}: child printed no result ({})", output.status));
                };
                if header.is_none() {
                    header = lines
                        .next()
                        .and_then(|l| l.strip_prefix("{\"header\":"))
                        .and_then(|l| l.strip_suffix('}'))
                        .map(str::to_string);
                }
                let text = format!(
                    "{{\"workload\":\"{name}\",\"trace\":{},\"seed\":{seed},{}",
                    u8::from(trace),
                    &result[1..]
                );
                let record = Record::from_json(&json::parse(&text)?)?;
                all_correct &= record.correct && output.status.success();
                records.push(record);
            }
        }
    }
    let path = args.out.clone().unwrap_or_else(|| format!("{}/runs.json", args.out_dir()));
    report::write_run_file(&path, header.as_deref().unwrap_or("null"), &records)?;
    for r in &records {
        for (name, value, unit) in &r.metrics {
            println!("{:<16} seed {:<4} {name:<30} {value:>16.6} {unit}", r.workload, r.seed);
        }
    }
    if let Ok(contract) = Contract::load() {
        println!("\nrun-to-run spread (q3 - q1) / median beside each bound:");
        print!("{}", report::noise_table(&records, &contract));
    }
    println!("run file: {path}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((base, new)) = &args.compare {
        Contract::load().and_then(|contract| {
            let (a, b) = (report::read_run_file(base)?, report::read_run_file(new)?);
            let (table, any_worse) = report::compare(&a, &b, &contract);
            print!("{table}");
            Ok(!any_worse)
        })
    } else {
        match (&args.workload, args.repeat) {
            (Some(name), None) => run_one(&args, name),
            _ => run_children(&args),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
