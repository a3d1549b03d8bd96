//! `paper` — regenerates the paper's figures and tables.
//!
//! ```text
//! paper <TARGET|all> [--scale small|medium|large] [--subset N] [--reps N]
//!       [--seed N] [--out DIR]
//! ```
//!
//! `TARGET` is a name from the [`TARGETS`] table (`paper` with no arguments
//! prints them); `all` runs the paper's own figures and tables, `fig2`
//! through `table4`. Markdown is printed to stdout and written (plus
//! per-table CSVs) into the output directory (default `results/`).

use cw_bench::experiments as ex;
use cw_bench::report::Report;
use cw_bench::runner::RunConfig;
use cw_datasets::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

/// One runnable target: its name on the command line and its experiment.
type Target = (&'static str, fn(&RunConfig) -> Report);

/// Every target, by name: the one list behind both the dispatch and the
/// usage message. `all` runs the first [`PAPER_TARGETS`] of them.
const TARGETS: [Target; 13] = [
    ("fig2", ex::fig2::run),
    ("fig3", ex::fig3::run),
    ("fig8", ex::fig8::run),
    ("fig9", ex::fig9::run),
    ("fig10", ex::fig10::run),
    ("fig11", ex::fig11::run),
    ("table2", ex::table2::run),
    ("table3", ex::table3::run),
    ("table4", ex::table4::run),
    ("ablation", ex::ablation::run),
    ("calibrate", ex::calibrate::run),
    ("corpus", ex::corpus::run),
    ("summary", ex::summary::run),
];

/// The leading entries of [`TARGETS`] that reproduce the paper itself.
const PAPER_TARGETS: usize = 9;

/// The targets a command-line name runs: `all` is the paper's own, any
/// other name its one entry, an unknown name nothing.
fn resolve(target: &str) -> &'static [Target] {
    if target == "all" {
        return &TARGETS[..PAPER_TARGETS];
    }
    match TARGETS.iter().position(|(name, _)| *name == target) {
        Some(i) => &TARGETS[i..=i],
        None => &[],
    }
}

fn usage() -> ! {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: paper <{}|all>\n\
         \x20      [--scale small|medium|large] [--subset N] [--reps N] [--seed N] [--out DIR]",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let target = args[0].clone();
    let mut cfg = RunConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args.get(i).and_then(|s| Scale::parse(s)).unwrap_or_else(|| usage());
            }
            "--subset" => {
                i += 1;
                cfg.subset =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--reps" => {
                i += 1;
                cfg.reps = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cfg.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    let targets = resolve(&target);
    if targets.is_empty() {
        usage();
    }

    for (name, run) in targets {
        let t0 = std::time::Instant::now();
        let rep = run(&cfg);
        eprintln!("[paper] {name} finished in {:.1}s", t0.elapsed().as_secs_f64());
        println!("{}", rep.to_markdown());
        if let Err(e) = rep.write_to(&out_dir) {
            eprintln!("[paper] failed to write {name} results: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(targets: &[Target]) -> Vec<&'static str> {
        targets.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn targets_are_unique_and_all_is_the_papers_nine_in_order() {
        let all = names(&TARGETS);
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "duplicate target {name}");
            assert_eq!(names(resolve(name)), [*name]);
        }
        assert_eq!(
            names(resolve("all")),
            ["fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "table2", "table3", "table4"]
        );
        // Retired with the system experiments; the repo benchmark measures
        // those layers now.
        for retired in ["engine", "planner", "serving", "net"] {
            assert!(resolve(retired).is_empty(), "{retired} still resolves");
        }
    }
}
