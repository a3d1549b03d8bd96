//! `paper` — regenerates the paper's figures and tables.
//!
//! ```text
//! paper <fig2|fig3|fig8|fig9|fig10|fig11|table2|table3|table4|ablation|calibrate|engine|net|planner|serving|all>
//!       [--scale small|medium|large] [--subset N] [--reps N]
//!       [--seed N] [--out DIR]
//! ```
//!
//! Markdown is printed to stdout and written (plus per-table CSVs) into the
//! output directory (default `results/`).

use cw_bench::report::Report;
use cw_bench::runner::RunConfig;
use cw_datasets::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: paper <fig2|fig3|fig8|fig9|fig10|fig11|table2|table3|table4|ablation|calibrate|engine|net|planner|serving|all>\n\
         \x20      [--scale small|medium|large] [--subset N] [--reps N] [--seed N] [--out DIR]"
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

    let run_one = |name: &str, cfg: &RunConfig| -> Option<Report> {
        let t0 = std::time::Instant::now();
        let rep = match name {
            "fig2" => cw_bench::experiments::fig2::run(cfg),
            "fig3" => cw_bench::experiments::fig3::run(cfg),
            "fig8" => cw_bench::experiments::fig8::run(cfg),
            "fig9" => cw_bench::experiments::fig9::run(cfg),
            "fig10" => cw_bench::experiments::fig10::run(cfg),
            "fig11" => cw_bench::experiments::fig11::run(cfg),
            "table2" => cw_bench::experiments::table2::run(cfg),
            "table3" => cw_bench::experiments::table3::run(cfg),
            "table4" => cw_bench::experiments::table4::run(cfg),
            "ablation" => cw_bench::experiments::ablation::run(cfg),
            "calibrate" => cw_bench::experiments::calibrate::run(cfg),
            "corpus" => cw_bench::experiments::corpus::run(cfg),
            "engine" => cw_bench::experiments::engine::run(cfg),
            "net" => cw_bench::experiments::net::run(cfg),
            "planner" => cw_bench::experiments::planner::run(cfg),
            "serving" => cw_bench::experiments::serving::run(cfg),
            "summary" => cw_bench::experiments::summary::run(cfg),
            _ => return None,
        };
        eprintln!("[paper] {name} finished in {:.1}s", t0.elapsed().as_secs_f64());
        Some(rep)
    };

    let targets: Vec<&str> = if target == "all" {
        vec!["fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "table2", "table3", "table4"]
    } else {
        vec![target.as_str()]
    };

    for name in targets {
        match run_one(name, &cfg) {
            Some(rep) => {
                println!("{}", rep.to_markdown());
                if let Err(e) = rep.write_to(&out_dir) {
                    eprintln!("[paper] failed to write {name} results: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => usage(),
        }
    }
    ExitCode::SUCCESS
}
