//! `cw-serve` — serve SpGEMM traffic over the `CWNP` wire protocol.
//!
//! Binds a [`cw_net::NetServer`] over a fresh
//! [`cw_service::SpgemmService`], prints the bound address (parsed by
//! tests and the bench harness when `--addr` uses port 0), and runs until
//! a SHUTDOWN frame arrives. At exit the service's JSONL observability
//! export — including the `net.*` wire metrics — is written to `--obs-out`
//! when given.
//!
//! ```text
//! cw-serve [--addr HOST:PORT] [--shards N] [--queue-capacity N]
//!          [--max-connections N] [--low-watermark N] [--seed N]
//!          [--tracing] [--obs-out PATH]
//! ```
//!
//! A request that finds its shard idle is served at once; requests queued
//! behind a busy shard are served in arrival order. The kernels' pool
//! width is the process's (`RAYON_NUM_THREADS`).

use cw_net::{NetServer, NetServerConfig};
use cw_service::{ServiceConfig, SpgemmService};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: cw-serve [--addr HOST:PORT] [--shards N] [--queue-capacity N] \
         [--max-connections N] [--low-watermark N] [--seed N] [--tracing] [--obs-out PATH]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("cw-serve: bad or missing value for {flag}");
            usage()
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut service_config = ServiceConfig::default();
    let mut net_config = NetServerConfig::default();
    let mut obs_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse("--addr", args.next()),
            "--shards" => service_config.shards = parse("--shards", args.next()),
            "--queue-capacity" => {
                service_config.queue_capacity = parse("--queue-capacity", args.next())
            }
            "--max-connections" => {
                net_config.max_connections = parse("--max-connections", args.next())
            }
            "--low-watermark" => {
                service_config.low_priority_watermark = Some(parse("--low-watermark", args.next()))
            }
            "--seed" => service_config.seed = parse("--seed", args.next()),
            "--tracing" => service_config.tracing = true,
            "--obs-out" => obs_out = Some(parse("--obs-out", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("cw-serve: unknown argument {other}");
                usage()
            }
        }
    }

    let service = SpgemmService::new(service_config);
    let server = match NetServer::bind(service, addr.as_str(), net_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cw-serve: bind {addr}: {e}");
            std::process::exit(1)
        }
    };

    // Parsed by tests and the bench harness to discover the ephemeral
    // port; keep the format stable.
    println!("cw-serve listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    // Blocks until a SHUTDOWN frame flips the flag, then drains the
    // connections and the service.
    let stats = server.run();
    eprintln!("cw-serve: drained; {}", stats.summary());

    if let Some(path) = obs_out {
        let jsonl = server.service().export_jsonl();
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("cw-serve: write {path}: {e}");
            std::process::exit(1)
        }
    }
}
