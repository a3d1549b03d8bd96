//! The cross-process contract: two real `cw-serve` processes on ephemeral
//! loopback ports, a `RoutedClient` fanning the corpus out by fingerprint,
//! each process serving exactly its `route_hash` share, and both draining
//! cleanly on SHUTDOWN (one via `--obs-out`, whose JSONL export must carry
//! the `net.*` wire metrics) — and the binary's refusal of arguments it
//! does not know.

use cw_net::{ClientConfig, RoutedClient};
use cw_sparse::{fingerprint, gen, CsrMatrix};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Kills the child on panic so a failing assertion can't leak servers.
struct ServeGuard(Option<Child>);

impl ServeGuard {
    /// Reaps a cleanly-shut-down server, asserting its exit status.
    fn wait_success(mut self) {
        let mut child = self.0.take().expect("child still owned");
        let status = child.wait().expect("wait cw-serve");
        assert!(status.success(), "cw-serve exited with {status}");
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns `cw-serve` on an ephemeral port and parses the bound address
/// from its stable `cw-serve listening on <addr>` banner.
fn spawn_serve(extra_args: &[&str]) -> (ServeGuard, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cw-serve"));
    cmd.args(["--addr", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn cw-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("cw-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .parse()
        .expect("parse bound address");
    (ServeGuard(Some(child)), addr)
}

fn corpus() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("scrambled_mesh", gen::mesh::tri_mesh(12, 12, true, 3)),
        ("poisson2d", gen::grid::poisson2d(12, 12)),
        ("block_diagonal", gen::banded::block_diagonal(96, (4, 8), 0.1, 5)),
        ("grouped_rows", gen::banded::grouped_rows(90, 5, 6, 2)),
        ("erdos_renyi", gen::er::erdos_renyi(120, 5, 9)),
        ("kkt", gen::kkt::kkt(70, 20, 2, 3, 8)),
    ]
}

/// Pulls a counter out of the metrics line of a JSONL export.
fn counter(jsonl: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = jsonl.find(&needle).unwrap_or_else(|| panic!("no counter {name} in:\n{jsonl}"));
    jsonl[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn two_cw_serve_processes_split_the_fingerprint_space() {
    let obs_path = std::env::temp_dir().join(format!("cw_net_obs_{}.jsonl", std::process::id()));
    let obs_arg = obs_path.to_str().expect("utf8 temp path");

    let (guard_a, addr_a) = spawn_serve(&["--shards", "2", "--obs-out", obs_arg]);
    let (guard_b, addr_b) = spawn_serve(&["--shards", "2"]);

    let endpoints = [addr_a, addr_b];
    let mut router =
        RoutedClient::connect(&endpoints, ClientConfig::default()).expect("connect both processes");

    let mut direct = cw_engine::Engine::default();
    let mut expected = [0u64; 2];
    for (name, a) in corpus() {
        let endpoint = router.endpoint_for(&a);
        assert_eq!(endpoint, fingerprint(&a).shard_index(2), "{name}: placement disagreement");
        let resp = router.route(&a).multiply(&a, &a).expect(name);
        expected[endpoint] += 1;
        // Same bits across the process boundary as in this process.
        let (want, _) = direct.multiply(&a, &a);
        assert!(
            resp.product.numerically_eq(&want, 0.0),
            "{name}: cross-process product is not bit-identical"
        );
    }
    assert!(expected.iter().all(|&n| n > 0), "corpus fans out to both processes: {expected:?}");

    // Each process's own books confirm it served exactly its share.
    let stats = router.stats_jsonl_all().expect("stats from both");
    for (i, jsonl) in stats.iter().enumerate() {
        assert_eq!(counter(jsonl, "requests_completed"), expected[i], "process {i} share");
        assert_eq!(counter(jsonl, "net.served"), expected[i], "process {i} wire share");
        assert_eq!(counter(jsonl, "net.rejected"), 0, "process {i} rejected traffic");
    }

    // Graceful drain: both processes exit cleanly on SHUTDOWN.
    router.shutdown_all().expect("shutdown both");
    guard_a.wait_success();
    guard_b.wait_success();

    // --obs-out wrote the JSONL export, wire metrics included.
    let exported = std::fs::read_to_string(&obs_path).expect("obs-out file");
    assert_eq!(counter(&exported, "net.served"), expected[0]);
    let _ = std::fs::remove_file(&obs_path);
}

#[test]
fn cw_serve_refuses_the_retired_batching_flags_with_usage() {
    for flag in ["--window-ms", "--max-batch", "--pool-width"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cw-serve"))
            .args(["--addr", "127.0.0.1:0", flag, "2"])
            .stdin(Stdio::null())
            .output()
            .expect("run cw-serve");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown argument {flag}")), "{flag}: {stderr}");
        assert!(stderr.contains("usage: cw-serve"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: bound before refusing");
    }
}
