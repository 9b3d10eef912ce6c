//! Serving benchmark: a real [`ceaff_server::Server`] on an ephemeral
//! port, driven over real sockets by a **fixed, deterministic request
//! set** at two concurrency levels. Reports p50/p99 latency, shed rate,
//! and degraded fraction, each the median of 5 rounds.
//!
//! ```text
//! bench_server [--reps N]      rounds per level (default 5, median taken)
//!              [--requests N]  requests per round (default 48)
//!              [--check]      smoke mode: 1 round, 16 requests, validate
//!              [--out PATH]   report path (default BENCH_server.json)
//! ```
//!
//! Honest-reporting rules (shared with `bench_kernels`):
//! * `detected_cores` is reported verbatim; the server always runs the
//!   fixed worker count below, so numbers are comparable across hosts.
//! * Latency percentiles below `min_meaningful_secs` are timer noise —
//!   they are still reported, but flagged in `notes`.
//! * Shed rate is a *load* property, not a throughput score: it depends
//!   on how fast the host drains the queue. Zero sheds on a fast host is
//!   the honest result, not a bug.

use ceaff_bench::{median, percentile};
use ceaff_core::{MatcherKind, Telemetry};
use ceaff_server::{Client, ClientConfig, Server, ServerConfig, WarmState};
use ceaff_sim::{SimStore, SimilarityMatrix};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SCHEMA_VERSION: u64 = 1;
/// Percentiles under 50 µs are dominated by loopback + timer jitter.
const MIN_MEANINGFUL_SECS: f64 = 0.000_05;
/// Entities per side of the synthetic warm state.
const STATE_SIZE: usize = 400;
/// Fixed server shape — independent of the host's core count so the
/// numbers mean the same thing everywhere.
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 8;
const CONCURRENCY_LEVELS: [usize; 2] = [4, 16];

/// The same diagonally-dominant warm state the server e2e suite uses:
/// deterministic, no pipeline warm-up, heavy enough that a matcher run
/// is real work.
fn warm_state(n: usize) -> Arc<WarmState> {
    let mut m = SimilarityMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let noise = ((i * 31 + j * 17) % 50) as f32 / 100.0;
            m.set(i, j, if i == j { 0.9 } else { noise });
        }
    }
    Arc::new(WarmState::from_parts(
        SimStore::Dense(m),
        MatcherKind::StableMarriage,
        (0..n).map(|i| format!("e{i}")).collect(),
        (0..n).map(|i| format!("t{i}")).collect(),
    ))
}

/// One request of the fixed set: method, path, body.
struct Req {
    method: &'static str,
    path: String,
    body: &'static [u8],
}

/// The deterministic request set: a 4-way cycle of full-align runs under
/// three matchers and a top-k lookup, so latency covers both the
/// decision path and the read path.
fn request_set(total: usize) -> Vec<Req> {
    (0..total)
        .map(|i| match i % 4 {
            0 => Req {
                method: "POST",
                path: "/align".to_owned(),
                body: b"",
            },
            1 => Req {
                method: "POST",
                path: "/align".to_owned(),
                body: b"{\"matcher\":\"greedy1to1\"}",
            },
            2 => Req {
                method: "POST",
                path: "/align".to_owned(),
                body: b"{\"matcher\":\"greedy\"}",
            },
            _ => Req {
                method: "GET",
                path: format!("/topk?entity=e{}&k=10", (i * 7) % STATE_SIZE),
                body: b"",
            },
        })
        .collect()
}

#[derive(Default)]
struct RoundStats {
    latencies_ms: Vec<f64>,
    ok: usize,
    shed: usize,
    degraded: usize,
    errors: usize,
}

/// Fire the whole request set through `concurrency` client threads
/// against `addr`; collect per-request latency and outcome.
fn run_round(addr: &str, requests: &[Req], concurrency: usize) -> RoundStats {
    let next = AtomicUsize::new(0);
    let stats = Mutex::new(RoundStats::default());
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| {
                let client = Client::new(
                    addr,
                    ClientConfig {
                        max_retries: 0,
                        ..ClientConfig::default()
                    },
                );
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let started = Instant::now();
                    let outcome = client.request(req.method, &req.path, &[], req.body, false);
                    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                    let mut stats = stats.lock().expect("stats lock");
                    match outcome {
                        Ok(result) if result.status == 200 => {
                            stats.ok += 1;
                            stats.latencies_ms.push(elapsed_ms);
                            if result.body.contains("\"degraded\":true") {
                                stats.degraded += 1;
                            }
                        }
                        Ok(result) if result.status == 503 => stats.shed += 1,
                        _ => stats.errors += 1,
                    }
                }
            });
        }
    });
    stats.into_inner().expect("stats lock")
}

fn bench_level(concurrency: usize, reps: usize, total_requests: usize) -> Value {
    // A fresh server per level: no cross-level queue warm-up effects.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        ..ServerConfig::default()
    };
    let server = Server::start(warm_state(STATE_SIZE), cfg, Telemetry::disabled())
        .expect("bench server starts");
    let addr = server.local_addr().to_string();
    let requests = request_set(total_requests);

    // Warm-up round (untimed): populate listener backlog paths, fault in
    // code, settle the allocator — same discipline as bench_kernels.
    run_round(&addr, &requests, concurrency);

    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut shed_rates = Vec::new();
    let mut degraded_fracs = Vec::new();
    let mut totals = RoundStats::default();
    for rep in 0..reps {
        let round = run_round(&addr, &requests, concurrency);
        let mut lat = round.latencies_ms.clone();
        assert!(!lat.is_empty(), "round {rep} had no successful request");
        p50s.push(percentile(&mut lat, 0.50));
        p99s.push(percentile(&mut lat, 0.99));
        shed_rates.push(round.shed as f64 / total_requests as f64);
        degraded_fracs.push(round.degraded as f64 / round.ok.max(1) as f64);
        totals.ok += round.ok;
        totals.shed += round.shed;
        totals.degraded += round.degraded;
        totals.errors += round.errors;
        eprintln!(
            "  concurrency {concurrency} round {rep}: ok {} shed {} degraded {} err {}",
            round.ok, round.shed, round.degraded, round.errors
        );
    }
    server.drain();
    server.join();

    json!({
        "concurrency": concurrency,
        "p50_ms": median(&mut p50s),
        "p99_ms": median(&mut p99s),
        "shed_rate": median(&mut shed_rates),
        "degraded_fraction": median(&mut degraded_fracs),
        "ok": totals.ok,
        "shed": totals.shed,
        "degraded": totals.degraded,
        "errors": totals.errors,
    })
}

/// Validate a server-bench report; first problem as a readable message.
fn validate_report(doc: &Value) -> Result<(), String> {
    if doc.get("schema_version").and_then(Value::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    if doc.get("bench").and_then(Value::as_str) != Some("server") {
        return Err("bench must be \"server\"".into());
    }
    for key in [
        "detected_cores",
        "workers",
        "queue_capacity",
        "reps",
        "requests_per_round",
    ] {
        if doc.get(key).and_then(Value::as_u64).is_none_or(|v| v == 0) {
            return Err(format!("{key} must be a positive integer"));
        }
    }
    let levels = doc
        .get("levels")
        .and_then(Value::as_array)
        .ok_or("levels must be an array")?;
    if levels.len() != CONCURRENCY_LEVELS.len() {
        return Err(format!("expected {} levels", CONCURRENCY_LEVELS.len()));
    }
    for level in levels {
        for key in ["p50_ms", "p99_ms", "shed_rate", "degraded_fraction"] {
            let v = level
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("level.{key} must be a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("level.{key} must be finite and non-negative"));
            }
        }
        let errors = level.get("errors").and_then(Value::as_u64);
        if errors != Some(0) {
            return Err(format!("level reported transport/5xx errors: {errors:?}"));
        }
    }
    Ok(())
}

fn main() {
    let mut reps = 5usize;
    let mut total_requests = 48usize;
    let mut check = false;
    let mut out_path = "BENCH_server.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--reps" => reps = value("--reps").parse().expect("--reps takes an integer"),
            "--requests" => {
                total_requests = value("--requests")
                    .parse()
                    .expect("--requests takes an integer")
            }
            "--check" => check = true,
            "--out" => out_path = value("--out"),
            other => panic!("unknown flag {other}; known: --reps --requests --check --out"),
        }
    }
    if check {
        reps = 1;
        total_requests = 16;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "bench_server: {cores} detected core(s); {WORKERS} server worker(s), queue {QUEUE_CAPACITY}; \
         {total_requests} requests/round, median of {reps} round(s) after warm-up"
    );

    let levels: Vec<Value> = CONCURRENCY_LEVELS
        .iter()
        .map(|&c| bench_level(c, reps, total_requests))
        .collect();

    let report = json!({
        "schema_version": SCHEMA_VERSION,
        "bench": "server",
        "detected_cores": cores,
        "workers": WORKERS,
        "queue_capacity": QUEUE_CAPACITY,
        "reps": reps,
        "requests_per_round": total_requests,
        "check_mode": check,
        "min_meaningful_secs": MIN_MEANINGFUL_SECS,
        "levels": levels,
        "notes": [
            "fixed request set: POST /align under three matchers + GET /topk, cycled deterministically",
            "latency percentiles cover 200 responses only; sheds answer immediately and are reported as shed_rate instead",
            "percentiles below min_meaningful_secs are loopback/timer noise",
            "shed_rate and degraded_fraction depend on host speed at fixed workers/queue; 0.0 on a fast host is the honest result",
            "errors counts transport failures and untyped statuses; the run is invalid (and validation fails) unless it is 0",
        ],
    });
    validate_report(&report).expect("bench_server produced a schema-invalid report");
    let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, pretty + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
