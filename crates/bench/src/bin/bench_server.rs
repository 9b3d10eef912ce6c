//! Serving benchmark: a real [`ceaff_server::Server`] on an ephemeral
//! port, driven over real sockets by a **fixed, deterministic request
//! set** at two concurrency levels. Reports p50/p99 latency, shed rate,
//! and degraded fraction, each the median of 5 rounds.
//!
//! Flags and their `--check` overrides: the table in the [`ceaff_bench`]
//! crate docs.
//!
//! Reporting rules:
//! * the server always runs the fixed worker count below, whatever the
//!   host's `detected_cores`, so numbers are comparable across hosts.
//! * Latency percentiles below `min_meaningful_secs` are timer noise —
//!   they are still reported, but flagged in `notes`.
//! * Shed rate is a *load* property, not a throughput score: it depends
//!   on how fast the host drains the queue. Zero sheds on a fast host is
//!   the honest result, not a bug.

use ceaff_bench::harness::{self, median, percentile, write_report, Args};
use ceaff_core::{MatcherKind, Telemetry};
use ceaff_server::{Client, ClientConfig, Server, ServerConfig, WarmState};
use ceaff_sim::{SimStore, SimilarityMatrix};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
type Req = (&'static str, String, &'static [u8]);

/// The deterministic request set: a 4-way cycle of full-align runs under
/// three matchers and a top-k lookup, so latency covers both the
/// decision path and the read path.
fn request_set(total: usize) -> Vec<Req> {
    const ALIGN_BODIES: [&[u8]; 3] = [
        b"",
        b"{\"matcher\":\"greedy1to1\"}",
        b"{\"matcher\":\"greedy\"}",
    ];
    (0..total)
        .map(|i| -> Req {
            match ALIGN_BODIES.get(i % 4) {
                Some(body) => ("POST", "/align".to_owned(), body),
                None => (
                    "GET",
                    format!("/topk?entity=e{}&k=10", (i * 7) % STATE_SIZE),
                    b"",
                ),
            }
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
                    let Some((method, path, body)) = requests.get(i) else {
                        break;
                    };
                    let started = Instant::now();
                    let outcome = client.request(method, path, &[], body, false);
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

    let rounds: Vec<RoundStats> = (0..reps)
        .map(|rep| {
            let round = run_round(&addr, &requests, concurrency);
            assert!(
                !round.latencies_ms.is_empty(),
                "round {rep} had no successful request"
            );
            eprintln!(
                "  concurrency {concurrency} round {rep}: ok {} shed {} degraded {} err {}",
                round.ok, round.shed, round.degraded, round.errors
            );
            round
        })
        .collect();
    server.drain();
    server.join();

    // Per-round figures, median across rounds; counts summed.
    let med =
        |f: &dyn Fn(&RoundStats) -> f64| median(&mut rounds.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&RoundStats) -> usize| rounds.iter().map(f).sum::<usize>();
    json!({
        "concurrency": concurrency,
        "p50_ms": med(&|r| percentile(&mut r.latencies_ms.clone(), 0.50)),
        "p99_ms": med(&|r| percentile(&mut r.latencies_ms.clone(), 0.99)),
        "shed_rate": med(&|r| r.shed as f64 / total_requests as f64),
        "degraded_fraction": med(&|r| r.degraded as f64 / r.ok.max(1) as f64),
        "ok": sum(|r| r.ok),
        "shed": sum(|r| r.shed),
        "degraded": sum(|r| r.degraded),
        "errors": sum(|r| r.errors),
    })
}

fn main() {
    let args = Args::from_env(&["--reps", "--requests", "--out"], &["--check"]);
    let check = args.switch("--check");
    let (reps, total_requests) = if check {
        (1, 16)
    } else {
        (args.get("--reps", 5), args.get("--requests", 48))
    };
    eprintln!(
        "bench_server: {} detected core(s); {WORKERS} server worker(s), queue {QUEUE_CAPACITY}; \
         {total_requests} requests/round, median of {reps} round(s) after warm-up",
        harness::detected_cores()
    );

    let levels: Vec<Value> = CONCURRENCY_LEVELS
        .iter()
        .map(|&c| bench_level(c, reps, total_requests))
        .collect();

    let report = harness::report(
        "server",
        check,
        json!({
            "workers": WORKERS,
            "queue_capacity": QUEUE_CAPACITY,
            "reps": reps,
            "requests_per_round": total_requests,
            "min_meaningful_secs": MIN_MEANINGFUL_SECS,
            "levels": levels,
        }),
        &[
            "fixed request set: POST /align under three matchers + GET /topk, cycled deterministically",
            "latency percentiles cover 200 responses only; sheds answer immediately and are reported as shed_rate instead",
            "percentiles below min_meaningful_secs are loopback/timer noise",
            "shed_rate and degraded_fraction depend on host speed at fixed workers/queue; 0.0 on a fast host is the honest result",
            "errors counts transport failures and untyped statuses; the run is invalid (and validation fails) unless it is 0",
        ],
    );
    write_report(&args.get("--out", "BENCH_server.json".to_owned()), &report);
}
