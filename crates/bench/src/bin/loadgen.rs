//! `thistle-loadgen`: open-loop deterministic load generator for the serve
//! tier.
//!
//! From a seed, builds a fixed request plan — mixed cache-hit, cold-miss,
//! near-miss (batch-size family) and malformed traffic with fixed dispatch
//! offsets — then fires it open-loop (requests launch at their scheduled
//! time regardless of how the server is coping, which is what real overload
//! looks like). Every response lands in an error taxonomy; client p50/p99
//! latency (pooled and per request class), throughput, `/healthz`
//! responsiveness during the drill, the server's own overload counters,
//! and the aggregated server-reported per-phase latency breakdowns
//! (parse / queue-wait / lock-wait / coalesce-wait / solve / serialize,
//! with a coverage ratio against the client-measured p99) are printed to
//! stdout. Serve performance numbers come from the benchmark's `serve_mix`
//! workload (`benchmark/`), not from this drill.
//!
//! The binary is the CI overload drill via `--assert-*` flags: it exits
//! nonzero when the server shed nothing, let its queue grow past the
//! bound, went unresponsive on `/healthz`, or failed to serve a fresh
//! request after the load dropped.
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — server to drive (default `127.0.0.1:7077`)
//! * `--seed N` — plan seed (default 42); same seed, same plan
//! * `--requests N` — plan length (default 400)
//! * `--rate R` — dispatch rate in requests/second (default 100)
//! * `--timeout-ms N` — per-request client timeout (default 15000)
//! * `--assert-shed` — require the server's `shed` counter to be nonzero
//! * `--assert-queue-p95 N` — require queue-depth p95 ≤ N
//! * `--assert-healthz-ms N` — require every drill-time `/healthz` ≤ N ms
//! * `--assert-recovery` — require a fresh post-drill solve to return 200
//! * `--assert-breakdown-coverage R` — require server-reported breakdowns
//!   on OK responses whose total-p99 covers ≥ R of the client-measured
//!   OK p99 (R in 0..=1)
//! * `--assert-lock-waits` — require the server's `solve_cache` and
//!   `inflight` lock-wait histograms to be present with samples, and at
//!   least one OK response to report nonzero queue wait

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use thistle_serve::Json;

/// One planned request: what to send and when.
#[derive(Clone)]
struct Planned {
    /// Dispatch offset from drill start.
    offset: Duration,
    kind: Kind,
    /// Raw bytes written to the socket (full HTTP request).
    raw: Vec<u8>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Repeats one fixed shape: the first arrival populates the cache, the
    /// rest are cache hits (served even in brown-out).
    Hit,
    /// Unique cold shape; the load that actually queues solves.
    Miss,
    /// Same family as a previously planned miss, different batch — a
    /// donor-backed near-miss solve (admitted in brown-out).
    NearMiss,
    /// Protocol garbage: byte soup, truncated requests, oversized bodies.
    Malformed,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::NearMiss => "near_miss",
            Kind::Malformed => "malformed",
        }
    }
}

/// What one dispatched request came back as.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Ok200,
    Shed503,
    BadRequest400,
    TooLarge413,
    Deadline408,
    Timeout504,
    OtherStatus,
    /// Connect/read/write failure or client-side timeout.
    ClientError,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Ok200 => "ok",
            Outcome::Shed503 => "shed",
            Outcome::BadRequest400 => "bad_request",
            Outcome::TooLarge413 => "too_large",
            Outcome::Deadline408 => "deadline",
            Outcome::Timeout504 => "timeout",
            Outcome::OtherStatus => "other_status",
            Outcome::ClientError => "client_error",
        }
    }

    fn from_status(status: u16) -> Outcome {
        match status {
            200 => Outcome::Ok200,
            503 => Outcome::Shed503,
            400 => Outcome::BadRequest400,
            413 => Outcome::TooLarge413,
            408 => Outcome::Deadline408,
            504 => Outcome::Timeout504,
            _ => Outcome::OtherStatus,
        }
    }
}

fn optimize_body(name: &str, batch: u64, k: u64, c: u64, hw: u64, timeout_ms: u64) -> String {
    format!(
        "{{\"layer\":{{\"name\":\"{name}\",\"batch\":{batch},\"out_channels\":{k},\
         \"in_channels\":{c},\"in_h\":{hw},\"in_w\":{hw},\"kernel_h\":3,\"kernel_w\":3,\
         \"stride\":1,\"dilation\":1}},\"objective\":\"energy\",\"mode\":\"eyeriss\",\
         \"timeout_ms\":{timeout_ms}}}"
    )
}

fn post_optimize(body: &str) -> Vec<u8> {
    format!(
        "POST /optimize HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A malformed request drawn deterministically from the plan RNG: the four
/// shapes the protocol hardening must answer without hanging or panicking.
fn malformed_request(rng: &mut StdRng) -> Vec<u8> {
    match rng.gen_range(0..4u32) {
        // Raw byte soup, no structure at all.
        0 => (0..rng.gen_range(1..200usize))
            .map(|_| rng.gen_range(0..=255u32) as u8)
            .collect(),
        // Truncated request: header phase cut off mid-line.
        1 => b"POST /optimize HTTP/1.1\r\nContent-Len".to_vec(),
        // Content-Length far beyond the body cap.
        2 => b"POST /optimize HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
        // Valid framing, garbage JSON body.
        _ => post_optimize("{not json"),
    }
}

/// Builds the full request plan from the seed. Pure function of
/// `(seed, requests, rate, timeout_ms)` — replaying a drill is rerunning
/// the binary with the same flags.
fn build_plan(seed: u64, requests: usize, rate: f64, timeout_ms: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Vec::with_capacity(requests);
    let mut missed = 0u64;
    for i in 0..requests {
        let offset = Duration::from_secs_f64(i as f64 / rate);
        let roll = rng.gen_range(0..100u32);
        let (kind, raw) = if roll < 35 {
            // One fixed shape all hit traffic shares.
            (
                Kind::Hit,
                post_optimize(&optimize_body("lg_hot", 2, 8, 8, 10, timeout_ms)),
            )
        } else if roll < 60 {
            // Unique cold shapes: vary channel counts so every one is a
            // distinct canonical query (and a distinct family).
            missed += 1;
            let k = 4 + (missed % 13) * 3;
            let c = 4 + (missed % 7) * 2;
            let hw = 8 + (missed % 5) * 2;
            (
                Kind::Miss,
                post_optimize(&optimize_body(
                    &format!("lg_cold_{missed}"),
                    2,
                    k,
                    c,
                    hw,
                    timeout_ms,
                )),
            )
        } else if roll < 80 {
            // The hot shape's family at a different batch: donor-backed
            // near-miss once the hot shape is cached.
            let batch = 3 + rng.gen_range(0..3u64);
            (
                Kind::NearMiss,
                post_optimize(&optimize_body("lg_hot_nm", batch, 8, 8, 10, timeout_ms)),
            )
        } else {
            (Kind::Malformed, malformed_request(&mut rng))
        };
        plan.push(Planned { offset, kind, raw });
    }
    plan
}

/// One-shot HTTP exchange: connect, write `raw`, read to EOF (the server
/// speaks `Connection: close`), return the status code and response body.
fn exchange(addr: &str, raw: &[u8], timeout: Duration) -> Result<(u16, String), String> {
    let start = Instant::now();
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("bad address {addr}: {e}"))?;
    let mut stream =
        TcpStream::connect_timeout(&sock_addr, timeout).map_err(|e| format!("connect: {e}"))?;
    let budget = |start: Instant| {
        timeout
            .saturating_sub(start.elapsed())
            .max(Duration::from_millis(1))
    };
    let _ = stream.set_write_timeout(Some(budget(start)));
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let _ = stream.set_read_timeout(Some(budget(start)));
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&response);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| "unparseable response".to_string())?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Breakdown phase names, matching the server's `LatencyBreakdown` field
/// order (`<phase>_ms` keys in the response's `breakdown` object).
const PHASES: [&str; 6] = [
    "parse",
    "queue_wait",
    "lock_wait",
    "coalesce_wait",
    "solve",
    "serialize",
];

/// Pulls the six-phase latency breakdown out of an `/optimize` response
/// body, in [`PHASES`] order. `None` when the body has no complete
/// breakdown (error responses, older servers).
fn parse_breakdown(body: &str) -> Option<[f64; 6]> {
    let json = Json::parse(body).ok()?;
    let b = json.get("breakdown")?;
    let field = |name: &str| b.get(&format!("{name}_ms")).and_then(Json::as_f64);
    Some([
        field(PHASES[0])?,
        field(PHASES[1])?,
        field(PHASES[2])?,
        field(PHASES[3])?,
        field(PHASES[4])?,
        field(PHASES[5])?,
    ])
}

/// Percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_value(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7077".into());
    let seed: u64 = parse_flag(&args, "--seed", 42);
    let requests: usize = parse_flag(&args, "--requests", 400);
    let rate: f64 = parse_flag(&args, "--rate", 100.0);
    let timeout_ms: u64 = parse_flag(&args, "--timeout-ms", 15_000);
    let assert_shed = args.iter().any(|a| a == "--assert-shed");
    let assert_recovery = args.iter().any(|a| a == "--assert-recovery");
    let assert_queue_p95: Option<f64> =
        flag_value(&args, "--assert-queue-p95").and_then(|v| v.parse().ok());
    let assert_healthz_ms: Option<f64> =
        flag_value(&args, "--assert-healthz-ms").and_then(|v| v.parse().ok());
    let assert_breakdown_coverage: Option<f64> =
        flag_value(&args, "--assert-breakdown-coverage").and_then(|v| v.parse().ok());
    let assert_lock_waits = args.iter().any(|a| a == "--assert-lock-waits");
    let timeout = Duration::from_millis(timeout_ms);

    println!("loadgen: {requests} requests at {rate}/s against {addr} (seed {seed})");
    let plan = build_plan(seed, requests, rate, timeout_ms);

    // Health probe running alongside the drill: the server must answer
    // `/healthz` promptly even while shedding.
    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe = {
        let addr = addr.clone();
        let stop = Arc::clone(&probe_stop);
        std::thread::spawn(move || {
            let mut worst_ms: f64 = 0.0;
            let mut failures = 0u64;
            let raw = b"GET /healthz HTTP/1.1\r\nHost: probe\r\nConnection: close\r\n\r\n";
            while !stop.load(Ordering::Acquire) {
                let start = Instant::now();
                match exchange(&addr, raw, Duration::from_secs(5)) {
                    Ok((200, _)) => worst_ms = worst_ms.max(start.elapsed().as_secs_f64() * 1e3),
                    _ => failures += 1,
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            (worst_ms, failures)
        })
    };

    // Open-loop dispatch: one thread per planned request, launched at its
    // offset regardless of outstanding work. OK responses carry the
    // server's six-phase breakdown alongside the client-measured latency.
    type Sample = (Kind, Outcome, f64, Option<[f64; 6]>);
    let (tx, rx) = mpsc::channel::<Sample>();
    let start = Instant::now();
    let mut dispatchers = Vec::with_capacity(plan.len());
    for planned in plan {
        let tx = tx.clone();
        let addr = addr.clone();
        dispatchers.push(std::thread::spawn(move || {
            let now = start.elapsed();
            if planned.offset > now {
                std::thread::sleep(planned.offset - now);
            }
            let sent = Instant::now();
            let (outcome, breakdown) = match exchange(&addr, &planned.raw, timeout) {
                Ok((status, body)) => {
                    let outcome = Outcome::from_status(status);
                    let breakdown = (outcome == Outcome::Ok200)
                        .then(|| parse_breakdown(&body))
                        .flatten();
                    (outcome, breakdown)
                }
                Err(_) => (Outcome::ClientError, None),
            };
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            let _ = tx.send((planned.kind, outcome, latency_ms, breakdown));
        }));
    }
    drop(tx);

    let mut results: Vec<Sample> = rx.iter().collect();
    for handle in dispatchers {
        let _ = handle.join();
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    probe_stop.store(true, Ordering::Release);
    let (healthz_worst_ms, healthz_failures) = probe.join().unwrap_or((f64::NAN, u64::MAX));

    // Taxonomy.
    results.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
    let count = |o: Outcome| results.iter().filter(|r| r.1 == o).count() as u64;
    let outcomes = [
        Outcome::Ok200,
        Outcome::Shed503,
        Outcome::BadRequest400,
        Outcome::TooLarge413,
        Outcome::Deadline408,
        Outcome::Timeout504,
        Outcome::OtherStatus,
        Outcome::ClientError,
    ];
    println!("\n  outcome        count");
    for o in outcomes {
        println!("  {:12} {:6}", o.name(), count(o));
    }
    let kinds = [Kind::Hit, Kind::Miss, Kind::NearMiss, Kind::Malformed];
    // Per-class latency distributions: `results` is latency-sorted, so a
    // filtered view stays sorted and percentile() applies directly.
    let class_stats: Vec<(Kind, usize, usize, usize, f64, f64)> = kinds
        .iter()
        .map(|&k| {
            let lat: Vec<f64> = results.iter().filter(|r| r.0 == k).map(|r| r.2).collect();
            let ok = results
                .iter()
                .filter(|r| r.0 == k && r.1 == Outcome::Ok200)
                .count();
            let shed = results
                .iter()
                .filter(|r| r.0 == k && r.1 == Outcome::Shed503)
                .count();
            (
                k,
                lat.len(),
                ok,
                shed,
                percentile(&lat, 50.0),
                percentile(&lat, 99.0),
            )
        })
        .collect();
    println!("\n  kind       sent   ok   shed   p50 ms   p99 ms");
    for &(k, sent, ok, shed, p50, p99) in &class_stats {
        println!(
            "  {:9} {:5} {:5} {:5} {:8.1} {:8.1}",
            k.name(),
            sent,
            ok,
            shed,
            p50,
            p99
        );
    }

    let latencies: Vec<f64> = results.iter().map(|r| r.2).collect();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let throughput = results.len() as f64 / (wall_ms / 1e3).max(1e-9);
    println!(
        "\n  wall {:.0} ms, throughput {:.1} req/s, latency p50 {:.1} ms p99 {:.1} ms",
        wall_ms, throughput, p50, p99
    );
    println!(
        "  healthz during drill: worst {:.1} ms, {} failures",
        healthz_worst_ms, healthz_failures
    );

    // Server-reported critical-path decomposition, aggregated over the OK
    // responses that carried one. The coverage ratio compares the p99 of
    // the six-phase totals against the client-measured OK p99: how much of
    // the tail the server can actually account for.
    let ok_latencies: Vec<f64> = results
        .iter()
        .filter(|r| r.1 == Outcome::Ok200)
        .map(|r| r.2)
        .collect();
    let ok_p99 = percentile(&ok_latencies, 99.0);
    let breakdowns: Vec<[f64; 6]> = results.iter().filter_map(|r| r.3).collect();
    let sorted = |mut vals: Vec<f64>| {
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        vals
    };
    let phase_stats: Vec<(&str, f64, f64)> = PHASES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let vals = sorted(breakdowns.iter().map(|b| b[i]).collect());
            (name, percentile(&vals, 50.0), percentile(&vals, 99.0))
        })
        .collect();
    let totals = sorted(breakdowns.iter().map(|b| b.iter().sum()).collect());
    let breakdown_total_p99 = percentile(&totals, 99.0);
    let breakdown_coverage = if ok_p99 > 0.0 {
        breakdown_total_p99 / ok_p99
    } else {
        0.0
    };
    if breakdowns.is_empty() {
        println!("  no server-reported breakdowns (no OK responses?)");
    } else {
        println!(
            "\n  phase decomposition over {} OK responses (ms):",
            breakdowns.len()
        );
        println!("  phase               p50      p99");
        for &(name, ph_p50, ph_p99) in &phase_stats {
            println!("  {:14} {:8.2} {:8.2}", name, ph_p50, ph_p99);
        }
        println!(
            "  breakdown total p99 {:.1} ms covers {:.0}% of client OK p99 {:.1} ms",
            breakdown_total_p99,
            breakdown_coverage * 100.0,
            ok_p99
        );
    }

    // Server-side accounting after the drill.
    let metrics_raw = exchange_body(
        &addr,
        b"GET /metrics HTTP/1.1\r\nHost: lg\r\nConnection: close\r\n\r\n",
    );
    let server = metrics_raw
        .as_deref()
        .and_then(|body| Json::parse(body).ok());
    let server_u64 = |name: &str| -> u64 {
        server
            .as_ref()
            .and_then(|j| j.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let queue_p95 = server
        .as_ref()
        .and_then(|j| j.get("queue_depth_dist"))
        .and_then(|d| d.get("p95"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!(
        "  server: shed {} (browned out {}), conn capped {}, deadline closed {}, queue p95 {}",
        server_u64("shed"),
        server_u64("browned_out"),
        server_u64("conn_capped"),
        server_u64("deadline_closed"),
        queue_p95,
    );

    // Per-lock contention accounting from the server's `/metrics` JSON:
    // (acquisitions, contended, wait samples, wait p95 ms) per named lock.
    let lock_stat = |name: &str| -> (u64, u64, u64, f64) {
        server
            .as_ref()
            .and_then(|j| j.get("locks"))
            .and_then(|l| l.get(name))
            .map(|l| {
                let wait = l.get("wait_ms");
                (
                    l.get("acquisitions").and_then(Json::as_u64).unwrap_or(0),
                    l.get("contended").and_then(Json::as_u64).unwrap_or(0),
                    wait.and_then(|w| w.get("count"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    wait.and_then(|w| w.get("p95"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                )
            })
            .unwrap_or((0, 0, 0, 0.0))
    };
    let cache_lock = lock_stat("solve_cache");
    let inflight_lock = lock_stat("inflight");
    println!(
        "  server locks: solve_cache acq {} contended {} wait p95 {:.3} ms; \
         inflight acq {} contended {} wait p95 {:.3} ms",
        cache_lock.0, cache_lock.1, cache_lock.3, inflight_lock.0, inflight_lock.1, inflight_lock.3,
    );

    // Post-drill recovery: a fresh shape must solve normally once load has
    // dropped (brown-out must have released).
    let recovery_body = optimize_body("lg_recovery", 2, 6, 6, 12, timeout_ms);
    let recovery = exchange(&addr, &post_optimize(&recovery_body), timeout);
    let recovered = matches!(recovery, Ok((200, _)));
    println!(
        "  recovery request: {:?}",
        recovery.as_ref().map(|(status, _)| *status)
    );

    // Drill assertions (CI wiring).
    let mut failed = false;
    if assert_shed && server_u64("shed") == 0 {
        eprintln!("ASSERT FAILED: server shed nothing under oversubscription");
        failed = true;
    }
    if let Some(bound) = assert_queue_p95 {
        if queue_p95 > bound {
            eprintln!("ASSERT FAILED: queue depth p95 {queue_p95} > bound {bound}");
            failed = true;
        }
    }
    if let Some(bound) = assert_healthz_ms {
        if healthz_worst_ms.is_nan() || healthz_worst_ms > bound || healthz_failures > 0 {
            eprintln!(
                "ASSERT FAILED: healthz worst {healthz_worst_ms} ms (bound {bound}), \
                 {healthz_failures} failures"
            );
            failed = true;
        }
    }
    if assert_recovery && !recovered {
        eprintln!(
            "ASSERT FAILED: post-drill recovery request did not return 200: {:?}",
            recovery.as_ref().map(|(status, _)| *status)
        );
        failed = true;
    }
    if let Some(bound) = assert_breakdown_coverage {
        if breakdowns.is_empty() || breakdown_coverage < bound {
            eprintln!(
                "ASSERT FAILED: breakdown coverage {breakdown_coverage:.3} < bound {bound} \
                 ({} samples)",
                breakdowns.len()
            );
            failed = true;
        }
    }
    if assert_lock_waits {
        for (name, (acq, _, wait_count, _)) in
            [("solve_cache", cache_lock), ("inflight", inflight_lock)]
        {
            if acq == 0 || wait_count == 0 {
                eprintln!(
                    "ASSERT FAILED: lock {name} has no wait accounting \
                     (acquisitions {acq}, wait samples {wait_count})"
                );
                failed = true;
            }
        }
        if !breakdowns.iter().any(|b| b[1] > 0.0) {
            eprintln!("ASSERT FAILED: no OK response reported nonzero queue wait");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Like [`exchange`] but returns the response body (after the blank line).
fn exchange_body(addr: &str, raw: &[u8]) -> Option<String> {
    let sock_addr: std::net::SocketAddr = addr.parse().ok()?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, Duration::from_secs(5)).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    stream.write_all(raw).ok()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).ok()?;
    let text = String::from_utf8_lossy(&response);
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
}
