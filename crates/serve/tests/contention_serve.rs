//! Acceptance tests for the contention & critical-path observatory
//! (DESIGN.md §16): the per-request latency breakdown accounts for where
//! time went (queue wait grows under a saturated worker pool while the
//! solve phase stays flat), the per-lock wait/hold histograms surface in
//! `GET /metrics` (JSON and Prometheus) and `GET /debug/contention`, and
//! every `POST /optimize` response carries the six-phase decomposition.

use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_serve::{HttpServer, Json, LatencyBreakdown, Service, ServiceOptions};

fn quick_optimizer() -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 9,
        candidate_limit: 300,
        top_solutions: 1,
        threads: 2,
        ..OptimizerOptions::default()
    })
}

fn mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

/// Distinct real shapes (not just names — names canonicalize away) so
/// concurrent requests neither coalesce nor hit the cache.
fn distinct_layer(i: u64) -> ConvLayer {
    let hw = 18 + 2 * i;
    ConvLayer::new("cont", 1, 16, 16, hw, hw, 3, 3, 1)
}

fn http_exchange(port: u16, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, response)
}

fn http_get(port: u16, target: &str) -> (u16, String) {
    http_exchange(
        port,
        &format!("GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"),
    )
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any phase values, the JSON rendering carries every one of the
    /// six `phases()` keys with the same value.
    #[test]
    fn breakdown_json_carries_every_phase(
        parse in 0.0_f64..1e6,
        queue in 0.0_f64..1e6,
        lock in 0.0_f64..1e6,
        coalesce in 0.0_f64..1e6,
        solve in 0.0_f64..1e6,
        serialize in 0.0_f64..1e6,
    ) {
        let b = LatencyBreakdown {
            parse_ms: parse,
            queue_wait_ms: queue,
            lock_wait_ms: lock,
            coalesce_wait_ms: coalesce,
            solve_ms: solve,
            serialize_ms: serialize,
        };
        let json = b.to_json();
        for (name, value) in b.phases() {
            let key = format!("{name}_ms");
            prop_assert_eq!(
                json.get(&key).and_then(Json::as_f64),
                Some(value),
                "phase {} missing or wrong in {}",
                name,
                json.emit()
            );
        }
    }
}

/// Saturating a single-worker pool with simultaneous distinct misses must
/// show up as queue wait, not as inflated solve times: the most-delayed
/// request's queue_wait exceeds any individual solve, while its own solve
/// phase stays comparable to the least-delayed request's.
#[test]
fn queue_wait_grows_under_saturation_while_solve_stays_flat() {
    let service = Arc::new(Service::new(
        quick_optimizer(),
        ServiceOptions {
            workers: 1,
            cache_capacity: 16,
            ..ServiceOptions::default()
        },
    ));

    // Sequential baseline on an idle pool: the queue is empty, so queue
    // wait is scheduling noise, not solve-sized.
    let solo = service
        .optimize(&distinct_layer(0), Objective::Energy, &mode())
        .expect("solo solve");
    assert!(!solo.cache_hit && !solo.coalesced);
    let solo_breakdown = solo.breakdown;

    // Four distinct shapes released through a barrier at the same instant:
    // the single worker serializes them, so the later ones accumulate
    // queue wait roughly equal to the solves ahead of them.
    let barrier = Arc::new(Barrier::new(4));
    let breakdowns: Vec<LatencyBreakdown> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=4)
            .map(|i| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let response = service
                        .optimize(&distinct_layer(i), Objective::Energy, &mode())
                        .expect("concurrent solve");
                    assert!(!response.cache_hit && !response.coalesced);
                    response.breakdown
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let min_solve = breakdowns
        .iter()
        .map(|b| b.solve_ms)
        .fold(f64::MAX, f64::min);
    let max_wait = breakdowns
        .iter()
        .map(|b| b.queue_wait_ms)
        .fold(0.0_f64, f64::max);
    assert!(min_solve > 0.0, "solve phase must be measured");
    assert!(
        max_wait >= min_solve,
        "most-delayed request waited {max_wait:.3}ms behind a pool whose \
         fastest solve took {min_solve:.3}ms — pile-up not attributed to queue_wait"
    );
    assert!(
        solo_breakdown.queue_wait_ms < max_wait,
        "sequential queue wait {:.3}ms should be below saturated max {max_wait:.3}ms",
        solo_breakdown.queue_wait_ms
    );

    // Flatness: the most-delayed request's solve is comparable to the
    // least-delayed one's — pool delay must not leak into the solve phase.
    let most_delayed = breakdowns
        .iter()
        .max_by(|a, b| a.queue_wait_ms.total_cmp(&b.queue_wait_ms))
        .unwrap();
    let least_delayed = breakdowns
        .iter()
        .min_by(|a, b| a.queue_wait_ms.total_cmp(&b.queue_wait_ms))
        .unwrap();
    assert!(
        most_delayed.solve_ms < 10.0 * least_delayed.solve_ms + 5.0,
        "solve inflated under queue depth: {:.3}ms vs {:.3}ms",
        most_delayed.solve_ms,
        least_delayed.solve_ms
    );

    // The instrumented locks recorded their acquisitions. (Phase
    // histograms are fed at the HTTP layer, which owns parse/serialize —
    // covered by `contention_surfaces_over_http`.)
    let snap = service.metrics().snapshot();
    for lock in ["solve_cache", "inflight"] {
        let observed = snap
            .locks
            .iter()
            .find(|l| l.lock == lock)
            .unwrap_or_else(|| panic!("lock {lock} missing from snapshot"));
        assert!(observed.acquisitions > 0, "{lock} never acquired");
        assert!(observed.wait_count > 0, "{lock} wait histogram empty");
    }
}

/// End-to-end over HTTP: the response body carries the breakdown, both
/// metrics formats export the phase and lock families, and
/// `/debug/contention` renders the same story.
#[test]
fn contention_surfaces_over_http() {
    let service = Arc::new(Service::new(
        quick_optimizer(),
        ServiceOptions {
            workers: 2,
            cache_capacity: 16,
            ..ServiceOptions::default()
        },
    ));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    let body = concat!(
        "{\"layer\": {\"name\": \"cont\", \"batch\": 1, \"out_channels\": 16, ",
        "\"in_channels\": 16, \"in_h\": 18, \"in_w\": 18, \"kernel_h\": 3, ",
        "\"kernel_w\": 3, \"stride\": 1}, \"objective\": \"energy\", ",
        "\"mode\": \"eyeriss\"}"
    );
    let request = format!(
        "POST /optimize HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, response) = http_exchange(port, &request);
    assert_eq!(status, 200);
    let parsed = Json::parse(body_of(&response)).expect("optimize JSON");
    let breakdown = parsed.get("breakdown").expect("breakdown in response");
    let mut total = 0.0;
    for phase in LatencyBreakdown::PHASES {
        let value = breakdown
            .get(&format!("{phase}_ms"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("phase {phase} missing from breakdown"));
        assert!(value >= 0.0);
        total += value;
    }
    assert!(total > 0.0, "a fresh solve takes nonzero time");

    // JSON metrics: phase histograms and per-lock wait/hold quantiles.
    let (status, metrics) = http_get(port, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(body_of(&metrics)).expect("metrics JSON");
    let phases = metrics.get("phases").expect("phases section");
    for phase in LatencyBreakdown::PHASES {
        assert!(phases.get(phase).is_some(), "phase {phase} missing");
    }
    // The optimize above went through the HTTP layer, so every phase
    // histogram saw at least that one request.
    assert!(
        phases
            .get("queue_wait")
            .and_then(|p| p.get("count"))
            .and_then(Json::as_u64)
            >= Some(1)
    );
    let locks = metrics.get("locks").expect("locks section");
    for lock in ["solve_cache", "inflight"] {
        let entry = locks
            .get(lock)
            .unwrap_or_else(|| panic!("lock {lock} missing"));
        assert!(entry.get("acquisitions").and_then(Json::as_u64) > Some(0));
        assert!(entry.get("wait_ms").and_then(|w| w.get("count")).is_some());
        assert!(entry.get("hold_ms").and_then(|h| h.get("p95")).is_some());
    }

    // Prometheus exposition: the same families as labelled series.
    let (status, prom) = http_get(port, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    let prom = body_of(&prom);
    assert!(prom.contains("thistle_phase_latency_ms{phase=\"queue_wait\""));
    assert!(prom.contains("thistle_lock_acquisitions_total{lock=\"solve_cache\"}"));
    assert!(prom.contains("thistle_lock_wait_ms{lock=\"inflight\""));
    assert!(prom.contains("thistle_lock_hold_ms{lock=\"solve_cache\""));

    // The dedicated debug endpoint decomposes per lock and per phase and
    // replays recent breakdowns.
    let (status, contention) = http_get(port, "/debug/contention");
    assert_eq!(status, 200);
    let contention = Json::parse(body_of(&contention)).expect("contention JSON");
    let locks = contention.get("locks").expect("locks");
    for lock in ["solve_cache", "inflight"] {
        let entry = locks
            .get(lock)
            .unwrap_or_else(|| panic!("lock {lock} missing"));
        assert!(entry
            .get("contention_rate")
            .and_then(Json::as_f64)
            .is_some());
    }
    let recent = contention
        .get("recent_breakdowns")
        .and_then(Json::as_arr)
        .expect("recent breakdowns");
    assert!(!recent.is_empty(), "the optimize above must be in the ring");
    assert!(recent[0].get("solve_ms").and_then(Json::as_f64).is_some());

    server.shutdown();
}
