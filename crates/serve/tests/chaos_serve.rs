//! Chaos tests for the hardened serve layer: panic a solve worker with
//! `thistle-fault` and check that the pool respawns it, the service retries
//! transparently (or surfaces a clean error), a shape that keeps failing is
//! still answered every time, and abandoned solves are cancelled rather than
//! leaked.
//!
//! Compiled only with `--features fault-inject`; plan guards serialize the
//! tests against the process-global registry.
#![cfg(feature = "fault-inject")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use thistle::{OptimizeError, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_fault::FaultPlan;
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_serve::{HttpServer, Json, ServeError, Service, ServiceOptions};

fn quick_optimizer() -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 9,
        candidate_limit: 300,
        top_solutions: 1,
        threads: 2,
        ..OptimizerOptions::default()
    })
}

fn service(options: ServiceOptions) -> Service {
    Service::new(quick_optimizer(), options)
}

fn layer() -> ConvLayer {
    ConvLayer::new("chaos", 1, 16, 16, 18, 18, 3, 3, 1)
}

fn mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

#[test]
fn panicked_worker_is_respawned_and_the_request_retried_transparently() {
    // First pool job panics; the retry (a fresh job, second site hit) runs
    // clean on the respawned worker.
    let _guard = FaultPlan::parse("serve.pool.panic@1").unwrap().install();
    let service = service(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    let first = service
        .optimize(&layer(), Objective::Energy, &mode())
        .unwrap();
    assert!(!first.cache_hit);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.worker_respawns, 1);
    assert_eq!(snap.solve_retries, 1);
    assert_eq!(snap.solve_errors, 0, "panic was retried, not surfaced");
    // The pool kept its capacity: the next request is served (from cache).
    let second = service
        .optimize(&layer(), Objective::Energy, &mode())
        .unwrap();
    assert!(second.cache_hit);
}

#[test]
fn without_retries_the_panic_surfaces_as_a_clean_error() {
    // Every attempt the retry limit allows (the first and two retries)
    // panics, so the request fails.
    let _guard = FaultPlan::parse("serve.pool.panic@1x3").unwrap().install();
    let service = service(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    let err = service
        .optimize(&layer(), Objective::Energy, &mode())
        .unwrap_err();
    match err {
        ServeError::Optimize(OptimizeError::Internal(msg)) => {
            assert!(msg.contains("panicked"), "unexpected message: {msg}");
        }
        other => panic!("expected a contained internal error, got {other:?}"),
    }
    // The worker respawned; the same shape solves fine on the next request.
    let ok = service
        .optimize(&layer(), Objective::Energy, &mode())
        .unwrap();
    assert!(!ok.cache_hit);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.worker_respawns, 3);
    assert_eq!(snap.solve_retries, 2);
}

#[test]
fn a_failing_shape_is_answered_every_time() {
    // The first 18 pool jobs panic: six requests, each with its first
    // attempt and two retries. Every one of them reaches a worker and gets
    // the contained error; none is refused without a solve.
    let _guard = FaultPlan::parse("serve.pool.panic@1x18").unwrap().install();
    let service = service(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    let (layer, mode) = (layer(), mode());
    let solve = || service.optimize(&layer, Objective::Energy, &mode);

    for request in 1..=6 {
        match solve().unwrap_err() {
            ServeError::Optimize(OptimizeError::Internal(_)) => {}
            other => panic!("request {request}: expected a contained panic, got {other:?}"),
        }
    }
    // The plan is spent: the seventh request solves fresh, the eighth hits
    // the cache it filled.
    assert!(!solve().unwrap().cache_hit);
    assert!(solve().unwrap().cache_hit);

    let snap = service.metrics_snapshot();
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.worker_respawns, 18);
    assert_eq!(snap.solve_retries, 12);
}

#[test]
fn queue_full_fault_sheds_the_request_with_retry_after() {
    // The injected `serve.queue.full` makes admission behave as if the work
    // queue hit its hard cap on the first cold miss; the second request
    // (site no longer firing) is admitted and solves normally.
    let _guard = FaultPlan::parse("serve.queue.full@1").unwrap().install();
    let service = service(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    });
    let err = service
        .optimize(&layer(), Objective::Energy, &mode())
        .unwrap_err();
    match err {
        ServeError::Overloaded {
            retry_after,
            brownout,
        } => {
            // Queue depth is 0, so the backoff is the 1 s base interval.
            assert_eq!(retry_after, Duration::from_secs(1));
            assert!(!brownout, "hard shed, not a brown-out");
        }
        other => panic!("expected an overload shed, got {other:?}"),
    }
    let snap = service.metrics_snapshot();
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.browned_out, 0);
    // The shed request never reached a worker; the retry solves fresh.
    let ok = service
        .optimize(&layer(), Objective::Energy, &mode())
        .unwrap();
    assert!(!ok.cache_hit);
}

#[test]
fn slow_read_fault_closes_the_connection_with_408_and_recovers() {
    // `serve.conn.slow_read` simulates a client that never delivers its
    // request bytes before the header deadline: the first connection is
    // answered with 408 and closed; the next one is served normally.
    let _guard = FaultPlan::parse("serve.conn.slow_read@1")
        .unwrap()
        .install();
    let service = Arc::new(service(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    }));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    let (status, body) = http(port, "GET", "/healthz", "");
    assert_eq!(status, 408, "stalled connection times out: {}", body.emit());
    assert_eq!(service.metrics_snapshot().deadline_closed, 1);

    let (status, _) = http(port, "GET", "/healthz", "");
    assert_eq!(status, 200, "server healthy after the deadline close");

    server.shutdown();
}

/// One-shot HTTP/1.1 client (the server replies `Connection: close`),
/// returning `(status, parsed JSON body)`.
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    (status, Json::parse(body).expect("JSON body"))
}

#[test]
fn recovered_nan_solve_is_introspectable_via_the_debug_endpoints() {
    // Poison the first Newton attempt of every GP solve with a NaN iterate:
    // the recovery ladder rescues each one, and the introspection surfaces
    // show the incident after the fact — the SolveReport records which rung
    // recovered the solve, and the exemplar sink retains the request's full
    // span tree as a retrievable Chrome trace.
    let _guard = FaultPlan::parse("gp.solve.nan<1").unwrap().install();
    let service = Arc::new(service(ServiceOptions {
        workers: 1,
        cache_capacity: 16,
        ..ServiceOptions::default()
    }));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    let body = concat!(
        "{\"layer\": {\"name\": \"chaos\", \"batch\": 1, \"out_channels\": 16, ",
        "\"in_channels\": 16, \"in_h\": 18, \"in_w\": 18, \"kernel_h\": 3, ",
        "\"kernel_w\": 3, \"stride\": 1}, \"objective\": \"energy\", ",
        "\"mode\": \"eyeriss\"}"
    );
    let (status, response) = http(port, "POST", "/optimize", body);
    assert_eq!(status, 200, "faulted solve failed: {}", response.emit());
    let solve_id = response
        .get("solve_id")
        .and_then(Json::as_u64)
        .expect("fresh solve carries a solve id");

    // The report for that id shows the ladder at work on the winning solve.
    let (status, report) = http(port, "GET", &format!("/debug/solves/{solve_id}"), "");
    assert_eq!(status, 200);
    assert!(
        report.get("recovery_attempts").and_then(Json::as_u64) >= Some(2),
        "recovery attempts missing from the report: {}",
        report.emit()
    );
    assert_eq!(
        report.get("recovered_by").and_then(Json::as_str),
        Some("tikhonov-ridge"),
        "recovery rung missing from the report: {}",
        report.emit()
    );

    // The request's span tree survived in the exemplar sink and round-trips
    // as Chrome-trace JSON, gp_solve span included.
    let (status, exemplars) = http(port, "GET", "/debug/exemplars", "");
    assert_eq!(status, 200);
    let list = exemplars
        .get("exemplars")
        .and_then(Json::as_arr)
        .expect("exemplar list");
    assert!(!list.is_empty(), "faulted request not retained as exemplar");
    let id = list[0]
        .get("id")
        .and_then(Json::as_u64)
        .expect("exemplar id");
    let (status, trace) = http(port, "GET", &format!("/debug/exemplars?id={id}"), "");
    assert_eq!(status, 200);
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("Chrome-trace events");
    for span in ["request", "gp_solve"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(span)),
            "{span} span missing from the exemplar trace"
        );
    }

    server.shutdown();
}

#[test]
fn abandoned_solve_is_cancelled_not_leaked() {
    // The solve's first barrier loop holds until its cancellation token
    // fires, so the request times out mid-solve however fast the solve
    // would otherwise finish; the barrier's own deadline poll then stops
    // it. The hold fires once, so the fresh solve below runs free.
    let _guard = FaultPlan::parse("gp.solve.hold@1").unwrap().install();
    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            threads: 2,
            ..OptimizerOptions::default()
        });
    let service = Service::new(
        optimizer,
        ServiceOptions {
            workers: 1,
            cache_capacity: 16,
            ..ServiceOptions::default()
        },
    );
    let layer = ConvLayer::new("slow", 1, 64, 64, 56, 56, 3, 3, 1);
    let err = service
        .optimize_with_timeout(
            &layer,
            Objective::Energy,
            &mode(),
            Duration::from_millis(50),
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::Timeout));
    // The orphaned solve observes the cancel at its next barrier step and
    // stands down (counted as a cancellation, not a solve error).
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let snap = service.metrics_snapshot();
        if snap.cancelled_solves >= 1 {
            assert_eq!(snap.solve_errors, 0);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cancelled solve never recorded"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The flight was cleaned up: the same shape solves fresh afterwards.
    let ok = service
        .optimize_with_timeout(&layer, Objective::Energy, &mode(), Duration::from_secs(300))
        .unwrap();
    assert!(!ok.cache_hit);
}
