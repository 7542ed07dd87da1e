//! Acceptance tests for admission control and brown-out shedding: a
//! browned-out service refuses cold misses with `Overloaded` (503 +
//! Retry-After over HTTP) while cache hits and donor-backed warm starts
//! keep being served, and the overload counters land in the metrics
//! snapshot.
//!
//! Brown-out is driven deterministically by `queue_high_watermark: 0`:
//! with the high watermark at zero every admission check observes
//! `depth >= high`, so the service is permanently browned out without any
//! actual queue pressure — the policy alone is under test.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
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

fn quick_options() -> ServiceOptions {
    ServiceOptions {
        workers: 2,
        cache_capacity: 16,
        ..ServiceOptions::default()
    }
}

fn temp_atlas(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "thistle-overload-serve-{}-{tag}.bin",
        std::process::id()
    ))
}

fn mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

/// Donor shape: batch 2 so it qualifies as a warm-start donor for other
/// batch sizes of the same family.
fn donor_layer() -> ConvLayer {
    ConvLayer::new("ovl", 2, 16, 16, 18, 18, 3, 3, 1)
}

/// Same family as [`donor_layer`], different batch: a near-miss.
fn near_miss_layer() -> ConvLayer {
    ConvLayer::new("ovl", 4, 16, 16, 18, 18, 3, 3, 1)
}

/// Unrelated family: always a cold miss.
fn cold_layer() -> ConvLayer {
    ConvLayer::new("cold", 1, 32, 32, 20, 20, 5, 5, 1)
}

/// Builds a permanently browned-out service whose cache holds the donor
/// shape, by solving the donor under a healthy service first and handing
/// the atlas snapshot to the browned-out one.
fn browned_out_service_with_donor(tag: &str) -> Service {
    let path = temp_atlas(tag);
    std::fs::remove_file(&path).ok();
    {
        let healthy = Service::new(
            quick_optimizer(),
            ServiceOptions {
                atlas_path: Some(path.clone()),
                ..quick_options()
            },
        );
        let solved = healthy
            .optimize(&donor_layer(), Objective::Energy, &mode())
            .unwrap();
        assert!(!solved.cache_hit);
        // Drop = graceful drain, saves the atlas snapshot.
    }
    Service::new(
        quick_optimizer(),
        ServiceOptions {
            atlas_path: Some(path),
            queue_high_watermark: 0,
            ..quick_options()
        },
    )
}

#[test]
fn brownout_sheds_cold_misses_but_serves_hits_and_warm_starts() {
    let service = browned_out_service_with_donor("brownout");

    // A cache hit (restored from the atlas) never reaches admission.
    let hit = service
        .optimize(&donor_layer(), Objective::Energy, &mode())
        .unwrap();
    assert!(hit.cache_hit, "restored entry should serve as a cache hit");

    // A cold miss is shed: brown-out, base backoff (queue is empty).
    let err = service
        .optimize(&cold_layer(), Objective::Energy, &mode())
        .unwrap_err();
    match err {
        ServeError::Overloaded {
            retry_after,
            brownout,
        } => {
            assert!(brownout, "cold miss under brown-out, not a hard shed");
            assert_eq!(retry_after, Duration::from_secs(1));
        }
        other => panic!("expected a brown-out shed, got {other:?}"),
    }

    // A donor-backed miss (same family, different batch) is degraded
    // service the brown-out is designed to keep: admitted and solved.
    let near = service
        .optimize(&near_miss_layer(), Objective::Energy, &mode())
        .unwrap();
    assert!(!near.cache_hit);

    let snap = service.metrics_snapshot();
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.browned_out, 1);
    assert_eq!(snap.brownout_active, 1);
    assert_eq!(snap.near_miss_hits, 1, "warm start ran under brown-out");

    // The same cold shape is still shed — brown-out never latched off
    // (low watermark 0 means `depth <= low` re-arms only at depth 0, but
    // the high watermark wins first).
    assert!(matches!(
        service
            .optimize(&cold_layer(), Objective::Energy, &mode())
            .unwrap_err(),
        ServeError::Overloaded { brownout: true, .. }
    ));
    assert_eq!(service.metrics_snapshot().shed, 2);
}

/// Raw one-shot request; returns (status, full header block, body).
fn http_raw(port: u16, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    (status, head.to_string(), body.to_string())
}

fn optimize_body(layer: &ConvLayer) -> String {
    format!(
        concat!(
            "{{\"layer\": {{\"name\": \"{}\", \"batch\": {}, \"out_channels\": {}, ",
            "\"in_channels\": {}, \"in_h\": {}, \"in_w\": {}, \"kernel_h\": {}, ",
            "\"kernel_w\": {}, \"stride\": {}}}, \"objective\": \"energy\", ",
            "\"mode\": \"eyeriss\"}}"
        ),
        layer.name,
        layer.batch,
        layer.out_channels,
        layer.in_channels,
        layer.in_h,
        layer.in_w,
        layer.kernel_h,
        layer.kernel_w,
        layer.stride
    )
}

fn post_optimize(port: u16, layer: &ConvLayer) -> (u16, String, String) {
    let body = optimize_body(layer);
    http_raw(
        port,
        &format!(
            "POST /optimize HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn browned_out_server_returns_503_with_retry_after_and_stays_healthy() {
    let service = Arc::new(browned_out_service_with_donor("http"));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    // Cold miss over HTTP: 503 with a Retry-After advertising the backoff.
    let (status, head, body) = post_optimize(port, &cold_layer());
    assert_eq!(status, 503, "cold miss browned out: {body}");
    let retry_after = head
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("shed response carries Retry-After");
    assert_eq!(retry_after.trim(), "1");
    let parsed = Json::parse(&body).expect("JSON error body");
    assert!(
        parsed
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("brown-out")),
        "error names the brown-out: {body}"
    );

    // The cache hit and the donor-backed near miss are served.
    let (status, _, _) = post_optimize(port, &donor_layer());
    assert_eq!(status, 200, "cache hit served during brown-out");
    let (status, _, _) = post_optimize(port, &near_miss_layer());
    assert_eq!(status, 200, "warm start served during brown-out");

    // Liveness never degrades: /healthz is exempt from admission.
    let (status, _, _) = http_raw(
        port,
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);

    server.shutdown();
}
