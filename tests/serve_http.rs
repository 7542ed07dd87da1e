//! End-to-end test of the thistle-serve HTTP front end: a server on an
//! ephemeral port answers the same ResNet-18 layer twice, and the second
//! response is a cache hit with an identical design point (the acceptance
//! scenario for the serving layer).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use thistle_arch::TechnologyParams;
use thistle_repro::thistle::{Optimizer, OptimizerOptions};
use thistle_repro::thistle_serve::{HttpServer, Json, Service, ServiceOptions, BUILD_INFO};
use thistle_workloads::resnet18;

fn quick_service() -> Service {
    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 200,
            top_solutions: 1,
            threads: 2,
            ..OptimizerOptions::default()
        });
    Service::new(
        optimizer,
        ServiceOptions {
            workers: 2,
            cache_capacity: 32,
            ..ServiceOptions::default()
        },
    )
}

/// Minimal HTTP/1.1 client: one request per connection (the server replies
/// `Connection: close`), returning `(status, headers + body text)`.
fn http_raw(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
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
    (status, response)
}

/// As [`http_raw`], but parses the body as JSON.
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, response) = http_raw(port, method, path, body);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    (status, Json::parse(body).expect("JSON body"))
}

#[test]
fn second_post_of_the_same_resnet_layer_is_a_cache_hit() {
    let service = Arc::new(quick_service());
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    // The health probe names the build and the serving optimizer's solver
    // fingerprint.
    let (status, health) = http(port, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("build").and_then(Json::as_str), Some(BUILD_INFO));
    assert_eq!(
        health.get("fingerprint").and_then(Json::as_str),
        Some(service.fingerprint_digest())
    );

    // resnet_12 (Table II row 12: 512x512 channels, 7x7 image, 3x3 kernel),
    // sent as the documented POST /optimize schema.
    let layer = &resnet18()[11];
    let body = format!(
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
        layer.stride,
    );

    let (status, first) = http(port, "POST", "/optimize", &body);
    assert_eq!(status, 200, "first solve failed: {}", first.emit());
    assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(
        first.get("layer").and_then(Json::as_str),
        Some(layer.name.as_str())
    );

    let (status, second) = http(port, "POST", "/optimize", &body);
    assert_eq!(status, 200);
    assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));

    // Identical design point: same architecture, mapping, and evaluation
    // (f64s survive emission exactly — the emitter is round-trip shortest).
    for field in ["arch", "mapping", "eval"] {
        assert_eq!(
            first.get(field).expect(field).emit(),
            second.get(field).expect(field).emit(),
            "cached {field} differs from the fresh solve"
        );
    }

    // The hit is visible in GET /metrics, along with the stage histograms
    // the traced solve filled and the cache occupancy.
    let (status, metrics) = http(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(metrics.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("cache_misses").and_then(Json::as_u64), Some(1));
    let cache = metrics.get("cache").expect("cache block");
    assert_eq!(cache.get("len").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("capacity").and_then(Json::as_u64), Some(32));
    assert_eq!(cache.get("insertions").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("evictions").and_then(Json::as_u64), Some(0));
    let stages = metrics.get("stages").expect("stages block");
    for stage in [
        "request",
        "cache_lookup",
        "queue_wait",
        "gp_solve",
        "rescore",
    ] {
        let count = stages
            .get(stage)
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert!(count >= 1, "stage {stage} never recorded");
    }

    // The Prometheus rendering reports the same snapshot as the JSON one.
    let (status, prom) = http_raw(port, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    assert!(
        prom.contains("Content-Type: text/plain"),
        "prometheus response is text: {}",
        prom.lines().take(8).collect::<Vec<_>>().join(" | ")
    );
    assert!(prom.contains("thistle_requests_total 2"));
    assert!(prom.contains("thistle_cache_hits_total 1"));
    assert!(prom.contains("thistle_cache_len 1"));
    assert!(prom.contains("thistle_stage_count_total{stage=\"gp_solve\"}"));

    // The fresh solve filed a retrievable SolveReport (id 1); the cache hit
    // reused the cached design point and carries no solve id of its own.
    assert_eq!(first.get("solve_id").and_then(Json::as_u64), Some(1));
    assert_eq!(second.get("solve_id"), Some(&Json::Null));

    let (status, report) = http(port, "GET", "/debug/solves/1", "");
    assert_eq!(status, 200);
    assert_eq!(
        report.get("workload").and_then(Json::as_str),
        Some(layer.name.as_str())
    );
    assert!(report.get("newton_iterations").and_then(Json::as_u64) > Some(0));
    assert!(report.get("centering_steps").and_then(Json::as_u64) > Some(0));
    let gaps = report
        .get("gap_trajectory")
        .and_then(Json::as_arr)
        .expect("gap trajectory");
    assert!(!gaps.is_empty(), "gap trajectory never recorded");

    let (status, index) = http(port, "GET", "/debug/solves", "");
    assert_eq!(status, 200);
    assert_eq!(
        index
            .get("solves")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
    let (status, _) = http(port, "GET", "/debug/solves/99", "");
    assert_eq!(status, 404);

    // Both requests were tail-sampled as exemplars, and each one's full span
    // tree round-trips as Chrome-trace JSON.
    let (status, exemplars) = http(port, "GET", "/debug/exemplars", "");
    assert_eq!(status, 200);
    let list = exemplars
        .get("exemplars")
        .and_then(Json::as_arr)
        .expect("exemplar list");
    assert_eq!(list.len(), 2, "both requests retained as exemplars");
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
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("request")),
        "request span missing from the exemplar trace"
    );
    let (status, _) = http(port, "GET", "/debug/exemplars?id=9999", "");
    assert_eq!(status, 404);

    // Unknown routes 404, the retired debug views and frontier route
    // included; malformed bodies 400 with an error message.
    for path in [
        "/nope",
        "/debug/dashboard",
        "/debug/dashboard?diff=1,2",
        "/debug/timeseries",
        "/pareto",
        "/pareto?workload=x",
    ] {
        let (status, _) = http(port, "GET", path, "");
        assert_eq!(status, 404, "{path}");
    }
    let (status, err) = http(port, "POST", "/optimize", "{\"layer\": {\"batch\": 0}}");
    assert_eq!(status, 400);
    assert!(err.get("error").is_some());

    server.shutdown();
}
