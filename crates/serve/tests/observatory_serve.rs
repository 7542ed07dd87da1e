//! Acceptance tests for the continuous performance observatory in the serve
//! tier (DESIGN.md §13): build/fingerprint stamping in `GET /healthz` and
//! the durable metrics time-series — one ring file surviving a service
//! restart, with both process lives visible as fingerprint-stamped segments.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::TechnologyParams;
use thistle_atlas::TimeSeriesFile;
use thistle_serve::{HttpServer, Json, Service, ServiceOptions, BUILD_INFO};

fn quick_optimizer() -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 9,
        candidate_limit: 200,
        top_solutions: 1,
        threads: 2,
        ..OptimizerOptions::default()
    })
}

fn temp_ts(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "thistle-observatory-{}-{tag}.ts",
        std::process::id()
    ))
}

fn observed_options(path: &Path) -> ServiceOptions {
    ServiceOptions {
        workers: 2,
        cache_capacity: 16,
        default_timeout: Duration::from_secs(300),
        timeseries_path: Some(path.to_path_buf()),
        // Long cadence: the test drives samples via the startup append, the
        // explicit recorder, and the final flush on drop — not the timer.
        timeseries_every: Duration::from_secs(3600),
        timeseries_max_records: 256,
        ..ServiceOptions::default()
    }
}

/// Minimal HTTP/1.1 GET against a local server; returns (status, full
/// response text including headers).
fn http_get(port: u16, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, response)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

#[test]
fn timeseries_survives_a_service_restart_with_one_fingerprint() {
    let path = temp_ts("restart");
    let _ = std::fs::remove_file(&path);

    // First life: startup sample, one explicit sample, final flush on drop.
    let first_digest;
    {
        let service = Service::new(quick_optimizer(), observed_options(&path));
        first_digest = service.fingerprint_digest();
        assert!(service.record_timeseries_sample().expect("sample"));
    }

    // Second life: same file, same solver configuration.
    let second_digest;
    {
        let service = Service::new(quick_optimizer(), observed_options(&path));
        second_digest = service.fingerprint_digest();
        let load = service
            .load_timeseries()
            .expect("timeseries configured")
            .expect("load");
        // The restarted service reads its predecessor's records: at least
        // startup + explicit + final-flush from life one, plus its own
        // startup sample.
        assert!(
            load.records.len() >= 4,
            "expected both lives' samples, got {}",
            load.records.len()
        );
        assert_eq!(load.skipped_records, 0);
    }
    assert_eq!(
        first_digest, second_digest,
        "same solver configuration must fingerprint identically"
    );

    // The series is continuous across both lives: monotone timestamps, every
    // record stamped with the same fingerprint and build.
    let load = TimeSeriesFile::open(&path, 256).load().expect("load");
    std::fs::remove_file(&path).ok();
    assert!(load.records.len() >= 4);
    for pair in load.records.windows(2) {
        assert!(
            pair[0].ts_unix_ms <= pair[1].ts_unix_ms,
            "time went backwards"
        );
    }
    for record in &load.records {
        assert_eq!(record.fingerprint_digest(), first_digest);
        assert_eq!(record.build, BUILD_INFO);
    }
}

#[test]
fn observatory_endpoints_serve_timeseries() {
    let path = temp_ts("http");
    let _ = std::fs::remove_file(&path);
    let service = Arc::new(Service::new(quick_optimizer(), observed_options(&path)));
    let digest = service.fingerprint_digest();
    assert!(service.record_timeseries_sample().expect("sample"));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    // /healthz carries the build string and the solver fingerprint.
    let (status, health) = http_get(port, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(body_of(&health)).expect("healthz JSON");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("build").and_then(Json::as_str), Some(BUILD_INFO));
    assert_eq!(
        health.get("fingerprint").and_then(Json::as_str),
        Some(digest.as_str())
    );

    // /debug/timeseries groups the durable records into fingerprint-stamped
    // segments.
    let (status, series) = http_get(port, "/debug/timeseries");
    assert_eq!(status, 200);
    let series = Json::parse(body_of(&series)).expect("timeseries JSON");
    let segments = series
        .get("segments")
        .and_then(Json::as_arr)
        .expect("segments");
    assert_eq!(segments.len(), 1, "one process life, one segment");
    assert_eq!(
        segments[0].get("fingerprint").and_then(Json::as_str),
        Some(digest.as_str())
    );
    assert_eq!(
        segments[0].get("build").and_then(Json::as_str),
        Some(BUILD_INFO)
    );
    assert!(segments[0].get("records").and_then(Json::as_u64) >= Some(2));
    let records = series
        .get("records")
        .and_then(Json::as_arr)
        .expect("records");
    assert!(records.len() >= 2);

    // The dashboard embeds the time-series section.
    let (status, page) = http_get(port, "/debug/dashboard");
    assert_eq!(status, 200);
    assert!(page.contains("Metrics time-series"));
    assert!(page.contains(digest.as_str()));

    server.shutdown();
    drop(service);
    std::fs::remove_file(&path).ok();
}

#[test]
fn timeseries_endpoint_is_404_when_not_configured() {
    let service = Arc::new(Service::new(
        quick_optimizer(),
        ServiceOptions {
            workers: 2,
            cache_capacity: 16,
            default_timeout: Duration::from_secs(300),
            ..ServiceOptions::default()
        },
    ));
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let (status, body) = http_get(server.port(), "/debug/timeseries");
    assert_eq!(status, 404);
    assert!(body.contains("no metrics time-series configured"));
    server.shutdown();
}
