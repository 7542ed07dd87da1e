//! The accept loop's connection cap, parked backlog and shutdown, driven
//! over real sockets with one slot and one backlog place. A client that
//! sends only its request line holds the slot; the next complete request
//! parks; the one after that is fast-rejected. Finishing the holder must
//! hand the slot straight to the parked socket, and `shutdown` must close
//! parked sockets unserved, wait for the holder, and wake promptly on a
//! wildcard bind.
//!
//! Connections are admitted in the order their handshakes complete, so
//! each step's connect returning before the next one starts fixes who
//! holds the slot, who parks and who is rejected.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use thistle::Optimizer;
use thistle_arch::TechnologyParams;
use thistle_serve::{HttpOptions, HttpServer, Json, Service, ServiceOptions};

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";

/// Only `/healthz` and `/metrics` are requested, so nothing is solved.
fn quick_service() -> Service {
    Service::new(
        Optimizer::new(TechnologyParams::cgo2022_45nm()),
        ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        },
    )
}

/// One connection slot and one backlog place.
fn one_slot_server(service: &Arc<Service>, header_timeout: Duration) -> HttpServer {
    HttpServer::start_with(
        Arc::clone(service),
        "127.0.0.1:0",
        HttpOptions {
            max_connections: 1,
            accept_backlog: 1,
            header_timeout,
            ..HttpOptions::default()
        },
    )
    .expect("bind one-slot server")
}

fn connect(port: u16) -> TcpStream {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    stream
}

/// Reads until the server closes. Every response ends with the server's
/// half-close, so this returns as soon as the response is complete.
fn read_response(mut stream: TcpStream, what: &str) -> String {
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .unwrap_or_else(|e| panic!("{what}: no complete response: {e}"));
    String::from_utf8_lossy(&response).into_owned()
}

fn status_of(response: &str) -> Option<u16> {
    response
        .strip_prefix("HTTP/1.1 ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Holds the one slot with a bare request line, parks a complete request
/// behind it, and checks that the next connection is fast-rejected, which
/// also shows that the backlog place is taken.
fn fill_slot_and_backlog(server: &HttpServer, service: &Service) -> (TcpStream, TcpStream) {
    let port = server.port();
    let mut holder = connect(port);
    holder
        .write_all(b"GET /healthz HTTP/1.1\r\n")
        .expect("send request line");
    let mut parked = connect(port);
    parked.write_all(HEALTHZ).expect("send parked request");

    let rejected = read_response(connect(port), "third connection");
    assert_eq!(status_of(&rejected), Some(503), "{rejected}");
    assert!(rejected.contains("\r\nRetry-After: 1\r\n"), "{rejected}");
    assert_eq!(service.metrics_snapshot().conn_capped, 1);
    assert_eq!(server.active_connections(), 1);
    (holder, parked)
}

#[test]
fn a_finishing_connection_serves_the_parked_socket() {
    let service = Arc::new(quick_service());
    let server = one_slot_server(&service, Duration::from_secs(30));
    let port = server.port();
    let (mut holder, parked) = fill_slot_and_backlog(&server, &service);

    holder
        .write_all(b"Host: localhost\r\n\r\n")
        .expect("finish the held request");
    let finished = Instant::now();
    let held = read_response(holder, "holder");
    assert_eq!(status_of(&held), Some(200), "{held}");
    let answered = read_response(parked, "parked socket");
    let handoff = finished.elapsed();
    assert_eq!(status_of(&answered), Some(200), "{answered}");
    assert!(
        handoff < Duration::from_secs(1),
        "the parked socket waited {handoff:?} after the holder finished"
    );

    let mut metrics = connect(port);
    metrics
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send metrics request");
    let metrics = read_response(metrics, "metrics");
    assert_eq!(status_of(&metrics), Some(200), "{metrics}");
    let body = metrics.split_once("\r\n\r\n").expect("header/body split").1;
    let snapshot = Json::parse(body).expect("metrics JSON");
    assert_eq!(
        snapshot.get("conn_capped").and_then(Json::as_u64),
        Some(1),
        "{body}"
    );

    server.shutdown();
    // Connection threads drop their service handle before freeing their
    // slot, so a drained shutdown leaves this the only reference.
    assert!(
        Arc::into_inner(service).is_some(),
        "a connection thread still held the service after shutdown"
    );
}

#[test]
fn shutdown_closes_parked_sockets_unserved_and_waits_for_the_holder() {
    const HEADER_TIMEOUT: Duration = Duration::from_millis(300);
    let service = Arc::new(quick_service());
    let server = one_slot_server(&service, HEADER_TIMEOUT);
    let holder_connected = Instant::now();
    let (holder, mut parked) = fill_slot_and_backlog(&server, &service);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        holder_connected.elapsed() >= HEADER_TIMEOUT,
        "shutdown returned before the holder's header deadline"
    );
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    let held = read_response(holder, "holder");
    assert_eq!(status_of(&held), Some(408), "{held}");

    let mut unserved = Vec::new();
    match parked.read_to_end(&mut unserved) {
        Ok(_) => {}
        Err(e) => assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "the parked socket was left open: {e}"
        ),
    }
    assert!(
        unserved.is_empty(),
        "the parked socket was served: {}",
        String::from_utf8_lossy(&unserved)
    );
}

#[test]
fn a_wildcard_bind_shuts_down_promptly() {
    let server = HttpServer::start(Arc::new(quick_service()), "0.0.0.0:0").expect("bind wildcard");
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}
