//! Property tests for the hardened HTTP front end: adversarial byte soup,
//! truncated requests, oversized lines/bodies, and pipelined garbage must
//! all produce a clean error status (400/408/413, or 404 when the soup
//! happens to spell a routable request) — never a panic, a hang, or a
//! connection reset — and the server must keep answering `/healthz`
//! afterwards. A deterministic slowloris test covers the per-phase read
//! deadline, and layer payloads whose sizes overflow `u64` arithmetic must
//! get a 400.

use proptest::collection;
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::TechnologyParams;
use thistle_serve::{HttpOptions, HttpServer, Service, ServiceOptions};

fn quick_service() -> Service {
    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 300,
            top_solutions: 1,
            threads: 2,
            ..OptimizerOptions::default()
        });
    Service::new(
        optimizer,
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        },
    )
}

/// One server shared by all property tests in this binary (never shut
/// down; process exit reclaims it). Property cases each open one
/// connection, so a shared fixture keeps the suite fast.
fn shared_port() -> u16 {
    static SERVER: OnceLock<HttpServer> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let service = Arc::new(quick_service());
            HttpServer::start_with(
                service,
                "127.0.0.1:0",
                HttpOptions {
                    // Bounded so a case that keeps the socket open without
                    // a terminator cannot stall the suite.
                    header_timeout: Duration::from_secs(2),
                    body_timeout: Duration::from_secs(2),
                    ..HttpOptions::default()
                },
            )
            .expect("bind hardening server")
        })
        .port()
}

/// Sends raw bytes, half-closes the write side (so the server sees EOF
/// instead of waiting out its read deadline), and returns the full
/// response text.
fn exchange(port: u16, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).expect("send bytes");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
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

fn healthz_is_green(port: u16) -> bool {
    let response = exchange(
        port,
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    status_of(&response) == Some(200)
}

/// `POST /optimize` with `layer` fields spliced into an otherwise valid
/// body.
fn post_layer(layer_fields: &str) -> Vec<u8> {
    let body = format!(
        "{{\"layer\": {{\"name\": \"hard\", \"batch\": 1, {layer_fields}, \
         \"stride\": 1}}, \"objective\": \"energy\", \"mode\": \"eyeriss\"}}"
    );
    format!(
        "POST /optimize HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A syntactically complete request the truncation/pipelining strategies
/// start from.
fn valid_post() -> Vec<u8> {
    post_layer(concat!(
        "\"out_channels\": 16, \"in_channels\": 16, \"in_h\": 18, \"in_w\": 18, ",
        "\"kernel_h\": 3, \"kernel_w\": 3"
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes: the server always answers with a well-formed HTTP
    /// error (or 404 for accidentally-routable soup), never panics or
    /// resets, and stays healthy.
    #[test]
    fn byte_soup_gets_a_clean_error(bytes in collection::vec(0u8..=255u8, 0usize..512)) {
        let port = shared_port();
        let response = exchange(port, &bytes);
        let status = status_of(&response);
        prop_assert!(
            matches!(status, Some(s) if (400..600).contains(&s)),
            "soup of {} bytes got {:?}",
            bytes.len(),
            status
        );
        prop_assert!(healthz_is_green(port));
    }

    /// Any strict prefix of a valid request is answered 400: the EOF lands
    /// mid-line, mid-headers, or mid-body, and every one of those is a
    /// malformed request, not a hang or a reset.
    #[test]
    fn truncated_request_gets_400(permille in 1usize..1000) {
        let full = valid_post();
        let cut = (full.len() * permille / 1000).clamp(1, full.len() - 1);
        let port = shared_port();
        let response = exchange(port, &full[..cut]);
        let status = status_of(&response);
        prop_assert!(
            matches!(status, Some(400)),
            "cut at {cut} got {status:?}"
        );
        prop_assert!(healthz_is_green(port));
    }

    /// A Content-Length beyond the configured bound is refused with 413
    /// before any body byte is read.
    #[test]
    fn oversized_content_length_gets_413(excess in 1u64..1_000_000) {
        let port = shared_port();
        let declared = HttpOptions::default().max_body_bytes as u64 + excess;
        let request = format!(
            "POST /optimize HTTP/1.1\r\nHost: localhost\r\nContent-Length: {declared}\r\n\
             Connection: close\r\n\r\n"
        );
        let response = exchange(port, request.as_bytes());
        prop_assert_eq!(status_of(&response), Some(413));
        prop_assert!(healthz_is_green(port));
    }

    /// A single endless header line is cut off at the line bound with 413
    /// rather than buffered without limit.
    #[test]
    fn oversized_header_line_gets_413(extra in 1usize..4096) {
        let port = shared_port();
        let mut request = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        request.extend(std::iter::repeat_n(b'a', (8 << 10) + extra));
        request.extend_from_slice(b"\r\n\r\n");
        let response = exchange(port, &request);
        prop_assert_eq!(status_of(&response), Some(413));
        prop_assert!(healthz_is_green(port));
    }

    /// Garbage pipelined after a complete request does not corrupt the
    /// response to that request: the server answers it, drains the rest,
    /// and closes cleanly.
    #[test]
    fn pipelined_garbage_does_not_corrupt_the_response(
        garbage in collection::vec(0u8..=255u8, 1usize..256),
    ) {
        let port = shared_port();
        let mut request =
            b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n".to_vec();
        request.extend_from_slice(&garbage);
        let response = exchange(port, &request);
        prop_assert_eq!(status_of(&response), Some(200));
    }
}

#[test]
fn overflowing_layer_sizes_get_400() {
    let port = shared_port();
    let payloads = [
        // `dilation * (kernel - 1)` wraps to a span that seems to fit.
        "\"out_channels\": 64, \"in_channels\": 64, \"in_h\": 100, \"in_w\": 100, \
         \"kernel_h\": 4294967297, \"kernel_w\": 4294967297, \"dilation\": 4294967296",
        // The MAC count wraps.
        "\"out_channels\": 1099511627776, \"in_channels\": 1099511627776, \
         \"in_h\": 8, \"in_w\": 8, \"kernel_h\": 3, \"kernel_w\": 3",
    ];
    for fields in payloads {
        let response = exchange(port, &post_layer(fields));
        assert_eq!(status_of(&response), Some(400), "{fields}: {response}");
        assert!(healthz_is_green(port));
    }
}

#[test]
fn slowloris_header_dribble_is_cut_off_with_408() {
    // Dedicated server with a tight header deadline and its own metrics,
    // so the deadline counter assertion cannot race the shared fixture.
    let service = Arc::new(quick_service());
    let server = HttpServer::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        HttpOptions {
            header_timeout: Duration::from_millis(150),
            ..HttpOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(("127.0.0.1", server.port())).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Half a request line, then silence: the phase deadline must fire even
    // though the connection stays open.
    stream.write_all(b"GET /healthz HT").expect("send prefix");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert_eq!(status_of(&response), Some(408), "got: {response}");
    assert_eq!(service.metrics_snapshot().deadline_closed, 1);

    // The server survives the slow client and keeps serving.
    assert!(healthz_is_green(server.port()));
    server.shutdown();
}
