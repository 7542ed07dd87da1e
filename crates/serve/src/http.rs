//! Hand-rolled HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! Endpoints:
//!
//! * `POST /optimize` — body: a JSON request (see [`parse_optimize_request`]
//!   for the schema); response: the design point, with `cache_hit` /
//!   `coalesced` flags and a `breakdown` object decomposing the request's
//!   wall-clock time into parse / queue-wait / lock-wait / coalesce-wait /
//!   solve / serialize phases.
//! * `GET /metrics` — counters, cache hit rate and occupancy, p50/p95 solve
//!   latency, per-stage histograms, in-flight gauge. Append
//!   `?format=prometheus` for text exposition instead of JSON; both formats
//!   render the same [`crate::metrics::MetricsSnapshot`].
//! * `GET /healthz` — liveness probe, stamped with the build info and the
//!   serving optimizer's solver-fingerprint digest.
//! * `GET /debug/contention` — the contention observatory: per-named-lock
//!   wait/hold histograms with contention rates, per-phase request-latency
//!   histograms, and the most recent per-request breakdowns.
//! * `GET /debug/exemplars` — index of the tail-sampled exemplar traces;
//!   `?id=N` returns one trace as a Chrome `trace_event` document.
//! * `GET /debug/solves` and `GET /debug/solves/<id>` — convergence reports
//!   of recent fresh solves (Newton iterations per centering step, gap
//!   trajectory, recovery and prefilter counters).
//!
//! One thread per connection (`Connection: close`). The accept thread
//! blocks in `accept`; past the connection cap, sockets park in a bounded
//! backlog, and a finishing connection serves the oldest parked socket on
//! its own thread. `shutdown` wakes `accept` with one loopback connect,
//! closes parked sockets unserved, and waits on a condvar (bounded) for
//! active connections to drain, so no request and no shutdown waits on a
//! timer.

use crate::json::{num_u64, Json};
use crate::metrics::{locks_json, summaries_json};
use crate::service::{ServeError, Service};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;
use thistle::{DesignPoint, SolveReport};
use thistle_arch::ArchConfig;
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};

/// Largest accepted request body; optimize requests are a few hundred bytes.
const MAX_BODY: usize = 1 << 20;
/// Longest accepted request/header line (the request line is one line).
const MAX_LINE: usize = 8 << 10;
/// Total header bytes accepted per request.
const MAX_HEADER_BYTES: usize = 32 << 10;
/// How long `shutdown` waits for in-flight connections to finish.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error cannot spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);
/// Socket write deadline: a client that stops reading its response cannot
/// hold the connection slot forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Write deadline for accept-side fast rejects; these go to clients already
/// misbehaving, so they get much less patience.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// Monotonic connection ids, keying the `serve.conn.slow_read` fault site.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(0);

/// Front-end hardening knobs (the service-level admission control lives in
/// [`crate::ServiceOptions`]; these bound the protocol layer itself).
#[derive(Debug, Clone)]
pub struct HttpOptions {
    /// Connections served concurrently; one thread each.
    pub max_connections: usize,
    /// Accepted-but-unserved connections parked while at the cap. Beyond
    /// this the accept loop writes an immediate `503 + Retry-After` and
    /// hangs up.
    pub accept_backlog: usize,
    /// Read deadline covering the request line and headers: a client must
    /// deliver each fragment within this window or the connection closes
    /// with `408` (slowloris defense).
    pub header_timeout: Duration,
    /// Read deadline for body bytes, reset when the header phase ends.
    pub body_timeout: Duration,
    /// Largest accepted `Content-Length`; larger requests get `413`.
    pub max_body_bytes: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            max_connections: 64,
            accept_backlog: 128,
            header_timeout: Duration::from_secs(5),
            body_timeout: Duration::from_secs(10),
            max_body_bytes: MAX_BODY,
        }
    }
}

/// A running HTTP server.
pub struct HttpServer {
    /// The bound address with loopback in place of a wildcard IP: where
    /// `shutdown` connects to wake the blocked `accept`.
    wake_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    slots: Arc<Slots>,
    accept_loop: Option<JoinHandle<()>>,
}

/// The connections being served and the sockets parked while every slot
/// is busy, under one lock: a socket parks only while the slots are full,
/// and a finishing connection hands its slot straight to the oldest parked
/// socket, so the backlog drains in arrival order without the accept loop.
#[derive(Default)]
struct Slots {
    state: Mutex<SlotState>,
    /// Notified when the last served connection frees its slot.
    drained: Condvar,
}

#[derive(Default)]
struct SlotState {
    active: usize,
    parked: VecDeque<TcpStream>,
}

impl Slots {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // Every update is one counter step or one queue push/pop, so the
        // state is valid even if a holder panicked.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A served connection is done with its slot: the oldest parked socket
    /// takes it over, or, with none parked, it frees.
    fn finish(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        let next = state.parked.pop_front();
        if next.is_none() {
            state.active -= 1;
            if state.active == 0 {
                self.drained.notify_all();
            }
        }
        next
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting in a background thread with default [`HttpOptions`].
    pub fn start(service: Arc<Service>, addr: &str) -> std::io::Result<HttpServer> {
        HttpServer::start_with(service, addr, HttpOptions::default())
    }

    /// [`HttpServer::start`] with explicit hardening options.
    pub fn start_with(
        service: Arc<Service>,
        addr: &str,
        options: HttpOptions,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let slots = Arc::new(Slots::default());
        let accept_loop = {
            let shutdown = Arc::clone(&shutdown);
            let slots = Arc::clone(&slots);
            let max_connections = options.max_connections.max(1);
            std::thread::Builder::new()
                .name("thistle-http-accept".into())
                .spawn(move || {
                    let weak_service = Arc::downgrade(&service);
                    loop {
                        let accepted = listener.accept();
                        // Pairs with the `Release` store in `stop_and_drain`,
                        // which precedes the connect that wakes this `accept`.
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok((stream, _)) = accepted else {
                            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                            continue;
                        };
                        let mut state = slots.lock();
                        if state.active < max_connections {
                            state.active += 1;
                            drop(state);
                            serve(stream, &weak_service, &slots, &options);
                        } else if state.parked.len() < options.accept_backlog {
                            state.parked.push_back(stream);
                        } else {
                            drop(state);
                            service.metrics().record_conn_capped();
                            fast_reject(stream);
                        }
                    }
                })?
        };
        Ok(HttpServer {
            wake_addr,
            shutdown,
            slots,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound port (useful with `"...:0"`).
    pub fn port(&self) -> u16 {
        self.wake_addr.port()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.slots.lock().active
    }

    /// Graceful shutdown: stop accepting, close parked connections, then
    /// wait (bounded) for in-flight connections to drain.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocked `accept`: the loop sees the flag as it returns
        // and drops this connection unserved.
        let _ = TcpStream::connect(self.wake_addr);
        if let Some(handle) = self.accept_loop.take() {
            let _ = handle.join();
        }
        // Parked sockets close unserved; served ones get to finish.
        let mut state = self.slots.lock();
        state.parked.clear();
        let _ = self
            .slots
            .drained
            .wait_timeout_while(state, DRAIN_TIMEOUT, |state| state.active > 0);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.accept_loop.is_some() {
            self.stop_and_drain();
        }
    }
}

/// Serves `stream`, which already holds a slot, on a new thread. That
/// thread goes on to serve parked sockets while any are waiting, then frees
/// the slot. If no thread can be spawned, the socket closes unserved and
/// its slot passes on the same way.
fn serve(
    mut stream: TcpStream,
    service: &Weak<Service>,
    slots: &Arc<Slots>,
    options: &HttpOptions,
) {
    loop {
        let service = Weak::clone(service);
        let thread_slots = Arc::clone(slots);
        let options = options.clone();
        let spawned = std::thread::Builder::new()
            .name("thistle-http-conn".into())
            .spawn(move || {
                let mut next = Some(stream);
                while let Some(stream) = next {
                    // Contain handler panics to the one connection. The
                    // service handle drops before the slot frees, so a
                    // drained `shutdown` leaves its caller holding the
                    // only strong reference.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if let Some(service) = service.upgrade() {
                            handle_connection(stream, &service, &options);
                        }
                    }));
                    next = thread_slots.finish();
                }
            });
        if spawned.is_ok() {
            return;
        }
        match slots.finish() {
            Some(parked) => stream = parked,
            None => return,
        }
    }
}

struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

/// A rendered response body with its content type.
enum Body {
    Json(Json),
    Text(String),
    /// Pre-rendered JSON text (e.g. Chrome-trace documents).
    RawJson(String),
}

/// A response: status, body, and optional extra headers (currently only
/// `Retry-After`, attached to admission-control sheds).
struct Reply {
    status: u16,
    body: Body,
    retry_after_secs: Option<u64>,
}

impl Reply {
    fn new(status: u16, body: Body) -> Reply {
        Reply {
            status,
            body,
            retry_after_secs: None,
        }
    }
}

/// Writes a raw `503 + Retry-After` from the accept loop when both the
/// connection cap and the backlog are full, then hangs up. No parsing, no
/// allocation per request — the cheapest possible answer under overload.
fn fast_reject(stream: TcpStream) {
    // Off-thread so a client that won't read (or keeps writing) can never
    // slow the accept loop; the thread self-bounds at REJECT_WRITE_TIMEOUT
    // per socket operation and one drain deadline overall.
    let _ = std::thread::Builder::new()
        .name("thistle-http-reject".into())
        .spawn(move || {
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
            let _ = stream.set_read_timeout(Some(REJECT_WRITE_TIMEOUT));
            let body = "{\"error\":\"server at connection capacity\"}";
            let _ = stream.write_all(
                format!(
                    "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            drain_and_close(&stream);
        });
}

/// Close protocol that cannot destroy the response: half-close the write
/// side, then discard whatever request bytes the client still has in
/// flight until EOF or a short deadline. Dropping a socket with unread
/// data sends a TCP RST, which can discard a just-written reply before
/// the client reads it — turning a polite 4xx/503 into a connection
/// reset. Well-behaved clients see EOF and hang up immediately, so the
/// deadline only binds for misbehaving ones.
fn drain_and_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(REJECT_WRITE_TIMEOUT));
    let deadline = std::time::Instant::now() + REJECT_WRITE_TIMEOUT;
    let mut discard = [0u8; 1024];
    while std::time::Instant::now() < deadline {
        match std::io::Read::read(&mut &*stream, &mut discard) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Why a request could not be parsed, mapped onto distinct status codes so
/// clients can tell their own bug (`400`), an over-limit request (`413`),
/// and a connection that was simply too slow (`408`) apart.
enum ParseError {
    /// Syntactically broken request: bad request line, bad header, non-UTF-8
    /// content, or a mid-request disconnect. Rendered as `400`.
    Malformed(String),
    /// A configured size bound was exceeded. Rendered as `413`.
    TooLarge(String),
    /// A read phase overran its deadline (slowloris defense). Rendered as
    /// `408` and counted in `deadline_closed`.
    Deadline,
}

/// Folds socket errors into the parse taxonomy: timeout kinds (both of
/// them — platforms disagree) mean the phase deadline fired; anything else
/// is a malformed/aborted request.
fn io_parse_error(e: &std::io::Error) -> ParseError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ParseError::Deadline,
        _ => ParseError::Malformed(format!("read error: {e}")),
    }
}

fn handle_connection(stream: TcpStream, service: &Service, options: &HttpOptions) {
    let conn_id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let parsed = if thistle_fault::fire("serve.conn.slow_read", conn_id) {
        // Injected slowloris: behave exactly as if the client dribbled its
        // request past the header deadline.
        Err(ParseError::Deadline)
    } else {
        // The reader and the timeout setter share the socket by shared
        // reference; `set_read_timeout` takes `&self`, so the header→body
        // deadline switch needs no second descriptor.
        let mut reader = BufReader::new(&stream);
        read_request(&mut reader, options, |phase_timeout| {
            let _ = stream.set_read_timeout(Some(phase_timeout));
        })
    };
    let reply = match parsed {
        Ok(request) => route(&request, service),
        Err(ParseError::Malformed(message)) => Reply::new(400, Body::Json(error_json(&message))),
        Err(ParseError::TooLarge(message)) => Reply::new(413, Body::Json(error_json(&message))),
        Err(ParseError::Deadline) => {
            service.metrics().record_deadline_closed();
            Reply::new(
                408,
                Body::Json(error_json("request read deadline exceeded")),
            )
        }
    };
    let (content_type, text) = match reply.body {
        Body::Json(json) => ("application/json", json.emit()),
        Body::Text(text) => ("text/plain; version=0.0.4", text),
        Body::RawJson(text) => ("application/json", text),
    };
    let mut extra_headers = Vec::new();
    if let Some(secs) = reply.retry_after_secs {
        extra_headers.push(("Retry-After", secs.to_string()));
    }
    let _ = write_response(
        &mut (&stream),
        reply.status,
        content_type,
        &extra_headers,
        &text,
    );
    // Error replies (and pipelined garbage after a valid request) can
    // leave unread bytes on the socket; close without triggering RST.
    drain_and_close(&stream);
}

/// Reads one line bounded at `max` bytes, without ever buffering more than
/// that: the unbounded `BufRead::read_line` would let a client exhaust
/// memory with a single endless header line.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    out: &mut String,
    max: usize,
) -> Result<(), ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (done, used) = {
            let available = match reader.fill_buf() {
                Ok(available) => available,
                Err(e) => return Err(io_parse_error(&e)),
            };
            if available.is_empty() {
                // EOF: a truncated request, unless a final unterminated
                // line is in flight (the caller's parse will reject it).
                if line.is_empty() {
                    return Err(ParseError::Malformed("unexpected end of request".into()));
                }
                (true, 0)
            } else if let Some(pos) = available.iter().position(|&b| b == b'\n') {
                line.extend_from_slice(&available[..=pos]);
                (true, pos + 1)
            } else {
                line.extend_from_slice(available);
                (false, available.len())
            }
        };
        reader.consume(used);
        if line.len() > max {
            return Err(ParseError::TooLarge(format!("line exceeds {max} bytes")));
        }
        if done {
            *out =
                String::from_utf8(line).map_err(|_| ParseError::Malformed("non-UTF-8".into()))?;
            return Ok(());
        }
    }
}

/// Parses one request under the configured bounds. Generic over the reader
/// so the property tests can drive it with in-memory adversarial bytes;
/// `set_phase_timeout` re-arms the socket deadline at the header→body
/// transition (a no-op closure for in-memory readers).
fn read_request<R: BufRead>(
    reader: &mut R,
    options: &HttpOptions,
    mut set_phase_timeout: impl FnMut(Duration),
) -> Result<Request, ParseError> {
    set_phase_timeout(options.header_timeout);
    let mut request_line = String::new();
    read_line_bounded(reader, &mut request_line, MAX_LINE)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() {
        return Err(ParseError::Malformed("malformed request line".into()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let mut line = String::new();
        read_line_bounded(reader, &mut line, MAX_LINE)?;
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::TooLarge(format!(
                "headers exceed {MAX_HEADER_BYTES} bytes"
            )));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("invalid Content-Length".into()))?;
            }
        }
    }
    if content_length > options.max_body_bytes {
        return Err(ParseError::TooLarge(format!(
            "body too large ({content_length} bytes)"
        )));
    }
    set_phase_timeout(options.body_timeout);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        let parse = io_parse_error(&e);
        if matches!(parse, ParseError::Deadline) {
            parse
        } else {
            ParseError::Malformed(format!("short body: {e}"))
        }
    })?;
    Ok(Request {
        method,
        path,
        query,
        body: String::from_utf8(body)
            .map_err(|_| ParseError::Malformed("body is not UTF-8".into()))?,
    })
}

fn route(request: &Request, service: &Service) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/optimize") => handle_optimize(&request.body, service),
        ("GET", "/metrics") => {
            let snapshot = service.metrics_snapshot();
            if query_param(&request.query, "format") == Some("prometheus") {
                Reply::new(200, Body::Text(snapshot.to_prometheus()))
            } else {
                Reply::new(200, Body::Json(snapshot.to_json()))
            }
        }
        ("GET", "/healthz") => Reply::new(
            200,
            Body::Json(Json::Obj(vec![
                ("status".into(), Json::Str("ok".into())),
                ("build".into(), Json::Str(crate::service::BUILD_INFO.into())),
                (
                    "fingerprint".into(),
                    Json::Str(service.fingerprint_digest().into()),
                ),
            ])),
        ),
        ("GET", "/debug/contention") => handle_contention(service),
        ("GET", "/debug/exemplars") => handle_exemplars(&request.query, service),
        ("GET", "/debug/solves") => handle_solve_index(service),
        ("GET", path) if path.starts_with("/debug/solves/") => {
            handle_solve(&path["/debug/solves/".len()..], service)
        }
        _ => Reply::new(404, Body::Json(error_json("not found"))),
    }
}

/// `GET /debug/contention`: the contention observatory's raw view —
/// per-named-lock wait/hold accounting (with a derived contention rate),
/// the per-phase request-latency histograms, and the most recent complete
/// per-request breakdowns in arrival order.
fn handle_contention(service: &Service) -> Reply {
    let snap = service.metrics_snapshot();
    let recent = service
        .metrics()
        .recent_breakdowns()
        .iter()
        .map(|b| b.to_json())
        .collect();
    Reply::new(
        200,
        Body::Json(Json::Obj(vec![
            ("locks".into(), locks_json(&snap.locks)),
            ("phases".into(), summaries_json(&snap.phases)),
            ("recent_breakdowns".into(), Json::Arr(recent)),
        ])),
    )
}

/// `GET /debug/exemplars`: the retained exemplar index, or with `?id=N` one
/// exemplar's full span tree as a Chrome-trace document.
fn handle_exemplars(query: &str, service: &Service) -> Reply {
    if let Some(id) = query_param(query, "id") {
        let Ok(id) = id.parse::<u64>() else {
            return Reply::new(400, Body::Json(error_json("id must be an integer")));
        };
        return match service.exemplars().get(id) {
            Some(exemplar) => Reply::new(200, Body::RawJson(exemplar.chrome_trace_json())),
            None => Reply::new(404, Body::Json(error_json("no such exemplar"))),
        };
    }
    let exemplars = service
        .exemplars()
        .exemplars()
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("id".into(), num_u64(e.id)),
                ("class".into(), Json::Str(e.class.name().into())),
                ("label".into(), Json::Str(e.label.clone())),
                ("trigger".into(), Json::Str(e.trigger.into())),
                ("dur_ms".into(), Json::Num(e.dur_ns as f64 / 1e6)),
                ("records".into(), num_u64(e.records.len() as u64)),
                (
                    "trace".into(),
                    Json::Str(format!("/debug/exemplars?id={}", e.id)),
                ),
            ])
        })
        .collect();
    Reply::new(
        200,
        Body::Json(Json::Obj(vec![("exemplars".into(), Json::Arr(exemplars))])),
    )
}

/// `GET /debug/solves`: summaries of the retained solve reports.
fn handle_solve_index(service: &Service) -> Reply {
    let solves = service
        .recent_reports()
        .iter()
        .map(|(id, report)| solve_report_json(*id, report))
        .collect();
    Reply::new(
        200,
        Body::Json(Json::Obj(vec![("solves".into(), Json::Arr(solves))])),
    )
}

/// `GET /debug/solves/<id>`: one retained solve report in full.
fn handle_solve(id: &str, service: &Service) -> Reply {
    let Ok(id) = id.parse::<u64>() else {
        return Reply::new(400, Body::Json(error_json("solve id must be an integer")));
    };
    match service.solve_report(id) {
        Some(report) => Reply::new(200, Body::Json(solve_report_json(id, &report))),
        None => Reply::new(
            404,
            Body::Json(error_json("no such solve (or it aged out of retention)")),
        ),
    }
}

/// JSON rendering of one [`SolveReport`].
fn solve_report_json(id: u64, r: &SolveReport) -> Json {
    Json::Obj(vec![
        ("id".into(), num_u64(id)),
        ("workload".into(), Json::Str(r.workload.clone())),
        ("status".into(), Json::Str(r.status.clone())),
        ("perm_pair".into(), num_u64(r.perm_pair as u64)),
        (
            "newton_iterations".into(),
            num_u64(r.newton_iterations as u64),
        ),
        (
            "centering_steps".into(),
            num_u64(r.centering_steps() as u64),
        ),
        (
            "newton_per_center".into(),
            Json::Arr(
                r.newton_per_center
                    .iter()
                    .map(|&n| num_u64(u64::from(n)))
                    .collect(),
            ),
        ),
        (
            "gap_trajectory".into(),
            Json::Arr(r.gap_trajectory.iter().map(|&g| Json::Num(g)).collect()),
        ),
        (
            "final_gap".into(),
            r.final_gap().map_or(Json::Null, Json::Num),
        ),
        (
            "recovery_attempts".into(),
            num_u64(u64::from(r.recovery_attempts)),
        ),
        (
            "recovered_by".into(),
            r.recovered_by.clone().map_or(Json::Null, Json::Str),
        ),
        ("prefiltered".into(), num_u64(r.prefiltered)),
        ("rejected_infeasible".into(), num_u64(r.rejected_infeasible)),
        ("warm_started".into(), Json::Bool(r.warm_started)),
        (
            "warm_newton_saved".into(),
            Json::Num(r.warm_newton_saved as f64),
        ),
        ("batch_classes".into(), num_u64(r.batch_classes.into())),
        ("batch_members".into(), num_u64(r.batch_members.into())),
    ])
}

/// First value of `name` in an (unescaped) query string, if present.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

fn handle_optimize(body: &str, service: &Service) -> Reply {
    let bad = |message: &str| Reply::new(400, Body::Json(error_json(message)));
    let parse_started = std::time::Instant::now();
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return bad(&e.to_string()),
    };
    let (layer, objective, mode, timeout) = match parse_optimize_request(&parsed) {
        Ok(r) => r,
        Err(message) => return bad(&message),
    };
    let parse_ms = parse_started.elapsed().as_secs_f64() * 1e3;
    let result = match timeout {
        Some(t) => service.optimize_with_timeout(&layer, objective, &mode, t),
        None => service.optimize(&layer, objective, &mode),
    };
    match result {
        Ok(response) => {
            let mut fields = vec![
                ("layer".into(), Json::Str(layer.name.clone())),
                ("cache_hit".into(), Json::Bool(response.cache_hit)),
                ("coalesced".into(), Json::Bool(response.coalesced)),
                (
                    "solve_id".into(),
                    response.solve_id.map_or(Json::Null, num_u64),
                ),
            ];
            fields.extend(design_point_fields(&response.point));
            // The serialize phase must appear inside the very body it
            // times, so emit the response core first, complete the
            // breakdown, then splice it in before the closing brace.
            let serialize_started = std::time::Instant::now();
            let mut body = Json::Obj(fields).emit();
            let mut breakdown = response.breakdown;
            breakdown.parse_ms = parse_ms;
            breakdown.serialize_ms = serialize_started.elapsed().as_secs_f64() * 1e3;
            service.metrics().record_breakdown(&breakdown);
            body.truncate(body.len() - 1);
            let _ = write!(body, ",\"breakdown\":{}}}", breakdown.to_json().emit());
            Reply::new(200, Body::RawJson(body))
        }
        Err(ServeError::Timeout) => Reply::new(504, Body::Json(error_json("solve timed out"))),
        Err(ServeError::Shutdown) => {
            Reply::new(503, Body::Json(error_json("service is shutting down")))
        }
        Err(e @ ServeError::Overloaded { retry_after, .. }) => Reply {
            status: 503,
            body: Body::Json(error_json(&e.to_string())),
            retry_after_secs: Some(retry_after.as_secs().max(1)),
        },
        // A contained worker panic is the service's fault, not the
        // request's: 500, and the client may retry.
        Err(ServeError::Optimize(e @ thistle::OptimizeError::Internal(_))) => {
            Reply::new(500, Body::Json(error_json(&e.to_string())))
        }
        Err(ServeError::Optimize(e)) => Reply::new(422, Body::Json(error_json(&e.to_string()))),
    }
}

/// Schema of the `POST /optimize` body:
///
/// ```json
/// {
///   "layer": {"name": "conv2_1", "batch": 1, "out_channels": 64,
///             "in_channels": 64, "in_h": 56, "in_w": 56,
///             "kernel_h": 3, "kernel_w": 3, "stride": 1, "dilation": 1},
///   "objective": "energy" | "delay" | "edp",
///   "mode": "eyeriss"
///         | {"fixed": {"pe_count": 168, "regs_per_pe": 512,
///                      "sram_words": 65536}}
///         | "codesign",
///   "timeout_ms": 60000
/// }
/// ```
///
/// `objective` defaults to energy, `mode` to the fixed Eyeriss baseline,
/// `dilation` to 1; `"codesign"` co-designs at Eyeriss-equal area.
#[allow(clippy::type_complexity)]
fn parse_optimize_request(
    v: &Json,
) -> Result<(ConvLayer, Objective, ArchMode, Option<Duration>), String> {
    let layer_json = v.get("layer").ok_or("missing field: layer")?;
    let field = |name: &str| -> Result<u64, String> {
        layer_json
            .get(name)
            .and_then(Json::as_u64)
            .filter(|&x| x > 0)
            .ok_or_else(|| format!("layer.{name} must be a positive integer"))
    };
    let name = layer_json
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("layer")
        .to_string();
    let (batch, k, c) = (
        field("batch")?,
        field("out_channels")?,
        field("in_channels")?,
    );
    let (in_h, in_w) = (field("in_h")?, field("in_w")?);
    let (kernel_h, kernel_w) = (field("kernel_h")?, field("kernel_w")?);
    let stride = match layer_json.get("stride") {
        None => 1,
        Some(_) => field("stride")?,
    };
    let dilation = match layer_json.get("dilation") {
        None => 1,
        Some(_) => field("dilation")?,
    };
    let layer = ConvLayer::try_new(
        &name, batch, k, c, in_h, in_w, kernel_h, kernel_w, stride, dilation,
    )
    .map_err(|e| e.to_string())?;

    let objective = match v
        .get("objective")
        .and_then(Json::as_str)
        .unwrap_or("energy")
    {
        "energy" => Objective::Energy,
        "delay" => Objective::Delay,
        "edp" => Objective::EnergyDelayProduct,
        other => return Err(format!("unknown objective: {other}")),
    };

    let tech = thistle_arch::TechnologyParams::cgo2022_45nm();
    let mode = match v.get("mode") {
        None => ArchMode::Fixed(ArchConfig::eyeriss()),
        Some(Json::Str(s)) if s == "eyeriss" => ArchMode::Fixed(ArchConfig::eyeriss()),
        Some(Json::Str(s)) if s == "codesign" => {
            ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech))
        }
        Some(obj) if obj.get("fixed").is_some() => {
            let f = obj.get("fixed").expect("checked");
            let get = |name: &str| -> Result<u64, String> {
                f.get(name)
                    .and_then(Json::as_u64)
                    .filter(|&x| x > 0)
                    .ok_or_else(|| format!("mode.fixed.{name} must be a positive integer"))
            };
            ArchMode::Fixed(ArchConfig::new(
                get("pe_count")?,
                get("regs_per_pe")?,
                get("sram_words")?,
            ))
        }
        Some(other) => return Err(format!("unsupported mode: {}", other.emit())),
    };

    let timeout = match v.get("timeout_ms") {
        None => None,
        Some(t) => Some(Duration::from_millis(
            t.as_u64()
                .ok_or("timeout_ms must be a non-negative integer")?,
        )),
    };
    Ok((layer, objective, mode, timeout))
}

fn design_point_fields(point: &DesignPoint) -> Vec<(String, Json)> {
    let factors = |v: &[u64]| Json::Arr(v.iter().map(|&x| num_u64(x)).collect());
    let perm = |v: &[usize]| Json::Arr(v.iter().map(|&x| num_u64(x as u64)).collect());
    vec![
        (
            "arch".into(),
            Json::Obj(vec![
                ("pe_count".into(), num_u64(point.arch.pe_count)),
                ("regs_per_pe".into(), num_u64(point.arch.regs_per_pe)),
                ("sram_words".into(), num_u64(point.arch.sram_words)),
            ]),
        ),
        (
            "eval".into(),
            Json::Obj(vec![
                ("energy_pj".into(), Json::Num(point.eval.energy_pj)),
                ("cycles".into(), Json::Num(point.eval.cycles)),
                ("pj_per_mac".into(), Json::Num(point.eval.pj_per_mac)),
                ("ipc".into(), Json::Num(point.eval.ipc)),
                ("macs".into(), num_u64(point.eval.macs)),
                ("pe_used".into(), num_u64(point.eval.pe_used)),
                ("utilization".into(), Json::Num(point.eval.utilization)),
            ]),
        ),
        (
            "mapping".into(),
            Json::Obj(vec![
                (
                    "register_factors".into(),
                    factors(&point.mapping.register_factors),
                ),
                (
                    "pe_temporal_factors".into(),
                    factors(&point.mapping.pe_temporal_factors),
                ),
                (
                    "spatial_factors".into(),
                    factors(&point.mapping.spatial_factors),
                ),
                (
                    "outer_factors".into(),
                    factors(&point.mapping.outer_factors),
                ),
                (
                    "pe_temporal_perm".into(),
                    perm(&point.mapping.pe_temporal_perm),
                ),
                ("outer_perm".into(), perm(&point.mapping.outer_perm)),
            ]),
        ),
        (
            "relaxed_objective".into(),
            Json::Num(point.relaxed_objective),
        ),
        ("gp_solves".into(), num_u64(point.gp_solves as u64)),
        (
            "candidates_evaluated".into(),
            num_u64(point.candidates_evaluated as u64),
        ),
        ("degraded".into(), Json::Bool(point.degraded)),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("failed".into(), num_u64(point.ledger.failed())),
                ("recovered".into(), num_u64(point.ledger.recovered)),
                (
                    "degraded_solves".into(),
                    num_u64(point.ledger.degraded_solves),
                ),
                ("solver_panics".into(), num_u64(point.ledger.solver_panics)),
            ]),
        ),
    ]
}

fn error_json(message: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
}

fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
