//! `serve_mix`: the in-process serve tier behind HTTP on loopback, replaying
//! a seeded closed-loop request plan from two clients.
//!
//! The plan's cold set is fixed: the twelve ResNet-18 Table II shapes at
//! batch 2, on Eyeriss and co-designed, plus one shared Yolo-9000 opener,
//! all for energy. So the winners compared against the golden file do not
//! depend on the seed. The seed orders each client's requests and draws
//! its near-miss batches, hits, probes and malformed requests. Clients own
//! disjoint families: a near-miss always warm-starts from its own client's
//! latest solve of that family, so routing (and every answer) is
//! deterministic.

use crate::batch::{self, finish_trace, optimizer, replay_layers, warmup_layer, SETUPS};
use crate::golden::{self, Winner, Winners};
use crate::report::Report;
use crate::stats::{self, percentile, Rng};
use crate::trace::Capture;
use crate::verify::{check_design, eval_bits};
use crate::Options;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_obs::{span, TraceCtx};
use thistle_serve::{HttpOptions, HttpServer, Json, LatencyBreakdown, Service, ServiceOptions};
use timeloop_lite::Mapping;

/// Closed-loop clients, each with one connection open at a time.
pub const CLIENTS: usize = 2;
/// Service solve workers, each running a one-thread optimizer.
const WORKERS: usize = 2;
/// Requests each client sends per round.
pub const PER_CLIENT: usize = 1000;
/// Shares of each client's plan; hits fill the rest.
const NEAR_SHARE: f64 = 0.12;
const PROBE_SHARE: f64 = 0.05;
const MALFORMED_SHARE: f64 = 0.05;
/// Near-miss batch sizes.
const NEAR_BATCHES: std::ops::RangeInclusive<u64> = 3..=16;
/// Cold queries' batch size (batch 1 has no tiling variable, so it cannot
/// donate a warm start).
const COLD_BATCH: u64 = 2;
/// Index into [`cold_queries`] of the query both clients open with, so
/// their first requests coalesce onto one solve.
const SHARED: usize = 24;
/// Design cache entries: far above a round's distinct queries, so nothing
/// is evicted and every planned hit is a cache hit.
const CACHE_CAPACITY: usize = 4096;

/// One optimize query: an energy-objective layer on Eyeriss or co-designed.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub layer: ConvLayer,
    pub codesign: bool,
}

impl Query {
    fn key(&self) -> String {
        let mode = if self.codesign { "codesign" } else { "eyeriss" };
        format!("{}@{mode}", self.layer.name)
    }

    fn mode(&self) -> ArchMode {
        if self.codesign {
            batch::codesign_mode()
        } else {
            ArchMode::Fixed(ArchConfig::eyeriss())
        }
    }

    fn request(&self) -> Vec<u8> {
        let l = &self.layer;
        let body = format!(
            "{{\"layer\":{{\"name\":\"{}\",\"batch\":{},\"out_channels\":{},\"in_channels\":{},\
             \"in_h\":{},\"in_w\":{},\"kernel_h\":{},\"kernel_w\":{},\"stride\":{}}},\
             \"objective\":\"energy\",\"mode\":\"{}\"}}",
            l.name,
            l.batch,
            l.out_channels,
            l.in_channels,
            l.in_h,
            l.in_w,
            l.kernel_h,
            l.kernel_w,
            l.stride,
            if self.codesign { "codesign" } else { "eyeriss" }
        );
        post("/optimize", &body)
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// The fixed cold set, in a stable order: every ResNet-18 shape on Eyeriss
/// and co-designed, then the shared opener (a Yolo-9000 shape, so no
/// client's family ever takes it as a warm-start donor).
pub fn cold_queries() -> Vec<Query> {
    let mut out = Vec::new();
    for mut layer in thistle_workloads::resnet18() {
        layer.batch = COLD_BATCH;
        for codesign in [false, true] {
            out.push(Query {
                layer: layer.clone(),
                codesign,
            });
        }
    }
    let mut opener = thistle_workloads::yolo9000()[7].clone();
    opener.batch = COLD_BATCH;
    out.push(Query {
        layer: opener,
        codesign: true,
    });
    out
}

/// Requests every client sends that must be refused with a 4xx.
fn malformed_requests() -> Vec<Vec<u8>> {
    let layer = "\"name\":\"bad\",\"batch\":1,\"in_channels\":64,\"in_h\":14,\"in_w\":14,\
                 \"kernel_h\":3,\"kernel_w\":3";
    vec![
        post("/optimize", "{\"layer\": {"),
        post("/optimize", "{\"objective\":\"energy\"}"),
        post(
            "/optimize",
            &format!("{{\"layer\":{{{layer},\"out_channels\":0}}}}"),
        ),
        post(
            "/optimize",
            &format!("{{\"layer\":{{{layer},\"out_channels\":8}},\"objective\":\"speed\"}}"),
        ),
        post(
            "/optimize",
            "{\"layer\":{\"batch\":1,\"out_channels\":8,\"in_channels\":8,\"in_h\":3,\"in_w\":3,\
             \"kernel_h\":5,\"kernel_w\":5}}",
        ),
        get("/no/such/endpoint"),
        b"POST /optimize HTTP/1.1\r\nHost: bench\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
        b"GARBAGE\r\n\r\n".to_vec(),
    ]
}

/// Planned request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// First request of a query from the fixed cold set.
    Cold,
    /// First request of a batch-size variant of a family this client
    /// already solved: a warm-started near-miss.
    Near,
    /// Repeat of a query this client already got an answer for.
    Hit,
    /// `GET /healthz` or `GET /metrics`.
    Probe,
    /// Must be refused with a 4xx.
    Malformed,
}

/// One planned request: its class, its optimize query (if any), and the
/// exact bytes sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub kind: Kind,
    pub query: Option<Query>,
    pub bytes: Vec<u8>,
}

/// Both clients' request sequences for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub clients: Vec<Vec<Step>>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let cold = cold_queries();
        let mut rng = Rng::new(seed);
        let clients = (0..CLIENTS)
            .map(|client| {
                // Each client owns every other (shape, mode) slot: six
                // Eyeriss and six co-design queries apiece.
                let mut owned: Vec<Query> = cold
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != SHARED && (i / 2 + i % 2) % CLIENTS == client)
                    .map(|(_, q)| q.clone())
                    .collect();
                rng.shuffle(&mut owned);
                client_plan(&mut rng, &cold[SHARED], owned)
            })
            .collect();
        Plan { clients }
    }

    /// Every byte the plan sends, client by client.
    #[cfg(test)]
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (c, steps) in self.clients.iter().enumerate() {
            out.extend_from_slice(format!("client {c}\n").as_bytes());
            for step in steps {
                out.extend_from_slice(&step.bytes);
                out.push(b'\n');
            }
        }
        out
    }
}

fn client_plan(rng: &mut Rng, shared: &Query, owned: Vec<Query>) -> Vec<Step> {
    let share = |f: f64| (f * PER_CLIENT as f64).round() as usize;
    let (near, probes, malformed) = (
        share(NEAR_SHARE),
        share(PROBE_SHARE),
        share(MALFORMED_SHARE),
    );
    let hits = PER_CLIENT - 1 - owned.len() - near - probes - malformed;
    let mut tokens: Vec<Kind> = [
        (Kind::Cold, owned.len()),
        (Kind::Near, near),
        (Kind::Hit, hits),
        (Kind::Probe, probes),
        (Kind::Malformed, malformed),
    ]
    .iter()
    .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
    .collect();
    rng.shuffle(&mut tokens);

    let malformed_bytes = malformed_requests();
    let mut owned = owned.into_iter();
    let mut steps = vec![Step {
        kind: Kind::Cold,
        query: Some(shared.clone()),
        bytes: shared.request(),
    }];
    let mut answered: Vec<Query> = vec![shared.clone()];
    // Families solved so far, with the batch sizes not yet asked for.
    let mut families: Vec<(Query, Vec<u64>)> = Vec::new();
    let mut deferred_near = 0usize;
    for kind in tokens {
        let step = match kind {
            Kind::Cold => {
                let q = owned.next().expect("one cold token per owned query");
                families.push((q.clone(), NEAR_BATCHES.collect()));
                Some(q)
            }
            Kind::Near => near_query(rng, &mut families).or_else(|| {
                deferred_near += 1;
                None
            }),
            Kind::Hit => Some(answered[rng.below(answered.len())].clone()),
            Kind::Probe | Kind::Malformed => None,
        };
        let bytes = match (kind, &step) {
            (_, Some(q)) => q.request(),
            (Kind::Probe, None) => get(["/healthz", "/metrics"][rng.below(2)]),
            (Kind::Malformed, None) => malformed_bytes[rng.below(malformed_bytes.len())].clone(),
            (_, None) => continue,
        };
        if let (Kind::Cold | Kind::Near, Some(q)) = (kind, &step) {
            answered.push(q.clone());
        }
        steps.push(Step {
            kind,
            query: step,
            bytes,
        });
        // A near-miss drawn before any family existed runs as soon as one
        // does.
        if kind == Kind::Cold {
            while deferred_near > 0 {
                let Some(q) = near_query(rng, &mut families) else {
                    break;
                };
                answered.push(q.clone());
                steps.push(Step {
                    kind: Kind::Near,
                    bytes: q.request(),
                    query: Some(q),
                });
                deferred_near -= 1;
            }
        }
    }
    steps
}

/// A not-yet-requested batch size of a solved family, if any is left.
fn near_query(rng: &mut Rng, families: &mut [(Query, Vec<u64>)]) -> Option<Query> {
    let open: Vec<usize> = (0..families.len())
        .filter(|&f| !families[f].1.is_empty())
        .collect();
    if open.is_empty() {
        return None;
    }
    let (family, batches) = &mut families[open[rng.below(open.len())]];
    let batch = batches.swap_remove(rng.below(batches.len()));
    let mut layer = family.layer.clone();
    layer.batch = batch;
    layer.name = format!("{}_b{batch}", family.layer.name);
    Some(Query {
        layer,
        codesign: family.codesign,
    })
}

/// One answered request.
struct Answer {
    status: u16,
    body: String,
    ms: f64,
}

/// Sends one request and reads the whole response; latency runs from
/// connect to the last response byte.
fn send(port: u16, bytes: &[u8]) -> Result<Answer, String> {
    let started = Instant::now();
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    stream.write_all(bytes).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {text:?}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Answer { status, body, ms })
}

/// Replays one client's steps in order (closed loop).
fn run_client(
    port: u16,
    steps: &[Step],
    client: usize,
    ctx: &TraceCtx,
) -> Vec<Result<Answer, String>> {
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let id = (client * PER_CLIENT + i) as u64;
            let name = if step.kind == Kind::Probe {
                "bench.probe"
            } else {
                "bench.request"
            };
            let _s = span!(ctx, name, id = id);
            send(port, &step.bytes)
        })
        .collect()
}

fn service_options(atlas: PathBuf, capture: Option<&Capture>) -> ServiceOptions {
    ServiceOptions {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        atlas_path: Some(atlas),
        trace_sinks: capture.map(|c| vec![c.sink()]).unwrap_or_default(),
        ..ServiceOptions::default()
    }
}

/// Atlas snapshots live inside the checkout, under the crate's ignored
/// `target/` directory.
fn atlas_path(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/serve-atlas"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{tag}-{}.atlas", std::process::id())))
}

/// A running service and its HTTP front end.
struct Server {
    service: Arc<Service>,
    http: HttpServer,
    atlas: PathBuf,
}

impl Server {
    fn start(tag: &str, capture: Option<&Capture>) -> Result<Server, String> {
        let atlas = atlas_path(tag)?;
        let _ = std::fs::remove_file(&atlas);
        let service = Arc::new(Service::new(
            optimizer(1),
            service_options(atlas.clone(), capture),
        ));
        let http =
            HttpServer::start_with(Arc::clone(&service), "127.0.0.1:0", HttpOptions::default())
                .map_err(|e| format!("cannot start the HTTP server: {e}"))?;
        Ok(Server {
            service,
            http,
            atlas,
        })
    }

    /// Stops accepting, drains connections, and drops the service on this
    /// thread so its workers are joined before returning.
    fn stop(self) {
        self.http.shutdown();
        let mut service = self.service;
        let service = loop {
            match Arc::try_unwrap(service) {
                Ok(s) => break s,
                // A finished connection thread may still hold its handle.
                Err(shared) => {
                    service = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        drop(service);
        let _ = std::fs::remove_file(&self.atlas);
        // The atlas directory and `target/` above it go only while empty,
        // so another round's file or a build's output survives.
        for dir in self.atlas.ancestors().skip(1).take(2) {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Everything one round measured.
struct Round {
    /// Mean over clients of the time to replay their steps: steadier than
    /// the makespan, which is the slower of two noisy clients.
    wall_s: f64,
    makespan_s: f64,
    answers: Vec<Vec<Result<Answer, String>>>,
    snapshot: thistle_serve::MetricsSnapshot,
    reports: Vec<(u64, thistle::SolveReport)>,
    save_ms: f64,
    atlas_bytes: u64,
}

fn round(plan: &Plan, capture: Option<&Capture>) -> Result<Round, String> {
    let server = Server::start("round", capture)?;
    let port = server.http.port();
    let disabled = TraceCtx::disabled();
    let ctx = capture.map_or(&disabled, |c| &c.ctx);
    let started = Instant::now();
    let replays = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .clients
            .iter()
            .enumerate()
            .map(|(c, steps)| {
                scope.spawn(move || {
                    let answers = run_client(port, steps, c, ctx);
                    (answers, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let makespan_s = started.elapsed().as_secs_f64();
    let wall_s = replays.iter().map(|(_, s)| s).sum::<f64>() / replays.len() as f64;
    let answers = replays.into_iter().map(|(a, _)| a).collect();
    let snapshot = server.service.metrics_snapshot();
    let reports = server.service.recent_reports();
    let t = Instant::now();
    server
        .service
        .save_atlas()
        .map_err(|e| format!("save_atlas: {e}"))?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let atlas_bytes = std::fs::metadata(&server.atlas).map_or(0, |m| m.len());
    server.stop();
    Ok(Round {
        wall_s,
        makespan_s,
        answers,
        snapshot,
        reports,
        save_ms,
        atlas_bytes,
    })
}

/// Starts a service, sends one warm-up solve through HTTP, and stops it.
fn setup() -> Result<f64, String> {
    let started = Instant::now();
    let server = Server::start("setup", None)?;
    let warmup = Query {
        layer: warmup_layer(),
        codesign: false,
    };
    let answer = send(server.http.port(), &warmup.request());
    server.stop();
    match answer {
        Ok(a) if a.status == 200 => Ok(started.elapsed().as_secs_f64()),
        Ok(a) => Err(format!("warm-up request answered {}: {}", a.status, a.body)),
        Err(e) => Err(format!("warm-up request failed: {e}")),
    }
}

/// The design fields of one optimize answer.
struct Design {
    arch: ArchConfig,
    mapping: Mapping,
    eval: Json,
    /// arch + eval + mapping, compared exactly between repeats.
    fields: [Json; 3],
}

fn design(body: &Json) -> Option<Design> {
    let arch_json = body.get("arch")?;
    let u = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64);
    let arch = ArchConfig::new(
        u(arch_json, "pe_count")?,
        u(arch_json, "regs_per_pe")?,
        u(arch_json, "sram_words")?,
    );
    let m = body.get("mapping")?;
    let factors =
        |k: &str| -> Option<Vec<u64>> { m.get(k)?.as_arr()?.iter().map(Json::as_u64).collect() };
    let perm = |k: &str| -> Option<Vec<usize>> {
        m.get(k)?
            .as_arr()?
            .iter()
            .map(|v| v.as_u64().map(|x| x as usize))
            .collect()
    };
    let mapping = Mapping {
        register_factors: factors("register_factors")?,
        pe_temporal_factors: factors("pe_temporal_factors")?,
        pe_temporal_perm: perm("pe_temporal_perm")?,
        spatial_factors: factors("spatial_factors")?,
        outer_factors: factors("outer_factors")?,
        outer_perm: perm("outer_perm")?,
    };
    let eval = body.get("eval")?.clone();
    Some(Design {
        arch,
        mapping,
        fields: [arch_json.clone(), eval.clone(), m.clone()],
        eval,
    })
}

/// Checks a first answer against the referee: the eval it carries must
/// equal a fresh evaluation bit for bit.
fn check_first(
    q: &Query,
    d: &Design,
    tech: &TechnologyParams,
    bw: &Bandwidths,
) -> Result<(), String> {
    let fresh = check_design(&q.layer, &q.mode(), &d.arch, &d.mapping, tech, bw)?;
    let f = |k: &str| d.eval.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let served = [
        f("energy_pj").to_bits(),
        f("cycles").to_bits(),
        f("pj_per_mac").to_bits(),
        f("ipc").to_bits(),
        f("macs") as u64,
        f("pe_used") as u64,
        f("utilization").to_bits(),
    ];
    if served != eval_bits(&fresh) {
        return Err(format!(
            "{}: served eval differs from the referee's",
            q.key()
        ));
    }
    Ok(())
}

/// Per-class client latencies and server-side phase samples of a round.
#[derive(Default)]
struct Samples {
    class_ms: HashMap<Kind, Vec<f64>>,
    parse: Vec<f64>,
    serialize: Vec<f64>,
    unattributed: Vec<f64>,
    lock_wait: Vec<f64>,
    queue_wait: Vec<f64>,
    solve: Vec<f64>,
    coalesce_wait_ms: f64,
    fresh_solves: usize,
}

/// Verifies every answer of a round (status, referee agreement, repeat
/// bit-equality against `first`, which persists across rounds) and collects
/// its latency samples.
fn check_round(
    plan: &Plan,
    round: &Round,
    first: &mut HashMap<String, Design>,
    report: &mut Report,
) -> Samples {
    let tech = TechnologyParams::cgo2022_45nm();
    let bw = Bandwidths::default();
    let mut s = Samples::default();
    for (steps, answers) in plan.clients.iter().zip(&round.answers) {
        for (step, answer) in steps.iter().zip(answers) {
            report.attempted += 1;
            let a = match answer {
                Ok(a) => a,
                Err(e) => {
                    report.fail(format!("{:?} request failed: {e}", step.kind));
                    continue;
                }
            };
            s.class_ms.entry(step.kind).or_default().push(a.ms);
            let Some(q) = &step.query else {
                let ok = match step.kind {
                    Kind::Malformed => (400..500).contains(&a.status),
                    _ => a.status == 200,
                };
                if !ok {
                    report.fail(format!("{:?} request answered {}", step.kind, a.status));
                }
                continue;
            };
            if let Err(why) = check_optimize(q, a, first, &tech, &bw, &mut s) {
                report.fail(why);
            }
        }
    }
    s
}

fn check_optimize(
    q: &Query,
    a: &Answer,
    first: &mut HashMap<String, Design>,
    tech: &TechnologyParams,
    bw: &Bandwidths,
    s: &mut Samples,
) -> Result<(), String> {
    let key = q.key();
    if a.status != 200 {
        return Err(format!("{key}: answered {}: {}", a.status, a.body));
    }
    let body = Json::parse(&a.body).map_err(|e| format!("{key}: bad JSON: {e}"))?;
    let d = design(&body).ok_or_else(|| format!("{key}: answer lacks design fields"))?;
    let flag = |k: &str| body.get(k).and_then(Json::as_bool).unwrap_or(false);
    let (cache_hit, coalesced) = (flag("cache_hit"), flag("coalesced"));
    let phase = |k: &str| {
        body.get("breakdown")
            .and_then(|b| b.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let total: f64 = LatencyBreakdown::PHASES
        .iter()
        .map(|p| phase(&format!("{p}_ms")))
        .sum();
    s.parse.push(phase("parse_ms"));
    s.serialize.push(phase("serialize_ms"));
    s.lock_wait.push(phase("lock_wait_ms"));
    s.unattributed.push(a.ms - total);
    s.coalesce_wait_ms += phase("coalesce_wait_ms");
    if !cache_hit && !coalesced {
        s.fresh_solves += 1;
        s.queue_wait.push(phase("queue_wait_ms"));
        s.solve.push(phase("solve_ms"));
    }
    match first.get(&key) {
        Some(prev) if prev.fields != d.fields => {
            Err(format!("{key}: a repeat answer differs from the first"))
        }
        Some(_) => Ok(()),
        None => {
            check_first(q, &d, tech, bw)?;
            first.insert(key, d);
            Ok(())
        }
    }
}

pub fn run(options: &Options) -> Result<Report, String> {
    let plan = Plan::new(options.seed);
    let mut report = Report::default();
    let setups = (0..SETUPS)
        .map(|_| setup())
        .collect::<Result<Vec<f64>, String>>()?;
    report.set(
        "setup_s",
        stats::median(&setups).expect("set-ups ran"),
        setups.len(),
    );

    // Rounds (each on a fresh service, so each starts cold) repeat while
    // the next is expected to fit the budget; traced runs measure one.
    let budget = if options.trace {
        0.0
    } else {
        options.seconds.as_secs_f64()
    };
    let started = Instant::now();
    let mut first: HashMap<String, Design> = HashMap::new();
    let mut walls = Vec::new();
    // The first round, which a traced run's serve metrics come from.
    let mut baseline = None;
    loop {
        let r = round(&plan, None)?;
        let samples = check_round(&plan, &r, &mut first, &mut report);
        walls.push(r.wall_s);
        baseline.get_or_insert((r, samples));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / walls.len() as f64 > budget {
            break;
        }
    }
    let wall_s = stats::median(&walls).expect("one round ran");
    report.set("wall_s", wall_s, walls.len());

    let cold = cold_queries();
    let winners: Winners = cold
        .iter()
        .filter_map(|q| {
            let d = first.get(&q.key())?;
            let energy = d.eval.get("energy_pj").and_then(Json::as_f64)?;
            Some((q.key(), Winner::new(energy, &d.arch, &d.mapping)))
        })
        .collect::<BTreeMap<_, _>>();
    if options.write_golden {
        let path = golden::write("serve_mix", &winners).map_err(|e| e.to_string())?;
        eprintln!("golden: {} winners -> {path}", winners.len());
    }
    let (ratio, changed) = golden::compare(&golden::load("serve_mix")?, &winners);
    report.set("score_vs_golden", ratio, winners.len());
    report.set("core.winners_changed", changed as f64, winners.len());

    if options.trace {
        let (r, samples) = baseline.as_ref().expect("one round ran");
        serve_metrics(r, samples, &mut report)?;
        let capture = Capture::new();
        let traced = round(&plan, Some(&capture))?;
        check_round(&plan, &traced, &mut first, &mut report);
        report.set("obs.trace_overhead_frac", traced.wall_s / r.wall_s - 1.0, 1);
        let replay: Vec<_> = cold
            .iter()
            .filter_map(|q| {
                let d = first.get(&q.key())?;
                Some((
                    q.layer.clone(),
                    Objective::Energy,
                    q.mode(),
                    d.arch,
                    d.mapping.clone(),
                ))
            })
            .collect();
        replay_layers(&optimizer(1), &replay, &capture.ctx, &mut report);
        finish_trace(&capture, options, &mut report)?;
    }
    Ok(report)
}

/// The serve tier's per-layer metrics from one untraced round.
fn serve_metrics(r: &Round, s: &Samples, report: &mut Report) -> Result<(), String> {
    let class = |k: Kind| s.class_ms.get(&k).map_or(&[][..], Vec::as_slice);
    let mut pct = |name: &'static str, samples: &[f64], q: f64| -> Result<(), String> {
        let v = percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        report.set(name, v, samples.len());
        Ok(())
    };
    pct("serve.miss_p50_ms", class(Kind::Cold), 0.5)?;
    pct("serve.near_miss_p50_ms", class(Kind::Near), 0.5)?;
    pct("serve.near_miss_p95_ms", class(Kind::Near), 0.95)?;
    pct("serve.hit_p50_ms", class(Kind::Hit), 0.5)?;
    pct("serve.hit_p99_ms", class(Kind::Hit), 0.99)?;
    pct("serve.probe_p90_ms", class(Kind::Probe), 0.9)?;
    pct("serve.parse_p50_ms", &s.parse, 0.5)?;
    pct("serve.serialize_p50_ms", &s.serialize, 0.5)?;
    pct("serve.unattributed_p50_ms", &s.unattributed, 0.5)?;
    pct("serve.lock_wait_p99_ms", &s.lock_wait, 0.99)?;
    pct("serve.queue_wait_p50_ms", &s.queue_wait, 0.5)?;
    pct("serve.queue_wait_p95_ms", &s.queue_wait, 0.95)?;
    pct("serve.solve_p50_ms", &s.solve, 0.5)?;
    let requests: usize = r.answers.iter().map(Vec::len).sum();
    report.set(
        "serve.throughput_rps",
        requests as f64 / r.makespan_s,
        requests,
    );
    let snap = &r.snapshot;
    report.set(
        "serve.cache_hit_ratio",
        snap.cache_hit_rate(),
        (snap.cache_hits + snap.cache_misses) as usize,
    );
    report.set("serve.coalesced", snap.coalesced as f64, 1);
    report.set(
        "serve.coalesce_wait_ms",
        s.coalesce_wait_ms,
        snap.coalesced as usize,
    );
    report.set("serve.fresh_solves", s.fresh_solves as f64, 1);
    report.set("serve.near_miss_hits", snap.near_miss_hits as f64, 1);
    report.set("serve.shed", snap.shed as f64, 1);
    report.set(
        "serve.errors",
        (snap.solve_errors + snap.timeouts) as f64,
        1,
    );
    report.set("atlas.save_ms", r.save_ms, 1);
    report.set("atlas.bytes", r.atlas_bytes as f64, 1);
    // Winner reports the service retained (its most recent fresh solves).
    let n = r.reports.len();
    let newton: usize = r.reports.iter().map(|(_, rep)| rep.newton_iterations).sum();
    report.set("core.newton_iterations", newton as f64 / n.max(1) as f64, n);
    let warm: Vec<f64> = r
        .reports
        .iter()
        .filter(|(_, rep)| rep.warm_started)
        .map(|(_, rep)| rep.warm_newton_saved as f64)
        .collect();
    report.set(
        "gp.warm_newton_saved_mean",
        warm.iter().sum::<f64>() / warm.len().max(1) as f64,
        warm.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded() {
        assert_eq!(Plan::new(11).bytes(), Plan::new(11).bytes());
        assert_ne!(Plan::new(11).bytes(), Plan::new(12).bytes());
    }

    #[test]
    fn plan_shape() {
        let plan = Plan::new(5);
        let cold = cold_queries();
        let mut cold_seen = Vec::new();
        for steps in &plan.clients {
            assert_eq!(steps.len(), PER_CLIENT);
            assert_eq!(
                steps[0].query.as_ref(),
                Some(&cold[SHARED]),
                "clients open on the shared shape"
            );
            let mut answered: Vec<&Query> = Vec::new();
            for step in steps {
                let q = step.query.as_ref();
                match step.kind {
                    Kind::Cold => cold_seen.push(q.expect("cold query").key()),
                    // Each donor family comes before its near-miss on the
                    // same client.
                    Kind::Near => {
                        let q = q.expect("near query");
                        assert!(answered.iter().any(|a| a.codesign == q.codesign
                            && a.layer.batch == COLD_BATCH
                            && format!("{}_b{}", a.layer.name, q.layer.batch) == q.layer.name));
                        assert!(!answered.contains(&q), "near-misses are first requests");
                    }
                    Kind::Hit => assert!(answered.contains(&q.expect("hit query"))),
                    Kind::Probe | Kind::Malformed => assert!(q.is_none()),
                }
                if let Some(q) = q {
                    answered.push(q);
                }
            }
        }
        cold_seen.sort();
        let mut all: Vec<String> = cold.iter().map(Query::key).collect();
        all.push(cold[SHARED].key());
        all.sort();
        assert_eq!(
            cold_seen, all,
            "every cold query once, the shared one twice"
        );
    }
}
