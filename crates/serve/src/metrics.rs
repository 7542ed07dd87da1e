//! Service counters, solve-latency percentiles, and per-stage telemetry.
//!
//! All metric state lives in a [`thistle_obs::Registry`]: counters and
//! gauges are lock-free atomics, latencies go into windowed histograms
//! (solves are milliseconds-to-seconds long, so the per-sample locks are
//! uncontended noise next to them). [`Metrics`] holds typed handles into
//! the registry and keeps every established `GET /metrics` JSON key and
//! Prometheus series name. The stage block reads the registry's
//! `span_duration_ms` family, which the service's
//! [`thistle_obs::MetricsBridge`] fills from every closed span, so the
//! same trace that feeds a Chrome export also feeds `GET /metrics`.

use crate::json::{num_u64, Json};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{Display, Write as _};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use thistle::FailureLedger;
use thistle_obs::registry::SPAN_DURATION_MS;
use thistle_obs::{contention, Counter, Gauge, Histogram, HistogramFamily, Registry};

/// Number of recent latencies kept per histogram window for percentile
/// estimates.
pub(crate) const WINDOW: usize = 1024;

/// Distinct labels each labelled family here, and the service's span
/// bridge, may register; past it, new labels share the `_overflow` slot.
pub(crate) const CARDINALITY: usize = 32;

/// Recent per-request latency breakdowns kept in arrival order for
/// `GET /debug/contention`.
const BREAKDOWN_RING: usize = 32;

/// Pipeline stages with their own latency histograms in `GET /metrics`, in
/// rendering order.
///
/// Each is the `span_duration_ms` label of the span with the same name,
/// except `queue_wait`, which the solve pool records directly through
/// [`Metrics::record_queue_wait`] (queue wait is measured between threads,
/// which a single span cannot express).
pub const STAGES: [&str; 9] = [
    "request",
    "cache_lookup",
    "queue_wait",
    "perm_enum",
    "gp_solve",
    "batch_solve",
    "expr_compile",
    "integerize",
    "rescore",
];

/// Shared service metrics. All methods take `&self`.
///
/// Every counter, gauge, and histogram is a handle into one
/// [`thistle_obs::Registry`], the one the service's span bridge and observed
/// locks record into, so `GET /metrics` samples all of them at once. The
/// handles are resolved once at construction; the hot path never searches
/// the registry by name.
pub struct Metrics {
    registry: Arc<Registry>,
    requests: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    coalesced: Counter,
    solve_errors: Counter,
    timeouts: Counter,
    in_flight: Gauge,
    /// Largest timeout cap ever recorded, in whole milliseconds.
    solve_timeout_ms: Gauge,
    worker_respawns: Counter,
    solve_retries: Counter,
    cancelled_solves: Counter,
    degraded_results: Counter,
    near_miss_hits: Counter,
    /// Requests rejected with `503` by admission control: hard queue-cap
    /// sheds and brown-out sheds both count here.
    shed: Counter,
    /// Subset of `shed`: cold misses rejected while the service is in
    /// brown-out (serving hits and near-miss solves only).
    browned_out: Counter,
    /// Connections rejected at the accept side because both the connection
    /// cap and the accept backlog were full.
    conn_capped: Counter,
    /// Connections closed because a read phase overran its deadline
    /// (slowloris defense, rendered as `408`).
    deadline_closed: Counter,
    /// Pool jobs submitted but not yet picked up by a worker, sampled at
    /// each admission decision.
    queue_depth: Gauge,
    /// 1 while the admission controller is between its watermarks (cold
    /// misses shed, hits and near-miss solves served), else 0.
    brownout_active: Gauge,
    /// Distribution of the admission-time queue-depth samples.
    queue_depths: Histogram,
    /// Cache entries restored from the atlas snapshot at startup.
    atlas_restored_entries: Gauge,
    /// Damaged snapshot records skipped at startup (plus one if the file
    /// itself failed to open for a reason other than not existing).
    atlas_load_errors: Gauge,
    /// Sweep failure/recovery counters merged across completed solves.
    /// Stays a plain struct merge: the ledger is a batch of related causes
    /// folded under one lock, not independent counters.
    ledger: Mutex<FailureLedger>,
    latencies: Histogram,
    /// `span_duration_ms`, keyed by span name: every [`STAGES`] entry is
    /// read from here.
    spans: HistogramFamily,
    /// Per-phase request-breakdown histograms
    /// ([`LatencyBreakdown::PHASES`] labels).
    phases: HistogramFamily,
    /// Recent complete breakdowns in arrival order, bounded, for
    /// `GET /debug/contention`.
    breakdown_ring: Mutex<VecDeque<LatencyBreakdown>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::on_registry(Arc::new(Registry::new()))
    }
}

/// One stage's or phase's histogram in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySnapshot {
    pub name: &'static str,
    pub count: u64,
    pub p50_ms: f64,
    pub p95_ms: f64,
}

/// Cache occupancy and lifetime counters, merged into a snapshot by
/// [`crate::service::Service::metrics_snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheSnapshot {
    pub len: u64,
    pub capacity: u64,
    pub insertions: u64,
    pub evictions: u64,
}

/// Where one request's wall-clock time went, phase by phase, in
/// milliseconds.
///
/// The service fills the middle four phases (`queue_wait` from the pool
/// job stamps, `lock_wait` from the thread-local contention accumulator,
/// `coalesce_wait` for requests that rode another's flight, `solve` from
/// the worker); the HTTP layer wraps those with `parse` and `serialize`.
/// Responses built through the embedding API (no HTTP framing) leave the
/// outer two at zero. The phases are critical-path durations, so their sum
/// approximates — never exceeds by design — the end-to-end latency; gaps
/// (dispatch, response adaptation) are deliberately unattributed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    pub parse_ms: f64,
    pub queue_wait_ms: f64,
    pub lock_wait_ms: f64,
    pub coalesce_wait_ms: f64,
    pub solve_ms: f64,
    pub serialize_ms: f64,
}

impl LatencyBreakdown {
    /// Stable phase names, in rendering order, shared by the `/optimize`
    /// response JSON, the `phase_latency_ms` histograms, and the loadgen
    /// aggregation.
    pub const PHASES: [&'static str; 6] = [
        "parse",
        "queue_wait",
        "lock_wait",
        "coalesce_wait",
        "solve",
        "serialize",
    ];

    /// `(phase, milliseconds)` pairs in [`LatencyBreakdown::PHASES`] order.
    pub fn phases(&self) -> [(&'static str, f64); 6] {
        [
            ("parse", self.parse_ms),
            ("queue_wait", self.queue_wait_ms),
            ("lock_wait", self.lock_wait_ms),
            ("coalesce_wait", self.coalesce_wait_ms),
            ("solve", self.solve_ms),
            ("serialize", self.serialize_ms),
        ]
    }

    /// The object embedded under `"breakdown"` in `/optimize` responses.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.phases()
                .iter()
                .map(|&(phase, ms)| (format!("{phase}_ms"), Json::Num(ms)))
                .collect(),
        )
    }
}

/// One named lock's contention accounting in a snapshot, read back from
/// the `thistle_obs::contention` metric families in the shared registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockSnapshot {
    pub lock: String,
    /// Total acquisitions (contended or not).
    pub acquisitions: u64,
    /// Acquisitions that found the lock already held.
    pub contended: u64,
    /// Wait-time samples recorded (equals acquisitions within the window).
    pub wait_count: u64,
    pub wait_p50_ms: f64,
    pub wait_p95_ms: f64,
    pub hold_p50_ms: f64,
    pub hold_p95_ms: f64,
}

impl LockSnapshot {
    /// Fraction of acquisitions that found the lock already held.
    pub fn contention_rate(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }
}

/// A point-in-time copy of every metric, for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub solve_errors: u64,
    pub timeouts: u64,
    pub in_flight: u64,
    /// Pool workers restarted after a contained panic.
    pub worker_respawns: u64,
    /// Transparent retries of failed solves (not counted as requests).
    pub solve_retries: u64,
    /// Solves abandoned mid-run because every waiter left.
    pub cancelled_solves: u64,
    /// Completed solves whose design point was marked degraded.
    pub degraded_results: u64,
    /// Cache misses answered by a near-miss solve of a donor's permutation
    /// pair instead of the full sweep.
    pub near_miss_hits: u64,
    /// Requests rejected with `503` by admission control (queue-cap sheds
    /// + brown-out sheds).
    pub shed: u64,
    /// Subset of `shed`: cold misses rejected while in brown-out.
    pub browned_out: u64,
    /// Connections rejected at the accept side (cap and backlog both full).
    pub conn_capped: u64,
    /// Connections closed at a read-phase deadline (slowloris defense).
    pub deadline_closed: u64,
    /// Pool-queue depth at the most recent admission decision.
    pub queue_depth: u64,
    /// 1 while brown-out shedding is active, else 0.
    pub brownout_active: u64,
    /// Admission-time queue-depth samples recorded.
    pub queue_depth_count: u64,
    pub queue_depth_p50: f64,
    pub queue_depth_p95: f64,
    /// Cache entries restored from the atlas snapshot at startup.
    pub atlas_restored_entries: u64,
    /// Damaged atlas records skipped (or load failures) at startup.
    pub atlas_load_errors: u64,
    /// Per-cause sweep failure/recovery counters across completed solves.
    pub sweep_ledger: FailureLedger,
    pub solves_recorded: u64,
    pub solve_p50_ms: f64,
    pub solve_p95_ms: f64,
    /// Largest timeout cap applied to a recorded solve, in ms (0 if none).
    pub solve_timeout_ms: u64,
    /// Per-stage histograms, in [`STAGES`] order.
    pub stages: Vec<SummarySnapshot>,
    /// Per-phase request-breakdown histograms, in
    /// [`LatencyBreakdown::PHASES`] order.
    pub phases: Vec<SummarySnapshot>,
    /// Per-named-lock contention accounting, sorted by lock name. Empty
    /// when lock observation is disabled (`THISTLE_NO_LOCK_OBS`).
    pub locks: Vec<LockSnapshot>,
    /// Filled by `Service::metrics_snapshot`; `None` from a bare
    /// [`Metrics::snapshot`], which cannot see the cache.
    pub cache: Option<CacheSnapshot>,
}

impl MetricsSnapshot {
    /// Fraction of requests answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("requests".into(), num_u64(self.requests)),
            ("cache_hits".into(), num_u64(self.cache_hits)),
            ("cache_misses".into(), num_u64(self.cache_misses)),
            ("cache_hit_rate".into(), Json::Num(self.cache_hit_rate())),
            ("coalesced".into(), num_u64(self.coalesced)),
            ("solve_errors".into(), num_u64(self.solve_errors)),
            ("timeouts".into(), num_u64(self.timeouts)),
            ("in_flight".into(), num_u64(self.in_flight)),
            ("solve_timeout_ms".into(), num_u64(self.solve_timeout_ms)),
            ("worker_respawns".into(), num_u64(self.worker_respawns)),
            ("solve_retries".into(), num_u64(self.solve_retries)),
            ("cancelled_solves".into(), num_u64(self.cancelled_solves)),
            ("degraded_results".into(), num_u64(self.degraded_results)),
            ("near_miss_hits".into(), num_u64(self.near_miss_hits)),
            ("shed".into(), num_u64(self.shed)),
            ("browned_out".into(), num_u64(self.browned_out)),
            ("conn_capped".into(), num_u64(self.conn_capped)),
            ("deadline_closed".into(), num_u64(self.deadline_closed)),
            ("queue_depth".into(), num_u64(self.queue_depth)),
            ("brownout_active".into(), num_u64(self.brownout_active)),
            (
                "queue_depth_dist".into(),
                dist_json(
                    self.queue_depth_count,
                    self.queue_depth_p50,
                    self.queue_depth_p95,
                ),
            ),
            (
                "atlas_restored_entries".into(),
                num_u64(self.atlas_restored_entries),
            ),
            ("atlas_load_errors".into(), num_u64(self.atlas_load_errors)),
            (
                "sweep".into(),
                Json::Obj(
                    ledger_causes(&self.sweep_ledger)
                        .into_iter()
                        .map(|(cause, count)| (cause.to_string(), num_u64(count)))
                        .collect(),
                ),
            ),
            (
                "solve_latency_ms".into(),
                dist_json(self.solves_recorded, self.solve_p50_ms, self.solve_p95_ms),
            ),
            ("stages".into(), summaries_json(&self.stages)),
            ("phases".into(), summaries_json(&self.phases)),
            ("locks".into(), locks_json(&self.locks)),
        ];
        if let Some(cache) = &self.cache {
            fields.push((
                "cache".into(),
                Json::Obj(vec![
                    ("len".into(), num_u64(cache.len)),
                    ("capacity".into(), num_u64(cache.capacity)),
                    ("insertions".into(), num_u64(cache.insertions)),
                    ("evictions".into(), num_u64(cache.evictions)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Prometheus text exposition of the same snapshot `to_json` renders.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        for (name, value) in [
            ("requests_total", self.requests),
            ("cache_hits_total", self.cache_hits),
            ("cache_misses_total", self.cache_misses),
            ("coalesced_total", self.coalesced),
            ("solve_errors_total", self.solve_errors),
            ("timeouts_total", self.timeouts),
            ("solves_recorded_total", self.solves_recorded),
            ("worker_respawns_total", self.worker_respawns),
            ("solve_retries_total", self.solve_retries),
            ("cancelled_solves_total", self.cancelled_solves),
            ("degraded_results_total", self.degraded_results),
            ("near_miss_hits_total", self.near_miss_hits),
            ("shed_total", self.shed),
            ("browned_out_total", self.browned_out),
            ("conn_capped_total", self.conn_capped),
            ("deadline_closed_total", self.deadline_closed),
        ] {
            prom_scalar(&mut out, "counter", name, value);
        }
        out.push_str("# TYPE thistle_sweep_events_total counter\n");
        for (cause, count) in ledger_causes(&self.sweep_ledger) {
            let _ = writeln!(
                out,
                "thistle_sweep_events_total{{cause=\"{cause}\"}} {count}"
            );
        }
        let hit_rate = fmt_f64(self.cache_hit_rate());
        prom_scalar(&mut out, "gauge", "cache_hit_rate", hit_rate);
        for (name, value) in [
            ("in_flight", self.in_flight),
            ("solve_timeout_ms", self.solve_timeout_ms),
            ("atlas_restored_entries", self.atlas_restored_entries),
            ("atlas_load_errors", self.atlas_load_errors),
            ("queue_depth", self.queue_depth),
            ("brownout_active", self.brownout_active),
        ] {
            prom_scalar(&mut out, "gauge", name, value);
        }
        out.push_str("# TYPE thistle_queue_depth_dist summary\n");
        let (p50, p95) = (self.queue_depth_p50, self.queue_depth_p95);
        prom_quantiles(&mut out, "queue_depth_dist", "", p50, p95);
        let _ = writeln!(
            out,
            "thistle_queue_depth_dist_count {}",
            self.queue_depth_count
        );
        out.push_str("# TYPE thistle_solve_latency_ms summary\n");
        let (p50, p95) = (self.solve_p50_ms, self.solve_p95_ms);
        prom_quantiles(&mut out, "solve_latency_ms", "", p50, p95);
        prom_summaries(&mut out, "stage", &self.stages);
        prom_summaries(&mut out, "phase", &self.phases);
        if !self.locks.is_empty() {
            out.push_str("# TYPE thistle_lock_acquisitions_total counter\n");
            for l in &self.locks {
                let _ = writeln!(
                    out,
                    "thistle_lock_acquisitions_total{{lock=\"{}\"}} {}",
                    l.lock, l.acquisitions
                );
            }
            out.push_str("# TYPE thistle_lock_contended_total counter\n");
            for l in &self.locks {
                let _ = writeln!(
                    out,
                    "thistle_lock_contended_total{{lock=\"{}\"}} {}",
                    l.lock, l.contended
                );
            }
            out.push_str("# TYPE thistle_lock_wait_ms summary\n");
            for l in &self.locks {
                let labels = format!("lock=\"{}\",", l.lock);
                prom_quantiles(
                    &mut out,
                    "lock_wait_ms",
                    &labels,
                    l.wait_p50_ms,
                    l.wait_p95_ms,
                );
                let _ = writeln!(
                    out,
                    "thistle_lock_wait_ms_count{{lock=\"{}\"}} {}",
                    l.lock, l.wait_count
                );
            }
            out.push_str("# TYPE thistle_lock_hold_ms summary\n");
            for l in &self.locks {
                let labels = format!("lock=\"{}\",", l.lock);
                prom_quantiles(
                    &mut out,
                    "lock_hold_ms",
                    &labels,
                    l.hold_p50_ms,
                    l.hold_p95_ms,
                );
            }
        }
        if let Some(cache) = &self.cache {
            for (kind, name, value) in [
                ("gauge", "cache_len", cache.len),
                ("gauge", "cache_capacity", cache.capacity),
                ("counter", "cache_insertions_total", cache.insertions),
                ("counter", "cache_evictions_total", cache.evictions),
            ] {
                prom_scalar(&mut out, kind, name, value);
            }
        }
        out
    }
}

/// `(cause, count)` pairs of a [`FailureLedger`], in a stable order shared
/// by the JSON and Prometheus renderings.
fn ledger_causes(ledger: &FailureLedger) -> [(&'static str, u64); 10] {
    [
        ("generation", ledger.generation_failures),
        ("infeasible", ledger.infeasible),
        ("numerical", ledger.numerical),
        ("invalid", ledger.invalid),
        ("cancelled", ledger.cancelled),
        ("solver_panic", ledger.solver_panics),
        ("integerize_panic", ledger.integerize_panics),
        ("recovered", ledger.recovered),
        ("degraded", ledger.degraded_solves),
        ("stalled", ledger.stalled_solves),
    ]
}

/// `{"count", "p50", "p95"}`, the JSON shape of every windowed histogram.
pub(crate) fn dist_json(count: u64, p50: f64, p95: f64) -> Json {
    Json::Obj(vec![
        ("count".into(), num_u64(count)),
        ("p50".into(), Json::Num(p50)),
        ("p95".into(), Json::Num(p95)),
    ])
}

/// The `stages` and `phases` JSON blocks: one [`dist_json`] per entry,
/// keyed by its name.
pub(crate) fn summaries_json(summaries: &[SummarySnapshot]) -> Json {
    Json::Obj(
        summaries
            .iter()
            .map(|s| (s.name.to_string(), dist_json(s.count, s.p50_ms, s.p95_ms)))
            .collect(),
    )
}

/// The `locks` JSON block, shared by `GET /metrics` and
/// `GET /debug/contention`.
pub(crate) fn locks_json(locks: &[LockSnapshot]) -> Json {
    Json::Obj(
        locks
            .iter()
            .map(|l| {
                let hold = Json::Obj(vec![
                    ("p50".into(), Json::Num(l.hold_p50_ms)),
                    ("p95".into(), Json::Num(l.hold_p95_ms)),
                ]);
                let entry = vec![
                    ("acquisitions".into(), num_u64(l.acquisitions)),
                    ("contended".into(), num_u64(l.contended)),
                    ("contention_rate".into(), Json::Num(l.contention_rate())),
                    (
                        "wait_ms".into(),
                        dist_json(l.wait_count, l.wait_p50_ms, l.wait_p95_ms),
                    ),
                    ("hold_ms".into(), hold),
                ];
                (l.lock.clone(), Json::Obj(entry))
            })
            .collect(),
    )
}

/// One `# TYPE` line and one sample for an unlabelled counter or gauge.
fn prom_scalar(out: &mut String, kind: &str, name: &str, value: impl Display) {
    let _ = writeln!(out, "# TYPE thistle_{name} {kind}\nthistle_{name} {value}");
}

/// The p50 and p95 samples of one summary; `labels` is empty or ends in a
/// comma.
fn prom_quantiles(out: &mut String, name: &str, labels: &str, p50: f64, p95: f64) {
    for (q, v) in [("0.5", p50), ("0.95", p95)] {
        let _ = writeln!(
            out,
            "thistle_{name}{{{labels}quantile=\"{q}\"}} {}",
            fmt_f64(v)
        );
    }
}

/// The stage or phase block: a `<key>_latency_ms` summary and a
/// `<key>_count_total` counter, both labelled `<key>=<name>`.
fn prom_summaries(out: &mut String, key: &str, summaries: &[SummarySnapshot]) {
    let latency = format!("{key}_latency_ms");
    let _ = writeln!(out, "# TYPE thistle_{latency} summary");
    for s in summaries {
        let labels = format!("{key}=\"{}\",", s.name);
        prom_quantiles(out, &latency, &labels, s.p50_ms, s.p95_ms);
    }
    let _ = writeln!(out, "# TYPE thistle_{key}_count_total counter");
    for s in summaries {
        let _ = writeln!(
            out,
            "thistle_{key}_count_total{{{key}=\"{}\"}} {}",
            s.name, s.count
        );
    }
}

/// Renders an f64 without scientific notation surprises for whole numbers.
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Builds the service metrics on an existing registry, registering each
    /// metric under its Prometheus-style name. The stages are labels of the
    /// span-duration family a [`thistle_obs::MetricsBridge`] on the same
    /// registry fills.
    pub fn on_registry(registry: Arc<Registry>) -> Self {
        let spans = registry.histogram_family(SPAN_DURATION_MS, "span", WINDOW, CARDINALITY);
        // Pre-register every stage so snapshots always report all of them,
        // including stages that have not fired yet, and so no number of
        // other span names can push a stage into the overflow slot.
        for stage in STAGES {
            spans.with_label(stage);
        }
        let phases = registry.histogram_family("phase_latency_ms", "phase", WINDOW, CARDINALITY);
        for phase in LatencyBreakdown::PHASES {
            phases.with_label(phase);
        }
        Metrics {
            requests: registry.counter("requests_total"),
            cache_hits: registry.counter("cache_hits_total"),
            cache_misses: registry.counter("cache_misses_total"),
            coalesced: registry.counter("coalesced_total"),
            solve_errors: registry.counter("solve_errors_total"),
            timeouts: registry.counter("timeouts_total"),
            in_flight: registry.gauge("in_flight"),
            solve_timeout_ms: registry.gauge("solve_timeout_ms"),
            worker_respawns: registry.counter("worker_respawns_total"),
            solve_retries: registry.counter("solve_retries_total"),
            cancelled_solves: registry.counter("cancelled_solves_total"),
            degraded_results: registry.counter("degraded_results_total"),
            near_miss_hits: registry.counter("near_miss_hits_total"),
            shed: registry.counter("shed_total"),
            browned_out: registry.counter("browned_out_total"),
            conn_capped: registry.counter("conn_capped_total"),
            deadline_closed: registry.counter("deadline_closed_total"),
            queue_depth: registry.gauge("queue_depth"),
            brownout_active: registry.gauge("brownout_active"),
            queue_depths: registry.histogram("queue_depth_dist", WINDOW),
            atlas_restored_entries: registry.gauge("atlas_restored_entries"),
            atlas_load_errors: registry.gauge("atlas_load_errors"),
            ledger: Mutex::new(FailureLedger::default()),
            latencies: registry.histogram("solve_latency_ms", WINDOW),
            spans,
            phases,
            breakdown_ring: Mutex::new(VecDeque::new()),
            registry,
        }
    }

    /// The registry backing every metric here, which the service's span
    /// bridge and observed locks share.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Marks a request as started; the guard un-marks it on drop (including
    /// panics and early returns).
    pub fn request_started(&self) -> InFlightGuard<'_> {
        self.requests.inc();
        self.in_flight.add(1);
        InFlightGuard { metrics: self }
    }

    pub fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    pub fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    pub fn record_coalesced(&self) {
        self.coalesced.inc();
    }

    pub fn record_solve_error(&self) {
        self.solve_errors.inc();
    }

    pub fn record_worker_respawn(&self) {
        self.worker_respawns.inc();
    }

    pub fn record_solve_retry(&self) {
        self.solve_retries.inc();
    }

    pub fn record_cancelled_solve(&self) {
        self.cancelled_solves.inc();
    }

    /// Marks a request rejected by admission control (hard queue cap or
    /// injected `serve.queue.full`).
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Marks a cold miss rejected while the service is in brown-out mode
    /// (hits and near-miss solves still served). Counts toward `shed` too.
    pub fn record_brownout_shed(&self) {
        self.browned_out.inc();
        self.shed.inc();
    }

    /// Marks a connection rejected at the accept side because both the
    /// connection cap and the accept backlog were full.
    pub fn record_conn_capped(&self) {
        self.conn_capped.inc();
    }

    /// Marks a connection closed because a read phase overran its deadline
    /// (slowloris defense; the client sees `408`).
    pub fn record_deadline_closed(&self) {
        self.deadline_closed.inc();
    }

    /// Samples the pool queue depth at an admission decision: updates the
    /// gauge and the percentile window.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.set(depth);
        self.queue_depths.record(depth as f64);
    }

    /// Flags whether brown-out shedding is currently active.
    pub fn set_brownout(&self, active: bool) {
        self.brownout_active.set(active as u64);
    }

    /// Marks a cache miss that was answered by a near-miss solve (the
    /// permutation pair of a stored same-family entry) instead of the full
    /// sweep.
    pub fn record_near_miss_hit(&self) {
        self.near_miss_hits.inc();
    }

    /// Records the outcome of the startup atlas restore: how many cache
    /// entries survived, and how many records (or whole files) were lost.
    pub fn record_atlas_restore(&self, restored: u64, errors: u64) {
        self.atlas_restored_entries.set(restored);
        self.atlas_load_errors.set(errors);
    }

    /// Folds one completed solve's sweep accounting into the service totals
    /// (and bumps the degraded-result counter if the point is marked so).
    pub fn record_solve_outcome(&self, ledger: &FailureLedger, degraded: bool) {
        self.ledger.lock().expect("ledger lock").merge(ledger);
        if degraded {
            self.degraded_results.inc();
        }
    }

    /// Records a request that hit its deadline. The wait is entered into the
    /// latency window *capped at the timeout* — a censored sample. Dropping
    /// it entirely (the old behavior) biased p50/p95 low exactly when the
    /// service was slowest; the cap is still an underestimate of the true
    /// solve time, so [`MetricsSnapshot::solve_timeout_ms`] reports the cap
    /// for reading the percentiles honestly.
    pub fn record_timeout(&self, cap: Duration) {
        self.timeouts.inc();
        let cap_ms = cap.as_secs_f64() * 1e3;
        self.solve_timeout_ms.max(cap_ms.ceil() as u64);
        self.latencies.record(cap_ms);
    }

    pub fn record_solve_latency(&self, elapsed: Duration) {
        self.latencies.record(elapsed.as_secs_f64() * 1e3);
    }

    /// Records how long a pool job waited between enqueue and dequeue, as
    /// the `queue_wait` stage.
    pub fn record_queue_wait(&self, elapsed: Duration) {
        self.spans.record("queue_wait", elapsed.as_secs_f64() * 1e3);
    }

    /// Folds one completed request's latency breakdown into the per-phase
    /// histograms and the bounded recent-breakdowns ring.
    pub fn record_breakdown(&self, breakdown: &LatencyBreakdown) {
        for (phase, ms) in breakdown.phases() {
            self.phases.record(phase, ms);
        }
        let mut ring = self.breakdown_ring.lock().expect("breakdown ring lock");
        if ring.len() >= BREAKDOWN_RING {
            ring.pop_front();
        }
        ring.push_back(*breakdown);
    }

    /// The most recent request breakdowns in arrival order, bounded at the
    /// ring capacity, for `GET /debug/contention`.
    pub fn recent_breakdowns(&self) -> Vec<LatencyBreakdown> {
        self.breakdown_ring
            .lock()
            .expect("breakdown ring lock")
            .iter()
            .copied()
            .collect()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let lat = self.latencies.summary();
        let queue = self.queue_depths.summary();
        let locks = lock_snapshots(&self.registry);
        MetricsSnapshot {
            requests: self.requests.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            coalesced: self.coalesced.get(),
            solve_errors: self.solve_errors.get(),
            timeouts: self.timeouts.get(),
            in_flight: self.in_flight.get(),
            worker_respawns: self.worker_respawns.get(),
            solve_retries: self.solve_retries.get(),
            cancelled_solves: self.cancelled_solves.get(),
            degraded_results: self.degraded_results.get(),
            near_miss_hits: self.near_miss_hits.get(),
            shed: self.shed.get(),
            browned_out: self.browned_out.get(),
            conn_capped: self.conn_capped.get(),
            deadline_closed: self.deadline_closed.get(),
            queue_depth: self.queue_depth.get(),
            brownout_active: self.brownout_active.get(),
            queue_depth_count: queue.count,
            queue_depth_p50: queue.p50,
            queue_depth_p95: queue.p95,
            atlas_restored_entries: self.atlas_restored_entries.get(),
            atlas_load_errors: self.atlas_load_errors.get(),
            sweep_ledger: *self.ledger.lock().expect("ledger lock"),
            solves_recorded: lat.count,
            solve_p50_ms: lat.p50,
            solve_p95_ms: lat.p95,
            solve_timeout_ms: self.solve_timeout_ms.get(),
            stages: summaries(&self.spans, &STAGES),
            phases: summaries(&self.phases, &LatencyBreakdown::PHASES),
            locks,
            cache: None,
        }
    }
}

/// The labelled histograms `names` of `family`, in order.
fn summaries(family: &HistogramFamily, names: &[&'static str]) -> Vec<SummarySnapshot> {
    names
        .iter()
        .map(|&name| {
            let s = family.with_label(name).summary();
            SummarySnapshot {
                name,
                count: s.count,
                p50_ms: s.p50,
                p95_ms: s.p95,
            }
        })
        .collect()
}

/// Reads the per-lock contention families (`lock_wait_ms`, `lock_hold_ms`,
/// and their counters, registered by `thistle_obs::contention` wrappers)
/// back out of the shared registry, merged per lock name and sorted for a
/// stable rendering order.
fn lock_snapshots(registry: &Registry) -> Vec<LockSnapshot> {
    let raw = registry.snapshot();
    let mut by_lock: BTreeMap<String, LockSnapshot> = BTreeMap::new();
    let entry = |map: &mut BTreeMap<String, LockSnapshot>, lock: &str| -> LockSnapshot {
        map.remove(lock).unwrap_or_else(|| LockSnapshot {
            lock: lock.to_string(),
            ..LockSnapshot::default()
        })
    };
    for h in &raw.histograms {
        let Some((key, lock)) = &h.label else {
            continue;
        };
        if key.as_str() != contention::LOCK_LABEL {
            continue;
        }
        if h.name == contention::LOCK_WAIT_MS {
            let mut l = entry(&mut by_lock, lock);
            l.wait_count = h.summary.count;
            l.wait_p50_ms = h.summary.p50;
            l.wait_p95_ms = h.summary.p95;
            by_lock.insert(lock.clone(), l);
        } else if h.name == contention::LOCK_HOLD_MS {
            let mut l = entry(&mut by_lock, lock);
            l.hold_p50_ms = h.summary.p50;
            l.hold_p95_ms = h.summary.p95;
            by_lock.insert(lock.clone(), l);
        }
    }
    for c in &raw.counters {
        let Some((key, lock)) = &c.label else {
            continue;
        };
        if key.as_str() != contention::LOCK_LABEL {
            continue;
        }
        if c.name == contention::LOCK_ACQUISITIONS_TOTAL {
            let mut l = entry(&mut by_lock, lock);
            l.acquisitions = c.value;
            by_lock.insert(lock.clone(), l);
        } else if c.name == contention::LOCK_CONTENDED_TOTAL {
            let mut l = entry(&mut by_lock, lock);
            l.contended = c.value;
            by_lock.insert(lock.clone(), l);
        }
    }
    by_lock.into_values().collect()
}

/// RAII guard for the in-flight gauge.
pub struct InFlightGuard<'a> {
    metrics: &'a Metrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thistle_obs::registry::OVERFLOW_LABEL;
    use thistle_obs::{MetricsBridge, TraceCtx};

    /// A trace context whose spans reach `metrics` the way the service's
    /// do: through a bridge on the same registry.
    fn bridged(metrics: &Metrics) -> TraceCtx {
        TraceCtx::new(Arc::new(MetricsBridge::new(
            metrics.registry(),
            WINDOW,
            CARDINALITY,
        )))
    }

    #[test]
    fn counters_and_gauge_track() {
        let m = Metrics::new();
        {
            let _g = m.request_started();
            m.record_cache_miss();
            assert_eq!(m.snapshot().in_flight, 1);
        }
        {
            let _g = m.request_started();
            m.record_cache_hit();
        }
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.in_flight, 0);
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_over_the_window() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record_solve_latency(Duration::from_millis(i));
        }
        let s = m.snapshot();
        assert_eq!(s.solves_recorded, 100);
        assert!(
            (s.solve_p50_ms - 50.0).abs() <= 1.0,
            "p50 {}",
            s.solve_p50_ms
        );
        assert!(
            (s.solve_p95_ms - 95.0).abs() <= 1.0,
            "p95 {}",
            s.solve_p95_ms
        );
    }

    #[test]
    fn window_wraps_without_growing() {
        let m = Metrics::new();
        for i in 0..3000u64 {
            m.record_solve_latency(Duration::from_micros(i));
        }
        let s = m.snapshot();
        assert_eq!(s.solves_recorded, 3000);
        assert_eq!(m.latencies.buffered(), WINDOW);
    }

    #[test]
    fn wrapped_window_keeps_only_the_newest_samples() {
        // 1024 slow samples (1000 ms), then WINDOW fast ones (1 ms). After
        // wrapping, every retained sample is fast, so the percentiles must
        // reflect only the newest WINDOW samples.
        let m = Metrics::new();
        for _ in 0..WINDOW {
            m.record_solve_latency(Duration::from_millis(1000));
        }
        for _ in 0..WINDOW {
            m.record_solve_latency(Duration::from_millis(1));
        }
        let s = m.snapshot();
        assert_eq!(s.solves_recorded, 2 * WINDOW as u64);
        assert!(
            (s.solve_p50_ms - 1.0).abs() < 1e-9,
            "p50 {}",
            s.solve_p50_ms
        );
        assert!(
            (s.solve_p95_ms - 1.0).abs() < 1e-9,
            "p95 {}",
            s.solve_p95_ms
        );

        // Partial wrap: 600 new fast samples leave a ~60/40 mix, so p50 is
        // fast and p95 still slow.
        let m = Metrics::new();
        for _ in 0..WINDOW {
            m.record_solve_latency(Duration::from_millis(1000));
        }
        for _ in 0..600 {
            m.record_solve_latency(Duration::from_millis(1));
        }
        let s = m.snapshot();
        assert!(s.solve_p50_ms <= 1.0 + 1e-9, "p50 {}", s.solve_p50_ms);
        assert!(
            (s.solve_p95_ms - 1000.0).abs() < 1e-9,
            "p95 {}",
            s.solve_p95_ms
        );
    }

    #[test]
    fn percentiles_on_known_distributions() {
        // Uniform 1..=1000: nearest-rank p50/p95 land on 500/950.
        let m = Metrics::new();
        for i in 1..=1000u64 {
            m.record_solve_latency(Duration::from_millis(i));
        }
        let s = m.snapshot();
        assert!((s.solve_p50_ms - 500.0).abs() <= 1.0, "{}", s.solve_p50_ms);
        assert!((s.solve_p95_ms - 950.0).abs() <= 1.0, "{}", s.solve_p95_ms);

        // Bimodal: 90 fast (10 ms) + 10 slow (2000 ms) — p50 fast, p95 slow.
        let m = Metrics::new();
        for _ in 0..90 {
            m.record_solve_latency(Duration::from_millis(10));
        }
        for _ in 0..10 {
            m.record_solve_latency(Duration::from_millis(2000));
        }
        let s = m.snapshot();
        assert!((s.solve_p50_ms - 10.0).abs() < 1e-9);
        assert!((s.solve_p95_ms - 2000.0).abs() < 1e-9);

        // Constant distribution: all percentiles equal the constant.
        let m = Metrics::new();
        for _ in 0..37 {
            m.record_solve_latency(Duration::from_millis(42));
        }
        let s = m.snapshot();
        assert!((s.solve_p50_ms - 42.0).abs() < 1e-9);
        assert!((s.solve_p95_ms - 42.0).abs() < 1e-9);
    }

    #[test]
    fn timeouts_enter_the_window_capped() {
        // Nine fast solves and one timeout at 5 s: the timeout must appear
        // in the window (p95 = the cap), not vanish from the percentiles.
        let m = Metrics::new();
        for _ in 0..9 {
            m.record_solve_latency(Duration::from_millis(10));
        }
        m.record_timeout(Duration::from_secs(5));
        let s = m.snapshot();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.solves_recorded, 10);
        assert_eq!(s.solve_timeout_ms, 5000);
        assert!((s.solve_p95_ms - 5000.0).abs() < 1e-9, "{}", s.solve_p95_ms);
        // The cap tracks the largest deadline seen.
        m.record_timeout(Duration::from_secs(2));
        assert_eq!(m.snapshot().solve_timeout_ms, 5000);
    }

    #[test]
    fn stage_histograms_fill_from_spans() {
        let metrics = Metrics::new();
        let ctx = bridged(&metrics);
        {
            let _request = ctx.span("request");
            let _lookup = ctx.span("cache_lookup");
        }
        {
            // Spans that are not stages must not disturb any stage.
            let _other = ctx.span("barrier_solve");
        }
        let s = metrics.snapshot();
        let stage = |name: &str| s.stages.iter().find(|x| x.name == name).unwrap();
        assert_eq!(stage("request").count, 1);
        assert_eq!(stage("cache_lookup").count, 1);
        assert_eq!(stage("gp_solve").count, 0);
        let total: u64 = s.stages.iter().map(|x| x.count).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn stages_keep_their_labels_past_the_span_cardinality() {
        // More distinct span names than the family can hold: the stages,
        // registered first, still report their own counts, and only the
        // late names share the overflow slot.
        let metrics = Metrics::new();
        let ctx = bridged(&metrics);
        let others: Vec<&'static str> = (0..40)
            .map(|i| format!("other_{i}").leak() as &'static str)
            .collect();
        for &name in &others {
            let _span = ctx.span(name);
        }
        for stage in STAGES.iter().filter(|&&s| s != "queue_wait") {
            let _span = ctx.span(stage);
        }
        metrics.record_queue_wait(Duration::from_millis(3));
        let s = metrics.snapshot();
        for stage in &s.stages {
            assert_eq!(stage.count, 1, "stage {}", stage.name);
        }
        let raw = metrics.registry().snapshot();
        let spans: Vec<_> = raw
            .histograms
            .iter()
            .filter(|h| h.name == SPAN_DURATION_MS)
            .collect();
        let overflow = spans
            .iter()
            .find(|h| h.label.as_ref().is_some_and(|(_, l)| l == OVERFLOW_LABEL))
            .expect("overflow slot");
        let registered = CARDINALITY - STAGES.len();
        assert_eq!(overflow.summary.count, (others.len() - registered) as u64);
        assert_eq!(spans.len(), CARDINALITY + 1);
    }

    #[test]
    fn metrics_share_state_with_the_backing_registry() {
        let registry = Arc::new(Registry::new());
        let m = Metrics::on_registry(Arc::clone(&registry));
        {
            let _g = m.request_started();
            m.record_cache_miss();
            m.record_solve_latency(Duration::from_millis(25));
        }
        m.record_queue_wait(Duration::from_millis(7));

        // The raw registry snapshot reports the very same samples the
        // service snapshot renders: one source of truth, two views.
        let raw = registry.snapshot();
        let counter = |name: &str| {
            raw.counters
                .iter()
                .find(|c| c.name == name && c.label.is_none())
                .map(|c| c.value)
        };
        assert_eq!(counter("requests_total"), Some(1));
        assert_eq!(counter("cache_misses_total"), Some(1));
        let lat = raw
            .histograms
            .iter()
            .find(|h| h.name == "solve_latency_ms")
            .expect("latency histogram registered");
        assert_eq!(lat.summary.count, 1);
        let stage = raw
            .histograms
            .iter()
            .find(|h| {
                h.name == SPAN_DURATION_MS
                    && h.label.as_ref().is_some_and(|(_, l)| l == "queue_wait")
            })
            .expect("stage family sample");
        assert_eq!(stage.summary.count, 1);
        // Every stage is pre-registered, even ones that never fired.
        let stage_samples = raw
            .histograms
            .iter()
            .filter(|h| h.name == SPAN_DURATION_MS)
            .count();
        assert_eq!(stage_samples, STAGES.len());

        // And the service snapshot reads back the same values.
        let s = m.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.solves_recorded, 1);
    }

    #[test]
    fn snapshot_renders_as_json() {
        let m = Metrics::new();
        m.record_cache_hit();
        m.record_queue_wait(Duration::from_millis(7));
        let json = m.snapshot().to_json();
        assert_eq!(json.get("cache_hits").unwrap().as_u64(), Some(1));
        assert!(json.get("solve_latency_ms").unwrap().get("p50").is_some());
        assert_eq!(
            json.get("stages")
                .unwrap()
                .get("queue_wait")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // And the emitted text parses back.
        assert!(Json::parse(&json.emit()).is_ok());
    }

    #[test]
    fn prometheus_and_json_render_the_same_snapshot() {
        let m = Metrics::new();
        {
            let _g = m.request_started();
            m.record_cache_miss();
            m.record_solve_latency(Duration::from_millis(40));
        }
        {
            let _g = m.request_started();
            m.record_cache_hit();
        }
        m.record_timeout(Duration::from_millis(500));
        m.record_queue_wait(Duration::from_millis(12));
        m.record_near_miss_hit();
        m.record_atlas_restore(5, 2);
        m.record_shed();
        m.record_brownout_shed();
        m.record_conn_capped();
        m.record_deadline_closed();
        m.record_queue_depth(3);
        m.record_queue_depth(7);
        m.set_brownout(true);
        let mut snap = m.snapshot();
        snap.cache = Some(CacheSnapshot {
            len: 3,
            capacity: 16,
            insertions: 4,
            evictions: 1,
        });

        let json = snap.to_json();
        let text = snap.to_prometheus();
        // Every scalar the JSON reports appears with the same value in the
        // Prometheus text, so the two endpoints can never disagree.
        let prom_value = |name: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with(name) && l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap()
        };
        let json_u64 = |name: &str| json.get(name).unwrap().as_u64().unwrap() as f64;
        assert_eq!(prom_value("thistle_requests_total"), json_u64("requests"));
        assert_eq!(
            prom_value("thistle_cache_hits_total"),
            json_u64("cache_hits")
        );
        assert_eq!(
            prom_value("thistle_cache_misses_total"),
            json_u64("cache_misses")
        );
        assert_eq!(prom_value("thistle_timeouts_total"), json_u64("timeouts"));
        assert_eq!(
            prom_value("thistle_solve_timeout_ms"),
            json_u64("solve_timeout_ms")
        );
        assert_eq!(prom_value("thistle_in_flight"), json_u64("in_flight"));
        assert_eq!(
            prom_value("thistle_near_miss_hits_total"),
            json_u64("near_miss_hits")
        );
        assert_eq!(prom_value("thistle_shed_total"), json_u64("shed"));
        assert_eq!(
            prom_value("thistle_browned_out_total"),
            json_u64("browned_out")
        );
        assert_eq!(
            prom_value("thistle_conn_capped_total"),
            json_u64("conn_capped")
        );
        assert_eq!(
            prom_value("thistle_deadline_closed_total"),
            json_u64("deadline_closed")
        );
        assert_eq!(prom_value("thistle_queue_depth"), json_u64("queue_depth"));
        assert_eq!(
            prom_value("thistle_brownout_active"),
            json_u64("brownout_active")
        );
        assert_eq!(prom_value("thistle_shed_total"), 2.0);
        assert_eq!(prom_value("thistle_browned_out_total"), 1.0);
        assert_eq!(prom_value("thistle_brownout_active"), 1.0);
        assert_eq!(prom_value("thistle_queue_depth"), 7.0);
        assert_eq!(
            prom_value("thistle_queue_depth_dist_count"),
            json.get("queue_depth_dist")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64()
                .unwrap() as f64
        );
        assert_eq!(
            prom_value("thistle_queue_depth_dist{quantile=\"0.95\"}"),
            json.get("queue_depth_dist")
                .unwrap()
                .get("p95")
                .unwrap()
                .as_f64()
                .unwrap()
        );
        assert_eq!(
            prom_value("thistle_atlas_restored_entries"),
            json_u64("atlas_restored_entries")
        );
        assert_eq!(
            prom_value("thistle_atlas_load_errors"),
            json_u64("atlas_load_errors")
        );
        assert_eq!(prom_value("thistle_atlas_restored_entries"), 5.0);
        assert_eq!(prom_value("thistle_atlas_load_errors"), 2.0);
        assert_eq!(prom_value("thistle_cache_len"), 3.0);
        assert_eq!(prom_value("thistle_cache_capacity"), 16.0);
        assert_eq!(prom_value("thistle_cache_insertions_total"), 4.0);
        assert_eq!(prom_value("thistle_cache_evictions_total"), 1.0);
        assert_eq!(
            prom_value("thistle_solve_latency_ms{quantile=\"0.95\"}"),
            json.get("solve_latency_ms")
                .unwrap()
                .get("p95")
                .unwrap()
                .as_f64()
                .unwrap()
        );
        assert_eq!(
            prom_value("thistle_stage_count_total{stage=\"queue_wait\"}"),
            json.get("stages")
                .unwrap()
                .get("queue_wait")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64()
                .unwrap() as f64
        );
    }
}
