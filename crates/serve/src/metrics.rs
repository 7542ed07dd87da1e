//! Service counters, solve-latency percentiles, and per-stage telemetry.
//!
//! All metric state lives in a [`thistle_obs::Registry`]: counters and
//! gauges are lock-free atomics, latencies go into windowed histograms
//! (solves are milliseconds-to-seconds long, so the per-sample locks are
//! uncontended noise next to them). [`Metrics`] holds typed handles into
//! the registry and preserves the established `GET /metrics` JSON and
//! Prometheus renderings exactly. Per-stage histograms are fed by
//! [`MetricsSink`], a `thistle_obs` sink that routes closed spans to their
//! [`Stage`] by span name, so the same trace that feeds a Chrome export
//! also feeds `GET /metrics`.

use crate::json::{num_u64, Json};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use thistle::FailureLedger;
use thistle_obs::{contention, Counter, Gauge, Histogram, HistogramFamily, Record, Registry, Sink};

/// Number of recent latencies kept per histogram window for percentile
/// estimates.
pub(crate) const WINDOW: usize = 1024;

/// Queue-depth samples retained in arrival order for the dashboard
/// sparkline (the windowed histogram keeps more, but loses ordering).
const QUEUE_RING: usize = 240;

/// Distinct stage labels allowed in the stage-latency family (well above
/// [`Stage::ALL`]; the registry overflow slot catches programming errors).
const STAGE_CARDINALITY: usize = 16;

/// Recent per-request latency breakdowns kept in arrival order for the
/// dashboard's phase-stacked view of recent solves.
const BREAKDOWN_RING: usize = 32;

/// Pipeline stages with their own latency histograms in `GET /metrics`.
///
/// Each stage is fed by the span of the same (snake_case) name via
/// [`MetricsSink`], except [`Stage::QueueWait`], which the solve pool
/// records directly (queue wait is measured between threads, which a
/// single span cannot express).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Whole request, cache lookup through response adaptation.
    Request,
    /// Canonical-key LRU probe.
    CacheLookup,
    /// Job sat in the pool queue before a worker picked it up.
    QueueWait,
    /// Permutation-class enumeration.
    PermEnum,
    /// One geometric-program solve (per permutation pair).
    GpSolve,
    /// One exact solve shared by a group of permutation pairs whose GPs are
    /// byte-identical (the sweep's deduplication).
    BatchSolve,
    /// Lowering a GP into its compiled log-sum-exp evaluation form.
    ExprCompile,
    /// Signomial condensation refinement rounds.
    Condense,
    /// Integer candidate generation from a relaxed optimum.
    Integerize,
    /// Referee rescoring of integer candidates.
    Rescore,
}

impl Stage {
    pub const ALL: [Stage; 10] = [
        Stage::Request,
        Stage::CacheLookup,
        Stage::QueueWait,
        Stage::PermEnum,
        Stage::GpSolve,
        Stage::BatchSolve,
        Stage::ExprCompile,
        Stage::Condense,
        Stage::Integerize,
        Stage::Rescore,
    ];

    /// Stable snake_case name used in span names, JSON, and Prometheus.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::CacheLookup => "cache_lookup",
            Stage::QueueWait => "queue_wait",
            Stage::PermEnum => "perm_enum",
            Stage::GpSolve => "gp_solve",
            Stage::BatchSolve => "batch_solve",
            Stage::ExprCompile => "expr_compile",
            Stage::Condense => "condensation",
            Stage::Integerize => "integerize",
            Stage::Rescore => "rescore",
        }
    }

    /// Maps a closed span's name onto the stage it times, if any.
    pub fn from_span_name(name: &str) -> Option<Stage> {
        match name {
            "request" => Some(Stage::Request),
            "cache_lookup" => Some(Stage::CacheLookup),
            "queue_wait" => Some(Stage::QueueWait),
            "perm_enum" => Some(Stage::PermEnum),
            "gp_solve" => Some(Stage::GpSolve),
            "batch_solve" => Some(Stage::BatchSolve),
            "expr_compile" => Some(Stage::ExprCompile),
            "condensation" => Some(Stage::Condense),
            "integerize" => Some(Stage::Integerize),
            "rescore" => Some(Stage::Rescore),
            _ => None,
        }
    }
}

/// Shared service metrics. All methods take `&self`.
///
/// Every counter, gauge, and histogram is a handle into one
/// [`thistle_obs::Registry`], so `GET /metrics` and the registry debug
/// surfaces sample the same state. The handles are resolved once at
/// construction; the hot path never searches the registry by name.
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
    breaker_opened: Counter,
    breaker_fastfails: Counter,
    degraded_results: Counter,
    near_miss_hits: Counter,
    /// Requests rejected with `503` to protect the service: hard queue-cap
    /// sheds, brown-out sheds, and breaker fast-fails all count here.
    shed: Counter,
    /// Subset of `shed`: cold misses rejected while the service is in
    /// brown-out (serving hits and warm starts only).
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
    /// misses shed, hits and warm starts served), else 0.
    brownout_active: Gauge,
    /// Distribution of the admission-time queue-depth samples.
    queue_depths: Histogram,
    /// The same samples in arrival order, bounded, for the dashboard
    /// sparkline.
    queue_ring: Mutex<VecDeque<f64>>,
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
    stages: HistogramFamily,
    /// Per-phase request-breakdown histograms
    /// ([`LatencyBreakdown::PHASES`] labels).
    phases: HistogramFamily,
    /// Recent complete breakdowns in arrival order, bounded, for the
    /// dashboard's phase-stacked view.
    breakdown_ring: Mutex<VecDeque<LatencyBreakdown>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::on_registry(Arc::new(Registry::new()))
    }
}

/// One stage's histogram in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    pub stage: &'static str,
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

    /// Sum of all six phases.
    pub fn total_ms(&self) -> f64 {
        self.phases().iter().map(|(_, ms)| ms).sum()
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

/// One phase's histogram in a snapshot, in [`LatencyBreakdown::PHASES`]
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnapshot {
    pub phase: &'static str,
    pub count: u64,
    pub p50_ms: f64,
    pub p95_ms: f64,
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
    /// Times a per-shape circuit breaker tripped open (including re-opens).
    pub breaker_opened: u64,
    /// Requests fast-failed by an open breaker.
    pub breaker_fastfails: u64,
    /// Completed solves whose design point was marked degraded.
    pub degraded_results: u64,
    /// Cache misses answered by a warm-started near-miss solve instead of a
    /// cold sweep.
    pub near_miss_hits: u64,
    /// Requests rejected with `503` to protect the service (queue-cap sheds
    /// + brown-out sheds + breaker fast-fails).
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
    /// Per-stage histograms, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// Per-phase request-breakdown histograms, in
    /// [`LatencyBreakdown::PHASES`] order.
    pub phases: Vec<PhaseSnapshot>,
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
            ("breaker_opened".into(), num_u64(self.breaker_opened)),
            ("breaker_fastfails".into(), num_u64(self.breaker_fastfails)),
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
                Json::Obj(vec![
                    ("count".into(), num_u64(self.queue_depth_count)),
                    ("p50".into(), Json::Num(self.queue_depth_p50)),
                    ("p95".into(), Json::Num(self.queue_depth_p95)),
                ]),
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
                Json::Obj(vec![
                    ("count".into(), num_u64(self.solves_recorded)),
                    ("p50".into(), Json::Num(self.solve_p50_ms)),
                    ("p95".into(), Json::Num(self.solve_p95_ms)),
                ]),
            ),
            (
                "stages".into(),
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|s| {
                            (
                                s.stage.to_string(),
                                Json::Obj(vec![
                                    ("count".into(), num_u64(s.count)),
                                    ("p50".into(), Json::Num(s.p50_ms)),
                                    ("p95".into(), Json::Num(s.p95_ms)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "phases".into(),
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|p| {
                            (
                                p.phase.to_string(),
                                Json::Obj(vec![
                                    ("count".into(), num_u64(p.count)),
                                    ("p50".into(), Json::Num(p.p50_ms)),
                                    ("p95".into(), Json::Num(p.p95_ms)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "locks".into(),
                Json::Obj(
                    self.locks
                        .iter()
                        .map(|l| {
                            (
                                l.lock.clone(),
                                Json::Obj(vec![
                                    ("acquisitions".into(), num_u64(l.acquisitions)),
                                    ("contended".into(), num_u64(l.contended)),
                                    (
                                        "wait_ms".into(),
                                        Json::Obj(vec![
                                            ("count".into(), num_u64(l.wait_count)),
                                            ("p50".into(), Json::Num(l.wait_p50_ms)),
                                            ("p95".into(), Json::Num(l.wait_p95_ms)),
                                        ]),
                                    ),
                                    (
                                        "hold_ms".into(),
                                        Json::Obj(vec![
                                            ("p50".into(), Json::Num(l.hold_p50_ms)),
                                            ("p95".into(), Json::Num(l.hold_p95_ms)),
                                        ]),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
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
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, value: u64| {
            out.push_str(&format!(
                "# TYPE thistle_{name} counter\nthistle_{name} {value}\n"
            ));
        };
        counter("requests_total", self.requests);
        counter("cache_hits_total", self.cache_hits);
        counter("cache_misses_total", self.cache_misses);
        counter("coalesced_total", self.coalesced);
        counter("solve_errors_total", self.solve_errors);
        counter("timeouts_total", self.timeouts);
        counter("solves_recorded_total", self.solves_recorded);
        counter("worker_respawns_total", self.worker_respawns);
        counter("solve_retries_total", self.solve_retries);
        counter("cancelled_solves_total", self.cancelled_solves);
        counter("breaker_opened_total", self.breaker_opened);
        counter("breaker_fastfails_total", self.breaker_fastfails);
        counter("degraded_results_total", self.degraded_results);
        counter("near_miss_hits_total", self.near_miss_hits);
        counter("shed_total", self.shed);
        counter("browned_out_total", self.browned_out);
        counter("conn_capped_total", self.conn_capped);
        counter("deadline_closed_total", self.deadline_closed);
        out.push_str("# TYPE thistle_sweep_events_total counter\n");
        for (cause, count) in ledger_causes(&self.sweep_ledger) {
            out.push_str(&format!(
                "thistle_sweep_events_total{{cause=\"{cause}\"}} {count}\n"
            ));
        }
        out.push_str(&format!(
            "# TYPE thistle_cache_hit_rate gauge\nthistle_cache_hit_rate {}\n",
            fmt_f64(self.cache_hit_rate())
        ));
        out.push_str(&format!(
            "# TYPE thistle_in_flight gauge\nthistle_in_flight {}\n",
            self.in_flight
        ));
        out.push_str(&format!(
            "# TYPE thistle_solve_timeout_ms gauge\nthistle_solve_timeout_ms {}\n",
            self.solve_timeout_ms
        ));
        out.push_str(&format!(
            "# TYPE thistle_atlas_restored_entries gauge\nthistle_atlas_restored_entries {}\n",
            self.atlas_restored_entries
        ));
        out.push_str(&format!(
            "# TYPE thistle_atlas_load_errors gauge\nthistle_atlas_load_errors {}\n",
            self.atlas_load_errors
        ));
        out.push_str(&format!(
            "# TYPE thistle_queue_depth gauge\nthistle_queue_depth {}\n",
            self.queue_depth
        ));
        out.push_str(&format!(
            "# TYPE thistle_brownout_active gauge\nthistle_brownout_active {}\n",
            self.brownout_active
        ));
        out.push_str("# TYPE thistle_queue_depth_dist summary\n");
        out.push_str(&format!(
            "thistle_queue_depth_dist{{quantile=\"0.5\"}} {}\n",
            fmt_f64(self.queue_depth_p50)
        ));
        out.push_str(&format!(
            "thistle_queue_depth_dist{{quantile=\"0.95\"}} {}\n",
            fmt_f64(self.queue_depth_p95)
        ));
        out.push_str(&format!(
            "thistle_queue_depth_dist_count {}\n",
            self.queue_depth_count
        ));
        out.push_str("# TYPE thistle_solve_latency_ms summary\n");
        out.push_str(&format!(
            "thistle_solve_latency_ms{{quantile=\"0.5\"}} {}\n",
            fmt_f64(self.solve_p50_ms)
        ));
        out.push_str(&format!(
            "thistle_solve_latency_ms{{quantile=\"0.95\"}} {}\n",
            fmt_f64(self.solve_p95_ms)
        ));
        out.push_str("# TYPE thistle_stage_latency_ms summary\n");
        for s in &self.stages {
            out.push_str(&format!(
                "thistle_stage_latency_ms{{stage=\"{}\",quantile=\"0.5\"}} {}\n",
                s.stage,
                fmt_f64(s.p50_ms)
            ));
            out.push_str(&format!(
                "thistle_stage_latency_ms{{stage=\"{}\",quantile=\"0.95\"}} {}\n",
                s.stage,
                fmt_f64(s.p95_ms)
            ));
        }
        out.push_str("# TYPE thistle_stage_count_total counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "thistle_stage_count_total{{stage=\"{}\"}} {}\n",
                s.stage, s.count
            ));
        }
        out.push_str("# TYPE thistle_phase_latency_ms summary\n");
        for p in &self.phases {
            out.push_str(&format!(
                "thistle_phase_latency_ms{{phase=\"{}\",quantile=\"0.5\"}} {}\n",
                p.phase,
                fmt_f64(p.p50_ms)
            ));
            out.push_str(&format!(
                "thistle_phase_latency_ms{{phase=\"{}\",quantile=\"0.95\"}} {}\n",
                p.phase,
                fmt_f64(p.p95_ms)
            ));
        }
        out.push_str("# TYPE thistle_phase_count_total counter\n");
        for p in &self.phases {
            out.push_str(&format!(
                "thistle_phase_count_total{{phase=\"{}\"}} {}\n",
                p.phase, p.count
            ));
        }
        if !self.locks.is_empty() {
            out.push_str("# TYPE thistle_lock_acquisitions_total counter\n");
            for l in &self.locks {
                out.push_str(&format!(
                    "thistle_lock_acquisitions_total{{lock=\"{}\"}} {}\n",
                    l.lock, l.acquisitions
                ));
            }
            out.push_str("# TYPE thistle_lock_contended_total counter\n");
            for l in &self.locks {
                out.push_str(&format!(
                    "thistle_lock_contended_total{{lock=\"{}\"}} {}\n",
                    l.lock, l.contended
                ));
            }
            out.push_str("# TYPE thistle_lock_wait_ms summary\n");
            for l in &self.locks {
                out.push_str(&format!(
                    "thistle_lock_wait_ms{{lock=\"{}\",quantile=\"0.5\"}} {}\n",
                    l.lock,
                    fmt_f64(l.wait_p50_ms)
                ));
                out.push_str(&format!(
                    "thistle_lock_wait_ms{{lock=\"{}\",quantile=\"0.95\"}} {}\n",
                    l.lock,
                    fmt_f64(l.wait_p95_ms)
                ));
                out.push_str(&format!(
                    "thistle_lock_wait_ms_count{{lock=\"{}\"}} {}\n",
                    l.lock, l.wait_count
                ));
            }
            out.push_str("# TYPE thistle_lock_hold_ms summary\n");
            for l in &self.locks {
                out.push_str(&format!(
                    "thistle_lock_hold_ms{{lock=\"{}\",quantile=\"0.5\"}} {}\n",
                    l.lock,
                    fmt_f64(l.hold_p50_ms)
                ));
                out.push_str(&format!(
                    "thistle_lock_hold_ms{{lock=\"{}\",quantile=\"0.95\"}} {}\n",
                    l.lock,
                    fmt_f64(l.hold_p95_ms)
                ));
            }
        }
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                "# TYPE thistle_cache_len gauge\nthistle_cache_len {}\n",
                cache.len
            ));
            out.push_str(&format!(
                "# TYPE thistle_cache_capacity gauge\nthistle_cache_capacity {}\n",
                cache.capacity
            ));
            out.push_str(&format!(
                "# TYPE thistle_cache_insertions_total counter\nthistle_cache_insertions_total {}\n",
                cache.insertions
            ));
            out.push_str(&format!(
                "# TYPE thistle_cache_evictions_total counter\nthistle_cache_evictions_total {}\n",
                cache.evictions
            ));
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
    /// metric under its Prometheus-style name. The stage histograms form one
    /// `stage_latency_ms` family keyed by stage name.
    pub fn on_registry(registry: Arc<Registry>) -> Self {
        let stages =
            registry.histogram_family("stage_latency_ms", "stage", WINDOW, STAGE_CARDINALITY);
        // Pre-register every stage so snapshots always report all of them,
        // including stages that have not fired yet.
        for stage in Stage::ALL {
            stages.with_label(stage.name());
        }
        let phases =
            registry.histogram_family("phase_latency_ms", "phase", WINDOW, STAGE_CARDINALITY);
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
            breaker_opened: registry.counter("breaker_opened_total"),
            breaker_fastfails: registry.counter("breaker_fastfails_total"),
            degraded_results: registry.counter("degraded_results_total"),
            near_miss_hits: registry.counter("near_miss_hits_total"),
            shed: registry.counter("shed_total"),
            browned_out: registry.counter("browned_out_total"),
            conn_capped: registry.counter("conn_capped_total"),
            deadline_closed: registry.counter("deadline_closed_total"),
            queue_depth: registry.gauge("queue_depth"),
            brownout_active: registry.gauge("brownout_active"),
            queue_depths: registry.histogram("queue_depth_dist", WINDOW),
            queue_ring: Mutex::new(VecDeque::new()),
            atlas_restored_entries: registry.gauge("atlas_restored_entries"),
            atlas_load_errors: registry.gauge("atlas_load_errors"),
            ledger: Mutex::new(FailureLedger::default()),
            latencies: registry.histogram("solve_latency_ms", WINDOW),
            stages,
            phases,
            breakdown_ring: Mutex::new(VecDeque::new()),
            registry,
        }
    }

    /// The registry backing every metric here, for debug surfaces that want
    /// the raw sample view ([`thistle_obs::RegistrySnapshot`]).
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

    pub fn record_breaker_opened(&self) {
        self.breaker_opened.inc();
    }

    /// A breaker fast-fail is one of the protective 503s, so it counts
    /// toward the overall `shed` total as well.
    pub fn record_breaker_fastfail(&self) {
        self.breaker_fastfails.inc();
        self.shed.inc();
    }

    /// Marks a request rejected by admission control (hard queue cap, memory
    /// watermark, or injected `serve.queue.full`).
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Marks a cold miss rejected while the service is in brown-out mode
    /// (hits and warm starts still served). Counts toward `shed` too.
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
    /// gauge, the percentile window, and the bounded arrival-order ring the
    /// dashboard sparkline draws from.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.set(depth);
        self.queue_depths.record(depth as f64);
        let mut ring = self.queue_ring.lock().expect("queue ring lock");
        if ring.len() >= QUEUE_RING {
            ring.pop_front();
        }
        ring.push_back(depth as f64);
    }

    /// Flags whether brown-out shedding is currently active.
    pub fn set_brownout(&self, active: bool) {
        self.brownout_active.set(active as u64);
    }

    /// The most recent queue-depth samples in arrival order, bounded at the
    /// ring capacity, for the dashboard sparkline.
    pub fn queue_depth_recent(&self) -> Vec<f64> {
        self.queue_ring
            .lock()
            .expect("queue ring lock")
            .iter()
            .copied()
            .collect()
    }

    /// Marks a cache miss that was answered by a warm-started near-miss
    /// solve (seeded from a stored same-family entry) instead of a cold
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

    /// Adds one sample to a stage histogram.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stages
            .record(stage.name(), elapsed.as_secs_f64() * 1e3);
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
    /// ring capacity, for the dashboard's phase-stacked view.
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
        let stages = Stage::ALL
            .iter()
            .map(|&stage| {
                let s = self.stages.with_label(stage.name()).summary();
                StageSnapshot {
                    stage: stage.name(),
                    count: s.count,
                    p50_ms: s.p50,
                    p95_ms: s.p95,
                }
            })
            .collect();
        let phases = LatencyBreakdown::PHASES
            .iter()
            .map(|&phase| {
                let s = self.phases.with_label(phase).summary();
                PhaseSnapshot {
                    phase,
                    count: s.count,
                    p50_ms: s.p50,
                    p95_ms: s.p95,
                }
            })
            .collect();
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
            breaker_opened: self.breaker_opened.get(),
            breaker_fastfails: self.breaker_fastfails.get(),
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
            stages,
            phases,
            locks,
            cache: None,
        }
    }
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

/// A `thistle_obs` sink that folds closed spans into per-stage histograms.
///
/// Span names map onto stages via [`Stage::from_span_name`]; spans with no
/// stage (e.g. `barrier_solve`, `optimize_workload`) and instant events are
/// ignored here — they still reach any other sink in the fanout.
pub struct MetricsSink {
    metrics: Arc<Metrics>,
}

impl MetricsSink {
    pub fn new(metrics: Arc<Metrics>) -> Self {
        MetricsSink { metrics }
    }
}

impl Sink for MetricsSink {
    fn record(&self, record: Record) {
        if let Some(span) = record.as_span() {
            if let Some(stage) = Stage::from_span_name(span.name) {
                self.metrics
                    .record_stage(stage, Duration::from_nanos(span.dur_ns));
            }
        }
    }
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
    use thistle_obs::TraceCtx;

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
        let metrics = Arc::new(Metrics::new());
        let ctx = TraceCtx::new(Arc::new(MetricsSink::new(Arc::clone(&metrics))));
        {
            let _request = ctx.span("request");
            let _lookup = ctx.span("cache_lookup");
        }
        {
            // Unmapped spans must not disturb any stage.
            let _other = ctx.span("barrier_solve");
        }
        let s = metrics.snapshot();
        let stage = |name: &str| s.stages.iter().find(|x| x.stage == name).unwrap();
        assert_eq!(stage("request").count, 1);
        assert_eq!(stage("cache_lookup").count, 1);
        assert_eq!(stage("gp_solve").count, 0);
        let total: u64 = s.stages.iter().map(|x| x.count).sum();
        assert_eq!(total, 2);
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
        m.record_stage(Stage::GpSolve, Duration::from_millis(7));

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
                h.name == "stage_latency_ms"
                    && h.label.as_ref().is_some_and(|(_, l)| l == "gp_solve")
            })
            .expect("stage family sample");
        assert_eq!(stage.summary.count, 1);
        // Every stage is pre-registered, even ones that never fired.
        let stage_samples = raw
            .histograms
            .iter()
            .filter(|h| h.name == "stage_latency_ms")
            .count();
        assert_eq!(stage_samples, Stage::ALL.len());

        // And the service snapshot reads back the same values.
        let s = m.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.solves_recorded, 1);
    }

    #[test]
    fn snapshot_renders_as_json() {
        let m = Metrics::new();
        m.record_cache_hit();
        m.record_stage(Stage::GpSolve, Duration::from_millis(7));
        let json = m.snapshot().to_json();
        assert_eq!(json.get("cache_hits").unwrap().as_u64(), Some(1));
        assert!(json.get("solve_latency_ms").unwrap().get("p50").is_some());
        assert_eq!(
            json.get("stages")
                .unwrap()
                .get("gp_solve")
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
        m.record_stage(Stage::GpSolve, Duration::from_millis(12));
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
        assert_eq!(m.queue_depth_recent(), vec![3.0, 7.0]);
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
            prom_value("thistle_stage_count_total{stage=\"gp_solve\"}"),
            json.get("stages")
                .unwrap()
                .get("gp_solve")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64()
                .unwrap() as f64
        );
    }
}
