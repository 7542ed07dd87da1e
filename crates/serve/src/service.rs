//! The optimization service: canonical-request cache in front of the solve
//! pool.

use crate::lru::LruCache;
use crate::metrics::{CacheSnapshot, LatencyBreakdown, Metrics, MetricsSnapshot};
use crate::pool::{PoolError, SolveCache, SolvePool};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use thistle::canon::SolverFingerprint;
use thistle::canon::{transpose_design_hw, CanonicalLayer, CanonicalQuery, FamilyKey};
use thistle::{DesignPoint, OptimizeError, Optimizer, SolveReport};
use thistle_atlas::AtlasSnapshot;
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_obs::{
    take_thread_lock_wait, ExemplarSink, MetricsBridge, ObservedMutex, Registry, Sink, TraceCtx,
};
use timeloop_lite::{evaluate_traced, ArchSpec};

/// Solve reports retained for `GET /debug/solves/<id>`.
const REPORT_RETENTION: usize = 64;

/// Trace records buffered while waiting for their request span to close.
const EXEMPLAR_BUFFER: usize = 4096;

/// Full span trees retained for the worst requests (slowest, degraded, or
/// failed), served at `GET /debug/exemplars`.
const EXEMPLAR_CAPACITY: usize = 8;

/// Transparent re-submissions of a failed solve before the error is
/// returned (transient failures only: worker panics and cancelled flights;
/// deterministic optimizer verdicts are never retried).
const RETRY_LIMIT: u32 = 2;

/// How long [`Service::optimize`] waits for a solve; callers that need a
/// different bound pass it to [`Service::optimize_with_timeout`].
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

/// Base `Retry-After` hint attached to admission-control sheds (the accept
/// loop's fast reject sends the same 1 s); scaled up deterministically with
/// queue pressure.
const SHED_RETRY_AFTER: Duration = Duration::from_secs(1);

/// Service construction knobs.
#[derive(Clone)]
pub struct ServiceOptions {
    /// Solver worker threads.
    pub workers: usize,
    /// Design points kept in the LRU cache.
    pub cache_capacity: usize,
    /// Extra trace sinks (e.g. a [`thistle_obs::sink::JsonlSink`])
    /// fanned out alongside the built-in [`MetricsBridge`] that feeds
    /// `GET /metrics`. Every solve the service runs is traced into these.
    pub trace_sinks: Vec<Arc<dyn Sink>>,
    /// Hard cap on pool queue depth: a cache miss arriving with this many
    /// jobs already queued is shed with `503` (0 disables the cap). The
    /// only hard cap; brown-out below it sheds cold misses alone.
    pub max_queue_depth: u64,
    /// Queue depth at which brown-out begins: cold misses are shed while
    /// cache hits and donor-backed near-miss solves keep being served.
    pub queue_high_watermark: u64,
    /// Queue depth at which brown-out ends (hysteresis: must be at or below
    /// `queue_high_watermark`).
    pub queue_low_watermark: u64,
    /// Snapshot file the design-point cache persists to. On construction
    /// the service restores whatever the file holds (tolerating damaged
    /// records); `None` disables the atlas entirely.
    pub atlas_path: Option<PathBuf>,
    /// Fresh (non-coalesced, successful) solves between automatic atlas
    /// checkpoints. Count-based rather than timer-based so the cadence is
    /// deterministic under test; 0 checkpoints only on explicit
    /// [`Service::save_atlas`] calls.
    pub atlas_checkpoint_every: u64,
}

impl std::fmt::Debug for ServiceOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceOptions")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("trace_sinks", &self.trace_sinks.len())
            .field("max_queue_depth", &self.max_queue_depth)
            .field("queue_high_watermark", &self.queue_high_watermark)
            .field("queue_low_watermark", &self.queue_low_watermark)
            .field("atlas_path", &self.atlas_path)
            .field("atlas_checkpoint_every", &self.atlas_checkpoint_every)
            .finish()
    }
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 4,
            cache_capacity: 256,
            trace_sinks: Vec::new(),
            max_queue_depth: 256,
            queue_high_watermark: 64,
            queue_low_watermark: 16,
            atlas_path: None,
            atlas_checkpoint_every: 32,
        }
    }
}

/// Human-readable build stamp attached to health responses, so a probe can
/// tell which binary version is answering.
pub const BUILD_INFO: &str = concat!("thistle-serve ", env!("CARGO_PKG_VERSION"));

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    Optimize(OptimizeError),
    Timeout,
    Shutdown,
    /// Admission control shed the request to protect the service: the pool
    /// queue hit its depth cap, or brown-out mode rejected a cold miss
    /// (cache hits and near-miss solves keep being served).
    Overloaded {
        /// Suggested client back-off, scaled with queue pressure.
        retry_after: Duration,
        /// `true` when this was a brown-out shed of a cold miss rather than
        /// the hard queue-depth cap.
        brownout: bool,
    },
}

impl From<PoolError> for ServeError {
    fn from(e: PoolError) -> Self {
        match e {
            PoolError::Optimize(e) => ServeError::Optimize(e),
            PoolError::Timeout => ServeError::Timeout,
            PoolError::Shutdown => ServeError::Shutdown,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Optimize(e) => write!(f, "{e}"),
            ServeError::Timeout => write!(f, "request timed out"),
            ServeError::Shutdown => write!(f, "service is shutting down"),
            ServeError::Overloaded {
                retry_after,
                brownout,
            } => write!(
                f,
                "service overloaded{} (retry after {} ms)",
                if *brownout {
                    ": brown-out, cold misses shed"
                } else {
                    ": queue full"
                },
                retry_after.as_millis()
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Whether a pool failure is worth one more attempt: worker panics
/// ([`OptimizeError::Internal`]) and flights cancelled out from under a
/// late-joining waiter ([`OptimizeError::Cancelled`]) are transient;
/// everything else (infeasible, timeout, shutdown) is not.
fn retryable(e: &PoolError) -> bool {
    matches!(
        e,
        PoolError::Optimize(OptimizeError::Internal(_) | OptimizeError::Cancelled)
    )
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// The design, named after the requested layer and in its orientation.
    pub point: DesignPoint,
    /// Served from the LRU cache without touching the pool.
    pub cache_hit: bool,
    /// Joined an identical solve already in flight.
    pub coalesced: bool,
    /// Id of the fresh solve behind this response, for
    /// `GET /debug/solves/<id>`. `None` when the answer reused prior work
    /// (cache hit or coalesced flight).
    pub solve_id: Option<u64>,
    /// How this request's latency decomposed across the service phases.
    /// The service fills the queue/lock/coalesce/solve phases; the HTTP
    /// layer adds `parse`/`serialize` (they stay zero on the embedding
    /// API, which never touches bytes).
    pub breakdown: LatencyBreakdown,
}

/// A long-lived optimization service: canonicalizes requests, caches design
/// points, and fans cache misses across a worker pool with single-flight
/// deduplication.
pub struct Service {
    optimizer: Arc<Optimizer>,
    cache: Arc<SolveCache>,
    pool: SolvePool,
    metrics: Arc<Metrics>,
    exemplars: Arc<ExemplarSink>,
    ctx: TraceCtx,
    max_queue_depth: u64,
    queue_high_watermark: u64,
    queue_low_watermark: u64,
    /// Brown-out latch for the watermark hysteresis: set when queue depth
    /// crosses the high watermark, cleared when it falls back to the low
    /// one. While set, cold misses are shed and hits/near-misses served.
    brownout: AtomicBool,
    /// Recent fresh solves' convergence reports, oldest first, keyed by the
    /// monotonically increasing solve id.
    reports: ObservedMutex<VecDeque<(u64, SolveReport)>>,
    next_solve_id: AtomicU64,
    /// Snapshot file the cache persists to (see
    /// [`ServiceOptions::atlas_path`]).
    atlas_path: Option<PathBuf>,
    atlas_checkpoint_every: u64,
    /// Fresh solves since the last checkpoint, for the save cadence.
    fresh_since_checkpoint: AtomicU64,
    /// Most recent cached query per workload family, for near-miss donor
    /// lookup: a cache miss whose family has a stored entry solves that
    /// entry's permutation pair instead of the full sweep. Bounded by
    /// `cache_capacity` (see [`Service::index_family`]).
    families: ObservedMutex<HashMap<FamilyKey, CanonicalQuery>>,
    /// Capacity of `cache`.
    cache_capacity: usize,
    /// Digest of the serving optimizer's [`SolverFingerprint`], stamped onto
    /// health responses.
    fingerprint: String,
}

impl Service {
    pub fn new(optimizer: Optimizer, options: ServiceOptions) -> Self {
        let optimizer = Arc::new(optimizer);
        let metrics = Arc::new(Metrics::new());
        // One switch arms the whole contention observatory: with
        // `THISTLE_NO_LOCK_OBS` set, every hot-path lock below is a plain
        // pass-through.
        let lock_registry: Option<Arc<Registry>> = std::env::var_os("THISTLE_NO_LOCK_OBS")
            .is_none()
            .then(|| Arc::clone(metrics.registry()));
        let cache_capacity = options.cache_capacity.max(1);
        let cache: Arc<SolveCache> = Arc::new(ObservedMutex::maybe_observed(
            "solve_cache",
            LruCache::new(cache_capacity),
            lock_registry.as_deref(),
        ));
        let exemplars = Arc::new(ExemplarSink::new(
            "request",
            EXEMPLAR_BUFFER,
            EXEMPLAR_CAPACITY,
        ));
        let mut sinks: Vec<Arc<dyn Sink>> = vec![
            Arc::clone(&exemplars) as Arc<dyn Sink>,
            Arc::new(MetricsBridge::new(
                metrics.registry(),
                crate::metrics::WINDOW,
                crate::metrics::CARDINALITY,
            )),
        ];
        sinks.extend(options.trace_sinks);
        let ctx = TraceCtx::fanout(sinks);
        let pool = SolvePool::new(
            Arc::clone(&optimizer),
            options.workers,
            Arc::clone(&cache),
            Arc::clone(&metrics),
            ctx.clone(),
            lock_registry.as_deref(),
        );

        // Warm restart: replay the atlas snapshot into the empty cache.
        // Entries were saved least-recently-used first, so inserting in
        // order reconstructs the pre-shutdown recency chain (the LRU evicts
        // the oldest if the capacity shrank in between). A missing file is
        // a cold start, not an error.
        let mut families: HashMap<FamilyKey, CanonicalQuery> = HashMap::new();
        if let Some(path) = options.atlas_path.as_deref().filter(|p| p.exists()) {
            match AtlasSnapshot::load(path) {
                Ok(load) => {
                    metrics.record_atlas_restore(
                        load.snapshot.entries.len() as u64,
                        load.skipped_records,
                    );
                    let mut locked = cache.lock();
                    for (query, point) in load.snapshot.entries {
                        families.insert(query.family_key(), query.clone());
                        locked.insert(query, Arc::new(point));
                    }
                }
                Err(_) => metrics.record_atlas_restore(0, 1),
            }
        }

        let fingerprint =
            thistle_atlas::fingerprint_digest(&SolverFingerprint::of(&optimizer).encode_words());

        Service {
            optimizer,
            cache,
            pool,
            metrics,
            exemplars,
            ctx,
            max_queue_depth: options.max_queue_depth,
            queue_high_watermark: options.queue_high_watermark,
            queue_low_watermark: options
                .queue_low_watermark
                .min(options.queue_high_watermark),
            brownout: AtomicBool::new(false),
            reports: ObservedMutex::maybe_observed(
                "reports",
                VecDeque::new(),
                lock_registry.as_deref(),
            ),
            next_solve_id: AtomicU64::new(0),
            atlas_path: options.atlas_path,
            atlas_checkpoint_every: options.atlas_checkpoint_every,
            fresh_since_checkpoint: AtomicU64::new(0),
            families: ObservedMutex::maybe_observed("families", families, lock_registry.as_deref()),
            cache_capacity,
            fingerprint,
        }
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The trace context every request and pooled solve runs under. Spans
    /// reach the metrics histograms, the exemplar sink, the registry bridge,
    /// plus any `trace_sinks` from [`ServiceOptions`].
    pub fn trace_ctx(&self) -> &TraceCtx {
        &self.ctx
    }

    /// Short hex digest of the serving optimizer's solver fingerprint, for
    /// health responses.
    pub fn fingerprint_digest(&self) -> &str {
        &self.fingerprint
    }

    /// The tail-sampling exemplar sink: full span trees of the worst recent
    /// requests.
    pub fn exemplars(&self) -> &ExemplarSink {
        &self.exemplars
    }

    /// Recent fresh solves' convergence reports with their ids, oldest
    /// first.
    pub fn recent_reports(&self) -> Vec<(u64, SolveReport)> {
        self.reports.lock().iter().cloned().collect()
    }

    /// The retained convergence report for solve `id`, if it has not aged
    /// out of the retention window.
    pub fn solve_report(&self, id: u64) -> Option<SolveReport> {
        self.reports
            .lock()
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, r)| r.clone())
    }

    /// Retains `report` and returns its freshly assigned solve id (ids start
    /// at 1; 0 never names a solve).
    fn store_report(&self, report: SolveReport) -> u64 {
        let id = self.next_solve_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut reports = self.reports.lock();
        if reports.len() >= REPORT_RETENTION {
            reports.pop_front();
        }
        reports.push_back((id, report));
        id
    }

    /// Counter snapshot plus cache occupancy — the one-stop view `GET
    /// /metrics` renders (both JSON and Prometheus formats read this same
    /// snapshot).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        let cache = self.cache.lock();
        let stats = cache.stats();
        snapshot.cache = Some(CacheSnapshot {
            len: cache.len() as u64,
            capacity: cache.capacity() as u64,
            insertions: stats.insertions,
            evictions: stats.evictions,
        });
        snapshot
    }

    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// The current durable state: every cached design point,
    /// least-recently-used first, so a restore replays recency.
    pub fn atlas_snapshot(&self) -> AtlasSnapshot {
        let cache = self.cache.lock();
        let entries = cache
            .iter_lru()
            .map(|(q, p)| (q.clone(), (**p).clone()))
            .collect();
        AtlasSnapshot { entries }
    }

    /// Writes the atlas snapshot to the configured path (atomically, via
    /// write-and-rename). Returns whether a snapshot was written — `false`
    /// when the service has no atlas path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the snapshot write.
    pub fn save_atlas(&self) -> std::io::Result<bool> {
        let Some(path) = &self.atlas_path else {
            return Ok(false);
        };
        self.atlas_snapshot().save(path)?;
        Ok(true)
    }

    /// Picks a near-miss donor for a cache miss: the most recent cached
    /// entry of the same workload family (same shape, objective, mode, and
    /// solver config; different batch size). Batch-1 endpoints are excluded
    /// — an extent-1 batch generates no tiling variable, so a batch-1 GP
    /// differs structurally from the rest of its family.
    fn find_donor(&self, query: &CanonicalQuery) -> Option<Arc<DesignPoint>> {
        if query.layer.batch <= 1 {
            return None;
        }
        let donor_query = self.families.lock().get(&query.family_key()).cloned()?;
        if donor_query.layer.batch <= 1 || donor_query.layer.batch == query.layer.batch {
            return None;
        }
        self.cache.lock().get(&donor_query)
    }

    /// Indexes `query` as its family's near-miss donor. The index never
    /// outgrows the cache it points into: once it holds more families than
    /// the cache can hold entries, every family whose query the cache has
    /// evicted is dropped (its donor lookup would miss anyway). Takes
    /// `families`, then `solve_cache`; nothing takes them in the other
    /// order.
    fn index_family(&self, query: &CanonicalQuery) {
        let mut families = self.families.lock();
        families.insert(query.family_key(), query.clone());
        if families.len() > self.cache_capacity {
            let cache = self.cache.lock();
            families.retain(|_, q| cache.peek(q).is_some());
        }
    }

    /// Counts one fresh solve toward the checkpoint cadence, saving the
    /// atlas when the cadence rolls over. Best effort: a failed checkpoint
    /// write costs durability, never availability.
    fn note_fresh_solve(&self) {
        if self.atlas_path.is_none() || self.atlas_checkpoint_every == 0 {
            return;
        }
        let n = self.fresh_since_checkpoint.fetch_add(1, Ordering::AcqRel) + 1;
        if n >= self.atlas_checkpoint_every {
            self.fresh_since_checkpoint.store(0, Ordering::Release);
            let _ = self.save_atlas();
        }
    }

    /// Solves one layer with the default timeout.
    pub fn optimize(
        &self,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
    ) -> Result<SolveResponse, ServeError> {
        self.optimize_with_timeout(layer, objective, mode, DEFAULT_TIMEOUT)
    }

    /// Solves one layer, waiting at most `timeout`. The solve itself is not
    /// aborted on timeout — if every waiter of a flight times out before a
    /// worker picks it up the job is cancelled, otherwise it completes and
    /// fills the cache for later requests.
    pub fn optimize_with_timeout(
        &self,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
        timeout: Duration,
    ) -> Result<SolveResponse, ServeError> {
        let _guard = self.metrics.request_started();
        // Reset the thread's lock-wait accumulator so the breakdown charges
        // this request only with its own blocked time.
        let _ = take_thread_lock_wait();
        let mut request_span = self.ctx.span("request");
        request_span.set("layer", layer.name.clone());
        let (query, swapped) = CanonicalQuery::new(&self.optimizer, layer, objective, mode);
        let cached = {
            let _lookup = self.ctx.span("cache_lookup");
            self.cache.lock().get(&query)
        };
        if let Some(point) = cached {
            self.metrics.record_cache_hit();
            request_span.set("cache_hit", true);
            let point = self.adapt(&point, layer, swapped);
            return Ok(SolveResponse {
                point,
                cache_hit: true,
                coalesced: false,
                solve_id: None,
                breakdown: LatencyBreakdown {
                    lock_wait_ms: take_thread_lock_wait().as_secs_f64() * 1e3,
                    ..LatencyBreakdown::default()
                },
            });
        }
        self.metrics.record_cache_miss();
        request_span.set("cache_hit", false);
        // The donor is found *before* admission: brown-out sheds only cold
        // misses, and a donor-backed near-miss is cheap enough to admit.
        let donor = self.find_donor(&query);
        if donor.is_some() {
            request_span.set("near_miss_donor", true);
        }
        // Coalescible misses (an identical solve is already in flight) add
        // no queue work, so brown-out admits them like donor-backed ones.
        let cheap = donor.is_some() || self.pool.is_inflight(&query);
        if let Err(e) = self.admit_miss(cheap) {
            if let ServeError::Overloaded { brownout, .. } = &e {
                request_span.set("shed", true);
                if *brownout {
                    request_span.set("brownout", true);
                }
            }
            return Err(e);
        }
        let canonical = canonical_conv_layer(&query.layer);
        // Bounded retry of *transient* failures only: a worker panic or a
        // flight cancelled under us (we joined a solve whose original
        // waiters all timed out). Deterministic optimizer verdicts —
        // infeasible, no feasible design — would fail identically again.
        let mut attempt = 0u32;
        let solved = loop {
            match self
                .pool
                .solve(&query, &canonical, objective, mode, donor.clone(), timeout)
            {
                Ok(ok) => break Ok(ok),
                Err(e) if attempt < RETRY_LIMIT && retryable(&e) => {
                    attempt += 1;
                    self.metrics.record_solve_retry();
                }
                Err(e) => break Err(e),
            }
        };
        if attempt > 0 {
            request_span.set("retries", attempt as usize);
        }
        let (point, coalesced, timings) = solved.map_err(|e| {
            if matches!(e, PoolError::Timeout) {
                self.metrics.record_timeout(timeout);
                request_span.set("timed_out", true);
            }
            ServeError::from(e)
        })?;
        if coalesced {
            self.metrics.record_coalesced();
        }
        request_span.set("coalesced", coalesced);
        // The solve landed in the cache; index its family for future
        // near-miss solves and advance the checkpoint cadence.
        self.index_family(&query);
        if !coalesced {
            self.note_fresh_solve();
        }
        if point.degraded {
            request_span.set("degraded", true);
        }
        // Coalesced waiters share the original flight's solve; only the
        // request that actually ran it files the report.
        let solve_id = if coalesced {
            None
        } else {
            let mut report = point.report.clone();
            report.workload = layer.name.clone();
            let id = self.store_report(report);
            request_span.set("solve_id", id as usize);
            Some(id)
        };
        let point = self.adapt(&point, layer, swapped);
        Ok(SolveResponse {
            point,
            cache_hit: false,
            coalesced,
            solve_id,
            breakdown: LatencyBreakdown {
                queue_wait_ms: timings.queue_wait.as_secs_f64() * 1e3,
                lock_wait_ms: take_thread_lock_wait().as_secs_f64() * 1e3,
                coalesce_wait_ms: timings.coalesce_wait.as_secs_f64() * 1e3,
                solve_ms: timings.solve.as_secs_f64() * 1e3,
                ..LatencyBreakdown::default()
            },
        })
    }

    /// Admission control for cache misses: the service's one refusal
    /// policy. Samples the pool queue depth, enforces the hard depth cap, and drives
    /// the brown-out hysteresis: crossing `queue_high_watermark` starts
    /// shedding cold misses (donor-backed near-misses stay admitted), and
    /// only falling back to `queue_low_watermark` ends it. Entirely
    /// count-driven, so overload behavior replays deterministically.
    fn admit_miss(&self, has_donor: bool) -> Result<(), ServeError> {
        let depth = self.pool.queue_depth() as u64;
        self.metrics.record_queue_depth(depth);
        let injected = thistle_fault::fire("serve.queue.full", depth);
        let over_cap = self.max_queue_depth > 0 && depth >= self.max_queue_depth;
        if injected || over_cap {
            self.metrics.record_shed();
            return Err(ServeError::Overloaded {
                retry_after: self.shed_backoff(depth),
                brownout: false,
            });
        }
        let active = if depth >= self.queue_high_watermark {
            self.brownout.store(true, Ordering::Release);
            true
        } else if depth <= self.queue_low_watermark {
            self.brownout.store(false, Ordering::Release);
            false
        } else {
            self.brownout.load(Ordering::Acquire)
        };
        self.metrics.set_brownout(active);
        if active && !has_donor {
            self.metrics.record_brownout_shed();
            return Err(ServeError::Overloaded {
                retry_after: self.shed_backoff(depth),
                brownout: true,
            });
        }
        Ok(())
    }

    /// `Retry-After` hint for a shed: the 1 s base, doubled (tripled, ...)
    /// as depth overshoots multiples of the hard cap, so clients back off
    /// harder the deeper the overload. Pure arithmetic on the sampled depth
    /// — deterministic under replay.
    fn shed_backoff(&self, depth: u64) -> Duration {
        if self.max_queue_depth == 0 {
            return SHED_RETRY_AFTER;
        }
        let scale = (1 + depth / self.max_queue_depth).min(8) as u32;
        SHED_RETRY_AFTER * scale
    }

    /// Rewrites a canonical-orientation design point for the requesting
    /// layer: restores its name, and if the request was h/w-swapped,
    /// transposes the mapping and re-runs the referee on the request's own
    /// workload so the evaluation is exact.
    fn adapt(&self, point: &DesignPoint, layer: &ConvLayer, swapped: bool) -> DesignPoint {
        let mut out = if swapped {
            let mut t = transpose_design_hw(point);
            let workload = layer.workload();
            let prob = thistle::convert::to_problem_spec(&workload);
            let arch = ArchSpec::from_config(
                "served",
                &t.arch,
                self.optimizer.tech(),
                self.optimizer.bandwidths().clone(),
            );
            if let Ok(eval) = evaluate_traced(&prob, &arch, &t.mapping, &self.ctx) {
                t.eval = eval;
            }
            t
        } else {
            point.clone()
        };
        out.workload_name = layer.name.clone();
        out
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Graceful drain: persist the atlas one last time.
        let _ = self.save_atlas();
    }
}

/// Rebuilds the `ConvLayer` a canonical key describes (canonical
/// orientation, placeholder name).
fn canonical_conv_layer(c: &CanonicalLayer) -> ConvLayer {
    let layer = ConvLayer::new(
        "canonical",
        c.batch,
        c.out_channels,
        c.in_channels,
        c.in_h,
        c.in_w,
        c.kernel_h,
        c.kernel_w,
        c.stride,
    );
    if c.dilation > 1 {
        layer.with_dilation(c.dilation)
    } else {
        layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;
    use thistle::OptimizerOptions;
    use thistle_arch::{ArchConfig, TechnologyParams};
    use thistle_obs::registry::SPAN_DURATION_MS;

    fn quick_service() -> Service {
        service_with_cache(16)
    }

    fn service_with_cache(cache_capacity: usize) -> Service {
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
                workers: 2,
                cache_capacity,
                ..ServiceOptions::default()
            },
        )
    }

    #[test]
    fn family_index_is_bounded_by_the_cache() {
        let service = service_with_cache(2);
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        // Four batch-2 layers of four distinct families: the cache keeps the
        // last two, and so must the family index.
        for k in [8, 16, 24, 32] {
            let layer = ConvLayer::new("family", 2, k, 16, 10, 10, 3, 3, 1);
            service.optimize(&layer, Objective::Energy, &mode).unwrap();
        }
        assert!(service.families.lock().len() <= 2);
        assert_eq!(service.metrics_snapshot().near_miss_hits, 0);

        // The newest family still donates to its batch-4 variant.
        let near = ConvLayer::new("near", 4, 32, 16, 10, 10, 3, 3, 1);
        let answer = service.optimize(&near, Objective::Energy, &mode).unwrap();
        assert!(!answer.cache_hit);
        assert_eq!(service.metrics_snapshot().near_miss_hits, 1);
    }

    #[test]
    fn second_identical_request_hits_the_cache() {
        let service = quick_service();
        let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let first = service.optimize(&layer, Objective::Energy, &mode).unwrap();
        assert!(!first.cache_hit);
        let second = service.optimize(&layer, Objective::Energy, &mode).unwrap();
        assert!(second.cache_hit);
        assert_eq!(
            first.point.eval.energy_pj.to_bits(),
            second.point.eval.energy_pj.to_bits()
        );
        assert_eq!(first.point.mapping, second.point.mapping);
        let m = service.metrics().snapshot();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 1));

        // The fresh solve filed a retrievable convergence report; the cache
        // hit reused it and filed nothing.
        assert_eq!(first.solve_id, Some(1));
        assert_eq!(second.solve_id, None);
        let report = service.solve_report(1).expect("report retained");
        assert_eq!(report.workload, "conv");
        assert!(report.newton_iterations > 0);
        assert_eq!(service.recent_reports().len(), 1);
        assert_eq!(service.solve_report(99), None);

        // Both requests closed a `request` span, so the tail sampler
        // retained exemplars for them (capacity permitting).
        let exemplars = service.exemplars().exemplars();
        assert_eq!(exemplars.len(), 2);
        assert!(exemplars.iter().all(|e| e.trigger == "request"));
    }

    #[test]
    fn renamed_and_transposed_layers_share_the_entry() {
        let service = quick_service();
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let tall = ConvLayer::new("tall", 1, 16, 16, 20, 12, 1, 3, 1);
        let wide = ConvLayer::new("wide", 1, 16, 16, 12, 20, 3, 1, 1);
        let a = service.optimize(&tall, Objective::Energy, &mode).unwrap();
        let b = service.optimize(&wide, Objective::Energy, &mode).unwrap();
        assert!(!a.cache_hit && b.cache_hit);
        assert_eq!(b.point.workload_name, "wide");
        assert!(
            (a.point.eval.energy_pj - b.point.eval.energy_pj).abs()
                <= a.point.eval.energy_pj * 1e-12
        );
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn solves_feed_stage_histograms_and_cache_snapshot() {
        let service = quick_service();
        let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        service.optimize(&layer, Objective::Energy, &mode).unwrap();
        let snap = service.metrics_snapshot();
        let cache = snap.cache.expect("cache snapshot");
        assert_eq!((cache.len, cache.capacity, cache.insertions), (1, 16, 1));
        let count = |name: &str| {
            snap.stages
                .iter()
                .find(|s| s.name == name)
                .expect("stage present")
                .count
        };
        for stage in [
            "request",
            "cache_lookup",
            "queue_wait",
            "perm_enum",
            "gp_solve",
            "integerize",
            "rescore",
        ] {
            assert!(count(stage) >= 1, "stage {stage} never recorded");
        }
        // The stages are read from the span-duration family the bridge
        // fills; no second copy of them, and no span counter beside it.
        let raw = service.metrics().registry().snapshot();
        let names: BTreeSet<&str> = (raw.counters.iter().map(|c| c.name.as_str()))
            .chain(raw.histograms.iter().map(|h| h.name.as_str()))
            .collect();
        assert!(names.contains(SPAN_DURATION_MS), "{names:?}");
        for gone in ["stage_latency_ms", "span_total"] {
            assert!(!names.contains(gone), "{gone} in {names:?}");
        }
    }

    /// Dotted paths of every leaf under a JSON object
    /// (`stages.gp_solve.p50`).
    fn json_leaf_keys(json: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        match json {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    let path = match prefix {
                        "" => key.clone(),
                        _ => format!("{prefix}.{key}"),
                    };
                    json_leaf_keys(value, &path, out);
                }
            }
            _ => {
                out.insert(prefix.to_string());
            }
        }
    }

    #[test]
    fn metrics_wire_surface_is_pinned() {
        // One cold solve and one cache hit, then every Prometheus series
        // and JSON key of `GET /metrics`, written out so that a refactor of
        // the metrics code cannot rename or drop one unnoticed.
        let service = quick_service();
        let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        for hit in [false, true] {
            let response = service.optimize(&layer, Objective::Energy, &mode).unwrap();
            assert_eq!(response.cache_hit, hit);
        }
        let snap = service.metrics_snapshot();
        let stages = [
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
        let phases = [
            "parse",
            "queue_wait",
            "lock_wait",
            "coalesce_wait",
            "solve",
            "serialize",
        ];
        let causes = [
            "generation",
            "infeasible",
            "numerical",
            "invalid",
            "cancelled",
            "solver_panic",
            "integerize_panic",
            "recovered",
            "degraded",
            "stalled",
        ];
        // `THISTLE_NO_LOCK_OBS` turns lock observation off; then the lock
        // series and keys are absent and nothing else changes.
        let all_locks = ["families", "inflight", "reports", "solve_cache"];
        let locks: &[&str] = if snap.locks.is_empty() {
            &[]
        } else {
            &all_locks
        };

        let mut series: BTreeSet<String> = [
            "requests_total",
            "cache_hits_total",
            "cache_misses_total",
            "coalesced_total",
            "solve_errors_total",
            "timeouts_total",
            "solves_recorded_total",
            "worker_respawns_total",
            "solve_retries_total",
            "cancelled_solves_total",
            "degraded_results_total",
            "near_miss_hits_total",
            "shed_total",
            "browned_out_total",
            "conn_capped_total",
            "deadline_closed_total",
            "cache_hit_rate",
            "in_flight",
            "solve_timeout_ms",
            "atlas_restored_entries",
            "atlas_load_errors",
            "queue_depth",
            "brownout_active",
            "queue_depth_dist_count",
            "cache_len",
            "cache_capacity",
            "cache_insertions_total",
            "cache_evictions_total",
        ]
        .iter()
        .map(|name| format!("thistle_{name}"))
        .collect();
        for cause in causes {
            series.insert(format!("thistle_sweep_events_total{{cause=\"{cause}\"}}"));
        }
        for (metric, key, labels) in [("stage", "stage", &stages[..]), ("phase", "phase", &phases)]
        {
            for label in labels {
                series.insert(format!("thistle_{metric}_count_total{{{key}=\"{label}\"}}"));
            }
        }
        for lock in locks {
            for name in ["acquisitions_total", "contended_total", "wait_ms_count"] {
                series.insert(format!("thistle_lock_{name}{{lock=\"{lock}\"}}"));
            }
        }
        for q in ["0.5", "0.95"] {
            for name in ["queue_depth_dist", "solve_latency_ms"] {
                series.insert(format!("thistle_{name}{{quantile=\"{q}\"}}"));
            }
            for stage in stages {
                series.insert(format!(
                    "thistle_stage_latency_ms{{stage=\"{stage}\",quantile=\"{q}\"}}"
                ));
            }
            for phase in phases {
                series.insert(format!(
                    "thistle_phase_latency_ms{{phase=\"{phase}\",quantile=\"{q}\"}}"
                ));
            }
            for lock in locks {
                for name in ["wait_ms", "hold_ms"] {
                    series.insert(format!(
                        "thistle_lock_{name}{{lock=\"{lock}\",quantile=\"{q}\"}}"
                    ));
                }
            }
        }
        assert_eq!(series.len(), 87 + 7 * locks.len());
        let text = snap.to_prometheus();
        let samples: Vec<&str> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.rsplit_once(' ').expect("series and value").0)
            .collect();
        let rendered: BTreeSet<String> = samples.iter().map(|s| s.to_string()).collect();
        assert_eq!(samples.len(), rendered.len(), "a series rendered twice");
        assert_eq!(rendered, series);

        let mut keys: BTreeSet<String> = [
            "requests",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "coalesced",
            "solve_errors",
            "timeouts",
            "in_flight",
            "solve_timeout_ms",
            "worker_respawns",
            "solve_retries",
            "cancelled_solves",
            "degraded_results",
            "near_miss_hits",
            "shed",
            "browned_out",
            "conn_capped",
            "deadline_closed",
            "queue_depth",
            "brownout_active",
            "atlas_restored_entries",
            "atlas_load_errors",
            "cache.len",
            "cache.capacity",
            "cache.insertions",
            "cache.evictions",
        ]
        .iter()
        .map(|key| key.to_string())
        .collect();
        for cause in causes {
            keys.insert(format!("sweep.{cause}"));
        }
        for stat in ["count", "p50", "p95"] {
            keys.insert(format!("queue_depth_dist.{stat}"));
            keys.insert(format!("solve_latency_ms.{stat}"));
            for stage in stages {
                keys.insert(format!("stages.{stage}.{stat}"));
            }
            for phase in phases {
                keys.insert(format!("phases.{phase}.{stat}"));
            }
        }
        for lock in locks {
            for leaf in [
                "acquisitions",
                "contended",
                "wait_ms.count",
                "wait_ms.p50",
                "wait_ms.p95",
                "hold_ms.p50",
                "hold_ms.p95",
            ] {
                keys.insert(format!("locks.{lock}.{leaf}"));
            }
        }
        assert_eq!(keys.len(), 87 + 7 * locks.len());
        let mut rendered = BTreeSet::new();
        json_leaf_keys(&snap.to_json(), "", &mut rendered);
        let missing: Vec<_> = keys.difference(&rendered).collect();
        assert!(missing.is_empty(), "JSON keys missing: {missing:?}");
        // The one key added since the pin: `/debug/contention`'s per-lock
        // contention rate.
        for extra in rendered.difference(&keys) {
            assert!(
                extra.starts_with("locks.") && extra.ends_with(".contention_rate"),
                "unexpected JSON key {extra}"
            );
        }
    }

    #[test]
    fn zero_timeout_reports_timeout() {
        let service = quick_service();
        let layer = ConvLayer::new("conv", 1, 32, 32, 30, 30, 3, 3, 1);
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let result = service.optimize_with_timeout(
            &layer,
            Objective::Energy,
            &mode,
            Duration::from_millis(0),
        );
        assert!(matches!(result, Err(ServeError::Timeout)));
        assert!(service.metrics().snapshot().timeouts >= 1);
    }
}
