//! The solve worker pool: fans optimization jobs across cores over
//! `crossbeam` channels, with single-flight deduplication — concurrent
//! requests for the same canonical query share one solve — and per-request
//! timeouts.
//!
//! Jobs are keyed by [`CanonicalQuery`] and solved in the *canonical* layer
//! orientation, so every request that canonicalizes alike (any name, either
//! h/w orientation) joins the same flight and the same cache entry.

use crate::lru::LruCache;
use crate::metrics::Metrics;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use thistle::optimizer::panic_message;
use thistle::Deadline;
use thistle::{CanonicalQuery, DesignPoint, OptimizeError, Optimizer};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_obs::{span, ObservedMutex, Registry, TraceCtx};

/// Result of one shared solve, delivered to every waiter of a flight along
/// with the job's measured queue/solve timings.
type SolveOutcome = (Result<Arc<DesignPoint>, OptimizeError>, JobTimings);

/// Wall-clock stamps of one pooled job's passage, derived from the four
/// stamp points enqueue → dequeue → solve start → solve finish. Delivered
/// to every waiter so each response can decompose its own latency.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobTimings {
    /// Enqueue to worker dequeue: time the job sat in the channel.
    pub queue_wait: Duration,
    /// Solver start to finish on the worker.
    pub solve: Duration,
}

/// How one `solve` call's wall time splits, from the caller's perspective.
///
/// A fresh submitter's path is queue residency plus the solve itself; a
/// coalesced caller's path is entirely the wait for someone else's flight
/// to land (`coalesce_wait`), during which it did no queueing or solving
/// of its own.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolTimings {
    /// Time this job spent enqueued (zero for coalesced callers).
    pub queue_wait: Duration,
    /// Time the worker spent solving (zero for coalesced callers).
    pub solve: Duration,
    /// Time blocked on another request's in-flight solve (zero for the
    /// flight's original submitter).
    pub coalesce_wait: Duration,
}

/// Why a pooled solve did not produce a design.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// The optimizer itself failed.
    Optimize(OptimizeError),
    /// The caller's deadline passed; the solve may still finish and populate
    /// the cache for later requests.
    Timeout,
    /// The pool is shutting down.
    Shutdown,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Optimize(e) => write!(f, "{e}"),
            PoolError::Timeout => write!(f, "solve timed out"),
            PoolError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for PoolError {}

struct Job {
    query: CanonicalQuery,
    layer: ConvLayer,
    objective: Objective,
    mode: ArchMode,
    /// Same-family design point whose permutation pair is solved instead
    /// of running the full permutation sweep. Any near-miss failure other
    /// than cancellation falls back to the sweep, so an unusable donor
    /// costs only the failed attempt.
    donor: Option<Arc<DesignPoint>>,
    /// Number of requesters still waiting; when it reaches zero before the
    /// job is picked up, the worker skips the solve (cancellation).
    interested: Arc<AtomicUsize>,
    /// Cooperative cancellation token threaded into the optimizer: when the
    /// last waiter leaves *mid-solve*, the barrier loop observes the cancel
    /// at its next centering step and abandons the work.
    deadline: Deadline,
    /// When the job entered the queue, for the queue-wait histogram.
    enqueued: Instant,
}

struct Flight {
    waiters: Vec<Sender<SolveOutcome>>,
    interested: Arc<AtomicUsize>,
    deadline: Deadline,
}

/// The shared solve cache keyed by canonical query. An [`ObservedMutex`] so
/// the contention observatory can account wait/hold time on the hottest
/// lock in the tier (`lock="solve_cache"` in the registry).
pub type SolveCache = ObservedMutex<LruCache<CanonicalQuery, Arc<DesignPoint>>>;

/// Worker pool with single-flight deduplication.
pub struct SolvePool {
    jobs: Option<Sender<Job>>,
    inflight: Arc<ObservedMutex<HashMap<CanonicalQuery, Flight>>>,
    /// Jobs sent but not yet picked up by a worker — the admission
    /// controller's backpressure signal. Incremented just before `send`,
    /// decremented as soon as a worker dequeues (before any panic-prone
    /// solve code runs, so chaos panics cannot leak depth).
    queued: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
}

impl SolvePool {
    /// Spawns `workers` solver threads. Completed solves are inserted into
    /// `cache` and latencies recorded into `metrics`; solves run under `ctx`
    /// so every pipeline stage (perm enumeration, GP solves, integerization,
    /// rescoring) is traced and feeds the per-stage histograms.
    ///
    /// When `lock_registry` is supplied, the single-flight table becomes an
    /// observed lock (`lock="inflight"`) recording wait/hold time there.
    pub fn new(
        optimizer: Arc<Optimizer>,
        workers: usize,
        cache: Arc<SolveCache>,
        metrics: Arc<Metrics>,
        ctx: TraceCtx,
        lock_registry: Option<&Registry>,
    ) -> Self {
        let (tx, rx) = unbounded::<Job>();
        let inflight = Arc::new(ObservedMutex::maybe_observed(
            "inflight",
            HashMap::new(),
            lock_registry,
        ));
        let queued = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let optimizer = Arc::clone(&optimizer);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                let inflight = Arc::clone(&inflight);
                let queued = Arc::clone(&queued);
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("thistle-solve-{i}"))
                    .spawn(move || {
                        worker_loop(
                            i, &rx, &queued, &optimizer, &cache, &metrics, &inflight, &ctx,
                        )
                    })
                    .expect("spawn solver thread")
            })
            .collect();
        SolvePool {
            jobs: Some(tx),
            inflight,
            queued,
            workers: handles,
        }
    }

    /// Solves `query`, joining an identical in-flight solve if one exists.
    /// Returns the design point, whether this call coalesced onto another
    /// request's solve rather than enqueueing its own, and how the wait
    /// decomposed ([`PoolTimings`]). A `donor` (a stored same-family design
    /// point) turns the solve into a near-miss solve; see [`Job::donor`].
    pub fn solve(
        &self,
        query: &CanonicalQuery,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
        donor: Option<Arc<DesignPoint>>,
        timeout: Duration,
    ) -> Result<(Arc<DesignPoint>, bool, PoolTimings), PoolError> {
        let (tx, rx) = unbounded::<SolveOutcome>();
        let (interested, deadline, coalesced) = {
            let mut inflight = self.inflight.lock();
            match inflight.get_mut(query) {
                Some(flight) => {
                    flight.waiters.push(tx);
                    flight.interested.fetch_add(1, Ordering::AcqRel);
                    (
                        Arc::clone(&flight.interested),
                        flight.deadline.clone(),
                        true,
                    )
                }
                None => {
                    let interested = Arc::new(AtomicUsize::new(1));
                    let deadline = Deadline::token();
                    inflight.insert(
                        query.clone(),
                        Flight {
                            waiters: vec![tx],
                            interested: Arc::clone(&interested),
                            deadline: deadline.clone(),
                        },
                    );
                    (interested, deadline, false)
                }
            }
        };
        if !coalesced {
            let job = Job {
                query: query.clone(),
                layer: layer.clone(),
                objective,
                mode: mode.clone(),
                donor,
                interested: Arc::clone(&interested),
                deadline: deadline.clone(),
                enqueued: Instant::now(),
            };
            let Some(jobs) = self.jobs.as_ref() else {
                return Err(PoolError::Shutdown);
            };
            self.queued.fetch_add(1, Ordering::AcqRel);
            if jobs.send(job).is_err() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Err(PoolError::Shutdown);
            }
        }
        let blocked = Instant::now();
        match rx.recv_timeout(timeout) {
            Ok((Ok(point), timings)) => {
                // A coalesced caller's critical path is the block on the
                // other request's flight, not the flight's own queue/solve
                // time (it may have joined partway through either).
                let timings = if coalesced {
                    PoolTimings {
                        coalesce_wait: blocked.elapsed(),
                        ..PoolTimings::default()
                    }
                } else {
                    PoolTimings {
                        queue_wait: timings.queue_wait,
                        solve: timings.solve,
                        coalesce_wait: Duration::ZERO,
                    }
                };
                Ok((point, coalesced, timings))
            }
            Ok((Err(e), _)) => Err(PoolError::Optimize(e)),
            Err(RecvTimeoutError::Timeout) => {
                // Last waiter leaving cancels the solve itself: the barrier
                // loop polls the token and abandons the orphaned work
                // instead of burning a worker on a result nobody wants.
                if interested.fetch_sub(1, Ordering::AcqRel) == 1 {
                    deadline.cancel();
                }
                Err(PoolError::Timeout)
            }
            Err(RecvTimeoutError::Disconnected) => Err(PoolError::Shutdown),
        }
    }

    /// Whether `query` already has a flight a new request would coalesce
    /// onto. Advisory (the flight may finish before the caller acts); used
    /// by brown-out admission, which serves coalescible requests since they
    /// add no new queue work.
    pub fn is_inflight(&self, query: &CanonicalQuery) -> bool {
        self.inflight.lock().contains_key(query)
    }

    /// Jobs enqueued and not yet picked up by a worker — what admission
    /// control samples to decide shedding. Coalesced waiters do not count:
    /// they add no new work.
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }
}

/// Locks a plain mutex ignoring poisoning: chaos tests panic workers on
/// purpose, and a poisoned map must not wedge the pool for every later
/// request. (The shared maps use [`ObservedMutex`], which is poison-tolerant
/// by construction; this helper covers the worker-local bookkeeping mutex.)
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One worker's supervisor loop: drain jobs until the channel closes; if a
/// solve panics (model bug, injected chaos), fail the flight it was serving
/// over to its waiters, count a respawn, and restart the inner loop — the
/// pool never loses solve capacity to a panic.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    rx: &Receiver<Job>,
    queued: &AtomicUsize,
    optimizer: &Optimizer,
    cache: &SolveCache,
    metrics: &Metrics,
    inflight: &ObservedMutex<HashMap<CanonicalQuery, Flight>>,
    ctx: &TraceCtx,
) {
    let current: Mutex<Option<CanonicalQuery>> = Mutex::new(None);
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while let Ok(job) = rx.recv() {
                queued.fetch_sub(1, Ordering::AcqRel);
                *lock(&current) = Some(job.query.clone());
                handle_job(worker, optimizer, cache, metrics, inflight, ctx, job);
                *lock(&current) = None;
            }
        }));
        match run {
            // Channel closed: clean shutdown.
            Ok(()) => break,
            Err(payload) => {
                metrics.record_worker_respawn();
                if let Some(query) = lock(&current).take() {
                    let flight = inflight.lock().remove(&query);
                    if let Some(flight) = flight {
                        let err = OptimizeError::Internal(format!(
                            "solve worker panicked: {}",
                            panic_message(payload)
                        ));
                        for waiter in flight.waiters {
                            let _ = waiter.send((Err(err.clone()), JobTimings::default()));
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_job(
    worker: usize,
    optimizer: &Optimizer,
    cache: &SolveCache,
    metrics: &Metrics,
    inflight: &ObservedMutex<HashMap<CanonicalQuery, Flight>>,
    ctx: &TraceCtx,
    job: Job,
) {
    // Stamp the dequeue: `enqueued → dequeued` is the job's queue residency,
    // `start → finish` below is its solver occupancy.
    let dequeued = Instant::now();
    {
        // Checked under the map lock so a request coalescing right now
        // either sees the flight removed (and starts a fresh one) or bumps
        // `interested` before this test.
        let mut inflight = inflight.lock();
        if job.interested.load(Ordering::Acquire) == 0 {
            // Every requester timed out before we started; drop the flight
            // unsolved.
            inflight.remove(&job.query);
            return;
        }
    }
    let queue_wait = dequeued.duration_since(job.enqueued);
    metrics.record_queue_wait(queue_wait);
    thistle_fault::panic_if("serve.pool.panic", 0);
    let start = Instant::now();
    let result = {
        let mut pool_span = span!(ctx, "pool_solve", worker = worker);
        let result = match &job.donor {
            Some(donor) => {
                match optimizer.optimize_layer_near_miss_deadline(
                    &job.layer,
                    job.objective,
                    &job.mode,
                    donor,
                    &job.deadline,
                    ctx,
                ) {
                    Ok(point) => {
                        metrics.record_near_miss_hit();
                        pool_span.set("near_miss", true);
                        Ok(point)
                    }
                    // Cancellation means every waiter left; a fallback
                    // would burn a worker on a result nobody wants.
                    Err(OptimizeError::Cancelled) => Err(OptimizeError::Cancelled),
                    // Any other near-miss failure (donor pair cannot
                    // generate, its solve failed) falls back to the full
                    // sweep — the donor is an accelerant, never a
                    // correctness dependency.
                    Err(_) => {
                        pool_span.set("near_miss_fallback", true);
                        optimizer.optimize_layer_deadline(
                            &job.layer,
                            job.objective,
                            &job.mode,
                            &job.deadline,
                            ctx,
                        )
                    }
                }
            }
            None => optimizer.optimize_layer_deadline(
                &job.layer,
                job.objective,
                &job.mode,
                &job.deadline,
                ctx,
            ),
        };
        pool_span.set("ok", result.is_ok());
        result
    };
    let solve = start.elapsed();
    metrics.record_solve_latency(solve);
    let timings = JobTimings { queue_wait, solve };
    let outcome: SolveOutcome = match result {
        Ok(point) => {
            metrics.record_solve_outcome(&point.ledger, point.degraded);
            let point = Arc::new(point);
            cache.lock().insert(job.query.clone(), Arc::clone(&point));
            (Ok(point), timings)
        }
        Err(OptimizeError::Cancelled) => {
            // Not an error: every waiter left and the solve stood down.
            metrics.record_cancelled_solve();
            (Err(OptimizeError::Cancelled), timings)
        }
        Err(e) => {
            metrics.record_solve_error();
            (Err(e), timings)
        }
    };
    let flight = inflight.lock().remove(&job.query);
    if let Some(flight) = flight {
        for waiter in flight.waiters {
            // A waiter that timed out dropped its receiver; failed sends
            // are expected.
            let _ = waiter.send(outcome.clone());
        }
    }
}

impl Drop for SolvePool {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain remaining jobs and exit.
        self.jobs = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
