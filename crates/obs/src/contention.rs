//! Lock contention observatory: an instrumented `Mutex` wrapper.
//!
//! The serve tier funnels every request through four shared locks — the LRU
//! design cache, the single-flight table, the family index, the report ring.
//! Spans attribute *time spent in a stage*; under oversubscription the tail
//! is dominated by *wait time* on those locks, which no span can see.
//! [`ObservedMutex`] closes that gap: same shape as `std::sync::Mutex`, but
//! each acquisition records
//!
//! * **wait time** (request → grant) into a windowed histogram
//!   `lock_wait_ms{lock=<name>}`,
//! * **hold time** (grant → release) into `lock_hold_ms{lock=<name>}`,
//! * an acquisition counter `lock_acquisitions_total{lock=<name>}` and a
//!   contended-acquisition counter `lock_contended_total{lock=<name>}`
//!   (bumped only when the fast-path `try_lock` lost the race),
//!
//! all registered in an existing [`Registry`], so they surface through the
//! same snapshot/JSON/Prometheus pipeline as every other metric.
//!
//! Two constructors select the mode once, at lock creation:
//! [`ObservedMutex::unobserved`] carries no metric handles and compiles down
//! to plain `Mutex` operations (the disabled path costs one `None` branch —
//! the same idiom as [`TraceCtx::disabled`](crate::TraceCtx::disabled)),
//! while [`ObservedMutex::observed`] resolves its four registry handles once
//! and never touches the registry's name table again on the lock path.
//!
//! Waits measured on the calling thread also accumulate into a thread-local
//! counter ([`take_thread_lock_wait`]), which is how the serve tier folds
//! "time this request spent blocked on locks" into its per-request
//! [`LatencyBreakdown`] without threading a context through every call site.
//!
//! All guards are poison-tolerant: a panic while holding a lock (the chaos
//! suite does this deliberately) leaves the data usable for the next
//! acquirer instead of cascading `PoisonError` unwraps through the server.

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError, TryLockResult};
use std::time::{Duration, Instant};

use crate::registry::{Counter, Histogram, Registry};

/// Histogram family: per-acquisition wait time in milliseconds.
pub const LOCK_WAIT_MS: &str = "lock_wait_ms";
/// Histogram family: per-acquisition hold time in milliseconds.
pub const LOCK_HOLD_MS: &str = "lock_hold_ms";
/// Counter family: total acquisitions per named lock.
pub const LOCK_ACQUISITIONS_TOTAL: &str = "lock_acquisitions_total";
/// Counter family: acquisitions that found the lock already held.
pub const LOCK_CONTENDED_TOTAL: &str = "lock_contended_total";
/// The label key all four families share.
pub const LOCK_LABEL: &str = "lock";

/// Sliding-window capacity for the wait/hold histograms.
const LOCK_WINDOW: usize = 1024;
/// Cardinality bound on distinct lock names per family.
const MAX_LOCKS: usize = 32;

thread_local! {
    /// Nanoseconds this thread has spent blocked on observed locks since the
    /// last [`take_thread_lock_wait`].
    static THREAD_LOCK_WAIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// Drains this thread's accumulated observed-lock wait time.
///
/// Returns the total blocked time since the previous call (or thread start)
/// and resets the accumulator to zero. Call once at the start of a request
/// to discard waits charged to earlier work, and once at the end to read the
/// request's own lock-wait share.
pub fn take_thread_lock_wait() -> Duration {
    THREAD_LOCK_WAIT_NS.with(|c| {
        let ns = c.get();
        c.set(0);
        Duration::from_nanos(ns)
    })
}

fn note_thread_wait(wait: Duration) {
    THREAD_LOCK_WAIT_NS.with(|c| c.set(c.get().saturating_add(wait.as_nanos() as u64)));
}

/// The four registry handles one named lock records into. Resolved once at
/// construction; the lock path never consults the registry again.
struct LockMetrics {
    wait: Histogram,
    hold: Histogram,
    acquisitions: Counter,
    contended: Counter,
}

impl LockMetrics {
    fn resolve(name: &str, registry: &Registry) -> LockMetrics {
        LockMetrics {
            wait: registry
                .histogram_family(LOCK_WAIT_MS, LOCK_LABEL, LOCK_WINDOW, MAX_LOCKS)
                .with_label(name),
            hold: registry
                .histogram_family(LOCK_HOLD_MS, LOCK_LABEL, LOCK_WINDOW, MAX_LOCKS)
                .with_label(name),
            acquisitions: registry
                .counter_family(LOCK_ACQUISITIONS_TOTAL, LOCK_LABEL, MAX_LOCKS)
                .with_label(name),
            contended: registry
                .counter_family(LOCK_CONTENDED_TOTAL, LOCK_LABEL, MAX_LOCKS)
                .with_label(name),
        }
    }

    /// Books one acquisition: `wait` is how long the caller blocked
    /// (zero when the fast-path try-lock succeeded).
    fn on_acquired(&self, wait: Duration) {
        self.acquisitions.inc();
        self.wait.record(wait.as_secs_f64() * 1e3);
        if !wait.is_zero() {
            self.contended.inc();
            note_thread_wait(wait);
        }
    }

    fn on_released(&self, held_since: Instant) {
        self.hold.record(held_since.elapsed().as_secs_f64() * 1e3);
    }
}

fn untangle<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

fn untangle_try<G>(result: TryLockResult<G>) -> Option<G> {
    match result {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A `Mutex` that optionally accounts wait/hold time per acquisition.
pub struct ObservedMutex<T> {
    inner: Mutex<T>,
    metrics: Option<LockMetrics>,
}

impl<T> ObservedMutex<T> {
    /// A plain pass-through mutex: no metric handles, no timestamps — the
    /// lock path is `Mutex::lock` plus one branch on a `None`.
    pub fn unobserved(value: T) -> ObservedMutex<T> {
        ObservedMutex {
            inner: Mutex::new(value),
            metrics: None,
        }
    }

    /// An instrumented mutex recording into `registry` under `name`.
    pub fn observed(name: &str, value: T, registry: &Registry) -> ObservedMutex<T> {
        ObservedMutex {
            inner: Mutex::new(value),
            metrics: Some(LockMetrics::resolve(name, registry)),
        }
    }

    /// Observed when a registry is supplied, a pass-through otherwise —
    /// lets call sites thread one `Option<&Registry>` as the on/off switch.
    pub fn maybe_observed(name: &str, value: T, registry: Option<&Registry>) -> ObservedMutex<T> {
        match registry {
            Some(registry) => ObservedMutex::observed(name, value, registry),
            None => ObservedMutex::unobserved(value),
        }
    }

    /// Acquires the lock, blocking until it is granted. Poison-tolerant:
    /// a previous holder's panic does not propagate.
    pub fn lock(&self) -> ObservedMutexGuard<'_, T> {
        let Some(metrics) = &self.metrics else {
            return ObservedMutexGuard {
                guard: untangle(self.inner.lock()),
                held: None,
            };
        };
        // Fast path first: a successful try-lock means zero wait and no
        // clock read for the wait side.
        let (guard, wait) = match untangle_try(self.inner.try_lock()) {
            Some(guard) => (guard, Duration::ZERO),
            None => {
                let blocked = Instant::now();
                let guard = untangle(self.inner.lock());
                (guard, blocked.elapsed())
            }
        };
        metrics.on_acquired(wait);
        ObservedMutexGuard {
            guard,
            held: Some((Instant::now(), metrics)),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ObservedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedMutex")
            .field("observed", &self.metrics.is_some())
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for [`ObservedMutex`]; hold time is recorded on drop.
pub struct ObservedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    held: Option<(Instant, &'a LockMetrics)>,
}

impl<T> std::ops::Deref for ObservedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for ObservedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for ObservedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((since, metrics)) = self.held.take() {
            metrics.on_released(since);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample(
        registry: &Registry,
        name: &str,
        label: &str,
    ) -> Option<crate::registry::HistogramSummary> {
        registry
            .snapshot()
            .histograms
            .into_iter()
            .find(|h| h.name == name && h.label.as_ref().map(|(_, v)| v.as_str()) == Some(label))
            .map(|h| h.summary)
    }

    fn counter(registry: &Registry, name: &str, label: &str) -> u64 {
        registry
            .snapshot()
            .counters
            .into_iter()
            .find(|c| c.name == name && c.label.as_ref().map(|(_, v)| v.as_str()) == Some(label))
            .map(|c| c.value)
            .unwrap_or(0)
    }

    #[test]
    fn contended_acquisition_attributes_wait_and_hold() {
        let registry = Arc::new(Registry::new());
        let lock = Arc::new(ObservedMutex::observed("victim", 0u64, &registry));
        take_thread_lock_wait(); // discard waits from earlier tests on this thread

        // A holder thread grabs the lock and sits on it; the main thread's
        // acquisition must block and book that wait.
        let hold_ms = 30u64;
        let holder = {
            let lock = Arc::clone(&lock);
            let (armed_tx, armed_rx) = std::sync::mpsc::channel();
            let handle = std::thread::spawn(move || {
                let mut g = lock.lock();
                armed_tx.send(()).expect("armed");
                std::thread::sleep(Duration::from_millis(hold_ms));
                *g += 1;
            });
            armed_rx.recv().expect("holder armed");
            handle
        };
        {
            let mut g = lock.lock();
            *g += 1;
        }
        holder.join().expect("holder thread");

        assert_eq!(counter(&registry, LOCK_ACQUISITIONS_TOTAL, "victim"), 2);
        assert_eq!(counter(&registry, LOCK_CONTENDED_TOTAL, "victim"), 1);
        let wait = sample(&registry, LOCK_WAIT_MS, "victim").expect("wait histogram");
        assert_eq!(wait.count, 2);
        // The contended acquisition waited out most of the holder's sleep;
        // generous slack absorbs scheduler jitter.
        assert!(wait.p95 >= hold_ms as f64 * 0.5, "wait p95 {}", wait.p95);
        let hold = sample(&registry, LOCK_HOLD_MS, "victim").expect("hold histogram");
        assert_eq!(hold.count, 2);
        assert!(hold.p95 >= hold_ms as f64 * 0.5, "hold p95 {}", hold.p95);
        // The blocked time landed in this thread's accumulator, once.
        let charged = take_thread_lock_wait();
        assert!(charged >= Duration::from_millis(hold_ms / 2), "{charged:?}");
        assert_eq!(take_thread_lock_wait(), Duration::ZERO);
    }

    #[test]
    fn unobserved_path_records_nothing() {
        take_thread_lock_wait();
        let lock = ObservedMutex::unobserved(vec![1, 2, 3]);
        {
            let mut g = lock.lock();
            g.push(4);
        }
        assert_eq!(lock.lock().len(), 4);
        assert_eq!(take_thread_lock_wait(), Duration::ZERO);
    }

    #[test]
    fn uncontended_acquisitions_count_but_do_not_charge_wait() {
        let registry = Arc::new(Registry::new());
        let lock = ObservedMutex::observed("quiet", (), &registry);
        take_thread_lock_wait();
        for _ in 0..5 {
            drop(lock.lock());
        }
        assert_eq!(counter(&registry, LOCK_ACQUISITIONS_TOTAL, "quiet"), 5);
        assert_eq!(counter(&registry, LOCK_CONTENDED_TOTAL, "quiet"), 0);
        let wait = sample(&registry, LOCK_WAIT_MS, "quiet").expect("wait histogram");
        assert_eq!(wait.count, 5);
        assert_eq!(take_thread_lock_wait(), Duration::ZERO);
    }

    #[test]
    fn poisoned_lock_stays_usable() {
        let registry = Arc::new(Registry::new());
        let lock = Arc::new(ObservedMutex::observed("poisoned", 1u64, &registry));
        let panicker = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _g = lock.lock();
                panic!("deliberate");
            })
        };
        assert!(panicker.join().is_err());
        *lock.lock() += 1;
        assert_eq!(*lock.lock(), 2);
    }
}
