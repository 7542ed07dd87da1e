//! Typed, lock-light metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! that callers stash once and update on the hot path without touching the
//! registry again: counters and gauges are single atomics, histograms take
//! one short mutex per sample. Labelled families ([`CounterFamily`],
//! [`HistogramFamily`]) bound their cardinality — past the limit every new
//! label lands in a shared `_overflow` slot instead of growing memory.
//!
//! [`Registry::snapshot`] produces a point-in-time [`RegistrySnapshot`].
//!
//! [`MetricsBridge`] adapts the registry to the tracing layer: it is a
//! [`Sink`] that times every span into one duration family, so any
//! instrumented stage gets metrics for free.

use crate::{Record, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Label slot used once a family reaches its cardinality bound.
pub const OVERFLOW_LABEL: &str = "_overflow";

/// The histogram family, keyed by `span`, that [`MetricsBridge`] times
/// every span into.
pub const SPAN_DURATION_MS: &str = "span_duration_ms";

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Monotonically increasing `u64` counter. Clone freely; clones share state.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (unregistered; prefer [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A `u64` gauge: settable, steppable, with a monotone-max helper.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at zero (unregistered; prefer [`Registry::gauge`]).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races is the caller's
    /// responsibility; pairs of `add`/`sub` balance exactly).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Windowed histogram: keeps the most recent `capacity` samples for
/// quantiles while counting every sample ever recorded.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<Window>>);

struct Window {
    samples: Vec<f64>,
    cursor: usize,
    recorded: u64,
    capacity: usize,
}

/// Point-in-time quantile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples ever recorded (not just the retained window).
    pub count: u64,
    /// Median over the retained window (0.0 when empty).
    pub p50: f64,
    /// 95th percentile over the retained window (0.0 when empty).
    pub p95: f64,
}

impl Histogram {
    /// A fresh histogram retaining `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Histogram {
        assert!(capacity > 0, "histogram capacity must be positive");
        Histogram(Arc::new(Mutex::new(Window {
            samples: Vec::new(),
            cursor: 0,
            recorded: 0,
            capacity,
        })))
    }

    /// Records one sample, evicting the oldest once the window is full.
    pub fn record(&self, v: f64) {
        let mut w = lock(&self.0);
        if w.samples.len() < w.capacity {
            w.samples.push(v);
        } else {
            let cursor = w.cursor;
            w.samples[cursor] = v;
        }
        w.cursor = (w.cursor + 1) % w.capacity;
        w.recorded += 1;
    }

    /// Nearest-rank quantile over the retained window (0.0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let w = lock(&self.0);
        quantile_of(&w.samples, q)
    }

    /// Samples ever recorded.
    pub fn count(&self) -> u64 {
        lock(&self.0).recorded
    }

    /// Number of samples currently retained (at most the window capacity).
    pub fn buffered(&self) -> usize {
        lock(&self.0).samples.len()
    }

    /// Count plus p50/p95 in one lock acquisition.
    pub fn summary(&self) -> HistogramSummary {
        let w = lock(&self.0);
        HistogramSummary {
            count: w.recorded,
            p50: quantile_of(&w.samples, 0.50),
            p95: quantile_of(&w.samples, 0.95),
        }
    }
}

/// Nearest-rank quantile of `samples` (unsorted input; 0.0 when empty).
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct FamilyInner<T> {
    label_key: &'static str,
    max_cardinality: usize,
    slots: Mutex<Vec<(String, T)>>,
    overflow: T,
}

impl<T: Clone> FamilyInner<T> {
    fn with_label(&self, label: &str, make: impl FnOnce() -> T) -> T {
        let mut slots = lock(&self.slots);
        if let Some((_, handle)) = slots.iter().find(|(l, _)| l == label) {
            return handle.clone();
        }
        if slots.len() >= self.max_cardinality {
            return self.overflow.clone();
        }
        let handle = make();
        slots.push((label.to_string(), handle.clone()));
        handle
    }

    fn labelled(&self) -> Vec<(String, T)> {
        lock(&self.slots).clone()
    }
}

/// Counters sharing a name, split by one label with bounded cardinality.
#[derive(Clone)]
pub struct CounterFamily(Arc<FamilyInner<Counter>>);

impl CounterFamily {
    /// A fresh family keyed by `label_key`, capped at `max_cardinality`
    /// distinct labels (prefer [`Registry::counter_family`]).
    pub fn new(label_key: &'static str, max_cardinality: usize) -> CounterFamily {
        CounterFamily(Arc::new(FamilyInner {
            label_key,
            max_cardinality,
            slots: Mutex::new(Vec::new()),
            overflow: Counter::new(),
        }))
    }

    /// The counter for `label`, creating it if the bound allows; past the
    /// bound, the shared [`OVERFLOW_LABEL`] counter.
    pub fn with_label(&self, label: &str) -> Counter {
        self.0.with_label(label, Counter::new)
    }

    /// Distinct labels currently registered (overflow excluded).
    pub fn cardinality(&self) -> usize {
        lock(&self.0.slots).len()
    }
}

/// Histograms sharing a name, split by one label with bounded cardinality.
#[derive(Clone)]
pub struct HistogramFamily {
    inner: Arc<FamilyInner<Histogram>>,
    capacity: usize,
}

impl HistogramFamily {
    /// A fresh family keyed by `label_key`: up to `max_cardinality` labels,
    /// each retaining `capacity` samples (prefer
    /// [`Registry::histogram_family`]).
    pub fn new(
        label_key: &'static str,
        capacity: usize,
        max_cardinality: usize,
    ) -> HistogramFamily {
        assert!(capacity > 0, "histogram capacity must be positive");
        HistogramFamily {
            inner: Arc::new(FamilyInner {
                label_key,
                max_cardinality,
                slots: Mutex::new(Vec::new()),
                overflow: Histogram::new(capacity),
            }),
            capacity,
        }
    }

    /// Records `v` under `label` (or under the overflow slot past the bound).
    pub fn record(&self, label: &str, v: f64) {
        self.with_label(label).record(v);
    }

    /// The histogram for `label`, creating it if the bound allows.
    pub fn with_label(&self, label: &str) -> Histogram {
        let capacity = self.capacity;
        self.inner.with_label(label, || Histogram::new(capacity))
    }

    /// Distinct labels currently registered (overflow excluded).
    pub fn cardinality(&self) -> usize {
        lock(&self.inner.slots).len()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
    counter_families: Vec<(String, CounterFamily)>,
    histogram_families: Vec<(String, HistogramFamily)>,
}

/// Named home for metric handles; the single source for snapshots.
///
/// `register-or-get` semantics: asking twice for the same name returns a
/// handle to the same underlying metric, so independent subsystems can share
/// a metric by name without plumbing handles around.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = lock(&self.inner);
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = lock(&self.inner);
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// The histogram named `name`, registering it with `capacity` retained
    /// samples on first use (later calls reuse the original capacity).
    pub fn histogram(&self, name: &str, capacity: usize) -> Histogram {
        let mut inner = lock(&self.inner);
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new(capacity);
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// The counter family named `name`, registering it on first use.
    pub fn counter_family(
        &self,
        name: &str,
        label_key: &'static str,
        max_cardinality: usize,
    ) -> CounterFamily {
        let mut inner = lock(&self.inner);
        if let Some((_, f)) = inner.counter_families.iter().find(|(n, _)| n == name) {
            return f.clone();
        }
        let f = CounterFamily::new(label_key, max_cardinality);
        inner.counter_families.push((name.to_string(), f.clone()));
        f
    }

    /// The histogram family named `name`, registering it on first use.
    pub fn histogram_family(
        &self,
        name: &str,
        label_key: &'static str,
        capacity: usize,
        max_cardinality: usize,
    ) -> HistogramFamily {
        let mut inner = lock(&self.inner);
        if let Some((_, f)) = inner.histogram_families.iter().find(|(n, _)| n == name) {
            return f.clone();
        }
        let f = HistogramFamily::new(label_key, capacity, max_cardinality);
        inner.histogram_families.push((name.to_string(), f.clone()));
        f
    }

    /// A consistent point-in-time sample of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        let mut counters = Vec::new();
        for (name, c) in &inner.counters {
            counters.push(CounterSample {
                name: name.clone(),
                label: None,
                value: c.get(),
            });
        }
        for (name, family) in &inner.counter_families {
            let key = family.0.label_key;
            for (label, c) in family.0.labelled() {
                counters.push(CounterSample {
                    name: name.clone(),
                    label: Some((key.to_string(), label)),
                    value: c.get(),
                });
            }
            let overflow = family.0.overflow.get();
            if overflow > 0 {
                counters.push(CounterSample {
                    name: name.clone(),
                    label: Some((key.to_string(), OVERFLOW_LABEL.to_string())),
                    value: overflow,
                });
            }
        }
        let gauges = inner
            .gauges
            .iter()
            .map(|(name, g)| GaugeSample {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let mut histograms = Vec::new();
        for (name, h) in &inner.histograms {
            histograms.push(HistogramSample {
                name: name.clone(),
                label: None,
                summary: h.summary(),
            });
        }
        for (name, family) in &inner.histogram_families {
            let key = family.inner.label_key;
            for (label, h) in family.inner.labelled() {
                histograms.push(HistogramSample {
                    name: name.clone(),
                    label: Some((key.to_string(), label)),
                    summary: h.summary(),
                });
            }
            let overflow = family.inner.overflow.summary();
            if overflow.count > 0 {
                histograms.push(HistogramSample {
                    name: name.clone(),
                    label: Some((key.to_string(), OVERFLOW_LABEL.to_string())),
                    summary: overflow,
                });
            }
        }
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter sample inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// `(key, value)` label pair for family members, `None` for plain
    /// counters.
    pub label: Option<(String, String)>,
    /// Sampled value.
    pub value: u64,
}

/// One gauge sample inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sampled value.
    pub value: u64,
}

/// One histogram sample inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// `(key, value)` label pair for family members, `None` for plain
    /// histograms.
    pub label: Option<(String, String)>,
    /// Count and window quantiles.
    pub summary: HistogramSummary,
}

/// Point-in-time sample of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// All counter samples (plain, then family members).
    pub counters: Vec<CounterSample>,
    /// All gauge samples.
    pub gauges: Vec<GaugeSample>,
    /// All histogram samples (plain, then family members).
    pub histograms: Vec<HistogramSample>,
}

/// [`Sink`] that derives registry metrics from trace records.
///
/// For every span it records the span's duration into
/// `span_duration_ms{span=<name>}`, whose `count` is the number of such
/// spans.
pub struct MetricsBridge {
    span_duration_ms: HistogramFamily,
}

impl MetricsBridge {
    /// Registers the bridge's metric families in `registry` and returns the
    /// sink. Span-name cardinality is bounded at `max_cardinality`.
    pub fn new(registry: &Registry, window: usize, max_cardinality: usize) -> MetricsBridge {
        MetricsBridge {
            span_duration_ms: registry.histogram_family(
                SPAN_DURATION_MS,
                "span",
                window,
                max_cardinality,
            ),
        }
    }
}

impl Sink for MetricsBridge {
    fn record(&self, record: Record) {
        let Record::Span(s) = &record;
        self.span_duration_ms
            .record(s.name, s.dur_ns as f64 / 1_000_000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, SpanRecord};

    fn span(name: &'static str, dur_ns: u64, unwound: bool) -> Record {
        Record::Span(SpanRecord {
            seq: 0,
            name,
            tid: 1,
            depth: 0,
            start_ns: 0,
            dur_ns,
            fields: vec![("k", FieldValue::U64(1))],
            closed_by_unwind: unwound,
        })
    }

    #[test]
    fn counters_and_gauges_share_state_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests").get(), 3);

        let g = reg.gauge("in_flight");
        g.add(5);
        g.sub(2);
        g.max(2); // below current value: no effect
        assert_eq!(reg.gauge("in_flight").get(), 3);
        g.max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_window_rotates_without_growing() {
        let reg = Registry::new();
        let h = reg.histogram("lat", 8);
        for i in 0..100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100, "every sample is counted");
        assert_eq!(h.buffered(), 8, "only the window is retained");
        // Window holds 92..=99; median of those is ~95/96.
        let p50 = h.quantile(0.5);
        assert!((92.0..=99.0).contains(&p50), "p50 {p50} from recent window");
        assert!(h.quantile(0.95) >= p50);
        assert_eq!(Histogram::new(4).quantile(0.5), 0.0, "empty window is 0");
    }

    #[test]
    fn label_cardinality_is_bounded() {
        let family = CounterFamily::new("span", 3);
        for name in ["a", "b", "c", "d", "e", "a"] {
            family.with_label(name).inc();
        }
        assert_eq!(family.cardinality(), 3, "only the first 3 labels register");
        assert_eq!(family.with_label("a").get(), 2);
        // "d" and "e" both landed on the shared overflow counter.
        assert_eq!(family.with_label("zzz").get(), 2);

        let hf = HistogramFamily::new("span", 16, 2);
        for name in ["a", "b", "c", "d"] {
            hf.record(name, 1.0);
        }
        assert_eq!(hf.cardinality(), 2);
        assert_eq!(hf.with_label("anything-new").count(), 2);
    }

    #[test]
    fn bridge_derives_span_metrics() {
        let reg = Registry::new();
        let bridge = MetricsBridge::new(&reg, 64, 16);
        bridge.record(span("gp_solve", 2_000_000, false));
        bridge.record(span("gp_solve", 4_000_000, false));
        bridge.record(span("integerize", 1_000_000, true));
        let snap = reg.snapshot();
        let count = |label: &str| {
            snap.histograms
                .iter()
                .find(|h| {
                    h.name == SPAN_DURATION_MS && h.label.as_ref().is_some_and(|(_, l)| l == label)
                })
                .map(|h| h.summary)
                .expect("duration family sample")
        };
        assert_eq!(count("gp_solve").count, 2);
        assert_eq!(count("integerize").count, 1);
        assert!((count("gp_solve").p50 - 3.0).abs() < 1.01, "ms conversion");
        assert!(
            snap.counters.is_empty(),
            "one family per span: no separate span counter"
        );
    }
}
