//! Tail-sampled exemplar traces.
//!
//! Always-on tracing is cheap to *collect* but expensive to *keep*: a busy
//! server closes thousands of spans per second and almost all of them
//! describe healthy, fast requests nobody will ever look at. The
//! [`ExemplarSink`] inverts the retention decision: it buffers recent
//! records in a bounded ring and, each time a *trigger* span (e.g. the
//! per-request root span) closes, decides whether that request's full span
//! tree is worth keeping — errors beat degraded results beat merely-slow
//! ones, and within a class slower beats faster. The result is a small,
//! bounded set of complete traces for exactly the requests worth debugging,
//! retrievable after the fact as Chrome-trace JSON.
//!
//! Capture is time-overlap based: every buffered record whose interval
//! overlaps the trigger span's `[start, start+dur]` is included. Under
//! concurrent load this can pull in records from an overlapping request —
//! harmless for debugging (extra context) and far cheaper than propagating
//! request identity through every span.

use crate::{FieldValue, Record, Sink};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why an exemplar was retained, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExemplarClass {
    /// Retained purely for its duration (tail sampling).
    Slow,
    /// The trigger span reported a degraded or timed-out result.
    Degraded,
    /// The trigger span closed by unwind or reported `ok = false`.
    Error,
}

impl ExemplarClass {
    /// Stable lowercase name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            ExemplarClass::Slow => "slow",
            ExemplarClass::Degraded => "degraded",
            ExemplarClass::Error => "error",
        }
    }
}

/// One retained trace: the trigger span plus every record overlapping it.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Unique id within this sink (monotonic admission order).
    pub id: u64,
    /// Name of the trigger span that produced this exemplar.
    pub trigger: &'static str,
    /// First string field on the trigger span (e.g. the layer name), or
    /// empty.
    pub label: String,
    /// Why it was kept.
    pub class: ExemplarClass,
    /// Trigger span duration in nanoseconds.
    pub dur_ns: u64,
    /// The captured records, in sequence order, trigger included.
    pub records: Vec<Record>,
}

impl Exemplar {
    /// Renders the captured records as a Chrome `trace_event` document.
    pub fn chrome_trace_json(&self) -> String {
        crate::export::chrome_trace_json(&self.records)
    }
}

struct State {
    buffer: VecDeque<Record>,
    exemplars: Vec<Exemplar>,
}

/// Bounded [`Sink`] retaining full span trees only for the slowest,
/// degraded, and failed trigger spans in the recent window.
pub struct ExemplarSink {
    trigger: &'static str,
    buffer_capacity: usize,
    max_exemplars: usize,
    next_id: AtomicU64,
    state: Mutex<State>,
}

impl ExemplarSink {
    /// A sink triggering on spans named `trigger`, buffering up to
    /// `buffer_capacity` recent records and retaining up to `max_exemplars`
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(
        trigger: &'static str,
        buffer_capacity: usize,
        max_exemplars: usize,
    ) -> ExemplarSink {
        assert!(buffer_capacity > 0, "buffer capacity must be positive");
        assert!(max_exemplars > 0, "exemplar capacity must be positive");
        ExemplarSink {
            trigger,
            buffer_capacity,
            max_exemplars,
            next_id: AtomicU64::new(0),
            state: Mutex::new(State {
                buffer: VecDeque::new(),
                exemplars: Vec::new(),
            }),
        }
    }

    /// The retained exemplars, most severe (then slowest) first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let state = self.lock();
        let mut out = state.exemplars.clone();
        out.sort_by_key(|e| std::cmp::Reverse((e.class, e.dur_ns)));
        out
    }

    /// The retained exemplar with id `id`, if still resident.
    pub fn get(&self, id: u64) -> Option<Exemplar> {
        self.lock().exemplars.iter().find(|e| e.id == id).cloned()
    }

    /// Number of exemplars currently retained.
    pub fn len(&self) -> usize {
        self.lock().exemplars.len()
    }

    /// Whether no exemplar has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

fn bool_field(fields: &[(&'static str, FieldValue)], key: &str) -> Option<bool> {
    fields.iter().find_map(|(k, v)| match v {
        FieldValue::Bool(b) if *k == key => Some(*b),
        _ => None,
    })
}

fn first_str_field(fields: &[(&'static str, FieldValue)]) -> String {
    fields
        .iter()
        .find_map(|(_, v)| match v {
            FieldValue::Str(s) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

/// Severity of a finished trigger span.
fn classify(span: &crate::SpanRecord) -> ExemplarClass {
    if span.closed_by_unwind || bool_field(&span.fields, "ok") == Some(false) {
        ExemplarClass::Error
    } else if bool_field(&span.fields, "degraded") == Some(true)
        || bool_field(&span.fields, "timed_out") == Some(true)
    {
        ExemplarClass::Degraded
    } else {
        ExemplarClass::Slow
    }
}

fn overlaps(record: &Record, start_ns: u64, end_ns: u64) -> bool {
    let Record::Span(s) = record;
    s.start_ns <= end_ns && s.start_ns.saturating_add(s.dur_ns) >= start_ns
}

impl Sink for ExemplarSink {
    fn record(&self, record: Record) {
        let trigger_span = match &record {
            Record::Span(s) if s.name == self.trigger => Some(s.clone()),
            _ => None,
        };
        let mut state = self.lock();
        let Some(trigger) = trigger_span else {
            if state.buffer.len() >= self.buffer_capacity {
                state.buffer.pop_front();
            }
            state.buffer.push_back(record);
            return;
        };
        let class = classify(&trigger);
        let start = trigger.start_ns;
        let end = trigger.start_ns.saturating_add(trigger.dur_ns);
        let mut records: Vec<Record> = state
            .buffer
            .iter()
            .filter(|r| overlaps(r, start, end))
            .cloned()
            .collect();
        records.push(record);
        records.sort_by_key(Record::seq);
        let exemplar = Exemplar {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            trigger: trigger.name,
            label: first_str_field(&trigger.fields),
            class,
            dur_ns: trigger.dur_ns,
            records,
        };
        state.exemplars.push(exemplar);
        if state.exemplars.len() > self.max_exemplars {
            // Evict the least interesting: lowest class, then fastest.
            let weakest = state
                .exemplars
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.class, e.dur_ns))
                .map(|(i, _)| i)
                .expect("non-empty exemplar set");
            state.exemplars.swap_remove(weakest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRecord;
    use std::sync::Arc;

    fn span(
        seq: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        fields: Vec<(&'static str, FieldValue)>,
        unwound: bool,
    ) -> Record {
        Record::Span(SpanRecord {
            seq,
            name,
            tid: 1,
            depth: 0,
            start_ns,
            dur_ns,
            fields,
            closed_by_unwind: unwound,
        })
    }

    fn request(seq: u64, start_ns: u64, dur_ns: u64, degraded: bool) -> Record {
        span(
            seq,
            "request",
            start_ns,
            dur_ns,
            vec![
                ("layer", FieldValue::Str(format!("conv{seq}"))),
                ("degraded", FieldValue::Bool(degraded)),
            ],
            false,
        )
    }

    #[test]
    fn trigger_captures_overlapping_records_only() {
        let sink = ExemplarSink::new("request", 64, 4);
        sink.record(span(0, "old_work", 0, 50, vec![], false)); // before
        sink.record(span(1, "gp_solve", 110, 40, vec![], false)); // inside
        sink.record(span(2, "later", 500, 10, vec![], false)); // after
        sink.record(request(3, 100, 100, false));
        let exemplars = sink.exemplars();
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert_eq!(ex.label, "conv3");
        assert_eq!(ex.class, ExemplarClass::Slow);
        assert_eq!(ex.dur_ns, 100);
        let names: Vec<&str> = ex.records.iter().map(Record::name).collect();
        assert_eq!(names, ["gp_solve", "request"], "only overlapping records");
        assert!(ex.chrome_trace_json().contains("\"gp_solve\""));
    }

    #[test]
    fn severity_then_duration_orders_retention() {
        let sink = ExemplarSink::new("request", 16, 2);
        sink.record(request(0, 0, 5_000, false)); // slow, 5us
        sink.record(request(1, 0, 9_000, false)); // slow, 9us
        sink.record(request(2, 0, 1_000, true)); // degraded but fast
        let kept = sink.exemplars();
        assert_eq!(kept.len(), 2);
        // The degraded one outranks both slow ones; of the slow ones the
        // 9us trace survives.
        assert_eq!(kept[0].class, ExemplarClass::Degraded);
        assert_eq!(kept[1].dur_ns, 9_000);
        assert!(sink.get(kept[0].id).is_some());
        assert!(sink.get(999).is_none());
    }

    #[test]
    fn errors_outrank_degraded() {
        let sink = ExemplarSink::new("request", 16, 8);
        sink.record(request(0, 0, 1_000, true));
        let mut failed = request(1, 0, 10, false);
        let Record::Span(s) = &mut failed;
        s.closed_by_unwind = true;
        sink.record(failed);
        sink.record(span(
            2,
            "request",
            0,
            20,
            vec![("ok", FieldValue::Bool(false))],
            false,
        ));
        let kept = sink.exemplars();
        assert_eq!(kept[0].class, ExemplarClass::Error);
        assert_eq!(kept[1].class, ExemplarClass::Error);
        assert_eq!(kept[2].class, ExemplarClass::Degraded);
    }

    #[test]
    fn retention_stays_bounded_under_concurrent_load() {
        let sink = Arc::new(ExemplarSink::new("request", 256, 4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let seq = t * 1_000 + i;
                        sink.record(span(seq, "gp_solve", seq * 10, 5, vec![], false));
                        // Durations vary so retention has an ordering to
                        // exercise; a few requests are degraded.
                        sink.record(request(seq, seq * 10, 10 + (seq % 97) * 100, seq % 50 == 0));
                    }
                });
            }
        });
        let kept = sink.exemplars();
        assert_eq!(kept.len(), 4, "retention is bounded");
        // 16 degraded requests competed for 4 slots: every survivor must be
        // degraded, and they must come out sorted most-severe-then-slowest.
        assert!(kept.iter().all(|e| e.class == ExemplarClass::Degraded));
        for pair in kept.windows(2) {
            assert!((pair[0].class, pair[0].dur_ns) >= (pair[1].class, pair[1].dur_ns));
        }
        // Each exemplar retains a bounded, non-empty record set including
        // its own trigger span.
        for ex in &kept {
            assert!(!ex.records.is_empty());
            assert!(ex
                .records
                .iter()
                .any(|r| matches!(r, Record::Span(s) if s.name == "request")));
        }
    }
}
