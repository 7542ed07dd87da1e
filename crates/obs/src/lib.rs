//! Structured tracing for the Thistle optimizer pipeline.
//!
//! The pipeline is a chain of distinct, costly stages — permutation
//! enumeration, GP generation and solve, integerization, referee rescoring,
//! and the serving path in front of all of them. This crate makes that chain
//! attributable: code opens hierarchical **spans** with typed fields, the
//! records flow into a pluggable [`Sink`], and a finished trace exports as a
//! Chrome `trace_event` file (open in `about:tracing` or
//! [Perfetto](https://ui.perfetto.dev)) or as compact JSONL.
//!
//! Design constraints, in order:
//!
//! 1. **Free when disabled.** Every instrumented function takes a
//!    [`TraceCtx`]; a disabled context ([`TraceCtx::disabled`], also the
//!    `Default`) is a `None` and every operation on it is a branch on a
//!    niche-optimized option. Hot loops stay hot.
//! 2. **Lock-free when enabled.** Span records are pushed onto an atomic
//!    append log (a Treiber stack) — no global mutex on the record path, so
//!    the parallel GP sweep can trace from every worker without convoying.
//! 3. **Balanced under panics.** A [`SpanGuard`] closes its span in `Drop`,
//!    which runs during unwinding too, so every opened span produces exactly
//!    one record even when a stage panics (see the property test).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use thistle_obs::{span, CollectingSink, TraceCtx};
//!
//! let sink = Arc::new(CollectingSink::new());
//! let ctx = TraceCtx::new(sink.clone());
//! {
//!     let mut outer = span!(ctx, "gp_solve", perm_pair = 3u64);
//!     let _inner = span!(ctx, "newton_center");
//!     outer.set("iterations", 17u64);
//! }
//! let records = sink.take();
//! assert_eq!(records.len(), 2);
//! let json = thistle_obs::export::chrome_trace_json(&records);
//! assert!(json.contains("\"gp_solve\""));
//! ```

pub mod contention;
pub mod exemplar;
pub mod export;
pub mod registry;
pub mod sink;

pub use contention::{take_thread_lock_wait, ObservedMutex};
pub use exemplar::{Exemplar, ExemplarClass, ExemplarSink};
pub use registry::{
    Counter, CounterFamily, Gauge, Histogram, HistogramFamily, HistogramSummary, MetricsBridge,
    Registry, RegistrySnapshot,
};
pub use sink::{CollectingSink, FanoutSink, JsonlSink, Sink};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
    /// A short numeric series (e.g. a solver's residual trajectory).
    Seq(Vec<f64>),
}

macro_rules! from_impl {
    ($t:ty, $v:ident, $conv:expr) => {
        impl From<$t> for FieldValue {
            fn from($v: $t) -> FieldValue {
                $conv
            }
        }
    };
}
from_impl!(u64, v, FieldValue::U64(v));
from_impl!(u32, v, FieldValue::U64(v as u64));
from_impl!(usize, v, FieldValue::U64(v as u64));
from_impl!(i64, v, FieldValue::I64(v));
from_impl!(f64, v, FieldValue::F64(v));
from_impl!(bool, v, FieldValue::Bool(v));
from_impl!(&str, v, FieldValue::Str(v.to_string()));
from_impl!(String, v, FieldValue::Str(v));
from_impl!(Vec<f64>, v, FieldValue::Seq(v));
from_impl!(&[f64], v, FieldValue::Seq(v.to_vec()));

/// Typed key/value pairs on a record. Keys are static so the record path
/// never allocates for names.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// One closed span: a named, timed, nested unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Open-order sequence number (parents sort before their children).
    pub seq: u64,
    pub name: &'static str,
    /// Trace-local thread id (dense, starts at 1).
    pub tid: u64,
    /// Nesting depth on the opening thread at open time (0 = top level).
    pub depth: u32,
    /// Start, nanoseconds since the context epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    pub fields: Fields,
    /// The span was closed by stack unwinding rather than normal drop.
    pub closed_by_unwind: bool,
}

/// What a sink receives: a closed span.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    Span(SpanRecord),
}

impl Record {
    pub fn seq(&self) -> u64 {
        let Record::Span(s) = self;
        s.seq
    }

    pub fn name(&self) -> &'static str {
        let Record::Span(s) = self;
        s.name
    }

    /// The span record.
    pub fn as_span(&self) -> Option<&SpanRecord> {
        let Record::Span(s) = self;
        Some(s)
    }
}

struct Shared {
    epoch: Instant,
    next_seq: AtomicU64,
    sink: Arc<dyn Sink>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Trace-local thread id, assigned on first use per thread.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open-span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// A handle to one trace. Cheap to clone, `Send + Sync`; thread it through
/// every stage you want attributable. The disabled context costs one branch
/// per call site.
#[derive(Clone, Default)]
pub struct TraceCtx {
    shared: Option<Arc<Shared>>,
}

impl TraceCtx {
    /// A context on which every operation is a no-op.
    pub fn disabled() -> TraceCtx {
        TraceCtx { shared: None }
    }

    /// A context recording into `sink`, with its epoch set to now.
    pub fn new(sink: Arc<dyn Sink>) -> TraceCtx {
        TraceCtx {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                next_seq: AtomicU64::new(0),
                sink,
            })),
        }
    }

    /// A context fanning records out to several sinks. An empty list yields
    /// a disabled context.
    pub fn fanout(sinks: Vec<Arc<dyn Sink>>) -> TraceCtx {
        match sinks.len() {
            0 => TraceCtx::disabled(),
            1 => TraceCtx::new(sinks.into_iter().next().expect("one sink")),
            _ => TraceCtx::new(Arc::new(FanoutSink::new(sinks))),
        }
    }

    /// Whether records are being collected.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a span; it closes (and reaches the sink) when the returned
    /// guard drops — including during panic unwinding.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.shared {
            None => SpanGuard {
                shared: None,
                name,
                seq: 0,
                start: None,
                fields: Vec::new(),
            },
            Some(shared) => {
                DEPTH.with(|d| d.set(d.get() + 1));
                SpanGuard {
                    seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
                    shared: Some(Arc::clone(shared)),
                    name,
                    start: Some(Instant::now()),
                    fields: Vec::new(),
                }
            }
        }
    }
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// An open span. Closes on drop; attach fields with [`SpanGuard::set`].
///
/// Not `Send`: spans time a region of one thread's stack (depth accounting
/// is thread-local). Open a fresh span on each worker instead of moving one.
pub struct SpanGuard {
    shared: Option<Arc<Shared>>,
    name: &'static str,
    seq: u64,
    start: Option<Instant>,
    fields: Fields,
}

impl SpanGuard {
    /// Whether this span will produce a record (false on a disabled
    /// context — skip expensive field computation in that case).
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Attaches a typed field. No-op on a disabled context.
    pub fn set(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.shared.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return;
        };
        let depth = DEPTH.with(|d| {
            let depth = d.get().saturating_sub(1);
            d.set(depth);
            depth
        });
        let start = self.start.expect("enabled spans carry a start instant");
        let start_ns = start.duration_since(shared.epoch).as_nanos() as u64;
        let record = SpanRecord {
            seq: self.seq,
            name: self.name,
            tid: TID.with(|t| *t),
            depth,
            start_ns,
            dur_ns: start.elapsed().as_nanos() as u64,
            fields: std::mem::take(&mut self.fields),
            closed_by_unwind: std::thread::panicking(),
        };
        shared.sink.record(Record::Span(record));
    }
}

/// Opens a span with inline fields:
/// `span!(ctx, "gp_solve", layer = name, perm_pair = 3u64)`.
#[macro_export]
macro_rules! span {
    ($ctx:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut guard = $ctx.span($name);
        $(guard.set(stringify!($key), $value);)*
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.enabled());
        let mut g = ctx.span("noop");
        assert!(!g.enabled());
        g.set("ignored", 1u64);
        drop(g);
        // Nothing to assert against — the point is no sink exists to panic.
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(sink.clone());
        {
            let _a = ctx.span("outer");
            {
                let mut b = ctx.span("inner");
                b.set("n", 7u64);
            }
        }
        let records = sink.take();
        assert_eq!(records.len(), 2);
        // Inner closes first, but `take` orders by seq: outer opened first.
        let outer = records[0].as_span().expect("span");
        let inner = records[1].as_span().expect("span");
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert!(outer.seq < inner.seq);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(inner.fields, vec![("n", FieldValue::U64(7))]);
        assert!(!inner.closed_by_unwind);
    }

    #[test]
    fn panic_still_closes_spans() {
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(sink.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = ctx.span("outer");
            let _inner = ctx.span("inner");
            panic!("stage blew up");
        }));
        assert!(result.is_err());
        let records = sink.take();
        assert_eq!(records.len(), 2);
        assert!(records
            .iter()
            .all(|r| r.as_span().expect("span").closed_by_unwind));
        // Depth bookkeeping recovered: a fresh span sits at depth 0 again.
        {
            let _g = ctx.span("after");
        }
        assert_eq!(sink.take()[0].as_span().expect("span").depth, 0);
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(CollectingSink::new());
        let b = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::fanout(vec![a.clone(), b.clone()]);
        {
            let _g = ctx.span("shared");
        }
        assert_eq!(a.take().len(), 1);
        assert_eq!(b.take().len(), 1);
        assert!(!TraceCtx::fanout(vec![]).enabled());
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _g = ctx.span("worker");
                });
            }
        });
        let records = sink.take();
        let tids: std::collections::HashSet<u64> = records
            .iter()
            .map(|r| r.as_span().expect("span").tid)
            .collect();
        assert_eq!(tids.len(), 2, "each thread records its own tid");
    }
}
