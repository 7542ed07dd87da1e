//! Record sinks: where closed spans go.
//!
//! * [`CollectingSink`] — an unbounded lock-free append log; drain it at the
//!   end of a run and hand the records to [`crate::export`].
//! * [`JsonlSink`] — streams one compact JSON object per record to a writer.
//! * [`FanoutSink`] — duplicates records to several sinks.

use crate::Record;
use std::io::Write;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Receives every closed span of a trace.
///
/// Implementations must be cheap and non-blocking relative to the stages
/// being traced: `record` runs inline on the instrumented thread.
pub trait Sink: Send + Sync {
    fn record(&self, record: Record);
}

/// A lock-free multi-producer append log (Treiber stack). Producers push
/// with a single CAS; `drain` detaches the whole list with one atomic swap.
struct AppendLog {
    head: AtomicPtr<LogNode>,
    len: AtomicUsize,
}

struct LogNode {
    record: Record,
    next: *mut LogNode,
}

impl AppendLog {
    const fn new() -> AppendLog {
        AppendLog {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    fn push(&self, record: Record) {
        let node = Box::into_raw(Box::new(LogNode {
            record,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is uniquely owned until the successful CAS
            // publishes it; rewriting its `next` pointer is unobservable.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Takes every record pushed so far, ordered by sequence number.
    fn drain(&self) -> Vec<Record> {
        let mut head = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !head.is_null() {
            // SAFETY: the swap above made this thread the sole owner of the
            // detached list; each node is boxed exactly once in `push`.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
            out.push(node.record);
        }
        self.len.fetch_sub(out.len(), Ordering::Relaxed);
        out.sort_by_key(Record::seq);
        out
    }
}

// SAFETY: the raw pointers form an intrusive list handed between threads
// only through atomic operations; `Record` itself is `Send`.
unsafe impl Send for AppendLog {}
unsafe impl Sync for AppendLog {}

impl Drop for AppendLog {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Unbounded in-memory sink on a lock-free append log.
pub struct CollectingSink {
    log: AppendLog,
}

impl Default for CollectingSink {
    fn default() -> CollectingSink {
        CollectingSink::new()
    }
}

impl CollectingSink {
    pub fn new() -> CollectingSink {
        CollectingSink {
            log: AppendLog::new(),
        }
    }

    /// Records collected so far.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes all records, ordered by sequence number (parents before the
    /// children they opened).
    pub fn take(&self) -> Vec<Record> {
        self.log.drain()
    }
}

impl Sink for CollectingSink {
    fn record(&self, record: Record) {
        self.log.push(record);
    }
}

/// Streams records as JSON Lines to any writer (typically a file).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    pub fn new(writer: impl Write + Send + 'static) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// Creates (truncating) `path` and streams records into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }

    pub fn flush(&self) -> std::io::Result<()> {
        self.writer().flush()
    }

    /// Locks the writer, recovering from poisoning: a panic on an
    /// instrumented thread (which unwinds through `SpanGuard::drop` and thus
    /// through `record`) must not turn every later write — or the flush in
    /// our own `Drop`, which would abort via double panic — into a panic.
    fn writer(&self) -> std::sync::MutexGuard<'_, Box<dyn Write + Send>> {
        self.out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Sink for JsonlSink {
    fn record(&self, record: Record) {
        let line = crate::export::jsonl_line(&record);
        let mut out = self.writer();
        // A full disk mid-trace must not take the optimizer down with it.
        let _ = writeln!(out, "{line}");
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Duplicates every record to each wrapped sink, in order.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl FanoutSink {
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl Sink for FanoutSink {
    fn record(&self, record: Record) {
        let Some((last, rest)) = self.sinks.split_last() else {
            return;
        };
        for sink in rest {
            sink.record(record.clone());
        }
        last.record(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, SpanRecord};

    fn span(seq: u64) -> Record {
        Record::Span(SpanRecord {
            seq,
            name: "s",
            tid: 1,
            depth: 0,
            start_ns: seq * 10,
            dur_ns: 5,
            fields: vec![("seq", FieldValue::U64(seq))],
            closed_by_unwind: false,
        })
    }

    #[test]
    fn collecting_sink_orders_by_seq() {
        let sink = CollectingSink::new();
        for seq in [3, 1, 2, 0] {
            sink.record(span(seq));
        }
        assert_eq!(sink.len(), 4);
        let seqs: Vec<u64> = sink.take().iter().map(Record::seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert!(sink.is_empty());
    }

    #[test]
    fn collecting_sink_is_safe_under_contention() {
        let sink = Arc::new(CollectingSink::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..250 {
                        sink.record(span(t * 1000 + i));
                    }
                });
            }
        });
        let records = sink.take();
        assert_eq!(records.len(), 1000);
        let mut seqs: Vec<u64> = records.iter().map(Record::seq).collect();
        let sorted = seqs.clone();
        seqs.sort_unstable();
        assert_eq!(seqs, sorted, "drain returns seq order");
    }

    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let buffer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = JsonlSink::new(Shared(Arc::clone(&buffer)));
        sink.record(span(0));
        sink.record(span(1));
        sink.flush().expect("flush");
        let text = String::from_utf8(buffer.lock().expect("buffer").clone()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn jsonl_sink_flushes_buffered_lines_on_drop() {
        let buffer = Arc::new(Mutex::new(Vec::<u8>::new()));
        {
            // A BufWriter holds lines back until flushed; dropping the sink
            // without an explicit flush() must still surface them.
            let sink = JsonlSink::new(std::io::BufWriter::with_capacity(
                64 * 1024,
                Shared(Arc::clone(&buffer)),
            ));
            sink.record(span(0));
            sink.record(span(1));
            assert_eq!(
                buffer.lock().expect("buffer").len(),
                0,
                "lines should still be buffered before drop"
            );
        }
        let text = String::from_utf8(buffer.lock().expect("buffer").clone()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn jsonl_sink_survives_a_poisoned_writer_lock() {
        let buffer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = Arc::new(JsonlSink::new(Shared(Arc::clone(&buffer))));
        // Poison the writer mutex by panicking while holding it.
        let poisoner = Arc::clone(&sink);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.out.lock().expect("fresh lock");
            panic!("poison the lock");
        })
        .join();
        // Recording and flushing must keep working afterwards.
        sink.record(span(7));
        sink.flush().expect("flush after poison");
        let text = String::from_utf8(buffer.lock().expect("buffer").clone()).expect("utf8");
        assert_eq!(text.lines().count(), 1);
    }
}
