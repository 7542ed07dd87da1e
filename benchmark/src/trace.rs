//! Self times and per-solve stage attribution from one in-memory trace.
//!
//! The benchmark records its own `bench.*` spans around every public call
//! it makes; the optimizer's stage spans (`perm_enum`, `gp_sweep`,
//! `integerize`, `rescore`, `pack_spatial`) land in the same sink. Nothing
//! here adds a span inside the program.

use std::sync::Arc;
use thistle_obs::{CollectingSink, FieldValue, Record, SpanRecord, TraceCtx};

/// Root spans of one fresh optimizer solve (cold sweep or near-miss warm
/// start); their direct children on the same thread are the stages.
pub const SOLVE_ROOTS: [&str; 2] = ["optimize_workload", "optimize_near_miss"];

/// The stages a solve's wall time is attributed to.
pub const STAGES: [&str; 5] = [
    "perm_enum",
    "gp_sweep",
    "integerize",
    "rescore",
    "pack_spatial",
];

/// A sink plus the context that records into it.
pub struct Capture {
    sink: Arc<CollectingSink>,
    pub ctx: TraceCtx,
}

impl Capture {
    pub fn new() -> Capture {
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(sink.clone());
        Capture { sink, ctx }
    }

    /// The sink, for a service's `trace_sinks`.
    pub fn sink(&self) -> Arc<dyn thistle_obs::Sink> {
        self.sink.clone()
    }

    /// Drains every record collected so far.
    pub fn take(&self) -> Vec<Record> {
        self.sink.take()
    }
}

/// A span tree rebuilt from closed span records: each span's parent is the
/// span open one level up on the same thread when it opened.
pub struct Trace {
    spans: Vec<SpanRecord>,
    children: Vec<Vec<usize>>,
}

impl Trace {
    pub fn new(records: &[Record]) -> Trace {
        let mut spans: Vec<SpanRecord> = records
            .iter()
            .filter_map(Record::as_span)
            .cloned()
            .collect();
        // Open order per thread: a span's ancestors precede it.
        spans.sort_by_key(|s| (s.tid, s.seq));
        let mut children = vec![Vec::new(); spans.len()];
        // open[d] = the most recent span opened at depth d on this thread.
        let mut open: Vec<usize> = Vec::new();
        let mut tid = None;
        for (i, span) in spans.iter().enumerate() {
            if tid != Some(span.tid) {
                tid = Some(span.tid);
                open.clear();
            }
            let depth = span.depth as usize;
            open.truncate(depth);
            if depth > 0 && open.len() == depth {
                let parent = open[depth - 1];
                let p = &spans[parent];
                // Records from a sink that missed the parent leave a stale
                // slot; only a containing interval is a real parent.
                if p.start_ns <= span.start_ns
                    && span.start_ns + span.dur_ns <= p.start_ns + p.dur_ns
                {
                    children[parent].push(i);
                }
            }
            if open.len() == depth {
                open.push(i);
            }
        }
        Trace { spans, children }
    }

    /// Duration minus the time covered by direct children on its thread.
    pub fn self_ns(&self, i: usize) -> u64 {
        let covered: u64 = self.children[i].iter().map(|&c| self.spans[c].dur_ns).sum();
        self.spans[i].dur_ns.saturating_sub(covered)
    }

    /// Every fresh solve in the trace, attributed stage by stage.
    pub fn solves(&self) -> Vec<SolveSpans> {
        (0..self.spans.len())
            .filter(|&i| SOLVE_ROOTS.contains(&self.spans[i].name))
            .map(|root| {
                let mut stage_ns = [0u64; STAGES.len()];
                let (mut evaluated, mut prefiltered, mut gp_solves) = (0u64, 0u64, 0u64);
                for &c in &self.children[root] {
                    let child = &self.spans[c];
                    if let Some(s) = STAGES.iter().position(|&n| n == child.name) {
                        stage_ns[s] += child.dur_ns;
                    }
                    match child.name {
                        "rescore" => {
                            evaluated += field_u64(child, "evaluated");
                            prefiltered += field_u64(child, "prefiltered");
                        }
                        // Packed leaders each cost one more referee call.
                        "pack_spatial" => evaluated += field_u64(child, "repacked"),
                        "gp_sweep" => gp_solves += field_u64(child, "solved"),
                        _ => {}
                    }
                }
                let span = &self.spans[root];
                let warm = span.name == "optimize_near_miss";
                SolveSpans {
                    wall_ns: span.dur_ns,
                    self_ns: self.self_ns(root),
                    stage_ns,
                    candidates: evaluated,
                    prefiltered,
                    gp_solves: if warm { 1 } else { gp_solves },
                    warm_started: warm && field_bool(span, "warm_started"),
                }
            })
            .collect()
    }
}

/// One fresh solve's attribution.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpans {
    pub wall_ns: u64,
    /// Root time no stage span covers.
    pub self_ns: u64,
    /// Inclusive time per entry of [`STAGES`].
    pub stage_ns: [u64; STAGES.len()],
    pub candidates: u64,
    pub prefiltered: u64,
    pub gp_solves: u64,
    pub warm_started: bool,
}

fn field_u64(span: &SpanRecord, key: &str) -> u64 {
    span.fields
        .iter()
        .find_map(|(k, v)| match v {
            FieldValue::U64(x) if *k == key => Some(*x),
            _ => None,
        })
        .unwrap_or(0)
}

fn field_bool(span: &SpanRecord, key: &str) -> bool {
    span.fields
        .iter()
        .any(|(k, v)| *k == key && *v == FieldValue::Bool(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use thistle_obs::span;

    #[test]
    fn self_time_excludes_same_thread_children() {
        let capture = Capture::new();
        {
            let _root = span!(capture.ctx, "optimize_workload");
            {
                let _s = span!(
                    capture.ctx,
                    "rescore",
                    evaluated = 10u64,
                    prefiltered = 4u64
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _other = span!(capture.ctx, "gp_solve");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        }
        let trace = Trace::new(&capture.take());
        let solves = trace.solves();
        assert_eq!(solves.len(), 1);
        let solve = solves[0];
        assert_eq!((solve.candidates, solve.prefiltered), (10, 4));
        let rescore = solve.stage_ns[3];
        assert!(rescore >= 2_000_000);
        // The other thread's span is no child: it stays in the root's self.
        assert_eq!(solve.self_ns + rescore, solve.wall_ns);
        assert!(solve.self_ns >= 2_000_000);
    }
}
