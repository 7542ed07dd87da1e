//! End-to-end trace shape: a traced solve must emit a Chrome trace that
//! parses as JSON and contains the pipeline's phase spans, properly nested.

use std::sync::Arc;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_obs::{export, CollectingSink, Record, SpanRecord, TraceCtx};
use thistle_serve::Json;

fn traced_solve() -> Vec<Record> {
    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 300,
            top_solutions: 1,
            threads: 2,
            ..OptimizerOptions::default()
        });
    let sink = Arc::new(CollectingSink::new());
    let ctx = TraceCtx::new(Arc::clone(&sink) as Arc<dyn thistle_obs::Sink>);
    let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);
    optimizer
        .optimize_layer_traced(
            &layer,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
            &ctx,
        )
        .expect("solve succeeds");
    sink.take()
}

#[test]
fn traced_solve_emits_all_phase_spans_nested_under_the_root() {
    let records = traced_solve();
    let spans: Vec<_> = records.iter().filter_map(Record::as_span).collect();
    for phase in [
        "optimize_workload",
        "perm_enum",
        "level_classes",
        "gp_sweep",
        "phase_one",
        "gp_solve",
        "barrier_solve",
        "integerize",
        "rescore",
    ] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "missing span {phase}; got {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    // No span survived a panic, and the root covers the whole solve.
    assert!(spans.iter().all(|s| !s.closed_by_unwind));
    let root = spans
        .iter()
        .find(|s| s.name == "optimize_workload")
        .unwrap();
    assert_eq!(root.depth, 0);
    let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
    let within = |inner: &SpanRecord, outer: &SpanRecord| {
        inner.start_ns >= outer.start_ns
            && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    };
    for (name, parent) in [
        ("perm_enum", root),
        ("gp_sweep", root),
        ("phase_one", find("gp_sweep")),
        ("rescore", root),
    ] {
        let span = find(name);
        // Same thread as the root, strictly nested inside its parent.
        assert_eq!(span.tid, root.tid, "{name} on the root thread");
        assert!(
            span.depth > parent.depth,
            "{name} nested under {}",
            parent.name
        );
        assert!(within(span, parent), "{name} inside {}", parent.name);
    }
    // The cut keeps the one top solution and a content tied with it, so
    // rescore hands its two groups to workers; each `integerize` runs
    // inside it.
    let rescore = find("rescore");
    let integerize: Vec<_> = spans.iter().filter(|s| s.name == "integerize").collect();
    assert_eq!(integerize.len(), 2);
    for span in integerize {
        assert!(within(span, rescore), "integerize inside rescore");
    }
    // barrier_solve nests under gp_solve on its worker thread.
    let gp = spans.iter().find(|s| s.name == "gp_solve").unwrap();
    let barrier = spans
        .iter()
        .find(|s| s.name == "barrier_solve" && s.tid == gp.tid)
        .expect("a barrier_solve on a gp_solve thread");
    assert!(barrier.depth > gp.depth);
}

#[test]
fn chrome_export_parses_and_carries_the_phases() {
    let records = traced_solve();
    let text = export::chrome_trace_json(&records);
    let json = Json::parse(&text).expect("chrome trace is valid JSON");
    let events = match json.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(events.len(), records.len());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for phase in [
        "optimize_workload",
        "perm_enum",
        "gp_solve",
        "integerize",
        "rescore",
    ] {
        assert!(names.contains(&phase), "export missing {phase}");
    }
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event.get("dur").and_then(Json::as_f64).is_some());
        assert!(event.get("tid").and_then(Json::as_u64).is_some());
    }
}
