//! Determinism of the parallel integerize→rescore phase.
//!
//! Workers claim content groups of relaxed solutions off a shared counter
//! and the caller folds each member's outcome in solution order, so the
//! whole `DesignPoint` — arch, mapping, referee evaluation, report, ledger
//! and candidate count — must be identical at any thread count: clean, in
//! delay mode (bounded leaders, the score floor and spatial packing), and
//! with any single solution panicking.

use std::sync::Arc;
use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_obs::{CollectingSink, FieldValue, Record, SpanRecord, TraceCtx};

/// Relaxed solutions rescored per solve: enough for every worker to claim
/// several.
const TOP_SOLUTIONS: usize = 6;

fn layer() -> ConvLayer {
    ConvLayer::new("rescore_det", 1, 16, 16, 18, 18, 3, 3, 1)
}

fn fixed_mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

fn codesign_mode() -> ArchMode {
    ArchMode::CoDesign(CoDesignSpec::same_area_as(
        &ArchConfig::eyeriss(),
        &TechnologyParams::cgo2022_45nm(),
    ))
}

fn optimizer(threads: usize) -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 9,
        candidate_limit: 300,
        top_solutions: TOP_SOLUTIONS,
        threads,
        ..OptimizerOptions::default()
    })
}

fn solve(threads: usize, objective: Objective, mode: &ArchMode) -> DesignPoint {
    optimizer(threads)
        .optimize_layer(&layer(), objective, mode)
        .expect("solve succeeds")
}

/// Whole-point equality, plus the referee's floats bit for bit (`==` would
/// let `-0.0` match `0.0`).
fn assert_identical(a: &DesignPoint, b: &DesignPoint, context: &str) {
    assert_eq!(a, b, "{context}");
    let bits = |p: &DesignPoint| {
        [
            p.eval.energy_pj,
            p.eval.cycles,
            p.eval.utilization,
            p.eval.pj_per_mac,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(a), bits(b), "{context}: eval bits");
}

fn assert_thread_count_invariant(objective: Objective, mode: &ArchMode) -> DesignPoint {
    #[cfg(feature = "fault-inject")]
    let _guard = thistle_fault::FaultPlan::new().install();
    let serial = solve(1, objective, mode);
    assert!(serial.candidates_evaluated > 0);
    for threads in [2, 4] {
        let parallel = solve(threads, objective, mode);
        assert_identical(
            &serial,
            &parallel,
            &format!("{objective} threads={threads}"),
        );
    }
    serial
}

#[test]
fn fixed_arch_energy_is_thread_count_invariant() {
    assert_thread_count_invariant(Objective::Energy, &fixed_mode());
}

#[test]
fn codesign_energy_is_thread_count_invariant() {
    let point = assert_thread_count_invariant(Objective::Energy, &codesign_mode());
    // The area filter ran: the co-designed arch fits the Eyeriss budget.
    let tech = TechnologyParams::cgo2022_45nm();
    assert!(point.arch.area_um2(&tech) <= ArchConfig::eyeriss().area_um2(&tech));
}

#[test]
fn codesign_delay_is_thread_count_invariant() {
    assert_thread_count_invariant(Objective::Delay, &codesign_mode());
}

/// Fixed-Eyeriss delay is where the score floor settles the most
/// candidates; each member's threshold is its own, so what it prunes does
/// not depend on which worker rescored which group.
#[test]
fn fixed_arch_delay_is_thread_count_invariant() {
    assert_thread_count_invariant(Objective::Delay, &fixed_mode());
}

fn field_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

fn field_f64(span: &SpanRecord, key: &str) -> Option<f64> {
    span.fields.iter().find_map(|(k, v)| match v {
        FieldValue::F64(x) if *k == key => Some(*x),
        _ => None,
    })
}

/// The `members` field of every `integerize` span, one span per content
/// group, in solution order.
fn integerize_members(spans: &[SpanRecord]) -> Vec<u64> {
    let mut groups: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "integerize")
        .map(|s| {
            (
                field_u64(s, "solution").unwrap(),
                field_u64(s, "members").unwrap(),
            )
        })
        .collect();
    groups.sort_unstable();
    groups.into_iter().map(|(_, members)| members).collect()
}

/// The member counts of the contents the top-`top` cut keeps, from the
/// sweep's `batch_solve` spans, in objective order: every content whose
/// relaxed objective is at most the `top`-th solution's times
/// `1 + gap_tolerance`. A content's members share one objective, so the
/// cut never splits a content.
fn kept_contents(spans: &[SpanRecord], top: usize) -> Vec<u64> {
    let mut contents: Vec<(f64, u64)> = spans
        .iter()
        .filter(|s| s.name == "batch_solve")
        .map(|s| {
            (
                field_f64(s, "objective").unwrap(),
                field_u64(s, "members").unwrap(),
            )
        })
        .collect();
    contents.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0;
    let (cut, _) = contents
        .iter()
        .find(|(_, members)| {
            seen += members;
            seen >= top as u64
        })
        .expect("more solutions than the cut keeps");
    let tie = cut * (1.0 + OptimizerOptions::default().solve_options.gap_tolerance);
    contents
        .iter()
        .take_while(|(objective, _)| *objective <= tie)
        .map(|&(_, members)| members)
        .collect()
}

/// A traced solve: the point and every span it recorded.
fn traced_solve(
    optimizer: &Optimizer,
    objective: Objective,
    mode: &ArchMode,
) -> (DesignPoint, Vec<SpanRecord>) {
    #[cfg(feature = "fault-inject")]
    let _guard = thistle_fault::FaultPlan::new().install();
    let sink = Arc::new(CollectingSink::new());
    let ctx = TraceCtx::new(Arc::clone(&sink) as Arc<dyn thistle_obs::Sink>);
    let point = optimizer
        .optimize_layer_traced(&layer(), objective, mode, &ctx)
        .expect("solve succeeds");
    let spans = sink
        .take()
        .iter()
        .filter_map(Record::as_span)
        .cloned()
        .collect();
    (point, spans)
}

/// With one architecture choice per tile combination, a content group of
/// one counts traffic once per candidate the referee accepts (`evaluated`
/// minus `rejected_infeasible`). A larger group counts once per loop-order
/// class, so its duplicates share counts. The
/// full solve holds a duplicate group; its best two solutions do not. Each
/// cut keeps whole contents: its `top_solutions`, and the solutions tied
/// with the last of them (a tied seventh at six).
#[test]
fn fixed_arch_counts_traffic_once_per_loop_order_class() {
    for (top_solutions, duplicates) in [(TOP_SOLUTIONS, true), (2, false)] {
        let opt = optimizer(4).with_options(OptimizerOptions {
            top_solutions,
            ..optimizer(4).options().clone()
        });
        let (_, spans) = traced_solve(&opt, Objective::Energy, &fixed_mode());
        let members = integerize_members(&spans);
        assert_eq!(members, kept_contents(&spans, top_solutions));
        assert!(members.iter().sum::<u64>() >= top_solutions as u64);
        assert_eq!(members.iter().any(|&m| m > 1), duplicates, "{members:?}");

        let rescore = spans.iter().find(|s| s.name == "rescore").unwrap();
        let evaluated = field_u64(rescore, "evaluated").unwrap();
        let rejected = field_u64(rescore, "rejected_infeasible").unwrap();
        assert!(evaluated > rejected);
        let accepted = evaluated - rejected;
        let traffic_counts = field_u64(rescore, "traffic_counts").unwrap();
        if duplicates {
            assert!(
                traffic_counts < accepted,
                "{traffic_counts} traffic counts for {accepted} accepted candidates"
            );
        } else {
            assert_eq!(traffic_counts, accepted);
        }
    }
}

/// One `rescore` span per solve, on the solve thread, carrying the layer
/// totals; one `integerize` span per distinct GP content among the top
/// solutions; a delay solve hands its leaders to `pack_spatial`, and the
/// candidate count is exactly what the two spans report. Co-design's
/// architecture choices share each combination's traffic count.
#[test]
fn rescore_span_carries_the_solve_totals() {
    let (point, spans) = traced_solve(&optimizer(4), Objective::Delay, &codesign_mode());
    let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();

    let root = named("optimize_workload")[0];
    let rescore = named("rescore");
    assert_eq!(rescore.len(), 1, "one rescore span per solve");
    let rescore = rescore[0];
    assert_eq!(rescore.tid, root.tid, "rescore runs on the solve thread");

    // Each `batch_solve` span is one distinct content of the sweep, with its
    // relaxed objective and member count. The kept solutions are the lowest
    // objectives and their ties, so they hold the first contents in
    // objective order, each whole.
    let expected = kept_contents(&spans, TOP_SOLUTIONS);
    let solutions: u64 = expected.iter().sum();
    assert!(solutions >= TOP_SOLUTIONS as u64);
    assert_eq!(field_u64(rescore, "solutions"), Some(solutions));
    assert!(
        (expected.len() as u64) < solutions,
        "a duplicate among the top"
    );
    assert_eq!(integerize_members(&spans), expected);

    let pack = named("pack_spatial");
    assert_eq!(pack.len(), 1, "delay mode packs its leaders");
    let leaders = field_u64(pack[0], "leaders").unwrap();
    assert!((1..=24).contains(&leaders), "leaders {leaders}");
    let evaluated = field_u64(rescore, "evaluated").unwrap();
    let repacked = field_u64(pack[0], "repacked").unwrap();
    assert_eq!(point.candidates_evaluated as u64, evaluated + repacked);
    assert_eq!(
        Some(point.report.prefiltered),
        field_u64(rescore, "prefiltered")
    );
    let referee_calls = evaluated - point.report.prefiltered;
    let traffic_counts = field_u64(rescore, "traffic_counts").unwrap();
    assert!(
        (1..referee_calls).contains(&traffic_counts),
        "{traffic_counts} traffic counts for {referee_calls} referee calls"
    );
}

/// A panicking solution contributes nothing: whichever solution panics, the
/// answer is the same at one thread and at four, and the ledger counts
/// exactly one panic.
#[cfg(feature = "fault-inject")]
#[test]
fn integerize_panic_on_any_solution_is_thread_count_invariant() {
    use thistle_fault::FaultPlan;
    for objective in [Objective::Energy, Objective::Delay] {
        for k in 0..TOP_SOLUTIONS {
            let plan = format!("core.integerize.panic={k}");
            let run = |threads: usize| {
                let _guard = FaultPlan::parse(&plan).unwrap().install();
                solve(threads, objective, &codesign_mode())
            };
            let serial = run(1);
            let context = format!("{objective} {plan}");
            assert_eq!(serial.ledger.integerize_panics, 1, "{context}");
            assert!(serial.degraded, "{context}");
            assert_identical(&serial, &run(4), &context);
        }
    }
}
