//! Acceptance test for the span-stack sampling profiler (DESIGN.md §13)
//! over a real optimization run: profiling a service solving ResNet-18
//! layers must yield folded stacks whose frames name real pipeline spans —
//! not synthetic markers — and a well-formed SVG flamegraph.

use std::sync::Arc;
use std::time::Duration;
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_obs::Profiler;
use thistle_repro::thistle::{Optimizer, OptimizerOptions};
use thistle_repro::thistle_serve::{Service, ServiceOptions};

#[test]
fn profiled_service_run_names_real_pipeline_spans() {
    // Sample fast (prime hz, so the sampler does not phase-lock with the
    // solver's own periodic work) so even a quick-budget solve is covered.
    let profiler = Profiler::start(997);

    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 200,
            top_solutions: 1,
            threads: 2,
            ..OptimizerOptions::default()
        });
    let service = Arc::new(Service::new(
        optimizer,
        ServiceOptions {
            workers: 2,
            cache_capacity: 16,
            default_timeout: Duration::from_secs(600),
            ..ServiceOptions::default()
        },
    ));
    let layers: Vec<ConvLayer> = vec![
        ConvLayer::new("resnet_2", 1, 64, 64, 56, 56, 3, 3, 1),
        ConvLayer::new("resnet_12", 1, 512, 512, 7, 7, 3, 3, 1),
    ];
    service
        .optimize_batch(
            &layers,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )
        .expect("profiled batch solve");
    drop(service);

    let profile = profiler.stop();
    assert!(profile.samples > 0, "sampler saw no live span stacks");
    assert!(!profile.is_empty(), "no folded stacks collapsed");

    // The hot frames are the solver's own spans: the GP sweep and barrier
    // solver dominate any real optimization run.
    let collapsed = profile.collapsed();
    assert!(
        collapsed
            .lines()
            .any(|l| l.contains("gp_solve") || l.contains("barrier_solve")),
        "no solver span sampled:\n{collapsed}"
    );
    // Stacks are stacks, not flat leaves: at least one sampled path nests
    // (e.g. `request;...;gp_solve;barrier_solve`).
    assert!(
        collapsed.lines().any(|l| l.contains(';')),
        "no nested span stack sampled:\n{collapsed}"
    );
    // Every sampled frame is a real pipeline span name.
    let known = [
        "request",
        "cache_lookup",
        "pool_solve",
        "optimize_workload",
        "optimize_near_miss",
        "pipeline",
        "perm_enum",
        "level_classes",
        "gp_sweep",
        "batch_solve",
        "gp_solve",
        "expr_compile",
        "barrier_solve",
        "integerize",
        "pack_spatial",
        "rescore",
        "tl_evaluate",
    ];
    for line in collapsed.lines() {
        let path = line.rsplit_once(' ').map_or(line, |(p, _)| p);
        for frame in path.split(';') {
            assert!(
                known.contains(&frame),
                "unknown frame {frame:?} in sampled stack {path:?}"
            );
        }
    }

    // The flamegraph self-renders: one SVG document labelling the hot spans.
    let svg = profile.flamegraph_svg("profiler_pipeline acceptance");
    assert!(svg.starts_with("<svg"), "not an SVG document");
    assert!(svg.ends_with("</svg>\n") || svg.ends_with("</svg>"));
    let (hottest, _) = &profile.hot_leaves()[0];
    assert!(
        svg.contains(hottest.as_str()),
        "hottest leaf {hottest} unlabelled in the flamegraph"
    );
}
