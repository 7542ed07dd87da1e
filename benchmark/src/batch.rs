//! The three batch workloads: per-layer co-design under each objective, and
//! whole-network pipelines on fixed Eyeriss.

use crate::golden::{self, Winner, Winners};
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace::{Capture, Trace, STAGES};
use crate::verify::check_design;
use crate::Options;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use thistle::convert::to_problem_spec;
use thistle::pipeline::{optimize_pipeline_traced, PipelineStats};
use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_gp::content_fingerprint;
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, ProblemGenerator};
use thistle_obs::{span, TraceCtx};
use timeloop_lite::{evaluate, ArchSpec, Mapping};

/// Optimizer threads: one per core of the two-core reference box.
pub const THREADS: usize = 2;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUPS: usize = 3;

/// Referee calls timed per winner for `timeloop-lite.evaluate_us`.
const EVALUATE_REPEATS: u32 = 1000;

pub fn optimizer(threads: usize) -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        threads,
        ..Default::default()
    })
}

/// The co-design mode of the paper's figures: Eyeriss-equal chip area.
pub fn codesign_mode() -> ArchMode {
    ArchMode::CoDesign(CoDesignSpec::same_area_as(
        &ArchConfig::eyeriss(),
        &TechnologyParams::cgo2022_45nm(),
    ))
}

/// A shape outside every workload: its solve warms code, caches and the
/// allocator without answering anything the measurement asks.
pub fn warmup_layer() -> ConvLayer {
    ConvLayer::new("warmup", 1, 96, 48, 20, 20, 3, 3, 1)
}

pub fn objective_name(objective: Objective) -> &'static str {
    match objective {
        Objective::Energy => "energy",
        Objective::Delay => "delay",
        Objective::EnergyDelayProduct => "edp",
    }
}

/// One unit of batch work.
enum Item {
    Layer(Objective, ConvLayer),
    Pipeline(Objective, Vec<ConvLayer>),
}

/// A batch workload: the items of one pass, in seed order.
struct Batch {
    name: &'static str,
    mode: ArchMode,
    items: Vec<Item>,
}

/// What one item call returned: every layer's design, and the pipeline's
/// sharing stats when the item was a pipeline.
struct Outcome {
    designs: Vec<(String, ConvLayer, Objective, DesignPoint)>,
    stats: Option<PipelineStats>,
}

impl Batch {
    fn codesign(name: &'static str, objective: Objective, seed: u64) -> Batch {
        let mut layers = thistle_workloads::resnet18();
        layers.extend(thistle_workloads::yolo9000());
        Rng::new(seed).shuffle(&mut layers);
        Batch {
            name,
            mode: codesign_mode(),
            items: layers
                .into_iter()
                .map(|l| Item::Layer(objective, l))
                .collect(),
        }
    }

    fn eyeriss_pipeline(seed: u64) -> Batch {
        let mut rng = Rng::new(seed);
        let mut items = Vec::new();
        for objective in [Objective::Energy, Objective::Delay] {
            for mut net in [
                thistle_workloads::resnet18_blocks(),
                thistle_workloads::yolo9000(),
            ] {
                rng.shuffle(&mut net);
                items.push(Item::Pipeline(objective, net));
            }
        }
        // The paper runs energy, then delay; the seed orders the layers
        // within each network.
        Batch {
            name: "eyeriss_pipeline",
            mode: ArchMode::Fixed(ArchConfig::eyeriss()),
            items,
        }
    }

    fn run_item(&self, opt: &Optimizer, item: &Item, ctx: &TraceCtx) -> Result<Outcome, String> {
        match item {
            Item::Layer(objective, layer) => {
                let _s = span!(ctx, "bench.layer", layer = layer.name.as_str());
                let point = opt
                    .optimize_layer_traced(layer, *objective, &self.mode, ctx)
                    .map_err(|e| format!("{}: {e}", layer.name))?;
                Ok(Outcome {
                    designs: vec![(layer.name.clone(), layer.clone(), *objective, point)],
                    stats: None,
                })
            }
            Item::Pipeline(objective, layers) => {
                let _s = span!(ctx, "bench.pipeline", layers = layers.len());
                let result = optimize_pipeline_traced(opt, layers, *objective, &self.mode, ctx)
                    .map_err(|e| format!("pipeline: {e}"))?;
                let tag = objective_name(*objective);
                Ok(Outcome {
                    designs: layers
                        .iter()
                        .zip(result.layers)
                        .map(|(l, p)| (format!("{tag}/{}", l.name), l.clone(), *objective, p))
                        .collect(),
                    stats: Some(result.stats),
                })
            }
        }
    }

    /// Builds an optimizer and runs one untimed warm-up solve of the
    /// workload's kind; returns the optimizer and how long that took.
    fn setup(&self) -> Result<(Optimizer, f64), String> {
        let started = Instant::now();
        let opt = optimizer(THREADS);
        let warmup = match &self.items[0] {
            Item::Layer(objective, _) => Item::Layer(*objective, warmup_layer()),
            Item::Pipeline(objective, _) => Item::Pipeline(*objective, vec![warmup_layer()]),
        };
        self.run_item(&opt, &warmup, &TraceCtx::disabled())
            .map_err(|e| format!("warm-up solve failed: {e}"))?;
        Ok((opt, started.elapsed().as_secs_f64()))
    }
}

/// Item timings and first-pass outcomes of one measurement.
struct Measured {
    /// Milliseconds per call, per item.
    samples: Vec<Vec<f64>>,
    /// The first call's outcome per item (`None` if it failed).
    first: Vec<Option<Outcome>>,
}

impl Measured {
    /// Time for one pass: the sum of each item's median call.
    fn pass_s(&self) -> f64 {
        self.samples
            .iter()
            .filter_map(|s| stats::median(s))
            .sum::<f64>()
            / 1e3
    }

    fn winners(&self) -> Winners {
        let mut winners = BTreeMap::new();
        for outcome in self.first.iter().flatten() {
            for (key, _, objective, point) in &outcome.designs {
                winners.insert(
                    key.clone(),
                    Winner::new(point.score(*objective), &point.arch, &point.mapping),
                );
            }
        }
        winners
    }

    fn designs(&self) -> impl Iterator<Item = &(String, ConvLayer, Objective, DesignPoint)> {
        self.first.iter().flatten().flat_map(|o| &o.designs)
    }
}

/// Runs one full pass of `batch` under each of `ctxs`, then keeps cycling
/// through its items while the next item is expected to finish inside
/// `budget`. An item runs under every context back to back, alternating
/// which goes first, so host drift hits each context alike. Every call is
/// checked; repeats must reproduce the first call's designs bit for bit.
fn measure(
    batch: &Batch,
    opt: &Optimizer,
    budget: Duration,
    ctxs: &[&TraceCtx],
    report: &mut Report,
) -> Vec<Measured> {
    let n = batch.items.len();
    let mut ms: Vec<Measured> = ctxs
        .iter()
        .map(|_| Measured {
            samples: vec![Vec::new(); n],
            first: (0..n).map(|_| None).collect(),
        })
        .collect();
    let started = Instant::now();
    for call in 0.. {
        let i = call % n;
        if call >= n {
            let expected: f64 = ms.iter().filter_map(|m| stats::median(&m.samples[i])).sum();
            if started.elapsed().as_secs_f64() + expected / 1e3 > budget.as_secs_f64() {
                break;
            }
        }
        for turn in 0..ctxs.len() {
            let k = if call % 2 == 0 {
                turn
            } else {
                ctxs.len() - 1 - turn
            };
            let m = &mut ms[k];
            report.attempted += 1;
            let t = Instant::now();
            let outcome = batch.run_item(opt, &batch.items[i], ctxs[k]);
            m.samples[i].push(t.elapsed().as_secs_f64() * 1e3);
            let outcome = match outcome.and_then(|o| check_outcome(batch, opt, &o).map(|()| o)) {
                Ok(o) => o,
                Err(why) => {
                    report.fail(why);
                    continue;
                }
            };
            match &m.first[i] {
                None => m.first[i] = Some(outcome),
                Some(first) => {
                    let same = first.designs.len() == outcome.designs.len()
                        && first
                            .designs
                            .iter()
                            .zip(&outcome.designs)
                            .all(|(a, b)| a.3 == b.3);
                    if !same {
                        report.fail(format!(
                            "{}: a repeated call changed its designs",
                            batch.name
                        ));
                    }
                }
            }
        }
    }
    ms
}

/// Re-evaluates every design with the referee (bit-equal `eval`) and checks
/// its factors and architecture.
fn check_outcome(batch: &Batch, opt: &Optimizer, outcome: &Outcome) -> Result<(), String> {
    for (key, layer, _, point) in &outcome.designs {
        let eval = check_design(
            layer,
            &batch.mode,
            &point.arch,
            &point.mapping,
            opt.tech(),
            opt.bandwidths(),
        )?;
        if eval != point.eval {
            return Err(format!(
                "{key}: referee re-evaluation differs from the returned eval"
            ));
        }
    }
    Ok(())
}

pub fn run(workload: &str, options: &Options) -> Result<Report, String> {
    let batch = match workload {
        "codesign_energy" => Batch::codesign("codesign_energy", Objective::Energy, options.seed),
        "codesign_delay" => Batch::codesign("codesign_delay", Objective::Delay, options.seed),
        _ => Batch::eyeriss_pipeline(options.seed),
    };
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut opt = None;
    for _ in 0..SETUPS {
        let (o, secs) = batch.setup()?;
        setups.push(secs);
        opt = Some(o);
    }
    let opt = opt.expect("at least one set-up");
    report.set(
        "setup_s",
        stats::median(&setups).expect("set-ups ran"),
        setups.len(),
    );

    // A traced run makes one pass, calling each item untraced and traced
    // (the untraced calls are the overhead baseline). One pass keeps the
    // per-layer counts exact: every item is traced exactly once.
    let capture = options.trace.then(Capture::new);
    let disabled = TraceCtx::disabled();
    let mut ctxs = vec![&disabled];
    ctxs.extend(capture.as_ref().map(|c| &c.ctx));
    let budget = if options.trace {
        Duration::ZERO
    } else {
        options.seconds
    };
    let mut passes = measure(&batch, &opt, budget, &ctxs, &mut report);
    let untraced = passes.remove(0);
    report.set("wall_s", untraced.pass_s(), batch.items.len());

    let winners = untraced.winners();
    if options.write_golden {
        let path = golden::write(batch.name, &winners).map_err(|e| e.to_string())?;
        eprintln!("golden: {} winners -> {path}", winners.len());
    }
    let (ratio, changed) = golden::compare(&golden::load(batch.name)?, &winners);
    report.set("score_vs_golden", ratio, winners.len());
    report.set("core.winners_changed", changed as f64, winners.len());

    if let (Some(capture), Some(traced)) = (capture, passes.pop()) {
        per_layer(
            &batch,
            &opt,
            &untraced,
            &traced,
            &capture,
            options,
            &mut report,
        )?;
    }
    Ok(report)
}

/// The per-layer metrics: stage attribution from the traced pass, plus the
/// bench-side replays.
fn per_layer(
    batch: &Batch,
    opt: &Optimizer,
    untraced: &Measured,
    traced: &Measured,
    capture: &Capture,
    options: &Options,
    report: &mut Report,
) -> Result<(), String> {
    if traced.winners() != untraced.winners() {
        report.fail(format!("{}: tracing changed a winner", batch.name));
    }
    report.set(
        "obs.trace_overhead_frac",
        traced.pass_s() / untraced.pass_s() - 1.0,
        batch.items.len(),
    );
    let pipeline: Vec<PipelineStats> = traced
        .first
        .iter()
        .flatten()
        .filter_map(|o| o.stats)
        .collect();
    if !pipeline.is_empty() {
        let sum = |f: fn(&PipelineStats) -> usize| pipeline.iter().map(f).sum::<usize>() as f64;
        report.set(
            "core.pipeline_unique_solves",
            sum(|s| s.unique_solves),
            pipeline.len(),
        );
        report.set("core.pipeline_reused", sum(|s| s.reused), pipeline.len());
    }

    // Winner Newton iterations, once per fresh solve: a pipeline reports
    // its unique solves' total, a layer item its own winner.
    let (newton, solves) = if pipeline.is_empty() {
        let points: Vec<&DesignPoint> = untraced.designs().map(|d| &d.3).collect();
        let total: usize = points.iter().map(|p| p.report.newton_iterations).sum();
        (total as f64, points.len())
    } else {
        let total: u64 = pipeline
            .iter()
            .map(|s| s.convergence.newton_iterations)
            .sum();
        (total as f64, pipeline.iter().map(|s| s.unique_solves).sum())
    };
    report.set(
        "core.newton_iterations",
        newton / solves.max(1) as f64,
        solves,
    );

    // Distinct (objective, shape) layers, each replayed once.
    let mut distinct = BTreeMap::new();
    for (_, l, objective, point) in untraced.designs() {
        let shape = (
            objective_name(*objective),
            [
                l.batch,
                l.out_channels,
                l.in_channels,
                l.in_h,
                l.in_w,
                l.kernel_h,
                l.kernel_w,
                l.stride,
            ],
        );
        distinct.entry(shape).or_insert_with(|| {
            (
                l.clone(),
                *objective,
                batch.mode.clone(),
                point.arch,
                point.mapping.clone(),
            )
        });
    }
    let replay: Vec<_> = distinct.into_values().collect();
    replay_layers(opt, &replay, &capture.ctx, report);
    finish_trace(capture, options, report)
}

/// Attributes the captured solves stage by stage, and writes the Chrome
/// trace if one was asked for.
pub fn finish_trace(
    capture: &Capture,
    options: &Options,
    report: &mut Report,
) -> Result<(), String> {
    let records = capture.take();
    stage_metrics(&Trace::new(&records), report);
    referee_share(report);
    if let Some(path) = &options.trace_out {
        std::fs::write(path, thistle_obs::export::chrome_trace_json(&records))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {} records -> {}", records.len(), path.display());
    }
    Ok(())
}

/// The metric of each entry of [`STAGES`].
const STAGE_METRICS: [&str; STAGES.len()] = [
    "core.perm_enum_ms",
    "core.sweep_ms",
    "core.integerize_ms",
    "core.rescore_ms",
    "core.pack_spatial_ms",
];

/// Per-solve stage attribution from the optimizer's own spans.
fn stage_metrics(trace: &Trace, report: &mut Report) {
    let solves = trace.solves();
    let n = solves.len();
    report.set("core.solves", n as f64, n);
    if n == 0 {
        return;
    }
    let mean_ms = |f: &dyn Fn(&crate::trace::SolveSpans) -> u64| {
        solves.iter().map(f).sum::<u64>() as f64 / n as f64 / 1e6
    };
    report.set("core.layer_ms", mean_ms(&|s| s.wall_ns), n);
    for (s, name) in STAGE_METRICS.into_iter().enumerate() {
        report.set(name, mean_ms(&|x| x.stage_ns[s]), n);
    }
    report.set("core.unattributed_ms", mean_ms(&|s| s.self_ns), n);
    let count =
        |f: &dyn Fn(&crate::trace::SolveSpans) -> u64| solves.iter().map(f).sum::<u64>() as f64;
    let candidates = count(&|s| s.candidates);
    let prefiltered = count(&|s| s.prefiltered);
    report.set("core.candidates", candidates / n as f64, n);
    report.set(
        "core.referee_calls",
        (candidates - prefiltered) / n as f64,
        n,
    );
    report.set("core.prefilter_ratio", prefiltered / candidates.max(1.0), n);
    report.set("core.gp_solves", count(&|s| s.gp_solves) / n as f64, n);
    report.set("gp.warm_started", count(&|s| u64::from(s.warm_started)), n);
}

/// Replays the model and GP layers of each distinct layer single-threaded
/// (`model.*`, `gp.*`) and times the referee on each winner
/// (`timeloop-lite.*`).
pub fn replay_layers(
    opt: &Optimizer,
    layers: &[(ConvLayer, Objective, ArchMode, ArchConfig, Mapping)],
    ctx: &TraceCtx,
    report: &mut Report,
) {
    let options = opt.options();
    let (mut perm_ms, mut generate_ms, mut solve_ms) = (0.0, 0.0, 0.0);
    let (mut generated, mut unique, mut newton, mut failures) = (0usize, 0usize, 0usize, 0usize);
    let mut evaluate_us = Vec::new();
    for (layer, objective, mode, arch, mapping) in layers {
        let generator = ProblemGenerator::new(
            layer.workload(),
            opt.tech().clone(),
            opt.bandwidths().clone(),
        )
        .with_register_cost(options.register_cost)
        .with_spatial_stencils(options.spatial_stencils);
        let t = Instant::now();
        let pairs = generator.permutation_classes();
        perm_ms += t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let gps: Vec<_> = {
            let _s = span!(
                ctx,
                "bench.generate",
                layer = layer.name.as_str(),
                pairs = pairs.len()
            );
            pairs
                .iter()
                .filter_map(|(p1, p3)| generator.generate(p1, p3, *objective, mode).ok())
                .collect()
        };
        generate_ms += t.elapsed().as_secs_f64() * 1e3;
        generated += gps.len();

        let mut seen = std::collections::HashSet::new();
        for gp in gps
            .iter()
            .filter(|gp| seen.insert(content_fingerprint(&gp.problem)))
        {
            unique += 1;
            let _s = span!(ctx, "bench.solve", layer = layer.name.as_str());
            let t = Instant::now();
            match gp.problem.solve(&options.solve_options) {
                Ok(sol) => newton += sol.newton_iterations,
                Err(_) => failures += 1,
            }
            solve_ms += t.elapsed().as_secs_f64() * 1e3;
        }

        let prob = to_problem_spec(&layer.workload());
        let spec = ArchSpec::from_config("winner", arch, opt.tech(), opt.bandwidths().clone());
        let _s = span!(
            ctx,
            "bench.evaluate",
            layer = layer.name.as_str(),
            calls = EVALUATE_REPEATS
        );
        let t = Instant::now();
        for _ in 0..EVALUATE_REPEATS {
            let _ = black_box(evaluate(
                black_box(&prob),
                black_box(&spec),
                black_box(mapping),
            ));
        }
        evaluate_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(EVALUATE_REPEATS));
    }
    let n = layers.len().max(1) as f64;
    report.set("model.perm_enum_ms", perm_ms / n, layers.len());
    report.set("model.generate_ms", generate_ms / n, layers.len());
    report.set("gp.solve_ms", solve_ms / unique.max(1) as f64, unique);
    report.set(
        "gp.newton_iterations",
        newton as f64 / unique.max(1) as f64,
        unique,
    );
    report.set("gp.unique_contents", unique as f64 / n, layers.len());
    report.set(
        "gp.dup_factor",
        generated as f64 / unique.max(1) as f64,
        generated,
    );
    report.set("gp.solve_failures", failures as f64, unique);
    let per_call = stats::median(&evaluate_us).unwrap_or(0.0);
    report.set("timeloop-lite.evaluate_us", per_call, evaluate_us.len());
}

/// `timeloop-lite.est_share`: the referee's estimated share of rescore time
/// (referee calls x per-call cost / rescore time, per solve).
fn referee_share(report: &mut Report) {
    let get = |name| report.get(name).unwrap_or(0.0);
    let (calls, per_call_us, rescore_ms) = (
        get("core.referee_calls"),
        get("timeloop-lite.evaluate_us"),
        get("core.rescore_ms"),
    );
    if rescore_ms > 0.0 {
        let solves = get("core.solves") as usize;
        report.set(
            "timeloop-lite.est_share",
            calls * per_call_us / (rescore_ms * 1e3),
            solves,
        );
    }
}
