//! Command-line interface to the Thistle optimizer and service.
//!
//! ```text
//! thistle-cli optimize --k 64 --c 64 --hw 56 --rs 3 [--stride 1] [--batch 1]
//!                      [--objective energy|delay|edp]
//!                      [--codesign | --pes 168 --regs 512 --sram-kb 128]
//!                      [--emit] [--fast]
//! thistle-cli pipeline --net resnet18|resnet18-blocks|yolo9000 [options]
//! thistle-cli report   --net resnet18|resnet18-blocks|yolo9000 [--json] [options]
//! thistle-cli mapper   --k 64 --c 64 --hw 56 --rs 3 [--trials 20000]
//! thistle-cli trace    <workload> [--out trace.json] [--jsonl spans.jsonl]
//! thistle-cli serve    [--addr 127.0.0.1:7878] [--workers 4] [--cache 256]
//!                      [--atlas atlas.bin] [--checkpoint-every 32]
//! ```
//!
//! Each subcommand refuses any `--option` it does not read.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use thistle::convert::to_problem_spec;
use thistle::{optimize_pipeline, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_obs::{export, CollectingSink, JsonlSink, Sink, TraceCtx};
use thistle_serve::{HttpOptions, HttpServer, Json, Service, ServiceOptions};
use thistle_workloads::{resnet18, resnet18_blocks, yolo9000};
use timeloop_lite::mapper::{Mapper, MapperOptions, SearchObjective};
use timeloop_lite::{emit, ArchSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  thistle-cli optimize --k <K> --c <C> --hw <HW> --rs <RS> [options]
  thistle-cli pipeline --net <resnet18|resnet18-blocks|yolo9000> [options]
  thistle-cli report   --net <resnet18|resnet18-blocks|yolo9000> [--json] [options]
  thistle-cli mapper   --k <K> --c <C> --hw <HW> --rs <RS> [--trials N]
  thistle-cli trace    <workload> [--out FILE] [--jsonl FILE] [options]
  thistle-cli serve    [--addr HOST:PORT] [--workers N] [--cache N] [--fast]

layer options:
  --k N           output channels        --c N        input channels
  --hw N          input image height/width (square)
  --rs N          kernel height/width (square)
  --stride N      kernel stride (default 1)
  --dilation N    kernel dilation (default 1)
  --batch N       batch size (default 1)

optimizer options:
  --objective energy|delay|edp   (default energy)
  --codesign                     co-design architecture at Eyeriss area
  --pes N --regs N --sram-kb N   fixed architecture (default Eyeriss)
  --emit                         print Timeloop-style YAML for the design
  --pseudocode                   print the tiled loop nest (Fig. 1(d) style)
  --fast                         reduced search budgets

report options:
  --json            machine-readable output: per-layer convergence rows plus
                    the pipeline rollup as one JSON document on stdout

trace options:
  <workload>        named layer: conv3x3, conv1x1, conv7x7, or conv4_2
  --out FILE        Chrome trace_event JSON (default trace.json); open in
                    Perfetto (https://ui.perfetto.dev) or chrome://tracing
  --jsonl FILE      also stream spans as JSON Lines

serve options:
  --addr HOST:PORT  listen address (default 127.0.0.1:7878; port 0 = ephemeral)
  --workers N       solver worker threads (default 4)
  --cache N         LRU design-point cache capacity (default 256)
  --atlas FILE      durable design-space atlas snapshot: warm-restart the
                    cache from FILE, checkpoint it on a solve cadence, and
                    save it on SIGTERM/SIGINT drain
  --checkpoint-every N  fresh solves between atlas checkpoints (default 32;
                    0 = save only on drain)
  --max-connections N  concurrent connections served (default 64); beyond
                    this, arrivals park in a bounded accept backlog
  --accept-backlog N   parked connections beyond the cap (default 128);
                    past both, arrivals get an immediate 503 + Retry-After
  --max-queue-depth N  the one hard cap on queued solves: a miss arriving
                    at this depth is shed with 503 (default 256; 0 = no cap)
  --queue-high N    queue depth entering brown-out: cold misses shed, cache
                    hits and near-miss solves served (default 64)
  --queue-low N     queue depth leaving brown-out (default 16; hysteresis)
  --fault-plan SPEC arm deterministic fault injection for chaos drills, e.g.
                    'serve.pool.panic@1' (requires a fault-inject build; also
                    read from THISTLE_FAULT_PLAN)";

/// Options [`parse_layer`] reads.
const LAYER: &[&str] = &[
    "--k",
    "--c",
    "--hw",
    "--rs",
    "--stride",
    "--dilation",
    "--batch",
];
/// Options [`parse_objective`] reads.
const OBJECTIVE: &[&str] = &["--objective"];
/// Options [`parse_mode`] reads.
const MODE: &[&str] = &["--codesign", "--pes", "--regs", "--sram-kb"];
/// Options [`make_optimizer`] reads.
const FAST: &[&str] = &["--fast"];
/// Options [`cmd_serve`] reads itself.
const SERVE: &[&str] = &[
    "--addr",
    "--workers",
    "--cache",
    "--atlas",
    "--checkpoint-every",
    "--max-connections",
    "--accept-backlog",
    "--max-queue-depth",
    "--queue-high",
    "--queue-low",
    "--fault-plan",
];

/// A tiny flag parser: `--name value` pairs plus boolean switches, limited
/// to the options the subcommand reads.
struct Args<'a> {
    argv: &'a [String],
    accepted: Vec<&'static str>,
}

impl<'a> Args<'a> {
    /// Refuses any `--option` outside `accepted`, so a misspelt or retired
    /// option stops the command instead of leaving a default in its place.
    fn new(argv: &'a [String], accepted: Vec<&'static str>) -> Result<Self, String> {
        match argv
            .iter()
            .find(|a| a.starts_with("--") && !accepted.contains(&a.as_str()))
        {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(Args { argv, accepted }),
        }
    }

    fn flag(&self, name: &str) -> bool {
        debug_assert!(self.accepted.contains(&name), "{name} is not accepted");
        self.argv.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        debug_assert!(self.accepted.contains(&name), "{name} is not accepted");
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {v}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parse(name)?
            .ok_or_else(|| format!("missing required option {name}"))
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err("no command given".into());
    };
    type Handler = fn(&Args) -> Result<(), String>;
    let (accepted, handler): (&[&[&str]], Handler) = match command.as_str() {
        "optimize" => (
            &[LAYER, OBJECTIVE, MODE, FAST, &["--emit", "--pseudocode"]],
            cmd_optimize,
        ),
        "pipeline" => (&[&["--net"], OBJECTIVE, MODE, FAST], cmd_pipeline),
        "report" => (&[&["--net", "--json"], OBJECTIVE, MODE, FAST], cmd_report),
        "mapper" => (&[LAYER, OBJECTIVE, MODE, &["--trials"]], cmd_mapper),
        "trace" => (&[&["--out", "--jsonl"], OBJECTIVE, MODE, FAST], cmd_trace),
        "serve" => (&[SERVE, FAST], cmd_serve),
        other => return Err(format!("unknown command: {other}")),
    };
    handler(&Args::new(&argv[1..], accepted.concat())?)
}

fn parse_layer(args: &Args) -> Result<ConvLayer, String> {
    let k: u64 = args.require("--k")?;
    let c: u64 = args.require("--c")?;
    let hw: u64 = args.require("--hw")?;
    let rs: u64 = args.require("--rs")?;
    let stride: u64 = args.parse("--stride")?.unwrap_or(1);
    let dilation: u64 = args.parse("--dilation")?.unwrap_or(1);
    let batch: u64 = args.parse("--batch")?.unwrap_or(1);
    ConvLayer::try_new("cli", batch, k, c, hw, hw, rs, rs, stride, dilation)
        .map_err(|e| e.to_string())
}

fn parse_objective(args: &Args) -> Result<Objective, String> {
    match args.value("--objective").unwrap_or("energy") {
        "energy" => Ok(Objective::Energy),
        "delay" => Ok(Objective::Delay),
        "edp" => Ok(Objective::EnergyDelayProduct),
        other => Err(format!("unknown objective: {other}")),
    }
}

fn parse_mode(args: &Args, tech: &TechnologyParams) -> Result<ArchMode, String> {
    if args.flag("--codesign") {
        return Ok(ArchMode::CoDesign(CoDesignSpec::same_area_as(
            &ArchConfig::eyeriss(),
            tech,
        )));
    }
    let base = ArchConfig::eyeriss();
    let pes: u64 = args.parse("--pes")?.unwrap_or(base.pe_count);
    let regs: u64 = args.parse("--regs")?.unwrap_or(base.regs_per_pe);
    let sram_kb: u64 = args.parse("--sram-kb")?.unwrap_or(128);
    Ok(ArchMode::Fixed(ArchConfig::new(
        pes,
        regs,
        sram_kb * 1024 * 8 / 16,
    )))
}

fn make_optimizer(args: &Args, tech: &TechnologyParams) -> Optimizer {
    let options = if args.flag("--fast") {
        OptimizerOptions {
            max_perm_pairs: 16,
            candidate_limit: 400,
            top_solutions: 2,
            ..OptimizerOptions::default()
        }
    } else {
        OptimizerOptions::default()
    };
    Optimizer::new(tech.clone()).with_options(options)
}

fn cmd_optimize(args: &Args) -> Result<(), String> {
    let tech = TechnologyParams::cgo2022_45nm();
    let layer = parse_layer(args)?;
    let objective = parse_objective(args)?;
    let mode = parse_mode(args, &tech)?;
    let optimizer = make_optimizer(args, &tech);

    let point = optimizer
        .optimize_layer(&layer, objective, &mode)
        .map_err(|e| e.to_string())?;
    println!(
        "layer {}: {:.1} MMACs, objective {objective}",
        layer.name,
        layer.macs() as f64 / 1e6
    );
    println!(
        "architecture: {} PEs, {} regs/PE, {} KB SRAM (area {:.3} mm^2)",
        point.arch.pe_count,
        point.arch.regs_per_pe,
        point.arch.sram_words * 2 / 1024,
        point.arch.area_um2(&tech) / 1e6
    );
    println!(
        "result: {:.3} pJ/MAC | {:.4e} cycles | IPC {:.1} | {} PEs used",
        point.eval.pj_per_mac, point.eval.cycles, point.eval.ipc, point.eval.pe_used
    );
    println!(
        "search: {} GPs solved, {} integer candidates refereed, relaxed bound {:.4e}",
        point.gp_solves, point.candidates_evaluated, point.relaxed_objective
    );
    if args.flag("--emit") {
        let prob = to_problem_spec(&layer.workload());
        let arch = ArchSpec::from_config("thistle", &point.arch, &tech, Bandwidths::default());
        println!("\n{}", emit::problem_yaml(&prob));
        println!("{}", emit::arch_yaml(&arch));
        println!("{}", emit::mapping_yaml(&prob, &point.mapping));
    }
    if args.flag("--pseudocode") {
        let prob = to_problem_spec(&layer.workload());
        println!(
            "\n{}",
            timeloop_lite::codegen::pseudocode(&prob, &point.mapping)
        );
    }
    Ok(())
}

fn cmd_pipeline(args: &Args) -> Result<(), String> {
    let tech = TechnologyParams::cgo2022_45nm();
    let layers = parse_net(args)?;
    let objective = parse_objective(args)?;
    let mode = parse_mode(args, &tech)?;
    let optimizer = make_optimizer(args, &tech);

    let result =
        optimize_pipeline(&optimizer, &layers, objective, &mode).map_err(|e| e.to_string())?;
    println!(
        "{:<14} {:>10} {:>12} {:>6}  architecture",
        "layer", "pJ/MAC", "cycles", "IPC"
    );
    for point in &result.layers {
        println!(
            "{:<14} {:>10.3} {:>12.3e} {:>6.1}  {} PE / {} reg / {} KB",
            point.workload_name,
            point.eval.pj_per_mac,
            point.eval.cycles,
            point.eval.ipc,
            point.arch.pe_count,
            point.arch.regs_per_pe,
            point.arch.sram_words * 2 / 1024,
        );
    }
    println!(
        "\n{} layers, {} unique solves ({} reused); pipeline total {:.4e}",
        result.stats.layers_submitted,
        result.stats.unique_solves,
        result.stats.reused,
        result.total(objective),
    );
    Ok(())
}

/// Shared `--net` resolution for `pipeline` and `report`.
fn parse_net(args: &Args) -> Result<Vec<ConvLayer>, String> {
    match args.value("--net") {
        Some("resnet18") => Ok(resnet18()),
        Some("resnet18-blocks") => Ok(resnet18_blocks()),
        Some("yolo9000") => Ok(yolo9000()),
        Some(other) => Err(format!("unknown network: {other}")),
        None => Err("missing required option --net".into()),
    }
}

/// Prints one solve-convergence row per layer of a network — the same
/// networks the Fig. 5/6/8 benchmarks optimize — plus the pipeline-wide
/// convergence rollup.
fn cmd_report(args: &Args) -> Result<(), String> {
    let tech = TechnologyParams::cgo2022_45nm();
    let layers = parse_net(args)?;
    let objective = parse_objective(args)?;
    let mode = parse_mode(args, &tech)?;
    let optimizer = make_optimizer(args, &tech);

    let result =
        optimize_pipeline(&optimizer, &layers, objective, &mode).map_err(|e| e.to_string())?;
    if args.flag("--json") {
        println!("{}", report_json(&result).emit());
        return Ok(());
    }
    println!(
        "{:<14} {:<9} {:>7} {:>7} {:>9} {:>10}",
        "layer", "status", "newton", "center", "recovery", "final gap"
    );
    for point in &result.layers {
        let r = &point.report;
        let final_gap = r
            .final_gap()
            .map_or_else(|| "-".to_string(), |g| format!("{g:.1e}"));
        println!(
            "{:<14} {:<9} {:>7} {:>7} {:>9} {:>10}",
            point.workload_name,
            r.status,
            r.newton_iterations,
            r.centering_steps(),
            r.recovered_by.as_deref().unwrap_or("-"),
            final_gap,
        );
    }
    let c = result.stats.convergence;
    println!(
        "\n{} layers, {} unique solves ({} reused)",
        result.stats.layers_submitted, result.stats.unique_solves, result.stats.reused
    );
    println!(
        "totals: {} Newton iterations over {} centering steps, \
         {} recovered solves, {} candidates prefiltered",
        c.newton_iterations, c.centering_steps, c.recovered_solves, c.prefiltered,
    );
    Ok(())
}

/// The `report --json` document: per-layer convergence rows plus the
/// pipeline rollup, in one machine-readable object (CI consumes this).
fn report_json(result: &thistle::pipeline::PipelineResult) -> Json {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let layers: Vec<Json> = result
        .layers
        .iter()
        .map(|point| {
            let r = &point.report;
            obj(vec![
                ("layer", Json::Str(point.workload_name.clone())),
                ("status", Json::Str(r.status.to_string())),
                ("newton_iterations", Json::Num(r.newton_iterations as f64)),
                ("centering_steps", Json::Num(r.centering_steps() as f64)),
                (
                    "recovered_by",
                    r.recovered_by
                        .as_deref()
                        .map_or(Json::Null, |s| Json::Str(s.to_string())),
                ),
                ("final_gap", r.final_gap().map_or(Json::Null, Json::Num)),
                ("pj_per_mac", Json::Num(point.eval.pj_per_mac)),
                ("cycles", Json::Num(point.eval.cycles)),
                ("ipc", Json::Num(point.eval.ipc)),
            ])
        })
        .collect();
    let c = result.stats.convergence;
    obj(vec![
        ("layers", Json::Arr(layers)),
        (
            "rollup",
            obj(vec![
                (
                    "layers_submitted",
                    Json::Num(result.stats.layers_submitted as f64),
                ),
                (
                    "unique_solves",
                    Json::Num(result.stats.unique_solves as f64),
                ),
                ("reused", Json::Num(result.stats.reused as f64)),
                ("newton_iterations", Json::Num(c.newton_iterations as f64)),
                ("centering_steps", Json::Num(c.centering_steps as f64)),
                ("recovered_solves", Json::Num(c.recovered_solves as f64)),
                ("prefiltered", Json::Num(c.prefiltered as f64)),
            ]),
        ),
    ])
}

fn cmd_mapper(args: &Args) -> Result<(), String> {
    let tech = TechnologyParams::cgo2022_45nm();
    let layer = parse_layer(args)?;
    let objective = match parse_objective(args)? {
        Objective::Energy => SearchObjective::Energy,
        Objective::Delay => SearchObjective::Delay,
        Objective::EnergyDelayProduct => {
            return Err("the mapper baseline supports energy and delay only".into())
        }
    };
    let ArchMode::Fixed(arch) = parse_mode(args, &tech)? else {
        return Err("the mapper searches a fixed architecture (drop --codesign)".into());
    };
    let trials: usize = args.parse("--trials")?.unwrap_or(20_000);

    let prob = to_problem_spec(&layer.workload());
    let arch_spec = ArchSpec::from_config("cli", &arch, &tech, Bandwidths::default());
    let result = Mapper::new(
        prob.clone(),
        arch_spec,
        MapperOptions {
            objective,
            max_trials: trials,
            victory_condition: trials / 5,
            threads: 8,
            seed: 1,
            time_limit: None,
        },
    )
    .search();
    let Some((mapping, eval)) = result.best else {
        return Err("no valid mapping found".into());
    };
    println!(
        "evaluated {} ({} valid): best {:.3} pJ/MAC, {:.4e} cycles, IPC {:.1}",
        result.evaluated, result.valid, eval.pj_per_mac, eval.cycles, eval.ipc
    );
    println!("\n{}", emit::mapping_yaml(&prob, &mapping));
    Ok(())
}

/// Named layers for `thistle-cli trace` — representative shapes so a trace
/// needs no `--k/--c/--hw` plumbing.
fn named_workload(name: &str) -> Option<ConvLayer> {
    match name {
        "conv3x3" => Some(ConvLayer::new("conv3x3", 1, 64, 64, 56, 56, 3, 3, 1)),
        "conv1x1" => Some(ConvLayer::new("conv1x1", 1, 128, 64, 28, 28, 1, 1, 1)),
        "conv7x7" => Some(ConvLayer::new("conv7x7", 1, 64, 3, 224, 224, 7, 7, 2)),
        "conv4_2" => Some(ConvLayer::new("conv4_2", 1, 256, 256, 14, 14, 3, 3, 1)),
        _ => None,
    }
}

/// Runs one traced solve and exports the spans as Chrome trace JSON.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let Some(name) = args.argv.first().filter(|a| !a.starts_with("--")) else {
        return Err("trace needs a workload name: conv3x3, conv1x1, conv7x7, or conv4_2".into());
    };
    let layer =
        named_workload(name).ok_or_else(|| format!("unknown workload {name} (try conv3x3)"))?;
    let tech = TechnologyParams::cgo2022_45nm();
    let objective = parse_objective(args)?;
    let mode = parse_mode(args, &tech)?;
    let optimizer = make_optimizer(args, &tech);
    let out = args.value("--out").unwrap_or("trace.json");

    let collector = Arc::new(CollectingSink::new());
    let mut sinks: Vec<Arc<dyn Sink>> = vec![Arc::clone(&collector) as Arc<dyn Sink>];
    if let Some(path) = args.value("--jsonl") {
        let jsonl = JsonlSink::create(std::path::Path::new(path))
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        sinks.push(Arc::new(jsonl));
    }
    let ctx = TraceCtx::fanout(sinks);

    let point = optimizer
        .optimize_layer_traced(&layer, objective, &mode, &ctx)
        .map_err(|e| e.to_string())?;
    let records = collector.take();
    std::fs::write(out, export::chrome_trace_json(&records))
        .map_err(|e| format!("cannot write {out}: {e}"))?;

    println!(
        "traced {name} ({objective}): {:.3} pJ/MAC, {} GP solves, {} candidates",
        point.eval.pj_per_mac, point.gp_solves, point.candidates_evaluated
    );
    // Per-span-name rollup so the hot phases are visible without opening
    // the trace.
    let mut by_name: Vec<(&str, u64, u64)> = Vec::new();
    for record in &records {
        if let Some(span) = record.as_span() {
            match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += span.dur_ns;
                }
                None => by_name.push((span.name, 1, span.dur_ns)),
            }
        }
    }
    by_name.sort_by_key(|&(_, _, total)| std::cmp::Reverse(total));
    println!("{:<20} {:>7} {:>12}", "span", "count", "total ms");
    for (name, count, total_ns) in &by_name {
        println!("{name:<20} {count:>7} {:>12.2}", *total_ns as f64 / 1e6);
    }
    println!(
        "{} records -> {out} (open in Perfetto or chrome://tracing)",
        records.len()
    );
    Ok(())
}

/// Set by the SIGTERM/SIGINT handler; `cmd_serve` polls it to begin the
/// graceful drain (stop accepting, finish in-flight requests, save the
/// atlas).
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    // Only async-signal-safe work here: set the flag, let the main loop act.
    SHUTDOWN_REQUESTED.store(true, Ordering::Release);
}

/// Routes SIGTERM and SIGINT to [`request_shutdown`] via the libc `signal`
/// entry point `std` already links, keeping the binary dependency-free.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = request_shutdown as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let tech = TechnologyParams::cgo2022_45nm();
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878");
    let workers: usize = args.parse("--workers")?.unwrap_or(4);
    let cache: usize = args.parse("--cache")?.unwrap_or(256);
    if workers == 0 || cache == 0 {
        return Err("--workers and --cache must be positive".into());
    }
    let atlas_path = args.value("--atlas").map(std::path::PathBuf::from);
    let checkpoint_every: u64 = args.parse("--checkpoint-every")?.unwrap_or(32);
    let defaults = ServiceOptions::default();
    let http_defaults = HttpOptions::default();
    let max_connections: usize = args
        .parse("--max-connections")?
        .unwrap_or(http_defaults.max_connections);
    let accept_backlog: usize = args
        .parse("--accept-backlog")?
        .unwrap_or(http_defaults.accept_backlog);
    let max_queue_depth: u64 = args
        .parse("--max-queue-depth")?
        .unwrap_or(defaults.max_queue_depth);
    let queue_high: u64 = args
        .parse("--queue-high")?
        .unwrap_or(defaults.queue_high_watermark);
    let queue_low: u64 = args
        .parse("--queue-low")?
        .unwrap_or(defaults.queue_low_watermark);
    if max_connections == 0 {
        return Err("--max-connections must be positive".into());
    }
    if queue_low > queue_high {
        return Err("--queue-low must not exceed --queue-high".into());
    }
    arm_fault_plan(args)?;
    let optimizer = make_optimizer(args, &tech);
    let service = Arc::new(Service::new(
        optimizer,
        ServiceOptions {
            workers,
            cache_capacity: cache,
            atlas_path: atlas_path.clone(),
            atlas_checkpoint_every: checkpoint_every,
            max_queue_depth,
            queue_high_watermark: queue_high,
            queue_low_watermark: queue_low,
            ..defaults
        },
    ));
    if let Some(path) = &atlas_path {
        let snap = service.metrics_snapshot();
        println!(
            "atlas: {} ({} entries restored, {} damaged records skipped)",
            path.display(),
            snap.atlas_restored_entries,
            snap.atlas_load_errors
        );
    }
    let server = HttpServer::start_with(
        Arc::clone(&service),
        addr,
        HttpOptions {
            max_connections,
            accept_backlog,
            ..http_defaults
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "thistle-serve listening on port {} ({workers} workers, cache capacity {cache}, \
         {max_connections} connections max + {accept_backlog} backlog, \
         queue cap {max_queue_depth} watermarks {queue_low}/{queue_high})",
        server.port()
    );
    println!(
        "endpoints: POST /optimize, GET /metrics, GET /healthz, \
         GET /debug/exemplars, GET /debug/solves, GET /debug/solves/<id>, \
         GET /debug/contention"
    );
    // Serve until SIGTERM/SIGINT; the accept loop lives in its own thread
    // and `server` must stay alive to keep it running.
    install_signal_handlers();
    while !SHUTDOWN_REQUESTED.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("signal received: draining connections");
    server.shutdown();
    // Belt and braces: snapshot explicitly (in case a stuck connection
    // thread still pins a Service reference), then release ours — if it is
    // the last, Drop saves again.
    let saved = service.save_atlas();
    drop(service);
    match saved {
        Ok(true) => println!("atlas saved; bye"),
        Ok(false) => println!("bye"),
        Err(e) => eprintln!("atlas save failed: {e}"),
    }
    Ok(())
}

/// Installs the fault plan from `--fault-plan` / `THISTLE_FAULT_PLAN` for
/// chaos drills, keeping it armed for the life of the process. Errors when a
/// plan is requested but the binary was built without `fault-inject` — a
/// silently inert chaos drill would be worse than a refusal.
fn arm_fault_plan(args: &Args) -> Result<(), String> {
    let env_spec = std::env::var("THISTLE_FAULT_PLAN").ok();
    let spec = match args.value("--fault-plan").or(env_spec.as_deref()) {
        Some(spec) if !spec.trim().is_empty() => spec.to_string(),
        _ => return Ok(()),
    };
    let plan = thistle_fault::FaultPlan::parse(&spec).map_err(|e| e.to_string())?;
    if !thistle_fault::enabled() {
        return Err("--fault-plan requires a fault-inject build \
             (cargo build --features fault-inject)"
            .into());
    }
    #[cfg(feature = "fault-inject")]
    {
        println!("fault plan armed: {} site(s) [{spec}]", plan.sites().len());
        // The plan stays installed until the process exits.
        std::mem::forget(plan.install());
    }
    #[cfg(not(feature = "fault-inject"))]
    let _ = plan;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    fn run_with(args: &[&str]) -> Result<(), String> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn serve_refuses_an_unread_option_before_binding() {
        // An address that can never bind: a command that got past the option
        // check would fail there instead, with a different error. Both are
        // retired flags.
        assert_eq!(
            run_with(&["serve", "--addr", "127.0.0.1:70000", "--timeseries", "m.ts"]),
            Err("unknown option --timeseries".to_string())
        );
        assert_eq!(
            run_with(&["serve", "--addr", "127.0.0.1:70000", "--pareto"]),
            Err("unknown option --pareto".to_string())
        );
    }

    #[test]
    fn optimize_refuses_a_misspelt_option_before_solving() {
        assert_eq!(
            run_with(&["optimize", "--k", "64", "--c", "64", "--hw", "56", "--rs", "3", "--fsat"]),
            Err("unknown option --fsat".to_string())
        );
    }
}
