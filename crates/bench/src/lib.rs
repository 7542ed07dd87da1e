//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see EXPERIMENTS.md at the workspace root for the index and
//! recorded outputs). This library provides the common pieces: the standard
//! optimizer configuration, the Timeloop-Mapper-style baseline, and plain
//! fixed-width table printing.
//!
//! Set `THISTLE_FAST=1` to shrink search budgets (used by smoke tests); the
//! full runs are the defaults.

use std::path::PathBuf;
use std::sync::Arc;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_model::ConvLayer;
use thistle_obs::{export, CollectingSink, ExemplarSink, Profiler, Sink};
use thistle_serve::{Service, ServiceOptions};
use thistle_workloads::{resnet18, yolo9000};
use timeloop_lite::mapper::{Mapper, MapperOptions, SearchObjective};
use timeloop_lite::{ArchSpec, EvalResult};

/// Whether fast (smoke-test) budgets were requested via `THISTLE_FAST`.
pub fn fast_mode() -> bool {
    std::env::var("THISTLE_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The standard technology parameters (Table III).
pub fn tech() -> TechnologyParams {
    TechnologyParams::cgo2022_45nm()
}

/// The optimizer configuration used for all figures.
pub fn standard_optimizer() -> Optimizer {
    let options = if fast_mode() {
        OptimizerOptions {
            max_perm_pairs: 16,
            candidate_limit: 400,
            top_solutions: 1,
            threads: 8,
            ..OptimizerOptions::default()
        }
    } else {
        OptimizerOptions {
            threads: 8,
            ..OptimizerOptions::default()
        }
    };
    Optimizer::new(tech()).with_options(options)
}

/// The standard optimizer behind the serving layer: figure binaries batch
/// their pipelines through this so repeated shapes (within a figure and
/// across its phases) resolve to one cached solve.
pub fn standard_service() -> Service {
    standard_service_traced(None)
}

/// [`standard_service`], optionally capturing a Chrome trace of every solve
/// (the `--trace` flag of the figure binaries).
pub fn standard_service_traced(trace: Option<&TraceCapture>) -> Service {
    standard_service_observed(trace, None)
}

/// [`standard_service_traced`] plus optional sweep-pair exemplar capture
/// (the `--exemplars` flag of the figure binaries).
pub fn standard_service_observed(
    trace: Option<&TraceCapture>,
    exemplars: Option<&ExemplarCapture>,
) -> Service {
    let mut options = ServiceOptions {
        workers: 8,
        cache_capacity: 1024,
        default_timeout: std::time::Duration::from_secs(3600),
        ..ServiceOptions::default()
    };
    if let Some(trace) = trace {
        options.trace_sinks.push(trace.sink());
    }
    if let Some(exemplars) = exemplars {
        options.trace_sinks.push(exemplars.sink());
    }
    Service::new(standard_optimizer(), options)
}

/// Span capture behind the figure binaries' `--trace [--trace-out FILE]`
/// flags: collects every span the run emits and writes one Chrome
/// trace_event file at the end (open in Perfetto or chrome://tracing).
pub struct TraceCapture {
    sink: Arc<CollectingSink>,
    out: PathBuf,
}

impl TraceCapture {
    /// Reads the process argv; `None` unless `--trace` was passed.
    /// `--trace-out FILE` overrides `default_out`.
    pub fn from_args(default_out: &str) -> Option<TraceCapture> {
        let argv: Vec<String> = std::env::args().collect();
        if !argv.iter().any(|a| a == "--trace") {
            return None;
        }
        let out = argv
            .iter()
            .position(|a| a == "--trace-out")
            .and_then(|i| argv.get(i + 1))
            .map_or_else(|| PathBuf::from(default_out), PathBuf::from);
        Some(TraceCapture {
            sink: Arc::new(CollectingSink::new()),
            out,
        })
    }

    /// The sink to hand to [`ServiceOptions::trace_sinks`].
    pub fn sink(&self) -> Arc<dyn Sink> {
        Arc::clone(&self.sink) as Arc<dyn Sink>
    }

    /// Drains the captured spans into the Chrome trace file.
    pub fn finish(self) {
        let records = self.sink.take();
        match std::fs::write(&self.out, export::chrome_trace_json(&records)) {
            Ok(()) => println!(
                "\ntrace: {} records -> {}",
                records.len(),
                self.out.display()
            ),
            Err(e) => eprintln!("\ntrace: cannot write {}: {e}", self.out.display()),
        }
    }
}

/// Tail-sampled capture of the slowest *sweep pairs* behind the figure
/// binaries' `--exemplars [--exemplars-out FILE]` flags.
///
/// The serve tier already tail-samples served requests (trigger span
/// `request`); a figure run is one process optimizing dozens of layers, so
/// the interesting unit is the per-permutation-pair `gp_solve` span inside
/// each sweep, or the `batch_solve` span around it that covers a whole group
/// of duplicate pairs. This sink retains the slowest (or failed) of either
/// across the whole run and writes the single worst one as a Chrome trace
/// for triage.
pub struct ExemplarCapture {
    sink: Arc<ExemplarSink>,
    out: PathBuf,
}

impl ExemplarCapture {
    /// Records buffered around each trigger span. A sweep closes many
    /// `barrier_solve`/`gp_solve` spans between pair completions; the ring
    /// must be deep enough that a slow pair's children are still resident
    /// when the pair closes.
    const BUFFER_RECORDS: usize = 8_192;
    /// Slowest pairs retained across the run.
    const MAX_EXEMPLARS: usize = 8;

    /// Reads the process argv; `None` unless `--exemplars` was passed.
    /// `--exemplars-out FILE` overrides `default_out`.
    pub fn from_args(default_out: &str) -> Option<ExemplarCapture> {
        let argv: Vec<String> = std::env::args().collect();
        if !argv.iter().any(|a| a == "--exemplars") {
            return None;
        }
        let out = argv
            .iter()
            .position(|a| a == "--exemplars-out")
            .and_then(|i| argv.get(i + 1))
            .map_or_else(|| PathBuf::from(default_out), PathBuf::from);
        Some(ExemplarCapture {
            sink: Arc::new(ExemplarSink::with_triggers(
                &["gp_solve", "batch_solve"],
                Self::BUFFER_RECORDS,
                Self::MAX_EXEMPLARS,
            )),
            out,
        })
    }

    /// The sink to hand to [`ServiceOptions::trace_sinks`].
    pub fn sink(&self) -> Arc<dyn Sink> {
        Arc::clone(&self.sink) as Arc<dyn Sink>
    }

    /// Prints the retained sweep-pair rollup and writes the slowest pair's
    /// full span tree as a Chrome trace file.
    pub fn finish(self) {
        let exemplars = self.sink.exemplars();
        if exemplars.is_empty() {
            println!("\nexemplars: no sweep pairs retained (all solves cached?)");
            return;
        }
        println!(
            "\nexemplars: slowest sweep pairs (of {} retained)",
            exemplars.len()
        );
        let rows: Vec<Vec<String>> = exemplars
            .iter()
            .map(|e| {
                vec![
                    format!("#{}", e.id),
                    e.trigger.to_string(),
                    e.class.name().to_string(),
                    format!("{:.2}", e.dur_ns as f64 / 1e6),
                    e.records.len().to_string(),
                ]
            })
            .collect();
        print_table(&["pair", "span", "class", "ms", "records"], &rows);
        let worst = &exemplars[0];
        match std::fs::write(&self.out, worst.chrome_trace_json()) {
            Ok(()) => println!(
                "worst pair #{} ({:.2} ms) -> {}",
                worst.id,
                worst.dur_ns as f64 / 1e6,
                self.out.display()
            ),
            Err(e) => eprintln!("exemplars: cannot write {}: {e}", self.out.display()),
        }
    }
}

/// Span-stack sampling profile behind the figure binaries' `--profile
/// [--profile-out FILE]` flags: samples every worker thread's live span
/// stack for the whole run and writes a collapsed-stack file plus a
/// self-contained SVG flamegraph next to it (DESIGN.md §13).
pub struct ProfileCapture {
    profiler: Profiler,
    out: PathBuf,
    title: String,
}

impl ProfileCapture {
    /// Sampling rate. Prime, so the sampler does not phase-lock with
    /// periodic work; ~200 Hz keeps a full fig5 run well under the 3%
    /// overhead budget while still resolving short `gp_solve` spans.
    const HZ: u32 = 199;

    /// Reads the process argv; `None` unless `--profile` was passed.
    /// `--profile-out FILE` overrides `default_out`. Sampling starts
    /// immediately.
    pub fn from_args(default_out: &str, title: &str) -> Option<ProfileCapture> {
        let argv: Vec<String> = std::env::args().collect();
        if !argv.iter().any(|a| a == "--profile") {
            return None;
        }
        let out = argv
            .iter()
            .position(|a| a == "--profile-out")
            .and_then(|i| argv.get(i + 1))
            .map_or_else(|| PathBuf::from(default_out), PathBuf::from);
        Some(ProfileCapture {
            profiler: Profiler::start(Self::HZ),
            out,
            title: title.to_string(),
        })
    }

    /// Stops sampling, prints the hottest leaf spans, and writes the
    /// collapsed-stack file plus the `.svg` flamegraph beside it.
    pub fn finish(self) {
        let profile = self.profiler.stop();
        println!(
            "\nprofile: {} samples over {:.1}s at {} Hz ({} torn)",
            profile.samples,
            profile.wall.as_secs_f64(),
            profile.hz,
            profile.torn,
        );
        if profile.is_empty() {
            println!("profile: no stacks captured; nothing written");
            return;
        }
        let rows: Vec<Vec<String>> = profile
            .hot_leaves()
            .into_iter()
            .take(8)
            .map(|(leaf, count)| {
                let share = 100.0 * count as f64 / profile.samples.max(1) as f64;
                vec![leaf, count.to_string(), format!("{share:.1}%")]
            })
            .collect();
        print_table(&["leaf span", "samples", "share"], &rows);
        match std::fs::write(&self.out, profile.collapsed()) {
            Ok(()) => println!(
                "profile: {} stacks -> {}",
                profile.len(),
                self.out.display()
            ),
            Err(e) => eprintln!("profile: cannot write {}: {e}", self.out.display()),
        }
        let svg_out = self.out.with_extension("svg");
        match std::fs::write(&svg_out, profile.flamegraph_svg(&self.title)) {
            Ok(()) => println!("profile: flamegraph -> {}", svg_out.display()),
            Err(e) => eprintln!("profile: cannot write {}: {e}", svg_out.display()),
        }
    }
}

/// Prints how much solve sharing a figure run got out of the service cache.
pub fn print_service_sharing(service: &Service) {
    let m = service.metrics().snapshot();
    println!(
        "\nservice: {} requests, {} cache hits ({:.0}%), {} coalesced, {} solves cached",
        m.requests,
        m.cache_hits,
        m.cache_hit_rate() * 100.0,
        m.coalesced,
        service.cache_len(),
    );
}

/// The evaluation layer set: `(pipeline, layer)` pairs in Table II order.
pub fn all_layers() -> Vec<(&'static str, ConvLayer)> {
    let mut out: Vec<(&'static str, ConvLayer)> = Vec::new();
    for l in resnet18() {
        out.push(("resnet18", l));
    }
    for l in yolo9000() {
        out.push(("yolo9000", l));
    }
    out
}

/// Runs the Timeloop-Mapper-style random search baseline for one layer on a
/// fixed architecture.
pub fn mapper_baseline(
    layer: &ConvLayer,
    arch: &ArchConfig,
    objective: SearchObjective,
) -> Option<EvalResult> {
    let prob = thistle::convert::to_problem_spec(&layer.workload());
    let arch_spec = ArchSpec::from_config("baseline", arch, &tech(), Bandwidths::default());
    let (max_trials, victory) = if fast_mode() {
        (2_000, 800)
    } else {
        // The paper raises Timeloop Mapper's budgets well above defaults; we
        // scale to our model's speed.
        (60_000, 8_000)
    };
    let opts = MapperOptions {
        objective,
        max_trials,
        victory_condition: victory,
        threads: 8,
        seed: 0x0071_571e,
        time_limit: None,
    };
    Mapper::new(prob, arch_spec, opts)
        .search()
        .best
        .map(|(_, r)| r)
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", padded.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Geometric mean of a slice (0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn layer_set_covers_both_pipelines() {
        let layers = all_layers();
        assert_eq!(layers.len(), 12 + 11);
        assert!(layers.iter().any(|(p, _)| *p == "resnet18"));
        assert!(layers.iter().any(|(p, _)| *p == "yolo9000"));
    }
}
