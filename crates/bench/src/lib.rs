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
use thistle_obs::{export, CollectingSink, Sink, TraceCtx};
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

    /// A trace context recording into this capture. Take one per run:
    /// each context has its own epoch and sequence numbers.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx::new(Arc::clone(&self.sink) as Arc<dyn Sink>)
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
