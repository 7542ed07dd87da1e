//! The repository benchmark: a stage-level cost ledger of the Thistle
//! optimizer and its serve tier over four fixed workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1> \
//!     [--trace-out FILE] [--write-golden]
//! ```
//!
//! It prints every metric as `name value unit n=<samples>`, then one JSON
//! result line, and exits nonzero if any correctness check failed. See
//! README.md beside this crate for the workloads and metrics.

mod batch;
mod golden;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "codesign_energy",
    "codesign_delay",
    "eyeriss_pipeline",
    "serve_mix",
];

const USAGE: &str =
    "usage: benchmark --workload <codesign_energy|codesign_delay|eyeriss_pipeline|serve_mix> \
--seed <n> --seconds <n> --trace <0|1> [--trace-out FILE] [--write-golden]";

/// One run's settings.
pub struct Options {
    /// Orders the layers (batch workloads) or generates the request plan
    /// (`serve_mix`).
    pub seed: u64,
    /// Measurement budget; at least one full pass runs regardless.
    pub seconds: Duration,
    /// Per-layer run: an untraced pass, then a traced one plus replays.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// Rewrite the workload's golden winners from this run.
    pub write_golden: bool,
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut options = Options {
        seed: 1,
        seconds: Duration::from_secs(20),
        trace: false,
        trace_out: None,
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            options.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = Duration::from_secs(number()?),
            "--trace" => match value.as_str() {
                "0" => options.trace = false,
                "1" => options.trace = true,
                _ => return Err("--trace takes 0 or 1".into()),
            },
            "--trace-out" => options.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if workload == "serve_mix" {
        serve::run(&options)
    } else {
        batch::run(&workload, &options)
    };
    match result.and_then(|report| report.print(options.trace).map(|()| report)) {
        Ok(report) if report.failed == 0 => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
