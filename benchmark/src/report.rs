//! The metric catalogue and the one result every workload fills in.
//!
//! Every workload prints every metric of the catalogue, so the two tables
//! below are the contract with `BENCHMARK.json`: end-to-end metrics with
//! tracing off, per-layer metrics with tracing on. A per-layer metric whose
//! layer a workload never runs (the serve tier in a batch workload, say)
//! reads 0 with 0 samples.

use std::collections::HashMap;
use std::fmt::Write as _;
use thistle_serve::Json;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("score_vs_golden", "ratio"),
];

/// `(name, unit)` of every per-layer metric; the prefix names the crate.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("core.solves", "count"),
    ("core.layer_ms", "ms"),
    ("core.perm_enum_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.integerize_ms", "ms"),
    ("core.rescore_ms", "ms"),
    ("core.pack_spatial_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.candidates", "count"),
    ("core.referee_calls", "count"),
    ("core.prefilter_ratio", "ratio"),
    ("core.gp_solves", "count"),
    ("core.newton_iterations", "count"),
    ("core.pipeline_unique_solves", "count"),
    ("core.pipeline_reused", "count"),
    ("core.winners_changed", "count"),
    ("timeloop-lite.evaluate_us", "us"),
    ("timeloop-lite.est_share", "ratio"),
    ("model.perm_enum_ms", "ms"),
    ("model.generate_ms", "ms"),
    ("gp.solve_ms", "ms"),
    ("gp.newton_iterations", "count"),
    ("gp.unique_contents", "count"),
    ("gp.dup_factor", "ratio"),
    ("gp.solve_failures", "count"),
    ("gp.warm_started", "count"),
    ("gp.warm_newton_saved_mean", "count"),
    ("serve.throughput_rps", "req/s"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.near_miss_p50_ms", "ms"),
    ("serve.near_miss_p95_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.probe_p90_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.parse_p50_ms", "ms"),
    ("serve.serialize_p50_ms", "ms"),
    ("serve.unattributed_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.coalesced", "count"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.lock_wait_p99_ms", "ms"),
    ("serve.fresh_solves", "count"),
    ("serve.near_miss_hits", "count"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("atlas.save_ms", "ms"),
    ("atlas.bytes", "bytes"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Failure messages printed before the result line; the rest are counted.
const SHOWN_FAILURES: usize = 20;

/// One run's measurements and verdicts.
#[derive(Debug, Default)]
pub struct Report {
    /// `name -> (value, samples behind it)`.
    values: HashMap<&'static str, (f64, usize)>,
    /// Operations attempted (layer solves, pipeline calls, requests).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
}

impl Report {
    /// Records `name` (which must be in a catalogue table).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Prints every metric of the chosen table as `name value unit n=N`,
    /// then the JSON result as the last line. Errors if an end-to-end
    /// metric was never measured.
    pub fn print(&self, per_layer: bool) -> Result<(), String> {
        let table: &[(&str, &str)] = if per_layer { &PER_LAYER } else { &END_TO_END };
        for why in self.failures.iter().take(SHOWN_FAILURES) {
            println!("FAILED {why}");
        }
        if self.failures.len() > SHOWN_FAILURES {
            println!("FAILED ... {} more", self.failures.len() - SHOWN_FAILURES);
        }
        let mut metrics = Vec::new();
        let mut text = String::new();
        for &(name, unit) in table {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if per_layer => (0.0, 0),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let _ = writeln!(text, "{name} {value} {unit} n={samples}");
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        print!("{text}");
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.emit());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn every_metric_is_declared_and_well_named() {
        for (table, list) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(ours, declared(list), "{list} differs from BENCHMARK.json");
            for (name, _) in &ours {
                assert!(valid_name(name), "bad metric name {name}");
            }
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
