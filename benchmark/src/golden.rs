//! Committed reference winners per workload, and the drift against them.
//!
//! A golden file maps an item key (layer, pipeline slot, or served cold
//! query) to the winning design's objective score and a canonical rendering
//! of its architecture and mapping. Later changes may improve winners, so
//! drift is a count plus a score ratio, not a failure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use thistle_arch::ArchConfig;
use thistle_serve::Json;
use timeloop_lite::Mapping;

/// One item's winner.
#[derive(Debug, Clone, PartialEq)]
pub struct Winner {
    /// The objective's score (pJ for energy, cycles for delay).
    pub score: f64,
    /// Canonical architecture + mapping rendering.
    pub design: String,
}

impl Winner {
    pub fn new(score: f64, arch: &ArchConfig, m: &Mapping) -> Winner {
        let mut design = format!(
            "P{} R{} S{}",
            arch.pe_count, arch.regs_per_pe, arch.sram_words
        );
        for (tag, v) in [
            ("reg", &m.register_factors),
            ("pe", &m.pe_temporal_factors),
            ("sp", &m.spatial_factors),
            ("out", &m.outer_factors),
        ] {
            let _ = write!(design, " {tag}{v:?}");
        }
        let _ = write!(design, " p1{:?} p3{:?}", m.pe_temporal_perm, m.outer_perm);
        Winner { score, design }
    }
}

/// Winners keyed by item; sorted, so every fold over them repeats exactly.
pub type Winners = BTreeMap<String, Winner>;

fn committed(workload: &str) -> &'static str {
    match workload {
        "codesign_energy" => include_str!("../golden/codesign_energy.json"),
        "codesign_delay" => include_str!("../golden/codesign_delay.json"),
        "eyeriss_pipeline" => include_str!("../golden/eyeriss_pipeline.json"),
        "serve_mix" => include_str!("../golden/serve_mix.json"),
        other => panic!("no golden file for workload {other}"),
    }
}

/// The committed winners of `workload`.
pub fn load(workload: &str) -> Result<Winners, String> {
    let json = Json::parse(committed(workload)).map_err(|e| format!("golden {workload}: {e}"))?;
    let Json::Obj(entries) = json else {
        return Err(format!("golden {workload}: not an object"));
    };
    entries
        .into_iter()
        .map(|(key, entry)| {
            let score = entry.get("score").and_then(Json::as_f64);
            let design = entry.get("design").and_then(Json::as_str);
            match (score, design) {
                (Some(score), Some(design)) => Ok((
                    key,
                    Winner {
                        score,
                        design: design.to_string(),
                    },
                )),
                _ => Err(format!("golden {workload}: malformed entry {key}")),
            }
        })
        .collect()
}

/// `(geomean of score / golden score, winners that differ or are missing)`
/// over the golden items.
pub fn compare(golden: &Winners, winners: &Winners) -> (f64, usize) {
    let mut ratios = Vec::new();
    let mut changed = 0;
    for (key, want) in golden {
        match winners.get(key) {
            Some(got) => {
                ratios.push(got.score / want.score);
                if got.score.to_bits() != want.score.to_bits() || got.design != want.design {
                    changed += 1;
                }
            }
            None => changed += 1,
        }
    }
    (crate::stats::geomean(&ratios), changed)
}

/// Writes `winners` as the golden file of `workload` in the benchmark's
/// source tree (picked up by the next build).
pub fn write(workload: &str, winners: &Winners) -> std::io::Result<String> {
    let path = format!("{}/golden/{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let mut out = String::from("{\n");
    for (i, (key, w)) in winners.iter().enumerate() {
        let entry = Json::Obj(vec![
            ("score".into(), Json::Num(w.score)),
            ("design".into(), Json::Str(w.design.clone())),
        ]);
        let sep = if i + 1 < winners.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {}: {}{sep}",
            Json::Str(key.clone()).emit(),
            entry.emit()
        );
    }
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_parse_and_match_themselves() {
        for w in crate::WORKLOADS {
            let golden = load(w).expect("golden parses");
            assert!(!golden.is_empty(), "{w} golden is empty");
            assert_eq!(compare(&golden, &golden), (1.0, 0));
        }
    }
}
