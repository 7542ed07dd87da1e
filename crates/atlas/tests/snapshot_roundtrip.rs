//! Property test: an atlas snapshot round-trips through disk bit-identically
//! — every field of every design point, including degraded flags, ledger
//! counters, and the near-miss report fields. "Bit-identical" is asserted
//! by re-serializing the loaded snapshot and comparing the byte streams,
//! which is strictly stronger than `PartialEq` on floats.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::PathBuf;
use thistle::{CanonicalQuery, DesignPoint, FailureLedger, Optimizer, SolveReport};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_atlas::AtlasSnapshot;
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Dim, Objective};
use timeloop_lite::model::LevelStats;
use timeloop_lite::{EvalResult, Mapping};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("thistle-atlas-{}-{tag}.bin", std::process::id()))
}

fn synth_query(rng: &mut StdRng) -> CanonicalQuery {
    let optimizer = Optimizer::new(TechnologyParams::cgo2022_45nm());
    let layer = ConvLayer::new(
        "prop",
        rng.gen_range(1u64..8),
        1 << rng.gen_range(3u32..8),
        1 << rng.gen_range(3u32..8),
        rng.gen_range(7u64..56),
        rng.gen_range(7u64..56),
        3,
        3,
        rng.gen_range(1u64..3),
    );
    let mode = if rng.gen_bool(0.5) {
        ArchMode::Fixed(ArchConfig::eyeriss())
    } else {
        ArchMode::CoDesign(CoDesignSpec::same_area_as(
            &ArchConfig::eyeriss(),
            optimizer.tech(),
        ))
    };
    let objective = match rng.gen_range(0u32..3) {
        0 => Objective::Energy,
        1 => Objective::Delay,
        _ => Objective::EnergyDelayProduct,
    };
    CanonicalQuery::new(&optimizer, &layer, objective, &mode).0
}

fn synth_point(rng: &mut StdRng) -> DesignPoint {
    let n = 7usize;
    let factors =
        |rng: &mut StdRng| -> Vec<u64> { (0..n).map(|_| 1 << rng.gen_range(0u32..4)).collect() };
    let perm = |rng: &mut StdRng| -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.gen_range(0..i + 1));
        }
        p
    };
    DesignPoint {
        workload_name: format!("layer_{}", rng.gen_range(0u32..100)),
        arch: ArchConfig::new(
            rng.gen_range(1u64..1024),
            rng.gen_range(1u64..2048),
            rng.gen_range(1024u64..1 << 17),
        ),
        mapping: Mapping {
            register_factors: factors(rng),
            pe_temporal_factors: factors(rng),
            pe_temporal_perm: perm(rng),
            spatial_factors: factors(rng),
            outer_factors: factors(rng),
            outer_perm: perm(rng),
        },
        eval: EvalResult {
            energy_pj: rng.gen_range(0.0..1e9),
            cycles: rng.gen_range(0.0..1e9),
            macs: rng.next_u64() >> 16,
            pj_per_mac: rng.gen_range(0.0..100.0),
            ipc: rng.gen_range(0.0..256.0),
            pe_used: rng.gen_range(1u64..1024),
            utilization: rng.gen_range(0.0..1.0),
            levels: vec![
                LevelStats {
                    name: "regfile".into(),
                    reads: rng.gen_range(0.0..1e12),
                    writes: rng.gen_range(0.0..1e12),
                    energy_pj: rng.gen_range(0.0..1e9),
                },
                LevelStats {
                    name: "sram".into(),
                    reads: rng.gen_range(0.0..1e12),
                    writes: rng.gen_range(0.0..1e12),
                    energy_pj: rng.gen_range(0.0..1e9),
                },
            ],
        },
        relaxed_objective: rng.gen_range(0.0..1e9),
        relaxed_point: thistle_expr::Assignment::from_values(
            (0..rng.gen_range(0usize..24))
                .map(|_| rng.gen_range(1e-3..1e6))
                .collect(),
        ),
        perm1: perm(rng).into_iter().map(Dim).collect(),
        perm3: perm(rng).into_iter().map(Dim).collect(),
        perm_pair: rng.gen_range(0usize..288),
        gp_solves: rng.gen_range(0usize..300),
        candidates_evaluated: rng.gen_range(0usize..5000),
        degraded: rng.gen_bool(0.3),
        ledger: FailureLedger {
            generation_failures: rng.gen_range(0u64..10),
            infeasible: rng.gen_range(0u64..10),
            numerical: rng.gen_range(0u64..10),
            invalid: rng.gen_range(0u64..10),
            cancelled: rng.gen_range(0u64..10),
            solver_panics: rng.gen_range(0u64..10),
            integerize_panics: rng.gen_range(0u64..10),
            recovered: rng.gen_range(0u64..10),
            degraded_solves: rng.gen_range(0u64..10),
            stalled_solves: rng.gen_range(0u64..10),
        },
        report: SolveReport {
            workload: "prop".into(),
            status: if rng.gen_bool(0.5) {
                "optimal".into()
            } else {
                "degraded".into()
            },
            perm_pair: rng.gen_range(0usize..288),
            newton_iterations: rng.gen_range(0usize..500),
            newton_per_center: (0..rng.gen_range(0usize..8))
                .map(|_| rng.gen_range(0u32..80))
                .collect(),
            gap_trajectory: (0..rng.gen_range(0usize..8))
                .map(|_| rng.gen_range(0.0..1.0))
                .collect(),
            recovery_attempts: rng.gen_range(1u32..5),
            recovered_by: rng.gen_bool(0.3).then(|| "TikhonovRidge".to_string()),
            prefiltered: rng.gen_range(0u64..1000),
            rejected_infeasible: rng.gen_range(0u64..1000),
            warm_started: rng.gen_bool(0.3),
            warm_newton_saved: rng.gen_range(-50i64..200),
            batch_classes: rng.gen_range(0u32..32),
            batch_members: rng.gen_range(0u32..64),
        },
    }
}

fn synth_snapshot(seed: u64, entries: usize) -> AtlasSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    AtlasSnapshot {
        entries: (0..entries)
            .map(|_| (synth_query(&mut rng), synth_point(&mut rng)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_round_trips_bit_identically(
        seed in 0u64..1_000_000,
        entries in 0usize..5,
    ) {
        let snapshot = synth_snapshot(seed, entries);
        let path = temp_path(&format!("rt-{seed}-{entries}"));
        snapshot.save(&path).expect("save");
        let loaded = AtlasSnapshot::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.skipped_records, 0);
        // Structural equality first (clearer failures)...
        prop_assert_eq!(&loaded.snapshot, &snapshot);
        // ...then bit-identity via re-serialization.
        let path2 = temp_path(&format!("rt2-{seed}-{entries}"));
        loaded.snapshot.save(&path2).expect("re-save");
        let original = {
            let path3 = temp_path(&format!("rt3-{seed}-{entries}"));
            snapshot.save(&path3).expect("save again");
            let bytes = std::fs::read(&path3).expect("read");
            std::fs::remove_file(&path3).ok();
            bytes
        };
        let reloaded = std::fs::read(&path2).expect("read");
        std::fs::remove_file(&path2).ok();
        prop_assert_eq!(original, reloaded);
    }
}

#[test]
fn degraded_and_ledger_fields_survive() {
    let mut rng = StdRng::seed_from_u64(7);
    let query = synth_query(&mut rng);
    let mut point = synth_point(&mut rng);
    point.degraded = true;
    point.ledger.solver_panics = 3;
    point.ledger.recovered = 2;
    point.report.warm_started = true;
    point.report.warm_newton_saved = -4;
    let snapshot = AtlasSnapshot {
        entries: vec![(query, point.clone())],
    };
    let path = temp_path("ledger");
    snapshot.save(&path).expect("save");
    let loaded = AtlasSnapshot::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    let (_, restored) = &loaded.snapshot.entries[0];
    assert!(restored.degraded);
    assert_eq!(restored.ledger, point.ledger);
    assert!(restored.report.warm_started);
    assert_eq!(restored.report.warm_newton_saved, -4);
}
