//! Acceptance tests for the design-space atlas wiring in the serve layer:
//! snapshot persistence across service restarts (bit-identical answers from
//! the restored cache) and near-miss routing on batch-size-only cache
//! misses (from live and restored donors).

use std::path::PathBuf;
use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_serve::{Service, ServiceOptions};

fn quick_optimizer() -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 9,
        candidate_limit: 300,
        top_solutions: 1,
        threads: 2,
        ..OptimizerOptions::default()
    })
}

fn quick_options() -> ServiceOptions {
    ServiceOptions {
        workers: 2,
        cache_capacity: 16,
        ..ServiceOptions::default()
    }
}

fn temp_atlas(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "thistle-atlas-serve-{}-{tag}.bin",
        std::process::id()
    ))
}

fn mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

/// The referee's verdict on `point` as raw bits, for bit-identity checks.
fn eval_bits(point: &DesignPoint) -> [u64; 7] {
    let e = &point.eval;
    [
        e.energy_pj.to_bits(),
        e.cycles.to_bits(),
        e.macs,
        e.pj_per_mac.to_bits(),
        e.ipc.to_bits(),
        e.pe_used,
        e.utilization.to_bits(),
    ]
}

#[test]
fn restarted_service_answers_from_the_snapshot_bit_identically() {
    let path = temp_atlas("restart");
    std::fs::remove_file(&path).ok();
    let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);

    let (energy_bits, mapping) = {
        let service = Service::new(
            quick_optimizer(),
            ServiceOptions {
                atlas_path: Some(path.clone()),
                ..quick_options()
            },
        );
        let first = service
            .optimize(&layer, Objective::Energy, &mode())
            .unwrap();
        assert!(!first.cache_hit);
        // Dropping the service is the graceful drain: it saves the atlas.
        (first.point.eval.energy_pj.to_bits(), first.point.mapping)
    };
    assert!(path.exists(), "drain did not write the snapshot");

    let restarted = Service::new(
        quick_optimizer(),
        ServiceOptions {
            atlas_path: Some(path.clone()),
            ..quick_options()
        },
    );
    let snap = restarted.metrics_snapshot();
    assert_eq!(snap.atlas_restored_entries, 1);
    assert_eq!(snap.atlas_load_errors, 0);
    assert_eq!(restarted.cache_len(), 1);

    // The previously solved request is answered from the restored cache —
    // no pool solve — and the answer is bit-identical.
    let replay = restarted
        .optimize(&layer, Objective::Energy, &mode())
        .unwrap();
    assert!(replay.cache_hit);
    assert_eq!(replay.point.eval.energy_pj.to_bits(), energy_bits);
    assert_eq!(replay.point.mapping, mapping);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_snapshot_counts_load_errors_and_still_starts() {
    let path = temp_atlas("corrupt");
    let start = || {
        Service::new(
            quick_optimizer(),
            ServiceOptions {
                atlas_path: Some(path.clone()),
                ..quick_options()
            },
        )
    };
    std::fs::write(&path, b"not a snapshot at all").expect("write garbage");
    let service = start();
    let snap = service.metrics_snapshot();
    assert_eq!(snap.atlas_restored_entries, 0);
    assert!(snap.atlas_load_errors >= 1);
    assert_eq!(service.cache_len(), 0);
    drop(service);

    // Snapshots of the retired format revisions 3 and 2 (valid magic) are
    // rejected whole: the service starts cold and counts one load error.
    std::fs::write(&path, b"THISTLAS\x03\x00\x00\x00\x00\x00\x00\x00").expect("write v3");
    let service = start();
    let snap = service.metrics_snapshot();
    assert_eq!(snap.atlas_restored_entries, 0);
    assert_eq!(snap.atlas_load_errors, 1);
    assert_eq!(service.cache_len(), 0);
    drop(service);
    std::fs::write(&path, b"THISTLAS\x02\x00\x00\x00\x00\x00\x00\x00").expect("write v2");
    let service = start();
    let snap = service.metrics_snapshot();
    assert_eq!(snap.atlas_restored_entries, 0);
    assert_eq!(snap.atlas_load_errors, 1);
    assert_eq!(service.cache_len(), 0);

    // One solve, then a checkpoint replaces the rejected file, and a
    // restart restores from it.
    let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);
    service
        .optimize(&layer, Objective::Energy, &mode())
        .unwrap();
    assert!(service.save_atlas().expect("save atlas"));
    drop(service);
    let restarted = start();
    let snap = restarted.metrics_snapshot();
    assert_eq!(snap.atlas_restored_entries, 1);
    assert_eq!(snap.atlas_load_errors, 0);
    assert_eq!(restarted.cache_len(), 1);
    drop(restarted);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_cadence_writes_the_snapshot_without_a_drain() {
    let path = temp_atlas("cadence");
    std::fs::remove_file(&path).ok();
    let service = Service::new(
        quick_optimizer(),
        ServiceOptions {
            atlas_path: Some(path.clone()),
            atlas_checkpoint_every: 1,
            ..quick_options()
        },
    );
    let layer = ConvLayer::new("conv", 1, 16, 16, 18, 18, 3, 3, 1);
    service
        .optimize(&layer, Objective::Energy, &mode())
        .unwrap();
    assert!(
        path.exists(),
        "first fresh solve should have checkpointed at cadence 1"
    );
    std::fs::remove_file(&path).ok();
    drop(service);
    std::fs::remove_file(&path).ok();
}

#[test]
fn batch_variant_miss_is_solved_as_a_near_miss_warm_start() {
    let service = Service::new(quick_optimizer(), quick_options());
    let donor_layer = ConvLayer::new("b2", 2, 16, 16, 18, 18, 3, 3, 1);
    let near_layer = ConvLayer::new("b4", 4, 16, 16, 18, 18, 3, 3, 1);

    let donor = service
        .optimize(&donor_layer, Objective::Energy, &mode())
        .unwrap();
    assert!(!donor.cache_hit);
    assert_eq!(service.metrics_snapshot().near_miss_hits, 0);

    let near = service
        .optimize(&near_layer, Objective::Energy, &mode())
        .unwrap();
    assert!(!near.cache_hit, "different batch is a different cache key");
    assert_eq!(service.metrics_snapshot().near_miss_hits, 1);

    // The near-miss solve's retained report marks the route.
    let report = service
        .solve_report(near.solve_id.expect("fresh solve id"))
        .expect("report retained");
    assert!(report.warm_started, "near-miss solve should warm-start");

    // Both entries are cached independently; replays hit.
    let replay = service
        .optimize(&near_layer, Objective::Energy, &mode())
        .unwrap();
    assert!(replay.cache_hit);
}

#[test]
fn restored_entry_donates_to_a_near_miss() {
    let path = temp_atlas("donor");
    std::fs::remove_file(&path).ok();
    let with_atlas = || ServiceOptions {
        atlas_path: Some(path.clone()),
        ..quick_options()
    };
    let donor_layer = ConvLayer::new("b2", 2, 16, 16, 18, 18, 3, 3, 1);
    let near_layer = ConvLayer::new("b4", 4, 16, 16, 18, 18, 3, 3, 1);

    // Service A solves the batch-2 donor; dropping it drains into the atlas.
    let a = Service::new(quick_optimizer(), with_atlas());
    a.optimize(&donor_layer, Objective::Energy, &mode())
        .unwrap();
    drop(a);

    // Service B restores the donor and answers the batch-4 variant from it.
    let b = Service::new(quick_optimizer(), with_atlas());
    let restored = b.optimize(&near_layer, Objective::Energy, &mode()).unwrap();
    assert!(!restored.cache_hit);
    let snap = b.metrics_snapshot();
    assert_eq!(snap.atlas_restored_entries, 1);
    assert_eq!(snap.near_miss_hits, 1);
    drop(b);
    std::fs::remove_file(&path).ok();

    // Service C solves the donor itself before the same near-miss: the
    // restored donor gives the same answer, bit for bit.
    let c = Service::new(quick_optimizer(), quick_options());
    c.optimize(&donor_layer, Objective::Energy, &mode())
        .unwrap();
    let direct = c.optimize(&near_layer, Objective::Energy, &mode()).unwrap();
    assert_eq!(c.metrics_snapshot().near_miss_hits, 1);
    assert_eq!(restored.point.arch, direct.point.arch);
    assert_eq!(restored.point.mapping, direct.point.mapping);
    assert_eq!(eval_bits(&restored.point), eval_bits(&direct.point));
}

#[test]
fn batch_one_requests_never_use_a_donor() {
    let service = Service::new(quick_optimizer(), quick_options());
    let b2 = ConvLayer::new("b2", 2, 16, 16, 18, 18, 3, 3, 1);
    let b1 = ConvLayer::new("b1", 1, 16, 16, 18, 18, 3, 3, 1);
    service.optimize(&b2, Objective::Energy, &mode()).unwrap();
    service.optimize(&b1, Objective::Energy, &mode()).unwrap();
    // A batch-1 layer has no batch tiling variable, so it must solve cold.
    assert_eq!(service.metrics_snapshot().near_miss_hits, 0);
}
