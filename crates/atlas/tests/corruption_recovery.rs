//! Corruption tolerance: a damaged snapshot must cost exactly the damaged
//! records, never the file — and damaged framing must stop the scan rather
//! than feed garbage lengths to the allocator.

use std::path::PathBuf;
use thistle::{CanonicalQuery, Optimizer};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_atlas::{AtlasSnapshot, ParetoFrontier, ParetoPoint};
use thistle_model::{ArchMode, ConvLayer, Objective};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "thistle-atlas-corrupt-{}-{tag}.bin",
        std::process::id()
    ))
}

/// A snapshot with `n` pareto-frontier records (cheap to build, no
/// optimizer run needed beyond the fingerprint).
fn frontier_snapshot(n: usize) -> AtlasSnapshot {
    AtlasSnapshot {
        entries: vec![],
        frontiers: (0..n)
            .map(|i| ParetoFrontier {
                workload: format!("family_{i}"),
                points: vec![ParetoPoint {
                    area_um2: 1.0 + i as f64,
                    energy_pj: 2.0,
                    cycles: 3.0,
                    pe_count: 4,
                    regs_per_pe: 5,
                    sram_words: 6,
                    objective: "energy".into(),
                }],
            })
            .collect(),
    }
}

#[test]
fn flipped_bit_skips_one_record_and_keeps_the_rest() {
    let snapshot = frontier_snapshot(3);
    let path = temp_path("flip");
    snapshot.save(&path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read");
    // Header is 16 bytes, each record is [len][crc][payload]; flip a byte
    // inside the first record's payload.
    let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    assert!(first_len > 4);
    bytes[16 + 8 + first_len / 2] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite");
    let loaded = AtlasSnapshot::load(&path).expect("load survives corruption");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.skipped_records, 1);
    assert_eq!(loaded.snapshot.frontiers.len(), 2);
    let names: Vec<&str> = loaded
        .snapshot
        .frontiers
        .iter()
        .map(|f| f.workload.as_str())
        .collect();
    assert_eq!(names, vec!["family_1", "family_2"]);
}

#[test]
fn truncated_tail_keeps_complete_records() {
    let snapshot = frontier_snapshot(3);
    let path = temp_path("trunc");
    snapshot.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    // Cut the file mid-way through the last record.
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
    let loaded = AtlasSnapshot::load(&path).expect("load survives truncation");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.skipped_records, 1);
    assert_eq!(loaded.snapshot.frontiers.len(), 2);
}

#[test]
fn garbled_length_stops_the_scan_without_allocating() {
    let snapshot = frontier_snapshot(2);
    let path = temp_path("len");
    snapshot.save(&path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read");
    // Stamp an absurd length over the first record's frame.
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite");
    let loaded = AtlasSnapshot::load(&path).expect("load survives bad framing");
    std::fs::remove_file(&path).ok();
    // Nothing after an untrustworthy frame can be decoded.
    assert_eq!(loaded.skipped_records, 1);
    assert!(loaded.snapshot.frontiers.is_empty());
}

#[test]
fn wrong_magic_and_version_are_hard_errors() {
    let path = temp_path("magic");
    std::fs::write(&path, b"NOTATLAS\x01\x00\x00\x00\x00\x00\x00\x00rest").expect("write");
    assert!(AtlasSnapshot::load(&path).is_err());

    let snapshot = frontier_snapshot(1);
    snapshot.save(&path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[8] = 99; // future version
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(AtlasSnapshot::load(&path).is_err());

    // Revisions 2 and 3 are retired: their solve reports carry fields a
    // later revision dropped, so the whole file is rejected.
    for retired in [2u32, 3] {
        bytes[8..12].copy_from_slice(&retired.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(AtlasSnapshot::load(&path).is_err(), "revision {retired}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn design_entries_coexist_with_frontiers() {
    // One real cache entry (needs an actual solve — keep it tiny).
    let optimizer = Optimizer::new(TechnologyParams::cgo2022_45nm());
    let layer = ConvLayer::new("mix", 1, 8, 8, 8, 8, 3, 3, 1);
    let mode = ArchMode::Fixed(ArchConfig::eyeriss());
    let point = optimizer
        .optimize_layer(&layer, Objective::Energy, &mode)
        .expect("solvable");
    let (query, _) = CanonicalQuery::new(&optimizer, &layer, Objective::Energy, &mode);
    let mut snapshot = frontier_snapshot(1);
    snapshot.entries.push((query.clone(), point.clone()));
    let path = temp_path("mixed");
    snapshot.save(&path).expect("save");
    let loaded = AtlasSnapshot::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.skipped_records, 0);
    assert_eq!(loaded.snapshot.entries.len(), 1);
    assert_eq!(loaded.snapshot.frontiers.len(), 1);
    let (restored_query, restored_point) = &loaded.snapshot.entries[0];
    assert_eq!(restored_query, &query);
    assert_eq!(
        restored_point.eval.energy_pj.to_bits(),
        point.eval.energy_pj.to_bits()
    );
    assert_eq!(restored_point.mapping, point.mapping);
}
