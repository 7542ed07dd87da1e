//! Corruption tolerance: a damaged snapshot must cost exactly the damaged
//! records, never the file — and damaged framing must stop the scan rather
//! than feed garbage lengths to the allocator.

use std::path::PathBuf;
use std::sync::OnceLock;
use thistle::{CanonicalQuery, DesignPoint, Optimizer};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_atlas::{crc32, AtlasSnapshot, ByteWriter};
use thistle_model::{ArchMode, ConvLayer, Objective};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "thistle-atlas-corrupt-{}-{tag}.bin",
        std::process::id()
    ))
}

/// A snapshot of `n` cache entries: one tiny real solve, shared by every
/// test here, cloned under `n` distinct queries (batch 1..=n) and named
/// `entry_0`, `entry_1`, ...
fn entry_snapshot(n: usize) -> AtlasSnapshot {
    static POINT: OnceLock<DesignPoint> = OnceLock::new();
    let optimizer = Optimizer::new(TechnologyParams::cgo2022_45nm());
    let mode = ArchMode::Fixed(ArchConfig::eyeriss());
    let layer = |batch| ConvLayer::new("mix", batch, 8, 8, 8, 8, 3, 3, 1);
    let point = POINT.get_or_init(|| {
        optimizer
            .optimize_layer(&layer(1), Objective::Energy, &mode)
            .expect("solvable")
    });
    AtlasSnapshot {
        entries: (0..n)
            .map(|i| {
                let (query, _) =
                    CanonicalQuery::new(&optimizer, &layer(i as u64 + 1), Objective::Energy, &mode);
                let mut point = point.clone();
                point.workload_name = format!("entry_{i}");
                (query, point)
            })
            .collect(),
    }
}

fn names(snapshot: &AtlasSnapshot) -> Vec<&str> {
    snapshot
        .entries
        .iter()
        .map(|(_, p)| p.workload_name.as_str())
        .collect()
}

#[test]
fn flipped_bit_skips_one_record_and_keeps_the_rest() {
    let snapshot = entry_snapshot(3);
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
    assert_eq!(names(&loaded.snapshot), vec!["entry_1", "entry_2"]);
    assert_eq!(loaded.snapshot.entries[..], snapshot.entries[1..]);
}

#[test]
fn truncated_tail_keeps_complete_records() {
    let snapshot = entry_snapshot(3);
    let path = temp_path("trunc");
    snapshot.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    // Cut the file mid-way through the last record.
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
    let loaded = AtlasSnapshot::load(&path).expect("load survives truncation");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.skipped_records, 1);
    assert_eq!(names(&loaded.snapshot), vec!["entry_0", "entry_1"]);
}

#[test]
fn garbled_length_stops_the_scan_without_allocating() {
    let snapshot = entry_snapshot(2);
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
    assert!(loaded.snapshot.entries.is_empty());
}

#[test]
fn wrong_magic_and_version_are_hard_errors() {
    let path = temp_path("magic");
    std::fs::write(&path, b"NOTATLAS\x01\x00\x00\x00\x00\x00\x00\x00rest").expect("write");
    assert!(AtlasSnapshot::load(&path).is_err());

    let snapshot = entry_snapshot(1);
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
fn retired_frontier_records_are_skipped_without_loss() {
    // Revision-4 files written while frontier precompute existed hold
    // kind-2 records. Frame one as those writers did, between two entries:
    // it is skipped as an unknown kind, not counted as damage, and both
    // entries survive.
    let snapshot = entry_snapshot(2);
    let path = temp_path("kind2");
    snapshot.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    let first_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let split = 16 + 8 + first_len;

    let mut w = ByteWriter::new();
    w.put_u8(2);
    w.put_str("oc8_ic8_in8x8_k3x3_s1_d1");
    w.put_u32(1);
    for v in [1.5e6, 2.0e5, 3.0e4] {
        w.put_f64_bits(v);
    }
    for v in [168, 512, 65_536] {
        w.put_u64(v);
    }
    w.put_str("energy");
    let payload = w.into_bytes();
    let mut patched = bytes[..split].to_vec();
    patched.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    patched.extend_from_slice(&crc32(&payload).to_le_bytes());
    patched.extend_from_slice(&payload);
    patched.extend_from_slice(&bytes[split..]);
    std::fs::write(&path, &patched).expect("rewrite");

    let loaded = AtlasSnapshot::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.skipped_records, 0);
    assert_eq!(loaded.snapshot, snapshot);
}

#[test]
fn retired_arena_counters_are_skipped_without_loss() {
    // Revision-4 files written while solve reports carried expression-arena
    // counters end each entry's report with the arena flag set and six
    // words. Rewrite one entry that way: it loads, and every other field of
    // the report reads back unchanged.
    let snapshot = entry_snapshot(1);
    let path = temp_path("arena");
    snapshot.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let payload = &bytes[24..24 + len];
    // The report closes the entry: the arena flag, then `warm_started` (1
    // byte), `warm_newton_saved` (8), `batch_classes` (4), `batch_members` (4).
    let flag = payload.len() - 18;
    assert_eq!(payload[flag], 0, "the arena flag is written unset");

    let mut w = ByteWriter::new();
    w.put_u8(1);
    for v in [120, 80, 900, 300, 40, 10] {
        w.put_u64(v);
    }
    let mut old_payload = payload[..flag].to_vec();
    old_payload.extend_from_slice(&w.into_bytes());
    old_payload.extend_from_slice(&payload[flag + 1..]);
    let mut patched = bytes[..16].to_vec();
    patched.extend_from_slice(&(old_payload.len() as u32).to_le_bytes());
    patched.extend_from_slice(&crc32(&old_payload).to_le_bytes());
    patched.extend_from_slice(&old_payload);
    patched.extend_from_slice(&bytes[24 + len..]);
    std::fs::write(&path, &patched).expect("rewrite");

    let loaded = AtlasSnapshot::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.skipped_records, 0);
    assert_eq!(loaded.snapshot, snapshot);
}
