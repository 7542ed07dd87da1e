//! The durable snapshot format.
//!
//! A snapshot file is a header followed by independent, individually
//! checksummed records:
//!
//! ```text
//!   magic    "THISTLAS"                 8 bytes
//!   version  u32 le                     format revision (currently 4)
//!   flags    u32 le                     reserved, must be 0
//!   record*  [len u32][crc32 u32][payload: len bytes]
//! ```
//!
//! The first payload byte is the record kind: `1` = one cache entry
//! (canonical query + design point). Kind `2` is retired and never reused.
//! Unknown kinds, kind 2 included, are skipped, so older readers tolerate
//! newer writers within a version.
//!
//! Records are independent on purpose: a torn write or a flipped bit costs
//! exactly the damaged record, not the file. [`AtlasSnapshot::load`] skips
//! records whose CRC or decode fails and reports how many were lost;
//! [`AtlasSnapshot::save`] writes to a sibling temporary file and renames it
//! into place, so a crash mid-checkpoint leaves the previous snapshot
//! intact.
//!
//! Cache entries appear in least-recently-used-first order, so replaying
//! them through an LRU insert reconstructs the pre-shutdown recency chain.

use crate::codec::{crc32, ByteReader, ByteWriter, CodecError};
use std::io::{self, Read, Write};
use std::path::Path;
use thistle::{
    CanonicalLayer, CanonicalMode, CanonicalQuery, DesignPoint, FailureLedger, SolveReport,
    SolverFingerprint, FINGERPRINT_WORDS,
};
use thistle_arch::ArchConfig;
use thistle_model::{Dim, Objective};
use timeloop_lite::model::LevelStats;
use timeloop_lite::{EvalResult, Mapping};

/// File magic: "THISTLAS".
pub const MAGIC: [u8; 8] = *b"THISTLAS";
/// Current format revision. Bumped to 2 when the solve report gained the
/// sweep deduplication counts (`batch_classes`/`batch_members`), to 3 when
/// the solve report and the solver fingerprint each lost a word with the
/// signomial refinement path, and to 4 when the solve report lost its two
/// row-reuse counters with the patched lowering. Older snapshots are
/// rejected at load and the atlas re-warms from scratch.
pub const VERSION: u32 = 4;

const KIND_ENTRY: u8 = 1;
// Kind 2 is retired: older revision-4 files may hold kind-2 frontier
// records, which load skips like any unknown kind. Never reuse 2 for a new
// record kind.

/// A record larger than this cannot be legitimate; treat the framing as
/// garbled rather than attempting the allocation.
const MAX_RECORD: u32 = 64 << 20;

/// Everything the atlas persists across restarts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AtlasSnapshot {
    /// Solved design points keyed by canonical query, least recently used
    /// first.
    pub entries: Vec<(CanonicalQuery, DesignPoint)>,
}

/// Outcome of a tolerant load.
#[derive(Debug)]
pub struct LoadResult {
    /// The surviving records.
    pub snapshot: AtlasSnapshot,
    /// Records dropped for CRC mismatch, truncation, or decode failure.
    pub skipped_records: u64,
}

impl AtlasSnapshot {
    /// Serializes and atomically replaces `path`: the bytes land in a
    /// sibling temporary file which is then renamed over the target, so
    /// readers only ever observe a complete snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from create/write/sync/rename.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for (query, point) in &self.entries {
            let mut w = ByteWriter::new();
            w.put_u8(KIND_ENTRY);
            encode_query(&mut w, query);
            encode_design_point(&mut w, point);
            append_record(&mut bytes, w.into_bytes());
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Loads `path`, skipping damaged records. Bad framing (a length that
    /// runs past the file or exceeds the record cap) ends the scan, since
    /// nothing after it can be trusted; everything decoded up to that point
    /// is still returned.
    ///
    /// # Errors
    ///
    /// Returns an error only when the file cannot be read at all or its
    /// header (magic/version) is wrong — a snapshot from a different format
    /// revision must not be silently half-loaded.
    pub fn load(path: &Path) -> io::Result<LoadResult> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < 16 || bytes[..8] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an atlas snapshot (bad magic)",
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported atlas version {version} (want {VERSION})"),
            ));
        }
        let mut snapshot = AtlasSnapshot::default();
        let mut skipped = 0u64;
        let mut pos = 16usize;
        while pos < bytes.len() {
            if bytes.len() - pos < 8 {
                // Torn tail from a crash mid-append.
                skipped += 1;
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            pos += 8;
            if len > MAX_RECORD || bytes.len() - pos < len as usize {
                skipped += 1;
                break;
            }
            let payload = &bytes[pos..pos + len as usize];
            pos += len as usize;
            if crc32(payload) != crc {
                skipped += 1;
                continue;
            }
            if decode_record(payload, &mut snapshot).is_err() {
                skipped += 1;
            }
        }
        Ok(LoadResult {
            snapshot,
            skipped_records: skipped,
        })
    }
}

fn append_record(out: &mut Vec<u8>, payload: Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

fn decode_record(payload: &[u8], snapshot: &mut AtlasSnapshot) -> Result<(), CodecError> {
    let mut r = ByteReader::new(payload);
    // Any other kind within a known version (a newer writer's record, or
    // retired kind 2) is ignored rather than dropping the whole file.
    if r.get_u8()? == KIND_ENTRY {
        let query = decode_query(&mut r)?;
        let point = decode_design_point(&mut r)?;
        snapshot.entries.push((query, point));
    }
    Ok(())
}

fn encode_objective(w: &mut ByteWriter, o: Objective) {
    w.put_u8(match o {
        Objective::Energy => 0,
        Objective::Delay => 1,
        Objective::EnergyDelayProduct => 2,
    });
}

fn decode_objective(r: &mut ByteReader) -> Result<Objective, CodecError> {
    match r.get_u8()? {
        0 => Ok(Objective::Energy),
        1 => Ok(Objective::Delay),
        2 => Ok(Objective::EnergyDelayProduct),
        v => Err(CodecError::BadDiscriminant("objective", u64::from(v))),
    }
}

fn encode_query(w: &mut ByteWriter, q: &CanonicalQuery) {
    let l = &q.layer;
    for v in [
        l.batch,
        l.out_channels,
        l.in_channels,
        l.in_h,
        l.in_w,
        l.kernel_h,
        l.kernel_w,
        l.stride,
        l.dilation,
    ] {
        w.put_u64(v);
    }
    encode_objective(w, q.objective);
    match &q.mode {
        CanonicalMode::Fixed {
            pe_count,
            regs_per_pe,
            sram_words,
            word_bits,
        } => {
            w.put_u8(0);
            w.put_u64(*pe_count);
            w.put_u64(*regs_per_pe);
            w.put_u64(*sram_words);
            w.put_u32(*word_bits);
        }
        CanonicalMode::CoDesign {
            area_budget_bits,
            regs_range_bits,
            sram_range_bits,
            pe_range_bits,
        } => {
            w.put_u8(1);
            w.put_u64(*area_budget_bits);
            for (lo, hi) in [regs_range_bits, sram_range_bits, pe_range_bits] {
                w.put_u64(*lo);
                w.put_u64(*hi);
            }
        }
    }
    w.put_u64_slice(&q.solver.encode_words());
}

fn decode_query(r: &mut ByteReader) -> Result<CanonicalQuery, CodecError> {
    let mut l = [0u64; 9];
    for v in &mut l {
        *v = r.get_u64()?;
    }
    let layer = CanonicalLayer {
        batch: l[0],
        out_channels: l[1],
        in_channels: l[2],
        in_h: l[3],
        in_w: l[4],
        kernel_h: l[5],
        kernel_w: l[6],
        stride: l[7],
        dilation: l[8],
    };
    let objective = decode_objective(r)?;
    let mode = match r.get_u8()? {
        0 => CanonicalMode::Fixed {
            pe_count: r.get_u64()?,
            regs_per_pe: r.get_u64()?,
            sram_words: r.get_u64()?,
            word_bits: r.get_u32()?,
        },
        1 => {
            let area_budget_bits = r.get_u64()?;
            let mut ranges = [(0u64, 0u64); 3];
            for range in &mut ranges {
                *range = (r.get_u64()?, r.get_u64()?);
            }
            CanonicalMode::CoDesign {
                area_budget_bits,
                regs_range_bits: ranges[0],
                sram_range_bits: ranges[1],
                pe_range_bits: ranges[2],
            }
        }
        v => return Err(CodecError::BadDiscriminant("arch mode", u64::from(v))),
    };
    let words = r.get_u64_vec()?;
    let words: [u64; FINGERPRINT_WORDS] = words
        .try_into()
        .map_err(|_| CodecError::BadLength("solver fingerprint", 0))?;
    let solver = SolverFingerprint::decode_words(&words)
        .ok_or(CodecError::BadDiscriminant("solver fingerprint", 0))?;
    Ok(CanonicalQuery {
        layer,
        objective,
        mode,
        solver,
    })
}

fn encode_mapping(w: &mut ByteWriter, m: &Mapping) {
    w.put_u64_slice(&m.register_factors);
    w.put_u64_slice(&m.pe_temporal_factors);
    w.put_usize_slice(&m.pe_temporal_perm);
    w.put_u64_slice(&m.spatial_factors);
    w.put_u64_slice(&m.outer_factors);
    w.put_usize_slice(&m.outer_perm);
}

fn decode_mapping(r: &mut ByteReader) -> Result<Mapping, CodecError> {
    Ok(Mapping {
        register_factors: r.get_u64_vec()?,
        pe_temporal_factors: r.get_u64_vec()?,
        pe_temporal_perm: r.get_usize_vec()?,
        spatial_factors: r.get_u64_vec()?,
        outer_factors: r.get_u64_vec()?,
        outer_perm: r.get_usize_vec()?,
    })
}

fn encode_eval(w: &mut ByteWriter, e: &EvalResult) {
    w.put_f64_bits(e.energy_pj);
    w.put_f64_bits(e.cycles);
    w.put_u64(e.macs);
    w.put_f64_bits(e.pj_per_mac);
    w.put_f64_bits(e.ipc);
    w.put_u64(e.pe_used);
    w.put_f64_bits(e.utilization);
    w.put_u32(e.levels.len() as u32);
    for level in &e.levels {
        w.put_str(&level.name);
        w.put_f64_bits(level.reads);
        w.put_f64_bits(level.writes);
        w.put_f64_bits(level.energy_pj);
    }
}

fn decode_eval(r: &mut ByteReader) -> Result<EvalResult, CodecError> {
    let energy_pj = r.get_f64_bits()?;
    let cycles = r.get_f64_bits()?;
    let macs = r.get_u64()?;
    let pj_per_mac = r.get_f64_bits()?;
    let ipc = r.get_f64_bits()?;
    let pe_used = r.get_u64()?;
    let utilization = r.get_f64_bits()?;
    let n = r.get_u32()?;
    if n > 16 {
        return Err(CodecError::BadLength("eval levels", u64::from(n)));
    }
    let mut levels = Vec::with_capacity(n as usize);
    for _ in 0..n {
        levels.push(LevelStats {
            name: r.get_str()?,
            reads: r.get_f64_bits()?,
            writes: r.get_f64_bits()?,
            energy_pj: r.get_f64_bits()?,
        });
    }
    Ok(EvalResult {
        energy_pj,
        cycles,
        macs,
        pj_per_mac,
        ipc,
        pe_used,
        utilization,
        levels,
    })
}

fn encode_ledger(w: &mut ByteWriter, l: &FailureLedger) {
    for v in [
        l.generation_failures,
        l.infeasible,
        l.numerical,
        l.invalid,
        l.cancelled,
        l.solver_panics,
        l.integerize_panics,
        l.recovered,
        l.degraded_solves,
        l.stalled_solves,
    ] {
        w.put_u64(v);
    }
}

fn decode_ledger(r: &mut ByteReader) -> Result<FailureLedger, CodecError> {
    let mut v = [0u64; 10];
    for slot in &mut v {
        *slot = r.get_u64()?;
    }
    Ok(FailureLedger {
        generation_failures: v[0],
        infeasible: v[1],
        numerical: v[2],
        invalid: v[3],
        cancelled: v[4],
        solver_panics: v[5],
        integerize_panics: v[6],
        recovered: v[7],
        degraded_solves: v[8],
        stalled_solves: v[9],
    })
}

fn encode_report(w: &mut ByteWriter, rep: &SolveReport) {
    w.put_str(&rep.workload);
    w.put_str(&rep.status);
    w.put_usize(rep.perm_pair);
    w.put_usize(rep.newton_iterations);
    w.put_u32_slice(&rep.newton_per_center);
    w.put_f64_slice(&rep.gap_trajectory);
    w.put_u32(rep.recovery_attempts);
    match &rep.recovered_by {
        Some(s) => {
            w.put_bool(true);
            w.put_str(s);
        }
        None => w.put_bool(false),
    }
    w.put_u64(rep.prefiltered);
    w.put_u64(rep.rejected_infeasible);
    // Retired utilization-floor counter: always 0, kept so revision 4
    // files keep their layout.
    w.put_u64(0);
    // Retired expression-arena counters: always absent, so revision 4
    // files keep their layout.
    w.put_bool(false);
    w.put_bool(rep.warm_started);
    w.put_i64(rep.warm_newton_saved);
    w.put_u32(rep.batch_classes);
    w.put_u32(rep.batch_members);
}

fn decode_report(r: &mut ByteReader) -> Result<SolveReport, CodecError> {
    let workload = r.get_str()?;
    let status = r.get_str()?;
    let perm_pair = r.get_usize()?;
    let newton_iterations = r.get_usize()?;
    let newton_per_center = r.get_u32_vec()?;
    let gap_trajectory = r.get_f64_vec()?;
    let recovery_attempts = r.get_u32()?;
    let recovered_by = if r.get_bool()? {
        Some(r.get_str()?)
    } else {
        None
    };
    let prefiltered = r.get_u64()?;
    let rejected_infeasible = r.get_u64()?;
    // Retired utilization-floor counter (see `encode_report`).
    r.get_u64()?;
    // Retired expression-arena counters: older files may carry the six
    // words (see `encode_report`).
    if r.get_bool()? {
        for _ in 0..6 {
            r.get_u64()?;
        }
    }
    Ok(SolveReport {
        workload,
        status,
        perm_pair,
        newton_iterations,
        newton_per_center,
        gap_trajectory,
        recovery_attempts,
        recovered_by,
        prefiltered,
        rejected_infeasible,
        warm_started: r.get_bool()?,
        warm_newton_saved: r.get_i64()?,
        batch_classes: r.get_u32()?,
        batch_members: r.get_u32()?,
    })
}

fn encode_design_point(w: &mut ByteWriter, p: &DesignPoint) {
    w.put_str(&p.workload_name);
    w.put_u64(p.arch.pe_count);
    w.put_u64(p.arch.regs_per_pe);
    w.put_u64(p.arch.sram_words);
    w.put_u32(p.arch.word_bits);
    encode_mapping(w, &p.mapping);
    encode_eval(w, &p.eval);
    w.put_f64_bits(p.relaxed_objective);
    w.put_u32(p.relaxed_point.values().len() as u32);
    for &v in p.relaxed_point.values() {
        w.put_f64_bits(v);
    }
    w.put_usize_slice(&p.perm1.iter().map(|d| d.index()).collect::<Vec<_>>());
    w.put_usize_slice(&p.perm3.iter().map(|d| d.index()).collect::<Vec<_>>());
    w.put_usize(p.perm_pair);
    w.put_usize(p.gp_solves);
    w.put_usize(p.candidates_evaluated);
    w.put_bool(p.degraded);
    encode_ledger(w, &p.ledger);
    encode_report(w, &p.report);
}

fn decode_design_point(r: &mut ByteReader) -> Result<DesignPoint, CodecError> {
    let workload_name = r.get_str()?;
    let arch = ArchConfig {
        pe_count: r.get_u64()?,
        regs_per_pe: r.get_u64()?,
        sram_words: r.get_u64()?,
        word_bits: r.get_u32()?,
    };
    let mapping = decode_mapping(r)?;
    let eval = decode_eval(r)?;
    let relaxed_objective = r.get_f64_bits()?;
    let n_relaxed = r.get_u32()?;
    if n_relaxed > 65_536 {
        return Err(CodecError::BadLength("relaxed point", u64::from(n_relaxed)));
    }
    let mut relaxed_values = Vec::with_capacity(n_relaxed as usize);
    for _ in 0..n_relaxed {
        relaxed_values.push(r.get_f64_bits()?);
    }
    let relaxed_point = thistle_expr::Assignment::from_values(relaxed_values);
    let perm1 = r.get_usize_vec()?.into_iter().map(Dim).collect();
    let perm3 = r.get_usize_vec()?.into_iter().map(Dim).collect();
    Ok(DesignPoint {
        workload_name,
        arch,
        mapping,
        eval,
        relaxed_objective,
        relaxed_point,
        perm1,
        perm3,
        perm_pair: r.get_usize()?,
        gp_solves: r.get_usize()?,
        candidates_evaluated: r.get_usize()?,
        degraded: r.get_bool()?,
        ledger: decode_ledger(r)?,
        report: decode_report(r)?,
    })
}
