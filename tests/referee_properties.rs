//! Property-based tests of the timeloop-lite referee's physical invariants:
//! conservation laws and monotonicities any correct accelerator model must
//! satisfy, checked over random problems and mappings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::{Rng as _, SeedableRng as _};
use thistle_repro::timeloop_lite::mapping::MapLevel;
use thistle_repro::timeloop_lite::{
    capacity_needs, compute_cycles, evaluate, model, problem, ArchSpec, EvalError, EvalResult,
    Mapping, Traffic,
};

/// Random valid mapping for a problem, from a seed.
fn random_mapping(prob: &problem::ProblemSpec, seed: u64) -> Mapping {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Mapping::untiled(prob);
    for d in 0..prob.num_dims() {
        let mut rem = prob.extents[d];
        let mut split = [1u64; 4];
        while rem > 1 {
            let p = (2..=rem).find(|q| rem.is_multiple_of(*q)).unwrap();
            split[rng.gen_range(0..4)] *= p;
            rem /= p;
        }
        m.register_factors[d] = split[0];
        m.pe_temporal_factors[d] = split[1];
        m.spatial_factors[d] = split[2];
        m.outer_factors[d] = split[3];
    }
    m.pe_temporal_perm.shuffle(&mut rng);
    m.outer_perm.shuffle(&mut rng);
    m
}

/// The referee as one pass, before it was split into a count and a price:
/// validation, the capacities in order, per-tensor counts over materialized
/// tiles and loop orders, then pricing. It pins the accumulation and pricing
/// order that [`evaluate`] must reproduce bit for bit.
mod reference {
    use thistle_repro::timeloop_lite::mapping::MapLevel;
    use thistle_repro::timeloop_lite::model::LevelStats;
    use thistle_repro::timeloop_lite::problem::{DataSpace, ProblemSpec};
    use thistle_repro::timeloop_lite::{ArchSpec, EvalError, EvalResult, Mapping};

    /// Words `ds` moves per execution of the enclosing levels: the copy lands
    /// above the innermost existing loop it uses and spans that loop.
    fn fill_words(
        ds: &DataSpace,
        base_tile: &[u64],
        factors: &[u64],
        effective_perm: &[usize],
    ) -> u64 {
        match effective_perm.iter().rev().find(|&&d| ds.uses(d)) {
            None => ds.footprint(base_tile),
            Some(&dstar) => {
                let mut strip = base_tile.to_vec();
                strip[dstar] *= factors[dstar];
                let mut copies = 1u64;
                for &d in effective_perm {
                    if d == dstar {
                        break;
                    }
                    copies *= factors[d];
                }
                ds.footprint(&strip) * copies
            }
        }
    }

    pub fn evaluate(
        prob: &ProblemSpec,
        arch: &ArchSpec,
        mapping: &Mapping,
    ) -> Result<EvalResult, EvalError> {
        mapping.validate(prob)?;

        let t0 = mapping.tile_through(MapLevel::Register);
        let t2 = mapping.tile_through(MapLevel::Spatial);
        let reg_need: u64 = prob.data_spaces.iter().map(|ds| ds.footprint(&t0)).sum();
        if reg_need > arch.regs_per_pe {
            return Err(EvalError::RegisterCapacity {
                need: reg_need,
                have: arch.regs_per_pe,
            });
        }
        let sram_need: u64 = prob.data_spaces.iter().map(|ds| ds.footprint(&t2)).sum();
        if sram_need > arch.sram_words {
            return Err(EvalError::SramCapacity {
                need: sram_need,
                have: arch.sram_words,
            });
        }
        let pe_used = mapping.pe_count();
        if pe_used > arch.pe_count {
            return Err(EvalError::PeCount {
                need: pe_used,
                have: arch.pe_count,
            });
        }

        let macs = prob.macs() as f64;
        let outer_iters: f64 = mapping.outer_factors.iter().product::<u64>() as f64;
        let level = |name: &str| LevelStats {
            name: name.into(),
            reads: 0.0,
            writes: 0.0,
            energy_pj: 0.0,
        };
        let (mut reg, mut sram, mut dram) = (level("regfile"), level("sram"), level("dram"));
        let mut reg_fill_per_pe = 0.0;
        let pe_perm = mapping.effective_perm(MapLevel::PeTemporal);
        let outer_perm = mapping.effective_perm(MapLevel::Outer);

        for ds in &prob.data_spaces {
            let reg_fill = fill_words(ds, &t0, &mapping.pe_temporal_factors, &pe_perm);
            let sram_fill = fill_words(ds, &t2, &mapping.outer_factors, &outer_perm);
            let spatial_distinct: u64 = (0..prob.num_dims())
                .filter(|&d| ds.uses(d))
                .map(|d| mapping.spatial_factors[d])
                .product();

            reg.reads += macs;
            if ds.read_write {
                reg.writes += macs;
            }

            let per_pe_total = reg_fill as f64 * outer_iters;
            let directions = if ds.read_write { 2.0 } else { 1.0 };
            reg.writes += per_pe_total * pe_used as f64;
            sram.reads += per_pe_total * spatial_distinct as f64;
            if ds.read_write {
                reg.reads += per_pe_total * pe_used as f64;
                sram.writes += per_pe_total * spatial_distinct as f64;
            }
            reg_fill_per_pe += per_pe_total * directions;

            let dram_total = sram_fill as f64;
            dram.reads += dram_total;
            sram.writes += dram_total;
            if ds.read_write {
                dram.writes += dram_total;
                sram.reads += dram_total;
            }
        }

        reg.energy_pj = reg.accesses() * arch.reg_energy_pj;
        sram.energy_pj = sram.accesses() * arch.sram_energy_pj;
        dram.energy_pj = dram.accesses() * arch.dram_energy_pj;
        let mac_energy = macs * arch.mac_energy_pj;
        let energy_pj = mac_energy + reg.energy_pj + sram.energy_pj + dram.energy_pj;

        let bw = &arch.bandwidths;
        let compute_cycles = macs / pe_used as f64;
        let sram_cycles = sram.accesses() / bw.sram_words_per_cycle;
        let dram_cycles = dram.accesses() / bw.dram_words_per_cycle;
        let reg_cycles = reg_fill_per_pe / bw.reg_words_per_cycle_per_pe;
        let cycles = compute_cycles
            .max(sram_cycles)
            .max(dram_cycles)
            .max(reg_cycles);

        Ok(EvalResult {
            energy_pj,
            cycles,
            macs: prob.macs(),
            pj_per_mac: energy_pj / macs,
            ipc: macs / cycles,
            pe_used,
            utilization: pe_used as f64 / arch.pe_count as f64,
            levels: vec![reg, sram, dram],
        })
    }
}

/// A random matmul or stride-1/2 conv, a random mapping of it (one in four
/// made invalid: a wrong factor product, a repeated loop, or factors whose
/// product wraps `u64` to the extent) and four random architectures. Each
/// capacity (registers, SRAM, PEs) independently sits one below, at or
/// above the mapping's need, so every capacity error occurs.
fn referee_case(
    conv: bool,
    a: u64,
    b: u64,
    c: u64,
    seed: u64,
) -> (problem::ProblemSpec, Mapping, Vec<ArchSpec>) {
    let prob = if conv {
        problem::conv2d("p", 1, a, b, c, c, 3, 3, 1 + seed % 2)
    } else {
        problem::matmul(a + 1, b + 1, c)
    };
    let mut m = random_mapping(&prob, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let d = rng.gen_range(0..prob.num_dims());
    match rng.gen_range(0..12) {
        0 => m.register_factors[d] *= 2,
        1 => m.outer_perm[0] = m.outer_perm[1],
        2 => {
            // 3 * (3^-1 mod 2^64 * extent) wraps to the extent.
            m.register_factors[d] = 3;
            m.pe_temporal_factors[d] = 0xAAAA_AAAA_AAAA_AAABu64.wrapping_mul(prob.extents[d]);
            m.spatial_factors[d] = 1;
            m.outer_factors[d] = 1;
        }
        _ => {}
    }
    let (reg_need, sram_need, pe_need) = if m.validate(&prob).is_ok() {
        let t0 = m.tile_through(MapLevel::Register);
        let t2 = m.tile_through(MapLevel::Spatial);
        let need = |t: &[u64]| prob.data_spaces.iter().map(|ds| ds.footprint(t)).sum();
        (need(&t0), need(&t2), m.pe_count())
    } else {
        (1, 1, 1)
    };
    let archs = (0..4)
        .map(|_| {
            let mut straddle = |need: u64| match rng.gen_range(0..3) {
                0 => need - 1,
                1 => need,
                _ => need + rng.gen_range(1..=need),
            };
            let mut arch = ArchSpec::eyeriss_like();
            arch.regs_per_pe = straddle(reg_need);
            arch.sram_words = straddle(sram_need);
            arch.pe_count = straddle(pe_need);
            arch.mac_energy_pj = rng.gen_range(0.001..200.0);
            arch.reg_energy_pj = rng.gen_range(0.001..200.0);
            arch.sram_energy_pj = rng.gen_range(0.001..200.0);
            arch.dram_energy_pj = rng.gen_range(0.001..200.0);
            arch.bandwidths.dram_words_per_cycle = rng.gen_range(0.25..64.0);
            arch.bandwidths.sram_words_per_cycle = rng.gen_range(0.25..64.0);
            arch.bandwidths.reg_words_per_cycle_per_pe = rng.gen_range(0.25..64.0);
            arch
        })
        .collect();
    (prob, m, archs)
}

/// Every field of a verdict, floats as bit patterns (`==` would let `-0.0`
/// match `0.0`).
fn verdict_bits(r: &Result<EvalResult, EvalError>) -> Result<(Vec<u64>, Vec<String>), EvalError> {
    r.clone().map(|e| {
        let mut bits = vec![e.macs, e.pe_used];
        bits.extend([e.energy_pj, e.cycles, e.pj_per_mac, e.ipc, e.utilization].map(f64::to_bits));
        for l in &e.levels {
            bits.extend([l.reads, l.writes, l.energy_pj].map(f64::to_bits));
        }
        (bits, e.levels.into_iter().map(|l| l.name).collect())
    })
}

fn roomy_arch() -> ArchSpec {
    let mut a = ArchSpec::eyeriss_like();
    a.pe_count = 1 << 20;
    a.regs_per_pe = 1 << 20;
    a.sram_words = 1 << 30;
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every tensor's words cross the DRAM boundary at least
    /// once, and MAC-operand register reads are exactly 3 per MAC plus fill
    /// traffic.
    #[test]
    fn dram_traffic_covers_every_word(
        ni in 2u64..12, nj in 2u64..12, nk in 2u64..12, seed in 0u64..500,
    ) {
        let prob = problem::matmul(ni, nj, nk);
        let m = random_mapping(&prob, seed);
        let eval = evaluate(&prob, &roomy_arch(), &m).unwrap();
        let dram = &eval.levels[2];
        let total_words: u64 = prob
            .data_spaces
            .iter()
            .map(|d| d.total_words(&prob.extents))
            .sum();
        prop_assert!(dram.reads + 1e-9 >= total_words as f64);
        let reg = &eval.levels[0];
        prop_assert!(reg.reads >= 3.0 * prob.macs() as f64);
        prop_assert!(reg.writes >= prob.macs() as f64);
    }

    /// Monotonicity: halving every per-access energy halves the memory
    /// energy; cycles are unaffected by energy constants.
    #[test]
    fn energy_scales_linearly_with_access_costs(
        ni in 2u64..10, nk in 2u64..10, seed in 0u64..200,
    ) {
        let prob = problem::matmul(ni, 8, nk);
        let m = random_mapping(&prob, seed);
        let a1 = roomy_arch();
        let mut a2 = a1.clone();
        a2.reg_energy_pj /= 2.0;
        a2.sram_energy_pj /= 2.0;
        a2.dram_energy_pj /= 2.0;
        a2.mac_energy_pj /= 2.0;
        let e1 = evaluate(&prob, &a1, &m).unwrap();
        let e2 = evaluate(&prob, &a2, &m).unwrap();
        prop_assert!((e1.energy_pj / e2.energy_pj - 2.0).abs() < 1e-9);
        prop_assert_eq!(e1.cycles, e2.cycles);
    }

    /// The untiled mapping on a roomy machine moves each tensor exactly once
    /// at each boundary (perfect reuse): the energy floor.
    #[test]
    fn untiled_is_the_traffic_floor(
        ni in 2u64..10, nj in 2u64..10, nk in 2u64..10, seed in 0u64..200,
    ) {
        let prob = problem::matmul(ni, nj, nk);
        let untiled = Mapping::untiled(&prob);
        let arch = roomy_arch();
        let floor = evaluate(&prob, &arch, &untiled).unwrap();
        let random = evaluate(&prob, &arch, &random_mapping(&prob, seed)).unwrap();
        // Any tiling can only add traffic at the DRAM boundary.
        prop_assert!(random.levels[2].accesses() + 1e-9 >= floor.levels[2].accesses());
    }

    /// IPC never exceeds the PEs used, and utilization is consistent.
    #[test]
    fn ipc_bounded_by_parallelism(
        ni in 2u64..12, nj in 2u64..12, nk in 2u64..12, seed in 0u64..300,
    ) {
        let prob = problem::matmul(ni, nj, nk);
        let m = random_mapping(&prob, seed);
        let eval = evaluate(&prob, &roomy_arch(), &m).unwrap();
        prop_assert!(eval.ipc <= eval.pe_used as f64 + 1e-9);
        prop_assert!((eval.pe_used as f64) == m.pe_count() as f64);
    }

    /// Register footprints never exceed SRAM footprints (tiles nest).
    #[test]
    fn footprints_nest_across_levels(
        c in 1u64..6, k in 1u64..6, hw in 3u64..8, seed in 0u64..200,
    ) {
        let prob = problem::conv2d("p", 1, k, c, hw, hw, 3, 3, 1);
        let m = random_mapping(&prob, seed);
        let t0 = m.tile_through(MapLevel::Register);
        let t2 = m.tile_through(MapLevel::Spatial);
        for ds in &prob.data_spaces {
            prop_assert!(ds.footprint(&t0) <= ds.footprint(&t2));
            prop_assert!(ds.footprint(&t2) <= ds.total_words(&prob.extents));
        }
    }

    /// The count/price split is the one-pass referee bit for bit, error for
    /// error, on valid and invalid mappings under random architectures.
    #[test]
    fn evaluate_matches_the_reference_bit_for_bit(
        conv in 0u8..2, a in 1u64..7, b in 1u64..7, c in 2u64..9, seed in 0u64..1_000_000,
    ) {
        let (prob, m, archs) = referee_case(conv == 1, a, b, c, seed);
        for arch in &archs {
            prop_assert_eq!(
                verdict_bits(&evaluate(&prob, arch, &m)),
                verdict_bits(&reference::evaluate(&prob, arch, &m))
            );
        }
    }

    /// One count priced under several architectures equals a separate
    /// `evaluate` per architecture, and the exposed energy, cycle and
    /// utilization formulas equal the evaluation's fields.
    #[test]
    fn one_count_prices_every_arch_like_evaluate(
        conv in 0u8..2, a in 1u64..7, b in 1u64..7, c in 2u64..9, seed in 0u64..1_000_000,
    ) {
        let (prob, m, archs) = referee_case(conv == 1, a, b, c, seed);
        let counted = Traffic::count(&prob, &m);
        for arch in &archs {
            let separate = evaluate(&prob, arch, &m);
            let priced = counted
                .clone()
                .map_err(EvalError::from)
                .and_then(|t| t.evaluate(arch));
            prop_assert_eq!(verdict_bits(&priced), verdict_bits(&separate));
            if let (Ok(t), Ok(e)) = (&counted, &separate) {
                prop_assert_eq!(t.energy_pj(arch).to_bits(), e.energy_pj.to_bits());
                prop_assert_eq!(t.cycles(arch).to_bits(), e.cycles.to_bits());
                prop_assert_eq!(t.utilization(arch).to_bits(), e.utilization.to_bits());
            }
        }
    }

    /// The compute cycles read no loop order and no architecture, and they
    /// never exceed the cycle count, bit for bit: the delay floor rescore
    /// settles candidates with.
    #[test]
    fn compute_cycles_floor_the_cycle_count(
        conv in 0u8..2, a in 1u64..7, b in 1u64..7, c in 2u64..9, seed in 0u64..1_000_000,
    ) {
        let (prob, m, archs) = referee_case(conv == 1, a, b, c, seed);
        let Ok(counted) = Traffic::count(&prob, &m) else {
            return Ok(());
        };
        let floor = compute_cycles(prob.macs(), m.pe_count());
        for arch in &archs {
            let cycles = counted.cycles(arch);
            prop_assert!(floor <= cycles, "floor {} above cycles {}", floor, cycles);
        }
    }

    /// The referee's verdict read without a count (a valid mapping whose
    /// capacity needs and PEs fit) is a count followed by `fits`, case for
    /// case.
    #[test]
    fn count_free_verdict_equals_counted_fits(
        conv in 0u8..2, a in 1u64..7, b in 1u64..7, c in 2u64..9, seed in 0u64..1_000_000,
    ) {
        let (prob, m, archs) = referee_case(conv == 1, a, b, c, seed);
        let counted = Traffic::count(&prob, &m);
        for arch in &archs {
            let count_free = m.validate(&prob).is_ok() && {
                let (reg_need, sram_need) = capacity_needs(&prob, &m);
                reg_need <= arch.regs_per_pe
                    && sram_need <= arch.sram_words
                    && m.pe_count() <= arch.pe_count
            };
            let fits = counted.as_ref().is_ok_and(|t| t.fits(arch).is_ok());
            prop_assert_eq!(count_free, fits);
        }
    }

    /// Loops with factor 1 do not exist, so moving them anywhere in either
    /// permutation keeps the loop orders and the counted traffic, whose
    /// prices then agree bit for bit under any architecture. Swapping two
    /// existing loops at one level changes the loop orders.
    #[test]
    fn unit_loops_do_not_change_the_traffic(
        conv in 0u8..2, a in 1u64..7, b in 1u64..7, c in 2u64..9, seed in 0u64..1_000_000,
    ) {
        let (prob, m, archs) = referee_case(conv == 1, a, b, c, seed);
        if m.validate(&prob).is_err() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x100f);
        let mut moved = m.clone();
        for (perm, factors) in [
            (&mut moved.pe_temporal_perm, &m.pe_temporal_factors),
            (&mut moved.outer_perm, &m.outer_factors),
        ] {
            let (mut order, unit): (Vec<usize>, Vec<usize>) =
                perm.iter().partition(|&&d| factors[d] > 1);
            for d in unit {
                order.insert(rng.gen_range(0..=order.len()), d);
            }
            *perm = order;
        }
        prop_assert!(m.same_loop_orders(&moved));
        let counted = Traffic::count(&prob, &m).unwrap();
        let recounted = Traffic::count(&prob, &moved).unwrap();
        prop_assert_eq!(&counted, &recounted);
        for arch in &archs {
            prop_assert_eq!(
                verdict_bits(&counted.evaluate(arch)),
                verdict_bits(&recounted.evaluate(arch))
            );
            prop_assert_eq!(counted.energy_pj(arch).to_bits(), recounted.energy_pj(arch).to_bits());
            prop_assert_eq!(counted.cycles(arch).to_bits(), recounted.cycles(arch).to_bits());
        }

        for level in [MapLevel::PeTemporal, MapLevel::Outer] {
            let existing = moved.effective_perm(level);
            if existing.len() < 2 {
                continue;
            }
            let i = rng.gen_range(0..existing.len());
            let j = (i + rng.gen_range(1..existing.len())) % existing.len();
            let mut swapped = moved.clone();
            let perm = match level {
                MapLevel::PeTemporal => &mut swapped.pe_temporal_perm,
                _ => &mut swapped.outer_perm,
            };
            let at = |d: usize| perm.iter().position(|&e| e == d).unwrap();
            let (x, y) = (at(existing[i]), at(existing[j]));
            perm.swap(x, y);
            prop_assert!(!moved.same_loop_orders(&swapped));
        }
    }

    /// The spatial-multicast discount never increases SRAM reads: the
    /// distinct-data fan-out divides the full PE count.
    #[test]
    fn multicast_discount_is_a_divisor(
        ni in 2u64..10, nj in 2u64..10, nk in 2u64..10, seed in 0u64..300,
    ) {
        let prob = problem::matmul(ni, nj, nk);
        let m = random_mapping(&prob, seed);
        for t in model::tensor_traffic(&prob, &m) {
            prop_assert!(t.spatial_distinct <= m.pe_count());
            prop_assert!(m.pe_count().is_multiple_of(t.spatial_distinct));
        }
    }
}
