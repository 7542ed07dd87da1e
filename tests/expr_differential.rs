//! Differential tests for the interned-IR / compiled-evaluation refactor.
//!
//! The symbolic traffic model is now built in a hash-consing arena and
//! evaluated through compiled CSR forms; these tests pin the refactor to the
//! legacy semantics: the term-walk evaluator ([`Signomial::eval`]) is the
//! oracle at randomized points, the energy model is reconstructed
//! independently from public pieces, and the optimizer sweep must stay
//! bit-deterministic across thread counts.

use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_expr::{Assignment, CompiledSignomial, EvalScratch, Var};
use thistle_model::volumes::TrafficModel;
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, ProblemGenerator};
use thistle_repro::thistle::{Optimizer, OptimizerOptions};

fn tech() -> TechnologyParams {
    TechnologyParams::cgo2022_45nm()
}

fn conv3x3() -> ConvLayer {
    ConvLayer::new("conv3x3", 1, 32, 16, 16, 16, 3, 3, 1)
}

/// Deterministic xorshift64* stream of positive point coordinates.
struct Points {
    state: u64,
}

impl Points {
    fn next_value(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let r = self.state.wrapping_mul(0x2545F4914F6CDD1D) >> 33;
        0.5 + (r % 2000) as f64 / 100.0 // in [0.5, 20.5)
    }

    fn assignment(&mut self, n: usize) -> Assignment {
        let mut point = Assignment::ones(n);
        for i in 0..n {
            point.set(Var::from_index(i), self.next_value());
        }
        point
    }
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// The compiled CSR evaluator agrees with the legacy term-walk on every
/// traffic-model total, at randomized (non-integer) points.
#[test]
fn compiled_totals_match_legacy_walk_at_random_points() {
    let generator = ProblemGenerator::new(conv3x3().workload(), tech(), Bandwidths::default());
    let (p1, p3) = generator.permutation_classes()[0].clone();
    let gp = generator
        .generate(
            &p1,
            &p3,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )
        .unwrap();
    let traffic = TrafficModel::build(&gp.space, &p1, &p3);
    let totals = [
        traffic.total_sram_reg(),
        traffic.total_reg_fills(),
        traffic.total_dram_sram(),
        traffic.total_register_footprint(),
        traffic.total_sram_footprint(),
    ];
    let n = gp.problem.registry().len();
    let mut points = Points { state: 0x5EED };
    let mut scratch = EvalScratch::default();
    for _ in 0..50 {
        let point = points.assignment(n);
        for total in &totals {
            let legacy = total.eval(&point);
            let compiled = CompiledSignomial::compile(total).eval_with(&point, &mut scratch);
            assert!(
                relative_gap(legacy, compiled) < 1e-12,
                "compiled eval diverged from legacy walk: {legacy} vs {compiled}"
            );
        }
    }
}

/// `energy_at` (compiled internally) matches an energy reconstruction that
/// rebuilds the traffic model from scratch and evaluates it with the legacy
/// term-walk — a full second derivation through the public API.
#[test]
fn compiled_energy_at_matches_independent_reconstruction() {
    let generator = ProblemGenerator::new(conv3x3().workload(), tech(), Bandwidths::default());
    let (p1, p3) = generator.permutation_classes()[0].clone();
    let gp = generator
        .generate(
            &p1,
            &p3,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )
        .unwrap();
    let traffic = TrafficModel::build(&gp.space, &p1, &p3);
    let n = gp.problem.registry().len();
    let tech = tech();
    let mut points = Points { state: 0xBEEF };
    for _ in 0..20 {
        let point = points.assignment(n);
        let t_sr = traffic.total_sram_reg().eval(&point);
        let t_ds = traffic.total_dram_sram().eval(&point);
        let reg_fills = traffic.total_reg_fills().eval(&point);
        let (_, regs, sram) = gp.arch_at(&point);
        let eps_r = tech.register_energy_pj(regs);
        let eps_s = tech.sram_energy_pj(sram);
        // Default register-cost model charges fills per PE.
        let expected = (4.0 * eps_r + tech.energy_mac_pj) * gp.num_ops()
            + eps_r * reg_fills
            + eps_s * (t_sr + t_ds)
            + tech.energy_dram_pj * t_ds;
        let got = gp.energy_at(&point);
        assert!(
            relative_gap(expected, got) < 1e-9,
            "energy_at diverged: {expected} vs {got}"
        );
    }
}

/// The full conv3x3 sweep returns the identical winner regardless of thread
/// count: same permutation pair, architecture, mapping, and referee score.
#[test]
fn conv3x3_sweep_winner_is_thread_count_invariant() {
    let layer = conv3x3();
    let run = |threads: usize| {
        Optimizer::new(tech())
            .with_options(OptimizerOptions {
                max_perm_pairs: 16,
                candidate_limit: 300,
                threads,
                ..OptimizerOptions::default()
            })
            .optimize_layer(
                &layer,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.perm1, parallel.perm1);
    assert_eq!(serial.perm3, parallel.perm3);
    assert_eq!(serial.arch, parallel.arch);
    assert_eq!(serial.mapping, parallel.mapping);
    assert_eq!(serial.eval.energy_pj, parallel.eval.energy_pj);
    assert_eq!(serial.eval.cycles, parallel.eval.cycles);
    assert!(relative_gap(serial.relaxed_objective, parallel.relaxed_objective) < 1e-9);
}

/// Co-design sweeps stay deterministic too — the capacity prefilter in the
/// rescore loop must not change the winner, only skip referee calls that
/// would have been rejected anyway.
#[test]
fn codesign_sweep_winner_is_thread_count_invariant() {
    let layer = conv3x3();
    let mode = ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech()));
    let run = |threads: usize| {
        Optimizer::new(tech())
            .with_options(OptimizerOptions {
                max_perm_pairs: 8,
                candidate_limit: 200,
                threads,
                ..OptimizerOptions::default()
            })
            .optimize_layer(&layer, Objective::Energy, &mode)
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.perm1, parallel.perm1);
    assert_eq!(serial.perm3, parallel.perm3);
    assert_eq!(serial.arch, parallel.arch);
    assert_eq!(serial.mapping, parallel.mapping);
    assert_eq!(serial.eval.energy_pj, parallel.eval.energy_pj);
}
