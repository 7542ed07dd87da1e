//! A multithreaded mapping-space explorer in the style of Timeloop Mapper.
//!
//! Each worker thread repeatedly proposes mappings — either a fresh random
//! point (prime factors of every extent dealt to random levels, random loop
//! orders) or a mutation of the best mapping found so far — evaluates them
//! with the analytical model, and keeps the best under the chosen objective.
//! A thread stops after its trial budget, when the *victory condition* fires
//! (too many consecutive proposals without improving on the incumbent), or
//! when the wall-clock limit expires: the same three termination rules
//! Timeloop Mapper exposes.

use crate::arch::ArchSpec;
use crate::mapping::Mapping;
use crate::model::{evaluate, EvalResult};
use crate::problem::ProblemSpec;
use rand::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the mapper minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchObjective {
    /// Total energy (pJ).
    Energy,
    /// Execution cycles.
    Delay,
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct MapperOptions {
    /// Objective to minimize.
    pub objective: SearchObjective,
    /// Total proposal budget across all threads.
    pub max_trials: usize,
    /// Consecutive non-improving *valid* evaluations before a thread declares
    /// victory and stops.
    pub victory_condition: usize,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed (search is deterministic for a fixed seed and thread count
    /// up to best-tie ordering).
    pub seed: u64,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            objective: SearchObjective::Energy,
            max_trials: 20_000,
            victory_condition: 2_000,
            threads: 4,
            seed: 0xC60_2022,
            time_limit: None,
        }
    }
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct MapperResult {
    /// Best mapping found and its evaluation, if any proposal was valid.
    pub best: Option<(Mapping, EvalResult)>,
    /// Proposals evaluated (valid or not).
    pub evaluated: usize,
    /// Proposals that passed validation and capacity checks.
    pub valid: usize,
}

/// The search driver.
#[derive(Debug, Clone)]
pub struct Mapper {
    prob: ProblemSpec,
    arch: ArchSpec,
    opts: MapperOptions,
}

impl Mapper {
    /// Creates a mapper for one problem/architecture pair.
    pub fn new(prob: ProblemSpec, arch: ArchSpec, opts: MapperOptions) -> Self {
        Mapper { prob, arch, opts }
    }

    /// Runs the search to completion.
    pub fn search(&self) -> MapperResult {
        let best: Mutex<Option<(f64, Mapping, EvalResult)>> = Mutex::new(None);
        let evaluated = AtomicUsize::new(0);
        let valid = AtomicUsize::new(0);
        let started = Instant::now();
        let per_thread = self.opts.max_trials / self.opts.threads.max(1);

        std::thread::scope(|scope| {
            for tid in 0..self.opts.threads.max(1) {
                let best = &best;
                let evaluated = &evaluated;
                let valid = &valid;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        self.opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1)),
                    );
                    let mut since_improvement = 0usize;
                    for _ in 0..per_thread {
                        if since_improvement >= self.opts.victory_condition {
                            break;
                        }
                        if let Some(limit) = self.opts.time_limit {
                            if started.elapsed() > limit {
                                break;
                            }
                        }
                        let proposal = self.propose(&mut rng, best);
                        evaluated.fetch_add(1, Ordering::Relaxed);
                        let Ok(result) = evaluate(&self.prob, &self.arch, &proposal) else {
                            since_improvement += 1;
                            continue;
                        };
                        valid.fetch_add(1, Ordering::Relaxed);
                        let score = self.score(&result);
                        let mut guard = best.lock().expect("mapper lock");
                        match &*guard {
                            Some((incumbent, _, _)) if *incumbent <= score => {
                                since_improvement += 1;
                            }
                            _ => {
                                *guard = Some((score, proposal, result));
                                since_improvement = 0;
                            }
                        }
                    }
                });
            }
        });

        let best = best
            .into_inner()
            .expect("mapper lock")
            .map(|(_, m, r)| (m, r));
        MapperResult {
            best,
            evaluated: evaluated.into_inner(),
            valid: valid.into_inner(),
        }
    }

    fn score(&self, r: &EvalResult) -> f64 {
        match self.opts.objective {
            SearchObjective::Energy => r.energy_pj,
            SearchObjective::Delay => r.cycles,
        }
    }

    fn propose(
        &self,
        rng: &mut StdRng,
        best: &Mutex<Option<(f64, Mapping, EvalResult)>>,
    ) -> Mapping {
        // Half the proposals mutate the incumbent (local refinement), half
        // restart from a random point (global coverage).
        if rng.gen_bool(0.5) {
            let incumbent = best
                .lock()
                .expect("mapper lock")
                .as_ref()
                .map(|(_, m, _)| m.clone());
            if let Some(m) = incumbent {
                return self.mutate(m, rng);
            }
        }
        self.random_mapping(rng)
    }

    fn random_mapping(&self, rng: &mut StdRng) -> Mapping {
        let n = self.prob.num_dims();
        let mut m = Mapping::untiled(&self.prob);
        for d in 0..n {
            let split = random_split(self.prob.extents[d], rng);
            m.register_factors[d] = split[0];
            m.pe_temporal_factors[d] = split[1];
            m.spatial_factors[d] = split[2];
            m.outer_factors[d] = split[3];
        }
        m.pe_temporal_perm = random_perm(n, rng);
        m.outer_perm = random_perm(n, rng);
        m
    }

    fn mutate(&self, mut m: Mapping, rng: &mut StdRng) -> Mapping {
        match rng.gen_range(0..3) {
            0 => {
                // Move one prime factor of a random dim between two levels.
                let d = rng.gen_range(0..self.prob.num_dims());
                let levels: [&mut Vec<u64>; 4] = [
                    &mut m.register_factors,
                    &mut m.pe_temporal_factors,
                    &mut m.spatial_factors,
                    &mut m.outer_factors,
                ];
                let from = rng.gen_range(0..4);
                let to = (from + rng.gen_range(1..4)) % 4;
                let value = levels[from][d];
                if let Some(p) = smallest_prime_factor(value) {
                    levels[from][d] /= p;
                    levels[to][d] *= p;
                }
            }
            1 => {
                m.pe_temporal_perm.shuffle(rng);
            }
            _ => {
                m.outer_perm.shuffle(rng);
            }
        }
        m
    }
}

fn random_perm(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(rng);
    p
}

/// Splits `n` into four factors by dealing each prime factor to a random
/// level.
fn random_split(mut n: u64, rng: &mut StdRng) -> [u64; 4] {
    let mut out = [1u64; 4];
    while n > 1 {
        let p = smallest_prime_factor(n).expect("n > 1 has a prime factor");
        out[rng.gen_range(0..4)] *= p;
        n /= p;
    }
    out
}

fn smallest_prime_factor(n: u64) -> Option<u64> {
    if n <= 1 {
        return None;
    }
    let mut p = 2;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return Some(p);
        }
        p += 1;
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::matmul;

    fn quick_opts(objective: SearchObjective) -> MapperOptions {
        MapperOptions {
            objective,
            max_trials: 4_000,
            victory_condition: 1_500,
            threads: 2,
            seed: 7,
            time_limit: None,
        }
    }

    #[test]
    fn finds_valid_mapping_for_matmul() {
        let prob = matmul(64, 64, 64);
        let mapper = Mapper::new(
            prob.clone(),
            ArchSpec::eyeriss_like(),
            quick_opts(SearchObjective::Energy),
        );
        let result = mapper.search();
        let (m, r) = result.best.expect("search must find a valid mapping");
        m.validate(&prob).unwrap();
        assert!(result.valid > 0);
        assert!(r.pj_per_mac > 2.2, "must include at least MAC energy");
        // With 512-word register files, MAC+register floor is ~20.8 pJ/MAC.
        assert!(r.pj_per_mac < 200.0, "search should find something sane");
    }

    #[test]
    fn delay_objective_prefers_parallelism() {
        let prob = matmul(64, 64, 64);
        let energy = Mapper::new(
            prob.clone(),
            ArchSpec::eyeriss_like(),
            quick_opts(SearchObjective::Energy),
        )
        .search()
        .best
        .unwrap()
        .1;
        let delay = Mapper::new(
            prob,
            ArchSpec::eyeriss_like(),
            quick_opts(SearchObjective::Delay),
        )
        .search()
        .best
        .unwrap()
        .1;
        assert!(delay.cycles <= energy.cycles);
        assert!(delay.ipc >= 1.0);
    }

    #[test]
    fn search_is_deterministic_for_fixed_seed() {
        let prob = matmul(32, 32, 32);
        let opts = MapperOptions {
            threads: 1,
            max_trials: 1_000,
            ..quick_opts(SearchObjective::Energy)
        };
        let a = Mapper::new(prob.clone(), ArchSpec::eyeriss_like(), opts.clone()).search();
        let b = Mapper::new(prob, ArchSpec::eyeriss_like(), opts).search();
        let (ma, ra) = a.best.unwrap();
        let (mb, rb) = b.best.unwrap();
        assert_eq!(ma, mb);
        assert_eq!(ra.energy_pj, rb.energy_pj);
    }

    #[test]
    fn respects_trial_budget() {
        let prob = matmul(16, 16, 16);
        let opts = MapperOptions {
            max_trials: 100,
            victory_condition: 1_000_000,
            threads: 1,
            ..quick_opts(SearchObjective::Energy)
        };
        let result = Mapper::new(prob, ArchSpec::eyeriss_like(), opts).search();
        assert!(result.evaluated <= 100);
    }
}
