//! Conversion of the solver's real-valued solution into integer design
//! candidates (Section IV of the paper).
//!
//! The GP relaxation ignores integrality; the paper recovers integer designs
//! by:
//!
//! 1. taking the `n` powers of two nearest each memory-capacity variable;
//! 2. hierarchically rounding tile sizes to divisors — SRAM-level tile sizes
//!    to the `n` nearest divisors of the problem extent, PE-level tile sizes
//!    to divisors of each chosen SRAM candidate, register-level tile sizes to
//!    divisors of each chosen PE candidate;
//! 3. crossing the per-variable candidates, filtering out combinations that
//!    violate divisibility, area, or capacity;
//! 4. evaluating every survivor with the Timeloop model and keeping the
//!    best.
//!
//! This module provides the candidate lists of steps 1–2 and the capped
//! cross product of tile sizes. The optimizer ([`crate::optimizer`]) never
//! materializes the full (architecture, mapping) cross product: it streams
//! each tile-size combination through the area filter, the capacity
//! prefilter (the referee's own integer needs, computed once per
//! combination) and the referee of step 4.

/// All divisors of `n`, ascending.
///
/// # Examples
///
/// ```
/// assert_eq!(thistle::integerize::divisors(12), vec![1, 2, 3, 4, 6, 12]);
/// ```
pub fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    // `d <= isqrt(n)` is `d * d <= n` without the multiply, which wraps
    // once `d` reaches 2^32.
    for d in 1..=n.isqrt() {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
    }
    large.reverse();
    small.extend(large);
    small
}

/// The `count` divisors of `n` closest to `x` (ties broken toward the
/// smaller divisor), ascending.
///
/// # Examples
///
/// ```
/// assert_eq!(thistle::integerize::closest_divisors(64, 5.7, 2), vec![4, 8]);
/// ```
pub fn closest_divisors(n: u64, x: f64, count: usize) -> Vec<u64> {
    let mut divs = divisors(n);
    divs.sort_by(|&a, &b| {
        let da = (a as f64 - x).abs();
        let db = (b as f64 - x).abs();
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    divs.truncate(count.max(1));
    divs.sort_unstable();
    divs
}

/// The `count` powers of two closest to `x` (by log distance), ascending,
/// clamped to `[lo, hi]`.
///
/// # Examples
///
/// ```
/// assert_eq!(thistle::integerize::closest_powers_of_two(12.0, 2, 1, 1 << 20), vec![8, 16]);
/// ```
pub fn closest_powers_of_two(x: f64, count: usize, lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo > 0 && lo <= hi, "invalid range");
    let mut powers: Vec<u64> = (0..63)
        .map(|p| 1u64 << p)
        .filter(|&v| v >= lo && v <= hi)
        .collect();
    if powers.is_empty() {
        // No power of two inside the range: fall back to its lower edge so
        // callers always get at least one in-range candidate.
        return vec![lo];
    }
    let lx = x.max(1.0).log2();
    powers.sort_by(|&a, &b| {
        let da = ((a as f64).log2() - lx).abs();
        let db = ((b as f64).log2() - lx).abs();
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    powers.truncate(count.max(1));
    powers.sort_unstable();
    powers
}

/// One integer tiling candidate for a single dimension: nested tile sizes
/// `register <= pe <= sram <= extent`, all dividing the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimTiling {
    /// Register-level tile size (`R_d`).
    pub register: u64,
    /// Per-PE tile size (`Q_d = R_d * q_d`).
    pub pe: u64,
    /// SRAM-level tile size (`S_d = Q_d * p_d`).
    pub sram: u64,
    /// Problem extent (`N_d`).
    pub extent: u64,
}

impl DimTiling {
    /// The four per-level trip counts `(r, q, p, t)`.
    pub fn factors(&self) -> (u64, u64, u64, u64) {
        (
            self.register,
            self.pe / self.register,
            self.sram / self.pe,
            self.extent / self.sram,
        )
    }
}

/// Hierarchical divisor candidates for one dimension (paper Section IV):
/// `n` SRAM-tile candidates from the divisors of the extent, then `n`
/// PE-tile candidates from each SRAM candidate's divisors, then `n`
/// register-tile candidates from each PE candidate's divisors.
///
/// `real` holds the relaxed solution `(register, pe, sram)` tile sizes.
/// Candidates are returned in order of increasing log-space distance from
/// the relaxed solution, duplicates removed.
pub fn dim_candidates(extent: u64, real: (f64, f64, f64), n: usize) -> Vec<DimTiling> {
    let (r_real, q_real, s_real) = real;
    let mut out = Vec::new();
    for sram in closest_divisors(extent, s_real, n) {
        for pe in closest_divisors(sram, q_real.min(sram as f64), n) {
            for register in closest_divisors(pe, r_real.min(pe as f64), n) {
                out.push(DimTiling {
                    register,
                    pe,
                    sram,
                    extent,
                });
            }
        }
    }
    let distance = |t: &DimTiling| -> f64 {
        let d = |v: u64, real: f64| ((v as f64).max(1.0) / real.max(1.0)).ln().abs();
        d(t.register, r_real) + d(t.pe, q_real) + d(t.sram, s_real)
    };
    out.sort_by(|a, b| {
        distance(a)
            .partial_cmp(&distance(b))
            .expect("finite distances")
            .then_with(|| (a.sram, a.pe, a.register).cmp(&(b.sram, b.pe, b.register)))
    });
    out.dedup();
    out
}

/// The cross product of per-dimension candidates, visited in order of
/// increasing total candidate rank (so combinations nearest the relaxed
/// solution come first when each per-dimension list is distance-sorted),
/// capped at `limit`.
pub fn cross_product_capped(per_dim: &[Vec<DimTiling>], limit: usize) -> Vec<Vec<DimTiling>> {
    if per_dim.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    let max_sum: usize = per_dim.iter().map(|c| c.len() - 1).sum();
    let mut out = Vec::new();
    let mut ranks = vec![0usize; per_dim.len()];
    for target in 0..=max_sum {
        emit_rank_sum(per_dim, 0, target, &mut ranks, &mut out, limit);
        if out.len() >= limit {
            break;
        }
    }
    out
}

/// Depth-first enumeration of rank vectors with a fixed rank sum.
fn emit_rank_sum(
    per_dim: &[Vec<DimTiling>],
    dim: usize,
    remaining: usize,
    ranks: &mut Vec<usize>,
    out: &mut Vec<Vec<DimTiling>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if dim == per_dim.len() {
        if remaining == 0 {
            out.push(
                ranks
                    .iter()
                    .zip(per_dim)
                    .map(|(&r, cands)| cands[r])
                    .collect(),
            );
        }
        return;
    }
    // Prune: the remaining dims can absorb at most their max ranks.
    let tail_capacity: usize = per_dim[dim + 1..].iter().map(|c| c.len() - 1).sum();
    let lo = remaining.saturating_sub(tail_capacity);
    let hi = remaining.min(per_dim[dim].len() - 1);
    for r in lo..=hi {
        ranks[dim] = r;
        emit_rank_sum(per_dim, dim + 1, remaining - r, ranks, out, limit);
        if out.len() >= limit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_are_complete_and_sorted() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(36), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(
            divisors(168),
            vec![1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 24, 28, 42, 56, 84, 168]
        );
    }

    #[test]
    fn closest_divisors_picks_neighbours() {
        assert_eq!(closest_divisors(64, 12.0, 2), vec![8, 16]);
        assert_eq!(closest_divisors(56, 10.0, 3), vec![7, 8, 14]);
        // Clamp when fewer divisors exist than requested.
        assert_eq!(closest_divisors(7, 3.0, 5), vec![1, 7]);
    }

    #[test]
    fn paper_example_powers_of_two() {
        // "if the real solution is 12 for register capacity and N is 2, we
        //  choose 8,16 as two candidates".
        assert_eq!(closest_powers_of_two(12.0, 2, 1, 1 << 30), vec![8, 16]);
    }

    #[test]
    fn dim_candidates_nest_divisibly() {
        let cands = dim_candidates(56, (2.3, 7.8, 28.1), 2);
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.extent % c.sram, 0);
            assert_eq!(c.sram % c.pe, 0);
            assert_eq!(c.pe % c.register, 0);
            let (r, q, p, t) = c.factors();
            assert_eq!(r * q * p * t, 56);
        }
    }

    #[test]
    fn cross_product_visits_nearest_first() {
        let per_dim = vec![
            dim_candidates(64, (4.0, 8.0, 16.0), 2),
            dim_candidates(32, (2.0, 4.0, 8.0), 2),
        ];
        let combos = cross_product_capped(&per_dim, 1000);
        // First combo must pick every dimension's closest candidate.
        assert_eq!(combos[0], vec![per_dim[0][0], per_dim[1][0]]);
        // Full cross product, no duplicates.
        assert_eq!(combos.len(), per_dim[0].len() * per_dim[1].len());
        let mut seen = std::collections::HashSet::new();
        assert!(combos.iter().all(|c| seen.insert(c.clone())));
    }

    #[test]
    fn cross_product_respects_cap() {
        let per_dim = vec![
            dim_candidates(64, (4.0, 8.0, 16.0), 3),
            dim_candidates(64, (4.0, 8.0, 16.0), 3),
            dim_candidates(64, (4.0, 8.0, 16.0), 3),
        ];
        let combos = cross_product_capped(&per_dim, 500);
        assert!(combos.len() <= 500);
        assert!(combos.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn real_solution_near_divisor_is_recovered() {
        // If the relaxation lands almost exactly on a valid point, the first
        // candidate must be that point.
        let cands = dim_candidates(64, (4.001, 15.99, 32.0), 1);
        assert_eq!(cands.len(), 1);
        assert_eq!(
            cands[0],
            DimTiling {
                register: 4,
                pe: 16,
                sram: 32,
                extent: 64
            }
        );
    }
}
