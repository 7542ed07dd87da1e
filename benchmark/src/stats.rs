//! Order statistics, the percentile rule, and the seeded generator every
//! workload draws its inputs from.

/// Samples a reported percentile must leave beyond itself. Fewer than this,
/// and the percentile is a statement about a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie strictly above the chosen rank: p50
/// needs 20 samples, p95 200, p99 1000.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile must lie strictly in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {}",
            q * 100.0,
            n - rank
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of repeated measurements of one fixed item (the mean of the two
/// middle values for an even count). Not a percentile claim, so it carries
/// no sample floor; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Geometric mean; callers pass values in a fixed order so the result
/// repeats bit for bit.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: tiny, seedable, and identical on every platform, so one seed
/// always yields the same layer order and request plan.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_refuses_thin_tails() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err(), "p99 of 999 samples");
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(989.0));
        assert!(percentile(&samples[..199], 0.95).is_err());
        assert!(percentile(&samples[..200], 0.95).is_ok());
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert_eq!(percentile(&samples[..20], 0.5), Ok(9.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
