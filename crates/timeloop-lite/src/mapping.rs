//! Mappings: how a problem's loops are tiled, ordered, and spatially
//! distributed on the three-level template.
//!
//! A mapping assigns each iteration dimension four factors whose product is
//! the dimension's extent, one per level (innermost to outermost):
//!
//! 1. `register_factors` — innermost temporal loops at the register file;
//! 2. `pe_temporal_factors` (+ `pe_temporal_perm`) — per-PE temporal loops
//!    stepping through register tiles;
//! 3. `spatial_factors` — the PE grid;
//! 4. `outer_factors` (+ `outer_perm`) — temporal loops over SRAM tiles.
//!
//! Permutations list dimension ids outermost-first; loops with factor 1 do
//! not exist in generated code and never affect hoisting.

use crate::problem::ProblemSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of tiling levels in the template.
pub const NUM_LEVELS: usize = 4;

/// Identifies one tiling level of the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapLevel {
    /// Innermost register-resident loops.
    Register,
    /// Per-PE temporal loops.
    PeTemporal,
    /// Spatial PE-grid distribution.
    Spatial,
    /// Outer temporal loops over SRAM tiles.
    Outer,
}

impl MapLevel {
    /// Dense index, innermost = 0.
    pub fn index(self) -> usize {
        match self {
            MapLevel::Register => 0,
            MapLevel::PeTemporal => 1,
            MapLevel::Spatial => 2,
            MapLevel::Outer => 3,
        }
    }
}

/// A complete mapping for the three-level template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mapping {
    /// Per-dimension trip counts of the innermost register loops.
    pub register_factors: Vec<u64>,
    /// Per-dimension trip counts of the per-PE temporal loops.
    pub pe_temporal_factors: Vec<u64>,
    /// Loop order of the per-PE temporal level, dimension ids outermost
    /// first.
    pub pe_temporal_perm: Vec<usize>,
    /// Per-dimension spatial fan-out across the PE grid.
    pub spatial_factors: Vec<u64>,
    /// Per-dimension trip counts of the outer (SRAM-tile) loops.
    pub outer_factors: Vec<u64>,
    /// Loop order of the outer level, dimension ids outermost first.
    pub outer_perm: Vec<usize>,
}

/// A mapping that fails validation, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingError(String);

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mapping: {}", self.0)
    }
}

impl std::error::Error for MappingError {}

impl Mapping {
    /// The trivial mapping: the whole iteration space in one register tile
    /// on one PE. Valid for any problem (though rarely within capacity).
    pub fn untiled(prob: &ProblemSpec) -> Self {
        let n = prob.num_dims();
        Mapping {
            register_factors: prob.extents.clone(),
            pe_temporal_factors: vec![1; n],
            pe_temporal_perm: (0..n).collect(),
            spatial_factors: vec![1; n],
            outer_factors: vec![1; n],
            outer_perm: (0..n).collect(),
        }
    }

    /// Factors at one level.
    pub fn factors(&self, level: MapLevel) -> &[u64] {
        match level {
            MapLevel::Register => &self.register_factors,
            MapLevel::PeTemporal => &self.pe_temporal_factors,
            MapLevel::Spatial => &self.spatial_factors,
            MapLevel::Outer => &self.outer_factors,
        }
    }

    /// Per-dimension tile extents spanning all levels up to and including
    /// `level`.
    pub fn tile_through(&self, level: MapLevel) -> Vec<u64> {
        let n = self.register_factors.len();
        let mut tile = vec![1u64; n];
        for l in [
            MapLevel::Register,
            MapLevel::PeTemporal,
            MapLevel::Spatial,
            MapLevel::Outer,
        ]
        .iter()
        .take(level.index() + 1)
        {
            for (t, &f) in tile.iter_mut().zip(self.factors(*l)) {
                *t *= f;
            }
        }
        tile
    }

    /// Number of PEs the mapping occupies.
    pub fn pe_count(&self) -> u64 {
        self.spatial_factors.iter().product()
    }

    /// Checks structural validity against a problem: factor products must
    /// equal extents, and permutations must be permutations of the dims.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] naming the violated property.
    pub fn validate(&self, prob: &ProblemSpec) -> Result<(), MappingError> {
        let n = prob.num_dims();
        for (what, v) in [
            ("register_factors", &self.register_factors),
            ("pe_temporal_factors", &self.pe_temporal_factors),
            ("spatial_factors", &self.spatial_factors),
            ("outer_factors", &self.outer_factors),
        ] {
            if v.len() != n {
                return Err(MappingError(format!("{what} has wrong arity")));
            }
            if v.contains(&0) {
                return Err(MappingError(format!("{what} contains a zero factor")));
            }
        }
        for d in 0..n {
            // Factors come from parsed input, so their product may exceed
            // `u64`; a wrapped product could otherwise pass for the extent.
            let product = [
                self.pe_temporal_factors[d],
                self.spatial_factors[d],
                self.outer_factors[d],
            ]
            .into_iter()
            .try_fold(self.register_factors[d], u64::checked_mul);
            if product != Some(prob.extents[d]) {
                let name = &prob.dim_names[d];
                let extent = prob.extents[d];
                return Err(MappingError(match product {
                    Some(product) => {
                        format!("dimension {name} factors to {product}, extent is {extent}")
                    }
                    None => format!("dimension {name} factors overflow u64, extent is {extent}"),
                }));
            }
        }
        for (what, perm) in [
            ("pe_temporal_perm", &self.pe_temporal_perm),
            ("outer_perm", &self.outer_perm),
        ] {
            if perm.len() != n {
                return Err(MappingError(format!("{what} has wrong arity")));
            }
            for (i, &d) in perm.iter().enumerate() {
                if d >= n || perm[..i].contains(&d) {
                    return Err(MappingError(format!("{what} is not a permutation")));
                }
            }
        }
        Ok(())
    }

    /// The loops of a temporal level that actually exist (factor > 1),
    /// outermost first.
    pub fn effective_perm(&self, level: MapLevel) -> Vec<usize> {
        self.existing_loops(level).collect()
    }

    /// Whether both temporal levels run their existing loops in the same
    /// order here as in `other` ([`Mapping::effective_perm`] agrees at both).
    /// That order is all the model reads of a permutation, so two mappings
    /// with equal factors and the same loop orders count the same traffic.
    /// Allocates nothing.
    pub fn same_loop_orders(&self, other: &Mapping) -> bool {
        [MapLevel::PeTemporal, MapLevel::Outer]
            .into_iter()
            .all(|level| self.existing_loops(level).eq(other.existing_loops(level)))
    }

    fn existing_loops(&self, level: MapLevel) -> impl Iterator<Item = usize> + '_ {
        let (perm, factors) = match level {
            MapLevel::PeTemporal => (&self.pe_temporal_perm, &self.pe_temporal_factors),
            MapLevel::Outer => (&self.outer_perm, &self.outer_factors),
            _ => panic!("only temporal levels have loop orders"),
        };
        perm.iter().copied().filter(move |&d| factors[d] > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::matmul;

    #[test]
    fn untiled_is_valid() {
        let p = matmul(8, 8, 8);
        let m = Mapping::untiled(&p);
        m.validate(&p).unwrap();
        assert_eq!(m.pe_count(), 1);
        assert_eq!(m.tile_through(MapLevel::Outer), vec![8, 8, 8]);
    }

    #[test]
    fn tile_through_accumulates() {
        let p = matmul(16, 16, 16);
        let m = Mapping {
            register_factors: vec![2, 2, 4],
            pe_temporal_factors: vec![2, 2, 2],
            pe_temporal_perm: vec![0, 1, 2],
            spatial_factors: vec![2, 2, 1],
            outer_factors: vec![2, 2, 2],
            outer_perm: vec![0, 1, 2],
        };
        m.validate(&p).unwrap();
        assert_eq!(m.tile_through(MapLevel::Register), vec![2, 2, 4]);
        assert_eq!(m.tile_through(MapLevel::PeTemporal), vec![4, 4, 8]);
        assert_eq!(m.tile_through(MapLevel::Spatial), vec![8, 8, 8]);
        assert_eq!(m.tile_through(MapLevel::Outer), vec![16, 16, 16]);
        assert_eq!(m.pe_count(), 4);
    }

    #[test]
    fn validation_catches_bad_products() {
        let p = matmul(8, 8, 8);
        let mut m = Mapping::untiled(&p);
        m.register_factors[0] = 4; // product now 4, extent 8
        assert!(m.validate(&p).is_err());
    }

    #[test]
    fn validation_catches_overflowing_factor_products() {
        // 3 * 0xAAAA_AAAA_AAAA_AAAB wraps to exactly 1, the extent of I.
        let p = matmul(1, 4, 4);
        let mut m = Mapping::untiled(&p);
        m.register_factors[0] = 3;
        m.pe_temporal_factors[0] = 0xAAAA_AAAA_AAAA_AAAB;
        let err = m.validate(&p).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn validation_catches_bad_perm() {
        let p = matmul(8, 8, 8);
        let mut m = Mapping::untiled(&p);
        m.outer_perm = vec![0, 0, 2];
        let err = m.validate(&p).unwrap_err();
        assert!(err.to_string().contains("not a permutation"));
    }

    #[test]
    fn effective_perm_drops_unit_loops() {
        let p = matmul(8, 8, 8);
        let m = Mapping {
            register_factors: vec![8, 4, 8],
            pe_temporal_factors: vec![1, 2, 1],
            pe_temporal_perm: vec![2, 1, 0],
            spatial_factors: vec![1, 1, 1],
            outer_factors: vec![1, 1, 1],
            outer_perm: vec![0, 1, 2],
        };
        m.validate(&p).unwrap();
        assert_eq!(m.effective_perm(MapLevel::PeTemporal), vec![1]);
        assert!(m.effective_perm(MapLevel::Outer).is_empty());
    }
}
