//! Problem specifications: iteration dimensions and data spaces.
//!
//! Mirrors Timeloop's problem document (Fig. 3(b) of the paper): a set of
//! dimensions, a set of data spaces with linear projections, and an instance
//! binding each dimension to an extent.

use serde::{Deserialize, Serialize};

/// One data space (tensor) and its projection from the iteration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataSpace {
    /// Tensor name.
    pub name: String,
    /// Whether the tensor is read *and* written (partial sums).
    pub read_write: bool,
    /// Per data dimension: linear combination `sum (dim_index, coefficient)`
    /// of iteration dimensions.
    pub projection: Vec<Vec<(usize, f64)>>,
}

impl DataSpace {
    /// Whether iteration dimension `dim` appears in the projection.
    pub fn uses(&self, dim: usize) -> bool {
        self.projection
            .iter()
            .any(|e| e.iter().any(|&(d, c)| d == dim && c != 0.0))
    }

    /// Words spanned by a tile whose extent along iteration dim `d` is
    /// `tile[d]`: the product over data dims of
    /// `sum_d coef * (tile[d] - 1) + 1` (exact, halos included).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is shorter than the dimensions referenced.
    pub fn footprint(&self, tile: &[u64]) -> u64 {
        self.footprint_with(|d| tile[d])
    }

    /// [`DataSpace::footprint`] of a tile given per dimension: `tile(d)` is
    /// its extent along iteration dim `d`. Lets callers describe a tile
    /// without materializing it.
    pub fn footprint_with(&self, tile: impl Fn(usize) -> u64) -> u64 {
        self.projection
            .iter()
            .map(|expr| {
                let extent: f64 = expr
                    .iter()
                    .map(|&(d, c)| c * (tile(d) as f64 - 1.0))
                    .sum::<f64>()
                    + 1.0;
                extent.round().max(1.0) as u64
            })
            .product()
    }

    /// Number of distinct words in the whole data space for `extents`.
    pub fn total_words(&self, extents: &[u64]) -> u64 {
        self.footprint(extents)
    }
}

/// A problem: dimensions, extents, and data spaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Workload name (used in emitted specs).
    pub name: String,
    /// Dimension names (`"K"`, `"C"`, ...), indexed by dimension id.
    pub dim_names: Vec<String>,
    /// Dimension extents, same indexing.
    pub extents: Vec<u64>,
    /// Data spaces.
    pub data_spaces: Vec<DataSpace>,
}

impl ProblemSpec {
    /// Number of iteration dimensions.
    pub fn num_dims(&self) -> usize {
        self.dim_names.len()
    }

    /// Total MAC operations (product of extents).
    pub fn macs(&self) -> u64 {
        self.extents.iter().product()
    }

    /// Index of the dimension named `name`, if any.
    pub fn dim(&self, name: &str) -> Option<usize> {
        self.dim_names.iter().position(|n| n == name)
    }
}

/// Matrix multiplication `C[i][j] += A[i][k] * B[k][j]` (Fig. 3(b)).
pub fn matmul(ni: u64, nj: u64, nk: u64) -> ProblemSpec {
    ProblemSpec {
        name: format!("matmul_{ni}x{nj}x{nk}"),
        dim_names: vec!["I".into(), "J".into(), "K".into()],
        extents: vec![ni, nj, nk],
        data_spaces: vec![
            DataSpace {
                name: "A".into(),
                read_write: false,
                projection: vec![vec![(0, 1.0)], vec![(2, 1.0)]],
            },
            DataSpace {
                name: "B".into(),
                read_write: false,
                projection: vec![vec![(2, 1.0)], vec![(1, 1.0)]],
            },
            DataSpace {
                name: "C".into(),
                read_write: true,
                projection: vec![vec![(0, 1.0)], vec![(1, 1.0)]],
            },
        ],
    }
}

/// A Conv2D layer over output pixels:
/// `Out[n][k][h][w] += In[n][c][x*h+r][x*w+s] * Ker[k][c][r][s]`.
///
/// Dimension order: `n, k, c, r, s, h, w` — `h`/`w` are *output* extents and
/// `stride` is the kernel stride.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    name: &str,
    n: u64,
    k: u64,
    c: u64,
    out_h: u64,
    out_w: u64,
    kernel_h: u64,
    kernel_w: u64,
    stride: u64,
) -> ProblemSpec {
    let x = stride as f64;
    ProblemSpec {
        name: name.to_owned(),
        dim_names: ["N", "K", "C", "R", "S", "H", "W"]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        extents: vec![n, k, c, kernel_h, kernel_w, out_h, out_w],
        data_spaces: vec![
            DataSpace {
                name: "In".into(),
                read_write: false,
                projection: vec![
                    vec![(0, 1.0)],
                    vec![(2, 1.0)],
                    vec![(5, x), (3, 1.0)],
                    vec![(6, x), (4, 1.0)],
                ],
            },
            DataSpace {
                name: "Ker".into(),
                read_write: false,
                projection: vec![
                    vec![(1, 1.0)],
                    vec![(2, 1.0)],
                    vec![(3, 1.0)],
                    vec![(4, 1.0)],
                ],
            },
            DataSpace {
                name: "Out".into(),
                read_write: true,
                projection: vec![
                    vec![(0, 1.0)],
                    vec![(1, 1.0)],
                    vec![(5, 1.0)],
                    vec![(6, 1.0)],
                ],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_spec_shape() {
        let p = matmul(4, 5, 6);
        assert_eq!(p.macs(), 120);
        assert_eq!(p.num_dims(), 3);
        assert_eq!(p.dim("K"), Some(2));
        assert_eq!(p.dim("Z"), None);
        let a = &p.data_spaces[0];
        assert!(a.uses(0) && a.uses(2) && !a.uses(1));
    }

    #[test]
    fn footprint_counts_halos() {
        let p = conv2d("t", 1, 8, 4, 10, 10, 3, 3, 1);
        let input = &p.data_spaces[0];
        // Tile: h=2, w=2, c=1, everything else 1, kernel fully resident.
        let tile = [1, 1, 1, 3, 3, 2, 2];
        // extent_h = 1*(2-1) + 1*(3-1) + 1 = 4, same for w; c extent 1.
        assert_eq!(input.footprint(&tile), 4 * 4);
        // Stride-2 halo: extent = 2*(2-1) + (3-1) + 1 = 5.
        let p2 = conv2d("t", 1, 8, 4, 10, 10, 3, 3, 2);
        assert_eq!(p2.data_spaces[0].footprint(&tile), 5 * 5);
    }

    #[test]
    fn total_words_at_full_extents() {
        let p = matmul(4, 5, 6);
        assert_eq!(p.data_spaces[0].total_words(&p.extents), 24); // A: 4x6
        assert_eq!(p.data_spaces[1].total_words(&p.extents), 30); // B: 6x5
        assert_eq!(p.data_spaces[2].total_words(&p.extents), 20); // C: 4x5
    }
}
