//! Algorithm 1 of the paper: symbolic data-footprint (`DF`) and data-volume
//! (`DV`) expressions, one tensor and one tiling level at a time.
//!
//! * `DF^0` (register-level footprint) follows from the tensor's projection:
//!   a data dimension indexed by `sum_d coef_d * i_d` spans an extent of
//!   `sum_d coef_d * (T_d - 1) + 1` over a tile of extents `T_d` — a
//!   *signomial* when more than one iterator is involved (convolution).
//! * At each higher **temporal** level, [`construct_level_exprs`] walks the
//!   level's loop permutation inner-to-outer (Algorithm 1): the tensor's copy
//!   is hoisted past absent iterators; the innermost *present* iterator fixes
//!   the copy placement, rewriting the footprint; every loop outside that
//!   point multiplies the volume.
//! * The **spatial** level has no ordering: present dimensions scale the
//!   footprint and contribute distinct data per PE, while absent dimensions
//!   are multicast and cost nothing on the SRAM side ([`spatial_lift`]).

use crate::space::{Level, TilingSpace, TripCount};
use crate::workload::{Dim, TensorAccess};
use thistle_expr::{Monomial, Signomial};

/// The data footprint `DF^0` of a tensor tile at the register level.
///
/// # Examples
///
/// ```
/// use thistle_model::{footprint, ConvLayer, TilingSpace};
/// let wl = ConvLayer::new("t", 1, 8, 4, 10, 10, 3, 3, 1).workload();
/// let space = TilingSpace::new(&wl);
/// let input = &wl.tensors[0];
/// let df0 = footprint::register_footprint(&space, input);
/// assert!(!df0.is_zero());
/// ```
pub fn register_footprint(space: &TilingSpace, tensor: &TensorAccess) -> Signomial {
    footprint_through(space, tensor, Level::Register)
}

/// Closed-form footprint of a tensor tile spanning all levels through
/// `level` (inclusive): the product over data dimensions of
/// `sum_d coef_d * T_d + (1 - sum_d coef_d)` with `T_d` the tile extent of
/// iterator `d` through `level`.
///
/// Algorithm 1's incremental rewriting reproduces exactly this expression;
/// the closed form exists so the two can be checked against each other.
pub fn footprint_through(space: &TilingSpace, tensor: &TensorAccess, level: Level) -> Signomial {
    let mut df = Signomial::constant(1.0);
    for index_expr in &tensor.projection {
        df = &df * &extent_signomial(space, index_expr, level);
    }
    df
}

fn extent_signomial(space: &TilingSpace, index_expr: &[(Dim, f64)], level: Level) -> Signomial {
    let mut extent = Signomial::zero();
    let mut coef_sum = 0.0;
    for &(d, coef) in index_expr {
        if coef == 0.0 {
            continue;
        }
        let term = space.tile_extent(level, d).scale(coef);
        // Build the unit with coefficient exactly one, then scale:
        // `Signomial::from` divides the coefficient back out, and
        // `c * (1 / c)` is not 1 for some `c` (49, for one). The solver's
        // lowering reads the unit's coefficient.
        let unit = Signomial::from(Monomial::new(1.0, term.powers()));
        extent = &extent + &unit.scale(term.coeff());
        coef_sum += coef;
    }
    &extent + &Signomial::constant(1.0 - coef_sum)
}

/// The two expressions Algorithm 1 produces for one (tensor, level).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelExprs {
    /// Data footprint `DF^l` — the buffer size needed at this level.
    pub df: Signomial,
    /// Data volume `DV^l` — words moved between this level and the one below
    /// per execution of the enclosing levels (read-write tensors carry their
    /// factor 2).
    pub dv: Signomial,
}

/// Algorithm 1: given the loop permutation of a *temporal* tiling level
/// (outermost iterator first) and the footprint `DF^{l-1}` of the level
/// below, computes `DF^l` and `DV^l`.
///
/// # Panics
///
/// Panics if `level` is the register or spatial level (use
/// [`register_footprint`] / [`spatial_lift`]), or if a permutation entry has
/// a non-unit fixed trip count above the register level (cannot happen for
/// spaces built by [`TilingSpace::new`]).
pub fn construct_level_exprs(
    space: &TilingSpace,
    tensor: &TensorAccess,
    level: Level,
    perm_outer_to_inner: &[Dim],
    df_lower: &Signomial,
) -> LevelExprs {
    assert!(
        matches!(level, Level::PeTemporal | Level::Outer),
        "Algorithm 1 applies to temporal tiling levels"
    );
    let mut df = df_lower.clone();
    let mut dv = if tensor.read_write {
        df_lower.scale(2.0)
    } else {
        df_lower.clone()
    };
    let mut can_hoist = true;

    for &d in perm_outer_to_inner.iter().rev() {
        let trip = space.trip(level, d);
        let present = tensor.uses(d);
        if can_hoist {
            if present {
                // Innermost present iterator: the copy lands just above this
                // loop; the moved tile grows along `d`.
                can_hoist = false;
                df = lift_dim(space, &df, level, d, trip);
                dv = lift_dim(space, &dv, level, d, trip);
            }
            // Absent iterators below the copy point are hoisted past freely.
        } else {
            if present {
                df = lift_dim(space, &df, level, d, trip);
            }
            // Every loop surrounding the copy repeats it, present or not.
            dv = dv.mul_monomial(&trip.monomial());
        }
    }
    LevelExprs { df, dv }
}

/// The spatial level: footprints grow along present dimensions; the volume
/// gains a factor only for present dimensions (absent-dimension fanout is a
/// multicast — one SRAM read feeds the whole PE row/column).
///
/// Returns the spatial footprint `DF^spatial` and the multicast-discounted
/// volume factor (a monomial over the spatial trip counts of present dims).
pub fn spatial_lift(
    space: &TilingSpace,
    tensor: &TensorAccess,
    df_lower: &Signomial,
) -> (Signomial, Monomial) {
    let mut df = df_lower.clone();
    let mut factor = Monomial::one();
    for d in (0..space.workload().dims.len()).map(Dim) {
        if !tensor.uses(d) {
            continue;
        }
        let trip = space.trip(Level::Spatial, d);
        df = lift_dim(space, &df, Level::Spatial, d, trip);
        factor = &factor * &trip.monomial();
    }
    (df, factor)
}

/// Rewrites `expr` so dimension `d`'s tile extent absorbs this level's trip
/// count: occurrences of the nearest lower-level trip-count variable `c` are
/// replaced by `c_level * c` (the paper's `replace(expr, c^{l-1}, c^l c^{l-1})`).
fn lift_dim(
    space: &TilingSpace,
    expr: &Signomial,
    level: Level,
    d: Dim,
    trip: TripCount,
) -> Signomial {
    match trip {
        TripCount::Fixed(c) => {
            assert!(
                c == 1.0,
                "non-unit fixed trip count {c} above the register level"
            );
            expr.clone()
        }
        TripCount::Variable(cv) => {
            // The nearest lower-level trip-count variable that actually
            // occurs in the expression: levels skipped by the dataflow (trip
            // count driven to 1) may not have been folded into the footprint
            // yet, e.g. when lifting a register footprint straight to the
            // spatial level.
            let target = (0..level.index())
                .rev()
                .filter_map(|l| space.trip(crate::space::Level::ALL[l], d).var())
                .find(|&v| expr.contains(v))
                .expect("tiled dimension must occur in the footprint being lifted");
            expr.substitute(target, &Monomial::new(1.0, [(target, 1.0), (cv, 1.0)]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{matmul_workload, DimSpec, TensorAccess, Workload};
    use thistle_expr::Assignment;
    use thistle_gp as _;

    fn var_point(space: &TilingSpace, pairs: &[(&str, f64)]) -> Assignment {
        let mut point = Assignment::ones(space.registry().len());
        for (name, val) in pairs {
            let v = space
                .registry()
                .get(name)
                .unwrap_or_else(|| panic!("unknown var {name}"));
            point.set(v, *val);
        }
        point
    }

    #[test]
    fn matmul_register_footprints() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let a = &wl.tensors[0]; // A[i][k]
        let df = register_footprint(&space, a);
        let point = var_point(&space, &[("r_i", 3.0), ("r_k", 5.0), ("r_j", 7.0)]);
        assert_eq!(df.eval(&point), 15.0, "DF_A = r_i * r_k");
    }

    #[test]
    fn conv_register_footprint_is_stencil_aware() {
        // In[n][c][x*h+r][x*w+s] with stride 2, kernel 3x3 fixed at register.
        let layer = crate::ConvLayer::new("t", 1, 8, 4, 21, 21, 3, 3, 2);
        let wl = layer.workload();
        let space = TilingSpace::new(&wl);
        let input = &wl.tensors[0];
        let df = register_footprint(&space, input);
        // extent_h = 2*(T_h - 1) + (3 - 1) + 1 = 2 T_h + 1, same for w;
        // DF = r_c * (2 r_h + 1) * (2 r_w + 1)  [batch fixed at 1]
        let point = var_point(&space, &[("r_c", 4.0), ("r_h", 3.0), ("r_w", 5.0)]);
        assert_eq!(df.eval(&point), 4.0 * 7.0 * 11.0);
    }

    /// A tiny 7D workload mirroring Table I's example: `In[n][c][h+r][2w+s]`,
    /// `Out[n][k][h][w]`, with *all* dims tiled so the generic machinery must
    /// reproduce the table rows verbatim.
    fn table1_workload() -> Workload {
        let d = |i| Dim(i);
        let (n, k, c, r, s, h, w) = (d(0), d(1), d(2), d(3), d(4), d(5), d(6));
        Workload {
            name: "table1".into(),
            dims: ["n", "k", "c", "r", "s", "h", "w"]
                .iter()
                .map(|nm| DimSpec {
                    name: (*nm).into(),
                    extent: 16,
                    tiled: true,
                })
                .collect(),
            tensors: vec![
                TensorAccess {
                    name: "In".into(),
                    read_write: false,
                    projection: vec![
                        vec![(n, 1.0)],
                        vec![(c, 1.0)],
                        vec![(h, 1.0), (r, 1.0)],
                        vec![(w, 2.0), (s, 1.0)],
                    ],
                },
                TensorAccess {
                    name: "Out".into(),
                    read_write: true,
                    projection: vec![
                        vec![(n, 1.0)],
                        vec![(k, 1.0)],
                        vec![(h, 1.0)],
                        vec![(w, 1.0)],
                    ],
                },
            ],
            symmetric_dims: Vec::new(),
        }
    }

    /// Reproduces Table I of the paper row by row (final expressions).
    #[test]
    fn table1_trace() {
        let wl = table1_workload();
        let space = TilingSpace::new(&wl);
        let d = |i| Dim(i);
        let (n, k, c, r, s, h, w) = (d(0), d(1), d(2), d(3), d(4), d(5), d(6));
        let perm = vec![w, n, k, h, c, s, r]; // outer -> inner

        let reg = space.registry();
        let gv = |nm: &str| Signomial::var(reg.get(nm).unwrap());
        let point = {
            let mut p = Assignment::ones(reg.len());
            // Distinct primes so products distinguish expressions.
            for (i, nm) in [
                "r_n", "r_k", "r_c", "r_r", "r_s", "r_h", "r_w", "q_n", "q_k", "q_c", "q_r", "q_s",
                "q_h", "q_w",
            ]
            .iter()
            .enumerate()
            {
                p.set(
                    reg.get(nm).unwrap(),
                    [
                        2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0, 41.0,
                        43.0,
                    ][i],
                );
            }
            p
        };

        // DF^0 rows.
        let input = &wl.tensors[0];
        let out = &wl.tensors[1];
        let df0_in = register_footprint(&space, input);
        let df0_out = register_footprint(&space, out);
        let expected_df0_in = gv("r_n")
            * gv("r_c")
            * (gv("r_h") + gv("r_r") - Signomial::constant(1.0))
            * (gv("r_w") * 2.0 + gv("r_s") - Signomial::constant(2.0));
        assert_eq!(df0_in.eval(&point), expected_df0_in.eval(&point));
        let expected_df0_out = gv("r_n") * gv("r_k") * gv("r_h") * gv("r_w");
        assert_eq!(df0_out.eval(&point), expected_df0_out.eval(&point));

        // Level-1 DV rows (step 7 of Table I).
        let in_exprs = construct_level_exprs(&space, input, Level::PeTemporal, &perm, &df0_in);
        let expected_dv1_in = gv("q_w")
            * gv("q_n")
            * gv("q_k")
            * gv("q_h")
            * gv("q_c")
            * gv("q_s")
            * (gv("r_n")
                * gv("r_c")
                * (gv("r_h") + gv("q_r") * gv("r_r") - Signomial::constant(1.0))
                * (gv("r_w") * 2.0 + gv("r_s") - Signomial::constant(2.0)));
        assert_eq!(in_exprs.dv.eval(&point), expected_dv1_in.eval(&point));

        let out_exprs = construct_level_exprs(&space, out, Level::PeTemporal, &perm, &df0_out);
        let expected_dv1_out = gv("q_w")
            * gv("q_n")
            * gv("q_k")
            * (gv("r_n") * gv("r_k") * gv("q_h") * gv("r_h") * gv("r_w"))
            * 2.0;
        assert_eq!(out_exprs.dv.eval(&point), expected_dv1_out.eval(&point));

        // DF^1 for In (paper text): q_n r_n q_c r_c (q_h r_h + q_r r_r - 1)
        //                           (2 q_w r_w + q_s r_s - 1).
        let expected_df1_in = gv("q_n")
            * gv("r_n")
            * gv("q_c")
            * gv("r_c")
            * (gv("q_h") * gv("r_h") + gv("q_r") * gv("r_r") - Signomial::constant(1.0))
            * (gv("q_w") * gv("r_w") * 2.0 + gv("q_s") * gv("r_s") - Signomial::constant(2.0));
        assert_eq!(in_exprs.df.eval(&point), expected_df1_in.eval(&point));
    }

    /// Paper text check: `DF^1_Ker = q_k r_k q_c r_c q_r r_r q_s r_s` for the
    /// Table I permutation.
    #[test]
    fn ker_level1_footprint() {
        let layer = crate::ConvLayer::new("t", 2, 8, 4, 20, 20, 3, 3, 1);
        let wl = layer.workload();
        // Retile r/s for this check (Table I example tiles all loops).
        let mut wl = wl;
        wl.dims[3].tiled = true;
        wl.dims[4].tiled = true;
        let space = TilingSpace::new(&wl);
        let ker = wl.tensors.iter().find(|t| t.name == "Ker").unwrap().clone();
        let d = |i| Dim(i);
        let perm = vec![d(6), d(0), d(1), d(5), d(2), d(4), d(3)];
        let df0 = register_footprint(&space, &ker);
        let exprs = construct_level_exprs(&space, &ker, Level::PeTemporal, &perm, &df0);
        let reg = space.registry();
        let mut point = Assignment::ones(reg.len());
        for (nm, v) in [
            ("r_k", 2.0),
            ("r_c", 3.0),
            ("r_r", 5.0),
            ("r_s", 7.0),
            ("q_k", 11.0),
            ("q_c", 13.0),
            ("q_r", 17.0),
            ("q_s", 19.0),
        ] {
            point.set(reg.get(nm).unwrap(), v);
        }
        assert_eq!(
            exprs.df.eval(&point),
            2.0 * 3.0 * 5.0 * 7.0 * 11.0 * 13.0 * 17.0 * 19.0
        );
        // DV^1 = q_w q_n q_k q_h q_c q_s (r_k r_c q_r r_r r_s)
        let mut point2 = point.clone();
        for nm in ["q_n", "q_h", "q_w"] {
            point2.set(reg.get(nm).unwrap(), 23.0);
        }
        let expected = 23.0 * 23.0 * 11.0 * 23.0 * 13.0 * 19.0 * (2.0 * 3.0 * 17.0 * 5.0 * 7.0);
        assert_eq!(exprs.dv.eval(&point2), expected);
    }

    #[test]
    fn algorithm1_df_matches_closed_form_for_any_perm() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        let wl = table1_workload();
        let space = TilingSpace::new(&wl);
        let mut dims: Vec<Dim> = (0..7).map(Dim).collect();
        for _ in 0..25 {
            dims.shuffle(&mut rng);
            for tensor in &wl.tensors {
                let df0 = register_footprint(&space, tensor);
                let exprs = construct_level_exprs(&space, tensor, Level::PeTemporal, &dims, &df0);
                let closed = footprint_through(&space, tensor, Level::PeTemporal);
                let mut point = Assignment::ones(space.registry().len());
                for v in space.registry().iter() {
                    point.set(v, rng.gen_range(1.0..6.0f64).round());
                }
                let (a, b) = (exprs.df.eval(&point), closed.eval(&point));
                assert!(
                    (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                    "{}: {a} vs {b} for perm {dims:?}",
                    tensor.name
                );
            }
        }
    }

    #[test]
    fn spatial_lift_multicast_discounts_absent_dims() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let a = &wl.tensors[0]; // A[i][k]: j absent => multicast along p_j.
        let df0 = register_footprint(&space, a);
        let (df, factor) = spatial_lift(&space, a, &df0);
        let reg = space.registry();
        let point = {
            let mut p = Assignment::ones(reg.len());
            for (nm, v) in [
                ("r_i", 2.0),
                ("r_k", 3.0),
                ("p_i", 5.0),
                ("p_j", 7.0),
                ("p_k", 11.0),
            ] {
                p.set(reg.get(nm).unwrap(), v);
            }
            p
        };
        assert_eq!(factor.eval(&point), 5.0 * 11.0, "p_j must not appear");
        assert_eq!(df.eval(&point), (2.0 * 5.0) * (3.0 * 11.0));
    }

    #[test]
    fn read_write_tensors_carry_factor_two_in_dv_only() {
        let wl = matmul_workload(8, 8, 8);
        let space = TilingSpace::new(&wl);
        let c = wl.tensors.iter().find(|t| t.name == "C").unwrap();
        let df0 = register_footprint(&space, c);
        let perm: Vec<Dim> = (0..3).map(Dim).collect();
        let exprs = construct_level_exprs(&space, c, Level::PeTemporal, &perm, &df0);
        let point = Assignment::ones(space.registry().len());
        // All trips 1: DV = 2 * DF^0, DF unchanged.
        assert_eq!(exprs.dv.eval(&point), 2.0 * df0.eval(&point));
        assert_eq!(exprs.df.eval(&point), df0.eval(&point));
    }
}
