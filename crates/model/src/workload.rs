//! Abstract workload descriptions: iteration dimensions and tensor accesses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An iteration-space dimension, identified by its index in the owning
/// [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Dim(pub usize);

impl Dim {
    /// Dense index of the dimension.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Metadata for one iteration dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimSpec {
    /// Short lower-case name used in generated variable names (`k`, `h`...).
    pub name: String,
    /// Problem extent `N_d`.
    pub extent: u64,
    /// Whether tile loops for this dimension are considered. The paper never
    /// tiles the kernel stencil dims `r`/`s` (small odd extents); untiled
    /// dims run entirely at the register level.
    pub tiled: bool,
}

/// One tensor of a workload, with its data-space projection.
///
/// Each data dimension's index expression is a linear combination of
/// iteration dimensions (e.g. `x*h + r` is `[(h, x), (r, 1)]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorAccess {
    /// Tensor name (`In`, `Ker`, `Out`, ...).
    pub name: String,
    /// `true` when the tensor is both read and written (partial sums): its
    /// data-volume expressions carry a factor 2.
    pub read_write: bool,
    /// Per data dimension: the linear index expression.
    pub projection: Vec<Vec<(Dim, f64)>>,
}

impl TensorAccess {
    /// Whether iteration dimension `d` appears in any index expression.
    pub fn uses(&self, d: Dim) -> bool {
        self.projection
            .iter()
            .any(|expr| expr.iter().any(|&(dd, c)| dd == d && c != 0.0))
    }
}

/// A perfectly nested loop computation: dimensions plus tensors.
///
/// # Examples
///
/// ```
/// use thistle_model::{matmul_workload, ConvLayer};
/// let mm = matmul_workload(64, 64, 64);
/// assert_eq!(mm.dims.len(), 3);
/// assert_eq!(mm.tensors.len(), 3);
/// let conv = ConvLayer::new("l1", 1, 32, 3, 544, 544, 3, 3, 1).workload();
/// assert_eq!(conv.dims.len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable workload name.
    pub name: String,
    /// Iteration dimensions, indexed by [`Dim`].
    pub dims: Vec<DimSpec>,
    /// Tensors accessed by the computation.
    pub tensors: Vec<TensorAccess>,
    /// Pairs of dimensions the cost model is symmetric in (e.g. `h`/`w` of a
    /// square convolution): permutations that differ only by swapping such a
    /// pair are pruned to one representative.
    pub symmetric_dims: Vec<(Dim, Dim)>,
}

impl Workload {
    /// Dimensions that participate in tiling (extent > 1 and `tiled`).
    pub fn tiled_dims(&self) -> Vec<Dim> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tiled && s.extent > 1)
            .map(|(i, _)| Dim(i))
            .collect()
    }

    /// Total number of iteration points (`N_ops` — one MAC each).
    pub fn num_ops(&self) -> f64 {
        self.dims.iter().map(|d| d.extent as f64).product()
    }

    /// The extent of dimension `d`.
    pub fn extent(&self, d: Dim) -> u64 {
        self.dims[d.index()].extent
    }

    /// The name of dimension `d`.
    pub fn dim_name(&self, d: Dim) -> &str {
        &self.dims[d.index()].name
    }
}

/// One Conv2D layer, in the paper's Table II parameterization.
///
/// `h`/`w` are the *input* image height/width; the iteration space runs over
/// output pixels, so the modeled extents for the spatial dims are
/// `out_h()`/`out_w()`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayer {
    /// Layer name (e.g. `resnet_4`).
    pub name: String,
    /// Batch size `N`.
    pub batch: u64,
    /// Output channels `K`.
    pub out_channels: u64,
    /// Input channels `C`.
    pub in_channels: u64,
    /// Input image height `H`.
    pub in_h: u64,
    /// Input image width `W`.
    pub in_w: u64,
    /// Kernel height `R`.
    pub kernel_h: u64,
    /// Kernel width `S`.
    pub kernel_w: u64,
    /// Stride (both spatial axes, per Table II).
    pub stride: u64,
    /// Kernel dilation (both axes); 1 = dense convolution.
    pub dilation: u64,
}

/// Largest extent, stride or dilation [`ConvLayer::try_new`] accepts:
/// 2^53, the largest integer a JSON request carries exactly, and the limit
/// below which every integer is exact as the `f64` the GP model uses.
pub const MAX_EXTENT: u64 = 1 << 53;

/// Why [`ConvLayer::try_new`] rejected a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerError {
    /// An extent, the stride or the dilation is zero; names the field.
    ZeroExtent(&'static str),
    /// An extent, the stride or the dilation is above [`MAX_EXTENT`];
    /// names the field.
    ExtentTooLarge(&'static str),
    /// `(kernel, dilation, image)`: the dilated kernel
    /// `dilation*(kernel-1) + 1` is larger than the image on one axis.
    KernelLargerThanImage(u64, u64, u64),
    /// The layer's multiply-accumulate count overflows `u64`.
    MacsOverflow,
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayerError::ZeroExtent(field) => write!(f, "layer {field} must be positive"),
            LayerError::ExtentTooLarge(field) => {
                write!(f, "layer {field} exceeds 2^53 ({MAX_EXTENT})")
            }
            LayerError::KernelLargerThanImage(kernel, dilation, image) => write!(
                f,
                "{}kernel larger than input image: dilation {dilation} x kernel {kernel} \
                 exceeds image {image}",
                if dilation > 1 { "dilated " } else { "" }
            ),
            LayerError::MacsOverflow => write!(f, "layer MAC count overflows u64"),
        }
    }
}

impl std::error::Error for LayerError {}

impl ConvLayer {
    /// Builds a layer, checking it: arguments follow Table II order, plus
    /// the kernel dilation (1 = dense).
    ///
    /// Rejects a zero extent, stride or dilation, one above [`MAX_EXTENT`],
    /// a dilated kernel larger than the image, and a MAC count that
    /// overflows `u64`, all in checked arithmetic, so any `u64` input gets
    /// an answer. Front ends that read
    /// layers from users call this; [`ConvLayer::new`] and
    /// [`ConvLayer::with_dilation`] panic on the same errors.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        name: &str,
        batch: u64,
        out_channels: u64,
        in_channels: u64,
        in_h: u64,
        in_w: u64,
        kernel_h: u64,
        kernel_w: u64,
        stride: u64,
        dilation: u64,
    ) -> Result<Self, LayerError> {
        ConvLayer {
            name: name.to_owned(),
            batch,
            out_channels,
            in_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            dilation,
        }
        .checked()
    }

    fn checked(self) -> Result<Self, LayerError> {
        let extents = [
            ("batch", self.batch),
            ("out_channels", self.out_channels),
            ("in_channels", self.in_channels),
            ("in_h", self.in_h),
            ("in_w", self.in_w),
            ("kernel_h", self.kernel_h),
            ("kernel_w", self.kernel_w),
            ("stride", self.stride),
            ("dilation", self.dilation),
        ];
        if let Some(&(field, _)) = extents.iter().find(|(_, v)| *v == 0) {
            return Err(LayerError::ZeroExtent(field));
        }
        if let Some(&(field, _)) = extents.iter().find(|(_, v)| *v > MAX_EXTENT) {
            return Err(LayerError::ExtentTooLarge(field));
        }
        // `dilation * (kernel - 1)` is the dilated kernel's span minus one;
        // it may overflow, and then the kernel certainly does not fit.
        let dilation = self.dilation;
        for (kernel, image) in [(self.kernel_h, self.in_h), (self.kernel_w, self.in_w)] {
            if dilation
                .checked_mul(kernel - 1)
                .is_none_or(|span| span >= image)
            {
                return Err(LayerError::KernelLargerThanImage(kernel, dilation, image));
            }
        }
        let factors = [
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        ];
        (factors.into_iter().chain([self.out_h(), self.out_w()]))
            .try_fold(self.batch, u64::checked_mul)
            .ok_or(LayerError::MacsOverflow)?;
        Ok(self)
    }

    /// Builds a dense layer; arguments follow Table II order.
    ///
    /// # Panics
    ///
    /// Panics where [`ConvLayer::try_new`] returns an error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        batch: u64,
        out_channels: u64,
        in_channels: u64,
        in_h: u64,
        in_w: u64,
        kernel_h: u64,
        kernel_w: u64,
        stride: u64,
    ) -> Self {
        Self::try_new(
            name,
            batch,
            out_channels,
            in_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            1,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the kernel dilation (the paper notes dilation is handled like
    /// stride: it only changes the input projection's coefficients).
    ///
    /// # Panics
    ///
    /// Panics where [`ConvLayer::try_new`] returns an error, e.g. when the
    /// dilated kernel exceeds the input image.
    pub fn with_dilation(self, dilation: u64) -> Self {
        ConvLayer { dilation, ..self }
            .checked()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Effective kernel height under dilation: `dilation*(R-1) + 1`.
    pub fn dilated_kernel_h(&self) -> u64 {
        self.dilation * (self.kernel_h - 1) + 1
    }

    /// Effective kernel width under dilation: `dilation*(S-1) + 1`.
    pub fn dilated_kernel_w(&self) -> u64 {
        self.dilation * (self.kernel_w - 1) + 1
    }

    /// Output height `(H - dilated_R) / stride + 1`.
    pub fn out_h(&self) -> u64 {
        (self.in_h - self.dilated_kernel_h()) / self.stride + 1
    }

    /// Output width `(W - dilated_S) / stride + 1`.
    pub fn out_w(&self) -> u64 {
        (self.in_w - self.dilated_kernel_w()) / self.stride + 1
    }

    /// Multiply-accumulate operations in the layer.
    pub fn macs(&self) -> u64 {
        self.batch
            * self.out_channels
            * self.in_channels
            * self.kernel_h
            * self.kernel_w
            * self.out_h()
            * self.out_w()
    }

    /// The 7-dimensional workload (Listing 1 of the paper):
    /// `Out[n][k][h][w] += In[n][c][x*h+r][y*w+s] * Ker[k][c][r][s]`.
    ///
    /// Dimension order: `n, k, c, r, s, h, w`; the stencil dims `r`/`s` are
    /// marked untiled, per the paper's pruning.
    pub fn workload(&self) -> Workload {
        let dim = |i| Dim(i);
        let (n, k, c, r, s, h, w) = (dim(0), dim(1), dim(2), dim(3), dim(4), dim(5), dim(6));
        let x = self.stride as f64;
        let delta = self.dilation as f64;
        Workload {
            name: self.name.clone(),
            dims: vec![
                DimSpec {
                    name: "n".into(),
                    extent: self.batch,
                    tiled: true,
                },
                DimSpec {
                    name: "k".into(),
                    extent: self.out_channels,
                    tiled: true,
                },
                DimSpec {
                    name: "c".into(),
                    extent: self.in_channels,
                    tiled: true,
                },
                DimSpec {
                    name: "r".into(),
                    extent: self.kernel_h,
                    tiled: false,
                },
                DimSpec {
                    name: "s".into(),
                    extent: self.kernel_w,
                    tiled: false,
                },
                DimSpec {
                    name: "h".into(),
                    extent: self.out_h(),
                    tiled: true,
                },
                DimSpec {
                    name: "w".into(),
                    extent: self.out_w(),
                    tiled: true,
                },
            ],
            tensors: vec![
                TensorAccess {
                    name: "In".into(),
                    read_write: false,
                    projection: vec![
                        vec![(n, 1.0)],
                        vec![(c, 1.0)],
                        vec![(h, x), (r, delta)],
                        vec![(w, x), (s, delta)],
                    ],
                },
                TensorAccess {
                    name: "Ker".into(),
                    read_write: false,
                    projection: vec![
                        vec![(k, 1.0)],
                        vec![(c, 1.0)],
                        vec![(r, 1.0)],
                        vec![(s, 1.0)],
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
            symmetric_dims: if self.out_h() == self.out_w() && self.kernel_h == self.kernel_w {
                vec![(h, w)]
            } else {
                Vec::new()
            },
        }
    }
}

/// The matrix-multiplication workload of the paper's Section II:
/// `C[i][j] += A[i][k] * B[k][j]` with extents `(ni, nj, nk)`.
///
/// Dimension order: `i, j, k`.
pub fn matmul_workload(ni: u64, nj: u64, nk: u64) -> Workload {
    let (i, j, k) = (Dim(0), Dim(1), Dim(2));
    Workload {
        name: format!("matmul_{ni}x{nj}x{nk}"),
        dims: vec![
            DimSpec {
                name: "i".into(),
                extent: ni,
                tiled: true,
            },
            DimSpec {
                name: "j".into(),
                extent: nj,
                tiled: true,
            },
            DimSpec {
                name: "k".into(),
                extent: nk,
                tiled: true,
            },
        ],
        tensors: vec![
            TensorAccess {
                name: "A".into(),
                read_write: false,
                projection: vec![vec![(i, 1.0)], vec![(k, 1.0)]],
            },
            TensorAccess {
                name: "B".into(),
                read_write: false,
                projection: vec![vec![(k, 1.0)], vec![(j, 1.0)]],
            },
            TensorAccess {
                name: "C".into(),
                read_write: true,
                projection: vec![vec![(i, 1.0)], vec![(j, 1.0)]],
            },
        ],
        symmetric_dims: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_dims_respect_stride() {
        let l = ConvLayer::new("t", 1, 64, 3, 224, 224, 7, 7, 2);
        assert_eq!(l.out_h(), (224 - 7) / 2 + 1);
        assert_eq!(l.out_h(), 109);
        let l1 = ConvLayer::new("t", 1, 64, 64, 56, 56, 3, 3, 1);
        assert_eq!(l1.out_h(), 54);
    }

    #[test]
    fn macs_counts_iteration_points() {
        let l = ConvLayer::new("t", 2, 8, 4, 10, 10, 3, 3, 1);
        assert_eq!(l.macs(), 2 * 8 * 4 * 3 * 3 * 8 * 8);
        assert_eq!(l.workload().num_ops(), l.macs() as f64);
    }

    #[test]
    fn conv_workload_presence_matches_listing1() {
        let wl = ConvLayer::new("t", 1, 8, 4, 10, 10, 3, 3, 1).workload();
        let by_name = |n: &str| wl.tensors.iter().find(|t| t.name == n).unwrap();
        let (n, k, c, r, s, h, w) = (Dim(0), Dim(1), Dim(2), Dim(3), Dim(4), Dim(5), Dim(6));
        let input = by_name("In");
        assert!(input.uses(n) && input.uses(c) && input.uses(h) && input.uses(w));
        assert!(input.uses(r) && input.uses(s));
        assert!(!input.uses(k));
        let ker = by_name("Ker");
        assert!(ker.uses(k) && ker.uses(c) && ker.uses(r) && ker.uses(s));
        assert!(!ker.uses(n) && !ker.uses(h) && !ker.uses(w));
        let out = by_name("Out");
        assert!(out.read_write);
        assert!(out.uses(n) && out.uses(k) && out.uses(h) && out.uses(w));
        assert!(!out.uses(c) && !out.uses(r) && !out.uses(s));
    }

    #[test]
    fn tiled_dims_exclude_stencil_and_unit_extents() {
        // batch 1: n is excluded by extent; r/s excluded by flag.
        let wl = ConvLayer::new("t", 1, 8, 4, 10, 10, 3, 3, 1).workload();
        let names: Vec<_> = wl
            .tiled_dims()
            .into_iter()
            .map(|d| wl.dim_name(d).to_owned())
            .collect();
        assert_eq!(names, ["k", "c", "h", "w"]);
    }

    #[test]
    fn matmul_has_full_symmetric_structure() {
        let wl = matmul_workload(16, 32, 64);
        assert_eq!(wl.tiled_dims().len(), 3);
        assert_eq!(wl.num_ops(), 16.0 * 32.0 * 64.0);
        let c = wl.tensors.iter().find(|t| t.name == "C").unwrap();
        assert!(c.read_write);
    }

    #[test]
    #[should_panic(expected = "kernel larger")]
    fn rejects_kernel_bigger_than_image() {
        ConvLayer::new("bad", 1, 8, 4, 2, 2, 3, 3, 1);
    }

    #[test]
    fn dilation_changes_projection_and_extents() {
        let l = ConvLayer::new("d", 1, 8, 4, 20, 20, 3, 3, 1).with_dilation(2);
        assert_eq!(l.dilated_kernel_h(), 5);
        assert_eq!(l.out_h(), 16);
        let wl = l.workload();
        let input = &wl.tensors[0];
        // r appears with coefficient 2 in the input projection.
        let r_coef = input
            .projection
            .iter()
            .flat_map(|e| e.iter())
            .find(|&&(d, _)| d == Dim(3))
            .map(|&(_, c)| c)
            .unwrap();
        assert_eq!(r_coef, 2.0);
    }

    #[test]
    #[should_panic(expected = "dilated kernel larger")]
    fn rejects_oversized_dilation() {
        let _ = ConvLayer::new("d", 1, 8, 4, 5, 5, 3, 3, 1).with_dilation(3);
    }

    #[test]
    fn try_new_rejects_zero_extents_and_oversized_kernels() {
        let layer = |v: [u64; 9]| {
            ConvLayer::try_new("t", v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8])
        };
        let dense = [1, 8, 4, 10, 12, 3, 1, 2, 1];
        assert_eq!(
            layer(dense),
            Ok(ConvLayer::new("t", 1, 8, 4, 10, 12, 3, 1, 2))
        );
        for (i, field) in ["batch", "out_channels", "in_channels", "in_h", "in_w"]
            .into_iter()
            .chain(["kernel_h", "kernel_w", "stride", "dilation"])
            .enumerate()
        {
            let mut v = dense;
            v[i] = 0;
            assert_eq!(layer(v), Err(LayerError::ZeroExtent(field)));
        }
        // A dilated kernel exactly as tall as the image fits; one more
        // row does not, on either axis.
        let fits = ConvLayer::new("t", 1, 8, 4, 5, 5, 3, 3, 1).with_dilation(2);
        assert_eq!(layer([1, 8, 4, 5, 5, 3, 3, 1, 2]), Ok(fits));
        let tall = LayerError::KernelLargerThanImage(3, 3, 5);
        assert_eq!(layer([1, 8, 4, 5, 9, 3, 3, 1, 3]), Err(tall));
        let wide = layer([1, 8, 4, 9, 5, 3, 6, 1, 1]).unwrap_err();
        assert!(wide
            .to_string()
            .starts_with("kernel larger than input image"));
        // `dilation * (R - 1)` overflows u64: rejected, not wrapped to a
        // small span that seems to fit.
        let (r, d) = (4_294_967_297, 4_294_967_296);
        let wrapped = LayerError::KernelLargerThanImage(r, d, 100);
        assert_eq!(layer([1, 64, 64, 100, 100, r, r, 1, d]), Err(wrapped));
    }

    #[test]
    fn try_new_rejects_a_mac_count_past_u64() {
        let big = 1u64 << 40;
        let err = ConvLayer::try_new("t", 1, big, big, 8, 8, 3, 3, 1, 1);
        assert_eq!(err, Err(LayerError::MacsOverflow));
        // The largest count that fits is accepted, one more factor is not:
        // u64::MAX = (2^32 - 1) * (2^32 + 1), both within the extent cap.
        let (lo, hi) = (u32::MAX as u64, u32::MAX as u64 + 2);
        let max = ConvLayer::try_new("t", lo, hi, 1, 1, 1, 1, 1, 1, 1).unwrap();
        assert_eq!(max.macs(), u64::MAX);
        let over = ConvLayer::try_new("t", lo, hi, 2, 1, 1, 1, 1, 1, 1);
        assert_eq!(over, Err(LayerError::MacsOverflow));
    }

    #[test]
    fn try_new_caps_every_field_at_2_pow_53() {
        let fields = ["batch", "out_channels", "in_channels", "in_h", "in_w"]
            .into_iter()
            .chain(["kernel_h", "kernel_w", "stride", "dilation"]);
        for (i, field) in fields.enumerate() {
            let layer = |v: u64| {
                let mut f = [1; 9];
                f[i] = v;
                // A kernel as large as the cap needs an image to fit in.
                if i == 5 || i == 6 {
                    f[i - 2] = MAX_EXTENT;
                }
                ConvLayer::try_new("t", f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7], f[8])
            };
            assert!(layer(MAX_EXTENT).is_ok(), "{field} at 2^53");
            let over = layer(MAX_EXTENT + 1);
            assert_eq!(over, Err(LayerError::ExtentTooLarge(field)));
            assert!(over.unwrap_err().to_string().contains(field));
        }
    }
}
