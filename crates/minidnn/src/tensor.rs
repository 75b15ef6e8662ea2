//! Dense row-major 2-D tensors with the handful of ops an MLP needs.
//!
//! Everything is `f32` (like the gradients the paper ships over the wire)
//! and allocation-explicit: hot-loop ops offer `*_into` variants writing
//! into caller-provided buffers so the training loop allocates nothing per
//! step once warmed up.
//!
//! The two products a Dense layer takes with its weight matrix, `x · W`
//! and `dy · Wᵀ`, read `W` through a [`RowSource`] one row at a time, in
//! row order: a `Tensor` is one source, and a caller holding the weights
//! elsewhere — the threaded runtime keeps them in the pull frames it
//! received — is another. Each product has one kernel, whatever the source.

/// Where a product reads a matrix it multiplies by: row `k` of tensor
/// `tensor`, `width` elements long. A product asks for the rows of one
/// tensor in order, `0, 1, 2, …`, and holds each only until it asks for
/// the next — so a source may hand out a view into its own storage or
/// assemble the row in one scratch row it reuses.
pub trait RowSource {
    /// Row `k` (`width` elements) of tensor `tensor`.
    fn row(&mut self, tensor: usize, k: usize, width: usize) -> &[f32];
}

/// Tensors side by side are a source: tensor `i` is the `i`-th.
impl<const N: usize> RowSource for [&Tensor; N] {
    fn row(&mut self, tensor: usize, k: usize, width: usize) -> &[f32] {
        let t = self[tensor];
        assert_eq!(width, t.cols, "row width mismatch");
        t.row(k)
    }
}

/// A list of tensors is a source: tensor `i` is the `i`-th.
impl RowSource for Vec<Tensor> {
    fn row(&mut self, tensor: usize, k: usize, width: usize) -> &[f32] {
        let t = &self[tensor];
        assert_eq!(width, t.cols, "row width mismatch");
        t.row(k)
    }
}

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Tensor {
    /// A zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from existing storage. Panics on size mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/storage mismatch");
        Tensor { rows, cols, data }
    }

    /// Element `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `self · other` into a fresh tensor.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `out = self · other`, reusing `out`'s storage: [`Tensor::matmul_from_into`]
    /// with `other` as the source.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        self.matmul_from_into(&mut [other], 0, out);
    }

    /// `out = self · W`, where `W` is tensor `id` of `src`, `self.cols ×
    /// out.cols`, read a row at a time.
    ///
    /// k-outer: row `k` of `W` is asked for once and added into every
    /// output row while it is cache-hot, so `W` is walked once however
    /// many rows `self` has. Each output element still adds its products
    /// in `k` order, starting from `+0.0` and skipping zero inputs — the
    /// sums of the row-by-row (`i`-outer) product, bit for bit.
    pub fn matmul_from_into(&self, src: &mut dyn RowSource, id: usize, out: &mut Tensor) {
        assert_eq!(out.rows, self.rows, "matmul shape mismatch");
        out.data.fill(0.0);
        let n = out.cols;
        if n == 0 {
            return;
        }
        for k in 0..self.cols {
            let b_row = src.row(id, k, n);
            for (i, out_row) in out.data.chunks_exact_mut(n).enumerate() {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `selfᵀ · other` (used for weight gradients: `xᵀ · dy`).
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out);
        out
    }

    /// `out += selfᵀ · other`, accumulating in place.
    ///
    /// Element-by-element this adds the products in the same order
    /// `t_matmul` forms them, so accumulating into a zeroed gradient
    /// buffer is bit-identical to building the product in a temporary
    /// and adding it — minus the temporary's multi-megabyte allocation,
    /// zero-fill, and extra read/write pass.
    pub fn t_matmul_acc(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        assert_eq!(out.rows, self.cols);
        assert_eq!(out.cols, other.cols);
        let n = other.cols;
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `selfᵀ · other`, one finished output row at a time: row `k` is built
    /// in the scratch `row` and handed to `emit` before row `k + 1` starts,
    /// so the caller can store it (and checksum it) while it is cache-hot
    /// instead of walking a whole product buffer again. Weight gradients
    /// (`xᵀ · dy`) are stored through this.
    ///
    /// Per element the products add in the order [`Tensor::t_matmul_acc`]
    /// adds them into a zeroed buffer — over `self`'s rows in order,
    /// skipping zero inputs — and the first one is stored as `0.0 + a·b`,
    /// so signed zeros come out exactly as accumulating into `+0.0` made
    /// them: the rows are bit-identical to that product's.
    pub fn t_matmul_rows(&self, other: &Tensor, row: &mut Vec<f32>, mut emit: impl FnMut(&[f32])) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        row.resize(other.cols, 0.0);
        for k in 0..self.cols {
            let mut stored = false;
            for r in 0..self.rows {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(r);
                if stored {
                    for (o, &b) in row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                } else {
                    for (o, &b) in row.iter_mut().zip(b_row) {
                        *o = 0.0 + a * b;
                    }
                    stored = true;
                }
            }
            if !stored {
                row.fill(0.0);
            }
            emit(row);
        }
    }

    /// `self · otherᵀ` (used for input gradients: `dy · wᵀ`):
    /// [`Tensor::matmul_t_from`] with `other` as the source.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        self.matmul_t_from(&mut [other], 0, other.rows)
    }

    /// `self · Wᵀ`, where `W` is tensor `id` of `src`, `rows × self.cols`,
    /// read a row at a time: output column `j` is the eight-lane inner
    /// product of each row of `self` with row `j` of `W`.
    pub fn matmul_t_from(&self, src: &mut dyn RowSource, id: usize, rows: usize) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rows);
        for j in 0..rows {
            let w_row = src.row(id, j, self.cols);
            for i in 0..self.rows {
                out.data[i * rows + j] = Self::dot(self.row(i), w_row);
            }
        }
        out
    }

    /// Inner product with eight independent partial sums.
    ///
    /// A single running `acc += a * b` chains every addition through the
    /// FPU's add latency, capping the loop at one element per ~4 cycles
    /// and blocking vectorisation. Eight lanes break the chain (the
    /// compiler turns the lane loop into one SIMD multiply-add per 8
    /// elements) and are reduced in a fixed order, so the result is
    /// deterministic — the same for every run, worker, and shard count,
    /// which is all the bit-transparency suites require.
    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        const LANES: usize = 8;
        let mut acc = [0.0f32; LANES];
        let chunks = a.len() / LANES * LANES;
        for (ca, cb) in a[..chunks]
            .chunks_exact(LANES)
            .zip(b[..chunks].chunks_exact(LANES))
        {
            for l in 0..LANES {
                acc[l] += ca[l] * cb[l];
            }
        }
        let mut s =
            ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
        for (&x, &y) in a[chunks..].iter().zip(&b[chunks..]) {
            s += x * y;
        }
        s
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.data.len(), other.data.len(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum over rows → a `1 × cols` tensor (bias gradients).
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let i = t(2, 2, &[1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        // aᵀ·b where aᵀ is 2x3.
        let at = t(2, 3, &[1., 3., 5., 2., 4., 6.]);
        assert_eq!(a.t_matmul(&b), at.matmul(&b));
    }

    #[test]
    fn t_matmul_rows_is_bit_identical_to_accumulating_into_zeros() {
        // Zero inputs (skipped rows), negative-zero products, cancellation
        // and a column no row contributes to, at batch 1 and batch > 1.
        let x = t(
            3,
            4,
            &[
                0.0, -1.5, 2.0, 0.0, 0.0, 3.0, -0.0, 0.0, 0.0, 1.5, 1e-30, 0.0,
            ],
        );
        let dy = t(3, 3, &[-0.0, 2.0, 1e30, 4.0, 0.0, -1e30, -1.0, -0.0, 7.0]);
        for rows in [1, 3] {
            let x = t(rows, 4, &x.data[..rows * 4]);
            let dy = t(rows, 3, &dy.data[..rows * 3]);
            let mut reference = Tensor::zeros(4, 3);
            x.t_matmul_acc(&dy, &mut reference);
            let mut stored = Vec::new();
            let mut row = Vec::new();
            x.t_matmul_rows(&dy, &mut row, |r| stored.extend_from_slice(r));
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&stored), bits(&reference.data), "batch {rows}");
        }
    }

    #[test]
    fn k_outer_matmul_is_bit_identical_to_the_row_by_row_product() {
        // Zero inputs (skipped), signed zeros, cancellation and a huge
        // range, at one sample row and several: every output element adds
        // the same products in the same order as the i-outer loop.
        let vals = [0.0, -1.5, 2.0, -0.0, 1e30, 3.0, -1e30, 0.25, 1e-30, -7.0];
        let a = t(3, 5, &(0..15).map(|i| vals[i % 10]).collect::<Vec<_>>());
        let b = t(
            5,
            4,
            &(0..20).map(|i| vals[(i * 7 + 3) % 10]).collect::<Vec<_>>(),
        );
        for rows in [1, 3] {
            let a = t(rows, 5, &a.data[..rows * 5]);
            let mut reference = Tensor::zeros(rows, 4);
            for i in 0..rows {
                for k in 0..5 {
                    let x = a.at(i, k);
                    if x == 0.0 {
                        continue;
                    }
                    for c in 0..4 {
                        *reference.at_mut(i, c) += x * b.at(k, c);
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.matmul(&b).data),
                bits(&reference.data),
                "batch {rows}"
            );
        }
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(4, 3, &(1..=12).map(|x| x as f32).collect::<Vec<_>>());
        let bt = {
            let mut out = Tensor::zeros(3, 4);
            for r in 0..4 {
                for c in 0..3 {
                    *out.at_mut(c, r) = b.at(r, c);
                }
            }
            out
        };
        assert_eq!(a.matmul_t(&b), a.matmul(&bt));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[10., 20., 30.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data, vec![6., 12., 18.]);
        a.scale(2.0);
        assert_eq!(a.data, vec![12., 24., 36.]);
    }

    #[test]
    fn sum_rows_collapses() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_rows().data, vec![5., 7., 9.]);
    }

    #[test]
    fn norm_and_diff() {
        let a = t(1, 2, &[3., 4.]);
        let mut b = t(1, 2, &[3., 7.]);
        b.axpy(-1.0, &a);
        assert_eq!(b.data, [0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = t(2, 3, &[0.; 6]);
        let b = t(2, 3, &[0.; 6]);
        a.matmul(&b);
    }
}
