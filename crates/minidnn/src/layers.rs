//! Layers with exact backpropagation.
//!
//! A layer holds no parameters: only its shape and what its forward
//! caches for the backward. Every pass reads the parameters through the
//! [`RowSource`] it is handed — a model's drawn tensors
//! ([`crate::Mlp::new`]), or any source serving the same tensors, such as
//! the threaded runtime's pulled frames.

use crate::tensor::{RowSource, Tensor};
use prophet_sim::Xoshiro256StarStar;

/// Where a backward pass stores the parameter gradients it computes.
///
/// Layers own no gradient buffers: each gradient tensor is handed over
/// once, as it is finished, in pieces — tensor `id`'s elements arrive in
/// order, and a layer's tensors arrive in [`Layer::shapes`] order, one
/// after the other. A sink can keep them as `f32`s (`Vec<Vec<f32>>`, what
/// [`crate::Mlp::grad_slices`] reads) or write them straight into a wire
/// frame without an intermediate copy.
pub trait GradSink {
    /// The next elements of gradient tensor `id`.
    fn store(&mut self, id: usize, vals: &[f32]);
}

/// One `Vec` per tensor; stores append, so the caller clears them before
/// a pass.
impl GradSink for Vec<Vec<f32>> {
    fn store(&mut self, id: usize, vals: &[f32]) {
        self[id].extend_from_slice(vals);
    }
}

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass on a `batch × in` activation, returning `batch × out`.
    /// Reads the parameters from `params`, tensor `i` of
    /// [`Layer::shapes`] under id `i`.
    fn forward(&mut self, x: &Tensor, params: &mut dyn RowSource) -> Tensor;

    /// Backward pass: gradient of the loss wrt this layer's output →
    /// gradient wrt its input, reading the parameters as
    /// [`Layer::forward`] does. The parameter gradients are stored into
    /// `grads`, tensor `i` of [`Layer::shapes`] under id `i`.
    fn backward(
        &mut self,
        grad_out: &Tensor,
        grads: &mut dyn GradSink,
        params: &mut dyn RowSource,
    ) -> Tensor;

    /// The backward pass of a network's first layer: store the parameter
    /// gradients exactly as [`Layer::backward`] does, but skip the gradient
    /// wrt the input, which nothing consumes — so no parameter is read.
    fn backward_params(&mut self, grad_out: &Tensor, grads: &mut dyn GradSink);

    /// `(rows, cols)` of each parameter tensor the layer reads, weights
    /// first.
    fn shapes(&self) -> &[(usize, usize)];
}

/// Fully connected layer `y = x · w + b`: `w` is `in × out`, `b` is
/// `1 × out`.
pub struct Dense {
    shapes: [(usize, usize); 2],
    cached_x: Tensor, // input saved by forward for the backward pass
    row: Vec<f32>,    // scratch: the weight-gradient row being built
}

impl Dense {
    /// An `input → output` layer.
    pub fn new(input: usize, output: usize) -> Self {
        Dense {
            shapes: [(input, output), (1, output)],
            cached_x: Tensor::zeros(0, 0),
            row: Vec::new(),
        }
    }

    /// He-initialised parameters of an `input → output` layer: the
    /// weights drawn from `rng`, deterministic per stream, the bias zero.
    pub fn init(input: usize, output: usize, rng: &mut Xoshiro256StarStar) -> [Tensor; 2] {
        let mut data = vec![0.0; input * output];
        rng.fill_gaussian_f32((2.0 / input as f64).sqrt(), &mut data);
        [
            Tensor::from_vec(input, output, data),
            Tensor::zeros(1, output),
        ]
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, params: &mut dyn RowSource) -> Tensor {
        let (input, output) = self.shapes[0];
        assert_eq!(x.cols, input, "dense input width mismatch");
        self.cached_x = x.clone();
        let mut y = Tensor::zeros(x.rows, output);
        x.matmul_from_into(params, 0, &mut y);
        let bias = params.row(1, 0, output);
        for r in 0..y.rows {
            let row = &mut y.data[r * output..(r + 1) * output];
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        y
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        grads: &mut dyn GradSink,
        params: &mut dyn RowSource,
    ) -> Tensor {
        self.backward_params(grad_out, grads);
        // dx = dy · wᵀ.
        grad_out.matmul_t_from(params, 0, self.shapes[0].0)
    }

    fn backward_params(&mut self, grad_out: &Tensor, grads: &mut dyn GradSink) {
        assert_eq!(grad_out.rows, self.cached_x.rows, "stale forward cache");
        // dw = xᵀ · dy, stored a row at a time ; db = Σrows dy.
        self.cached_x
            .t_matmul_rows(grad_out, &mut self.row, |r| grads.store(0, r));
        grads.store(1, &grad_out.sum_rows().data);
    }

    fn shapes(&self) -> &[(usize, usize)] {
        &self.shapes
    }
}

/// Rectified linear unit.
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// A fresh ReLU.
    pub fn new() -> Self {
        Relu { mask: Vec::new() }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _params: &mut dyn RowSource) -> Tensor {
        self.mask = x.data.iter().map(|&v| v > 0.0).collect();
        let data = x.data.iter().map(|&v| v.max(0.0)).collect();
        Tensor::from_vec(x.rows, x.cols, data)
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        _grads: &mut dyn GradSink,
        _params: &mut dyn RowSource,
    ) -> Tensor {
        assert_eq!(grad_out.data.len(), self.mask.len(), "stale forward cache");
        let data = grad_out
            .data
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.rows, grad_out.cols, data)
    }

    fn backward_params(&mut self, _grad_out: &Tensor, _grads: &mut dyn GradSink) {}

    fn shapes(&self) -> &[(usize, usize)] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2);
        let w = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(1, 2, vec![10., 20.]);
        let x = Tensor::from_vec(1, 2, vec![1., 1.]);
        let y = d.forward(&x, &mut [&w, &b]);
        assert_eq!(y.data, vec![1. + 3. + 10., 2. + 4. + 20.]);
    }

    #[test]
    fn dense_backward_gradient_shapes() {
        let mut rng = Xoshiro256StarStar::new(2);
        let [w, b] = Dense::init(3, 2, &mut rng);
        let mut d = Dense::new(3, 2);
        assert_eq!(d.shapes(), [(3, 2), (1, 2)]);
        let x = Tensor::from_vec(4, 3, vec![0.5; 12]);
        let _ = d.forward(&x, &mut [&w, &b]);
        let dy = Tensor::from_vec(4, 2, vec![1.0; 8]);
        let mut grads = vec![Vec::new(); 2];
        let dx = d.backward(&dy, &mut grads, &mut [&w, &b]);
        assert_eq!((dx.rows, dx.cols), (4, 3));
        assert_eq!(grads[0].len(), 6);
        assert_eq!(grads[1].len(), 2);
        // db = column sums of dy = 4 each.
        assert_eq!(grads[1], [4.0, 4.0]);
    }

    #[test]
    fn dense_finite_difference_gradcheck() {
        let mut rng = Xoshiro256StarStar::new(3);
        let [mut w, b] = Dense::init(3, 2, &mut rng);
        let mut d = Dense::new(3, 2);
        let x = Tensor::from_vec(2, 3, vec![0.3, -0.1, 0.8, 0.5, 0.2, -0.7]);
        let _ = d.forward(&x, &mut [&w, &b]);
        let dy = Tensor::from_vec(2, 2, vec![1.0; 4]);
        let mut grads = vec![Vec::new(); 2];
        let _ = d.backward(&dy, &mut grads, &mut [&w, &b]);
        let analytic = &grads[0];
        // Loss = sum of outputs; dL/dy = ones.
        let mut loss = |w: &Tensor| -> f32 { d.forward(&x, &mut [w, &b]).data.iter().sum() };
        let eps = 1e-3f32;
        #[allow(clippy::needless_range_loop)] // k indexes both w and analytic
        for k in 0..6 {
            let orig = w.data[k];
            w.data[k] = orig + eps;
            let up = loss(&w);
            w.data[k] = orig - eps;
            let down = loss(&w);
            w.data[k] = orig;
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic[k]).abs() < 1e-2,
                "w[{k}]: numeric {numeric} vs analytic {}",
                analytic[k]
            );
        }
    }

    #[test]
    fn relu_masks_negative_paths() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-1., 2., -3., 4.]);
        let y = r.forward(&x, &mut []);
        assert_eq!(y.data, vec![0., 2., 0., 4.]);
        let dy = Tensor::from_vec(1, 4, vec![10., 10., 10., 10.]);
        let dx = r.backward(&dy, &mut Vec::new(), &mut []);
        assert_eq!(dx.data, vec![0., 10., 0., 10.]);
    }

    #[test]
    fn grads_are_stored_not_accumulated() {
        // A second backward over the same input hands over the same
        // gradients, bit for bit: nothing carries over between passes.
        let mut rng = Xoshiro256StarStar::new(4);
        let [w, b] = Dense::init(2, 2, &mut rng);
        let mut d = Dense::new(2, 2);
        let x = Tensor::from_vec(1, 2, vec![1., -0.5]);
        let dy = Tensor::from_vec(1, 2, vec![1., 0.25]);
        let mut passes = Vec::new();
        for _ in 0..2 {
            let _ = d.forward(&x, &mut [&w, &b]);
            let mut grads = vec![Vec::new(); 2];
            let _ = d.backward(&dy, &mut grads, &mut [&w, &b]);
            passes.push(grads);
        }
        assert_eq!(passes[0], passes[1]);
        assert_eq!(passes[0][0], [1.0, 0.25, -0.5, -0.125]);
    }
}
