//! Layers with exact backpropagation.

use crate::tensor::Tensor;
use prophet_sim::Xoshiro256StarStar;

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass on a `batch × in` activation, returning `batch × out`.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass: gradient of the loss wrt this layer's output →
    /// gradient wrt its input, accumulating parameter gradients internally.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Flattened views of this layer's parameter tensors (weights first).
    fn params(&self) -> Vec<&[f32]>;

    /// Mutable flattened parameter tensors.
    fn params_mut(&mut self) -> Vec<&mut [f32]>;

    /// Flattened parameter gradients, matching [`Layer::params`] order.
    fn grads(&self) -> Vec<&[f32]>;

    /// Reset accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// A deep copy behind a fresh box (what makes a model `Clone`).
    fn boxed_clone(&self) -> Box<dyn Layer>;
}

/// Fully connected layer `y = x · w + b`.
#[derive(Clone)]
pub struct Dense {
    w: Tensor,        // in × out
    b: Tensor,        // 1 × out
    dw: Tensor,       // gradient wrt w
    db: Tensor,       // gradient wrt b
    cached_x: Tensor, // input saved by forward for the backward pass
}

impl Dense {
    /// He-initialised layer, deterministic per `rng` stream.
    pub fn new(input: usize, output: usize, rng: &mut Xoshiro256StarStar) -> Self {
        let std = (2.0 / input as f64).sqrt();
        let data: Vec<f32> = (0..input * output)
            .map(|_| (rng.next_gaussian() * std) as f32)
            .collect();
        Dense {
            w: Tensor::from_vec(input, output, data),
            b: Tensor::zeros(1, output),
            dw: Tensor::zeros(input, output),
            db: Tensor::zeros(1, output),
            cached_x: Tensor::zeros(0, 0),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.rows
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.cols
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, self.w.rows, "dense input width mismatch");
        self.cached_x = x.clone();
        let mut y = x.matmul(&self.w);
        for r in 0..y.rows {
            let row = &mut y.data[r * y.cols..(r + 1) * y.cols];
            for (v, &bias) in row.iter_mut().zip(&self.b.data) {
                *v += bias;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.rows, self.cached_x.rows, "stale forward cache");
        // dw += xᵀ · dy ; db += Σrows dy ; dx = dy · wᵀ.
        self.cached_x.t_matmul_acc(grad_out, &mut self.dw);
        let db = grad_out.sum_rows();
        self.db.axpy(1.0, &db);
        grad_out.matmul_t(&self.w)
    }

    fn params(&self) -> Vec<&[f32]> {
        vec![&self.w.data, &self.b.data]
    }

    fn params_mut(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.w.data, &mut self.b.data]
    }

    fn grads(&self) -> Vec<&[f32]> {
        vec![&self.dw.data, &self.db.data]
    }

    fn zero_grads(&mut self) {
        self.dw.data.fill(0.0);
        self.db.data.fill(0.0);
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Rectified linear unit.
#[derive(Clone)]
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
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask = x.data.iter().map(|&v| v > 0.0).collect();
        let data = x.data.iter().map(|&v| v.max(0.0)).collect();
        Tensor::from_vec(x.rows, x.cols, data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.data.len(), self.mask.len(), "stale forward cache");
        let data = grad_out
            .data
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.rows, grad_out.cols, data)
    }

    fn params(&self) -> Vec<&[f32]> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut [f32]> {
        vec![]
    }

    fn grads(&self) -> Vec<&[f32]> {
        vec![]
    }

    fn zero_grads(&mut self) {}

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_known_values() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        d.w = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        d.b = Tensor::from_vec(1, 2, vec![10., 20.]);
        let x = Tensor::from_vec(1, 2, vec![1., 1.]);
        let y = d.forward(&x);
        assert_eq!(y.data, vec![1. + 3. + 10., 2. + 4. + 20.]);
    }

    #[test]
    fn dense_backward_gradient_shapes() {
        let mut rng = Xoshiro256StarStar::new(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(4, 3, vec![0.5; 12]);
        let _ = d.forward(&x);
        let dy = Tensor::from_vec(4, 2, vec![1.0; 8]);
        let dx = d.backward(&dy);
        assert_eq!((dx.rows, dx.cols), (4, 3));
        assert_eq!(d.grads()[0].len(), 6);
        assert_eq!(d.grads()[1].len(), 2);
        // db = column sums of dy = 4 each.
        assert_eq!(d.grads()[1], &[4.0, 4.0]);
    }

    #[test]
    fn dense_finite_difference_gradcheck() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(2, 3, vec![0.3, -0.1, 0.8, 0.5, 0.2, -0.7]);
        // Loss = sum of outputs; dL/dy = ones.
        let loss = |d: &mut Dense, x: &Tensor| -> f32 { d.forward(x).data.iter().sum() };
        let _ = d.forward(&x);
        let dy = Tensor::from_vec(2, 2, vec![1.0; 4]);
        d.zero_grads();
        let _ = d.backward(&dy);
        let analytic: Vec<f32> = d.grads()[0].to_vec();
        let eps = 1e-3f32;
        #[allow(clippy::needless_range_loop)] // k indexes both w and analytic
        for k in 0..6 {
            let orig = d.w.data[k];
            d.w.data[k] = orig + eps;
            let up = loss(&mut d, &x);
            d.w.data[k] = orig - eps;
            let down = loss(&mut d, &x);
            d.w.data[k] = orig;
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
        let y = r.forward(&x);
        assert_eq!(y.data, vec![0., 2., 0., 4.]);
        let dy = Tensor::from_vec(1, 4, vec![10., 10., 10., 10.]);
        let dx = r.backward(&dy);
        assert_eq!(dx.data, vec![0., 10., 0., 10.]);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = Xoshiro256StarStar::new(4);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(1, 2, vec![1., 1.]);
        let dy = Tensor::from_vec(1, 2, vec![1., 1.]);
        let _ = d.forward(&x);
        let _ = d.backward(&dy);
        let after_one: Vec<f32> = d.grads()[0].to_vec();
        let _ = d.forward(&x);
        let _ = d.backward(&dy);
        let after_two: Vec<f32> = d.grads()[0].to_vec();
        for (a, b) in after_one.iter().zip(&after_two) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
        d.zero_grads();
        assert!(d.grads()[0].iter().all(|&g| g == 0.0));
    }
}
