//! The MLP model: a layer stack with the gradient-tensor view the
//! parameter-server runtime schedules.
//!
//! Gradient/parameter tensors are numbered in **forward order** (layer 0's
//! weight = gradient 0), matching the priority convention of `prophet-dnn`
//! and the paper: gradient 0 is what the next forward pass needs first.

use crate::layers::{Dense, Layer, Relu};
use crate::loss::softmax_cross_entropy;
use crate::tensor::Tensor;
use prophet_sim::Xoshiro256StarStar;

/// A multi-layer perceptron with ReLU activations between Dense layers.
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
}

/// A deep copy: same parameter bits, without re-drawing the initialisation.
impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp {
            layers: self.layers.iter().map(|l| l.boxed_clone()).collect(),
        }
    }
}

impl Mlp {
    /// Build from layer widths, e.g. `[64, 128, 128, 10]` = three Dense
    /// layers with ReLU between them. Deterministic per seed.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for (i, w) in widths.windows(2).enumerate() {
            layers.push(Box::new(Dense::new(w[0], w[1], &mut rng)));
            if i + 2 < widths.len() {
                layers.push(Box::new(Relu::new()));
            }
        }
        Mlp { layers }
    }

    /// Forward pass, returning logits.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut act = x.clone();
        for layer in &mut self.layers {
            act = layer.forward(&act);
        }
        act
    }

    /// Full training step bookkeeping: forward, loss, backward. Gradients
    /// accumulate in the layers; returns the mean loss.
    pub fn forward_backward(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(x);
        let (loss, mut grad) = softmax_cross_entropy(&logits, labels);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        loss
    }

    /// Zero all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Number of parameter tensors (= gradients, in the scheduling sense).
    pub fn num_tensors(&self) -> usize {
        self.layers.iter().map(|l| l.params().len()).sum()
    }

    /// Sizes of each parameter tensor in elements, forward (priority) order.
    pub fn tensor_sizes(&self) -> Vec<usize> {
        self.layers
            .iter()
            .flat_map(|l| l.params().into_iter().map(|p| p.len()))
            .collect()
    }

    /// Copy gradient tensor `id` into a fresh vector.
    pub fn gradient(&self, id: usize) -> Vec<f32> {
        self.grad_slices()[id].to_vec()
    }

    /// All gradient tensors, forward order, as slices.
    pub fn grad_slices(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// All parameter tensors, forward order, as slices.
    pub fn param_slices(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Overwrite parameter tensor `id` (a pulled update from the PS).
    pub fn set_param(&mut self, id: usize, values: &[f32]) {
        let mut idx = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                if idx == id {
                    assert_eq!(p.len(), values.len(), "parameter size mismatch");
                    p.copy_from_slice(values);
                    return;
                }
                idx += 1;
            }
        }
        panic!("parameter tensor {id} out of range");
    }

    /// Mutable view of parameter tensor `id` — the fused pull-apply path
    /// of the threaded PS runtime decodes wire bytes and streams their
    /// CRC in one traversal, writing straight into this slice.
    pub fn param_slice_mut(&mut self, id: usize) -> &mut [f32] {
        let mut idx = 0;
        let mut loc = None;
        for (li, layer) in self.layers.iter().enumerate() {
            let k = layer.params().len();
            if id < idx + k {
                loc = Some((li, id - idx));
                break;
            }
            idx += k;
        }
        let (li, pi) = loc.unwrap_or_else(|| panic!("parameter tensor {id} out of range"));
        self.layers[li].params_mut().into_iter().nth(pi).unwrap()
    }

    /// Overwrite a slice of parameter tensor `id` from a little-endian
    /// `f32` byte payload, starting at element `offset_elems` — the
    /// zero-staging pull path of the threaded PS runtime (wire bytes land
    /// in the tensor with no intermediate `Vec<f32>`).
    pub fn set_param_slice_le(&mut self, id: usize, offset_elems: usize, bytes: &[u8]) {
        assert!(bytes.len() % 4 == 0, "payload not f32-aligned");
        let mut idx = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                if idx == id {
                    let dst = &mut p[offset_elems..offset_elems + bytes.len() / 4];
                    for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
                        // `try_into` compiles to a single 4-byte load and
                        // lets the loop vectorise.
                        *d = f32::from_le_bytes(c.try_into().unwrap());
                    }
                    return;
                }
                idx += 1;
            }
        }
        panic!("parameter tensor {id} out of range");
    }

    /// Classification accuracy on `(x, labels)`. Logits are ranked by
    /// [`f32::total_cmp`], so a diverged model whose logits are NaN still
    /// scores (its NaN rows are almost surely wrong) instead of panicking.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> f64 {
        let logits = self.forward(x);
        let mut correct = 0usize;
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            if pred == label {
                correct += 1;
            }
        }
        correct as f64 / labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_layout_is_forward_order() {
        let m = Mlp::new(&[4, 8, 3], 1);
        // Dense(4,8): w 32, b 8; Dense(8,3): w 24, b 3.
        assert_eq!(m.num_tensors(), 4);
        assert_eq!(m.tensor_sizes(), vec![32, 8, 24, 3]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Mlp::new(&[4, 8, 3], 42);
        let mut b = Mlp::new(&[4, 8, 3], 42);
        let x = Tensor::from_vec(2, 4, vec![0.1; 8]);
        assert_eq!(a.forward(&x), b.forward(&x));
        let mut c = Mlp::new(&[4, 8, 3], 43);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn forward_backward_produces_gradients() {
        let mut m = Mlp::new(&[4, 8, 3], 7);
        let x = Tensor::from_vec(2, 4, vec![0.3; 8]);
        let loss = m.forward_backward(&x, &[0, 2]);
        assert!(loss > 0.0);
        let grads = m.grad_slices();
        assert_eq!(grads.len(), 4);
        assert!(
            grads.iter().any(|g| g.iter().any(|&v| v != 0.0)),
            "all gradients zero"
        );
    }

    #[test]
    fn set_param_roundtrip() {
        let mut m = Mlp::new(&[4, 8, 3], 7);
        let new_bias = vec![1.5f32; 8];
        m.set_param(1, &new_bias);
        assert_eq!(m.param_slices()[1], &new_bias[..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_param_out_of_range() {
        let mut m = Mlp::new(&[4, 8, 3], 7);
        m.set_param(10, &[0.0]);
    }

    #[test]
    fn whole_model_finite_difference_gradcheck() {
        let mut m = Mlp::new(&[3, 5, 2], 11);
        let x = Tensor::from_vec(2, 3, vec![0.2, -0.4, 0.9, -0.1, 0.6, 0.3]);
        let labels = [1usize, 0];
        m.zero_grads();
        let _ = m.forward_backward(&x, &labels);
        let analytic0: Vec<f32> = m.grad_slices()[0].to_vec();
        // Perturb entries of the first weight tensor.
        let eps = 1e-2f32;
        for k in [0usize, 3, 7, 14] {
            let orig = m.param_slices()[0][k];
            let mut bump = m.param_slices()[0].to_vec();
            bump[k] = orig + eps;
            m.set_param(0, &bump);
            let logits = m.forward(&x);
            let (up, _) = softmax_cross_entropy(&logits, &labels);
            bump[k] = orig - eps;
            m.set_param(0, &bump);
            let logits = m.forward(&x);
            let (down, _) = softmax_cross_entropy(&logits, &labels);
            bump[k] = orig;
            m.set_param(0, &bump);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic0[k]).abs() < 2e-2,
                "param 0[{k}]: numeric {numeric} vs analytic {}",
                analytic0[k]
            );
        }
    }

    #[test]
    fn accuracy_bounds() {
        let mut m = Mlp::new(&[4, 8, 3], 7);
        let x = Tensor::from_vec(10, 4, vec![0.5; 40]);
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let acc = m.accuracy(&x, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn accuracy_of_nan_logits_is_a_value_not_a_panic() {
        // A diverged model: one output bias is NaN, so every row carries a
        // NaN logit. Ranking must still pick an argmax.
        let mut m = Mlp::new(&[4, 8, 3], 7);
        m.set_param(3, &[f32::NAN, 0.0, 0.0]);
        let x = Tensor::from_vec(6, 4, vec![0.5; 24]);
        let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
        assert!(m.forward(&x).row(0)[0].is_nan());
        let acc = m.accuracy(&x, &labels);
        assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
    }
}
