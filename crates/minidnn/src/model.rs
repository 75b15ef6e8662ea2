//! The MLP model: a layer stack with the gradient-tensor view the
//! parameter-server runtime schedules.
//!
//! Gradient/parameter tensors are numbered in **forward order** (layer 0's
//! weight = gradient 0), matching the priority convention of `prophet-dnn`
//! and the paper: gradient 0 is what the next forward pass needs first.
//!
//! The layers hold no parameters. A model from [`Mlp::new`] keeps the
//! tensors it drew in one store beside them, which a pass reads when it is
//! handed no [`RowSource`]; a model from [`Mlp::shape`] has the layers
//! only, and each pass reads the source it is handed.

use crate::layers::{Dense, GradSink, Layer, Relu};
use crate::loss::softmax_cross_entropy;
use crate::tensor::{RowSource, Tensor};
use prophet_sim::Xoshiro256StarStar;
use std::ops::Range;

/// A multi-layer perceptron with ReLU activations between Dense layers.
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
    /// The drawn parameters, forward order (empty in a shape-only model).
    params: Vec<Tensor>,
    /// The gradients of the last [`Mlp::forward_backward`], forward order
    /// (empty before the first). A caller stepping the backward itself
    /// stores them wherever its own [`GradSink`] says instead.
    grads: Vec<Vec<f32>>,
}

/// A backward pass in progress: opened by [`Mlp::forward_loss`], advanced
/// one parameter layer at a time by [`Mlp::backward_step`].
pub struct Backward {
    /// Loss gradient wrt the output of layer `next - 1`.
    grad: Tensor,
    /// Layers `..next` have yet to step.
    next: usize,
    /// Tensors `..tensors` have yet to receive their gradients.
    tensors: usize,
}

/// A layer's view of the caller's sink: its local tensor ids shifted to
/// the model's.
struct Shifted<'a> {
    first: usize,
    sink: &'a mut dyn GradSink,
}

impl GradSink for Shifted<'_> {
    fn store(&mut self, id: usize, vals: &[f32]) {
        self.sink.store(self.first + id, vals);
    }
}

/// A layer's view of the parameter source: its local tensor ids shifted
/// to the model's.
struct ShiftedRows<'a> {
    first: usize,
    src: &'a mut dyn RowSource,
}

impl RowSource for ShiftedRows<'_> {
    fn row(&mut self, tensor: usize, k: usize, width: usize) -> &[f32] {
        self.src.row(self.first + tensor, k, width)
    }
}

impl Mlp {
    /// Build from layer widths, e.g. `[64, 128, 128, 10]` = three Dense
    /// layers with ReLU between them, He-initialised. Deterministic per
    /// seed.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        let mut model = Mlp::shape(widths);
        let mut rng = Xoshiro256StarStar::new(seed);
        model.params = widths
            .windows(2)
            .flat_map(|w| Dense::init(w[0], w[1], &mut rng))
            .collect();
        model
    }

    /// The layers of [`Mlp::new`]`(widths, _)` without their parameters:
    /// nothing is drawn or allocated for them, and every pass reads the
    /// source it is handed.
    pub fn shape(widths: &[usize]) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        for (i, w) in widths.windows(2).enumerate() {
            layers.push(Box::new(Dense::new(w[0], w[1])));
            if i + 2 < widths.len() {
                layers.push(Box::new(Relu::new()));
            }
        }
        Mlp {
            layers,
            params: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// The layers, and what a pass reads the parameters from: `params`
    /// (model-wide tensor ids), or the model's drawn tensors when `None`.
    fn split<'a>(
        &'a mut self,
        params: Option<&'a mut (dyn RowSource + '_)>,
    ) -> (&'a mut [Box<dyn Layer>], &'a mut dyn RowSource) {
        let src: &mut dyn RowSource = match params {
            Some(src) => src,
            None => {
                assert!(
                    !self.params.is_empty(),
                    "a shape-only model needs a parameter source"
                );
                &mut self.params
            }
        };
        (&mut self.layers, src)
    }

    /// Forward pass, returning logits. Reads the parameters from `params`
    /// (model-wide tensor ids), or from the model's drawn tensors when
    /// `None`.
    pub fn forward(&mut self, x: &Tensor, params: Option<&mut dyn RowSource>) -> Tensor {
        let (layers, src) = self.split(params);
        let mut act = x.clone();
        let mut first = 0;
        for layer in layers {
            let mut rows = ShiftedRows {
                first,
                src: &mut *src,
            };
            act = layer.forward(&act, &mut rows);
            first += layer.shapes().len();
        }
        act
    }

    /// Full training step bookkeeping on the drawn tensors: forward, loss,
    /// backward. The gradients are kept for [`Mlp::grad_slices`],
    /// replacing the previous pass's; returns the mean loss.
    pub fn forward_backward(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let mut grads = std::mem::take(&mut self.grads);
        grads.resize_with(self.num_tensors(), Vec::new);
        grads.iter_mut().for_each(Vec::clear);
        let (loss, mut pass) = self.forward_loss(x, labels, None);
        while self.backward_step(&mut pass, &mut grads, None).is_some() {}
        self.grads = grads;
        loss
    }

    /// Forward pass and loss, reading the parameters as [`Mlp::forward`]
    /// does: returns the mean loss and the backward pass it opens, which
    /// [`Mlp::backward_step`] then runs one parameter layer at a time — so
    /// a caller can ship a layer's gradients while the layers below it are
    /// still being differentiated.
    pub fn forward_loss(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        params: Option<&mut dyn RowSource>,
    ) -> (f32, Backward) {
        let logits = self.forward(x, params);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        let pass = Backward {
            grad,
            next: self.layers.len(),
            tensors: self.num_tensors(),
        };
        (loss, pass)
    }

    /// Run `pass` backward through the next layer that holds parameters
    /// (and the activations above it), storing that layer's gradients
    /// into `grads` under their model-wide ids. Returns those ids — the
    /// layer's tensors, in forward order — or `None` once every layer has
    /// been stepped. [`Mlp::forward_backward`] is this loop.
    ///
    /// Reads the parameters as [`Mlp::forward`] does, and only those of
    /// the layers it runs through: once it returns, nothing later in the
    /// pass reads tensors `ids.start..` again.
    pub fn backward_step(
        &mut self,
        pass: &mut Backward,
        grads: &mut dyn GradSink,
        params: Option<&mut dyn RowSource>,
    ) -> Option<Range<usize>> {
        let ids = self.next_tensors(pass)?;
        let (layers, src) = self.split(params);
        let mut sink = Shifted {
            first: ids.start,
            sink: grads,
        };
        let mut src = ShiftedRows {
            first: ids.start,
            src,
        };
        while pass.next > 0 {
            pass.next -= 1;
            let layer = &mut layers[pass.next];
            if pass.next == 0 {
                // Nothing consumes the gradient wrt the network's input.
                layer.backward_params(&pass.grad, &mut sink);
            } else {
                pass.grad = layer.backward(&pass.grad, &mut sink, &mut src);
            }
            if !layer.shapes().is_empty() {
                pass.tensors = ids.start;
                return Some(ids);
            }
        }
        unreachable!("a layer holding tensors {ids:?} was not stepped")
    }

    /// The ids of the gradient tensors the next [`Mlp::backward_step`] of
    /// `pass` will store, or `None` once the pass is spent — so a caller
    /// can size their destination before the backward writes it.
    pub fn next_tensors(&self, pass: &Backward) -> Option<Range<usize>> {
        let held = self.layers[..pass.next]
            .iter()
            .rev()
            .map(|l| l.shapes().len())
            .find(|&n| n > 0)?;
        Some(pass.tensors - held..pass.tensors)
    }

    /// Gradients are stored, not accumulated, by every backward pass, so
    /// there is nothing to reset: this does nothing. It survives only for
    /// callers written against the accumulating API.
    pub fn zero_grads(&mut self) {}

    /// Number of parameter tensors (= gradients, in the scheduling sense).
    pub fn num_tensors(&self) -> usize {
        self.layers.iter().map(|l| l.shapes().len()).sum()
    }

    /// Sizes of each parameter tensor in elements, forward (priority) order.
    pub fn tensor_sizes(&self) -> Vec<usize> {
        let shapes = self.layers.iter().flat_map(|l| l.shapes());
        shapes.map(|&(rows, cols)| rows * cols).collect()
    }

    /// The gradient tensors of the last [`Mlp::forward_backward`], forward
    /// order, as slices (none before the first).
    pub fn grad_slices(&self) -> Vec<&[f32]> {
        self.grads.iter().map(Vec::as_slice).collect()
    }

    /// The drawn parameter tensors, forward order, as slices (none in a
    /// shape-only model).
    pub fn param_slices(&self) -> Vec<&[f32]> {
        self.params.iter().map(|t| t.data.as_slice()).collect()
    }

    /// Overwrite drawn parameter tensor `id` (a pulled update from the PS).
    pub fn set_param(&mut self, id: usize, values: &[f32]) {
        let p = self.params.get_mut(id);
        let p = p.unwrap_or_else(|| panic!("parameter tensor {id} out of range"));
        assert_eq!(p.data.len(), values.len(), "parameter size mismatch");
        p.data.copy_from_slice(values);
    }

    /// Classification accuracy on `(x, labels)` with the drawn tensors.
    /// Logits are ranked by [`f32::total_cmp`], so a diverged model whose
    /// logits are NaN still scores (its NaN rows are almost surely wrong)
    /// instead of panicking.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> f64 {
        let logits = self.forward(x, None);
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
        assert_eq!(a.forward(&x, None), b.forward(&x, None));
        let mut c = Mlp::new(&[4, 8, 3], 43);
        assert_ne!(a.forward(&x, None), c.forward(&x, None));
    }

    #[test]
    fn forward_backward_produces_gradients() {
        // Two ways in: the whole step, and forward+loss then one backward
        // step per layer, which must release each layer's tensors, last
        // layer first. Both must produce the bits of every layer's full
        // `backward` run in reverse, input gradient included.
        let bits = |m: &Mlp| -> Vec<Vec<u32>> {
            let all = m.grad_slices().into_iter().chain(m.param_slices());
            all.map(|t| t.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let x = Tensor::from_vec(2, 4, vec![0.3; 8]);
        let mut reference = Mlp::new(&[4, 8, 5, 3], 7);
        let logits = reference.forward(&x, None);
        let (ref_loss, mut grad) = softmax_cross_entropy(&logits, &[0, 2]);
        let mut ref_grads = vec![Vec::new(); 6];
        let mut first = 6;
        for layer in reference.layers.iter_mut().rev() {
            first -= layer.shapes().len();
            let mut sink = Shifted {
                first,
                sink: &mut ref_grads,
            };
            let src = &mut reference.params;
            grad = layer.backward(&grad, &mut sink, &mut ShiftedRows { first, src });
        }
        reference.grads = ref_grads;

        let mut whole = Mlp::new(&[4, 8, 5, 3], 7);
        let loss = whole.forward_backward(&x, &[0, 2]);
        assert!(loss > 0.0);
        let grads = whole.grad_slices();
        assert_eq!(grads.len(), 6);
        assert!(
            grads.iter().any(|g| g.iter().any(|&v| v != 0.0)),
            "all gradients zero"
        );

        let mut stepped = Mlp::new(&[4, 8, 5, 3], 7);
        let (step_loss, mut pass) = stepped.forward_loss(&x, &[0, 2], None);
        let mut released = Vec::new();
        let mut grads = vec![Vec::new(); 6];
        while let Some(next) = stepped.next_tensors(&pass) {
            let ids = stepped.backward_step(&mut pass, &mut grads, None).unwrap();
            assert_eq!(ids, next, "next_tensors named another step");
            released.push(ids);
        }
        stepped.grads = grads;
        assert_eq!(released, vec![4..6, 2..4, 0..2]);
        assert!(
            stepped
                .backward_step(&mut pass, &mut Vec::new(), None)
                .is_none(),
            "a spent pass stays spent"
        );
        assert_eq!(step_loss.to_bits(), ref_loss.to_bits());
        assert_eq!(loss.to_bits(), ref_loss.to_bits());
        assert_eq!(bits(&whole), bits(&reference), "forward_backward diverged");
        assert_eq!(bits(&stepped), bits(&reference), "layer steps diverged");
    }

    /// A source serving copies of a model's tensors, row by row, and
    /// recording which rows of which tensors were asked for.
    struct Copies {
        tensors: Vec<Vec<f32>>,
        asked: Vec<(usize, usize)>,
    }

    impl RowSource for Copies {
        fn row(&mut self, tensor: usize, k: usize, width: usize) -> &[f32] {
            self.asked.push((tensor, k));
            &self.tensors[tensor][k * width..(k + 1) * width]
        }
    }

    #[test]
    fn a_source_serving_the_same_tensors_computes_the_same_bits() {
        // The model holds no parameters, so only the source can make the
        // answer right; each pass must read every row of its tensors in
        // order, and a backward step only the tensors it differentiates.
        let x = Tensor::from_vec(
            3,
            4,
            vec![0.3, 0.0, -0.2, 0.9, 0.0, 0.0, 0.5, -0.1, 1.0, 2.0, 0.0, 0.0],
        );
        let labels = [0, 2, 1];
        let mut own = Mlp::new(&[4, 8, 5, 3], 7);
        let own_loss = own.forward_backward(&x, &labels);
        let mut src = Copies {
            tensors: own.param_slices().iter().map(|t| t.to_vec()).collect(),
            asked: Vec::new(),
        };
        let mut other = Mlp::shape(&[4, 8, 5, 3]);
        let (loss, mut pass) = other.forward_loss(&x, &labels, Some(&mut src));
        let forward: Vec<_> = std::mem::take(&mut src.asked);
        let rows = [4, 1, 8, 1, 5, 1];
        let want: Vec<_> = (0..6)
            .flat_map(|t| (0..rows[t]).map(move |k| (t, k)))
            .collect();
        assert_eq!(forward, want, "the forward reads every row once, in order");
        let mut grads = vec![Vec::new(); 6];
        let mut read = Vec::new();
        while let Some(ids) = other.backward_step(&mut pass, &mut grads, Some(&mut src)) {
            let asked = std::mem::take(&mut src.asked);
            assert!(
                asked.iter().all(|&(t, _)| ids.contains(&t)),
                "{ids:?} read {asked:?}"
            );
            read.push(asked.len());
        }
        // dx reads each weight row once; the first layer computes no dx.
        assert_eq!(read, [5, 8, 0]);
        assert_eq!(loss.to_bits(), own_loss.to_bits());
        let bits = |g: &[Vec<f32>]| -> Vec<Vec<u32>> {
            g.iter()
                .map(|t| t.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let own_grads: Vec<Vec<f32>> = own.grad_slices().iter().map(|g| g.to_vec()).collect();
        assert_eq!(bits(&grads), bits(&own_grads));
    }

    /// The seam the threaded workers run on: a shape-only model reading a
    /// drawn model's tensors through a source computes that model's own
    /// `forward_backward`, loss and gradients bit for bit, pass after pass
    /// as the drawn tensors move.
    #[test]
    fn a_shape_only_model_on_a_source_equals_forward_backward() {
        let widths = [5, 9, 6, 3];
        let mut drawn = Mlp::new(&widths, 21);
        let mut shaped = Mlp::shape(&widths);
        assert_eq!(shaped.tensor_sizes(), drawn.tensor_sizes());
        assert!(shaped.param_slices().is_empty(), "a shape holds parameters");
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for step in 0..3 {
            let x = Tensor::from_vec(4, 5, (0..20).map(|i| ((i + step) as f32).cos()).collect());
            let labels = [step % 3, 1, 2, 0];
            let loss = drawn.forward_backward(&x, &labels);
            let mut src = Copies {
                tensors: drawn.param_slices().iter().map(|t| t.to_vec()).collect(),
                asked: Vec::new(),
            };
            let (shaped_loss, mut pass) = shaped.forward_loss(&x, &labels, Some(&mut src));
            let mut grads = vec![Vec::new(); 6];
            while shaped
                .backward_step(&mut pass, &mut grads, Some(&mut src))
                .is_some()
            {}
            assert_eq!(shaped_loss.to_bits(), loss.to_bits(), "step {step}");
            for (id, g) in drawn.grad_slices().iter().enumerate() {
                assert_eq!(bits(&grads[id]), bits(g), "step {step}, tensor {id}");
            }
            // Move the drawn tensors, as an update would.
            let moved: Vec<Vec<f32>> = drawn
                .param_slices()
                .iter()
                .zip(drawn.grad_slices())
                .map(|(p, g)| p.iter().zip(g).map(|(p, g)| p - 0.5 * g).collect())
                .collect();
            for (id, p) in moved.iter().enumerate() {
                drawn.set_param(id, p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a parameter source")]
    fn a_shape_only_model_reads_no_parameters_of_its_own() {
        let x = Tensor::from_vec(1, 4, vec![0.5; 4]);
        Mlp::shape(&[4, 8, 3]).forward(&x, None);
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
        let _ = m.forward_backward(&x, &labels);
        let analytic0: Vec<f32> = m.grad_slices()[0].to_vec();
        // Perturb entries of the first weight tensor.
        let eps = 1e-2f32;
        for k in [0usize, 3, 7, 14] {
            let orig = m.param_slices()[0][k];
            let mut bump = m.param_slices()[0].to_vec();
            bump[k] = orig + eps;
            m.set_param(0, &bump);
            let logits = m.forward(&x, None);
            let (up, _) = softmax_cross_entropy(&logits, &labels);
            bump[k] = orig - eps;
            m.set_param(0, &bump);
            let logits = m.forward(&x, None);
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
        assert!(m.forward(&x, None).row(0)[0].is_nan());
        let acc = m.accuracy(&x, &labels);
        assert!((0.0..=1.0).contains(&acc), "accuracy {acc}");
    }
}
