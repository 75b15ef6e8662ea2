//! The optimiser the parameter server runs: SGD with momentum, the
//! paper's MXNet/BytePS KVStore setting. The KVStore hosts the optimiser
//! server-side, which is why the threaded PS does too.

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + g ; w ← w − η·v`. With `momentum = 0` this is plain SGD.
/// In the distributed runtime the velocity lives on the PS, exactly like
/// MXNet's KVStore optimiser placement.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient μ.
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// An optimiser over tensors of the given sizes.
    pub fn new(lr: f32, momentum: f32, tensor_sizes: &[usize]) -> Self {
        assert!(lr > 0.0, "non-positive learning rate");
        assert!((0.0..1.0).contains(&momentum), "momentum out of [0,1)");
        Sgd {
            lr,
            momentum,
            velocity: tensor_sizes.iter().map(|&n| vec![0.0; n]).collect(),
        }
    }

    /// Apply gradient tensor `id` to `params` in place.
    pub fn step(&mut self, id: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(
            self.velocity[id].len(),
            grad.len(),
            "velocity size mismatch"
        );
        self.step_slice(id, 0, params, grad);
    }

    /// [`Sgd::step`] on elements `offset..offset + grad.len()` of tensor
    /// `id` only, `params` and `grad` being those elements: an update
    /// applied slice by slice, in any order, is bit-identical to one whole
    /// step (every element's arithmetic is its own).
    pub fn step_slice(&mut self, id: usize, offset: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "param/grad size mismatch");
        let v = &mut self.velocity[id][offset..offset + grad.len()];
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grad) {
                *p -= self.lr * g;
            }
        } else {
            for ((p, vel), &g) in params.iter_mut().zip(v.iter_mut()).zip(grad) {
                *vel = self.momentum * *vel + g;
                *p -= self.lr * *vel;
            }
        }
    }

    /// Tensor `id`'s velocity.
    pub fn velocity(&self, id: usize) -> &[f32] {
        &self.velocity[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.1, 0.0, &[3]);
        let mut p = vec![1.0f32, 2.0, 3.0];
        opt.step(0, &mut p, &[10.0, 0.0, -10.0]);
        assert_eq!(p, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.5, &[1]);
        let mut p = vec![0.0f32];
        opt.step(0, &mut p, &[1.0]); // v = 1, p = -1
        assert_eq!(p, vec![-1.0]);
        opt.step(0, &mut p, &[1.0]); // v = 1.5, p = -2.5
        assert_eq!(p, vec![-2.5]);
    }

    #[test]
    fn tensors_have_independent_velocity() {
        let mut opt = Sgd::new(1.0, 0.9, &[1, 1]);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32];
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[2.0]);
        assert_eq!(a, vec![-1.0]);
        assert_eq!(b, vec![-2.0]);
    }

    #[test]
    fn slices_in_any_order_equal_one_step() {
        let grad: Vec<f32> = (0..7).map(|i| (i as f32 - 3.0) * 0.37).collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let (mut whole, mut sliced) = (Sgd::new(0.1, 0.9, &[7]), Sgd::new(0.1, 0.9, &[7]));
        let (mut pw, mut ps) = (vec![1.0f32; 7], vec![1.0f32; 7]);
        for _ in 0..3 {
            whole.step(0, &mut pw, &grad);
            for r in [4..7, 0..2, 2..4] {
                sliced.step_slice(0, r.start, &mut ps[r.clone()], &grad[r]);
            }
        }
        assert_eq!(bits(&pw), bits(&ps));
        assert_eq!(bits(whole.velocity(0)), bits(sliced.velocity(0)));
    }

    #[test]
    #[should_panic(expected = "non-positive learning rate")]
    fn rejects_bad_lr() {
        Sgd::new(0.0, 0.0, &[1]);
    }
}
