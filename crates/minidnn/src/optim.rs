//! Optimisers running on the parameter server (MXNet's KVStore hosts the
//! optimiser server-side, which is why our threaded PS does too).

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + g ; w ← w − η·v`. With `momentum = 0` this is plain SGD,
/// which is what the BSP equivalence tests use (momentum state lives on
/// the PS in the distributed runtime, exactly like MXNet's KVStore
/// optimiser placement).
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

    /// Number of tensors this optimiser tracks.
    pub fn num_tensors(&self) -> usize {
        self.velocity.len()
    }

    /// Tensor `id`'s velocity.
    pub fn velocity(&self, id: usize) -> &[f32] {
        &self.velocity[id]
    }
}

/// One Adam update of one tensor, opened by [`Adam::begin_step`]: its bias
/// corrections, fixed once however many slices the update is applied in.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    bc1: f32,
    bc2: f32,
}

/// Adam (Kingma & Ba): per-parameter adaptive learning rates. Included
/// because production PS deployments host optimisers beyond SGD; the
/// communication layer is oblivious to which one runs.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate α.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical floor ε.
    pub eps: f32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: Vec<u32>,
}

impl Adam {
    /// Adam with the canonical defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32, tensor_sizes: &[usize]) -> Self {
        assert!(lr > 0.0, "non-positive learning rate");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: tensor_sizes.iter().map(|&n| vec![0.0; n]).collect(),
            v: tensor_sizes.iter().map(|&n| vec![0.0; n]).collect(),
            t: vec![0; tensor_sizes.len()],
        }
    }

    /// Apply gradient tensor `id` to `params` in place, with bias-corrected
    /// moment estimates.
    pub fn step(&mut self, id: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(self.m[id].len(), grad.len(), "moment size mismatch");
        let s = self.begin_step(id);
        self.step_slice(id, s, 0, params, grad);
    }

    /// Open one update of tensor `id`: advance its timestep and fix the
    /// update's bias corrections. Apply it with [`Adam::step_slice`].
    pub fn begin_step(&mut self, id: usize) -> AdamStep {
        self.t[id] += 1;
        let t = self.t[id] as f32;
        AdamStep {
            bc1: 1.0 - self.beta1.powf(t),
            bc2: 1.0 - self.beta2.powf(t),
        }
    }

    /// Apply update `s` to elements `offset..offset + grad.len()` of tensor
    /// `id`, `params` and `grad` being those elements. An update applied
    /// slice by slice, in any order, is bit-identical to [`Adam::step`].
    pub fn step_slice(
        &mut self,
        id: usize,
        s: AdamStep,
        offset: usize,
        params: &mut [f32],
        grad: &[f32],
    ) {
        assert_eq!(params.len(), grad.len(), "param/grad size mismatch");
        let (bc1, bc2) = (s.bc1, s.bc2);
        let span = offset..offset + grad.len();
        let (m, v) = (&mut self.m[id][span.clone()], &mut self.v[id][span]);
        for i in 0..grad.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Number of tensors this optimiser tracks.
    pub fn num_tensors(&self) -> usize {
        self.m.len()
    }

    /// Tensor `id`'s first and second moment estimates.
    pub fn moments(&self, id: usize) -> (&[f32], &[f32]) {
        (&self.m[id], &self.v[id])
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
        let (mut aw, mut asl) = (Adam::new(0.01, &[7]), Adam::new(0.01, &[7]));
        let (mut qw, mut qs) = (vec![0.5f32; 7], vec![0.5f32; 7]);
        for _ in 0..3 {
            whole.step(0, &mut pw, &grad);
            aw.step(0, &mut qw, &grad);
            let s = asl.begin_step(0);
            for r in [4..7, 0..2, 2..4] {
                sliced.step_slice(0, r.start, &mut ps[r.clone()], &grad[r.clone()]);
                asl.step_slice(0, s, r.start, &mut qs[r.clone()], &grad[r]);
            }
        }
        assert_eq!(bits(&pw), bits(&ps));
        assert_eq!(bits(whole.velocity(0)), bits(sliced.velocity(0)));
        assert_eq!(bits(&qw), bits(&qs));
        let ((m1, v1), (m2, v2)) = (aw.moments(0), asl.moments(0));
        assert_eq!((bits(m1), bits(v1)), (bits(m2), bits(v2)));
    }

    #[test]
    #[should_panic(expected = "non-positive learning rate")]
    fn rejects_bad_lr() {
        Sgd::new(0.0, 0.0, &[1]);
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, the very first Adam step is ≈ lr in the
        // gradient's sign for any gradient magnitude.
        let mut opt = Adam::new(0.01, &[2]);
        let mut p = vec![0.0f32, 0.0];
        opt.step(0, &mut p, &[5.0, -0.001]);
        assert!((p[0] + 0.01).abs() < 1e-4, "p[0] = {}", p[0]);
        assert!((p[1] - 0.01).abs() < 1e-4, "p[1] = {}", p[1]);
    }

    #[test]
    fn adam_adapts_per_parameter() {
        // A parameter with consistently large gradients takes steps of the
        // same scale as one with consistently small gradients.
        let mut opt = Adam::new(0.1, &[2]);
        let mut p = vec![0.0f32, 0.0];
        for _ in 0..50 {
            opt.step(0, &mut p, &[100.0, 0.01]);
        }
        let ratio = p[0] / p[1];
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn adam_minimises_a_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x - 3).
        let mut opt = Adam::new(0.1, &[1]);
        let mut x = vec![0.0f32];
        for _ in 0..300 {
            let g = 2.0 * (x[0] - 3.0);
            opt.step(0, &mut x, &[g]);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn adam_tensors_independent() {
        let mut opt = Adam::new(0.01, &[1, 1]);
        assert_eq!(opt.num_tensors(), 2);
        let mut a = vec![0.0f32];
        opt.step(0, &mut a, &[1.0]);
        let mut b = vec![0.0f32];
        opt.step(1, &mut b, &[1.0]);
        // Same bias-correction state for both (t=1 each).
        assert!((a[0] - b[0]).abs() < 1e-7);
    }
}
