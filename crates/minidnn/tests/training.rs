//! End-to-end training tests: the mini framework must actually learn, and
//! data-parallel gradient averaging must match single-process training.

use prophet_minidnn::{softmax_cross_entropy, Dataset, Mlp, Sgd, Tensor};

fn train_single(
    model: &mut Mlp,
    opt: &mut Sgd,
    data: &Dataset,
    batch: usize,
    epochs: usize,
) -> f32 {
    let mut last_loss = f32::INFINITY;
    for _ in 0..epochs {
        let mut lo = 0;
        while lo + batch <= data.len() {
            let (x, labels) = data.batch(lo, lo + batch);
            last_loss = model.forward_backward(&x, &labels);
            // Scale the summed gradient to a mean over the batch: the loss
            // already divides by batch, so grads are means. Apply directly.
            let grads: Vec<Vec<f32>> = model.grad_slices().iter().map(|g| g.to_vec()).collect();
            let mut params: Vec<Vec<f32>> =
                model.param_slices().iter().map(|p| p.to_vec()).collect();
            for (id, (p, g)) in params.iter_mut().zip(&grads).enumerate() {
                opt.step(id, p, g);
                model.set_param(id, p);
            }
            lo += batch;
        }
    }
    last_loss
}

#[test]
fn mlp_learns_blobs() {
    let data = Dataset::blobs(512, 8, 4, 0.8, 42);
    let mut model = Mlp::new(&[8, 32, 4], 7);
    let mut opt = Sgd::new(0.1, 0.9, &model.tensor_sizes());

    let (x0, l0) = data.batch(0, 128);
    let before = model.accuracy(&x0, &l0);
    let loss = train_single(&mut model, &mut opt, &data, 64, 30);
    let after = model.accuracy(&x0, &l0);
    assert!(
        after > 0.9,
        "accuracy only {after:.3} (was {before:.3}), loss {loss:.4}"
    );
    assert!(loss < 0.5, "final loss {loss}");
}

#[test]
fn loss_decreases_monotonically_enough() {
    let data = Dataset::blobs(256, 6, 3, 0.7, 5);
    let mut model = Mlp::new(&[6, 16, 3], 3);
    let mut opt = Sgd::new(0.05, 0.0, &model.tensor_sizes());
    let mut losses = Vec::new();
    for _ in 0..20 {
        losses.push(train_single(&mut model, &mut opt, &data, 64, 1));
    }
    assert!(
        losses.last().unwrap() < &(losses[0] * 0.5),
        "no learning: {losses:?}"
    );
}

/// Data-parallel gradient averaging over shards equals the whole-batch
/// gradient (the invariant the parameter server relies on). Exact equality
/// is not expected in f32 (summation order differs); the tolerance is tight
/// relative to gradient magnitudes.
#[test]
fn sharded_gradient_sum_matches_whole_batch() {
    let data = Dataset::blobs(64, 5, 2, 0.9, 8);
    let widths = [5usize, 12, 2];
    let workers = 4;

    // Whole-batch gradient.
    let mut whole = Mlp::new(&widths, 99);
    let (x, labels) = data.batch(0, 64);
    let _ = whole.forward_backward(&x, &labels);
    let expect: Vec<Vec<f32>> = whole.grad_slices().iter().map(|g| g.to_vec()).collect();

    // Sharded: each worker computes a mean gradient over its shard; the PS
    // averages worker means. With equal shard sizes this equals the
    // whole-batch mean.
    let shards = data.shard(0, 64, workers);
    let mut acc: Vec<Vec<f32>> = expect.iter().map(|g| vec![0.0; g.len()]).collect();
    for (x, labels) in &shards {
        let mut m = Mlp::new(&widths, 99); // identical init
        let _ = m.forward_backward(x, labels);
        for (a, g) in acc.iter_mut().zip(m.grad_slices()) {
            for (av, &gv) in a.iter_mut().zip(g) {
                *av += gv / workers as f32;
            }
        }
    }

    for (id, (a, e)) in acc.iter().zip(&expect).enumerate() {
        let max_diff = a
            .iter()
            .zip(e)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        let scale = e.iter().map(|v| v.abs()).fold(0.0f32, f32::max).max(1e-6);
        assert!(
            max_diff / scale < 1e-3,
            "tensor {id}: rel diff {}",
            max_diff / scale
        );
    }
}

#[test]
fn two_identical_trainings_are_bitwise_equal() {
    let data = Dataset::blobs(128, 6, 3, 0.7, 21);
    let run = || {
        let mut model = Mlp::new(&[6, 16, 3], 13);
        let mut opt = Sgd::new(0.05, 0.9, &model.tensor_sizes());
        train_single(&mut model, &mut opt, &data, 32, 5);
        model
            .param_slices()
            .iter()
            .flat_map(|p| p.iter().copied())
            .collect::<Vec<f32>>()
    };
    assert_eq!(run(), run(), "training is not deterministic");
}

#[test]
fn gradcheck_through_loss_composition() {
    // End-to-end finite differences through MLP + softmax-CE on a tiny net.
    let mut m = Mlp::new(&[2, 3, 2], 17);
    let x = Tensor::from_vec(3, 2, vec![0.5, -0.3, 0.1, 0.9, -0.6, 0.2]);
    let labels = [0usize, 1, 1];
    let _ = m.forward_backward(&x, &labels);
    // Check a few entries of the *last* tensor (output bias).
    let last = m.num_tensors() - 1;
    let analytic = m.grad_slices()[last].to_vec();
    let eps = 1e-2f32;
    for k in 0..analytic.len() {
        let mut p = m.param_slices()[last].to_vec();
        let orig = p[k];
        p[k] = orig + eps;
        m.set_param(last, &p);
        let (up, _) = softmax_cross_entropy(&m.forward(&x, None), &labels);
        p[k] = orig - eps;
        m.set_param(last, &p);
        let (down, _) = softmax_cross_entropy(&m.forward(&x, None), &labels);
        p[k] = orig;
        m.set_param(last, &p);
        let numeric = (up - down) / (2.0 * eps);
        assert!(
            (numeric - analytic[k]).abs() < 1e-2,
            "bias[{k}]: numeric {numeric} vs analytic {}",
            analytic[k]
        );
    }
}
