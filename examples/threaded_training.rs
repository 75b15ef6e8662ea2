//! Real training through the schedulers: worker threads train a genuine
//! MLP on synthetic data, every gradient byte crossing channels in the
//! order the communication scheduler dictates, aggregated on a real PS
//! thread. Shows loss convergence and that all strategies compute the
//! same model.
//!
//! ```text
//! cargo run --release --example threaded_training
//! ```

use prophet::core::SchedulerKind;
use prophet::minidnn::{Dataset, Mlp};
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, DATASET_NOISE};

/// Training-set accuracy of the model whose tensors are `params`.
fn accuracy(cfg: &ThreadedConfig, params: &[Vec<f32>]) -> f64 {
    let classes = *cfg.widths.last().unwrap();
    let data = Dataset::blobs(cfg.samples, cfg.widths[0], classes, DATASET_NOISE, cfg.seed);
    let mut model = Mlp::new(&cfg.widths, cfg.seed);
    for (id, p) in params.iter().enumerate() {
        model.set_param(id, p);
    }
    let (x, labels) = data.batch(0, data.len());
    model.accuracy(&x, &labels)
}

fn main() {
    let workers = 4;
    println!("== threaded BSP training: {workers} workers, MLP 8-24-4 on Gaussian blobs ==\n");

    let mut finals: Vec<(String, Vec<Vec<f32>>)> = Vec::new();
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label().to_string();
        let mut cfg = ThreadedConfig::small(workers, kind);
        cfg.iterations = 30;
        let result = run_threaded_training(&cfg);
        println!(
            "{:<24} loss {:.4} -> {:.4}, accuracy {:.1}%, {:.1} kB pushed, {:?}",
            label,
            result.losses.first().unwrap(),
            result.losses.last().unwrap(),
            accuracy(&cfg, &result.final_params) * 100.0,
            result.bytes_pushed as f64 / 1e3,
            result.wall
        );
        assert!(
            result.losses.last().unwrap() < &(result.losses[0] * 0.6),
            "{label}: training failed to converge"
        );
        finals.push((label, result.final_params));
    }

    // Communication scheduling must never change *what* is computed: every
    // strategy aggregates the same per-iteration gradients in the same
    // worker order on the PS, so the final models agree bitwise.
    let reference = &finals[0];
    for (label, params) in &finals[1..] {
        assert_eq!(
            params, &reference.1,
            "{label} diverged from {}",
            reference.0
        );
    }
    println!(
        "\nall {} strategies produced bit-identical final models ✓",
        finals.len()
    );
}
