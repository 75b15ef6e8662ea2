//! Quickstart: simulate the paper's standard testbed — 1 PS + 3 workers
//! training ResNet-50 (batch 64) — under each communication scheduling
//! strategy, and print the training rates.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};

fn main() {
    let gbps = 4.0;
    let workers = 3;
    let iterations = 20;

    println!("== Prophet reproduction quickstart ==");
    println!("cluster: 1 PS + {workers} workers, {gbps} Gb/s, ResNet-50 batch 64");
    println!(
        "{:<24} {:>14} {:>12} {:>14}",
        "strategy", "samples/s/wkr", "GPU util", "mean wait (ms)"
    );

    for kind in SchedulerKind::paper_lineup(gbps * 1e9 / 8.0) {
        let job = TrainingJob::paper_setup("resnet50", 64);
        let label = kind.label();
        let mut cfg = ClusterConfig::paper_cell(workers, gbps, job, kind);
        cfg.warmup_iters = 5;
        let result = run_cluster(&cfg, iterations);
        let last = result.iter_times.len() - 1;
        println!(
            "{:<24} {:>14.1} {:>11.1}% {:>14.1}",
            label,
            result.rate,
            result.avg_gpu_util * 100.0,
            result.mean_wait_ms(last),
        );
    }

    println!();
    println!("The compute-bound ceiling for this job is ~73 samples/s/worker;");
    println!("Prophet should sit closest to it, with MXNet's FIFO trailing.");
}
