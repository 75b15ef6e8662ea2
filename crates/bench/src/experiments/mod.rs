//! One module per section of the paper's evaluation.

pub mod chaos;
pub mod effectiveness;
pub mod extensions;
pub mod faults;
pub mod motivation;
pub mod overhead;
pub mod robustness;
pub mod scale;
pub mod threaded;

use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, RunResult};

/// The standard testbed cell used across experiments: 1 PS + `workers`
/// nodes at `gbps`, paper defaults otherwise.
pub fn cell(
    model: &str,
    batch: u32,
    workers: usize,
    gbps: f64,
    kind: SchedulerKind,
) -> ClusterConfig {
    ClusterConfig::paper_cell(workers, gbps, TrainingJob::paper_setup(model, batch), kind)
}

/// Steady-state run with enough warm-up for the monitor to settle.
pub fn steady(cfg: &mut ClusterConfig, iters: u64) -> RunResult {
    cfg.warmup_iters = (iters / 3).max(2);
    run_cluster(cfg, iters)
}

/// The steady-state Prophet configuration for a `gbps` network.
pub fn prophet(gbps: f64) -> SchedulerKind {
    SchedulerKind::ProphetOracle(ProphetConfig::paper_default(gbps * 1e9 / 8.0))
}

/// ByteScheduler at the paper's default credit.
pub fn bytescheduler() -> SchedulerKind {
    SchedulerKind::ByteScheduler(Default::default())
}

/// P3 with the paper's 4 MB partitions.
pub fn p3() -> SchedulerKind {
    SchedulerKind::P3 {
        partition_bytes: 4 << 20,
    }
}

/// Format samples/sec.
pub fn r1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a ratio as a percentage improvement.
pub fn pct(new: f64, old: f64) -> String {
    format!("{:+.1}%", (new / old - 1.0) * 100.0)
}
