//! Determinism of the simulation stack: identical seeds reproduce entire
//! runs bit-for-bit; different seeds genuinely perturb them.

use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};

fn cfg(seed: u64, kind: SchedulerKind) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cell(3, 4.0, TrainingJob::paper_setup("resnet18", 32), kind);
    c.seed = seed;
    c
}

#[test]
fn identical_seeds_identical_runs() {
    for kind in SchedulerKind::paper_lineup(0.5e9) {
        let label = kind.label();
        let a = run_cluster(&cfg(7, kind.clone()), 5);
        let b = run_cluster(&cfg(7, kind), 5);
        assert_eq!(a.iter_times, b.iter_times, "{label}: iteration times");
        assert_eq!(a.duration, b.duration, "{label}: total duration");
        assert_eq!(a.gpu_util, b.gpu_util, "{label}: GPU series");
        assert_eq!(a.net_throughput, b.net_throughput, "{label}: net series");
        assert_eq!(a.grad_spans, b.grad_spans, "{label}: worker 0's spans");
    }
}

#[test]
fn different_seeds_different_runs() {
    let a = run_cluster(&cfg(1, SchedulerKind::Fifo), 5);
    let b = run_cluster(&cfg(2, SchedulerKind::Fifo), 5);
    assert_ne!(a.iter_times, b.iter_times, "seed had no effect");
}

#[test]
fn zero_jitter_makes_workers_symmetric() {
    let mut c = cfg(
        3,
        SchedulerKind::ProphetOracle(ProphetConfig::paper_default(0.5e9)),
    );
    c.compute_jitter = 0.0;
    let r = run_cluster(&c, 4);
    // With no jitter all workers march in lockstep: iteration times are
    // identical across iterations too (steady state from iteration 1).
    let t1 = r.iter_times[1];
    for &t in &r.iter_times[2..] {
        let rel = (t.as_secs_f64() - t1.as_secs_f64()).abs() / t1.as_secs_f64();
        assert!(
            rel < 1e-6,
            "jitter-free run not periodic: {:?}",
            r.iter_times
        );
    }
}

#[test]
fn jitter_perturbs_iteration_times() {
    let mut c = cfg(3, SchedulerKind::Fifo);
    c.compute_jitter = 0.05;
    let r = run_cluster(&c, 6);
    let t1 = r.iter_times[1].as_secs_f64();
    let spread = r.iter_times[1..]
        .iter()
        .map(|t| (t.as_secs_f64() - t1).abs() / t1)
        .fold(0.0f64, f64::max);
    assert!(spread > 0.005, "5% jitter produced no spread");
}
