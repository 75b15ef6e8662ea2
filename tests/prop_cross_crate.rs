//! Cross-crate property tests: invariants that only exist when the whole
//! stack runs together.

use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use proptest::prelude::*;

fn kinds() -> Vec<SchedulerKind> {
    SchedulerKind::paper_lineup(1e9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any (strategy, bandwidth, batch, seed) cell: the run completes,
    /// respects the compute ceiling, logs every gradient, and orders every
    /// per-gradient timeline correctly.
    #[test]
    fn any_cell_is_well_formed(
        kind_idx in 0usize..4,
        gbps in 1.0f64..10.0,
        batch_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let batch = [16u32, 32, 64][batch_idx];
        let job = TrainingJob::paper_setup("resnet18", batch);
        let ceiling = job.compute_rate_ceiling();
        let n = job.num_gradients();
        let mut cfg = ClusterConfig::paper_cell(2, gbps, job, kinds()[kind_idx].clone());
        cfg.seed = seed;
        cfg.warmup_iters = 1;
        let r = run_cluster(&cfg, 3);
        prop_assert_eq!(r.iter_times.len(), 3);
        prop_assert!(r.rate > 0.0);
        // Jitter multiplies per-iteration compute by ~N(1, 0.02) with a
        // hard floor, so short measurement windows can land a few percent
        // above the nominal (jitter-free) ceiling.
        prop_assert!(r.rate <= ceiling * 1.10, "rate {} > ceiling {}", r.rate, ceiling);
        for logs in &r.transfer_logs() {
            prop_assert_eq!(logs.len(), n);
            for log in logs {
                prop_assert!(log.ready <= log.push_start);
                prop_assert!(log.push_start < log.push_end);
                prop_assert!(log.push_end <= log.pull_end);
                prop_assert!(log.pull_start <= log.pull_end);
            }
        }
    }

    /// More bandwidth never makes training slower (weak monotonicity with
    /// a tolerance for discrete-event noise).
    #[test]
    fn bandwidth_monotonicity(lo_gbps in 1.0f64..4.0, factor in 1.5f64..4.0) {
        let hi_gbps = (lo_gbps * factor).min(10.0);
        let rate = |gbps: f64| {
            let job = TrainingJob::paper_setup("resnet50", 32);
            let kind = SchedulerKind::ProphetOracle(ProphetConfig::paper_default(gbps * 1e9 / 8.0));
            let mut cfg = ClusterConfig::paper_cell(2, gbps, job, kind);
            cfg.warmup_iters = 2;
            run_cluster(&cfg, 6).rate
        };
        let lo = rate(lo_gbps);
        let hi = rate(hi_gbps);
        prop_assert!(hi >= lo * 0.97, "{hi_gbps:.1}G ({hi:.1}) slower than {lo_gbps:.1}G ({lo:.1})");
    }

    /// Adding workers never increases the per-worker rate (BSP scaling
    /// overhead is non-negative) when the PS is shared.
    #[test]
    fn more_workers_never_free(workers in 2usize..6) {
        let rate = |w: usize| {
            let job = TrainingJob::paper_setup("resnet18", 32);
            let mut cfg = ClusterConfig::paper_cell(w, 4.0, job, SchedulerKind::Fifo);
            cfg.warmup_iters = 1;
            run_cluster(&cfg, 3).rate
        };
        let single = rate(1);
        let many = rate(workers);
        prop_assert!(many <= single * 1.02, "{workers} workers: {many:.1} > 1 worker {single:.1}");
    }
}
