#![warn(missing_docs)]

//! # prophet-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§2 and §5).
//! Each returns an [`ExperimentOutput`]: the same rows/series the paper
//! reports, printable as a markdown table and writable as CSV under
//! `results/`. The `repro` binary drives them (`repro all`, `repro fig8`,
//! ...); the criterion benches in `benches/` time the scale sweeps the
//! `benchmark/` harness cannot afford.
//!
//! Experiments use reduced-but-representative iteration counts so a full
//! `repro all` finishes in minutes; iteration counts only tighten the
//! confidence of the steady-state rates, not the shapes.

pub mod experiments;
pub mod output;

pub use output::ExperimentOutput;

/// Every experiment in the registry, as `(id, description, runner)`.
pub type Runner = fn() -> ExperimentOutput;

/// The registry the `repro` binary dispatches on, in paper order.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    use experiments::*;
    vec![
        (
            "fig2",
            "GPU util + network throughput over time under default MXNet (ResNet152)",
            motivation::fig2 as Runner,
        ),
        (
            "fig3a",
            "P3 training rate vs partition size (overhead of small partitions)",
            motivation::fig3a,
        ),
        (
            "fig3b",
            "ByteScheduler credit auto-tuning: rate fluctuation and credit trace",
            motivation::fig3b,
        ),
        (
            "fig4",
            "Stepwise pattern of gradient release times (ResNet50 / VGG19)",
            motivation::fig4,
        ),
        (
            "fig5",
            "Illustrative schedule comparison of the four strategies",
            motivation::fig5,
        ),
        (
            "fig8",
            "Training rate, Prophet vs ByteScheduler across models and batch sizes",
            effectiveness::fig8,
        ),
        (
            "fig9",
            "GPU utilisation over time, Prophet vs ByteScheduler (ResNet50)",
            effectiveness::fig9,
        ),
        (
            "fig10",
            "Network throughput over time, Prophet vs ByteScheduler (ResNet50)",
            effectiveness::fig10,
        ),
        (
            "fig11",
            "Per-gradient transfer start/end times for MXNet, ByteScheduler, Prophet",
            effectiveness::fig11,
        ),
        (
            "sec52_fpstart",
            "Forward-propagation start: iteration 61 start time and iterations in 15 s",
            effectiveness::sec52_fpstart,
        ),
        (
            "table2",
            "ResNet50 rate under 1-10 Gb/s worker bandwidth (Prophet/ByteScheduler/P3)",
            robustness::table2,
        ),
        (
            "table3",
            "ResNet18/50 rate across batch sizes (Prophet vs ByteScheduler)",
            robustness::table3,
        ),
        (
            "sec53_resnet18",
            "ResNet18 under 3 vs 10 Gb/s (MXNet/P3/Prophet)",
            robustness::sec53_resnet18,
        ),
        (
            "sec53_hetero",
            "Heterogeneous cluster: one worker capped at 500 Mb/s",
            robustness::sec53_hetero,
        ),
        (
            "fig12",
            "Scalability: per-worker rate from 2 to 8 workers",
            overhead::fig12,
        ),
        (
            "fig13",
            "Profiling-phase overhead: online Prophet vs ByteScheduler early rates",
            overhead::fig13,
        ),
        (
            "sec54_profiling",
            "Job-profiling wall time (50 iterations) per model",
            overhead::sec54_profiling,
        ),
        (
            "ablation_credit",
            "[extension] Prophet ablation: static vs dynamic credit, deadline on/off",
            overhead::ablation_credit,
        ),
        (
            "ext_asp",
            "[extension] §7 future work: ASP vs BSP synchronisation",
            extensions::ext_asp,
        ),
        (
            "ext_gpus",
            "[extension] §7 future work: V100/A100-generation instances",
            extensions::ext_gpus,
        ),
        (
            "ext_dynamic_bw",
            "[extension] dynamic network: bandwidth dip and recovery mid-run",
            extensions::ext_dynamic_bw,
        ),
        (
            "ext_straggler",
            "[extension] compute straggler under BSP vs ASP",
            extensions::ext_straggler,
        ),
        (
            "ext_faults",
            "[extension] fault injection: link/shard/worker failures, degradation and recovery",
            faults::ext_faults,
        ),
        (
            "ext_chaos",
            "[extension] chaos sweep: transient, churn, corruption and mixed fault plans vs one verdict",
            chaos::ext_chaos,
        ),
        (
            "ext_scale",
            "[extension] scaling frontier: 64-1024 workers, iteration time + simulator wall-clock",
            scale::ext_scale,
        ),
        (
            "ext_threaded",
            "[extension] threaded PS steady-state throughput across shard counts (zero-copy counters)",
            threaded::ext_threaded,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_nonempty() {
        let reg = registry();
        assert!(reg.len() >= 24);
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment ids");
    }
}
