//! §5.4's overhead studies (Figs. 12-13, profiling cost) plus an ablation
//! of Prophet's design choices that the paper motivates but never
//! isolates.

use super::{bytescheduler, cell, prophet, r1, steady};
use crate::output::{ascii_series, ExperimentOutput};
use prophet::core::{ProphetConfig, SchedulerKind};

/// Fig. 12: per-worker training rate as the cluster grows from 2 to 8
/// workers (sharded PS, as BytePS co-locates servers with workers).
pub fn fig12() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig12",
        "Scalability: ResNet50 bs64, workers 2..8, sharded PS",
        "Fig. 12: per-worker rate decreases only slightly, 69.94 → 68.83 \
         samples/s, from 2 to 8 workers — Alg. 1's overhead is negligible.",
        &["workers", "rate_per_worker", "aggregate_rate"],
    );
    for &workers in &[2usize, 4, 6, 8] {
        let mut cfg = cell("resnet50", 64, workers, 10.0, prophet(10.0));
        cfg.ps_shards = workers;
        let r = steady(&mut cfg, 8);
        out.row(vec![
            workers.to_string(),
            r1(r.rate),
            r1(r.rate * workers as f64),
        ]);
    }
    out
}

/// Fig. 13: the online Prophet's early-phase overhead — it trails
/// ByteScheduler while profiling, then overtakes.
pub fn fig13() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig13",
        "Profiling-phase overhead: per-iteration rate, online Prophet vs \
         ByteScheduler (ResNet50 bs64, 4 Gb/s)",
        "Fig. 13: Prophet's GPU utilisation is slightly below \
         ByteScheduler's in the first seconds (profiling under stock \
         behaviour), then exceeds it once planned.",
        &["iteration", "bytescheduler_rate", "prophet_online_rate"],
    );
    let mut pc = ProphetConfig::paper_default(4e9 / 8.0);
    pc.profile_iters = 6; // scaled-down window so the crossover is visible
    let run = |kind: SchedulerKind| {
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        cfg.warmup_iters = 1;
        prophet::ps::sim::run_cluster(&cfg, 20)
    };
    let bs = run(bytescheduler());
    let pr = run(SchedulerKind::Prophet(pc));
    for i in 0..bs.iter_times.len().min(pr.iter_times.len()) {
        out.row(vec![
            i.to_string(),
            r1(64.0 / bs.iter_times[i].as_secs_f64()),
            r1(64.0 / pr.iter_times[i].as_secs_f64()),
        ]);
    }
    let series: Vec<(f64, f64)> = pr
        .iter_times
        .iter()
        .enumerate()
        .map(|(i, t)| (i as f64, 64.0 / t.as_secs_f64()))
        .collect();
    out.notes = format!(
        "{}Profiling covers iterations 0-5 (paper: 50); the rate steps up \
         once the plan is adopted.",
        ascii_series("prophet/iter", &series, 40)
    );
    out
}

/// §5.4's profiling wall time: 50 iterations of pre-training per model.
pub fn sec54_profiling() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "sec54_profiling",
        "Job-profiling wall time: 50 iterations of stock training",
        "§5.4: profiling costs 7 s (Inception-v3 bs32), 9.5 s (ResNet50 \
         bs64), 24.7 s (ResNet152 bs32) — negligible against thousands of \
         training iterations.",
        &["model", "batch", "profiling_seconds"],
    );
    for &(model, batch) in &[("inception_v3", 32u32), ("resnet50", 64), ("resnet152", 32)] {
        // Profiling runs under stock FIFO behaviour; its wall time is 50
        // simulated iterations of that.
        let mut cfg = cell(model, batch, 3, 10.0, SchedulerKind::Fifo);
        cfg.warmup_iters = 1;
        let r = prophet::ps::sim::run_cluster(&cfg, 8);
        let mean_iter: f64 = r.iter_times[1..]
            .iter()
            .map(|t| t.as_secs_f64())
            .sum::<f64>()
            / (r.iter_times.len() - 1) as f64;
        out.row(vec![
            model.into(),
            batch.to_string(),
            format!("{:.1}", mean_iter * 50.0),
        ]);
    }
    out.notes = "Computed as 50 × the steady FIFO iteration time at 10 Gb/s \
                 (the profiling phase runs under stock scheduling)."
        .into();
    out
}

/// Ablation (extension beyond the paper): which of Prophet's ingredients
/// buys what? Compares the full scheduler against variants with the
/// generation-deadline throttle disabled and with the regime-adaptive
/// credit pinned.
pub fn ablation_credit() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ablation_credit",
        "Prophet ablation: deadline throttle and regime-adaptive credit",
        "Not in the paper — isolates the contribution of each mechanism \
         DESIGN.md calls out.",
        &["gbps", "full", "no_deadline", "static_deep", "static_lean"],
    );
    for &gbps in &[2.0, 4.0] {
        let bps = gbps * 1e9 / 8.0;
        let rate = |cfgmod: &dyn Fn(&mut ProphetConfig)| {
            let mut pc = ProphetConfig::paper_default(bps);
            cfgmod(&mut pc);
            let kind = SchedulerKind::ProphetOracle(pc);
            let mut cfg = cell("resnet50", 64, 3, gbps, kind);
            steady(&mut cfg, 12).rate
        };
        let full = rate(&|_| {});
        let no_deadline = rate(&|pc| {
            // An "infinitely late" predicted deadline never throttles.
            pc.deadline_safety = -1000.0;
        });
        let static_deep = rate(&|pc| {
            pc.lean_credit_bytes = pc.base_credit_bytes;
        });
        let static_lean = rate(&|pc| {
            pc.base_credit_bytes = pc.lean_credit_bytes;
        });
        out.row(vec![
            format!("{gbps}"),
            r1(full),
            r1(no_deadline),
            r1(static_deep),
            r1(static_lean),
        ]);
    }
    out.notes = "full = deadline throttle + regime credit. The regime credit \
                 matters most near the compute/communication balance point; \
                 the deadline throttle protects gradient 0's start."
        .into();
    out
}
