//! §5.2's effectiveness studies: Figs. 8-11 and the forward-propagation
//! start-time analysis.

use super::{bytescheduler, cell, pct, prophet, r1, steady};
use crate::output::{ascii_series, ExperimentOutput};
use prophet::core::SchedulerKind;
use prophet::sim::Duration;

/// Fig. 8: Prophet vs ByteScheduler training rate for the four evaluated
/// models across batch sizes.
///
/// The paper does not state Fig. 8's bandwidth. In our model every
/// work-conserving scheduler ties when a cell is deeply compute- or
/// communication-bound, so each cell runs at its **balance-point
/// bandwidth** — the shared rate at which the gradient volume takes
/// ~1.05x the backward pass to push — which is exactly the regime where
/// the paper's EC2 cells live (their absolute rates sit near the
/// crossover region of Table 2).
pub fn fig8() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig8",
        "Training rate: Prophet vs ByteScheduler (balance-point bandwidth, 3 workers)",
        "Fig. 8: Prophet improves the training rate by 10-40% over \
         ByteScheduler across models and batch sizes.",
        &[
            "model",
            "batch",
            "gbps",
            "bytescheduler",
            "prophet",
            "improvement",
        ],
    );
    let cells: &[(&str, &[u32])] = &[
        ("resnet18", &[16, 32, 64]),
        ("resnet50", &[16, 32, 64]),
        ("resnet152", &[16, 32]),
        ("inception_v3", &[16, 32]),
    ];
    for &(model, batches) in cells {
        for &batch in batches {
            let job = prophet::dnn::TrainingJob::paper_setup(model, batch);
            let shared_bps =
                job.total_bytes() as f64 / (1.05 * job.backward_duration().as_secs_f64());
            let gbps = (3.0 * shared_bps * 8.0 / 1e9).clamp(1.0, 10.0);
            let rate = |kind: SchedulerKind| {
                let mut cfg = cell(model, batch, 3, gbps, kind);
                steady(&mut cfg, 12).rate
            };
            let bs = rate(bytescheduler());
            let pr = rate(prophet(gbps));
            out.row(vec![
                model.into(),
                batch.to_string(),
                format!("{gbps:.1}"),
                r1(bs),
                r1(pr),
                pct(pr, bs),
            ]);
        }
    }
    out.notes = "Our ByteScheduler baseline is stronger than the 2021 artifact \
                 the paper measured (see EXPERIMENTS.md), so the margins are \
                 smaller than the paper's 10-40%, with the same sign and trend."
        .into();
    out
}

/// Fig. 9: GPU utilisation over time for ByteScheduler and Prophet.
pub fn fig9() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig9",
        "GPU utilisation over time, ResNet50 bs64, 4 Gb/s",
        "Fig. 9: average GPU utilisation 91.15% (Prophet) vs 67.85% \
         (ByteScheduler); both show periodic dips.",
        &["strategy", "avg_gpu_util", "min_window", "max_window"],
    );
    let mut notes = String::new();
    for kind in [bytescheduler(), prophet(4.0)] {
        let label = kind.label();
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        cfg.sample_window = Duration::from_millis(100);
        let r = steady(&mut cfg, 14);
        let lo = r.gpu_util.iter().map(|&(_, u)| u).fold(1.0f64, f64::min);
        let hi = r.gpu_util.iter().map(|&(_, u)| u).fold(0.0f64, f64::max);
        out.row(vec![
            label.to_string(),
            format!("{:.1}%", r.avg_gpu_util * 100.0),
            format!("{:.2}", lo),
            format!("{:.2}", hi),
        ]);
        let series: Vec<(f64, f64)> = r
            .gpu_util
            .iter()
            .map(|&(t, u)| (t.as_secs_f64(), u))
            .collect();
        notes.push_str(&ascii_series(&format!("{label:<14}"), &series, 72));
    }
    out.notes = notes;
    out
}

/// Fig. 10: network throughput over time for ByteScheduler and Prophet.
pub fn fig10() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig10",
        "Worker network throughput over time, ResNet50 bs64, 4 Gb/s",
        "Fig. 10: Prophet's average throughput 10.3 MB/s vs ByteScheduler's \
         7.5 MB/s (+37.3%); both fluctuate with the block structure.",
        &["strategy", "avg_throughput_MBps", "peak_MBps"],
    );
    let mut notes = String::new();
    for kind in [bytescheduler(), prophet(4.0)] {
        let label = kind.label();
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        cfg.sample_window = Duration::from_millis(100);
        let r = steady(&mut cfg, 14);
        let peak = r
            .net_throughput
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        out.row(vec![
            label.to_string(),
            format!("{:.1}", r.avg_net_throughput / 1e6),
            format!("{:.1}", peak / 1e6),
        ]);
        let series: Vec<(f64, f64)> = r
            .net_throughput
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v / 1e6))
            .collect();
        notes.push_str(&ascii_series(&format!("{label:<14}"), &series, 72));
    }
    out.notes = format!(
        "{notes}Absolute MB/s differ from the paper (their Fig. 10 axis is \
         per-sampling-window on a live NIC); compare the ratio and the \
         fluctuating shape."
    );
    out
}

/// Fig. 11: per-gradient transfer timing for MXNet, ByteScheduler, and
/// Prophet, plus the §5.2 summary statistics (mean wait / transfer).
pub fn fig11() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig11",
        "Per-gradient push start/end times, ResNet50 bs64, 4 Gb/s",
        "Fig. 11 / §5.2: mean transmission 446 ms (MXNet), 135 ms \
         (ByteScheduler), 125 ms (Prophet); mean wait 67 ms (ByteScheduler) \
         vs 26 ms (Prophet). Example gradient 30: waits 0.787/10.359/3.207 \
         ms, transfers 440/56/22.7 ms.",
        &[
            "strategy",
            "gradient",
            "ready_ms",
            "push_start_ms",
            "push_end_ms",
            "pull_end_ms",
        ],
    );
    let mut summary = String::new();
    for kind in [SchedulerKind::Fifo, bytescheduler(), prophet(4.0)] {
        let label = kind.label().to_string();
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        let r = steady(&mut cfg, 10);
        let it = 8;
        let t0 = r.iter_starts[it];
        // Every 10th gradient keeps the table and the CSV readable.
        let logs = &r.transfer_logs()[it];
        for log in logs {
            if log.grad % 10 != 0 {
                continue;
            }
            out.row(vec![
                label.clone(),
                log.grad.to_string(),
                format!("{:.1}", log.ready.saturating_since(t0).as_millis_f64()),
                format!("{:.1}", log.push_start.saturating_since(t0).as_millis_f64()),
                format!("{:.1}", log.push_end.saturating_since(t0).as_millis_f64()),
                format!("{:.1}", log.pull_end.saturating_since(t0).as_millis_f64()),
            ]);
        }
        let g30 = logs.iter().find(|l| l.grad == 30).unwrap();
        summary.push_str(&format!(
            "{label}: mean wait {:.1} ms, mean transfer {:.1} ms; gradient 30 \
             waits {:.3} ms, transfers {:.3} ms\n",
            r.mean_wait_ms(it),
            r.mean_transfer_ms(it),
            g30.wait().as_millis_f64(),
            g30.transfer().as_millis_f64(),
        ));
    }
    out.notes = summary;
    out
}

/// §5.2's forward-propagation start analysis: when does the next iteration
/// begin, and how many iterations complete in 15 seconds?
pub fn sec52_fpstart() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "sec52_fpstart",
        "Iteration pipelining: next-iteration start and iterations per 15 s",
        "§5.2: Prophet starts iteration 61 at 856.796 ms vs ByteScheduler's \
         1416 ms, and completes iterations 60-74 in 15 s vs 60-71.",
        &["strategy", "next_iter_start_ms", "iterations_in_15s"],
    );
    for kind in [bytescheduler(), prophet(4.0)] {
        let label = kind.label();
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        cfg.warmup_iters = 4;
        let r = prophet::ps::sim::run_cluster(&cfg, 24);
        // Anchor at iteration 6 (standing in for the paper's iteration 60).
        let anchor = 6;
        let next_start = r.iter_starts[anchor + 1].saturating_since(r.iter_starts[anchor]);
        out.row(vec![
            label.to_string(),
            format!("{:.1}", next_start.as_millis_f64()),
            r.iterations_within(anchor, Duration::from_secs(15))
                .to_string(),
        ]);
    }
    out.notes = "The anchor iteration plays the paper's iteration 60; both \
                 metrics are measured from its start."
        .into();
    out
}
