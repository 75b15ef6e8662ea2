//! §2's motivation studies: Figs. 2, 3(a), 3(b), 4, and the illustrative
//! Fig. 5 comparison.

use super::{cell, r1, steady};
use crate::output::{ascii_series, ExperimentOutput};
use prophet::core::{AutoTuneConfig, ByteSchedulerConfig, SchedulerKind};
use prophet::dnn::{GenerationModel, GpuSpec, TrainingJob};
use prophet::sim::{grad_spans_to_ascii_gantt, SpanKind};

/// Fig. 2: GPU utilisation and network throughput over time under default
/// MXNet. The signature is the utilisation collapsing to ~0 during the
/// pull phase of every iteration.
pub fn fig2() -> ExperimentOutput {
    let mut cfg = cell("resnet152", 32, 3, 3.0, SchedulerKind::Fifo);
    cfg.sample_window = prophet::sim::Duration::from_millis(100);
    let r = steady(&mut cfg, 10);

    let mut out = ExperimentOutput::new(
        "fig2",
        "GPU util + network throughput over time, default MXNet, ResNet152 bs32",
        "Fig. 2: GPU utilisation repeatedly drops to zero during pulls; \
         network idles during compute.",
        &["window_start_s", "gpu_util", "net_throughput_MBps"],
    );
    let net: std::collections::BTreeMap<u64, f64> = r
        .net_throughput
        .iter()
        .map(|&(t, v)| (t.as_nanos(), v))
        .collect();
    for &(t, u) in &r.gpu_util {
        let n = net.get(&t.as_nanos()).copied().unwrap_or(0.0);
        out.row(vec![
            format!("{:.2}", t.as_secs_f64()),
            format!("{u:.3}"),
            format!("{:.1}", n / 1e6),
        ]);
    }
    let idle = r.gpu_util.iter().filter(|&&(_, u)| u < 0.05).count();
    out.notes = format!(
        "{}{}\nGPU fully idle in {idle} of {total} windows — the Fig. 2 valleys.",
        ascii_series("gpu util   ", &to_xy(&r.gpu_util), 72),
        ascii_series("net MB/s   ", &to_xy(&r.net_throughput), 72),
        idle = idle,
        total = r.gpu_util.len(),
    );
    out
}

fn to_xy(series: &[(prophet::sim::SimTime, f64)]) -> Vec<(f64, f64)> {
    series.iter().map(|&(t, v)| (t.as_secs_f64(), v)).collect()
}

/// Fig. 3(a): P3's training rate vs partition size.
pub fn fig3a() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig3a",
        "P3 training rate vs partition size, ResNet50 bs64, 4 Gb/s",
        "Fig. 3(a): smaller partitions dramatically decrease the training \
         rate (per-partition blocking overhead).",
        &["partition_MB", "rate_samples_per_s"],
    );
    for &mb in &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let kind = SchedulerKind::P3 {
            partition_bytes: (mb * 1024.0 * 1024.0) as u64,
        };
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        let r = steady(&mut cfg, 9);
        out.row(vec![format!("{mb}"), r1(r.rate)]);
    }
    out.notes = "Rate should rise monotonically with partition size until the \
                 preemption-granularity cost flattens it."
        .into();
    out
}

/// Fig. 3(b): the ByteScheduler credit auto-tuner's rate fluctuation and
/// credit wander.
pub fn fig3b() -> ExperimentOutput {
    let kind = SchedulerKind::ByteScheduler(ByteSchedulerConfig {
        autotune: Some(AutoTuneConfig { interval_iters: 2 }),
    });
    let mut cfg = cell("resnet50", 64, 3, 3.0, kind);
    cfg.warmup_iters = 1;
    let r = prophet::ps::sim::run_cluster(&cfg, 40);

    let mut out = ExperimentOutput::new(
        "fig3b",
        "ByteScheduler auto-tuning: per-iteration rate and credit",
        "Fig. 3(b): the training rate fluctuates 44-56 samples/s while the \
         credit is tuned from ~3 MB to over 13 MB.",
        &["iteration", "rate_samples_per_s", "credit_MB"],
    );
    let credits: std::collections::BTreeMap<u64, u64> = r.credit_trace.iter().copied().collect();
    for (i, t) in r.iter_times.iter().enumerate() {
        let rate = 64.0 / t.as_secs_f64();
        let credit = credits
            .get(&(i as u64))
            .map(|&c| format!("{:.1}", c as f64 / 1e6))
            .unwrap_or_default();
        out.row(vec![format!("{i}"), r1(rate), credit]);
    }
    let rates: Vec<(f64, f64)> = r
        .iter_times
        .iter()
        .enumerate()
        .map(|(i, t)| (i as f64, 64.0 / t.as_secs_f64()))
        .collect();
    out.notes = ascii_series("rate/iter  ", &rates, 60);
    out
}

/// Fig. 4: the stepwise release staircase for ResNet50 (MXNet-style
/// aggregation) and VGG19 (TensorFlow-style).
pub fn fig4() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig4",
        "Stepwise pattern of gradient release times",
        "Fig. 4: ResNet50/MXNet releases gradients in bursts (e.g. 144-156 \
         together, then 134-143); VGG19/TensorFlow shows four coarse blocks \
         over gradients 0-37.",
        &[
            "model",
            "block",
            "time_ms",
            "gradients",
            "count",
            "bytes_MB",
        ],
    );
    let jobs = [
        ("resnet50/mxnet", TrainingJob::paper_setup("resnet50", 64)),
        (
            "vgg19/tensorflow",
            TrainingJob::new(
                prophet::dnn::zoo::vgg19(),
                GpuSpec::m60_pair("vgg19"),
                64,
                GenerationModel::tensorflow_like(),
            ),
        ),
    ];
    for (label, job) in jobs {
        let events = job.generation_events();
        let blocks = GenerationModel::blocks(events);
        for (i, block) in blocks.iter().enumerate() {
            let t = events
                .iter()
                .find(|e| e.id == block[0])
                .map(|e| e.ready_at.as_millis_f64())
                .unwrap_or(0.0);
            let bytes: u64 = block.iter().map(|&g| job.size(g)).sum();
            out.row(vec![
                label.to_string(),
                format!("{i}"),
                format!("{t:.1}"),
                format!(
                    "{}..{}",
                    block.iter().min().unwrap(),
                    block.iter().max().unwrap()
                ),
                format!("{}", block.len()),
                format!("{:.2}", bytes as f64 / 1e6),
            ]);
        }
    }
    out.notes = "Each row is one stair step: a burst of gradients released \
                 together by the KVStore-style aggregation."
        .into();
    out
}

/// Fig. 5: the four strategies on the same small workload, with the
/// per-strategy iteration structure that the paper's cartoon illustrates.
pub fn fig5() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "fig5",
        "Illustrative schedule comparison (ResNet18 bs64, 3 Gb/s, 2 workers)",
        "Fig. 5: FIFO blocks gradient 0 behind bulk transfers; P3 preempts \
         but pays per-partition overhead; ByteScheduler holds a static \
         credit; Prophet times its blocks to the generation windows.",
        &[
            "strategy",
            "rate",
            "iter_ms",
            "g0_wait_ms",
            "g0_update_ms",
            "fwd_start_after_bwd_ms",
        ],
    );
    let mut gantts = String::new();
    for kind in SchedulerKind::paper_lineup(3e9 / 8.0) {
        let label = kind.label();
        let mut cfg = cell("resnet18", 64, 2, 3.0, kind);
        cfg.compute_jitter = 0.0;
        let r = steady(&mut cfg, 6);
        let it = 4;
        // Worker 0's iteration-`it` spans: gradient 0 plus every 8th, to
        // keep the chart readable.
        let spans: Vec<_> = r
            .grad_spans
            .iter()
            .filter(|s| s.worker == 0 && s.iter == it as u64 && s.grad % 8 == 0)
            .copied()
            .collect();
        let g0 = r.transfer_logs()[it][0];
        let g0_fwd = spans
            .iter()
            .find(|s| s.grad == 0 && s.kind == SpanKind::Compute);
        let g0_fwd = g0_fwd.expect("gradient 0's forward ran").start;
        out.row(vec![
            label.to_string(),
            r1(r.rate),
            format!("{:.0}", r.iter_times[it].as_millis_f64()),
            format!("{:.1}", g0.wait().as_millis_f64()),
            format!(
                "{:.1}",
                g0.pull_end.saturating_since(g0.ready).as_millis_f64()
            ),
            format!("{:.1}", g0_fwd.saturating_since(g0.ready).as_millis_f64()),
        ]);
        let gantt = grad_spans_to_ascii_gantt(&spans, 90);
        gantts.push_str(&format!("\n{label}:\n{gantt}"));
    }
    out.notes = format!(
        "g0_update_ms = time from gradient 0's generation to its updated \
         parameters arriving (u(0) − c(0) in Eq. 2); fwd_start_after_bwd_ms = \
         from that generation to tensor 0's next forward starting. Charts: \
         worker 0's iteration 4, gradient 0 and every 8th.\n{gantts}"
    );
    out
}
