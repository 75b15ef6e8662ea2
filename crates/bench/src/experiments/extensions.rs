//! Extensions beyond the paper's evaluation: the §7 future-work items
//! (ASP synchronisation, newer GPU instances) plus the dynamic-network
//! robustness the paper motivates in §1/§4.2 and a straggler study.

use super::{bytescheduler, cell, pct, prophet, r1, steady};
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::dnn::{GenerationModel, GpuSpec, TrainingJob};
use prophet::ps::sim::{run_cluster, ClusterConfig, SyncMode};
use prophet::sim::Duration;

/// §7 future work (1): "validating the stepwise pattern with the ASP
/// model". Runs BSP and ASP side by side: the stepwise release pattern is
/// a *worker-local* phenomenon, so Prophet's scheduling survives the
/// switch, and ASP removes the cross-worker barrier cost.
pub fn ext_asp() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_asp",
        "ASP vs BSP: ResNet50 bs64, 4 Gb/s, 3 workers (5% compute jitter)",
        "§7 future work: the paper defers ASP validation. Expectation: the \
         stepwise pattern (worker-local) persists, Prophet still leads, and \
         ASP's barrier-free updates absorb jitter that stalls BSP.",
        &["sync", "strategy", "rate", "vs_fifo"],
    );
    for sync in [SyncMode::Bsp, SyncMode::Asp] {
        let mut rates: Vec<(String, f64)> = Vec::new();
        for kind in [SchedulerKind::Fifo, bytescheduler(), prophet(4.0)] {
            let label = kind.label().to_string();
            let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
            cfg.sync = sync;
            cfg.compute_jitter = 0.05;
            let r = steady(&mut cfg, 12);
            rates.push((label, r.rate));
        }
        let fifo = rates[0].1;
        for (label, rate) in rates {
            out.row(vec![format!("{sync:?}"), label, r1(rate), pct(rate, fifo)]);
        }
    }
    out.notes = "Finding: every ASP rate exceeds its BSP counterpart (no \
                 cross-worker barrier), and the *spread between strategies \
                 collapses* — without the barrier, a worker's forward pass \
                 only waits on its own pushes, so gradient-0 timeliness \
                 matters far less. Prophet's headroom is largely a BSP \
                 phenomenon, which is consistent with the paper scoping \
                 itself to BSP (§6.2)."
        .into();
    out
}

/// §7 future work (2): newer GPU instances (p3 = 8x V100, p4 = 8x A100).
/// Faster compute makes the same job more communication-bound, widening
/// the scheduling headroom.
pub fn ext_gpus() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_gpus",
        "GPU generations: ResNet50 bs64, 10 Gb/s, 3 workers",
        "§7 future work: the paper defers p3/p4 instances. Expectation: the \
         faster the GPU, the more communication-bound the job, the larger \
         the scheduling effect — at M60 speed 10 Gb/s is compute-bound and \
         everyone ties.",
        &[
            "gpu",
            "ceiling",
            "fifo",
            "bytescheduler",
            "prophet",
            "prophet_vs_fifo",
        ],
    );
    type GpuCtor = fn(&str) -> GpuSpec;
    let gpus: &[(&str, GpuCtor)] = &[
        ("2x M60 (g3.8xl)", GpuSpec::m60_pair as GpuCtor),
        ("8x V100 (p3.16xl)", GpuSpec::v100_octet as GpuCtor),
        ("8x A100 (p4d.24xl)", GpuSpec::a100_octet as GpuCtor),
    ];
    for &(label, ctor) in gpus {
        let job = || {
            TrainingJob::new(
                prophet::dnn::zoo::resnet50(),
                ctor("resnet50"),
                64,
                GenerationModel::mxnet_like(),
            )
        };
        let ceiling = job().compute_rate_ceiling();
        let rate = |kind: SchedulerKind| {
            let mut cfg = ClusterConfig::paper_cell(3, 10.0, job(), kind);
            steady(&mut cfg, 12).rate
        };
        let fifo = rate(SchedulerKind::Fifo);
        let bs = rate(bytescheduler());
        let pr = rate(prophet(10.0));
        out.row(vec![
            label.into(),
            r1(ceiling),
            r1(fifo),
            r1(bs),
            r1(pr),
            pct(pr, fifo),
        ]);
    }
    out
}

/// Dynamic network environments (§1, §4.2): the fabric's bandwidth drops
/// mid-run and recovers; Prophet re-plans from the 5-second monitor.
pub fn ext_dynamic_bw() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_dynamic_bw",
        "Dynamic bandwidth: 4 Gb/s -> 1.5 Gb/s at t=15s -> 4 Gb/s at t=40s",
        "§1/§4.2: static partition/credit configurations 'can hardly adapt \
         to the dynamic network environments'; Prophet re-plans whenever \
         the monitored bandwidth moves beyond tolerance.",
        &[
            "strategy",
            "rate_overall",
            "rate_during_dip",
            "estimates_seen",
        ],
    );
    for kind in [bytescheduler(), prophet(4.0)] {
        let label = kind.label();
        let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
        cfg.bandwidth_schedule = vec![
            (Duration::from_secs(15), 1.5e9 / 8.0),
            (Duration::from_secs(40), 4e9 / 8.0),
        ];
        cfg.warmup_iters = 3;
        let r = run_cluster(&cfg, 45);
        // Rate inside the dip: iterations whose start falls in [15s, 40s).
        let mut dip_time = 0.0;
        let mut dip_iters = 0u32;
        for (i, &start) in r.iter_starts.iter().enumerate() {
            let s = start.as_secs_f64();
            if (15.0..40.0).contains(&s) && i < r.iter_times.len() {
                dip_time += r.iter_times[i].as_secs_f64();
                dip_iters += 1;
            }
        }
        let dip_rate = if dip_time > 0.0 {
            dip_iters as f64 * 64.0 / dip_time
        } else {
            0.0
        };
        let distinct_estimates = {
            let mut v: Vec<i64> = r
                .bandwidth_estimates
                .iter()
                .map(|&(_, b)| (b / 1e7) as i64)
                .collect();
            v.dedup();
            v.len()
        };
        out.row(vec![
            label.to_string(),
            r1(r.rate),
            r1(dip_rate),
            distinct_estimates.to_string(),
        ]);
    }
    out.notes = "`estimates_seen` counts distinct 10 MB/s-granularity monitor \
                 readings — it must exceed 2 if the monitor tracked the dip \
                 and the recovery."
        .into();
    out
}

/// Straggler study: one worker's GPU runs at 70% speed. Under BSP the
/// whole cluster waits; under ASP only the straggler slows down.
pub fn ext_straggler() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_straggler",
        "Compute straggler: worker 2 at 0.7x GPU speed (ResNet50 bs64, 10 Gb/s)",
        "Related-work axis (LBBSP §6.2): non-dedicated environments have \
         slow workers. BSP pays the straggler tax on every gradient's \
         barrier; ASP does not.",
        &["sync", "straggler", "rate_worker0", "slowdown"],
    );
    for sync in [SyncMode::Bsp, SyncMode::Asp] {
        let mut base_rate = 0.0;
        for straggler in [false, true] {
            let mut cfg = cell("resnet50", 64, 3, 10.0, prophet(10.0));
            cfg.sync = sync;
            if straggler {
                cfg.worker_compute_scale = vec![(2, 0.7)];
            }
            let r = steady(&mut cfg, 10);
            if !straggler {
                base_rate = r.rate;
            }
            out.row(vec![
                format!("{sync:?}"),
                straggler.to_string(),
                r1(r.rate),
                if straggler {
                    pct(r.rate, base_rate)
                } else {
                    "—".into()
                },
            ]);
        }
    }
    out
}
