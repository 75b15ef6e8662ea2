//! Extension: deterministic fault injection: how each strategy degrades
//! and recovers under the failure classes the fault layer models.

use super::{bytescheduler, cell, prophet, r1, steady};
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(ms)
}

/// Fault matrix: each failure class from `prophet_sim::fault`, injected
/// mid-run into the same ResNet50 cell, across the FIFO / ByteScheduler /
/// Prophet lineup. `recovery_ms` is how far the worst iteration stretched
/// past the median — the visible cost of absorbing the fault.
pub fn ext_faults() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_faults",
        "Fault injection: ResNet50 bs64, 3 workers, 4 Gb/s",
        "§1/§4.2 motivate Prophet with dynamic, unreliable networks but the \
         paper only varies bandwidth. This injects deterministic link \
         failures, degradation, message loss, a PS shard crash, and a worker \
         stall, and reports each strategy's degradation and recovery cost.",
        &[
            "fault",
            "strategy",
            "rate",
            "recovery_ms",
            "retries",
            "recoveries",
        ],
    );
    // Nodes: 0 = the PS shard, 1..=3 = workers. Faults land around t=2 s,
    // well past warm-up for this cell (~0.8 s/iteration).
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::empty()),
        (
            "link_down",
            FaultPlan::new(vec![FaultSpec::LinkDown {
                node: 2,
                at: at_ms(2_000),
                dur: Duration::from_millis(400),
            }]),
        ),
        (
            "link_degrade",
            FaultPlan::new(vec![FaultSpec::LinkDegrade {
                node: 2,
                at: at_ms(2_000),
                factor: 0.25,
                dur: Duration::from_millis(2_000),
            }]),
        ),
        (
            "msg_loss",
            FaultPlan::new(vec![FaultSpec::MsgLoss {
                rate: 0.05,
                at: at_ms(2_000),
                dur: Duration::from_millis(2_000),
            }]),
        ),
        (
            "shard_crash",
            FaultPlan::new(vec![FaultSpec::ShardCrash {
                shard: 0,
                at: at_ms(2_500),
                restart_after: Duration::from_millis(300),
            }]),
        ),
        (
            "worker_stall",
            FaultPlan::new(vec![FaultSpec::WorkerStall {
                worker: 1,
                at: at_ms(2_000),
                dur: Duration::from_millis(800),
            }]),
        ),
    ];
    for (fault, plan) in &plans {
        for kind in [SchedulerKind::Fifo, bytescheduler(), prophet(4.0)] {
            let label = kind.label().to_string();
            let mut cfg = cell("resnet50", 64, 3, 4.0, kind);
            cfg.fault_plan = plan.clone();
            let r = steady(&mut cfg, 12);
            assert_eq!(
                r.iter_times.len(),
                12,
                "{label} under {fault}: incomplete run"
            );
            let mut ts: Vec<f64> = r.iter_times.iter().map(|d| d.as_millis_f64()).collect();
            let max = ts.iter().cloned().fold(0.0, f64::max);
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite iter times"));
            let median = ts[ts.len() / 2];
            out.row(vec![
                fault.to_string(),
                label,
                r1(r.rate),
                format!("{:.1}", max - median),
                r.fault_stats.retries.to_string(),
                r.fault_stats.recoveries.to_string(),
            ]);
        }
    }
    out.notes = "Every cell completes all 12 iterations — no strategy hangs \
                 or drops a gradient. `recovery_ms` (worst iteration minus \
                 median) isolates the fault's absorption cost from the \
                 steady-state rate: transient faults (link_down, shard_crash, \
                 worker_stall) show up there, sustained ones (link_degrade, \
                 msg_loss) mostly in `rate`. Prophet additionally enters \
                 degraded mode when failures silence the bandwidth monitor \
                 and replans once estimates stabilise."
        .into();
    out
}
