//! Extension: the simulator's scaling frontier.
//!
//! The paper's testbed stops at 7 workers (§5.1) and the Fig. 12 study at
//! 8. This experiment pushes the *simulator* to 64–1024 workers with
//! BytePS-style co-located PS shards (`ps_shards = workers`) and reports,
//! per scheduling strategy, both the simulated iteration time and the
//! host wall-clock the simulation itself cost — the trajectory that the
//! incremental max-min re-allocation and the indexed event queue exist
//! for. `BENCH_sim_scale.json` tracks the same code path as a criterion
//! bench; this run writes `results/ext_scale.csv`.

use super::{bytescheduler, cell, p3, prophet};
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::ps::sim::run_cluster;

/// Worker counts on the scaling trajectory.
const SCALES: &[usize] = &[64, 256, 512, 1024];

/// `repro ext_scale`: iteration time and simulation cost vs worker count
/// for all four paper strategies.
pub fn ext_scale() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_scale",
        "Scaling frontier: ResNet18 bs16, 10 Gb/s, 64-1024 workers, co-located shards",
        "Beyond Fig. 12: the paper's scaling study stops at 8 workers. \
         Expectation: simulated iteration time grows ~linearly with workers \
         (each gradient's pushes share its home shard's NIC), the strategy \
         ordering from the testbed survives to 1024 workers, and the \
         simulator itself stays tractable — host wall-clock per run is the \
         engineering claim the incremental allocator is pinned on.",
        &[
            "workers",
            "strategy",
            "iter_ms",
            "sim_s",
            "host_ms",
            "msgs",
            "refills",
            "flows_refilled",
            "fill_rounds",
            "rounds_reused",
            "rate_changes",
            "index_pushes",
            "index_stale_pops",
            "split_checks",
            "events",
            "peak_pending",
            "pump_calls",
            "tasks",
            "sends",
            "peak_live_tasks",
            "lanes",
        ],
    );
    for &workers in SCALES {
        let lineup: Vec<SchedulerKind> =
            vec![SchedulerKind::Fifo, p3(), bytescheduler(), prophet(10.0)];
        for kind in lineup {
            let label = kind.label().to_string();
            let mut cfg = cell("resnet18", 16, workers, 10.0, kind);
            cfg.ps_shards = workers;
            cfg.warmup_iters = 1;
            let t0 = std::time::Instant::now();
            let r = run_cluster(&cfg, 2);
            let host = t0.elapsed();
            // Steady-state iteration: the post-warmup one.
            let iter_ms = r
                .iter_times
                .last()
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(f64::NAN);
            let (n, c) = (r.net_stats, r.cluster_stats);
            let mut row = vec![
                workers.to_string(),
                label,
                format!("{iter_ms:.1}"),
                format!("{:.3}", r.duration.as_secs_f64()),
                format!("{:.0}", host.as_secs_f64() * 1e3),
            ];
            row.extend(
                [
                    n.completions,
                    n.refills,
                    n.flows_refilled,
                    n.fill_rounds,
                    n.rounds_reused,
                    n.rate_changes,
                    n.index_pushes,
                    n.index_stale_pops,
                    n.split_checks,
                    c.events(),
                    c.peak_pending_events,
                    c.pump_calls,
                    c.tasks_issued,
                    c.messages,
                    c.peak_live_tasks,
                    c.lanes_created,
                ]
                .map(|c| c.to_string()),
            );
            out.row(row);
        }
    }
    out.notes = "Host wall-clock is hardware-dependent; the column exists \
                 for order-of-magnitude tracking (a 1024-worker iteration \
                 simulates in seconds, where the pre-incremental engine \
                 drowned in duplicate wake events and full re-solves). The \
                 columns from `msgs` on are the network engine's own work \
                 counters (`NetStats`), exact per seed: messages delivered, \
                 component fills and the rates they set, the filling \
                 rounds they ran and the rounds they reused from the \
                 component's previous fill, rates that actually changed, \
                 completion-index \
                 pushes and stale pops (both track fills, not rate \
                 changes), and departures that needed a connectivity \
                 search. The columns from `events` on are the cluster \
                 engine's (`ClusterStats`), exact per seed as well: events \
                 popped, the most events pending at once, scheduler polling rounds, \
                 tasks issued and messages sent, the most tasks in flight \
                 at once (the length of the task table) and the lanes \
                 created — `workers × 62 × 2` once shards outnumber \
                 ResNet18's 62 tensors, not `workers × shards × 2`. \
                 Simulated iteration time scaling with workers reflects the \
                 per-gradient fan-in onto its home shard, which caps \
                 per-worker throughput at `shard_bps / workers`."
        .into();
    out
}
