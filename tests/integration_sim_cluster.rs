//! Cross-crate integration: full cluster simulations exercising every
//! substrate together (workload model → schedulers → network → PS).

use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::sim::Duration;

fn cell(model: &str, batch: u32, workers: usize, gbps: f64, kind: SchedulerKind) -> ClusterConfig {
    ClusterConfig::paper_cell(workers, gbps, TrainingJob::paper_setup(model, batch), kind)
}

/// Debug builds simulate ~20x slower; shrink long runs there (assertions
/// are qualitative orderings, so fewer iterations only add noise).
fn iters(n: u64) -> u64 {
    if cfg!(debug_assertions) {
        (n / 2).max(4)
    } else {
        n
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under the debug profile; the release tier runs it"
)]
fn every_strategy_completes_every_evaluated_model() {
    for model in ["resnet18", "resnet50", "inception_v3"] {
        for kind in SchedulerKind::paper_lineup(1.25e9) {
            let label = kind.label();
            let r = run_cluster(&cell(model, 16, 2, 10.0, kind), 4);
            assert_eq!(r.iter_times.len(), 4, "{model}/{label}");
            assert!(r.rate > 0.0, "{model}/{label}: zero rate");
            assert!(
                r.rate <= r.iter_times.len() as f64 * 1e4,
                "{model}/{label}: absurd rate {}",
                r.rate
            );
        }
    }
}

#[test]
fn rates_never_exceed_compute_ceiling() {
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let cfg = cell("resnet50", 64, 3, 10.0, kind);
        let ceiling = cfg.job.compute_rate_ceiling();
        let label = cfg.scheduler.label();
        let r = run_cluster(&cfg, 6);
        // Small tolerance: compute jitter lets short windows slightly
        // beat the nominal (jitter-free) ceiling.
        assert!(
            r.rate <= ceiling * 1.08,
            "{label}: {:.1} exceeds ceiling {:.1}",
            r.rate,
            ceiling
        );
    }
}

#[test]
fn transfer_conservation_every_gradient_every_iteration() {
    // Every gradient must be pushed and pulled exactly once per iteration,
    // for every strategy (the BSP contract).
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        let r = run_cluster(&cell("resnet18", 32, 3, 10.0, kind), 4);
        for (it, logs) in r.transfer_logs().iter().enumerate() {
            assert_eq!(logs.len(), 62, "{label} iter {it}: wrong gradient count");
            for log in logs {
                assert!(
                    log.push_end > log.push_start,
                    "{label} iter {it} grad {}: empty push window",
                    log.grad
                );
                assert!(
                    log.pull_end >= log.push_end,
                    "{label} iter {it} grad {}: pulled before aggregated",
                    log.grad
                );
            }
        }
    }
}

#[test]
fn online_prophet_switches_out_of_profiling() {
    // With a short profiling window, the online Prophet must first behave
    // like FIFO, then improve once planned.
    let mut pc = ProphetConfig::paper_default(1.25e9 / 8.0 * 3.0); // 3 Gb/s-ish
    pc.profile_iters = 4;
    let kind = SchedulerKind::Prophet(pc);
    let mut cfg = cell("resnet50", 64, 3, 3.0, kind);
    cfg.warmup_iters = 1;
    let r = run_cluster(&cfg, 16); // fixed: indices below address iterations
    let early: f64 = r.iter_times[1..4]
        .iter()
        .map(|d| d.as_secs_f64())
        .sum::<f64>()
        / 3.0;
    let late: f64 = r.iter_times[10..16]
        .iter()
        .map(|d| d.as_secs_f64())
        .sum::<f64>()
        / 6.0;
    assert!(
        late < early * 0.95,
        "planned phase not faster: early {early:.3}s late {late:.3}s"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under the debug profile; the release tier runs it"
)]
fn prophet_beats_fifo_and_p3_in_paper_regime() {
    // The paper's headline ordering at a mid-band bandwidth.
    let gbps = 4.0;
    let rate = |kind: SchedulerKind| {
        let mut cfg = cell("resnet50", 64, 3, gbps, kind);
        cfg.warmup_iters = 4;
        run_cluster(&cfg, iters(15)).rate
    };
    let fifo = rate(SchedulerKind::Fifo);
    let p3 = rate(SchedulerKind::P3 {
        partition_bytes: 4 << 20,
    });
    let prophet = rate(SchedulerKind::ProphetOracle(ProphetConfig::paper_default(
        gbps * 1e9 / 8.0,
    )));
    assert!(
        prophet > p3 && p3 > fifo,
        "ordering violated: prophet {prophet:.1}, p3 {p3:.1}, fifo {fifo:.1}"
    );
    assert!(
        prophet > fifo * 1.05,
        "prophet's edge over FIFO too small: {prophet:.1} vs {fifo:.1}"
    );
}

#[test]
fn all_strategies_converge_on_fast_networks() {
    // §5.3: at 10 Gb/s "the optimization space ... is marginal".
    let rates: Vec<f64> = SchedulerKind::paper_lineup(1.25e9)
        .into_iter()
        .map(|kind| {
            let mut cfg = cell("resnet18", 64, 3, 10.0, kind);
            cfg.warmup_iters = 3;
            run_cluster(&cfg, iters(12)).rate
        })
        .collect();
    let max = rates.iter().cloned().fold(0.0, f64::max);
    let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        (max - min) / max < 0.08,
        "strategies should converge at 10G: {rates:?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under the debug profile; the release tier runs it"
)]
fn gpu_idle_dip_visible_under_fifo() {
    // Fig. 2: under default MXNet the GPU goes fully idle while waiting
    // for pulls at least once per iteration on a constrained network.
    let mut cfg = cell("resnet152", 32, 3, 3.0, SchedulerKind::Fifo);
    cfg.sample_window = Duration::from_millis(100);
    let r = run_cluster(&cfg, 6);
    let idle_windows = r.gpu_util.iter().filter(|&&(_, u)| u < 0.05).count();
    assert!(
        idle_windows >= 3,
        "expected idle valleys in the GPU series, got {idle_windows}"
    );
}

#[test]
fn heterogeneous_slow_worker_drags_the_cluster() {
    // §5.3: one worker capped at 500 Mb/s.
    let kind = || SchedulerKind::ProphetOracle(ProphetConfig::paper_default(1.25e9));
    let uniform = cell("resnet50", 64, 3, 10.0, kind());
    let mut hetero = uniform.clone();
    hetero.worker_bps_overrides.push((2, 62.5e6));
    let ru = run_cluster(&uniform, 6);
    let rh = run_cluster(&hetero, 6);
    assert!(
        rh.rate < ru.rate * 0.7,
        "500 Mb/s worker should hurt: {:.1} vs {:.1}",
        rh.rate,
        ru.rate
    );
}
