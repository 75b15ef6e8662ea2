//! Deterministic regression test for the proptest counterexample recorded in
//! `tests/prop_cross_crate.proptest-regressions`:
//!
//! ```text
//! cc 7e1919dd... # shrinks to kind_idx = 0, gbps = 6.626115377326036, batch_idx = 2, seed = 0
//! ```
//!
//! The property-based suite samples the cell space, so the exact failing cell
//! depends on the runner's seeding. This test pins the historical
//! counterexample directly — Fifo scheduler, 6.626 Gbps, batch 64, seed 0 —
//! and re-checks every assertion from `any_cell_is_well_formed` on it.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, RunResult};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

#[test]
fn pinned_fifo_cell_is_well_formed() {
    let gbps = 6.626115377326036_f64;
    let batch = 64u32;
    let seed = 0u64;

    let job = TrainingJob::paper_setup("resnet18", batch);
    let ceiling = job.compute_rate_ceiling();
    let n = job.num_gradients();
    let kind = SchedulerKind::paper_lineup(1e9)[0].clone();
    assert!(matches!(kind, SchedulerKind::Fifo));

    let mut cfg = ClusterConfig::paper_cell(2, gbps, job, kind);
    cfg.seed = seed;
    cfg.warmup_iters = 1;
    let r = run_cluster(&cfg, 3);

    assert_eq!(r.iter_times.len(), 3);
    assert!(r.rate > 0.0);
    assert!(
        r.rate <= ceiling * 1.10,
        "rate {} > ceiling {}",
        r.rate,
        ceiling
    );
    for logs in &r.transfer_logs() {
        assert_eq!(logs.len(), n);
        for log in logs {
            assert!(
                log.ready <= log.push_start,
                "grad {}: ready {:?} > push_start {:?}",
                log.grad,
                log.ready,
                log.push_start
            );
            assert!(
                log.push_start < log.push_end,
                "grad {}: push_start {:?} >= push_end {:?}",
                log.grad,
                log.push_start,
                log.push_end
            );
            assert!(
                log.push_end <= log.pull_end,
                "grad {}: push_end {:?} > pull_end {:?}",
                log.grad,
                log.push_end,
                log.pull_end
            );
            assert!(
                log.pull_start <= log.pull_end,
                "grad {}: pull_start {:?} > pull_end {:?}",
                log.grad,
                log.pull_start,
                log.pull_end
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-path counterexamples, pinned.
//
// These cells tripped engine bugs while the fault layer was being built; each
// is pinned with the exact plan that exposed it so a regression reproduces
// deterministically instead of depending on the property suite's sampling.
// ---------------------------------------------------------------------------

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(v)
}

fn faulted_cell(kind: SchedulerKind, plan: FaultPlan) -> RunResult {
    let mut cfg = ClusterConfig::paper_cell(
        2,
        6.626115377326036,
        TrainingJob::paper_setup("resnet18", 64),
        kind,
    );
    cfg.seed = 0;
    cfg.warmup_iters = 1;
    cfg.fault_plan = plan;
    run_cluster(&cfg, 3)
}

/// A shard crash landing mid-push must both kill the in-flight flow AND
/// synthesise replays for already-aggregated slices the crash wiped. The
/// original bug: the killed slice and the voided aggregation state each
/// emitted their own `RetryAttempt` for the same gradient, which the
/// invariant checker rejects as non-consecutive retry numbering.
#[test]
fn pinned_mid_push_shard_crash_cell() {
    let plan = FaultPlan::new(vec![FaultSpec::ShardCrash {
        shard: 0,
        at: ms(55),
        restart_after: Duration::from_millis(30),
    }]);
    let kind = SchedulerKind::paper_lineup(1e9)[0].clone();
    let a = faulted_cell(kind.clone(), plan.clone());
    assert_eq!(a.iter_times.len(), 3, "crash run did not complete");
    assert!(
        a.fault_stats.flows_killed > 0,
        "crash at 55 ms should land mid-push: {:?}",
        a.fault_stats
    );
    assert!(
        a.fault_stats.replays > 0,
        "crash should wipe aggregated slices and replay them: {:?}",
        a.fault_stats
    );
    assert!(a.fault_stats.recoveries > 0, "{:?}", a.fault_stats);
    // Transfer logs stay well-formed through the retry/replay path.
    for logs in &a.transfer_logs() {
        for log in logs {
            assert!(log.ready <= log.push_start);
            assert!(log.push_start < log.push_end);
            assert!(log.push_end <= log.pull_end);
            assert!(log.pull_start <= log.pull_end);
        }
    }
    let b = faulted_cell(kind, plan);
    assert_eq!(
        a.iter_times, b.iter_times,
        "crash recovery nondeterministic"
    );
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.fault_stats, b.fault_stats);
}

/// A link failure overlapping a shard crash: the same message can be
/// killed by the link going down and then have its lane re-kicked while
/// the shard is still dark. The original bug: the re-kicked lane started a
/// flow towards the downed shard, which then dangled past the end of the
/// run and tripped the checker's open-flow accounting.
#[test]
fn pinned_overlapping_link_down_and_shard_crash() {
    let plan = FaultPlan::new(vec![
        FaultSpec::LinkDown {
            node: 2,
            at: ms(25),
            dur: Duration::from_millis(40),
        },
        FaultSpec::ShardCrash {
            shard: 0,
            at: ms(35),
            restart_after: Duration::from_millis(45),
        },
    ]);
    for kind in SchedulerKind::paper_lineup(1e9) {
        let label = kind.label().to_string();
        let r = faulted_cell(kind, plan.clone());
        assert_eq!(r.iter_times.len(), 3, "{label}: hung under overlap");
        assert!(
            r.fault_stats.retries == 0 || r.fault_stats.recoveries > 0,
            "{label}: dropped gradient — {:?}",
            r.fault_stats
        );
        assert!(
            r.fault_stats.recoveries <= r.fault_stats.retries,
            "{label}: {:?}",
            r.fault_stats
        );
    }
}
