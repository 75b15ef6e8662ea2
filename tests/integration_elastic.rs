//! Elastic membership end to end: permanent worker/shard failures, worker
//! admission, checkpoint/restore and live re-sharding — under the
//! **deterministic recovery contract**: a run under any permanent-fault
//! plan computes exactly the model that membership timetable prescribes,
//! bit for bit, on both the discrete-event simulator and the real threaded
//! runtime.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::minidnn::{Dataset, Mlp, Sgd};
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, DATASET_NOISE, PS_MOMENTUM};
use prophet::ps::{judge, run_sim_checked, OracleBudget};
use prophet::sim::{ChaosGen, ChaosProfile, Duration, FaultPlan, FaultSpec};

// ---------------------------------------------------------------------------
// Threaded runtime: bit-exact parity with a membership-aware reference
// ---------------------------------------------------------------------------

/// Snapshots close iterations 3, 7 and 11 (`CHECKPOINT_PERIOD` 4). A shard
/// dying at iteration 4 restores from the iteration-3 snapshot alone (an
/// empty ledger); one dying at 6 replays iterations 4 and 5 on top of it.
const SHARD_DEATHS: [u64; 2] = [4, 6];

/// The permanent-plan matrix, with every shard death at iteration `death`.
/// Node ids: shard `s < ps_shards`, worker `ps_shards + w`; joiners take
/// dense ids from `workers`.
fn permanent_plans(workers: usize, shards: usize, death: u64) -> Vec<(&'static str, FaultPlan)> {
    let mut plans = vec![
        (
            "worker_fail",
            FaultPlan::new(vec![FaultSpec::WorkerFail {
                worker: workers - 1,
                at_iter: 4,
            }]),
        ),
        (
            "worker_join",
            FaultPlan::new(vec![FaultSpec::WorkerJoin {
                worker: workers,
                at_iter: 3,
            }]),
        ),
        (
            "churn_swap",
            FaultPlan::new(vec![
                FaultSpec::WorkerFail {
                    worker: 0,
                    at_iter: 6,
                },
                FaultSpec::WorkerJoin {
                    worker: workers,
                    at_iter: 2,
                },
            ]),
        ),
    ];
    if shards >= 2 {
        plans.push((
            "shard_fail",
            FaultPlan::new(vec![FaultSpec::ShardFail {
                shard: shards - 1,
                at_iter: death,
            }]),
        ));
        plans.push((
            "full_churn",
            FaultPlan::new(vec![
                FaultSpec::WorkerFail {
                    worker: 0,
                    at_iter: 6,
                },
                FaultSpec::ShardFail {
                    shard: 0,
                    at_iter: death,
                },
                FaultSpec::WorkerJoin {
                    worker: workers,
                    at_iter: 2,
                },
            ]),
        ));
    }
    if shards >= 3 {
        // Two shards dying at the same boundary: the re-balance must fold
        // both evictions into one epoch and re-home every tensor in a
        // single hop.
        plans.push((
            "double_shard_fail",
            FaultPlan::new(vec![
                FaultSpec::ShardFail {
                    shard: 0,
                    at_iter: death,
                },
                FaultSpec::ShardFail {
                    shard: 2,
                    at_iter: death,
                },
            ]),
        ));
    }
    plans
}

/// Membership-aware single-process reference: per iteration, average the
/// gradients of exactly the member workers (ascending id, matching the
/// PS's fixed fold order), step per-tensor optimisers. Shard deaths are
/// invisible here — that is the point: checkpoint restore is bit-exact, so
/// re-sharding must never change the computation.
fn elastic_reference(cfg: &ThreadedConfig) -> Vec<Vec<f32>> {
    let features = cfg.widths[0];
    let classes = *cfg.widths.last().unwrap();
    let data = Dataset::blobs(cfg.samples, features, classes, DATASET_NOISE, cfg.seed);
    let model = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
    let mut opt = Sgd::new(cfg.lr, PS_MOMENTUM, &model.tensor_sizes());
    let mut params: Vec<Vec<f32>> = model.param_slices().iter().map(|p| p.to_vec()).collect();
    let total = cfg.workers + cfg.fault_plan.joined_workers();
    let per = cfg.global_batch / cfg.workers;
    for iter in 0..cfg.iterations {
        let members: Vec<usize> = (0..total)
            .filter(|&w| {
                let from = if w < cfg.workers {
                    0
                } else {
                    cfg.fault_plan.worker_join_at(w).expect("dense joiner ids")
                };
                let until = cfg.fault_plan.worker_fail_at(w).unwrap_or(u64::MAX);
                from <= iter && iter < until
            })
            .collect();
        let mut acc: Vec<Vec<f32>> = model.tensor_sizes().iter().map(|&n| vec![0.0; n]).collect();
        for &w in &members {
            // Data windows are a pure function of (absolute id, iter) —
            // identical to the runtime's, membership notwithstanding.
            let lo = ((iter as usize * cfg.global_batch) + w * per) % data.len();
            let hi = (lo + per).min(data.len()).max(lo + 1);
            let (x, labels) = data.batch(lo, hi);
            let mut replica = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
            for (id, p) in params.iter().enumerate() {
                replica.set_param(id, p);
            }
            let _ = replica.forward_backward(&x, &labels);
            for (a, g) in acc.iter_mut().zip(replica.grad_slices()) {
                for (av, &gv) in a.iter_mut().zip(g) {
                    *av += gv;
                }
            }
        }
        let inv = 1.0 / members.len() as f32;
        for (id, a) in acc.iter_mut().enumerate() {
            for v in a.iter_mut() {
                *v *= inv;
            }
            opt.step(id, &mut params[id], a);
        }
    }
    params
}

fn elastic_cfg(shards: usize, kind: SchedulerKind) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(3, kind);
    cfg.ps_shards = shards;
    cfg.global_batch = 48;
    cfg.iterations = 10;
    cfg
}

#[test]
fn threaded_permanent_plans_match_membership_reference_bitwise() {
    // {plan kind} x {shard count} under FIFO: every cell's final model must
    // equal the membership-aware reference bit for bit. A plan with a shard
    // death runs at both SHARD_DEATHS — restore from a snapshot alone, then
    // snapshot + ledger replay, which reads back more; the others run once.
    for shards in [1usize, 2, 4] {
        for i in 0..permanent_plans(3, shards, 0).len() {
            let mut restored = Vec::new();
            for death in SHARD_DEATHS {
                let (label, plan) = permanent_plans(3, shards, death).swap_remove(i);
                if !restored.is_empty() && !plan.has_shard_fail() {
                    break;
                }
                let mut cfg = elastic_cfg(shards, SchedulerKind::Fifo);
                cfg.fault_plan = plan.clone();
                let r = run_threaded_training(&cfg);
                assert!(
                    r.events_checked > 0,
                    "{label}/{shards} shards: checker not wired"
                );
                assert_eq!(
                    r.membership_epochs,
                    plan.faults.len() as u64,
                    "{label}/{shards} shards: wrong epoch count"
                );
                assert_eq!(
                    r.final_params,
                    elastic_reference(&cfg),
                    "{label}/{shards} shards/death at {death}: \
                     permanent plan changed the computed model"
                );
                restored.push((label, r.restore_bytes));
            }
            if let [(label, snapshot_only), (_, with_replay)] = restored[..] {
                assert!(
                    0 < snapshot_only && snapshot_only < with_replay,
                    "{label}/{shards} shards: restored {snapshot_only} bytes \
                     after a snapshot, {with_replay} mid-cadence"
                );
            }
        }
    }
}

#[test]
fn threaded_permanent_plans_hold_across_the_scheduler_lineup() {
    // The full churn plan against every scheduling strategy: membership
    // reconfiguration is transport-level, schedulers must be oblivious.
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label();
        let mut cfg = elastic_cfg(2, kind.clone());
        cfg.fault_plan = FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 0,
                at_iter: 6,
            },
            FaultSpec::ShardFail {
                shard: 0,
                at_iter: 4,
            },
            FaultSpec::WorkerJoin {
                worker: 3,
                at_iter: 2,
            },
        ]);
        let r = run_threaded_training(&cfg);
        assert!(r.events_checked > 0, "{label}: checker not wired");
        assert!(r.restore_bytes > 0, "{label}: shard death restored nothing");
        assert_eq!(
            r.final_params,
            elastic_reference(&cfg),
            "{label}: churn changed the computed model"
        );
    }
}

#[test]
fn threaded_elastic_runs_are_deterministic() {
    // Two runs of the same churned configuration must agree bitwise —
    // params, losses, and the recovery accounting.
    let mut cfg = elastic_cfg(2, SchedulerKind::Fifo);
    cfg.fault_plan = FaultPlan::new(vec![
        FaultSpec::ShardFail {
            shard: 1,
            at_iter: 3,
        },
        FaultSpec::WorkerFail {
            worker: 2,
            at_iter: 7,
        },
        FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 4,
        },
    ]);
    let a = run_threaded_training(&cfg);
    let b = run_threaded_training(&cfg);
    assert_eq!(a.final_params, b.final_params, "nondeterministic params");
    assert_eq!(a.losses, b.losses, "loss traces differ");
    assert_eq!(a.restore_bytes, b.restore_bytes, "restore cost differs");
    assert_eq!(a.membership_epochs, b.membership_epochs);
}

#[test]
fn threaded_joiner_past_horizon_stays_silent() {
    // A join scheduled at/after the horizon never fires: the run must be
    // bit-identical to its fault-free twin with zero epochs.
    let clean = run_threaded_training(&elastic_cfg(2, SchedulerKind::Fifo));
    let mut cfg = elastic_cfg(2, SchedulerKind::Fifo);
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerJoin {
        worker: 3,
        at_iter: cfg.iterations + 5,
    }]);
    let r = run_threaded_training(&cfg);
    assert_eq!(r.membership_epochs, 0, "phantom epoch opened");
    assert_eq!(
        r.final_params, clean.final_params,
        "phantom joiner changed the model"
    );
    assert_eq!(r.losses, clean.losses);
}

// ---------------------------------------------------------------------------
// Simulator: completion and determinism
// ---------------------------------------------------------------------------

fn sim_cell(kind: SchedulerKind) -> ClusterConfig {
    let mut cfg =
        ClusterConfig::paper_cell(3, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
    cfg.ps_shards = 2;
    cfg.warmup_iters = 1;
    cfg.check_invariants = true;
    cfg
}

#[test]
fn sim_every_permanent_kind_completes_for_every_strategy() {
    let plans = [
        FaultPlan::new(vec![FaultSpec::WorkerFail {
            worker: 2,
            at_iter: 3,
        }]),
        FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 1,
            at_iter: 2,
        }]),
        FaultPlan::new(vec![FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 2,
        }]),
    ];
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        for (i, plan) in plans.iter().enumerate() {
            let mut cfg = sim_cell(kind.clone());
            cfg.fault_plan = plan.clone();
            let r = run_cluster(&cfg, 6);
            assert_eq!(r.iterations, 6, "{label}/plan {i}: incomplete run");
            assert_eq!(r.elastic.epochs, 1, "{label}/plan {i}: wrong epoch count");
            if plan.has_shard_fail() {
                assert!(
                    r.elastic.restore_bytes > 0,
                    "{label}/plan {i}: restore moved no bytes"
                );
                assert!(
                    r.elastic.recovery_ns > 0,
                    "{label}/plan {i}: zero recovery time"
                );
            }
            assert!(
                r.elastic.replans >= 1,
                "{label}/plan {i}: no re-plan after the epoch"
            );
        }
    }
}

#[test]
fn sim_churn_replays_bit_identically() {
    let plan = FaultPlan::new(vec![
        FaultSpec::ShardFail {
            shard: 0,
            at_iter: 2,
        },
        FaultSpec::WorkerFail {
            worker: 0,
            at_iter: 4,
        },
        FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 3,
        },
    ]);
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        let mut cfg = sim_cell(kind);
        cfg.fault_plan = plan.clone();
        let a = run_cluster(&cfg, 6);
        let b = run_cluster(&cfg, 6);
        assert_eq!(a.duration, b.duration, "{label}: durations diverged");
        assert_eq!(
            a.iter_times, b.iter_times,
            "{label}: iteration times diverged"
        );
        assert_eq!(a.elastic, b.elastic, "{label}: elastic counters diverged");
    }
}

/// The debug-tier churn smoke: 5 generated churn plans x the 4-scheduler
/// lineup, each run twice and judged with replay. The 200-plan sweep is
/// the churn profile of `prophet-bench`'s `ext_chaos`.
#[test]
fn churn_sweep_smoke() {
    let budget = OracleBudget::paper_default();
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label().to_string();
        let base = sim_cell(kind);
        let golden = run_cluster(&base, 6);
        let horizon = Duration::from_nanos(golden.duration.as_nanos());
        let profile = ChaosProfile::churn(base.workers, base.ps_shards, horizon, 6);
        let mut gen = ChaosGen::new(0xE1A5);
        for i in 0..5 {
            let plan = gen.next_plan(&profile);
            let mut churned = base.clone();
            churned.fault_plan = plan.clone();
            let outcome = run_sim_checked(&churned, 6);
            let rerun = run_sim_checked(&churned, 6);
            let verdict = judge(&golden, &outcome, Some(&rerun), &plan, &budget);
            assert!(
                verdict.ok(),
                "{label}: plan {i} violated the recovery contract: {:?}\nplan: {:?}",
                verdict.violations,
                plan
            );
        }
    }
}
