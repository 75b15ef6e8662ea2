//! The threaded PS runtime's two load-bearing guarantees, across every
//! scheduling strategy: (1) distributed training computes the same model
//! as single-process training; (2) runs are deterministic despite real
//! threads.

use prophet::core::SchedulerKind;
use prophet::minidnn::{Dataset, Mlp, Sgd};
use prophet::net::RetryPolicy;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, DATASET_NOISE, PS_MOMENTUM};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

/// Single-process reference: whole-batch training with the same PS-side
/// optimiser placement (gradients averaged, SGD with momentum applied to a
/// central copy).
fn reference_params(cfg: &ThreadedConfig) -> Vec<Vec<f32>> {
    let features = cfg.widths[0];
    let classes = *cfg.widths.last().unwrap();
    let data = Dataset::blobs(cfg.samples, features, classes, DATASET_NOISE, cfg.seed);
    let model = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
    let mut opt = Sgd::new(cfg.lr, PS_MOMENTUM, &model.tensor_sizes());
    let mut params: Vec<Vec<f32>> = model.param_slices().iter().map(|p| p.to_vec()).collect();
    for iter in 0..cfg.iterations {
        // The threaded runtime averages per-shard mean gradients; with
        // equal shards that is NOT identical in f32 to the whole-batch
        // mean, so the reference replicates the sharded computation.
        let per = cfg.global_batch / cfg.workers;
        let mut acc: Vec<Vec<f32>> = model.tensor_sizes().iter().map(|&n| vec![0.0; n]).collect();
        for w in 0..cfg.workers {
            let lo = ((iter as usize * cfg.global_batch) + w * per) % data.len();
            let hi = (lo + per).min(data.len()).max(lo + 1);
            let (x, labels) = data.batch(lo, hi);
            let mut shard_model = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
            for (id, p) in params.iter().enumerate() {
                shard_model.set_param(id, p);
            }
            let _ = shard_model.forward_backward(&x, &labels);
            for (a, g) in acc.iter_mut().zip(shard_model.grad_slices()) {
                for (av, &gv) in a.iter_mut().zip(g) {
                    *av += gv;
                }
            }
        }
        let inv = 1.0 / cfg.workers as f32;
        for (id, a) in acc.iter_mut().enumerate() {
            for v in a.iter_mut() {
                *v *= inv;
            }
            opt.step(id, &mut params[id], a);
        }
    }
    params
}

/// Training-set accuracy of the model whose tensors are `params`.
fn accuracy(cfg: &ThreadedConfig, params: &[Vec<f32>]) -> f64 {
    let classes = *cfg.widths.last().unwrap();
    let data = Dataset::blobs(cfg.samples, cfg.widths[0], classes, DATASET_NOISE, cfg.seed);
    let mut model = Mlp::new(&cfg.widths, cfg.seed);
    for (id, p) in params.iter().enumerate() {
        model.set_param(id, p);
    }
    let (x, labels) = data.batch(0, data.len());
    model.accuracy(&x, &labels)
}

#[test]
fn threaded_training_matches_single_process_bitwise() {
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label();
        let mut cfg = ThreadedConfig::small(3, kind);
        cfg.global_batch = 48;
        cfg.iterations = 8;
        let result = run_threaded_training(&cfg);
        let reference = reference_params(&cfg);
        assert_eq!(
            result.final_params, reference,
            "{label}: distributed result diverged from single-process"
        );
    }
}

#[test]
fn threaded_runs_are_deterministic() {
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label();
        let cfg = ThreadedConfig::small(4, kind);
        let a = run_threaded_training(&cfg);
        let b = run_threaded_training(&cfg);
        assert_eq!(a.final_params, b.final_params, "{label}: nondeterministic");
        assert_eq!(a.losses, b.losses, "{label}: loss traces differ");
    }
}

#[test]
fn threaded_training_learns() {
    let mut cfg = ThreadedConfig::small(4, SchedulerKind::Fifo);
    cfg.iterations = 40;
    let r = run_threaded_training(&cfg);
    let acc = accuracy(&cfg, &r.final_params);
    assert!(
        acc > 0.9,
        "distributed training failed to learn: accuracy {acc:.3}"
    );
    assert!(r.losses.last().unwrap() < &(r.losses[0] * 0.3));
}

#[test]
fn rate_limited_link_slows_wall_clock_not_results() {
    let kind = || SchedulerKind::P3 {
        partition_bytes: 1 << 10, // many small partitions: stress the wire
    };
    let fast = run_threaded_training(&ThreadedConfig::small(2, kind()));
    let mut slow_cfg = ThreadedConfig::small(2, kind());
    let bps = 2e6; // 2 MB/s emulated links
    slow_cfg.link_bps = Some(bps);
    let slow = run_threaded_training(&slow_cfg);
    assert_eq!(
        fast.final_params, slow.final_params,
        "bandwidth emulation changed the computation"
    );
    // The link's own lower bound, not a race against the fast run: each
    // worker's pushes and the same bytes pulled back cross one budget, and
    // the last of them is not due before all but one burst allowance
    // (200 µs) of it has drained. Hiding compute never moves bytes faster
    // than the link.
    let per_worker = 2.0 * slow.bytes_pushed as f64 / slow_cfg.workers as f64;
    let floor = std::time::Duration::from_secs_f64(per_worker / bps)
        - std::time::Duration::from_micros(200);
    assert!(
        slow.wall >= floor,
        "throttled run beat its link: {:?} for {per_worker} bytes at {bps} B/s",
        slow.wall
    );
}

#[test]
fn invariant_checker_is_wired_into_threaded_runs() {
    let cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
    assert!(cfg.check_invariants, "checking should be on by default");
    let r = run_threaded_training(&cfg);
    assert!(
        r.events_checked > 0,
        "no typed events reached the invariant checker"
    );
    assert_eq!(r.retries, 0, "retries without any injected fault");
}

#[test]
fn injected_ps_restart_recovers_without_corrupting_training() {
    // A PS crash-restart wipes in-flight aggregation state; the epoch
    // protocol must re-deliver every lost gradient, and because the
    // replayed bytes are identical, the final model must be bit-identical
    // to an undisturbed run. The shard goes down at time zero for longer
    // than the workers need to push iteration 0, so those pushes are
    // addressed to the dead incarnation and must all be re-pushed.
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::P3 {
            partition_bytes: 1 << 10, // many partitions per iteration
        },
    ] {
        let label = kind.label();
        let mut cfg = ThreadedConfig::small(3, kind);
        cfg.global_batch = 48;
        cfg.iterations = 8;
        cfg.retry = fast_retry();
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::ShardCrash {
            shard: 0,
            at: SimTime::ZERO,
            restart_after: Duration::from_millis(40),
        }]);
        let crashed = run_threaded_training(&cfg);
        assert!(
            crashed.retries > 0,
            "{label}: the restart caused no re-pushes"
        );
        assert!(crashed.events_checked > 0, "{label}: checker not wired");
        assert_eq!(
            crashed.final_params,
            reference_params(&cfg),
            "{label}: crash recovery changed the computed model"
        );
    }
}

/// A retry policy tuned for test wall-clock: losses are detected in tens of
/// milliseconds instead of the production 5 s ack timeout.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
        timeout: Duration::from_millis(40),
    }
}

#[test]
fn message_loss_is_retried_until_params_match() {
    // A lossy wire for the entire run: every dropped push must be detected
    // by the ack timeout and retransmitted until the PS has the full
    // gradient. Because the replayed bytes are identical and aggregation is
    // order-independent within a barrier, the model must come out
    // bit-identical to a loss-free run.
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::P3 {
            partition_bytes: 1 << 9, // many small slices: more doom draws
        },
    ] {
        let label = kind.label();
        let mut cfg = ThreadedConfig::small(2, kind);
        cfg.iterations = 8;
        cfg.retry = fast_retry();
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::MsgLoss {
            rate: 0.3,
            at: SimTime::ZERO,
            dur: Duration::from_secs(60),
        }]);
        let lossy = run_threaded_training(&cfg);
        assert!(lossy.messages_lost > 0, "{label}: no pushes were dropped");
        assert!(lossy.retries > 0, "{label}: losses never retried");
        assert!(lossy.events_checked > 0, "{label}: checker not wired");
        assert_eq!(
            lossy.final_params,
            reference_params(&cfg),
            "{label}: message loss corrupted the computed model"
        );
    }
}

#[test]
fn timed_shard_crash_recovers_bit_identically() {
    // A PS crash landing mid-training: the link is slowed so the run is
    // long enough for the crash to hit an iteration in flight.
    let mut cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
    cfg.link_bps = Some(5e5); // ~5 ms of wire per iteration
    cfg.retry = fast_retry();
    let restart_after = Duration::from_millis(15);
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::ShardCrash {
        shard: 0,
        at: SimTime::ZERO + Duration::from_millis(10),
        restart_after,
    }]);
    let crashed = run_threaded_training(&cfg);
    assert!(
        crashed.wall >= std::time::Duration::from_millis(25),
        "crash downtime should show up in wall clock: {:?}",
        crashed.wall
    );
    assert!(crashed.events_checked > 0, "checker not wired");
    assert_eq!(
        crashed.final_params,
        reference_params(&cfg),
        "timed crash recovery changed the computed model"
    );
}

#[test]
fn stalls_and_link_faults_slow_the_run_not_the_result() {
    // The remaining fault kinds in one storm: a worker pause, a degraded
    // window on the other worker's link, and a full outage on the PS link.
    // None of them may change what is computed.
    let mut cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
    cfg.iterations = 12;
    cfg.link_bps = Some(2e6);
    cfg.retry = fast_retry();
    cfg.fault_plan = FaultPlan::new(vec![
        FaultSpec::WorkerStall {
            worker: 0,
            at: SimTime::ZERO + Duration::from_millis(5),
            dur: Duration::from_millis(40),
        },
        FaultSpec::LinkDegrade {
            node: 2, // worker 1's link
            at: SimTime::ZERO + Duration::from_millis(10),
            factor: 0.3,
            dur: Duration::from_millis(50),
        },
        FaultSpec::LinkDown {
            node: 0, // the PS link freezes every sender
            at: SimTime::ZERO + Duration::from_millis(70),
            dur: Duration::from_millis(20),
        },
    ]);
    let faulted = run_threaded_training(&cfg);
    assert!(
        faulted.wall >= std::time::Duration::from_millis(45),
        "a 40 ms stall must show up in wall clock: {:?}",
        faulted.wall
    );
    assert!(faulted.events_checked > 0, "checker not wired");
    assert_eq!(
        faulted.final_params,
        reference_params(&cfg),
        "stall/link faults changed the computed model"
    );
}

#[test]
fn pushed_bytes_match_model_volume() {
    let mut cfg = ThreadedConfig::small(3, SchedulerKind::Fifo);
    cfg.global_batch = 48; // divisible by 3 workers
    let model = Mlp::new(&cfg.widths, 0);
    let per_iter: u64 = model.tensor_sizes().iter().map(|&n| n as u64 * 4).sum();
    let r = run_threaded_training(&cfg);
    assert_eq!(
        r.bytes_pushed,
        per_iter * cfg.iterations * cfg.workers as u64,
        "gradient bytes on the wire do not match the model"
    );
}
