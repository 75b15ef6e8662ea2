//! The sharded threaded runtime's load-bearing guarantee: the shard count
//! is a pure deployment knob. For every shard count and under every fault
//! kind, the computed model is **bit-identical** to the fault-free
//! single-shard run — and the zero-copy buffer pool really does stop
//! allocating after warm-up.

use prophet::core::{SchedulerKind, ShardMap};
use prophet::minidnn::Mlp;
use prophet::net::RetryPolicy;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

/// Shard counts the matrix sweeps. The small model's first tensor holds
/// most of its elements, so at 2 and 4 shards the cuts split it.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn base_cfg(seed: u64, shards: usize) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(3, SchedulerKind::Fifo);
    cfg.ps_shards = shards;
    cfg.seed = seed;
    cfg.global_batch = 48;
    cfg.iterations = 10;
    cfg
}

/// The oracle every cell is held to: same config, one shard, no faults.
fn fault_free_single_shard(seed: u64) -> Vec<Vec<f32>> {
    run_threaded_training(&base_cfg(seed, 1)).final_params
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
        timeout: Duration::from_millis(40),
    }
}

#[test]
fn shard_count_never_changes_the_computation() {
    // Fault-free first: sharding only cuts tensors into parts and homes
    // them; aggregation stays in fixed worker order per element, and
    // per-part optimisers keep per-element state, so every shard count
    // must agree bitwise — for every scheduling strategy.
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label();
        let mut oracle: Option<Vec<Vec<f32>>> = None;
        for shards in SHARD_COUNTS {
            let mut cfg = base_cfg(7, shards);
            cfg.scheduler = kind.clone();
            let r = run_threaded_training(&cfg);
            assert!(r.events_checked > 0, "{label}/{shards}: checker not wired");
            match &oracle {
                None => oracle = Some(r.final_params),
                Some(o) => assert_eq!(
                    &r.final_params, o,
                    "{label}: {shards} shards diverged from single-shard"
                ),
            }
        }
    }
}

/// The five fault kinds, each parameterised by the topology it must be
/// injected into (node ids shift with the shard count: node `s < shards`
/// is PS shard `s`, node `shards + w` is worker `w`).
fn plan_for(kind: &str, shards: usize) -> FaultPlan {
    let spec = match kind {
        // Crash the *last* shard so multi-shard runs exercise a non-zero
        // shard id end to end (epoch broadcast, targeted re-push).
        "shard_crash" => FaultSpec::ShardCrash {
            shard: shards - 1,
            at: SimTime::ZERO + Duration::from_millis(10),
            restart_after: Duration::from_millis(15),
        },
        // Window opens at t=0 so the first iteration is guaranteed to hit
        // it (no vacuous pass on a fast run).
        "worker_stall" => FaultSpec::WorkerStall {
            worker: 0,
            at: SimTime::ZERO,
            dur: Duration::from_millis(30),
        },
        "msg_loss" => FaultSpec::MsgLoss {
            rate: 0.3,
            at: SimTime::ZERO,
            dur: Duration::from_secs(60),
        },
        // Node 0 is PS shard 0 in every topology: the degrade/outage hits
        // every worker's transfers.
        "link_degrade" => FaultSpec::LinkDegrade {
            node: 0,
            at: SimTime::ZERO,
            factor: 0.3,
            dur: Duration::from_millis(40),
        },
        "link_down" => FaultSpec::LinkDown {
            node: 0,
            at: SimTime::ZERO,
            dur: Duration::from_millis(15),
        },
        other => panic!("unknown fault kind {other}"),
    };
    FaultPlan::new(vec![spec])
}

#[test]
fn every_fault_kind_is_bit_transparent_at_every_shard_count() {
    // The stress matrix: {fault kind} x {shard count} x {seed}, every cell
    // compared bitwise against the fault-free single-shard oracle for its
    // seed. Faults may cost wall clock; they may never change the model.
    for seed in [7u64, 1234] {
        let oracle = fault_free_single_shard(seed);
        for kind in [
            "shard_crash",
            "worker_stall",
            "msg_loss",
            "link_degrade",
            "link_down",
        ] {
            for shards in SHARD_COUNTS {
                let mut cfg = base_cfg(seed, shards);
                cfg.retry = fast_retry();
                cfg.fault_plan = plan_for(kind, shards);
                match kind {
                    // The timed crash needs a slow enough wire that the
                    // run is still in flight at t=10 ms.
                    "shard_crash" => cfg.link_bps = Some(5e5),
                    "link_degrade" => cfg.link_bps = Some(2e6),
                    _ => {}
                }
                let r = run_threaded_training(&cfg);
                assert!(
                    r.events_checked > 0,
                    "{kind}/{shards} shards/seed {seed}: checker not wired"
                );
                match kind {
                    "shard_crash" => assert!(
                        r.wall >= std::time::Duration::from_millis(25),
                        "{kind}/{shards}: 15 ms downtime missing from wall {:?}",
                        r.wall
                    ),
                    "worker_stall" => assert!(
                        r.wall >= std::time::Duration::from_millis(30),
                        "{kind}/{shards}: stall missing from wall {:?}",
                        r.wall
                    ),
                    "msg_loss" => {
                        assert!(r.messages_lost > 0, "{kind}/{shards}: nothing dropped");
                        assert!(r.retries > 0, "{kind}/{shards}: losses never retried");
                    }
                    "link_down" => assert!(
                        r.wall >= std::time::Duration::from_millis(15),
                        "{kind}/{shards}: outage missing from wall {:?}",
                        r.wall
                    ),
                    _ => {}
                }
                assert_eq!(
                    r.final_params, oracle,
                    "{kind}/{shards} shards/seed {seed}: fault changed the computed model"
                );
            }
        }
    }
}

/// A shape whose tensors straddle the cuts: 103 elements (W0 60, b0 10,
/// W1 30, b1 3) cut at 51 on 2 shards, and at 25, 51 and 77 on 4 — so W0
/// is split at both counts, into three parts at 4, and W1 at 4.
fn split_cfg(shards: usize) -> ThreadedConfig {
    let mut cfg = base_cfg(11, shards);
    cfg.widths = vec![6, 10, 3];
    cfg.iterations = 6;
    cfg
}

/// The 64-byte partitions of this P3 cut every pull into windows of 16
/// elements, so window edges fall mid-row in the 10-wide W0 rows and,
/// with the part cuts, mid-row in W1's.
const SLICED: SchedulerKind = SchedulerKind::P3 {
    partition_bytes: 64,
};

#[test]
fn split_tensors_are_bit_transparent_under_every_fault_kind() {
    let oracle = run_threaded_training(&split_cfg(1)).final_params;
    for shards in [2, 4] {
        let sizes = [60, 10, 30, 3];
        let map = ShardMap::balanced(&sizes, shards);
        let split = |g: usize| map.parts_of(g).len() > 1;
        assert!(
            split(0) && (shards == 2 || split(2)),
            "{shards} shards cut no tensor"
        );
        // One shard, owning a part of split W0, crashes for long enough
        // that the first W0 slices cross the slow wire while it is down
        // (the crash replays its part and only its part), or fails for
        // good (its part re-homes).
        let victim = map.shard_of(map.parts_of(0).start + 1);
        let kinds = [
            "shard_crash",
            "worker_stall",
            "msg_loss",
            "link_degrade",
            "link_down",
            "shard_fail",
        ];
        for (kind, scheduler) in kinds
            .iter()
            .flat_map(|&k| [(k, SchedulerKind::Fifo), (k, SLICED)])
        {
            let mut cfg = split_cfg(shards);
            cfg.scheduler = scheduler;
            cfg.retry = fast_retry();
            cfg.fault_plan = match kind {
                "shard_crash" => FaultPlan::new(vec![FaultSpec::ShardCrash {
                    shard: victim,
                    at: SimTime::ZERO + Duration::from_millis(5),
                    restart_after: Duration::from_millis(50),
                }]),
                "shard_fail" => FaultPlan::new(vec![FaultSpec::ShardFail {
                    shard: victim,
                    at_iter: 3,
                }]),
                _ => plan_for(kind, shards),
            };
            match kind {
                "shard_crash" => cfg.link_bps = Some(5e4),
                "link_degrade" => cfg.link_bps = Some(2e6),
                _ => {}
            }
            let r = run_threaded_training(&cfg);
            let label = format!("{kind}/{shards} shards/{}", cfg.scheduler.label());
            assert!(r.events_checked > 0, "{label}: checker not wired");
            // Rows a part cut or a window edge splits are assembled; the
            // rest are read from the pull windows in place.
            assert!(
                r.worker_phases.apply_bytes > 0,
                "{label}: no row was assembled"
            );
            match kind {
                "shard_crash" => assert!(r.retries > 0, "{label}: the crash voided nothing"),
                "msg_loss" => assert!(r.messages_lost > 0, "{label}: nothing dropped"),
                "shard_fail" => assert!(r.restore_bytes > 0, "{label}: nothing re-homed"),
                _ => {}
            }
            assert_eq!(
                r.final_params, oracle,
                "{label}: the split changed the model"
            );
        }
    }
}

/// The wire buffers a run allocates once and recycles every iteration
/// after: each worker encodes one buffer per backward step (a layer's
/// gradients are frozen and on the wire before the next layer's exist),
/// and each part has one pull frame, its shard's parameter store.
fn warm_up_buffers(cfg: &ThreadedConfig) -> u64 {
    let sizes: Vec<u64> = Mlp::new(&cfg.widths, 0)
        .tensor_sizes()
        .iter()
        .map(|&n| n as u64)
        .collect();
    let parts = ShardMap::balanced(&sizes, cfg.ps_shards).parts().len() as u64;
    worker_buffers(cfg) + parts
}

fn worker_buffers(cfg: &ThreadedConfig) -> u64 {
    cfg.workers as u64 * (cfg.widths.len() as u64 - 1)
}

/// The recycles of a steady run: a worker's layer buffer serves every
/// iteration after the first, and a part's pull frame — encoded at build
/// as the iteration-0 parameters — is stepped in place at every barrier.
fn recycled_buffers(cfg: &ThreadedConfig) -> u64 {
    cfg.iterations * warm_up_buffers(cfg) - worker_buffers(cfg)
}

#[test]
fn steady_state_push_path_allocates_nothing_after_warmup() {
    // The zero-copy contract, asserted through the pool counters: every
    // worker allocates exactly one buffer per layer for the whole run,
    // every part has exactly one pull frame, which its shard steps in place,
    // and every later iteration is served entirely from recycled storage.
    // Doubling the iteration count must leave the allocation count
    // untouched.
    for shards in SHARD_COUNTS {
        let mut cfg = ThreadedConfig::small(4, SchedulerKind::Fifo);
        cfg.ps_shards = shards;
        cfg.iterations = 30;
        let r = run_threaded_training(&cfg);
        let fixed = warm_up_buffers(&cfg);
        assert_eq!(
            r.arena_allocs, fixed,
            "{shards} shards: allocations are not flat in the iteration count"
        );
        assert_eq!(
            r.arena_recycles,
            recycled_buffers(&cfg),
            "{shards} shards: steady-state iterations not fully served from the pool"
        );

        let mut longer = cfg.clone();
        longer.iterations = 60;
        let r2 = run_threaded_training(&longer);
        assert_eq!(
            r2.arena_allocs, fixed,
            "{shards} shards: more iterations allocated more buffers"
        );
    }
}

/// An evicted worker lets go of its last pull's windows before its leave
/// notice, so the barriers after the eviction still step every pull
/// frame in place: the run allocates exactly the warm-up buffers.
#[test]
fn an_evicted_worker_pins_no_pull_frame() {
    for shards in SHARD_COUNTS {
        let mut cfg = ThreadedConfig::small(4, SchedulerKind::Fifo);
        cfg.ps_shards = shards;
        cfg.iterations = 12;
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerFail {
            worker: 1,
            at_iter: 5,
        }]);
        let r = run_threaded_training(&cfg);
        assert_eq!(r.membership_epochs, 1, "{shards} shards: no eviction");
        assert_eq!(
            r.arena_allocs,
            warm_up_buffers(&cfg),
            "{shards} shards: a barrier after the eviction allocated a pull frame"
        );
    }
}

#[test]
fn acks_are_batched_not_per_slice() {
    // Many small P3 partitions produce many push slices per iteration;
    // inbox-drain batching must acknowledge them in far fewer messages.
    // (Only runs with live fault machinery track acks, so inject a
    // zero-rate loss window to arm it without dropping anything.)
    let mut cfg = ThreadedConfig::small(
        2,
        SchedulerKind::P3 {
            partition_bytes: 1 << 8,
        },
    );
    cfg.iterations = 10;
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::MsgLoss {
        rate: 0.0,
        at: SimTime::ZERO,
        dur: Duration::from_secs(60),
    }]);
    let r = run_threaded_training(&cfg);
    assert_eq!(r.messages_lost, 0, "a zero-rate window dropped messages");
    // Every accepted slice is acked, so per-slice acking would produce
    // exactly one batch per slice: ceil(tensor_bytes / 256) summed over
    // the 4 tensors of the [8, 24, 4] model is 3 + 1 + 2 + 1 = 7 slices
    // per worker per iteration. Batch sizes depend on how many messages
    // pile up in the inbox between drains — under CPU contention drains
    // come smaller and more often — so the only load-independent claim
    // is strictly fewer batches than slices.
    let slices = cfg.iterations * cfg.workers as u64 * 7;
    assert!(
        r.ack_batches > 0,
        "armed fault machinery produced no ack batches"
    );
    assert!(
        r.ack_batches < slices,
        "acks are not batched: {} batches for {} slices",
        r.ack_batches,
        slices
    );
}

#[test]
fn armed_ack_path_stays_zero_alloc_in_steady_state() {
    // Arming the fault machinery (zero-rate loss window: acks tracked,
    // nothing actually dropped) turns on the ack-batch path and the
    // retry bookkeeping. Neither may cost buffer allocations: acks ride
    // their own message type and retransmissions — never triggered here —
    // would re-slice the existing buffers. The exact-counter contract of
    // the fault-free run must hold unchanged.
    for shards in SHARD_COUNTS {
        let mut cfg = ThreadedConfig::small(4, SchedulerKind::Fifo);
        cfg.ps_shards = shards;
        cfg.iterations = 20;
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::MsgLoss {
            rate: 0.0,
            at: SimTime::ZERO,
            dur: Duration::from_secs(60),
        }]);
        let r = run_threaded_training(&cfg);
        assert_eq!(r.messages_lost, 0, "zero-rate window dropped messages");
        assert!(r.ack_batches > 0, "{shards} shards: ack path never armed");
        let fixed = warm_up_buffers(&cfg);
        assert_eq!(
            r.arena_allocs, fixed,
            "{shards} shards: armed ack path allocated beyond warm-up"
        );
        assert_eq!(
            r.arena_recycles,
            recycled_buffers(&cfg),
            "{shards} shards: armed steady state not fully pool-served"
        );
    }
}

#[test]
fn nack_retransmits_come_from_pooled_copies() {
    // Under an aggressive corruption window every tampered frame is a
    // *pooled copy* of the clean payload (the clean layer-buffer slice stays
    // untouched for the bit-exact retransmit), and every NACK-driven
    // retransmission is a fresh zero-copy slice of that same buffer. The
    // buffer counters must therefore stay the exact warm-up constant of a
    // fault-free run: corruption may never leak allocations into the
    // wire-buffer pool, no matter how many frames it damages.
    let mut cfg = ThreadedConfig::small(3, SchedulerKind::Fifo);
    cfg.ps_shards = 2;
    cfg.iterations = 12;
    cfg.global_batch = 48;
    cfg.retry = fast_retry();
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::PayloadCorrupt {
        rate: 0.05,
        at: SimTime::ZERO,
        dur: Duration::from_secs(60),
    }]);
    let r = run_threaded_training(&cfg);
    assert!(
        r.corrupt_frames_detected > 0,
        "corruption window never damaged a frame — the assertion is vacuous"
    );
    let fixed = warm_up_buffers(&cfg);
    assert_eq!(
        r.arena_allocs, fixed,
        "corruption recovery allocated wire buffers outside the warm-up set"
    );
    // Recovery must also not starve the recycler: every steady-state
    // iteration still round-trips each buffer through the pool.
    assert_eq!(
        r.arena_recycles,
        recycled_buffers(&cfg),
        "corruption recovery broke steady-state pool recycling"
    );
    // And the computation itself stays bit-transparent (the matrix test
    // covers this broadly; repeating it here ties it to the exact-alloc
    // claim on the same run shape).
    let clean = {
        let mut c = cfg.clone();
        c.fault_plan = FaultPlan::default();
        c.retry = RetryPolicy::paper_default();
        run_threaded_training(&c)
    };
    assert_eq!(
        r.final_params, clean.final_params,
        "corruption recovery changed the computed model"
    );
}

#[test]
fn sharded_runs_are_deterministic() {
    for shards in SHARD_COUNTS {
        let cfg = base_cfg(42, shards);
        let a = run_threaded_training(&cfg);
        let b = run_threaded_training(&cfg);
        assert_eq!(
            a.final_params, b.final_params,
            "{shards} shards: nondeterministic params"
        );
        assert_eq!(a.losses, b.losses, "{shards} shards: loss traces differ");
    }
}
