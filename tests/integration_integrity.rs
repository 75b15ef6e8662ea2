//! End-to-end data integrity: silent payload corruption on the wire,
//! NaN-poisoned gradients, corrupted checkpoint snapshots — under the
//! **byte-level integrity contract**: detection plus targeted retransmit
//! plus verified multi-generation restore means no corrupt byte ever
//! reaches the accumulator or the restored parameters, so a run under any
//! corruption plan computes a model **bit-identical** to its fault-free
//! twin, on both engines. The simulator's 200-plan corruption sweep is
//! the corruption profile of `prophet-bench`'s `ext_chaos`.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::net::RetryPolicy;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, ThreadedResult};
use prophet::ps::{check_threaded_bit_identity, judge, run_sim_checked, OracleBudget};
use prophet::sim::{ChaosGen, ChaosProfile, Duration, FaultPlan, FaultSpec, SimTime};

/// A retry policy tuned for test wall-clock, mirroring the fault tests.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
        timeout: Duration::from_millis(40),
    }
}

/// Run `cfg` twice — once as given, once with an empty fault plan — and
/// assert the byte-level oracle: bit-identical final model.
fn assert_bit_identical_to_fault_free(cfg: &ThreadedConfig, label: &str) -> ThreadedResult {
    let corrupted = run_threaded_training(cfg);
    let mut clean_cfg = cfg.clone();
    clean_cfg.fault_plan = FaultPlan::empty();
    let clean = run_threaded_training(&clean_cfg);
    let violations = check_threaded_bit_identity(&clean, &corrupted);
    assert!(
        violations.is_empty(),
        "{label}: corruption reached the computed model: {violations:?}"
    );
    corrupted
}

/// A whole-run corruption window aggressive enough to hit pushes, pulls
/// and ack batches many times in a short run.
fn corruption_window(rate: f64) -> FaultSpec {
    FaultSpec::PayloadCorrupt {
        rate,
        at: SimTime::ZERO,
        dur: Duration::from_secs(60),
    }
}

#[test]
fn payload_corruption_recovers_bit_exactly_across_the_lineup() {
    // Every scheduling strategy under a lossy-integrity wire: damaged
    // frames must be detected by checksum verify (or the NaN guard),
    // NACKed, and retransmitted from clean storage until the model comes
    // out bit-identical to the fault-free twin.
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label();
        let mut cfg = ThreadedConfig::small(2, kind);
        cfg.iterations = 8;
        cfg.retry = fast_retry();
        cfg.fault_plan = FaultPlan::new(vec![corruption_window(0.10)]);
        let r = assert_bit_identical_to_fault_free(&cfg, label);
        assert!(
            r.corrupt_frames_detected + r.nan_quarantined > 0,
            "{label}: the corruption window never fired — vacuous run"
        );
        assert!(r.events_checked > 0, "{label}: checker not wired");
    }
}

#[test]
fn nack_retransmits_pay_for_corrupted_pushes() {
    // Small P3 partitions multiply the slice count, so a sustained window
    // reliably damages pushes (NACK + targeted retransmit), pulls
    // (re-request) and ack batches (deadline stretch) in one run.
    let mut cfg = ThreadedConfig::small(
        3,
        SchedulerKind::P3 {
            partition_bytes: 1 << 9,
        },
    );
    cfg.global_batch = 48;
    cfg.iterations = 10;
    cfg.retry = fast_retry();
    cfg.fault_plan = FaultPlan::new(vec![corruption_window(0.15)]);
    let r = assert_bit_identical_to_fault_free(&cfg, "p3-small-slices");
    assert!(r.corrupt_frames_detected > 0, "no frame ever failed verify");
    assert!(
        r.nack_retransmit_bytes > 0,
        "corrupted pushes were never NACK-retransmitted"
    );
    assert!(r.events_checked > 0, "checker not wired");
}

#[test]
fn spurious_timeout_resend_of_a_staged_push() {
    // A 1 µs ack timeout under a loss window that loses nothing: the fault
    // machinery is live, nothing is ever damaged, and nearly every push is
    // re-sent before its ack can arrive — after the shard staged it and
    // counted its worker done. The shard drops the re-send as a duplicate
    // and closes the barrier on its own count; only the receiver can void
    // an arrival, so the sender's retry episode must not un-count it.
    let mut cfg = ThreadedConfig::small(
        3,
        SchedulerKind::P3 {
            partition_bytes: 1 << 9,
        },
    );
    cfg.global_batch = 48;
    cfg.iterations = 10;
    cfg.retry = RetryPolicy {
        base: Duration::from_micros(1),
        cap: Duration::from_micros(2),
        timeout: Duration::from_micros(1),
    };
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::MsgLoss {
        rate: 0.0,
        at: SimTime::ZERO,
        dur: Duration::from_secs(60),
    }]);
    let mut retries = 0;
    for round in 0..20 {
        let r = assert_bit_identical_to_fault_free(&cfg, &format!("round {round}"));
        assert_eq!(r.messages_lost, 0, "a rate-0 window lost a message");
        assert!(r.events_checked > 0, "checker not wired");
        retries += r.retries;
    }
    assert!(retries > 0, "no ack ever missed a 1 µs deadline — vacuous");
}

#[test]
fn corrupted_runs_compute_one_model() {
    // Wall-clock corruption windows make the *detection counts* timing-
    // dependent (like `messages_lost` under `MsgLoss`), but the computed
    // model never is: every damaged byte is recovered, so repeated runs —
    // whatever corruption pattern each one drew — agree bit for bit.
    let mut cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
    cfg.iterations = 8;
    cfg.retry = fast_retry();
    cfg.fault_plan = FaultPlan::new(vec![
        corruption_window(0.12),
        FaultSpec::CheckpointCorrupt {
            shard: 0,
            at_iter: 2,
        },
    ]);
    let a = run_threaded_training(&cfg);
    let b = run_threaded_training(&cfg);
    assert_eq!(a.final_params, b.final_params, "nondeterministic model");
    assert_eq!(a.losses, b.losses, "loss traces differ");
}

#[test]
fn restore_falls_back_past_a_corrupted_newest_snapshot() {
    // The forced-fallback leg of the acceptance: shard 0's newest snapshot
    // before its death is poisoned, so the restore must detect the bad
    // generation, fall back to the previous intact one, replay the longer
    // ledger suffix — and still hand the adopters a bit-exact model.
    let mut cfg = ThreadedConfig::small(3, SchedulerKind::Fifo);
    cfg.ps_shards = 2;
    cfg.global_batch = 48;
    cfg.iterations = 8; // snapshots close iters 3 and 7 (`CHECKPOINT_PERIOD` 4)
    cfg.fault_plan = FaultPlan::new(vec![
        FaultSpec::CheckpointCorrupt {
            shard: 0,
            at_iter: 2, // fires at the iter-3 snapshot: newest before death
        },
        FaultSpec::ShardFail {
            shard: 0,
            at_iter: 6,
        },
    ]);
    let r = assert_bit_identical_to_fault_free(&cfg, "forced-fallback");
    assert!(
        r.restore_fallbacks > 0,
        "the poisoned snapshot was never detected at restore"
    );
    assert!(
        r.fallback_depth >= r.restore_fallbacks,
        "every fallback skips at least one generation"
    );
    assert!(r.restore_bytes > 0, "shard death restored nothing");
    assert!(r.events_checked > 0, "checker not wired");
}

#[test]
fn poisoned_newest_checkpoint_falls_back_exactly_one_generation() {
    // Snapshots every 4 iterations (`CHECKPOINT_PERIOD`), retention 2
    // (`CHECKPOINT_RETENTION`): when shard 1 dies at iteration 9 each of
    // its parts' chains holds the intact iteration-3 snapshot and the
    // poisoned iteration-7 one, so every part's restore walks exactly one
    // generation back. (Retention 1 would have collected the intact one
    // and had nothing to fall back to.)
    let mut cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
    cfg.ps_shards = 2;
    cfg.iterations = 10;
    cfg.fault_plan = FaultPlan::new(vec![
        FaultSpec::CheckpointCorrupt {
            shard: 1,
            at_iter: 8, // poisons the iter-7 snapshot: newest before death
        },
        FaultSpec::ShardFail {
            shard: 1,
            at_iter: 9,
        },
    ]);
    let r = assert_bit_identical_to_fault_free(&cfg, "poisoned-newest");
    assert!(r.restore_fallbacks > 0, "fallback never exercised");
    assert_eq!(
        r.fallback_depth, r.restore_fallbacks,
        "a restore walked past more than the poisoned generation"
    );
}

// ---------------------------------------------------------------------------
// Simulator: corruption chaos smoke under the integrity oracles
// ---------------------------------------------------------------------------

/// The debug-tier corruption smoke: 5 generated corruption plans x the
/// 4-scheduler lineup, each run twice and judged with replay.
#[test]
fn corruption_sweep_smoke() {
    let budget = OracleBudget::paper_default();
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label().to_string();
        let mut base =
            ClusterConfig::paper_cell(3, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
        base.ps_shards = 2;
        base.warmup_iters = 1;
        base.check_invariants = true;
        let golden = run_cluster(&base, 6);
        let horizon = Duration::from_nanos(golden.duration.as_nanos());
        let profile = ChaosProfile::corruption(base.workers, base.ps_shards, horizon, 6);
        let mut gen = ChaosGen::new(0xC0DE);
        for i in 0..5 {
            let plan = gen.next_plan(&profile);
            let mut corrupted = base.clone();
            corrupted.fault_plan = plan.clone();
            let outcome = run_sim_checked(&corrupted, 6);
            let rerun = run_sim_checked(&corrupted, 6);
            let verdict = judge(&golden, &outcome, Some(&rerun), &plan, &budget);
            assert!(
                verdict.ok(),
                "{label}: plan {i} violated the integrity contract: {:?}\nplan: {:?}",
                verdict.violations,
                plan
            );
        }
    }
}
