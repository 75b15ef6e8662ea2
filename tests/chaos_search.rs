//! Chaos search end-to-end: generator → oracles → shrinker, plus the two
//! crafted-plan directions the oracle deliberately leaves to dedicated
//! tests — "Prophet's degraded mode actually engages" and "the adapted
//! retry timeout prevents degrade-induced retry thrash".

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::ps::{check_plan, run_sim_checked, OracleBudget};
use prophet::sim::{
    plan_to_rust, shrink, ChaosGen, ChaosProfile, Duration, FaultPlan, FaultSpec, SimTime,
};

fn cell(kind: SchedulerKind) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cell(2, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
    c.warmup_iters = 1;
    c.check_invariants = true;
    c
}

/// Golden run + matching chaos profile for a scheduler: the horizon is the
/// fault-free duration, so every generated window can land mid-run.
fn search_setup(kind: SchedulerKind) -> (ClusterConfig, prophet::ps::sim::RunResult, ChaosProfile) {
    let base = cell(kind);
    let golden = run_cluster(&base, 3);
    let profile = ChaosProfile::for_cluster(
        base.workers,
        base.ps_shards,
        Duration::from_nanos(golden.duration.as_nanos()),
    );
    (base, golden, profile)
}

fn judge(base: &ClusterConfig, golden: &prophet::ps::sim::RunResult, plan: &FaultPlan) -> bool {
    let mut faulted = base.clone();
    faulted.fault_plan = plan.clone();
    let outcome = run_sim_checked(&faulted, 3);
    check_plan(golden, &outcome, plan, &OracleBudget::paper_default()).ok()
}

#[test]
fn chaos_smoke_is_violation_free() {
    // The debug-tier smoke: a handful of generated plans against the full
    // oracle set on FIFO. The release-tier sweep covers the whole lineup.
    let (base, golden, profile) = search_setup(SchedulerKind::Fifo);
    let mut gen = ChaosGen::new(42);
    for i in 0..4 {
        let plan = gen.next_plan(&profile);
        assert!(
            judge(&base, &golden, &plan),
            "plan {i} violated an oracle:\n{}",
            plan_to_rust(&plan)
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-tier: full lineup x 25 plans")]
fn chaos_sweep_full_lineup_is_violation_free() {
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        let (base, golden, profile) = search_setup(kind.clone());
        let mut gen = ChaosGen::new(42);
        for i in 0..25 {
            let plan = gen.next_plan(&profile);
            assert!(
                judge(&base, &golden, &plan),
                "{label}: plan {i} violated an oracle:\n{}",
                plan_to_rust(&plan)
            );
        }
    }
}

#[test]
fn deliberately_broken_budget_demonstrates_the_shrinker() {
    // Tighten liveness to 1.0x — any slowdown at all is now a "violation" —
    // and feed the first multi-fault plan that trips it to the shrinker.
    // This is the end-to-end path a real chaos finding takes.
    let (base, golden, profile) = search_setup(SchedulerKind::Fifo);
    let broken = OracleBudget {
        liveness_multiple: 1.0,
        ..OracleBudget::paper_default()
    };
    let fails = |plan: &FaultPlan| {
        let mut faulted = base.clone();
        faulted.fault_plan = plan.clone();
        let outcome = run_sim_checked(&faulted, 3);
        !check_plan(&golden, &outcome, plan, &broken).ok()
    };
    let mut gen = ChaosGen::new(42);
    let plan = (0..64)
        .map(|_| gen.next_plan(&profile))
        .find(|p| p.faults.len() >= 2 && fails(p))
        .expect("no multi-fault plan tripped a 1.0x liveness budget in 64 draws");

    let small = shrink(&plan, fails);
    assert!(
        small.faults.len() < plan.faults.len(),
        "shrinker failed to drop any of {} specs: {small:?}",
        plan.faults.len()
    );
    assert!(fails(&small), "shrunk plan no longer reproduces");
    // Deterministic: the same plan and predicate shrink to the same output.
    assert_eq!(small, shrink(&plan, fails));
    // And the reproducer renders as pinned-test source.
    let src = plan_to_rust(&small);
    assert!(src.contains("FaultSpec::"), "not copy-pasteable: {src}");
}

#[test]
fn prophet_enters_and_exits_degraded_mode_under_a_fault_burst() {
    // The oracle only rejects *stuck* degraded mode — a gentle plan that
    // never trips it also passes. This crafted plan checks the other
    // direction: killed transfers during planned mode must put Prophet into
    // degraded mode, and stable post-fault bandwidth estimates must bring
    // it back out.
    // prophet-oracle is the last lineup entry. One monitor window ≈ one
    // iteration (~112 ms), so each estimate averages a full push phase.
    // Shorter windows beat against the iteration period and the estimates
    // never stabilize within the 10% re-plan tolerance — by design, that
    // keeps Prophet degraded.
    let lineup = SchedulerKind::paper_lineup(1.25e9);
    let mut cfg = cell(lineup.into_iter().last().unwrap());
    cfg.monitor_period = Duration::from_millis(115);
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDown {
        // Worker 0's link (the transition log samples worker 0's scheduler).
        node: 1,
        at: SimTime::ZERO + Duration::from_millis(150),
        dur: Duration::from_millis(60),
    }]);
    let r = run_cluster(&cfg, 10);
    assert!(
        r.degraded_transitions.iter().any(|&(_, d)| d),
        "killed transfers never put Prophet in degraded mode: {:?}",
        r.degraded_transitions
    );
    assert_eq!(
        r.degraded_transitions.last().map(|&(_, d)| d),
        Some(false),
        "Prophet never recovered planned mode: {:?}",
        r.degraded_transitions
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: ~30 simulated seconds of VGG19"
)]
fn adapted_retry_timeout_prevents_degrade_induced_thrash() {
    // VGG19's fc6 is ~411 MB; at 10 Gb/s x a 0.02 degrade factor the push
    // takes ~16 s — far past the flat 5 s ack deadline, under which every
    // send would time out, be killed, and retry against the same slow link:
    // pure thrash with the wire never at fault. The link-adapted deadline
    // sizes itself to the worst-case whole-tensor transfer and rides the
    // window out.
    let mut cfg = ClusterConfig::paper_cell(
        2,
        10.0,
        TrainingJob::paper_setup("vgg19", 16),
        SchedulerKind::Fifo,
    );
    cfg.warmup_iters = 1;
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDegrade {
        node: 2,
        at: SimTime::ZERO + Duration::from_millis(100),
        factor: 0.02,
        dur: Duration::from_secs(30),
    }]);
    // The hazard, on the policy itself: the flat deadline is shorter than
    // the degraded transfer; the adapted one covers it with margin.
    let fc6 = cfg.job.sizes().iter().copied().max().unwrap();
    let transfer = Duration::for_bytes(fc6, cfg.worker_bps * 0.02);
    assert!(cfg.retry.timeout < transfer, "cell no longer thrashes flat");
    let adapted = cfg.retry.adapted_to_link(fc6, cfg.worker_bps, 0.02, 2.0);
    assert_eq!(cfg.effective_retry(), adapted);
    assert!(adapted.timeout >= transfer + transfer);
    let r = run_cluster(&cfg, 2);
    assert_eq!(
        r.fault_stats.retries, 0,
        "adapted deadline still killed healthy-but-slow transfers: {:?}",
        r.fault_stats
    );
}
