//! Safety/liveness oracles for chaos search over the fault layer.
//!
//! A chaos run takes a [`FaultPlan`] sampled by `prophet_sim::ChaosGen`,
//! plays it through the discrete-event cluster, and asks four questions:
//!
//! 1. **safety** — did the run panic? Every cross-stack invariant violation
//!    (and every internal `assert!`) surfaces as a panic, which
//!    [`run_sim_checked`] converts into an `Err` instead of tearing the
//!    search down.
//! 2. **liveness** — did the run finish within a budgeted multiple of its
//!    fault-free twin's simulated duration? Retries and replays cost time;
//!    unbounded slowdown means a retry loop or a stalled barrier.
//! 3. **ledger** — do the extra wire bytes of the faulted run reconcile
//!    with the recorded waste (`extra = wasted + replayed`, the sandwich
//!    `tests/prop_fault_retry.rs` establishes, exact when `replays == 0`)?
//! 4. **no stuck-degraded** — once the last fault has cleared (plus a
//!    grace period), Prophet's conservative degraded mode must have exited;
//!    a scheduler that never recovers its planned mode has silently turned
//!    into FIFO for the rest of the job.
//!
//! The oracle never inspects the plan's *intent* — any valid plan must pass.
//! "Degraded mode actually engages under sustained faults" is therefore not
//! checked here (a gentle plan legitimately never trips it); a dedicated
//! crafted-plan test covers that direction.

use crate::sim::{run_cluster, ClusterConfig, RunResult};
use prophet_sim::{Duration, FaultPlan, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Budgets the oracle judges a chaos run against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleBudget {
    /// Liveness bound: the faulted run must finish within this multiple of
    /// the fault-free golden duration.
    pub liveness_multiple: f64,
    /// How long after the last fault window closes Prophet may legitimately
    /// still be degraded (it needs `recover_updates` consecutive stable
    /// monitor ticks — 5 s each in the paper cell — to re-arm).
    pub degraded_grace: Duration,
}

impl OracleBudget {
    /// Defaults sized for the paper cell: generous liveness (faults repeat
    /// whole barriers, and small cells amplify relative cost) and a grace
    /// window covering `recover_updates` monitor ticks.
    pub fn paper_default() -> Self {
        OracleBudget {
            liveness_multiple: 5.0,
            degraded_grace: Duration::from_secs(16),
        }
    }
}

impl Default for OracleBudget {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The oracle's judgement of one plan's run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanVerdict {
    /// Human-readable oracle violations; empty means the plan passed.
    pub violations: Vec<String>,
    /// Simulated duration relative to the fault-free golden (1.0 = no
    /// slowdown; `INFINITY` when the run panicked).
    pub slowdown: f64,
}

impl PlanVerdict {
    /// True when no oracle fired.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run the cluster, converting any panic (invariant violation, internal
/// assertion) into an `Err` carrying the panic message, so a chaos sweep
/// survives its own findings.
pub fn run_sim_checked(cfg: &ClusterConfig, iters: u64) -> Result<RunResult, String> {
    let cfg = cfg.clone();
    catch_unwind(AssertUnwindSafe(move || run_cluster(&cfg, iters))).map_err(|e| {
        if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Judge one chaos run against its fault-free golden.
///
/// `golden` must come from the *same* configuration with an empty
/// [`FaultPlan`]; `outcome` is the faulted run as produced by
/// [`run_sim_checked`]; `plan` is the plan that faulted it (used to locate
/// the last fault window for the stuck-degraded check).
pub fn check_plan(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    plan: &FaultPlan,
    budget: &OracleBudget,
) -> PlanVerdict {
    let mut violations = Vec::new();
    let r = match outcome {
        Err(msg) => {
            return PlanVerdict {
                violations: vec![format!("safety: run panicked: {msg}")],
                slowdown: f64::INFINITY,
            }
        }
        Ok(r) => r,
    };

    let slowdown = r.duration.as_nanos() as f64 / (golden.duration.as_nanos().max(1)) as f64;
    if slowdown > budget.liveness_multiple {
        violations.push(format!(
            "liveness: faulted run took {slowdown:.2}x the fault-free duration \
             (budget {:.2}x)",
            budget.liveness_multiple
        ));
    }
    if r.iterations != golden.iterations {
        violations.push(format!(
            "liveness: completed {} iterations, golden completed {}",
            r.iterations, golden.iterations
        ));
    }

    // Byte ledger: extra wire volume = recorded waste + replayed slices.
    // Replayed bytes are a subset of `retried_bytes`, giving the sandwich
    // (with a small slop for sub-message rounding) that is exact when
    // nothing was replayed.
    let s = &r.fault_stats;
    let extra = s.wire_bytes - golden.fault_stats.wire_bytes;
    const SLOP: f64 = 64.0;
    if extra < s.wasted_bytes - SLOP {
        violations.push(format!(
            "ledger: extra wire bytes {extra:.1} below recorded waste {:.1}",
            s.wasted_bytes
        ));
    }
    if extra > s.wasted_bytes + s.retried_bytes as f64 + SLOP {
        violations.push(format!(
            "ledger: extra wire bytes {extra:.1} exceed waste {:.1} + \
             retransmissions {}",
            s.wasted_bytes, s.retried_bytes
        ));
    }
    if s.replays == 0 && (extra - s.wasted_bytes).abs() > SLOP {
        violations.push(format!(
            "ledger: no replays, yet extra wire bytes {extra:.1} != waste {:.1}",
            s.wasted_bytes
        ));
    }

    // Stuck-degraded: if the scheduler's last sampled state is degraded,
    // the last fault window (plus grace) must still be in the recent past —
    // otherwise Prophet never re-armed its planned mode.
    if r.degraded_transitions.last().is_some_and(|&(_, d)| d) {
        let last_fault_end = plan
            .faults
            .iter()
            .map(|f| f.until())
            .max()
            .unwrap_or(SimTime::ZERO);
        if last_fault_end + budget.degraded_grace < r.duration {
            violations.push(format!(
                "stuck-degraded: still degraded at end of run ({:?}), last \
                 fault cleared at {:?}",
                r.duration, last_fault_end
            ));
        }
    }

    PlanVerdict {
        violations,
        slowdown,
    }
}

/// Judge one *churn* (permanent-fault) chaos run.
///
/// Permanent plans change what the byte ledger and the degraded-mode clock
/// even mean, so this oracle replaces [`check_plan`]'s ledger and
/// stuck-degraded checks rather than layering on top of them:
///
/// - **ledger** — skipped. Lost work at shard death, checkpoint restores,
///   and joiner bootstraps all move wire bytes in ways the transient
///   sandwich (`extra = wasted + replayed`) cannot reconcile.
/// - **stuck-degraded** — skipped. A membership epoch taints estimates at
///   an *iteration* boundary, not inside a wall-clock fault window, so the
///   "last window + grace" clock has nothing to anchor to. Prophet is
///   legitimately degraded right up to the end of a short run that churns
///   near its tail.
///
/// In their place it checks:
///
/// 1. **safety** — the run must not panic (invariant violations surface
///    here, exactly as in [`check_plan`]).
/// 2. **liveness** — every surviving worker finishes the full iteration
///    count within `budget.liveness_multiple` of the fault-free golden.
/// 3. **accounting** — the elastic counters must be internally consistent:
///    one epoch per membership change, and a failed shard implies a
///    non-trivial recovery (bytes restored, recovery time measured).
/// 4. **deterministic recovery** — the recovery contract from the issue:
///    replaying the identical plan must reproduce the run bit-for-bit
///    (duration, per-iteration times, elastic counters). Pass the second
///    run of the same configuration as `rerun`.
pub fn check_churn_plan(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    rerun: &Result<RunResult, String>,
    budget: &OracleBudget,
) -> PlanVerdict {
    let mut violations = Vec::new();
    let r = match outcome {
        Err(msg) => {
            return PlanVerdict {
                violations: vec![format!("safety: run panicked: {msg}")],
                slowdown: f64::INFINITY,
            }
        }
        Ok(r) => r,
    };

    let slowdown = r.duration.as_nanos() as f64 / (golden.duration.as_nanos().max(1)) as f64;
    if slowdown > budget.liveness_multiple {
        violations.push(format!(
            "liveness: churn run took {slowdown:.2}x the fault-free duration \
             (budget {:.2}x)",
            budget.liveness_multiple
        ));
    }
    if r.iterations != golden.iterations {
        violations.push(format!(
            "liveness: completed {} iterations, golden completed {}",
            r.iterations, golden.iterations
        ));
    }

    let e = &r.elastic;
    if e.epochs != e.evicted_workers + e.joined_workers + e.failed_shards {
        violations.push(format!(
            "accounting: {} epochs != {} evictions + {} joins + {} shard deaths",
            e.epochs, e.evicted_workers, e.joined_workers, e.failed_shards
        ));
    }
    if e.failed_shards > 0 {
        if e.restore_bytes == 0 {
            violations.push(format!(
                "accounting: {} shard deaths restored zero bytes",
                e.failed_shards
            ));
        }
        if e.recovery_ns == 0 {
            violations.push(format!(
                "accounting: {} shard deaths with zero measured recovery time",
                e.failed_shards
            ));
        }
    }
    if e.epochs > 0 && e.replans == 0 {
        violations.push(format!(
            "accounting: {} membership epochs forced zero re-plans",
            e.epochs
        ));
    }
    if e.joined_workers > 0 && e.bootstrap_bytes == 0 {
        violations.push(format!(
            "accounting: {} joins moved zero bootstrap bytes",
            e.joined_workers
        ));
    }

    match rerun {
        Err(msg) => violations.push(format!("recovery-contract: replay panicked: {msg}")),
        Ok(r2) => {
            if r2.duration != r.duration {
                violations.push(format!(
                    "recovery-contract: replay duration {:?} != {:?}",
                    r2.duration, r.duration
                ));
            }
            if r2.iter_times != r.iter_times {
                violations.push("recovery-contract: replay iteration times diverged".to_string());
            }
            if r2.elastic != r.elastic {
                violations.push(format!(
                    "recovery-contract: replay elastic counters diverged: {:?} != {:?}",
                    r2.elastic, r.elastic
                ));
            }
        }
    }

    PlanVerdict {
        violations,
        slowdown,
    }
}

/// Judge one *silent-corruption* chaos run.
///
/// Corruption plans keep the transient byte ledger meaningless for the
/// same reason churn plans do (detected frames retransmit whole slices,
/// fallback restores replay longer ledger suffixes), so like
/// [`check_churn_plan`] this oracle replaces the ledger check with
/// integrity accounting:
///
/// 1. **safety** — the run must not panic. Every "corrupt byte reached the
///    accumulator or the restored parameters" hazard in the simulator is an
///    internal assertion (CRC-verified restores, checker rules), so it
///    surfaces here.
/// 2. **liveness** — detection and retransmission cost time, but bounded:
///    the run finishes every iteration within the liveness multiple.
/// 3. **integrity accounting** —
///    * a detected corrupt frame without a single retry means a damaged
///      payload was dropped on the floor instead of recovered;
///    * a fallback restore without a corrupted snapshot (or a fallback
///      count exceeding its total depth) means the generation walk
///      miscounted.
/// 4. **deterministic detection** — replaying the identical plan must
///    reproduce the run bit-for-bit, *including* every fault and elastic
///    counter: detection is part of the deterministic contract, not noise.
///
/// The byte-level half of the issue's oracle — "no corrupt byte ever
/// reaches the accumulator or restored params" — is checked on the
/// threaded engine, where real bytes flow, by
/// [`check_threaded_bit_identity`].
pub fn check_corruption_plan(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    rerun: &Result<RunResult, String>,
    budget: &OracleBudget,
) -> PlanVerdict {
    let mut violations = Vec::new();
    let r = match outcome {
        Err(msg) => {
            return PlanVerdict {
                violations: vec![format!("safety: run panicked: {msg}")],
                slowdown: f64::INFINITY,
            }
        }
        Ok(r) => r,
    };

    let slowdown = r.duration.as_nanos() as f64 / (golden.duration.as_nanos().max(1)) as f64;
    if slowdown > budget.liveness_multiple {
        violations.push(format!(
            "liveness: corruption run took {slowdown:.2}x the fault-free duration \
             (budget {:.2}x)",
            budget.liveness_multiple
        ));
    }
    if r.iterations != golden.iterations {
        violations.push(format!(
            "liveness: completed {} iterations, golden completed {}",
            r.iterations, golden.iterations
        ));
    }

    let s = &r.fault_stats;
    if s.frames_corrupted > 0 && s.retries == 0 {
        violations.push(format!(
            "integrity: {} corrupt frames detected but zero retransmissions \
             — damaged payloads were dropped, not recovered",
            s.frames_corrupted
        ));
    }
    let e = &r.elastic;
    if e.restore_fallbacks > 0 && e.corrupt_snapshots == 0 {
        violations.push(format!(
            "integrity: {} fallback restores with zero corrupt snapshots on record",
            e.restore_fallbacks
        ));
    }
    if e.fallback_depth < e.restore_fallbacks {
        violations.push(format!(
            "integrity: fallback depth {} below fallback count {} \
             (every fallback skips at least one generation)",
            e.fallback_depth, e.restore_fallbacks
        ));
    }

    match rerun {
        Err(msg) => violations.push(format!("recovery-contract: replay panicked: {msg}")),
        Ok(r2) => {
            if r2.duration != r.duration {
                violations.push(format!(
                    "recovery-contract: replay duration {:?} != {:?}",
                    r2.duration, r.duration
                ));
            }
            if r2.iter_times != r.iter_times {
                violations.push("recovery-contract: replay iteration times diverged".to_string());
            }
            if r2.fault_stats != r.fault_stats {
                violations.push(format!(
                    "recovery-contract: replay fault counters diverged: {:?} != {:?}",
                    r2.fault_stats, r.fault_stats
                ));
            }
            if r2.elastic != r.elastic {
                violations.push(format!(
                    "recovery-contract: replay elastic counters diverged: {:?} != {:?}",
                    r2.elastic, r.elastic
                ));
            }
        }
    }

    PlanVerdict {
        violations,
        slowdown,
    }
}

/// The byte-level integrity oracle, threaded engine: under *any*
/// corruption plan the final model must be **bit-identical** to its
/// fault-free twin — detection plus targeted retransmit plus verified
/// restore means no corrupt byte ever reaches the accumulator or the
/// restored parameters. Returns human-readable violations (empty = pass).
pub fn check_threaded_bit_identity(
    clean: &crate::threaded::ThreadedResult,
    corrupted: &crate::threaded::ThreadedResult,
) -> Vec<String> {
    let mut violations = Vec::new();
    if clean.final_params.len() != corrupted.final_params.len() {
        violations.push(format!(
            "bit-identity: {} tensors vs {} in the fault-free twin",
            corrupted.final_params.len(),
            clean.final_params.len()
        ));
        return violations;
    }
    for (g, (a, b)) in clean
        .final_params
        .iter()
        .zip(&corrupted.final_params)
        .enumerate()
    {
        if a.len() != b.len() {
            violations.push(format!(
                "bit-identity: tensor {g} has {} elements, twin has {}",
                b.len(),
                a.len()
            ));
            continue;
        }
        let diverged = a
            .iter()
            .zip(b)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        if diverged > 0 {
            violations.push(format!(
                "bit-identity: tensor {g} diverges in {diverged}/{} elements",
                a.len()
            ));
        }
    }
    if clean.losses.len() != corrupted.losses.len()
        || clean
            .losses
            .iter()
            .zip(&corrupted.losses)
            .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        violations.push("bit-identity: per-iteration losses diverged".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ElasticStats, FaultStats};
    use prophet_core::SchedulerKind;
    use prophet_dnn::TrainingJob;
    use prophet_sim::{FaultSpec, TraceRecorder};

    fn cell(kind: SchedulerKind) -> ClusterConfig {
        let mut cfg =
            ClusterConfig::paper_cell(2, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
        cfg.warmup_iters = 1;
        cfg.check_invariants = true;
        cfg
    }

    fn storm() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::MsgLoss {
                rate: 0.10,
                at: SimTime::ZERO + Duration::from_millis(20),
                dur: Duration::from_millis(40),
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: SimTime::ZERO + Duration::from_millis(120),
                restart_after: Duration::from_millis(25),
            },
        ])
    }

    #[test]
    fn clean_plan_passes_every_oracle() {
        let base = cell(SchedulerKind::Fifo);
        let golden = run_cluster(&base, 3);
        let mut faulted = base.clone();
        faulted.fault_plan = storm();
        let outcome = run_sim_checked(&faulted, 3);
        let verdict = check_plan(
            &golden,
            &outcome,
            &faulted.fault_plan,
            &OracleBudget::paper_default(),
        );
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        assert!(verdict.slowdown >= 1.0, "slowdown {}", verdict.slowdown);
    }

    #[test]
    fn broken_liveness_budget_fires() {
        let base = cell(SchedulerKind::Fifo);
        let golden = run_cluster(&base, 3);
        let mut faulted = base.clone();
        faulted.fault_plan = storm();
        let outcome = run_sim_checked(&faulted, 3);
        let budget = OracleBudget {
            liveness_multiple: 1.0,
            ..OracleBudget::paper_default()
        };
        let verdict = check_plan(&golden, &outcome, &faulted.fault_plan, &budget);
        assert!(
            verdict.violations.iter().any(|v| v.contains("liveness")),
            "expected a liveness violation: {:?}",
            verdict.violations
        );
    }

    #[test]
    fn panicking_run_is_a_safety_violation() {
        let mut bad = cell(SchedulerKind::Fifo);
        bad.workers = 0; // validate() panics
        let outcome = run_sim_checked(&bad, 1);
        assert!(outcome.is_err());
        let golden = run_cluster(&cell(SchedulerKind::Fifo), 3);
        let verdict = check_plan(
            &golden,
            &outcome,
            &FaultPlan::empty(),
            &OracleBudget::paper_default(),
        );
        assert_eq!(verdict.violations.len(), 1);
        assert!(verdict.violations[0].starts_with("safety:"));
        assert!(verdict.slowdown.is_infinite());
    }

    fn synthetic(duration_ms: u64, degraded_transitions: Vec<(SimTime, bool)>) -> RunResult {
        RunResult {
            scheduler: "test".into(),
            iterations: 3,
            duration: SimTime::ZERO + Duration::from_millis(duration_ms),
            rate: 0.0,
            rate_with_warmup: 0.0,
            iter_times: vec![],
            gpu_util: vec![],
            avg_gpu_util: 0.0,
            net_throughput: vec![],
            avg_net_throughput: 0.0,
            transfer_logs: vec![vec![]],
            iter_starts: vec![SimTime::ZERO],
            trace: TraceRecorder::disabled(),
            credit_trace: vec![],
            bandwidth_estimates: vec![],
            degraded_transitions,
            grad_spans: vec![],
            fault_stats: FaultStats::default(),
            shard_spans: vec![],
            elastic: ElasticStats::default(),
            net_stats: Default::default(),
            cluster_stats: Default::default(),
        }
    }

    fn churn() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 1,
                at_iter: 3,
            },
            FaultSpec::WorkerJoin {
                worker: 2,
                at_iter: 2,
            },
            FaultSpec::ShardFail {
                shard: 1,
                at_iter: 2,
            },
        ])
    }

    #[test]
    fn clean_churn_plan_passes_every_oracle() {
        let mut base = cell(SchedulerKind::Fifo);
        base.ps_shards = 2;
        let golden = run_cluster(&base, 6);
        let mut churned = base.clone();
        churned.fault_plan = churn();
        let outcome = run_sim_checked(&churned, 6);
        let rerun = run_sim_checked(&churned, 6);
        let verdict = check_churn_plan(&golden, &outcome, &rerun, &OracleBudget::paper_default());
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        assert!(verdict.slowdown.is_finite());
    }

    #[test]
    fn churn_oracle_catches_nondeterministic_replay() {
        let mut base = cell(SchedulerKind::Fifo);
        base.ps_shards = 2;
        let golden = run_cluster(&base, 6);
        let mut churned = base.clone();
        churned.fault_plan = churn();
        let outcome = run_sim_checked(&churned, 6);
        // A replay from a *different* seed is a stand-in for a
        // nondeterministic recovery path: timings diverge.
        let mut other = churned.clone();
        other.seed ^= 0xDEAD;
        let rerun = run_sim_checked(&other, 6);
        let verdict = check_churn_plan(&golden, &outcome, &rerun, &OracleBudget::paper_default());
        assert!(
            verdict
                .violations
                .iter()
                .any(|v| v.contains("recovery-contract")),
            "{:?}",
            verdict.violations
        );
    }

    #[test]
    fn churn_oracle_catches_inconsistent_accounting() {
        let budget = OracleBudget {
            liveness_multiple: 1e9,
            ..OracleBudget::paper_default()
        };
        let golden = synthetic(1_000, vec![]);
        let mut broken = synthetic(1_000, vec![]);
        broken.elastic.failed_shards = 1;
        broken.elastic.epochs = 1;
        broken.elastic.replans = 2;
        // A shard died but nothing was restored and no recovery time was
        // measured: two accounting violations.
        let verdict = check_churn_plan(&golden, &Ok(broken.clone()), &Ok(broken), &budget);
        assert_eq!(
            verdict
                .violations
                .iter()
                .filter(|v| v.contains("accounting"))
                .count(),
            2,
            "{:?}",
            verdict.violations
        );
    }

    fn corruption() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::PayloadCorrupt {
                rate: 0.25,
                at: SimTime::ZERO + Duration::from_millis(5),
                dur: Duration::from_millis(400),
            },
            FaultSpec::CheckpointCorrupt {
                shard: 0,
                at_iter: 2,
            },
            FaultSpec::ShardFail {
                shard: 0,
                at_iter: 4,
            },
        ])
    }

    #[test]
    fn clean_corruption_plan_passes_every_oracle() {
        let mut base = cell(SchedulerKind::Fifo);
        base.ps_shards = 2;
        let golden = run_cluster(&base, 6);
        let mut corrupted = base.clone();
        corrupted.fault_plan = corruption();
        let outcome = run_sim_checked(&corrupted, 6);
        let rerun = run_sim_checked(&corrupted, 6);
        let verdict =
            check_corruption_plan(&golden, &outcome, &rerun, &OracleBudget::paper_default());
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        let r = outcome.unwrap();
        assert!(
            r.fault_stats.frames_corrupted > 0,
            "plan never corrupted a frame — the oracle ran on a vacuous case"
        );
        assert_eq!(r.elastic.corrupt_snapshots, 1);
    }

    #[test]
    fn corruption_oracle_catches_inconsistent_accounting() {
        let budget = OracleBudget {
            liveness_multiple: 1e9,
            ..OracleBudget::paper_default()
        };
        let golden = synthetic(1_000, vec![]);
        let mut broken = synthetic(1_000, vec![]);
        // Detected frames with no retransmission, and a fallback restore
        // with no corrupt snapshot on record: two integrity violations.
        broken.fault_stats.frames_corrupted = 3;
        broken.elastic.restore_fallbacks = 1;
        broken.elastic.fallback_depth = 1;
        let verdict =
            check_corruption_plan(&golden, &Ok(broken.clone()), &Ok(broken.clone()), &budget);
        assert_eq!(
            verdict
                .violations
                .iter()
                .filter(|v| v.contains("integrity"))
                .count(),
            2,
            "{:?}",
            verdict.violations
        );
        // A replay whose detection counters drift is a contract violation.
        let mut drifted = broken.clone();
        drifted.fault_stats.frames_corrupted = 4;
        let verdict = check_corruption_plan(&golden, &Ok(broken), &Ok(drifted), &budget);
        assert!(
            verdict
                .violations
                .iter()
                .any(|v| v.contains("recovery-contract")),
            "{:?}",
            verdict.violations
        );
    }

    #[test]
    fn bit_identity_oracle_spots_a_single_flipped_bit() {
        use crate::threaded::{run_threaded_training, ThreadedConfig};
        let cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
        let clean = run_threaded_training(&cfg);
        assert!(check_threaded_bit_identity(&clean, &clean).is_empty());
        let mut tampered = clean.clone();
        let v = tampered.final_params[0][0];
        tampered.final_params[0][0] = f32::from_bits(v.to_bits() ^ 1);
        let violations = check_threaded_bit_identity(&clean, &tampered);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("tensor 0"));
    }

    #[test]
    fn stuck_degraded_after_grace_fires() {
        // Only the degraded oracle is under test; give liveness headroom so
        // the synthetic durations don't trip it.
        let budget = OracleBudget {
            liveness_multiple: 1e9,
            ..OracleBudget::paper_default()
        };
        let golden = synthetic(1_000, vec![]);
        let at = SimTime::ZERO + Duration::from_millis(50);
        let plan = FaultPlan::new(vec![FaultSpec::LinkDown {
            node: 1,
            at,
            dur: Duration::from_millis(20),
        }]);
        // Still degraded 30 s after the fault cleared: stuck.
        let stuck = synthetic(30_000, vec![(at, true)]);
        let verdict = check_plan(&golden, &Ok(stuck), &plan, &budget);
        assert!(
            verdict
                .violations
                .iter()
                .any(|v| v.contains("stuck-degraded")),
            "{:?}",
            verdict.violations
        );
        // Degraded at end but within grace of the fault window: fine.
        let recovering = synthetic(10_000, vec![(at, true)]);
        let verdict = check_plan(&golden, &Ok(recovering), &plan, &budget);
        assert!(
            !verdict.violations.iter().any(|v| v.contains("degraded")),
            "{:?}",
            verdict.violations
        );
        // Recovered before the end: fine at any duration.
        let t2 = at + Duration::from_millis(500);
        let healthy = synthetic(30_000, vec![(at, true), (t2, false)]);
        let verdict = check_plan(&golden, &Ok(healthy), &plan, &budget);
        assert!(verdict.ok(), "{:?}", verdict.violations);
    }
}
