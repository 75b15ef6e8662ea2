//! One verdict for every faulted run.
//!
//! A chaos run takes a [`FaultPlan`] sampled by `prophet_sim::ChaosGen`,
//! plays it through the discrete-event cluster, and hands the outcome to
//! [`judge`]. Which clauses apply follows from the plan (and from whether a
//! replay was supplied), never from which function the caller picked:
//!
//! | clause | applies | fires when |
//! |---|---|---|
//! | `safety` | always | the run panicked: every invariant violation and internal `assert!` surfaces as a panic, which [`run_sim_checked`] turns into an `Err` |
//! | `liveness` | always | fewer iterations than the fault-free golden, or a duration beyond `liveness_multiple` of it |
//! | `accounting` | always (silent without membership events) | epochs ≠ evictions + joins + shard deaths; a shard death restored no bytes or took no time; an epoch forced no re-plan; a join moved no bootstrap bytes |
//! | `integrity` | always (silent without corruption) | a detected corrupt frame was never retried; a fallback restore with no corrupt snapshot on record; fallback depth below the fallback count |
//! | `recovery-contract` | a replay is given | the replay differs from the first run in `duration`, `iter_times`, `iter_starts`, `rate` (bits), `fault_stats`, `elastic`, `net_stats`, `grad_spans` (worker 0's always; every worker's under `typed_trace`), `shard_spans` or `cluster_stats.checker_events` |
//! | `ledger` | unless the plan changes the worker set (`WorkerFail`/`WorkerJoin`) | extra wire bytes outside `wasted ≤ extra ≤ wasted + retried` (exact when nothing was replayed; the sandwich `tests/prop_fault_retry.rs` establishes) |
//! | `stuck-degraded` | unless [`FaultPlan::has_permanent`] | the scheduler ends the run degraded, later than `degraded_grace` after the last fault window closed |
//!
//! **Why the last two have gates.** The ledger was measured forced onto
//! every plan: it failed on 616 of 624 plan-runs that change the worker
//! set, because a worker that leaves or joins changes the workload itself,
//! and the bytes it does or does not send are not waste. It held on all
//! 1 224 other non-transient plan-runs (`ShardFail`-only, corruption,
//! mixed), so those stay under it. Stuck-degraded anchors on the last
//! wall-clock fault window, but a membership epoch — a shard death too —
//! taints estimates at an *iteration boundary*: Prophet is legitimately
//! degraded to the end of a short run that churns near its tail.
//!
//! The oracle never inspects the plan's *intent*: any valid plan must pass.
//! "Degraded mode actually engages under sustained faults" is therefore not
//! checked here (a gentle plan legitimately never trips it); a crafted-plan
//! test covers that direction. The byte-level half of the integrity contract
//! ("no corrupt byte reaches the accumulator or the restored parameters")
//! is checked where real bytes flow, by [`check_threaded_bit_identity`].

use crate::sim::{run_cluster, ClusterConfig, RunResult};
use prophet_sim::{Duration, FaultPlan, FaultSpec, SimTime};
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

/// The replay-checked fields in which `b` differs from `a`.
fn replay_divergence(a: &RunResult, b: &RunResult) -> Vec<&'static str> {
    [
        ("duration", a.duration == b.duration),
        ("iter_times", a.iter_times == b.iter_times),
        ("iter_starts", a.iter_starts == b.iter_starts),
        ("rate", a.rate.to_bits() == b.rate.to_bits()),
        ("fault_stats", a.fault_stats == b.fault_stats),
        ("elastic", a.elastic == b.elastic),
        ("net_stats", a.net_stats == b.net_stats),
        ("grad_spans", a.grad_spans == b.grad_spans),
        ("shard_spans", a.shard_spans == b.shard_spans),
        (
            "cluster_stats.checker_events",
            a.cluster_stats.checker_events == b.cluster_stats.checker_events,
        ),
    ]
    .into_iter()
    .filter_map(|(name, same)| (!same).then_some(name))
    .collect()
}

/// Judge one faulted run against its fault-free golden.
///
/// `golden` must come from the *same* configuration with an empty
/// [`FaultPlan`]; `outcome` is the run under `plan`, as produced by
/// [`run_sim_checked`]; `rerun`, when given, is a second run of the
/// identical configuration. The clauses are the module table's.
pub fn judge(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    rerun: Option<&Result<RunResult, String>>,
    plan: &FaultPlan,
    budget: &OracleBudget,
) -> PlanVerdict {
    let changes_workers = plan.faults.iter().any(|f| {
        matches!(
            f,
            FaultSpec::WorkerFail { .. } | FaultSpec::WorkerJoin { .. }
        )
    });
    let transient = (!plan.has_permanent()).then_some(plan);
    verdict(golden, outcome, rerun, !changes_workers, transient, budget)
}

/// [`judge`], with the ledger clause applied only when `ledger` holds and
/// the stuck-degraded clause only when `transient` names the plan.
fn verdict(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    rerun: Option<&Result<RunResult, String>>,
    ledger: bool,
    transient: Option<&FaultPlan>,
    budget: &OracleBudget,
) -> PlanVerdict {
    let r = match outcome {
        Err(msg) => {
            return PlanVerdict {
                violations: vec![format!("safety: run panicked: {msg}")],
                slowdown: f64::INFINITY,
            }
        }
        Ok(r) => r,
    };
    let mut v = Vec::new();

    let slowdown = r.duration.as_nanos() as f64 / (golden.duration.as_nanos().max(1)) as f64;
    if slowdown > budget.liveness_multiple {
        v.push(format!(
            "liveness: faulted run took {slowdown:.2}x the fault-free duration \
             (budget {:.2}x)",
            budget.liveness_multiple
        ));
    }
    if r.iterations != golden.iterations {
        v.push(format!(
            "liveness: completed {} iterations, golden completed {}",
            r.iterations, golden.iterations
        ));
    }

    let (s, e) = (&r.fault_stats, &r.elastic);
    if e.epochs != e.evicted_workers + e.joined_workers + e.failed_shards {
        v.push(format!(
            "accounting: {} epochs != {} evictions + {} joins + {} shard deaths",
            e.epochs, e.evicted_workers, e.joined_workers, e.failed_shards
        ));
    }
    if e.failed_shards > 0 && e.restore_bytes == 0 {
        v.push(format!(
            "accounting: {} shard deaths restored zero bytes",
            e.failed_shards
        ));
    }
    if e.failed_shards > 0 && e.recovery_ns == 0 {
        v.push(format!(
            "accounting: {} shard deaths with zero measured recovery time",
            e.failed_shards
        ));
    }
    if e.epochs > 0 && e.replans == 0 {
        v.push(format!(
            "accounting: {} membership epochs forced zero re-plans",
            e.epochs
        ));
    }
    if e.joined_workers > 0 && e.bootstrap_bytes == 0 {
        v.push(format!(
            "accounting: {} joins moved zero bootstrap bytes",
            e.joined_workers
        ));
    }

    if s.frames_corrupted > 0 && s.retries == 0 {
        v.push(format!(
            "integrity: {} corrupt frames detected but zero retransmissions \
             — damaged payloads were dropped, not recovered",
            s.frames_corrupted
        ));
    }
    if e.restore_fallbacks > 0 && e.corrupt_snapshots == 0 {
        v.push(format!(
            "integrity: {} fallback restores with zero corrupt snapshots on record",
            e.restore_fallbacks
        ));
    }
    if e.fallback_depth < e.restore_fallbacks {
        v.push(format!(
            "integrity: fallback depth {} below fallback count {} \
             (every fallback skips at least one generation)",
            e.fallback_depth, e.restore_fallbacks
        ));
    }

    match rerun {
        None => {}
        Some(Err(msg)) => v.push(format!("recovery-contract: replay panicked: {msg}")),
        Some(Ok(r2)) => {
            let diverged = replay_divergence(r, r2);
            if !diverged.is_empty() {
                v.push(format!(
                    "recovery-contract: replay diverged in {}",
                    diverged.join(", ")
                ));
            }
        }
    }

    if ledger {
        // Replayed bytes are a subset of `retried_bytes`, giving the
        // sandwich (with a small slop for sub-message rounding).
        let extra = s.wire_bytes - golden.fault_stats.wire_bytes;
        const SLOP: f64 = 64.0;
        if extra < s.wasted_bytes - SLOP {
            v.push(format!(
                "ledger: extra wire bytes {extra:.1} below recorded waste {:.1}",
                s.wasted_bytes
            ));
        }
        if extra > s.wasted_bytes + s.retried_bytes as f64 + SLOP {
            v.push(format!(
                "ledger: extra wire bytes {extra:.1} exceed waste {:.1} + \
                 retransmissions {}",
                s.wasted_bytes, s.retried_bytes
            ));
        }
        if s.replays == 0 && (extra - s.wasted_bytes).abs() > SLOP {
            v.push(format!(
                "ledger: no replays, yet extra wire bytes {extra:.1} != waste {:.1}",
                s.wasted_bytes
            ));
        }
    }

    if let Some(plan) = transient {
        if r.degraded_transitions.last().is_some_and(|&(_, d)| d) {
            let last_fault_end = plan.faults.iter().map(|f| f.until()).max();
            let last_fault_end = last_fault_end.unwrap_or(SimTime::ZERO);
            if last_fault_end + budget.degraded_grace < r.duration {
                v.push(format!(
                    "stuck-degraded: still degraded at end of run ({:?}), last \
                     fault cleared at {:?}",
                    r.duration, last_fault_end
                ));
            }
        }
    }

    PlanVerdict {
        violations: v,
        slowdown,
    }
}

/// [`judge`] without a replay. Kept only for `benchmark/src/sim.rs`, and
/// deleted by the `benchmark` change that moves it onto [`judge`].
#[doc(hidden)]
pub fn check_plan(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    plan: &FaultPlan,
    budget: &OracleBudget,
) -> PlanVerdict {
    judge(golden, outcome, None, plan, budget)
}

/// [`judge`]'s clauses with a replay and without the ledger and
/// stuck-degraded, whatever the plan: the clause set `benchmark/src/sim.rs`
/// judges its churn and corruption runs by. Kept only for that file (also
/// as `check_corruption_plan`), and deleted by the `benchmark` change that
/// moves it onto [`judge`].
#[doc(hidden)]
pub fn check_churn_plan(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    rerun: &Result<RunResult, String>,
    budget: &OracleBudget,
) -> PlanVerdict {
    verdict(golden, outcome, Some(rerun), false, None, budget)
}

#[doc(hidden)]
pub use check_churn_plan as check_corruption_plan;

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
    use prophet_sim::SpanKind;

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
        let rerun = run_sim_checked(&faulted, 3);
        let verdict = judge(
            &golden,
            &outcome,
            Some(&rerun),
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
        let verdict = judge(&golden, &outcome, None, &faulted.fault_plan, &budget);
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
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &outcome, None, &FaultPlan::empty(), &budget);
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
            iter_starts: vec![SimTime::ZERO],
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

    /// The two-shard cell under `plan`: its fault-free golden, then the
    /// faulted configuration and one run of it.
    fn two_shard_run(plan: FaultPlan) -> (RunResult, ClusterConfig, Result<RunResult, String>) {
        let mut base = cell(SchedulerKind::Fifo);
        base.ps_shards = 2;
        let golden = run_cluster(&base, 6);
        base.fault_plan = plan;
        let outcome = run_sim_checked(&base, 6);
        (golden, base, outcome)
    }

    fn fired(verdict: &PlanVerdict, clause: &str) -> usize {
        verdict
            .violations
            .iter()
            .filter(|v| v.starts_with(clause))
            .count()
    }

    #[test]
    fn clean_churn_plan_passes_every_oracle() {
        let (golden, churned, outcome) = two_shard_run(churn());
        let rerun = run_sim_checked(&churned, 6);
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &outcome, Some(&rerun), &churn(), &budget);
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        assert!(verdict.slowdown.is_finite());
    }

    #[test]
    fn churn_oracle_catches_nondeterministic_replay() {
        let (golden, churned, outcome) = two_shard_run(churn());
        // A replay from a *different* seed is a stand-in for a
        // nondeterministic recovery path: timings diverge.
        let mut other = churned.clone();
        other.seed ^= 0xDEAD;
        let rerun = run_sim_checked(&other, 6);
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &outcome, Some(&rerun), &churn(), &budget);
        assert_eq!(fired(&verdict, "recovery-contract"), 1, "{verdict:?}");
    }

    #[test]
    fn churn_replay_differing_in_one_counter_or_log_breaks_the_contract() {
        // Fields the churn replay check used to skip: a retry count or one
        // instant of worker 0's timeline alone is enough to break
        // determinism.
        let (golden, _, outcome) = two_shard_run(churn());
        let first = outcome.as_ref().expect("churn run");
        let budget = OracleBudget::paper_default();
        let mut retried = first.clone();
        retried.fault_stats.retries += 1;
        let mut relogged = first.clone();
        let push = relogged
            .grad_spans
            .iter_mut()
            .find(|s| (s.worker, s.iter, s.grad, s.kind) == (0, 1, 0, SpanKind::Push));
        push.expect("worker 0's spans are always collected").end = SimTime::ZERO;
        for (field, rerun) in [("fault_stats", retried), ("grad_spans", relogged)] {
            let verdict = judge(&golden, &outcome, Some(&Ok(rerun)), &churn(), &budget);
            assert_eq!(
                verdict.violations,
                vec![format!("recovery-contract: replay diverged in {field}")]
            );
        }
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
        let rerun = Ok(broken.clone());
        let verdict = judge(&golden, &Ok(broken), Some(&rerun), &churn(), &budget);
        assert_eq!(fired(&verdict, "accounting"), 2, "{verdict:?}");
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
        let (golden, corrupted, outcome) = two_shard_run(corruption());
        let rerun = run_sim_checked(&corrupted, 6);
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &outcome, Some(&rerun), &corruption(), &budget);
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
        let plan = corruption();
        let same = Ok(broken.clone());
        let verdict = judge(&golden, &Ok(broken.clone()), Some(&same), &plan, &budget);
        assert_eq!(fired(&verdict, "integrity"), 2, "{verdict:?}");
        // A replay whose detection counters drift is a contract violation.
        let mut drifted = broken.clone();
        drifted.fault_stats.frames_corrupted = 4;
        let verdict = judge(&golden, &Ok(broken), Some(&Ok(drifted)), &plan, &budget);
        assert_eq!(fired(&verdict, "recovery-contract"), 1, "{verdict:?}");
    }

    /// A synthetic run whose wire carried 1 MB more than the golden's with
    /// no waste or retransmission recorded: the byte ledger does not close.
    fn unbalanced_ledger() -> RunResult {
        let mut r = synthetic(1_000, vec![]);
        r.fault_stats.wire_bytes = 1e6;
        r
    }

    #[test]
    fn broken_ledger_under_payload_corruption_is_a_violation() {
        let plan = FaultPlan::new(vec![FaultSpec::PayloadCorrupt {
            rate: 0.1,
            at: SimTime::ZERO,
            dur: Duration::from_millis(100),
        }]);
        let golden = synthetic(1_000, vec![]);
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &Ok(unbalanced_ledger()), None, &plan, &budget);
        assert!(fired(&verdict, "ledger") > 0, "{verdict:?}");
    }

    #[test]
    fn broken_ledger_under_shard_fail_is_a_violation() {
        // A shard death keeps the worker set, so the bytes still balance:
        // the ledger applies.
        let plan = FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 1,
            at_iter: 2,
        }]);
        let golden = synthetic(1_000, vec![]);
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &Ok(unbalanced_ledger()), None, &plan, &budget);
        assert!(fired(&verdict, "ledger") > 0, "{verdict:?}");
    }

    #[test]
    fn broken_ledger_under_worker_fail_is_not_a_violation() {
        // A worker that leaves changes the workload, so its byte delta is
        // not waste: the ledger is scoped out of worker-set changes.
        let plan = FaultPlan::new(vec![FaultSpec::WorkerFail {
            worker: 1,
            at_iter: 2,
        }]);
        let golden = synthetic(1_000, vec![]);
        let budget = OracleBudget::paper_default();
        let verdict = judge(&golden, &Ok(unbalanced_ledger()), None, &plan, &budget);
        assert!(verdict.ok(), "{verdict:?}");
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
        let verdict = judge(&golden, &Ok(stuck), None, &plan, &budget);
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
        let verdict = judge(&golden, &Ok(recovering), None, &plan, &budget);
        assert!(
            !verdict.violations.iter().any(|v| v.contains("degraded")),
            "{:?}",
            verdict.violations
        );
        // Recovered before the end: fine at any duration.
        let t2 = at + Duration::from_millis(500);
        let healthy = synthetic(30_000, vec![(at, true), (t2, false)]);
        let verdict = judge(&golden, &Ok(healthy), None, &plan, &budget);
        assert!(verdict.ok(), "{:?}", verdict.violations);
    }
}
