//! Extension: chaos sweep: seeded fault plans under four profiles —
//! transient, churn, corruption and mixed — every plan run twice and judged
//! by the one oracle, `judge`, with automatic shrinking of any violation
//! and threaded-runtime bit-identity legs.

use super::cell;
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::net::RetryPolicy;
use prophet::ps::sim::{run_cluster, RunResult};
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig};
use prophet::ps::{check_threaded_bit_identity, judge, run_sim_checked, OracleBudget, PlanVerdict};
use prophet::sim::{
    plan_to_rust, shrink, ChaosGen, ChaosProfile, Duration, FaultPlan, FaultSpec, SimTime,
};

/// The fault space one group of sweep rows draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Transient windows only (`ChaosProfile::for_cluster`).
    Transient,
    /// Transient windows and membership churn (`ChaosProfile::churn`).
    Churn,
    /// Silent corruption and shard death (`ChaosProfile::corruption`).
    Corruption,
    /// All ten kinds, in one plan (`ChaosProfile::mixed`).
    Mixed,
}

impl Profile {
    /// Every profile, in row order: the default of `repro ext_chaos`.
    pub const ALL: [Profile; 4] = [
        Profile::Transient,
        Profile::Churn,
        Profile::Corruption,
        Profile::Mixed,
    ];

    /// The name `repro ext_chaos` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Transient => "transient",
            Profile::Churn => "churn",
            Profile::Corruption => "corruption",
            Profile::Mixed => "mixed",
        }
    }

    /// `(workers, shards, iterations)` of the profile's cell. Membership
    /// epochs, checkpoint rounds and the re-plan after either need the
    /// bigger cell and the longer run.
    fn cell(self) -> (usize, usize, u64) {
        match self {
            Profile::Transient => (2, 1, 3),
            _ => (3, 2, 6),
        }
    }

    /// XORed into the sweep seed, so that seed 42 draws the churn and
    /// corruption plans of `ChaosGen::new(0xE1A5)` and
    /// `ChaosGen::new(0xC0DE)`: the streams the zero-violation record at 200
    /// plans was taken on.
    fn salt(self) -> u64 {
        match self {
            Profile::Churn => 42 ^ 0xE1A5,
            Profile::Corruption => 42 ^ 0xC0DE,
            _ => 0,
        }
    }

    fn chaos(self, workers: usize, shards: usize, horizon: Duration, iters: u64) -> ChaosProfile {
        match self {
            Profile::Transient => ChaosProfile::for_cluster(workers, shards, horizon),
            Profile::Churn => ChaosProfile::churn(workers, shards, horizon, iters),
            Profile::Corruption => ChaosProfile::corruption(workers, shards, horizon, iters),
            Profile::Mixed => ChaosProfile::mixed(workers, shards, horizon, iters),
        }
    }
}

/// The sweep's CSV header. Every column is deterministic, so two runs of
/// one seed write the same file.
const COLUMNS: &str = "profile,strategy,plans,violations,slowdown_min,slowdown_med,\
    slowdown_max,recovery_ms_med,lost_work_kb_med,restore_kb_med,replans_total,\
    frames_corrupted_med,fallbacks_total,fallback_depth_total,thr_legs,thr_bit_identical,\
    thr_fallback_depth";

/// Registry entry: a small fixed-seed sweep so `repro all` stays fast.
/// `repro ext_chaos <seed> [budget] [profile…]` runs it at any scale.
pub fn ext_chaos() -> ExperimentOutput {
    run_chaos(42, 8, &Profile::ALL)
}

/// The chaos sweep: per profile and per scheduler in the paper lineup, run
/// `budget` generated plans through the simulator, each twice, and judge
/// every pair with [`judge`] against the fault-free golden. A violation is
/// shrunk to a minimal plan and printed as pinned-test source on stderr.
/// Each row also runs the profile's threaded legs.
pub fn run_chaos(seed: u64, budget: usize, profiles: &[Profile]) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_chaos",
        "Chaos sweep: ResNet18 bs16, 10 Gb/s — transient on 2 workers × 1 shard \
         (3 iterations), churn, corruption and mixed on 3 × 2 (6 iterations)",
        "The paper argues robustness qualitatively (§5.3 varies bandwidth by \
         hand) and assumes a fixed worker set and an intact transport. This \
         samples whole fault schedules — transient windows, permanent \
         membership churn, silent corruption, and all of them in one plan — \
         from a seeded generator, runs each twice, and holds every run to one \
         verdict: safety, liveness, elastic and integrity accounting, a \
         bit-identical replay, and (without permanent events) the wire-byte \
         ledger and Prophet's degraded-mode recovery. Threaded legs replay \
         plans on the real PS and require a bit-identical model.",
        &COLUMNS.split(',').collect::<Vec<_>>(),
    );
    let oracle = OracleBudget::paper_default();
    // The strategies of one profile are independent: a thread each, rows
    // kept in line-up order.
    for &profile in profiles {
        std::thread::scope(|scope| {
            let rows: Vec<_> = SchedulerKind::paper_lineup(1.25e9)
                .into_iter()
                .map(|kind| scope.spawn(move || sweep_row(seed, budget, profile, kind, &oracle)))
                .collect();
            for row in rows {
                out.row(row.join().expect("a sweep row panicked"));
            }
        });
    }
    out.notes = format!(
        "Seed {seed}, {budget} plans per profile and strategy, each run twice; \
         oracle budget {:.1}x liveness, {:?} degraded grace. `slowdown` is \
         faulted over fault-free simulated duration. The recovery, lost-work \
         and restore medians are over plans with a shard death; recovery_ms \
         is simulated time from the death to the re-homed tensors being \
         served again. frames_corrupted is the per-plan median of frames a \
         receiver's CRC rejected; fallbacks/depth count restores that \
         skipped corrupted snapshot generations. thr_legs counts the \
         threaded plans per row — 3 generated transient plans, a fixed \
         eviction+death+join plan, a wire-corruption window and a \
         poisoned-newest-snapshot shard death (mixed has none) — and \
         thr_bit_identical those whose model matched the fault-free twin, \
         or a rerun when the plan changes the worker set.",
        oracle.liveness_multiple, oracle.degraded_grace
    );
    out
}

/// Aggregates of one row's simulated runs.
#[derive(Default)]
struct Tally {
    violations: usize,
    slowdowns: Vec<f64>,
    recovery_ns: Vec<u64>,
    lost_work: Vec<u64>,
    restored: Vec<u64>,
    replans: u64,
    frames: Vec<u64>,
    fallbacks: u64,
    depth: u64,
}

impl Tally {
    fn add(&mut self, verdict: &PlanVerdict, run: &Result<RunResult, String>) {
        if verdict.slowdown.is_finite() {
            self.slowdowns.push(verdict.slowdown);
        }
        let Ok(r) = run else { return };
        let e = &r.elastic;
        if e.failed_shards > 0 {
            self.recovery_ns.push(e.recovery_ns);
            self.lost_work.push(e.lost_work_bytes);
            self.restored.push(e.restore_bytes);
        }
        self.replans += e.replans;
        self.frames.push(r.fault_stats.frames_corrupted);
        self.fallbacks += e.restore_fallbacks;
        self.depth += e.fallback_depth;
    }
}

/// The median of `xs` rendered by `fmt`, or `-` when `xs` is empty.
fn median<T: Copy + PartialOrd>(xs: &mut [T], fmt: impl Fn(T) -> String) -> String {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    xs.get(xs.len() / 2).map_or("-".to_string(), |&x| fmt(x))
}

/// One `(profile, strategy)` row.
fn sweep_row(
    seed: u64,
    budget: usize,
    profile: Profile,
    kind: SchedulerKind,
    oracle: &OracleBudget,
) -> Vec<String> {
    let label = format!("{} {}", profile.name(), kind.label());
    let (workers, shards, iters) = profile.cell();
    let mut base = cell("resnet18", 16, workers, 10.0, kind.clone());
    base.ps_shards = shards;
    base.warmup_iters = 1;
    base.check_invariants = true;
    let golden = run_cluster(&base, iters);
    // Horizon = the fault-free duration: every plan can land mid-run.
    let horizon = Duration::from_nanos(golden.duration.as_nanos());
    let space = profile.chaos(workers, shards, horizon, iters);
    let judged = |plan: &FaultPlan| {
        let mut cfg = base.clone();
        cfg.fault_plan = plan.clone();
        let first = run_sim_checked(&cfg, iters);
        let again = run_sim_checked(&cfg, iters);
        (judge(&golden, &first, Some(&again), plan, oracle), first)
    };

    let mut gen = ChaosGen::new(seed ^ profile.salt());
    let mut t = Tally::default();
    for _ in 0..budget {
        let plan = gen.next_plan(&space);
        let (verdict, first) = judged(&plan);
        if !verdict.ok() {
            t.violations += 1;
            eprintln!("[ext_chaos] {label}: violation: {:?}", verdict.violations);
            let small = shrink(&plan, |cand| !judged(cand).0.ok());
            eprintln!(
                "[ext_chaos] {label}: shrunk reproducer ({} of {} specs survive):\n{}",
                small.faults.len(),
                plan.faults.len(),
                plan_to_rust(&small)
            );
        }
        t.add(&verdict, &first);
    }

    let legs = threaded_legs(seed, profile, kind.clone());
    let mut identical = 0;
    let mut thr_depth = 0;
    for cfg in &legs {
        let (violations, depth) = threaded_leg(cfg);
        if violations.is_empty() {
            identical += 1;
        } else {
            eprintln!("[ext_chaos] {label}: threaded leg: {violations:?}");
        }
        thr_depth += depth;
    }

    let kb = |b: u64| format!("{:.1}", b as f64 / 1024.0);
    let slowdown = |x: Option<&f64>| x.map_or("-".to_string(), |x| format!("{x:.2}"));
    let slowdown_med = median(&mut t.slowdowns, |x| slowdown(Some(&x)));
    vec![
        profile.name().to_string(),
        kind.label().to_string(),
        budget.to_string(),
        t.violations.to_string(),
        slowdown(t.slowdowns.first()),
        slowdown_med,
        slowdown(t.slowdowns.last()),
        median(&mut t.recovery_ns, |ns| format!("{:.2}", ns as f64 / 1e6)),
        median(&mut t.lost_work, kb),
        median(&mut t.restored, kb),
        t.replans.to_string(),
        median(&mut t.frames, |f| f.to_string()),
        t.fallbacks.to_string(),
        t.depth.to_string(),
        legs.len().to_string(),
        identical.to_string(),
        thr_depth.to_string(),
    ]
}

/// The threaded legs of `profile`'s rows: the first 3 plans of the seeded
/// transient generator, scaled to the threaded run's wall clock; a fixed
/// eviction+death+join plan; a sustained wire-corruption window and a
/// poisoned newest snapshot exposed by a shard death (the verified restore
/// must fall back a generation). The mixed profile has no threaded leg;
/// each fault family it combines has its own leg above.
fn threaded_legs(seed: u64, profile: Profile, kind: SchedulerKind) -> Vec<ThreadedConfig> {
    let small = |workers, plan| {
        let mut cfg = ThreadedConfig::small(workers, kind.clone());
        cfg.iterations = 8;
        cfg.fault_plan = plan;
        cfg
    };
    let three = |shards, plan| {
        let mut cfg = small(3, plan);
        cfg.ps_shards = shards;
        cfg.global_batch = 48;
        cfg
    };
    match profile {
        Profile::Transient => {
            let space = ChaosProfile::for_cluster(2, 1, Duration::from_millis(60));
            let mut gen = ChaosGen::new(seed);
            (0..3)
                .map(|_| {
                    let mut cfg = small(2, gen.next_plan(&space));
                    // Losses must be detected in milliseconds, not the
                    // production 5 s.
                    cfg.retry = RetryPolicy {
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(10),
                        timeout: Duration::from_millis(40),
                    };
                    cfg
                })
                .collect()
        }
        Profile::Churn => vec![three(
            2,
            FaultPlan::new(vec![
                FaultSpec::WorkerFail {
                    worker: 0,
                    at_iter: 5,
                },
                FaultSpec::ShardFail {
                    shard: 1,
                    at_iter: 3,
                },
                FaultSpec::WorkerJoin {
                    worker: 3,
                    at_iter: 2,
                },
            ]),
        )],
        Profile::Corruption => {
            let wire = three(
                1,
                FaultPlan::new(vec![FaultSpec::PayloadCorrupt {
                    rate: 0.10,
                    at: SimTime::ZERO,
                    dur: Duration::from_secs(60),
                }]),
            );
            let mut fallback = three(
                2,
                FaultPlan::new(vec![
                    FaultSpec::CheckpointCorrupt {
                        shard: 0,
                        at_iter: 2, // fires at the iter-3 snapshot: newest before death
                    },
                    FaultSpec::ShardFail {
                        shard: 0,
                        at_iter: 6,
                    },
                ]),
            );
            fallback.checkpoint_period = 4; // snapshots close iters 3 and 7
            vec![wire, fallback]
        }
        Profile::Mixed => Vec::new(),
    }
}

/// Run one threaded leg and hold it to bit-identity: against the
/// fault-free twin, or against a rerun when the plan changes the worker set
/// (evicted or admitted workers legitimately change the model). Returns the
/// violations and the leg's restore fallback depth.
fn threaded_leg(cfg: &ThreadedConfig) -> (Vec<String>, u64) {
    let faulted = run_threaded_training(cfg);
    let mut reference = cfg.clone();
    let changes_workers = cfg.fault_plan.faults.iter().any(|f| {
        matches!(
            f,
            FaultSpec::WorkerFail { .. } | FaultSpec::WorkerJoin { .. }
        )
    });
    if !changes_workers {
        reference.fault_plan = FaultPlan::empty();
    }
    let reference = run_threaded_training(&reference);
    (
        check_threaded_bit_identity(&reference, &faulted),
        faulted.fallback_depth,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row violation-free, every threaded leg bit-identical, and the
    /// forced-fallback leg fell back at least one generation.
    fn assert_clean(out: &ExperimentOutput) {
        assert_eq!(out.rows.len(), 16, "one row per profile and strategy");
        let col =
            |row: &[String], name| row[COLUMNS.split(',').position(|c| c == name).unwrap()].clone();
        for row in &out.rows {
            assert_eq!(col(row, "violations"), "0", "violations in {row:?}");
            assert_eq!(
                col(row, "thr_bit_identical"),
                col(row, "thr_legs"),
                "threaded leg diverged in {row:?}"
            );
            if col(row, "profile") == "corruption" {
                assert_ne!(
                    col(row, "thr_fallback_depth"),
                    "0",
                    "no fallback in {row:?}"
                );
            }
        }
    }

    #[test]
    fn ext_chaos_smoke_is_violation_free() {
        assert_clean(&run_chaos(42, 1, &Profile::ALL));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release-tier: 200 plans x 4 strategies x 4 profiles x 2 runs"
    )]
    fn chaos_sweep_is_violation_free() {
        assert_clean(&run_chaos(42, 200, &Profile::ALL));
    }
}
