//! A committed cross-commit differential for the cluster engine.
//!
//! Every refactor of `sim/cluster.rs` so far (PRs 13, 16, 19) proved "same
//! answers" with a throw-away harness that ran the parent and the change
//! side by side. This file is that harness, kept: it runs a fixed set of
//! cells — seeded chaos plans under the three profiles across the paper's
//! scheduler line-up, two fault-free Table 2 cells, one cell with
//! co-located shards, and VGG19 cells whose gradient releases are not in
//! schedule order — with the invariant checker and the typed trace on,
//! and folds *named fields* of each [`RunResult`] into one number per
//! group. The constants below were last re-recorded for one fill per
//! instant (CHANGES.md lists the fields that moved) and must not be edited
//! by a change that claims to compute the same thing.
//!
//! Fields are hashed one by one rather than through `Debug`, so adding a
//! field to `RunResult` does not void the record; changing what the engine
//! computes does. On a mismatch the failure names the group and prints the
//! digest of every run in it, so two commits can be diffed run by run.
//!
//! Tier-1 runs [`TIER1_PLANS`] plans per profile and strategy; the release
//! tier (`scripts/check.sh release`, `--include-ignored`) runs
//! [`FULL_PLANS`].

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::run_sim_checked;
use prophet::ps::sim::{ClusterConfig, RunResult};
use prophet::sim::{ChaosGen, ChaosProfile, Duration, FaultPlan, FaultSpec, SimTime, SpanKind};

// ---- recorded with one fill per instant ------------------------------------
const CHAOS_TIER1: u64 = 0xf9aa_a2d0_1d2e_e9ce;
const CHAOS_FULL: u64 = 0xf322_f88c_fbe2_12a9;
const CLEAN_3X1: u64 = 0x6da9_eea2_804e_5f7b;
const COLOCATED: u64 = 0xb920_ade1_3f07_462c;
const UNSORTED_RELEASES: u64 = 0x9e6b_90f9_0c1d_943b;

const TIER1_PLANS: usize = 24;
const FULL_PLANS: usize = 200;
const SEED: u64 = 20;

const CHAOS_WORKERS: usize = 4;
const CHAOS_SHARDS: usize = 2;
/// One warm-up iteration plus five: room for a mid-run membership epoch, a
/// checkpoint round and the re-plan after either.
const CHAOS_ITERS: u64 = 6;

/// A word-at-a-time FNV-1a-style fold. Not cryptographic; it only has to
/// make an accidental collision between two different runs implausible.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.as_nanos());
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }
}

/// Fold the named fields of one run.
fn digest_run(r: &RunResult) -> u64 {
    let mut d = Digest::new();
    d.word(r.iterations);
    d.time(r.duration);
    d.word(r.rate.to_bits());
    d.word(r.rate_with_warmup.to_bits());
    d.len(r.iter_times.len());
    for t in &r.iter_times {
        d.word(t.as_nanos());
    }
    d.len(r.iter_starts.len());
    for &t in &r.iter_starts {
        d.time(t);
    }
    let transfer_logs = r.transfer_logs();
    d.len(transfer_logs.len());
    for logs in &transfer_logs {
        d.len(logs.len());
        for l in logs {
            d.len(l.grad);
            for t in [l.ready, l.push_start, l.push_end, l.pull_start, l.pull_end] {
                d.time(t);
            }
        }
    }
    let f = &r.fault_stats;
    for v in [
        f.retries,
        f.flows_killed,
        f.messages_lost,
        f.retried_bytes,
        f.wasted_bytes.to_bits(),
        f.replays,
        f.recoveries,
        f.wire_bytes.to_bits(),
        f.frames_corrupted,
    ] {
        d.word(v);
    }
    let e = &r.elastic;
    for v in [
        e.epochs,
        e.evicted_workers,
        e.joined_workers,
        e.failed_shards,
        e.checkpoints,
        e.restore_bytes,
        e.recovery_ns,
        e.replans,
        e.bootstrap_bytes,
        e.lost_work_bytes,
        e.corrupt_snapshots,
        e.restore_fallbacks,
        e.fallback_depth,
    ] {
        d.word(v);
    }
    d.len(r.grad_spans.len());
    for s in &r.grad_spans {
        d.len(s.worker);
        d.word(s.iter);
        d.len(s.grad);
        d.word(match s.kind {
            SpanKind::QueueWait => 0,
            SpanKind::Push => 1,
            SpanKind::Aggregate => 2,
            SpanKind::Pull => 3,
            SpanKind::Compute => 4,
        });
        d.time(s.start);
        d.time(s.end);
    }
    d.len(r.shard_spans.len());
    for s in &r.shard_spans {
        d.len(s.shard);
        d.word(s.iter);
        d.len(s.grad);
        d.time(s.start);
        d.time(s.end);
    }
    d.word(r.cluster_stats.checker_events);
    d.0
}

/// Run `cfg` with both sinks on; an invariant violation fails the test with
/// the checker's own message.
fn checked(mut cfg: ClusterConfig, iters: u64, what: &str) -> RunResult {
    cfg.check_invariants = true;
    cfg.typed_trace = true;
    cfg.seed = SEED;
    run_sim_checked(&cfg, iters).unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Digests of a group's runs, and their fold.
struct Group {
    runs: Vec<(String, u64)>,
}

impl Group {
    fn fold(&self) -> u64 {
        let mut d = Digest::new();
        for &(_, h) in &self.runs {
            d.word(h);
        }
        d.0
    }

    fn assert_is(&self, name: &str, recorded: u64) {
        let got = self.fold();
        if got != recorded {
            for (what, h) in &self.runs {
                eprintln!("{h:#018x}  {what}");
            }
            panic!(
                "{name}: digest {got:#018x} over {} runs, recorded {recorded:#018x} — \
                 the engine no longer computes what it did when the record was taken",
                self.runs.len()
            );
        }
    }
}

/// `plans` plans per profile per strategy on the 4 × 2 ResNet18 cell. Each
/// strategy draws from its own `ChaosGen::new(SEED)` against the horizon of
/// its own fault-free reference, profile by profile — so the strategies are
/// independent and run on a thread each; their digests are folded in
/// line-up order.
fn chaos_group(plans: usize) -> Group {
    let job = TrainingJob::paper_setup("resnet18", 16);
    let runs = std::thread::scope(|scope| {
        let strategies: Vec<_> = SchedulerKind::paper_lineup(1.25e9)
            .into_iter()
            .map(|kind| {
                let job = &job;
                scope.spawn(move || chaos_runs(job, kind, plans))
            })
            .collect();
        let joined = strategies.into_iter().map(|s| s.join());
        joined
            .flat_map(|runs| runs.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    Group { runs }
}

/// One strategy's share of [`chaos_group`]: its reference, then its plans.
fn chaos_runs(job: &TrainingJob, kind: SchedulerKind, plans: usize) -> Vec<(String, u64)> {
    let label = kind.label();
    let mut base = ClusterConfig::paper_cell(CHAOS_WORKERS, 10.0, job.clone(), kind);
    base.ps_shards = CHAOS_SHARDS;
    base.warmup_iters = 1;
    let golden = checked(base.clone(), CHAOS_ITERS, "reference");
    let mut runs = vec![(format!("{label} reference"), digest_run(&golden))];
    let horizon = Duration::from_nanos(golden.duration.as_nanos());
    let (w, s) = (CHAOS_WORKERS, CHAOS_SHARDS);
    let mut gen = ChaosGen::new(SEED);
    for (profile, shape) in [
        ("for_cluster", ChaosProfile::for_cluster(w, s, horizon)),
        ("churn", ChaosProfile::churn(w, s, horizon, CHAOS_ITERS)),
        (
            "corruption",
            ChaosProfile::corruption(w, s, horizon, CHAOS_ITERS),
        ),
    ] {
        for i in 0..plans {
            let what = format!("{label} {profile} plan {i}");
            let mut cfg = base.clone();
            cfg.fault_plan = gen.next_plan(&shape);
            let r = checked(cfg, CHAOS_ITERS, &what);
            runs.push((what, digest_run(&r)));
        }
    }
    runs
}

/// The fault-free Table 2 cell (3 workers + 1 PS, ResNet50 bs64) at two
/// bandwidths across the line-up.
fn clean_group() -> Group {
    let job = TrainingJob::paper_setup("resnet50", 64);
    let mut runs = Vec::new();
    for gbps in [3.0, 10.0] {
        for kind in SchedulerKind::paper_lineup(gbps * 1e9 / 8.0) {
            let what = format!("{} 3x1 resnet50 {gbps} Gb/s", kind.label());
            let cfg = ClusterConfig::paper_cell(3, gbps, job.clone(), kind);
            runs.push((what.clone(), digest_run(&checked(cfg, 8, &what))));
        }
    }
    Group { runs }
}

/// One `ps_shards = workers` cell: every worker talks to every shard, so
/// blocks split across shards and lanes are many.
fn colocated_group() -> Group {
    let job = TrainingJob::paper_setup("resnet18", 16);
    let mut runs = Vec::new();
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let what = format!("{} 6x6 resnet18", kind.label());
        let mut cfg = ClusterConfig::paper_cell(6, 10.0, job.clone(), kind);
        cfg.ps_shards = 6;
        cfg.warmup_iters = 1;
        runs.push((what.clone(), digest_run(&checked(cfg, 4, &what))));
    }
    Group { runs }
}

/// VGG19: its generation schedule is *not* ascending in release time (the
/// d2h copy of a 400 MB tensor outlasts the next flush), so releases pop in
/// an order other than the one they are listed in. Across the line-up, and
/// once more under FIFO with a worker stalled through part of a backward
/// pass (releases deferred while later ones are still to come).
fn unsorted_release_group() -> Group {
    let job = TrainingJob::paper_setup("vgg19", 32);
    let listed = job.generation_events();
    assert!(
        listed.windows(2).any(|p| p[0].ready_at > p[1].ready_at),
        "vgg19's schedule became ascending; this group no longer covers the unsorted case"
    );
    let cell = |kind: SchedulerKind| {
        let mut cfg = ClusterConfig::paper_cell(2, 10.0, job.clone(), kind);
        cfg.warmup_iters = 1;
        cfg
    };
    let mut runs = Vec::new();
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let what = format!("{} 2x1 vgg19", kind.label());
        runs.push((what.clone(), digest_run(&checked(cell(kind), 3, &what))));
    }
    let clean = checked(cell(SchedulerKind::Fifo), 3, "vgg19 stall reference");
    let mut stalled = cell(SchedulerKind::Fifo);
    // From a third of the way into the second backward pass, for half a
    // backward pass.
    let backward = job.backward_duration();
    stalled.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerStall {
        worker: 1,
        at: clean.iter_starts[1] + Duration::from_nanos(backward.as_nanos() / 3),
        dur: Duration::from_nanos(backward.as_nanos() / 2),
    }]);
    let what = "mxnet-fifo 2x1 vgg19 stalled".to_string();
    runs.push((what.clone(), digest_run(&checked(stalled, 3, &what))));
    Group { runs }
}

#[test]
fn chaos_plans_match_the_record() {
    chaos_group(TIER1_PLANS).assert_is("CHAOS_TIER1", CHAOS_TIER1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: 200 plans per profile and strategy"
)]
fn chaos_plans_match_the_record_full() {
    chaos_group(FULL_PLANS).assert_is("CHAOS_FULL", CHAOS_FULL);
}

#[test]
fn fault_free_cells_match_the_record() {
    clean_group().assert_is("CLEAN_3X1", CLEAN_3X1);
}

#[test]
fn colocated_shards_match_the_record() {
    colocated_group().assert_is("COLOCATED", COLOCATED);
}

#[test]
fn unsorted_releases_match_the_record() {
    unsorted_release_group().assert_is("UNSORTED_RELEASES", UNSORTED_RELEASES);
}

/// Worker 0's `Pull` span of gradient `grad` in iteration `iter`.
fn worker0_pull(r: &mut RunResult, iter: u64, grad: usize) -> &mut prophet::sim::GradSpan {
    let mut spans = r.grad_spans.iter_mut();
    let pull =
        spans.find(|s| (s.worker, s.iter, s.grad, s.kind) == (0, iter, grad, SpanKind::Pull));
    pull.expect("worker 0's pull span")
}

#[test]
fn digest_sees_every_named_field() {
    // The fold must move when any hashed field moves, or the record above
    // pins nothing: perturb one field at a time on a real run.
    let job = TrainingJob::paper_setup("resnet18", 16);
    let cfg = ClusterConfig::paper_cell(2, 10.0, job, SchedulerKind::Fifo);
    let r = checked(cfg, 2, "probe");
    let base = digest_run(&r);
    let perturbed: [fn(&mut RunResult); 8] = [
        |r| r.duration = SimTime::from_nanos(r.duration.as_nanos() + 1),
        |r| r.rate += 1.0,
        |r| r.iter_starts[1] = SimTime::from_nanos(r.iter_starts[1].as_nanos() + 1),
        |r| worker0_pull(r, 1, 3).end = SimTime::ZERO,
        |r| r.fault_stats.retries += 1,
        |r| r.elastic.replans += 1,
        |r| r.grad_spans.swap(0, 1),
        |r| r.cluster_stats.checker_events += 1,
    ];
    for (i, poke) in perturbed.iter().enumerate() {
        let mut other = r.clone();
        poke(&mut other);
        assert_ne!(digest_run(&other), base, "perturbation {i} went unseen");
    }
}
