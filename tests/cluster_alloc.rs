//! The cluster engine's per-message allocations, counted and not timed
//! (DESIGN.md §18).
//!
//! Before its in-flight state moved into index-addressed tables, the engine
//! itself allocated for every message: a `vec![(g, b)]` per shard group per
//! launch, growth of three hash maps, a collected copy of the generation
//! schedule per worker-iteration, a clone of the whole `TransferTask` per
//! failed send. Now a message's buffers are recycled and a lookup is an
//! index, so in steady state the engine allocates nothing per message; what
//! is left belongs to its neighbours, and the bounds below name each share:
//!
//! * the scheduler's `TransferTask` piece list — one per task;
//! * the barrier ledger in `protocol.rs` — one extent list per `(iteration,
//!   tensor, worker)` and one row per `(iteration, tensor)`;
//! * amortised growth of result vectors — a few per iteration (worker 0's
//!   span table, always collected, is sized up front and allocates
//!   nothing here).
//!
//! Measured on the Table 2 cell, iterations 3..11: FIFO 12 969 allocations
//! for 7 728 tasks (1.68 per task: 1.00 task lists, 0.67 ledger, 89
//! allocations in all besides), Prophet 21 950 for 14 679 (1.50; 0.14 per
//! message beyond the named shares). The cluster drains the network's
//! completions into one buffer it keeps (`Network::advance_into`); while it
//! took a fresh list from `Network::advance_to` per drain, the same cells
//! made 18 121 and 31 562 — 0.67 and 0.65 allocations per message more,
//! which the bound below rejects. Before the engine's tables were rebuilt
//! they made 25 857 and 46 250.
//!
//! `run_cluster` is one call, so "during iterations 3..N" is a difference:
//! the same cell run for [`WARM`] and for [`LONG`] iterations allocates
//! identically up to iteration `WARM` (runs are deterministic), and the
//! difference of the two counts is what iterations `WARM..LONG` cost.
//!
//! Release tier only (`scripts/check.sh release` passes `--include-ignored`):
//! a debug build of `prophet-net` audits its tables after every
//! re-allocation (`Network::audit`), which allocates ten times per message
//! and would drown the count.

use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, ClusterStats};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const WORKERS: usize = 3;
/// Iterations before counting starts: the tables, lane queues and buffer
/// pools have reached their steady size by then.
const WARM: u64 = 3;
const LONG: u64 = 11;

/// The fault-free Table 2 cell: 3 workers + 1 PS, ResNet50 bs64, 4 Gb/s.
/// Unchecked and untraced, so only the engine, the network and the
/// schedulers allocate.
fn table2_cell(kind: SchedulerKind) -> ClusterConfig {
    let job = TrainingJob::paper_setup("resnet50", 64);
    let mut cfg = ClusterConfig::paper_cell(WORKERS, 4.0, job, kind);
    cfg.check_invariants = false;
    cfg.typed_trace = false;
    cfg
}

/// Allocations made by one run, and the engine's counters for it.
fn counted(cfg: &ClusterConfig, iters: u64) -> (u64, ClusterStats) {
    let (r, allocs) = counting_alloc::counted(|| run_cluster(cfg, iters));
    assert_eq!(r.iter_times.len() as u64, iters);
    (allocs, r.cluster_stats)
}

/// `(allocations, tasks issued, messages sent)` in iterations `WARM..LONG`.
fn steady_state(cfg: &ClusterConfig) -> (u64, u64, u64) {
    let (a0, s0) = counted(cfg, WARM);
    let (a1, s1) = counted(cfg, LONG);
    (
        a1 - a0,
        s1.tasks_issued - s0.tasks_issued,
        s1.messages - s0.messages,
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: debug builds audit the network after every fill, allocating"
)]
fn a_fault_free_message_allocates_only_outside_the_engine() {
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::ProphetOracle(ProphetConfig::paper_default(0.5e9)),
    ] {
        let label = kind.label();
        let cfg = table2_cell(kind);
        let (allocs, tasks, messages) = steady_state(&cfg);
        let iters = LONG - WARM;
        let worker_iters = WORKERS as u64 * iters;
        let ledger = cfg.job.num_gradients() as u64 * (worker_iters + iters);
        let bound = tasks + messages / 4 + ledger + 4 * worker_iters;
        assert!(
            tasks > 0 && messages >= tasks,
            "a dead engine must not pass"
        );
        assert!(
            allocs <= bound,
            "{label}: {allocs} allocations in iterations {WARM}..{LONG} for {tasks} tasks and \
             {messages} messages; bound {bound} — something allocates per message again"
        );
    }
}

/// A `MsgLoss` window over most of the run plus a `LinkDown` on worker 1:
/// a few hundred messages are lost or killed and sent again.
fn lossy_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultSpec::MsgLoss {
            rate: 0.15,
            at: SimTime::ZERO + Duration::from_millis(100),
            dur: Duration::from_secs(4),
        },
        FaultSpec::LinkDown {
            node: 2,
            at: SimTime::ZERO + Duration::from_millis(900),
            dur: Duration::from_millis(80),
        },
    ])
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: debug builds audit the network after every fill, allocating"
)]
fn a_resend_allocates_nothing_in_the_engine() {
    // Against its fault-free twin, the faulted run may allocate only what
    // its extra flows cost outside the engine: 347 re-sends bring 41
    // B-tree nodes of the retry ledger and a few one-off allocations
    // anywhere else — 64 in all, 0.18 per re-send. With a fresh completion
    // list per drain (more, smaller drains) they made 1 005 (2.9); before
    // that, 1 346 (3.9), one cloned `TransferTask` per failed send. This
    // bound rejects both.
    let clean = table2_cell(SchedulerKind::Fifo);
    let mut faulted = clean.clone();
    faulted.fault_plan = lossy_plan();
    let (clean_allocs, _) = counted(&clean, LONG);
    let (r, faulted_allocs) = counting_alloc::counted(|| run_cluster(&faulted, LONG));
    let f = &r.fault_stats;
    let resends = f.flows_killed + f.messages_lost;
    assert!(f.flows_killed > 0 && f.messages_lost > 100, "{f:?}");
    assert_eq!(
        r.cluster_stats.messages,
        r.cluster_stats.tasks_issued + resends
    );
    let extra = faulted_allocs.saturating_sub(clean_allocs);
    assert!(
        extra <= resends / 3 + 32,
        "{extra} allocations more than the fault-free run for {resends} re-sends"
    );
}
