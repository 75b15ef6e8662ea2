//! The network engine's work counters on a many-component cell, pinned.
//!
//! A 32-worker, 32-shard cell shaped like the `sim_scale` benchmark
//! (ResNet18 bs16, 10 Gb/s, co-located shards, one warm-up iteration plus
//! one measured) for each strategy of the paper's line-up. Every
//! [`NetStats`] field is exact per seed, so the whole struct is pinned: a
//! change to how the engine re-fills components must say, field by field,
//! which counts it moves.
//!
//! Resumable fills moved three: `flows_refilled` and `fill_rounds` count
//! only the rates set and rounds run, and `rounds_reused` the rounds taken
//! from a component's previous fill. Before them, every fill ran every
//! round and rated every member: `flows_refilled` was 357 722 / 337 770 /
//! 486 217 / 1 605 828 and `fill_rounds` 21 298 / 30 949 / 20 110 / 57 223
//! (FIFO / P3 / ByteScheduler / prophet-oracle). Every other field is the
//! same as it was then.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::net::NetStats;
use prophet::ps::sim::{run_cluster, ClusterConfig};

fn cell(kind: SchedulerKind) -> ClusterConfig {
    let job = TrainingJob::paper_setup("resnet18", 16);
    let mut cfg = ClusterConfig::paper_cell(32, 10.0, job, kind);
    cfg.ps_shards = 32;
    cfg.warmup_iters = 1;
    // The invariant checker does not touch the network's counters; leaving
    // it off keeps the debug tier quick.
    cfg.check_invariants = false;
    cfg
}

fn stats(v: [u64; 9]) -> NetStats {
    let [refills, flows_refilled, fill_rounds, rounds_reused, rate_changes, index_pushes, index_stale_pops, split_checks, completions] =
        v;
    NetStats {
        refills,
        flows_refilled,
        fill_rounds,
        rounds_reused,
        rate_changes,
        index_pushes,
        index_stale_pops,
        split_checks,
        completions,
    }
}

#[test]
fn sim_scale_shaped_cell_counts_are_pinned() {
    // refills, flows_refilled, fill_rounds, rounds_reused, rate_changes,
    // index_pushes, index_stale_pops, split_checks, completions
    let want = [
        (
            "mxnet-fifo",
            [8306, 40299, 9531, 11767, 26076, 8230, 4652, 2799, 7936],
        ),
        (
            "p3",
            [9932, 77756, 17954, 12995, 36333, 9561, 5713, 6380, 8832],
        ),
        (
            "bytescheduler",
            [4169, 137426, 11179, 8931, 77560, 4169, 1666, 7825, 8832],
        ),
        (
            "prophet-oracle",
            [
                12840, 510486, 31354, 25869, 274632, 12840, 5742, 11582, 13788,
            ],
        ),
    ];
    let lineup = SchedulerKind::paper_lineup(1.25e9);
    assert_eq!(lineup.len(), want.len());
    for (kind, (label, counts)) in lineup.into_iter().zip(want) {
        assert_eq!(kind.label(), label);
        let got = run_cluster(&cell(kind), 2).net_stats;
        assert_eq!(got, stats(counts), "{label}");
    }
}
