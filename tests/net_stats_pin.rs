//! The network engine's work counters, pinned in both regimes the
//! benchmark runs.
//!
//! - A 32-worker, 32-shard cell shaped like the `sim_scale` benchmark
//!   (ResNet18 bs16, 10 Gb/s, co-located shards, one warm-up iteration
//!   plus one measured): many components, fills that resume.
//! - A Table 2 cell shaped like the `sim_paper` benchmark (3 workers + 1
//!   PS, ResNet50 bs64, 4 Gb/s, four warm-up iterations plus 26
//!   measured): one component of at most four flows, round-1 fills.
//!
//! Each runs once per strategy of the paper's line-up. Every [`NetStats`]
//! field is exact per seed, so the whole struct is pinned: a change to how
//! the engine re-fills components must say, field by field, which counts
//! it moves.
//!
//! `same_instant_refills` counts the fills of a component at the instant
//! of its previous fill; it stays 0 in every cell. CHANGES.md records what
//! each re-record of these pins moved.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::net::NetStats;
use prophet::ps::sim::{run_cluster, ClusterConfig};

fn scale_cell(kind: SchedulerKind) -> ClusterConfig {
    let job = TrainingJob::paper_setup("resnet18", 16);
    let mut cfg = ClusterConfig::paper_cell(32, 10.0, job, kind);
    cfg.ps_shards = 32;
    cfg.warmup_iters = 1;
    // The invariant checker does not touch the network's counters; leaving
    // it off keeps the debug tier quick.
    cfg.check_invariants = false;
    cfg
}

fn paper_cell(kind: SchedulerKind) -> ClusterConfig {
    let job = TrainingJob::paper_setup("resnet50", 64);
    let mut cfg = ClusterConfig::paper_cell(3, 4.0, job, kind);
    cfg.warmup_iters = 4;
    cfg.check_invariants = false;
    cfg
}

fn stats(v: [u64; 10]) -> NetStats {
    let [refills, flows_refilled, fill_rounds, rounds_reused, rate_changes, index_pushes, index_stale_pops, split_checks, completions, same_instant_refills] =
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
        same_instant_refills,
    }
}

#[test]
fn sim_scale_shaped_cell_counts_are_pinned() {
    // refills, flows_refilled, fill_rounds, rounds_reused, rate_changes,
    // index_pushes, index_stale_pops, split_checks, completions,
    // same_instant_refills
    let want = [
        (
            "mxnet-fifo",
            [7394, 39586, 9324, 10023, 25996, 7339, 3761, 2799, 7936, 0],
        ),
        (
            "p3",
            [9505, 76006, 17712, 12995, 35962, 9341, 5493, 6380, 8832, 0],
        ),
        (
            "bytescheduler",
            [3034, 101962, 8666, 6316, 44540, 3034, 531, 7825, 8832, 0],
        ),
        (
            "prophet-oracle",
            [
                7775, 317285, 19741, 16096, 63238, 7775, 677, 11582, 13788, 0,
            ],
        ),
    ];
    let lineup = SchedulerKind::paper_lineup(1.25e9);
    assert_eq!(lineup.len(), want.len());
    for (kind, (label, counts)) in lineup.into_iter().zip(want) {
        assert_eq!(kind.label(), label);
        let got = run_cluster(&scale_cell(kind), 2).net_stats;
        assert_eq!(got, stats(counts), "{label}");
    }
}

#[test]
fn sim_paper_shaped_cell_counts_are_pinned() {
    // refills, flows_refilled, fill_rounds, rounds_reused, rate_changes,
    // index_pushes, index_stale_pops, split_checks, completions,
    // same_instant_refills
    let want = [
        (
            "mxnet-fifo",
            [19350, 104936, 20902, 0, 29428, 19350, 90, 21079, 28980, 0],
        ),
        (
            "p3",
            [
                51218, 179957, 87219, 0, 140925, 48958, 28849, 27824, 30420, 0,
            ],
        ),
        (
            "bytescheduler",
            [20310, 115741, 20538, 0, 30868, 20310, 90, 27427, 30420, 0],
        ),
        (
            "prophet-oracle",
            [35855, 206840, 36425, 0, 55465, 35855, 76, 49511, 54989, 0],
        ),
    ];
    let lineup = SchedulerKind::paper_lineup(4e9 / 8.0);
    assert_eq!(lineup.len(), want.len());
    for (kind, (label, counts)) in lineup.into_iter().zip(want) {
        assert_eq!(kind.label(), label);
        let got = run_cluster(&paper_cell(kind), 30).net_stats;
        assert_eq!(got, stats(counts), "{label}");
    }
}
