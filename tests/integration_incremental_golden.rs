//! End-to-end golden equality: incremental dirty-component re-allocation
//! vs the full-resolve oracle, through the whole cluster engine.
//!
//! `run_cluster_full_resolve` (a `#[doc(hidden)]` test hook) runs the
//! cluster over the fluid network in full-resolve mode, where every
//! re-allocation re-solves every connected component. Both
//! modes share the identical per-component fill path, so a run must be
//! **bit-identical** either way — `FlowEnd` timestamps, iteration times,
//! training rates, fault counters, typed spans, everything. These tests
//! drive that contract across every paper scheduler, with and without
//! faults, under heterogeneous bandwidth and sharded parameter servers.
//! Any divergence is a dirty-tracking bug in the incremental engine, not
//! float noise, so exact equality is the right assertion.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, run_cluster_full_resolve, ClusterConfig, RunResult};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

fn cell(kind: SchedulerKind) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cell(2, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
    c.warmup_iters = 1;
    c
}

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(v)
}

/// Run `cfg` in both allocator modes and assert the results agree bitwise.
fn assert_modes_identical(cfg: ClusterConfig, iters: u64, label: &str) {
    let inc = run_cluster(&cfg, iters);
    let full = run_cluster_full_resolve(&cfg, iters);
    assert_identical(&inc, &full, label);
}

fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.duration, b.duration, "{label}: total duration");
    assert_eq!(a.iterations, b.iterations, "{label}: iteration count");
    assert_eq!(a.iter_times, b.iter_times, "{label}: iteration times");
    assert_eq!(a.iter_starts, b.iter_starts, "{label}: iteration starts");
    assert_eq!(
        a.rate.to_bits(),
        b.rate.to_bits(),
        "{label}: steady-state rate"
    );
    assert_eq!(
        a.rate_with_warmup.to_bits(),
        b.rate_with_warmup.to_bits(),
        "{label}: warm-up rate"
    );
    assert_eq!(
        a.avg_gpu_util.to_bits(),
        b.avg_gpu_util.to_bits(),
        "{label}: GPU utilisation"
    );
    assert_eq!(
        a.avg_net_throughput.to_bits(),
        b.avg_net_throughput.to_bits(),
        "{label}: network throughput"
    );
    assert_eq!(a.fault_stats, b.fault_stats, "{label}: fault counters");
    assert_eq!(a.grad_spans, b.grad_spans, "{label}: typed spans");
}

#[test]
fn fault_free_runs_are_bit_identical_across_modes() {
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = format!("{} fault-free", kind.label());
        let mut cfg = cell(kind);
        cfg.typed_trace = true;
        assert_modes_identical(cfg, 3, &label);
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_modes() {
    // The fault storm exercises exactly the paths where incremental
    // re-allocation can drift: kills detach flows mid-component,
    // link-down/degrade reshapes one component's capacities, retries
    // restart flows into freshly merged components.
    let storm = FaultPlan::new(vec![
        FaultSpec::LinkDown {
            node: 2,
            at: ms(30),
            dur: Duration::from_millis(50),
        },
        FaultSpec::LinkDegrade {
            node: 0,
            at: ms(120),
            factor: 0.25,
            dur: Duration::from_millis(150),
        },
        FaultSpec::MsgLoss {
            rate: 0.15,
            at: ms(100),
            dur: Duration::from_millis(120),
        },
        FaultSpec::ShardCrash {
            shard: 0,
            at: ms(290),
            restart_after: Duration::from_millis(40),
        },
    ]);
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = format!("{} under storm", kind.label());
        let mut cfg = cell(kind);
        cfg.fault_plan = storm.clone();
        cfg.typed_trace = true;
        assert_modes_identical(cfg, 3, &label);
    }
}

#[test]
fn heterogeneous_and_dynamic_bandwidth_runs_are_bit_identical() {
    // Capacity churn (one slow worker + a mid-run reconfiguration of every
    // NIC) drives `set_node_spec`, whose incremental contract is "only the
    // touched component is re-solved".
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = format!("{} heterogeneous", kind.label());
        let mut cfg = cell(kind);
        cfg.workers = 3;
        cfg.worker_bps_overrides = vec![(1, 62.5e6)];
        cfg.bandwidth_schedule = vec![
            (Duration::from_millis(150), 6.25e8),
            (Duration::from_millis(400), 1.25e9),
        ];
        assert_modes_identical(cfg, 3, &label);
    }
}

#[test]
fn sharded_ps_runs_are_bit_identical() {
    // BytePS-style co-located shards give the flow graph several
    // simultaneously-live components, the topology where lazy component
    // splitting actually triggers.
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = format!("{} sharded", kind.label());
        let mut cfg = cell(kind);
        cfg.workers = 3;
        cfg.ps_shards = 3;
        assert_modes_identical(cfg, 3, &label);
    }
}
