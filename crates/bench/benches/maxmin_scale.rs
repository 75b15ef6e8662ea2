//! Allocator scaling: full-solve `maxmin::allocate` vs the incremental
//! dirty-component re-allocation inside [`Network`], across worker counts.
//!
//! Topology mirrors one instant of the sharded cluster (BytePS
//! co-location): `W` workers fanning into `W/8` shards gives `W/8`
//! disjoint connected components of 8 in-flight flows each. A flow
//! arrival or departure touches exactly one component, so incremental
//! re-allocation should cost ~`8/W` of a full solve — the
//! `realloc_speedup_512` derived scalar in `BENCH_maxmin.json` pins that
//! claim (acceptance: ≥10× at 512 workers, by median so one scheduler
//! hiccup can't swing the ratio).
//!
//! Run `cargo bench --bench maxmin_scale` for the real trajectory
//! (written to `BENCH_maxmin.json` at the repo root); `-- --test` runs a
//! single-sample smoke with no artifact.

use criterion::{criterion_group, criterion_main, stats_to_json, Criterion};
use prophet::net::maxmin::{allocate, allocate_with, FlowDemand, Scratch};
use prophet::net::{Network, NodeId, NodeSpec, TcpModel, Topology};
use prophet::sim::SimTime;
use std::hint::black_box;

/// Worker counts on the trajectory. `--test` mode keeps only the first.
const SCALES: &[usize] = &[64, 256, 512, 1024];

/// In-flight flows per PS shard at the benchmarked instant.
const GROUP: usize = 8;

fn shards(workers: usize) -> usize {
    (workers / GROUP).max(1)
}

/// Cluster-shaped topology: shard nodes `0..S`, worker nodes `S..S+W`.
fn topo(workers: usize) -> Topology {
    Topology::uniform(shards(workers) + workers, NodeSpec::from_gbps(10.0))
}

/// One uncapped push per worker into its shard.
fn demands(workers: usize) -> Vec<FlowDemand> {
    let s = shards(workers);
    (0..workers)
        .map(|w| FlowDemand {
            src: NodeId(s + w),
            dst: NodeId(w % s),
            cap_bps: f64::INFINITY,
        })
        .collect()
}

/// A steady-state network carrying one never-ending flow per worker.
fn loaded_net(workers: usize, full_resolve: bool) -> Network {
    let mut net = Network::new(topo(workers), TcpModel::IDEAL);
    net.set_full_resolve(full_resolve);
    let s = shards(workers);
    for w in 0..workers {
        net.start_flow(
            SimTime::ZERO,
            NodeId(s + w),
            NodeId(w % s),
            1 << 40, // effectively infinite: churn never completes a flow
            w as u64,
        );
    }
    net
}

fn bench_maxmin_scale(c: &mut Criterion) {
    let quick = c.is_quick();
    let scales = if quick { &SCALES[..1] } else { SCALES };

    // Tier 1: the from-scratch solver, fresh buffers vs reused Scratch.
    let mut g = c.benchmark_group("allocate");
    g.sample_size(60);
    for &w in scales {
        let t = topo(w);
        let d = demands(w);
        g.bench_function(&format!("full_{w}"), |b| {
            b.iter(|| black_box(allocate(&t, &d)))
        });
        let mut scratch = Scratch::default();
        g.bench_function(&format!("scratch_{w}"), |b| {
            b.iter(|| black_box(allocate_with(&t, &d, &mut scratch)))
        });
    }
    g.finish();

    // Tier 2: one flow departs and re-arrives (the hot operation of the
    // cluster's gradient churn), incremental vs full-resolve engine. The
    // churn only marks the component dirty; reading the next event fills
    // it, as the cluster does before time passes.
    let mut g = c.benchmark_group("realloc");
    g.sample_size(60);
    for &w in scales {
        let s = shards(w);
        for (mode, full) in [("incremental", false), ("full", true)] {
            let mut net = loaded_net(w, full);
            g.bench_function(&format!("{mode}_{w}"), |b| {
                b.iter(|| {
                    net.kill_flow(SimTime::ZERO, 0).expect("flow 0 in flight");
                    net.start_flow(SimTime::ZERO, NodeId(s), NodeId(0), 1 << 40, 0);
                    black_box(net.next_event_time())
                })
            });
        }
    }
    g.finish();

    if quick {
        return;
    }
    let median = |group: &str, id: &str| {
        c.stats()
            .iter()
            .find(|s| s.group == group && s.id == id)
            .map(|s| s.median_ns)
            .unwrap_or(f64::NAN)
    };
    let speedup = median("realloc", "full_512") / median("realloc", "incremental_512");
    let json = stats_to_json(c.stats(), &[("realloc_speedup_512", speedup)]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_maxmin.json");
    std::fs::write(path, json).expect("write BENCH_maxmin.json");
    println!("512-worker re-allocation speedup: {speedup:.1}x -> {path}");
}

criterion_group!(maxmin_scale, bench_maxmin_scale);
criterion_main!(maxmin_scale);
