//! End-to-end simulator scaling: wall-clock cost of whole cluster
//! iterations as the worker count grows, with BytePS-style co-located
//! shards (`ps_shards = workers`) so the PS NIC never caps the cluster
//! and the flow graph stays many-component — the shape the incremental
//! allocator and the indexed event queue are built for.
//!
//! Writes `BENCH_sim_scale.json` at the repo root (skipped under
//! `-- --test`, which also trims the scale grid to its first point).

use criterion::{criterion_group, criterion_main, stats_to_json, Criterion};
use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::net::NetStats;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use std::hint::black_box;

const SCALES: &[usize] = &[64, 256, 512, 1024];

fn cell(workers: usize, kind: SchedulerKind) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cell(
        workers,
        10.0,
        TrainingJob::paper_setup("resnet18", 16),
        kind,
    );
    c.ps_shards = workers;
    c.warmup_iters = 1;
    c
}

fn bench_sim_scale(c: &mut Criterion) {
    let quick = c.is_quick();
    let scales = if quick { &SCALES[..1] } else { SCALES };

    // The engine's work counters per cell: exact per seed, so one run's
    // worth says what every sample did.
    let mut counts: Vec<(String, NetStats)> = Vec::new();
    let mut g = c.benchmark_group("iteration");
    for &w in scales {
        // The smallest cells are cheap and feed a ratio of two ~60 ms
        // medians: give them more samples.
        g.sample_size(if w == SCALES[0] { 9 } else { 3 });
        for kind in [
            SchedulerKind::Fifo,
            SchedulerKind::ProphetOracle(prophet::core::ProphetConfig::paper_default(1.25e9)),
        ] {
            let id = format!("{}_{w}", kind.label());
            let twin = w == SCALES[0] && matches!(kind, SchedulerKind::Fifo);
            let cfg = cell(w, kind);
            let mut stats = NetStats::default();
            g.bench_function(&id, |b| {
                b.iter(|| {
                    let r = run_cluster(&cfg, 2);
                    stats = r.net_stats;
                    black_box(r.duration)
                })
            });
            counts.push((id, stats));
            if twin {
                // The same cell with the invariant checker on, right after
                // its unchecked twin so host speed drift cancels: what
                // watching costs.
                let mut cfg = cfg.clone();
                cfg.check_invariants = true;
                g.bench_function(&format!("mxnet-fifo_{w}_checked"), |b| {
                    b.iter(|| black_box(run_cluster(&cfg, 2).duration))
                });
            }
        }
    }
    g.finish();

    if quick {
        return;
    }
    // Host-time ratios (which survive the host's speed modes; wall times do
    // not) and the counters per delivered message.
    let median = |id: &str| {
        c.stats()
            .iter()
            .find(|s| s.group == "iteration" && s.id == id)
            .map_or(f64::NAN, |s| s.median_ns)
    };
    let mut derived: Vec<(String, f64)> = Vec::new();
    for &w in scales {
        derived.push((
            format!("oracle_over_fifo_host_ratio_{w}"),
            median(&format!("prophet-oracle_{w}")) / median(&format!("mxnet-fifo_{w}")),
        ));
    }
    derived.push((
        format!("checked_over_unchecked_host_ratio_{}", SCALES[0]),
        median(&format!("mxnet-fifo_{}_checked", SCALES[0]))
            / median(&format!("mxnet-fifo_{}", SCALES[0])),
    ));
    for (id, s) in &counts {
        let msgs = s.completions as f64;
        for (name, count) in [
            ("refills", s.refills),
            ("flows_refilled", s.flows_refilled),
            ("fill_rounds", s.fill_rounds),
            ("rate_changes", s.rate_changes),
            ("index_pushes", s.index_pushes),
            ("index_stale_pops", s.index_stale_pops),
            ("split_checks", s.split_checks),
        ] {
            derived.push((format!("{id}_{name}_per_msg"), count as f64 / msgs));
        }
    }
    let derived: Vec<(&str, f64)> = derived.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let json = stats_to_json(c.stats(), &derived);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_scale.json");
    std::fs::write(path, json).expect("write BENCH_sim_scale.json");
    println!("wrote {path}");
}

criterion_group!(sim_scale, bench_sim_scale);
criterion_main!(sim_scale);
