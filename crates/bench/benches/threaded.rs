//! Threaded PS runtime throughput: steady-state iterations/sec across
//! shard count × worker count × model, written to `BENCH_threaded.json`.
//!
//! Methodology: every cell runs the full runtime twice, at `LO` and `HI`
//! iteration counts, and the steady-state per-iteration time is the
//! difference quotient `(wall(HI) - wall(LO)) / (HI - LO)` — thread
//! spawn, dataset/model construction, and first-iteration cache warm-up
//! cancel out. The median over `sample_size` run pairs is reported, so
//! one scheduler hiccup cannot swing a cell.
//!
//! The headline acceptance scalar is `speedup_8w_4s_vgg`: measured
//! steady-state iterations/sec at 8 workers / 4 shards on the VGG-class
//! model divided by [`SEED_BASELINE_8W_VGG_ITERS_PER_SEC`] — the
//! single-shard, single-PS-thread runtime as it stood at the seed of
//! this PR, measured on the same box with the same methodology and
//! pinned below so the refactor is judged against a fixed bar, not a
//! moving target.
//!
//! `shard_scaling_8w_4s_over_1s` is measured *paired*, not from the cell
//! medians: the 1-shard and 4-shard cells run back-to-back inside each
//! round (starting order alternating between rounds) and the reported
//! value is the median of the per-round ratios. The cell sweep runs for
//! minutes, and the box's throughput drifts over a sweep by more than
//! the 1s→4s effect size — a ratio of two medians measured minutes apart
//! mostly measures that drift. Pairing cancels it; alternating the order
//! cancels any first-runner advantage within a round.
//!
//! Run `cargo bench --bench threaded` for the real sweep; `-- --test`
//! runs a single-sample smoke on the small model with no artifact.

use criterion::{criterion_group, criterion_main, stats_to_json, Criterion};
use prophet::core::SchedulerKind;
use prophet::ps::threaded::{run_threaded_training, PsOptimizer, ThreadedConfig, ThreadedResult};
use std::time::Instant;

/// Steady-state iterations/sec of the single-shard seed runtime at
/// 8 workers on the VGG-class model (FIFO, unlimited link, invariants
/// off), measured at commit 299db6d ("Incremental max-min re-allocation
/// with an indexed event queue") with the difference-quotient methodology
/// above, median of 3 pairs on the 1-core CI box. The sharded zero-copy
/// runtime is accepted only if it beats 3x this number.
pub const SEED_BASELINE_8W_VGG_ITERS_PER_SEC: f64 = 0.798;

/// Iteration counts for the difference quotient.
const LO: u64 = 2;
const HI: u64 = 8;

/// A VGG-proportioned dense stack: a few multi-megabyte tensors plus
/// their small biases (~6.3 M parameters, 25 MB). With one sample per
/// worker the gradient exchange dominates compute — the
/// communication-bound regime of the paper's VGG experiments, scaled to
/// a 1-core CI box.
fn vgg_cfg(workers: usize, shards: usize) -> ThreadedConfig {
    ThreadedConfig {
        workers,
        ps_shards: shards,
        widths: vec![512, 2048, 2048, 512, 10],
        samples: 64,
        noise: 0.8,
        seed: 77,
        global_batch: workers, // one sample per worker: comm-dominated
        iterations: HI,
        lr: 0.05,
        optimizer: PsOptimizer::Sgd { momentum: 0.9 },
        scheduler: SchedulerKind::Fifo,
        link_bps: None,
        check_invariants: false,
        checkpoint_period: 4,
        checkpoint_retention: 2,
        fault_plan: Default::default(),
        retry: prophet::net::RetryPolicy::paper_default(),
    }
}

/// The `ThreadedConfig::small` problem at bench settings (invariants off).
fn small_cfg(workers: usize) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(workers, SchedulerKind::Fifo);
    cfg.check_invariants = false;
    cfg.global_batch = workers * 8;
    cfg.iterations = HI;
    cfg
}

/// Per-phase attribution keys, in the order [`phase_vec`] fills them:
/// shard-side spans summed across shards, then worker-side spans summed
/// across workers. Every perf claim in DESIGN.md §15 cites these.
const PHASE_KEYS: [&str; 11] = [
    "shard_verify",
    "shard_accumulate",
    "shard_optimizer",
    "shard_encode",
    "shard_ack",
    "shard_sweep",
    "shard_idle",
    "worker_compute",
    "worker_encode",
    "worker_apply",
    "worker_wait",
];

fn phase_vec(r: &ThreadedResult) -> [u64; 11] {
    let mut v = [0u64; 11];
    for p in &r.shard_phases {
        v[0] += p.verify_ns;
        v[1] += p.accumulate_ns;
        v[2] += p.optimizer_ns;
        v[3] += p.encode_ns;
        v[4] += p.ack_ns;
        v[5] += p.sweep_ns;
        v[6] += p.idle_ns;
    }
    v[7] = r.worker_phases.compute_ns;
    v[8] = r.worker_phases.encode_ns;
    v[9] = r.worker_phases.apply_ns;
    v[10] = r.worker_phases.wait_ns;
    v
}

/// One steady-state sample: wall-clock difference quotient over LO/HI
/// runs, plus the per-phase attribution (ns per iteration) computed with
/// the same quotient — warm-up effects cancel out of the spans exactly as
/// they cancel out of the wall clock.
fn steady_iters_per_sec(cfg: &ThreadedConfig) -> (f64, [f64; 11]) {
    let mut lo = cfg.clone();
    lo.iterations = LO;
    let mut hi = cfg.clone();
    hi.iterations = HI;
    let t0 = Instant::now();
    let r_lo = run_threaded_training(&lo);
    let t_lo = t0.elapsed();
    let t1 = Instant::now();
    let r_hi = run_threaded_training(&hi);
    let t_hi = t1.elapsed();
    let dt = t_hi.saturating_sub(t_lo).as_secs_f64().max(1e-9);
    let (p_lo, p_hi) = (phase_vec(&r_lo), phase_vec(&r_hi));
    let mut phases = [0f64; 11];
    for i in 0..11 {
        phases[i] = p_hi[i].saturating_sub(p_lo[i]) as f64 / (HI - LO) as f64;
    }
    ((HI - LO) as f64 / dt, phases)
}

/// Median of per-round paired 4-shard/1-shard throughput ratios (see the
/// module doc for why the ratio must be paired rather than taken from
/// the cell medians). Odd `rounds` keeps the median a real sample.
fn paired_shard_scaling(rounds: usize) -> f64 {
    let cfg_1s = vgg_cfg(8, 1);
    let cfg_4s = vgg_cfg(8, 4);
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate which cell runs first so any within-round warm-up or
        // cool-down advantage hits both cells equally across rounds.
        let (r_1s, r_4s) = if round % 2 == 0 {
            let a = steady_iters_per_sec(&cfg_1s).0;
            let b = steady_iters_per_sec(&cfg_4s).0;
            (a, b)
        } else {
            let b = steady_iters_per_sec(&cfg_4s).0;
            let a = steady_iters_per_sec(&cfg_1s).0;
            (a, b)
        };
        println!(
            "  scaling round {round}: 1s {r_1s:.3}  4s {r_4s:.3}  ratio {:.4}",
            r_4s / r_1s
        );
        ratios.push(r_4s / r_1s);
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn bench_threaded(c: &mut Criterion) {
    let quick = c.is_quick();

    // Each (group, id) cell times one LO+HI run pair; the derived
    // iterations/sec below recomputes the difference quotient from the
    // same runs it just timed.
    let mut rates: Vec<(String, f64)> = Vec::new();
    let mut phase_rows: Vec<(String, [f64; 11])> = Vec::new();
    let mut g = c.benchmark_group("threaded");
    g.sample_size(if quick { 1 } else { 3 });
    let cells: Vec<(String, ThreadedConfig)> = if quick {
        vec![("small_2w".into(), small_cfg(2))]
    } else {
        vec![
            ("small_4w".into(), small_cfg(4)),
            ("small_8w".into(), small_cfg(8)),
            ("vgg_4w_1s".into(), vgg_cfg(4, 1)),
            ("vgg_8w_1s".into(), vgg_cfg(8, 1)),
            ("vgg_8w_2s".into(), vgg_cfg(8, 2)),
            ("vgg_8w_4s".into(), vgg_cfg(8, 4)),
        ]
    };
    for (id, cfg) in &cells {
        let mut samples: Vec<(f64, [f64; 11])> = Vec::new();
        g.bench_function(id, |b| {
            b.iter(|| {
                let (r, phases) = steady_iters_per_sec(cfg);
                samples.push((r, phases));
                r
            })
        });
        samples.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let (median, phases) = samples[samples.len() / 2];
        println!(
            "  {id}: steady-state {median:.3} iters/sec (median of {})",
            samples.len()
        );
        for (key, ns) in PHASE_KEYS.iter().zip(phases) {
            if ns >= 1_000.0 {
                println!("      {key:<18} {:>9.1} us/iter", ns / 1_000.0);
            }
        }
        rates.push((id.clone(), median));
        phase_rows.push((id.clone(), phases));
    }
    g.finish();

    if quick {
        return;
    }
    println!("  paired shard-scaling rounds (8 workers, 4s vs 1s):");
    let scaling = paired_shard_scaling(5);
    println!("  shard_scaling_8w_4s_over_1s: {scaling:.4} (median of 5 paired rounds)");
    let rate = |id: &str| {
        rates
            .iter()
            .find(|(i, _)| i == id)
            .map(|&(_, r)| r)
            .unwrap_or(f64::NAN)
    };
    let derived: Vec<(&str, f64)> = rates
        .iter()
        .map(|(id, r)| (id.as_str(), *r))
        .map(|(id, r)| {
            (
                Box::leak(format!("iters_per_sec_{id}").into_boxed_str()) as &str,
                r,
            )
        })
        .chain([
            ("seed_baseline_8w_vgg", SEED_BASELINE_8W_VGG_ITERS_PER_SEC),
            (
                "speedup_8w_4s_vgg",
                rate("vgg_8w_4s") / SEED_BASELINE_8W_VGG_ITERS_PER_SEC,
            ),
            ("shard_scaling_8w_4s_over_1s", scaling),
        ])
        // The per-phase attribution for the VGG cells: aggregate ns per
        // steady-state iteration per span, so every optimisation claim is
        // backed by the artifact that motivated it.
        .chain(
            phase_rows
                .iter()
                .filter(|(id, _)| id.starts_with("vgg"))
                .flat_map(|(id, phases)| {
                    PHASE_KEYS.iter().zip(phases).map(move |(key, ns)| {
                        (
                            Box::leak(format!("phase_{id}_{key}_ns_per_iter").into_boxed_str())
                                as &str,
                            *ns,
                        )
                    })
                }),
        )
        .collect();
    let json = stats_to_json(c.stats(), &derived);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_threaded.json");
    std::fs::write(path, json).expect("write BENCH_threaded.json");
    println!(
        "8-worker 4-shard VGG steady state: {:.3} iters/sec (seed baseline {:.3}, speedup {:.2}x) -> {path}",
        rate("vgg_8w_4s"),
        SEED_BASELINE_8W_VGG_ITERS_PER_SEC,
        rate("vgg_8w_4s") / SEED_BASELINE_8W_VGG_ITERS_PER_SEC
    );
}

criterion_group!(threaded, bench_threaded);
criterion_main!(threaded);
