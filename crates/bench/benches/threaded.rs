//! Threaded PS runtime throughput: steady-state iterations/sec across
//! shard count × worker count × model, written to `BENCH_threaded.json`.
//!
//! Methodology: every cell runs the full runtime twice, at `LO` and `HI`
//! iteration counts, and the steady-state per-iteration time is the
//! difference quotient `(wall(HI) - wall(LO)) / (HI - LO)` — thread
//! spawn, dataset/model construction, and first-iteration cache warm-up
//! cancel out (`prophet_bench::experiments::threaded::measure`, shared with
//! `repro ext_threaded`). The median over `sample_size` run pairs is
//! reported, so one scheduler hiccup cannot swing a cell.
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
//! `shard_scaling_2w_2s_over_1s` is the same pairing at 2 workers and
//! 2 shards — `benchmark/`'s `threaded_mem` topology, where four threads
//! on two cores leave room for a second shard to pay when the placement
//! balances the shards' work. Its quotient spans `benchmark/`'s 5 → 35
//! iterations: with the default 2 → 8, one round's ratio swings from 0.7
//! to 2.3.
//!
//! `apply_over_compute_vgg_4w_1s` is the 4-worker 1-shard VGG cell's
//! worker apply span over its worker compute span. Workers train on the
//! pull frames in place, so the apply span only lands reply windows: a
//! decode pass that comes back shows here as a ratio far above zero (it
//! read 0.60 while every reply was decoded into a private copy).
//!
//! `setup_over_scalar_draw_vgg_4w_1s` is the 4-worker 1-shard VGG cell's
//! set-up (`ThreadedResult::setup`: the dataset, the initial-weight draw
//! and the machines) over the time one scalar `next_gaussian` per weight
//! takes for the same model — the draw `Dense::new` made before its batch
//! kernel. The two run back to back on one core in each round, so the
//! ratio cancels the host's single-thread speed, which a set-up over the
//! cell's steady-state iteration time (two cores, many threads) does not.
//!
//! Run `cargo bench --bench threaded` for the real sweep; `-- --test`
//! runs a single-sample smoke on the small model with no artifact.

use criterion::{criterion_group, criterion_main, stats_to_json, Criterion};
use prophet::core::SchedulerKind;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig};
use prophet::sim::rng::Xoshiro256StarStar;
use prophet_bench::experiments::threaded::{
    comm_bound_cfg, measure, measure_between, HI, LO, PHASE_KEYS,
};
use std::time::Instant;

/// Steady-state iterations/sec of the single-shard seed runtime at
/// 8 workers on the VGG-class model (FIFO, unlimited link, invariants
/// off), measured at commit 299db6d ("Incremental max-min re-allocation
/// with an indexed event queue") with the difference-quotient methodology
/// above, median of 3 pairs on the 1-core CI box. The sharded zero-copy
/// runtime is accepted only if it beats 3x this number.
pub const SEED_BASELINE_8W_VGG_ITERS_PER_SEC: f64 = 0.798;

/// A VGG-proportioned dense stack: a few multi-megabyte tensors plus
/// their small biases (~6.3 M parameters, 25 MB). With one sample per
/// worker the gradient exchange dominates compute — the
/// communication-bound regime of the paper's VGG experiments, scaled to
/// a 1-core CI box.
fn vgg_cfg(workers: usize, shards: usize) -> ThreadedConfig {
    comm_bound_cfg(workers, shards, &[512, 2048, 2048, 512, 10])
}

/// The `ThreadedConfig::small` problem at bench settings (invariants off).
fn small_cfg(workers: usize) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(workers, SchedulerKind::Fifo);
    cfg.check_invariants = false;
    cfg.global_batch = workers * 8;
    cfg
}

/// Median of per-round paired `shards`-shard/1-shard throughput ratios of
/// the VGG cell at `workers` workers, each sample a difference quotient
/// over the iteration pair `span` (see the module doc for why the ratio
/// must be paired rather than taken from the cell medians). Odd `rounds`
/// keeps the median a real sample.
fn paired_shard_scaling(workers: usize, shards: usize, rounds: usize, span: (u64, u64)) -> f64 {
    let cfg_1s = vgg_cfg(workers, 1);
    let cfg_ns = vgg_cfg(workers, shards);
    let rate = |cfg| measure_between(cfg, span.0, span.1).0;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // Alternate which cell runs first so any within-round warm-up or
        // cool-down advantage hits both cells equally across rounds.
        let (r_1s, r_ns) = if round % 2 == 0 {
            let a = rate(&cfg_1s);
            (a, rate(&cfg_ns))
        } else {
            let b = rate(&cfg_ns);
            (rate(&cfg_1s), b)
        };
        println!(
            "  scaling round {round}: 1s {r_1s:.3}  {shards}s {r_ns:.3}  ratio {:.4}",
            r_ns / r_1s
        );
        ratios.push(r_ns / r_1s);
    }
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Seconds to draw `widths`' weights the scalar way: one `next_gaussian`
/// per weight into fresh buffers, as `Dense::new` did before its batch
/// kernel.
fn scalar_draw_secs(widths: &[usize]) -> f64 {
    let t0 = Instant::now();
    let mut rng = Xoshiro256StarStar::new(0xABCD);
    let layers: Vec<Vec<f32>> = widths
        .windows(2)
        .map(|w| {
            let scale = (2.0 / w[0] as f64).sqrt();
            (0..w[0] * w[1])
                .map(|_| (rng.next_gaussian() * scale) as f32)
                .collect()
        })
        .collect();
    std::hint::black_box(&layers);
    t0.elapsed().as_secs_f64()
}

/// Median of per-round ratios of a `cfg` run's set-up over
/// [`scalar_draw_secs`] of its model, the two timed back to back (order
/// alternating between rounds). Odd `rounds` keeps the median a real
/// sample.
fn paired_setup_over_scalar_draw(cfg: &ThreadedConfig, rounds: usize) -> f64 {
    let setup = || {
        let cfg = ThreadedConfig {
            iterations: LO,
            ..cfg.clone()
        };
        run_threaded_training(&cfg).setup.as_secs_f64()
    };
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (s, d) = if round % 2 == 0 {
            let s = setup();
            (s, scalar_draw_secs(&cfg.widths))
        } else {
            let d = scalar_draw_secs(&cfg.widths);
            (setup(), d)
        };
        println!(
            "  set-up round {round}: setup {s:.4} s  scalar draw {d:.4} s  ratio {:.4}",
            s / d
        );
        ratios.push(s / d);
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
                let (r, phases, _) = measure(cfg);
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
    let scaling = paired_shard_scaling(8, 4, 5, (LO, HI));
    println!("  shard_scaling_8w_4s_over_1s: {scaling:.4} (median of 5 paired rounds)");
    println!("  paired shard-scaling rounds (2 workers, 2s vs 1s):");
    let scaling_2w = paired_shard_scaling(2, 2, 9, (5, 35));
    println!("  shard_scaling_2w_2s_over_1s: {scaling_2w:.4} (median of 9 paired rounds)");
    let rate = |id: &str| {
        rates
            .iter()
            .find(|(i, _)| i == id)
            .map(|&(_, r)| r)
            .unwrap_or(f64::NAN)
    };
    let phase = |id: &str, key: &str| {
        let row = phase_rows.iter().find(|(i, _)| i == id);
        let at = PHASE_KEYS.iter().position(|k| *k == key);
        row.zip(at).map_or(f64::NAN, |((_, phases), at)| phases[at])
    };
    let apply_over_compute =
        phase("vgg_4w_1s", "worker_apply") / phase("vgg_4w_1s", "worker_compute");
    println!("  apply_over_compute_vgg_4w_1s: {apply_over_compute:.4}");
    println!("  paired set-up rounds (VGG, 4 workers, 1 shard):");
    let setup_over_draw = paired_setup_over_scalar_draw(&vgg_cfg(4, 1), 7);
    println!(
        "  setup_over_scalar_draw_vgg_4w_1s: {setup_over_draw:.4} (median of 7 paired rounds)"
    );
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
            ("shard_scaling_2w_2s_over_1s", scaling_2w),
            ("apply_over_compute_vgg_4w_1s", apply_over_compute),
            ("setup_over_scalar_draw_vgg_4w_1s", setup_over_draw),
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
