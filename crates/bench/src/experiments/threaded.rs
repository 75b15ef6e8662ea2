//! Extension: threaded-runtime throughput: steady-state iterations/sec of
//! the real (non-simulated) sharded PS across worker and shard counts,
//! with the buffer-pool counters that certify the zero-copy data path.

use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, ThreadedResult};
use std::time::Instant;

/// Iteration counts of the difference quotient `(wall(HI) - wall(LO)) /
/// (HI - LO)`, in which spawn, set-up and first-iteration warm-up cancel.
const LO: u64 = 2;
const HI: u64 = 8;

/// Per-phase attribution keys, in the order [`measure`] returns them:
/// shard-side spans summed across shards, then worker-side spans summed
/// across workers. Every perf claim in DESIGN.md §15 cites these.
pub const PHASE_KEYS: [&str; 11] = [
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

/// The communication-bound shape of the threaded measurements: an MLP of
/// `widths`, one sample per worker, FIFO, unlimited link, invariants off.
pub fn comm_bound_cfg(workers: usize, shards: usize, widths: &[usize]) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(workers, SchedulerKind::Fifo);
    cfg.ps_shards = shards;
    cfg.widths = widths.to_vec();
    cfg.samples = 64;
    cfg.global_batch = workers;
    cfg.lr = 0.05;
    cfg.check_invariants = false;
    cfg
}

/// One steady-state sample of `cfg` (whose `iterations` is ignored):
/// iterations/sec by the LO/HI difference quotient, the per-phase ns per
/// iteration by the same quotient (warm-up cancels out of the spans as it
/// does out of the wall clock), and the HI run's result.
pub fn measure(cfg: &ThreadedConfig) -> (f64, [f64; 11], ThreadedResult) {
    let timed = |iterations| {
        let cfg = ThreadedConfig {
            iterations,
            ..cfg.clone()
        };
        let t0 = Instant::now();
        let r = run_threaded_training(&cfg);
        (t0.elapsed(), r)
    };
    let (t_lo, r_lo) = timed(LO);
    let (t_hi, r_hi) = timed(HI);
    let dt = t_hi.saturating_sub(t_lo).as_secs_f64().max(1e-9);
    let (p_lo, p_hi) = (phase_vec(&r_lo), phase_vec(&r_hi));
    let phases = std::array::from_fn(|i| p_hi[i].saturating_sub(p_lo[i]) as f64 / (HI - LO) as f64);
    ((HI - LO) as f64 / dt, phases, r_hi)
}

/// Registry entry: `repro ext_threaded`.
pub fn ext_threaded() -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_threaded",
        "Threaded PS steady state: MLP(128-512-512-128-10), FIFO, unlimited link",
        "The simulator argues scheduling; this measures the real runtime. \
         Steady-state iterations/sec by the LO/HI difference quotient \
         (spawn and warm-up cancel), across shard counts at fixed worker \
         counts. `allocs` counts wire buffers served by fresh heap \
         allocations over a whole run — flat in the iteration count because \
         pushes slice pooled per-layer gradient buffers and pulls slice \
         per-update encode caches; `recycles` counts pool-served checkouts \
         and scales with iterations.",
        &[
            "workers",
            "shards",
            "iters_per_sec",
            "vs_1_shard",
            "allocs",
            "recycles",
        ],
    );
    for workers in [4usize, 8] {
        let mut base_rate = f64::NAN;
        for shards in [1usize, 2, 4] {
            // A quarter-scale cousin (~0.4 M parameters) of the bench's
            // VGG-proportioned stack, so `repro all` stays interactive.
            let cfg = comm_bound_cfg(workers, shards, &[128, 512, 512, 128, 10]);
            // Median of 3: one scheduler hiccup cannot swing a cell.
            let mut samples: Vec<_> = (0..3).map(|_| measure(&cfg)).collect();
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (rate, _, ref hi) = samples[1];
            if shards == 1 {
                base_rate = rate;
            }
            out.row(vec![
                workers.to_string(),
                shards.to_string(),
                format!("{rate:.1}"),
                format!("{:.2}x", rate / base_rate),
                hi.arena_allocs.to_string(),
                hi.arena_recycles.to_string(),
            ]);
        }
    }
    out.notes = "Finding: on a single-core box extra shards buy little wall \
                 clock (threads time-slice one CPU) — the speedup over the \
                 seed runtime comes from the zero-copy data path: pooled \
                 buffers instead of per-message Vec copies, in-place \
                 aggregation straight from wire bytes, one encode per \
                 parameter update shared by every pull, and batched acks. \
                 `allocs` stays at workers x layers + tensors regardless \
                 of iteration count; the full-size headline vs the pinned \
                 seed baseline is produced by `cargo bench --bench \
                 threaded` into BENCH_threaded.json."
        .into();
    out
}
