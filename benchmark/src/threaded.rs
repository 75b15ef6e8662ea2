//! The threaded-runtime workloads: `threaded_mem`, `threaded_link` and
//! `threaded_corrupt`.
//!
//! One pass is a *pair* of full `run_threaded_training` runs, at `lo` and
//! `hi` iterations. Steady-state throughput is the difference quotient
//! `(hi − lo) ÷ (wall(hi) − wall(lo))`: thread spawn, dataset and model
//! construction and first-iteration warm-up cancel. `hi − lo` is 40 where
//! kernels bound the run and 25 where pacing does, because a short quotient
//! does not survive this host — with the `LO=2/HI=8` of
//! `benches/threaded.rs` about 0.8 s of set-up swamps six iterations (see
//! README.md for the measured spread). The per-phase spans the runtime
//! reports are put through the same quotient.

use crate::metrics::{median, MetricSet};
use crate::spans::Spans;
use crate::{Drives, Workload};
use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::ps::check_threaded_bit_identity;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, ThreadedResult};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

const WORKERS: usize = 2;
const SHARDS: usize = 2;

/// The runtime's phase spans, shard side summed over shards, in the order
/// of the `ps.threaded.{shard,worker}.*_ms_per_iter` metrics.
const PHASES: [&str; 11] = [
    "shard.verify",
    "shard.accumulate",
    "shard.optimizer",
    "shard.encode",
    "shard.ack",
    "shard.sweep",
    "shard.idle",
    "worker.compute",
    "worker.encode",
    "worker.apply",
    "worker.wait",
];

fn phase_ns(r: &ThreadedResult) -> [u64; 11] {
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

/// What one lo/hi pair measured.
struct Pair {
    iters_per_s: f64,
    /// Milliseconds per steady-state iteration per phase.
    phase_ms: [f64; 11],
    bytes_pushed_per_iter: f64,
}

/// A threaded workload: one configuration, run in lo/hi pairs.
pub struct Threaded {
    cfg: ThreadedConfig,
    lo: u64,
    hi: u64,
    pairs: Vec<Pair>,
    /// First result at each leg length; later legs must reproduce its
    /// parameters bit for bit.
    first_lo: Option<ThreadedResult>,
    first_hi: Option<ThreadedResult>,
    attempted: u64,
    failed: u64,
}

impl Threaded {
    /// `threaded_mem`: a 25 MB MLP, one sample per worker, no link limit,
    /// no faults — bound by memory traversal (compute, encode, the fused
    /// CRC fold and apply, the optimiser).
    pub fn mem_inputs(seed: u64) -> Self {
        Threaded::new(big_model(seed), 5, 35)
    }

    /// `threaded_link`: a 6.3 MB MLP behind a 125 MB/s per-worker link with
    /// online Prophet — bound by pacing, so faster kernels must not move it.
    pub fn link_inputs(seed: u64) -> Self {
        let mut prophet = ProphetConfig::paper_default(125e6);
        prophet.profile_iters = 5;
        let mut cfg = base(seed, SchedulerKind::Prophet(prophet));
        cfg.widths = vec![256, 1024, 1024, 256, 10];
        cfg.link_bps = Some(125e6);
        Threaded::new(cfg, 10, 35)
    }

    /// `threaded_corrupt`: `threaded_mem` with 2 % of frames corrupted for
    /// the whole run, which arms the eager verify + NACK + retransmit + ack
    /// receive path in place of the fused one.
    pub fn corrupt_inputs(seed: u64) -> Self {
        let mut cfg = big_model(seed);
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::PayloadCorrupt {
            rate: 0.02,
            at: SimTime::ZERO,
            dur: Duration::from_secs(3600),
        }]);
        Threaded::new(cfg, 5, 35)
    }

    fn new(cfg: ThreadedConfig, lo: u64, hi: u64) -> Self {
        Threaded {
            cfg,
            lo,
            hi,
            pairs: Vec::new(),
            first_lo: None,
            first_hi: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// The configuration (for the seed-plumbing test).
    #[cfg(test)]
    pub fn config(&self) -> &ThreadedConfig {
        &self.cfg
    }

    /// The untimed warm-up: one short run, so the timed legs find the
    /// allocator and page cache as every later leg will.
    pub fn warm_up(mut self, spans: &mut Spans) -> Self {
        let cfg = self.cfg.clone();
        self.leg(spans, &cfg, 2);
        self
    }

    fn fail(&mut self, what: std::fmt::Arguments) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// One full training run of `iterations`, with its per-run checks:
    /// every loss finite, and the loss falling over a run long enough to
    /// show it.
    fn leg(
        &mut self,
        spans: &mut Spans,
        cfg: &ThreadedConfig,
        iterations: u64,
    ) -> (ThreadedResult, f64) {
        let mut cfg = cfg.clone();
        cfg.iterations = iterations;
        let (r, secs) = spans.timed("ps.threaded.run", |_| run_threaded_training(&cfg));
        self.attempted += 1;
        let n = r.losses.len();
        let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len() as f32;
        if n as u64 != iterations || r.losses.iter().any(|l| !l.is_finite()) {
            self.fail(format_args!("{n} of {iterations} losses, not all finite"));
        } else if n >= 20 && mean(&r.losses[n - 10..]) >= mean(&r.losses[..10]) {
            self.fail(format_args!(
                "loss did not fall over {n} iterations: {} -> {}",
                mean(&r.losses[..10]),
                mean(&r.losses[n - 10..])
            ));
        }
        (r, secs)
    }
}

/// Keep `r` as the reference for its leg length, or hold it to the one
/// kept: true when the parameters agree bit for bit.
fn same_as_first(first: &mut Option<ThreadedResult>, r: ThreadedResult) -> bool {
    match first {
        Some(first) => first.final_params == r.final_params,
        None => {
            *first = Some(r);
            true
        }
    }
}

/// The shared topology and problem: 2 workers × 2 shards, one sample per
/// worker, invariant checking off.
fn base(seed: u64, scheduler: SchedulerKind) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(WORKERS, scheduler);
    cfg.ps_shards = SHARDS;
    cfg.samples = 64;
    cfg.seed = seed;
    cfg.global_batch = WORKERS;
    cfg.lr = 0.002;
    cfg.check_invariants = false;
    cfg
}

fn big_model(seed: u64) -> ThreadedConfig {
    let mut cfg = base(seed, SchedulerKind::Fifo);
    cfg.widths = vec![512, 2048, 2048, 512, 10];
    cfg
}

impl Workload for Threaded {
    fn pass(&mut self, spans: &mut Spans) -> f64 {
        let cfg = self.cfg.clone();
        let (lo, hi) = (self.lo, self.hi);
        let (r_lo, t_lo) = self.leg(spans, &cfg, lo);
        let (r_hi, t_hi) = self.leg(spans, &cfg, hi);
        eprintln!("  legs: lo {t_lo:.4} s, hi {t_hi:.4} s");
        let span = (hi - lo) as f64;
        let dt = t_hi - t_lo;
        let iters_per_s = if dt > 0.0 {
            span / dt
        } else {
            self.fail(format_args!(
                "hi leg ({t_hi} s) not slower than lo leg ({t_lo} s)"
            ));
            span / t_hi
        };
        let (p_lo, p_hi) = (phase_ns(&r_lo), phase_ns(&r_hi));
        let mut phase_ms = [0.0; 11];
        for i in 0..11 {
            phase_ms[i] = p_hi[i].saturating_sub(p_lo[i]) as f64 / span / 1e6;
        }
        self.pairs.push(Pair {
            iters_per_s,
            phase_ms,
            bytes_pushed_per_iter: r_hi.bytes_pushed.saturating_sub(r_lo.bytes_pushed) as f64
                / span,
        });
        let same = [
            same_as_first(&mut self.first_lo, r_lo),
            same_as_first(&mut self.first_hi, r_hi),
        ];
        if same.contains(&false) {
            self.fail(format_args!(
                "final_params differ between repeats of one leg"
            ));
        }
        iters_per_s
    }

    /// Cross-run checks: the shard count must not change what is computed,
    /// and a corrupted run must compute exactly what its clean twin does.
    fn finish(&mut self, spans: &mut Spans) {
        let mut one_shard = self.cfg.clone();
        one_shard.ps_shards = 1;
        let (r, _) = self.leg(spans, &one_shard, self.lo);
        let lo = self.first_lo.as_ref().expect("a pass ran");
        if r.final_params != lo.final_params {
            self.fail(format_args!("1-shard run differs from the 2-shard run"));
        }
        if !self.cfg.fault_plan.is_empty() {
            let mut clean = self.cfg.clone();
            clean.fault_plan = FaultPlan::empty();
            let (clean, _) = self.leg(spans, &clean, self.hi);
            let hi = self.first_hi.as_ref().expect("a pass ran");
            let violations = check_threaded_bit_identity(&clean, hi);
            let detected = hi.corrupt_frames_detected;
            if !violations.is_empty() {
                self.fail(format_args!("corrupted run vs clean twin: {violations:?}"));
            }
            if detected == 0 {
                self.fail(format_args!("corruption armed but no frame was rejected"));
            }
        }
    }

    fn operations(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn layer_metrics(&self, _drives: &Drives, out: &mut MetricSet) {
        let med = |f: &dyn Fn(&Pair) -> f64| median(&self.pairs.iter().map(f).collect::<Vec<_>>());
        let phase_ms: Vec<f64> = (0..11).map(|i| med(&|p| p.phase_ms[i])).collect();
        for (name, ms) in PHASES.iter().zip(&phase_ms) {
            out.set(&format!("ps.threaded.{name}_ms_per_iter"), *ms);
        }
        let shard_total: f64 = phase_ms[..7].iter().sum();
        let worker_total: f64 = phase_ms[7..].iter().sum();
        out.set("ps.threaded.shard.idle_share", phase_ms[6] / shard_total);
        out.set("ps.threaded.worker.wait_share", phase_ms[10] / worker_total);
        let bytes_per_iter = med(&|p| p.bytes_pushed_per_iter);
        out.set("ps.threaded.bytes_pushed_per_iter", bytes_per_iter);
        if let Some(bps) = self.cfg.link_bps {
            // Each worker's link paces its pushes and the same bytes pulled
            // back; clean runs push exactly one model per worker.
            let per_worker = 2.0 * bytes_per_iter / WORKERS as f64;
            out.set(
                "ps.threaded.link_utilisation",
                per_worker * med(&|p| p.iters_per_s) / bps,
            );
        }
        let hi = self.first_hi.as_ref().expect("a pass ran");
        out.set("ps.threaded.arena_allocs", hi.arena_allocs as f64);
        out.set(
            "ps.threaded.corrupt_frames",
            hi.corrupt_frames_detected as f64,
        );
        out.set(
            "ps.threaded.nack_retransmit_bytes",
            hi.nack_retransmit_bytes as f64,
        );
    }
}
