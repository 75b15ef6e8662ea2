//! ByteScheduler (Peng et al., SOSP'19), reimplemented from its published
//! description as the paper's main comparator.
//!
//! Like P3, tensors are sliced into partitions and ordered by priority; the
//! difference is **credit-based admission**: up to `credit` bytes may be in
//! flight concurrently per direction, so per-message latency overlaps with
//! payload transfer and the pipe stays fuller than P3's one-at-a-time
//! blocking sends. The credit is the preemption/utilisation trade-off knob:
//! larger credit → better utilisation, but a freshly-generated gradient 0
//! must wait for up to `credit` in-flight bytes to drain.
//!
//! ByteScheduler auto-tunes the credit with Bayesian optimisation at run
//! time. [`CreditAutoTuner`] reproduces that process (probe → fit → sample)
//! faithfully enough to exhibit the paper's Fig. 3(b) complaint: the
//! exploration phase drags the training rate up and down for hundreds of
//! iterations, and the credit trace wanders across its whole range.

use crate::task::{CommScheduler, Dir, TransferTask};
use prophet_dnn::GradientId;
use prophet_sim::{Duration, SimTime, Xoshiro256StarStar};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Part = Reverse<(GradientId, u64, u64)>; // (grad, offset, bytes)

/// Configuration of the ByteScheduler baseline.
#[derive(Debug, Clone)]
pub struct ByteSchedulerConfig {
    /// Slice size for tensor partitioning.
    pub partition_bytes: u64,
    /// Initial credit: allowed in-flight bytes per direction.
    pub credit_bytes: u64,
    /// Optional credit auto-tuning (None = fixed credit, the configuration
    /// the paper uses for its main comparisons, §5.1).
    pub autotune: Option<AutoTuneConfig>,
}

impl Default for ByteSchedulerConfig {
    fn default() -> Self {
        ByteSchedulerConfig {
            partition_bytes: 4 << 20,
            credit_bytes: 12 << 20, // Fig. 5's "3 × partition size"
            autotune: None,
        }
    }
}

/// Auto-tuner parameters.
#[derive(Debug, Clone)]
pub struct AutoTuneConfig {
    /// Smallest credit the search may try.
    pub min_credit: u64,
    /// Largest credit the search may try.
    pub max_credit: u64,
    /// Iterations between credit updates (each sample needs a measurement).
    pub interval_iters: u64,
    /// Exploration probability (ε in an ε-greedy approximation of the BO
    /// acquisition function's explore/exploit balance).
    pub explore_prob: f64,
    /// RNG seed — the tuner's trajectory is deterministic per seed.
    pub seed: u64,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig {
            min_credit: 1 << 20,
            max_credit: 32 << 20,
            interval_iters: 5,
            explore_prob: 0.35,
            seed: 7,
        }
    }
}

/// Simplified Bayesian-optimisation-style credit search: ε-greedy over the
/// credit range with Gaussian refinement around the best known point. The
/// observable behaviour the Prophet paper critiques — long noisy transients
/// while the search probes bad credits — is preserved.
pub struct CreditAutoTuner {
    cfg: AutoTuneConfig,
    rng: Xoshiro256StarStar,
    best_credit: u64,
    best_rate: f64,
    current_credit: u64,
    acc_time: Duration,
    acc_iters: u64,
}

impl CreditAutoTuner {
    /// Start a tuner at `initial` credit.
    pub fn new(cfg: AutoTuneConfig, initial: u64) -> Self {
        let rng = Xoshiro256StarStar::new(cfg.seed);
        CreditAutoTuner {
            cfg,
            rng,
            best_credit: initial,
            best_rate: 0.0,
            current_credit: initial,
            acc_time: Duration::ZERO,
            acc_iters: 0,
        }
    }

    /// Record one finished iteration; returns a new credit when the tuner
    /// decides to move.
    pub fn iteration_end(&mut self, iter_time: Duration) -> Option<u64> {
        self.acc_time += iter_time;
        self.acc_iters += 1;
        if self.acc_iters < self.cfg.interval_iters {
            return None;
        }
        // Evaluate the sample just measured.
        let rate = self.acc_iters as f64 / self.acc_time.as_secs_f64().max(1e-9);
        if rate > self.best_rate {
            self.best_rate = rate;
            self.best_credit = self.current_credit;
        }
        self.acc_time = Duration::ZERO;
        self.acc_iters = 0;
        // Choose the next probe.
        let next = if self.rng.next_f64() < self.cfg.explore_prob {
            // Explore: uniform over the range.
            let span = self.cfg.max_credit - self.cfg.min_credit;
            self.cfg.min_credit + self.rng.next_below(span + 1)
        } else {
            // Exploit: Gaussian perturbation around the best known credit.
            let sigma = (self.cfg.max_credit - self.cfg.min_credit) as f64 * 0.15;
            let prop = self.best_credit as f64 + sigma * self.rng.next_gaussian();
            (prop.round() as i64).clamp(self.cfg.min_credit as i64, self.cfg.max_credit as i64)
                as u64
        };
        self.current_credit = next;
        Some(next)
    }

    /// The best credit found so far.
    pub fn best_credit(&self) -> u64 {
        self.best_credit
    }
}

/// The ByteScheduler baseline (one per worker).
pub struct ByteSchedulerScheduler {
    sizes: Vec<u64>,
    cfg: ByteSchedulerConfig,
    credit: u64,
    push_heap: BinaryHeap<Part>,
    pull_heap: BinaryHeap<Part>,
    push_inflight: u64,
    pull_inflight: u64,
    tuner: Option<CreditAutoTuner>,
}

impl ByteSchedulerScheduler {
    /// Build from gradient sizes and a configuration.
    pub fn new(sizes: Vec<u64>, cfg: ByteSchedulerConfig) -> Self {
        assert!(cfg.partition_bytes > 0, "zero partition size");
        assert!(
            cfg.credit_bytes >= cfg.partition_bytes,
            "credit below partition size"
        );
        let tuner = cfg
            .autotune
            .clone()
            .map(|t| CreditAutoTuner::new(t, cfg.credit_bytes));
        let credit = cfg.credit_bytes;
        ByteSchedulerScheduler {
            sizes,
            cfg,
            credit,
            push_heap: BinaryHeap::new(),
            pull_heap: BinaryHeap::new(),
            push_inflight: 0,
            pull_inflight: 0,
            tuner,
        }
    }

    /// The fixed-credit default used for the paper's main comparisons.
    pub fn paper_default(sizes: Vec<u64>) -> Self {
        Self::new(sizes, ByteSchedulerConfig::default())
    }

    /// Current credit (changes over time when auto-tuning).
    pub fn credit(&self) -> u64 {
        self.credit
    }

    fn enqueue(heap: &mut BinaryHeap<Part>, grad: GradientId, size: u64, part: u64) {
        let mut off = 0;
        while off < size {
            let b = part.min(size - off);
            heap.push(Reverse((grad, off, b)));
            off += b;
        }
        if size == 0 {
            heap.push(Reverse((grad, 0, 0)));
        }
    }

    fn pop_within_credit(
        heap: &mut BinaryHeap<Part>,
        inflight: &mut u64,
        credit: u64,
        dir: Dir,
    ) -> Option<TransferTask> {
        let &Reverse((g, _off, b)) = heap.peek()?;
        // Admission: always allow one message on an idle pipe (a partition
        // may exceed a freshly-tuned-down credit), otherwise respect credit.
        if *inflight > 0 && *inflight + b > credit {
            return None;
        }
        heap.pop();
        *inflight += b;
        Some(TransferTask::slice(dir, g, b))
    }
}

impl CommScheduler for ByteSchedulerScheduler {
    fn name(&self) -> String {
        if self.cfg.autotune.is_some() {
            "bytescheduler+autotune".into()
        } else {
            "bytescheduler".into()
        }
    }

    fn gradient_ready(&mut self, _now: SimTime, grad: GradientId) {
        Self::enqueue(
            &mut self.push_heap,
            grad,
            self.sizes[grad],
            self.cfg.partition_bytes,
        );
    }

    fn param_ready(&mut self, _now: SimTime, grad: GradientId) {
        Self::enqueue(
            &mut self.pull_heap,
            grad,
            self.sizes[grad],
            self.cfg.partition_bytes,
        );
    }

    fn next_task(&mut self, _now: SimTime) -> Option<TransferTask> {
        if let Some(t) = Self::pop_within_credit(
            &mut self.push_heap,
            &mut self.push_inflight,
            self.credit,
            Dir::Push,
        ) {
            return Some(t);
        }
        Self::pop_within_credit(
            &mut self.pull_heap,
            &mut self.pull_inflight,
            self.credit,
            Dir::Pull,
        )
    }

    fn task_done(&mut self, _now: SimTime, task: &TransferTask) {
        match task.dir {
            Dir::Push => self.push_inflight = self.push_inflight.saturating_sub(task.bytes),
            Dir::Pull => self.pull_inflight = self.pull_inflight.saturating_sub(task.bytes),
        }
    }

    fn iteration_end(&mut self, _now: SimTime, _iter: u64, iter_time: Duration) {
        if let Some(tuner) = &mut self.tuner {
            if let Some(next) = tuner.iteration_end(iter_time) {
                self.credit = next;
            }
        }
    }

    fn credit(&self) -> Option<u64> {
        Some(self.credit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn fixed(sizes: Vec<u64>, part: u64, credit: u64) -> ByteSchedulerScheduler {
        ByteSchedulerScheduler::new(
            sizes,
            ByteSchedulerConfig {
                partition_bytes: part,
                credit_bytes: credit,
                autotune: None,
            },
        )
    }

    #[test]
    fn credit_admits_multiple_partitions() {
        let mut s = fixed(vec![10_000_000], 1_000_000, 3_000_000);
        s.gradient_ready(t0(), 0);
        let mut launched = Vec::new();
        while let Some(t) = s.next_task(t0()) {
            launched.push(t);
        }
        assert_eq!(launched.len(), 3, "credit should admit exactly 3 x 1 MB");
        // Finishing one admits one more.
        s.task_done(t0(), &launched[0]);
        assert!(s.next_task(t0()).is_some());
    }

    #[test]
    fn priority_respected_across_tensors() {
        let mut s = fixed(vec![2_000_000, 2_000_000], 1_000_000, 2_000_000);
        s.gradient_ready(t0(), 1);
        let a = s.next_task(t0()).unwrap();
        assert_eq!(a.top_priority(), 1);
        s.gradient_ready(t0(), 0);
        // Next admitted partition must be gradient 0's.
        let b = s.next_task(t0()).unwrap();
        assert_eq!(b.top_priority(), 0);
    }

    #[test]
    fn idle_pipe_always_admits_one() {
        // Partition 4 MB but credit tuned down to 4 MB; a single partition
        // equal to credit must still flow.
        let mut s = fixed(vec![4_000_000], 4_000_000, 4_000_000);
        s.gradient_ready(t0(), 0);
        assert!(s.next_task(t0()).is_some());
    }

    #[test]
    fn pull_direction_has_its_own_credit() {
        let mut s = fixed(vec![2_000_000, 2_000_000], 1_000_000, 2_000_000);
        s.gradient_ready(t0(), 0);
        s.param_ready(t0(), 1);
        let tasks: Vec<_> = std::iter::from_fn(|| s.next_task(t0())).collect();
        let pushes = tasks.iter().filter(|t| t.dir == Dir::Push).count();
        let pulls = tasks.iter().filter(|t| t.dir == Dir::Pull).count();
        assert_eq!(pushes, 2);
        assert_eq!(pulls, 2);
    }

    #[test]
    fn autotuner_explores_the_credit_range() {
        let mut tuner = CreditAutoTuner::new(AutoTuneConfig::default(), 4 << 20);
        let mut credits = vec![4u64 << 20];
        for i in 0..500 {
            let iter_time = Duration::from_millis(900 + (i % 7) * 10);
            if let Some(c) = tuner.iteration_end(iter_time) {
                credits.push(c);
            }
        }
        assert!(credits.len() > 50, "tuner barely moved");
        let min = *credits.iter().min().unwrap();
        let max = *credits.iter().max().unwrap();
        // The Fig. 3(b) complaint: the credit wanders over a wide range.
        assert!(max > 2 * min, "no exploration: {min}..{max}");
    }

    #[test]
    fn autotuner_prefers_faster_credits() {
        let cfg = AutoTuneConfig {
            interval_iters: 1,
            explore_prob: 0.5,
            ..AutoTuneConfig::default()
        };
        let mut tuner = CreditAutoTuner::new(cfg.clone(), 2 << 20);
        // Synthetic objective: iteration time minimised at credit ~24 MB.
        let opt = 24.0e6;
        for _ in 0..400 {
            let c = tuner.current_credit as f64;
            let t = 0.5 + ((c - opt) / opt).powi(2);
            tuner.iteration_end(Duration::from_secs_f64(t));
        }
        let best = tuner.best_credit() as f64;
        assert!(
            (best - opt).abs() / opt < 0.5,
            "tuner converged to {best:.2e}, optimum {opt:.2e}"
        );
    }

    #[test]
    fn tuner_is_deterministic_per_seed() {
        let mk = || CreditAutoTuner::new(AutoTuneConfig::default(), 4 << 20);
        let (mut a, mut b) = (mk(), mk());
        for i in 0..100 {
            let t = Duration::from_millis(800 + i % 13);
            assert_eq!(a.iteration_end(t), b.iteration_end(t));
        }
    }

    #[test]
    #[should_panic(expected = "credit below partition size")]
    fn rejects_credit_below_partition() {
        fixed(vec![100], 4_000_000, 1_000_000);
    }
}
