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
//!
//! The partition size, the initial credit and the tuner's search range,
//! exploration rate and seed are the constants below; a configuration
//! chooses only whether, and how often, the credit is tuned. The tuner's
//! floor ([`MIN_CREDIT`]) is under one partition, so a tuned credit can
//! fall below [`PARTITION_BYTES`]: an idle pipe still admits one partition.

use crate::task::{CommScheduler, Dir, TransferTask};
use prophet_dnn::GradientId;
use prophet_sim::{Duration, SimTime, Xoshiro256StarStar};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Part = Reverse<(GradientId, u64, u64)>; // (grad, offset, bytes)

/// Slice size for tensor partitioning, bytes.
pub const PARTITION_BYTES: u64 = 4 << 20;

/// Initial credit, bytes: allowed in-flight bytes per direction — Fig. 5's
/// "3 × partition size".
pub const CREDIT_BYTES: u64 = 3 * PARTITION_BYTES;

/// Smallest credit the auto-tuner may try, bytes.
pub const MIN_CREDIT: u64 = 1 << 20;

/// Largest credit the auto-tuner may try, bytes.
pub const MAX_CREDIT: u64 = 32 << 20;

/// The auto-tuner's exploration probability (ε in an ε-greedy
/// approximation of the BO acquisition function's explore/exploit
/// balance).
pub const EXPLORE_PROB: f64 = 0.35;

/// The auto-tuner's RNG seed: its trajectory is a function of the
/// iteration times alone.
pub const TUNER_SEED: u64 = 7;

// A zero partition would never advance `enqueue`'s cursor, and the tuner
// starts from the initial credit inside its search range.
const _: () =
    assert!(PARTITION_BYTES > 0 && MIN_CREDIT <= CREDIT_BYTES && CREDIT_BYTES <= MAX_CREDIT);

/// Configuration of the ByteScheduler baseline.
#[derive(Debug, Clone, Default)]
pub struct ByteSchedulerConfig {
    /// Optional credit auto-tuning (None = fixed credit, the configuration
    /// the paper uses for its main comparisons, §5.1).
    pub autotune: Option<AutoTuneConfig>,
}

/// Auto-tuner parameters.
#[derive(Debug, Clone)]
pub struct AutoTuneConfig {
    /// Iterations between credit updates (each sample needs a measurement).
    pub interval_iters: u64,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig { interval_iters: 5 }
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
        let rng = Xoshiro256StarStar::new(TUNER_SEED);
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
        let next = if self.rng.next_f64() < EXPLORE_PROB {
            // Explore: uniform over the range.
            MIN_CREDIT + self.rng.next_below(MAX_CREDIT - MIN_CREDIT + 1)
        } else {
            // Exploit: Gaussian perturbation around the best known credit.
            let sigma = (MAX_CREDIT - MIN_CREDIT) as f64 * 0.15;
            let prop = self.best_credit as f64 + sigma * self.rng.next_gaussian();
            (prop.round() as i64).clamp(MIN_CREDIT as i64, MAX_CREDIT as i64) as u64
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
        let tuner = cfg.autotune.map(|t| CreditAutoTuner::new(t, CREDIT_BYTES));
        ByteSchedulerScheduler {
            sizes,
            credit: CREDIT_BYTES,
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

    fn enqueue(heap: &mut BinaryHeap<Part>, grad: GradientId, size: u64) {
        let mut off = 0;
        while off < size {
            let b = PARTITION_BYTES.min(size - off);
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
    fn gradient_ready(&mut self, _now: SimTime, grad: GradientId) {
        Self::enqueue(&mut self.push_heap, grad, self.sizes[grad]);
    }

    fn param_ready(&mut self, _now: SimTime, grad: GradientId) {
        Self::enqueue(&mut self.pull_heap, grad, self.sizes[grad]);
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

    /// One partition.
    const P: u64 = PARTITION_BYTES;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn fixed(sizes: Vec<u64>) -> ByteSchedulerScheduler {
        ByteSchedulerScheduler::new(sizes, ByteSchedulerConfig::default())
    }

    #[test]
    fn credit_admits_multiple_partitions() {
        let mut s = fixed(vec![10 * P]);
        s.gradient_ready(t0(), 0);
        let mut launched = Vec::new();
        while let Some(t) = s.next_task(t0()) {
            launched.push(t);
        }
        assert_eq!(
            launched.len(),
            3,
            "credit should admit exactly 3 partitions"
        );
        // Finishing one admits one more.
        s.task_done(t0(), &launched[0]);
        assert!(s.next_task(t0()).is_some());
    }

    #[test]
    fn priority_respected_across_tensors() {
        let mut s = fixed(vec![2 * P, 2 * P]);
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
        // The tuner's floor (1 MiB) is under one partition (4 MiB): step it
        // until it tunes the credit below a partition. A single partition
        // must still flow on an idle pipe, and a second wait for it.
        let cfg = ByteSchedulerConfig {
            autotune: Some(AutoTuneConfig { interval_iters: 1 }),
        };
        let mut s = ByteSchedulerScheduler::new(vec![2 * P], cfg);
        let mut i = 0;
        while s.credit() >= P {
            assert!(i < 1_000, "the tuner never went below one partition");
            s.iteration_end(t0(), i, Duration::from_millis(900 + i % 7 * 10));
            i += 1;
        }
        s.gradient_ready(t0(), 0);
        let first = s
            .next_task(t0())
            .expect("an idle pipe admits one partition");
        assert_eq!(first.bytes, P);
        assert!(
            s.next_task(t0()).is_none(),
            "the second waits for the first"
        );
        s.task_done(t0(), &first);
        assert!(s.next_task(t0()).is_some());
    }

    #[test]
    fn pull_direction_has_its_own_credit() {
        // Each direction fills the whole 3-partition credit.
        let mut s = fixed(vec![3 * P, 3 * P]);
        s.gradient_ready(t0(), 0);
        s.param_ready(t0(), 1);
        let tasks: Vec<_> = std::iter::from_fn(|| s.next_task(t0())).collect();
        let pushes = tasks.iter().filter(|t| t.dir == Dir::Push).count();
        let pulls = tasks.iter().filter(|t| t.dir == Dir::Pull).count();
        assert_eq!(pushes, 3);
        assert_eq!(pulls, 3);
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
        let cfg = AutoTuneConfig { interval_iters: 1 };
        let mut tuner = CreditAutoTuner::new(cfg, 2 << 20);
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
}
