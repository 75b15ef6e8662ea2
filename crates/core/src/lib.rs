#![warn(missing_docs)]

//! # prophet-core — the paper's contribution and its baselines
//!
//! Everything labelled "communication scheduling strategy" in the paper
//! lives here, engine-agnostic: both the discrete-event cluster simulation
//! (`prophet-ps::sim`) and the real threaded runtime (`prophet-ps::threaded`)
//! drive the same [`CommScheduler`] objects.
//!
//! * [`task`] — the BytePS-like `getTask`/`reportFinish` contract,
//! * [`fifo`] — default MXNet (FIFO whole tensors),
//! * [`p3`] — P3 (fixed partitions, strict priority, blocking sends),
//! * [`bytescheduler`] — ByteScheduler (partitions + credit admission +
//!   optional credit auto-tuning),
//! * [`prophet`] — Prophet (profile → Algorithm 1 → gradient blocks),
//! * [`plan`] — the literal offline Algorithm 1,
//! * [`profiler`] — the Training Job Profiler and stepwise-block detection,
//! * [`perfmodel`] — the §3 analytic model (Eqs. 1–5) used as a test oracle
//!   and what-if evaluator.
//!
//! [`SchedulerKind`] is the experiment-facing factory: every benchmark and
//! table names its strategies through it.

pub mod bytescheduler;
pub mod fifo;
pub mod p3;
pub mod perfmodel;
pub mod plan;
pub mod profiler;
pub mod prophet;
pub mod shard;
pub mod task;

pub use bytescheduler::{
    AutoTuneConfig, ByteSchedulerConfig, ByteSchedulerScheduler, CreditAutoTuner,
};
pub use fifo::FifoScheduler;
pub use p3::P3Scheduler;
pub use plan::{prophet_plan, PlanInput, PlannedBlock, ProphetPlan};
pub use profiler::{detect_blocks, JobProfile, JobProfiler};
pub use prophet::{ProphetConfig, ProphetScheduler};
pub use shard::ShardMap;
pub use task::{CommScheduler, Dir, TransferTask, Transport};

use prophet_dnn::TrainingJob;

/// A named strategy configuration — the unit experiments sweep over.
#[derive(Debug, Clone)]
pub enum SchedulerKind {
    /// Default MXNet: FIFO whole tensors.
    Fifo,
    /// P3 with the given partition size (paper: 4 MB).
    P3 {
        /// Slice size in bytes.
        partition_bytes: u64,
    },
    /// ByteScheduler with a fixed or auto-tuned credit.
    ByteScheduler(ByteSchedulerConfig),
    /// Prophet, fully online (profiles its first iterations under FIFO).
    Prophet(ProphetConfig),
    /// Prophet with an oracle profile taken from the job spec itself —
    /// the steady-state behaviour, without the profiling transient.
    ProphetOracle(ProphetConfig),
}

impl SchedulerKind {
    /// Short label for tables and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "mxnet-fifo",
            SchedulerKind::P3 { .. } => "p3",
            SchedulerKind::ByteScheduler(c) if c.autotune.is_some() => "bytescheduler-autotune",
            SchedulerKind::ByteScheduler(_) => "bytescheduler",
            SchedulerKind::Prophet(_) => "prophet",
            SchedulerKind::ProphetOracle(_) => "prophet-oracle",
        }
    }

    /// Instantiate a per-worker scheduler for `job`.
    pub fn build(&self, job: &TrainingJob) -> Box<dyn CommScheduler> {
        let SchedulerKind::ProphetOracle(cfg) = self else {
            return self.build_from_sizes(job.sizes());
        };
        let sizes = job.sizes();
        let c = job.c_offsets();
        let blocks = detect_blocks(&c);
        let profile = JobProfile {
            c,
            s: sizes.clone(),
            blocks,
            iterations: 0,
        };
        Box::new(ProphetScheduler::with_profile(sizes, profile, cfg.clone()))
    }

    /// Instantiate a scheduler knowing only the gradient sizes — the entry
    /// point for runtimes without a simulated `TrainingJob` (the threaded
    /// PS). `ProphetOracle` has no job to take its oracle profile from, so
    /// it degrades to the online (self-profiling) Prophet.
    pub fn build_from_sizes(&self, sizes: Vec<u64>) -> Box<dyn CommScheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::new(sizes)),
            SchedulerKind::P3 { partition_bytes } => {
                Box::new(P3Scheduler::new(sizes, *partition_bytes))
            }
            SchedulerKind::ByteScheduler(cfg) => {
                Box::new(ByteSchedulerScheduler::new(sizes, cfg.clone()))
            }
            SchedulerKind::Prophet(cfg) | SchedulerKind::ProphetOracle(cfg) => {
                Box::new(ProphetScheduler::online(sizes, cfg.clone()))
            }
        }
    }

    /// The paper's §5.1 configurations for a network of `bps` bytes/sec:
    /// `[MXNet FIFO, P3 (4 MB), ByteScheduler (default credit), Prophet]`.
    ///
    /// Prophet appears in its *oracle-profiled* (steady-state) form: the
    /// paper's tables measure after the 50-iteration profiling window has
    /// passed, and simulated sweeps are far shorter than 50 iterations.
    /// Use [`SchedulerKind::Prophet`] explicitly to study the profiling
    /// transient itself (the Fig. 13 experiment).
    pub fn paper_lineup(bps: f64) -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Fifo,
            SchedulerKind::P3 {
                partition_bytes: 4 << 20,
            },
            SchedulerKind::ByteScheduler(ByteSchedulerConfig::default()),
            SchedulerKind::ProphetOracle(ProphetConfig::paper_default(bps)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_dnn::TrainingJob;

    /// Every kind builds a scheduler that, handed one iteration's
    /// gradients in backward order, pushes each gradient's bytes exactly
    /// once and then idles.
    #[test]
    fn factory_builds_every_kind() {
        let job = TrainingJob::paper_setup("resnet18", 32);
        let sizes = job.sizes();
        let autotune = ByteSchedulerConfig {
            autotune: Some(AutoTuneConfig::default()),
        };
        let mut kinds = SchedulerKind::paper_lineup(1.25e9);
        kinds.push(SchedulerKind::ByteScheduler(autotune));
        kinds.push(SchedulerKind::Prophet(ProphetConfig::paper_default(1.25e9)));
        let now = prophet_sim::SimTime::ZERO;
        for kind in kinds {
            let mut sched = kind.build(&job);
            sched.iteration_begin(now, 0);
            for g in (0..sizes.len()).rev() {
                sched.gradient_ready(now, g);
            }
            let mut pushed = vec![0; sizes.len()];
            loop {
                let mut sent = Vec::new();
                while let Some(task) = sched.next_task(now) {
                    assert_eq!(task.dir, Dir::Push, "{}", kind.label());
                    for &(g, bytes) in &task.pieces {
                        pushed[g] += bytes;
                    }
                    sent.push(task);
                }
                if sent.is_empty() {
                    break;
                }
                sent.iter().for_each(|t| sched.task_done(now, t));
            }
            assert_eq!(pushed, sizes, "{}", kind.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = SchedulerKind::paper_lineup(1e9)
            .iter()
            .map(|k| k.label())
            .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    /// A profiling Prophet pushes like FIFO, in release order; a planned
    /// one in priority order. Released in backward order, the last two
    /// gradients go out lowest id first from the oracle's first iteration
    /// on, and release order first from the online Prophet's.
    #[test]
    fn oracle_prophet_is_planned_immediately() {
        let job = TrainingJob::paper_setup("resnet18", 32);
        let last = job.sizes().len() - 1;
        let now = prophet_sim::SimTime::ZERO;
        let first_push = |kind: SchedulerKind| {
            let mut sched = kind.build(&job);
            sched.iteration_begin(now, 0);
            sched.gradient_ready(now, last);
            sched.gradient_ready(now, last - 1);
            sched.next_task(now).expect("nothing pushed").top_priority()
        };
        let cfg = ProphetConfig::paper_default(1.25e9);
        let oracle = SchedulerKind::ProphetOracle(cfg.clone());
        assert_eq!(first_push(oracle), last - 1);
        assert_eq!(first_push(SchedulerKind::Prophet(cfg)), last);
    }
}
