//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] is a *seeded schedule* of typed [`FaultSpec`]s that a
//! runtime (the discrete-event cluster simulator, or the threaded PS
//! runtime) replays at fixed simulated times. Faults are data, not
//! callbacks: the same plan plus the same seed must reproduce the same
//! trace bit-for-bit, which is what makes failure scenarios testable at
//! all. An **empty plan is inert by construction** — runtimes are required
//! to skip every fault code path (extra events, RNG draws, timeouts) when
//! `FaultPlan::is_empty()` holds, so a fault-free run stays bit-identical
//! to a build without this module.
//!
//! The taxonomy mirrors the failure classes that break Prophet's
//! predictability assumption (PAPER.md §3–4): transport loss
//! ([`FaultSpec::LinkDown`], [`FaultSpec::LinkDegrade`],
//! [`FaultSpec::MsgLoss`]), server loss ([`FaultSpec::ShardCrash`]),
//! compute loss ([`FaultSpec::WorkerStall`]) and *silent* data loss
//! ([`FaultSpec::PayloadCorrupt`], [`FaultSpec::CheckpointCorrupt`]) —
//! corruption that no channel or process monitor ever reports, which only
//! end-to-end integrity checks (CRC-framed wire messages, verified
//! checkpoint generations) can surface.
//!
//! # Permanent membership events
//!
//! The five classes above are *transient*: every window closes and the
//! original topology comes back. [`FaultSpec::WorkerFail`],
//! [`FaultSpec::ShardFail`] and [`FaultSpec::WorkerJoin`] are *permanent*
//! membership events. They are indexed by **BSP iteration**, not simulated
//! time: membership is a control-plane decision a BSP cluster can only take
//! at an iteration boundary, and pinning the boundary makes the recovery
//! contract exact — a worker that fails "at iteration k" contributes to
//! every barrier of iterations `0..k` and to nothing afterwards, in the
//! simulator and the threaded runtime alike. Accordingly
//! [`FaultSpec::at`]/[`FaultSpec::until`] return [`SimTime::ZERO`] for
//! permanent specs (they have no wall-clock window); use
//! [`FaultSpec::at_iter`] / [`FaultSpec::is_permanent`] instead.

use crate::time::{Duration, SimTime};

/// The class of an injected fault, carried on [`FaultStart`]/[`FaultEnd`]
/// trace events so the invariant checker can reason about active faults.
///
/// [`FaultStart`]: crate::trace::TraceEvent::FaultStart
/// [`FaultEnd`]: crate::trace::TraceEvent::FaultEnd
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A node's links are fully down.
    LinkDown,
    /// A node's links run at a fraction of nominal capacity.
    LinkDegrade,
    /// Messages are dropped at random within a window.
    MsgLoss,
    /// A PS shard lost its in-memory aggregation state.
    ShardCrash,
    /// A worker's compute makes no progress.
    WorkerStall,
    /// A worker leaves the cluster permanently at an iteration boundary.
    WorkerFail,
    /// A PS shard dies permanently; its tensors re-home to survivors.
    ShardFail,
    /// A new worker joins the cluster at an iteration boundary.
    WorkerJoin,
    /// In-flight frames (push, pull, ack) are silently corrupted — bit
    /// flips, truncation, or NaN-poisoned payloads — within a window.
    PayloadCorrupt,
    /// One snapshot generation a shard writes is silently corrupted; the
    /// damage goes unnoticed until a restore verifies it.
    CheckpointCorrupt,
}

impl FaultKind {
    /// True for the permanent membership kinds (`WorkerFail`, `ShardFail`,
    /// `WorkerJoin`), which have no closing window.
    pub fn is_permanent(&self) -> bool {
        matches!(
            self,
            FaultKind::WorkerFail | FaultKind::ShardFail | FaultKind::WorkerJoin
        )
    }
}

/// One scheduled fault. All times are absolute simulated instants
/// (`at`) plus a duration; `for` is a Rust keyword, so durations are
/// named `dur` / `restart_after`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Node `node`'s links drop every in-flight message at `at` and accept
    /// nothing for `dur`; reconnected lanes come back *cold*.
    LinkDown {
        /// Topology node whose links go down (shards first, then workers).
        node: usize,
        /// When the outage starts.
        at: SimTime,
        /// How long the outage lasts.
        dur: Duration,
    },
    /// Node `node`'s link capacity is multiplied by `factor` during the
    /// window; in-flight messages survive but slow down.
    LinkDegrade {
        /// Topology node whose links degrade.
        node: usize,
        /// When the degradation starts.
        at: SimTime,
        /// Capacity multiplier in `(0, 1)`.
        factor: f64,
        /// How long the degradation lasts.
        dur: Duration,
    },
    /// During the window each message send is lost (delivered on the wire
    /// but never acknowledged) with probability `rate`, drawn from the
    /// plan's fault RNG.
    MsgLoss {
        /// Per-message loss probability in `[0, 1]`.
        rate: f64,
        /// When the lossy window opens.
        at: SimTime,
        /// How long the lossy window lasts.
        dur: Duration,
    },
    /// PS shard `shard` crashes at `at`, losing its in-memory aggregation
    /// state (parameters are durable), and restarts `restart_after` later.
    ShardCrash {
        /// Shard index in `0..ps_shards`.
        shard: usize,
        /// When the crash happens.
        at: SimTime,
        /// Downtime before the shard accepts traffic again.
        restart_after: Duration,
    },
    /// Worker `worker`'s compute events stall (no gradient becomes ready,
    /// no forward completes) from `at` until `at + dur`.
    WorkerStall {
        /// Worker index in `0..workers`.
        worker: usize,
        /// When the stall starts.
        at: SimTime,
        /// How long the stall lasts.
        dur: Duration,
    },
    /// Worker `worker` fails **permanently** at the boundary of iteration
    /// `at_iter`: it completes every iteration `< at_iter` (all of its
    /// pushes reach their barriers, all of its pulls land) and then leaves.
    /// The BSP barrier shrinks to the survivors from `at_iter` on. An
    /// `at_iter` beyond the run's iteration count never fires.
    WorkerFail {
        /// Worker index in `0..workers` (initial members only — a joined
        /// worker never fails; see [`FaultPlan::validate`]).
        worker: usize,
        /// First iteration the worker does NOT participate in (`>= 1`).
        at_iter: u64,
    },
    /// PS shard `shard` dies **permanently** at the boundary of iteration
    /// `at_iter`: every barrier of iterations `< at_iter` it owned has been
    /// applied; its tensors re-home to the surviving shards, which restore
    /// the lost state from the latest checkpoint plus a byte-ledger replay
    /// of the post-checkpoint updates. In-flight pulls against the dead
    /// shard are torn down and fail fast to the new owners.
    ShardFail {
        /// Shard index in `0..ps_shards` (at least one shard must survive).
        shard: usize,
        /// First iteration the shard does NOT serve (`>= 1`).
        at_iter: u64,
    },
    /// Worker `worker` joins the cluster at the boundary of iteration
    /// `at_iter`: it bootstraps the full model (one whole-model pull of the
    /// end-of-`at_iter - 1` parameters) and participates in every barrier
    /// from `at_iter` on.
    WorkerJoin {
        /// New worker id, `>= workers` (joiners extend the initial
        /// topology; ids are assigned densely from `workers` upward).
        worker: usize,
        /// First iteration the worker participates in.
        at_iter: u64,
    },
    /// During the window each in-flight frame (push, pull, or ack) is
    /// silently corrupted with probability `rate` — a bit flip, a
    /// truncation, or a NaN-poisoned payload, drawn from the plan's fault
    /// RNG. The receiver's integrity checks (CRC32 + length framing + the
    /// NaN/Inf gradient guard) must detect every corruption and recover via
    /// NACK-driven targeted retransmission, so the final model stays
    /// bit-identical to a fault-free run.
    PayloadCorrupt {
        /// Per-frame corruption probability in `[0, 1]`.
        rate: f64,
        /// When the corrupting window opens.
        at: SimTime,
        /// How long the corrupting window lasts.
        dur: Duration,
    },
    /// The first snapshot generation shard `shard` writes at or after
    /// iteration boundary `at_iter` is silently corrupted. Nothing happens
    /// at write time — the damage surfaces only if the shard later dies
    /// permanently and a restore verifies the generation, at which point
    /// recovery must fall back to the newest *intact* generation and replay
    /// a longer byte ledger. Inert if the shard never checkpoints after
    /// `at_iter` or never needs restoring. Iteration-indexed like the
    /// permanent kinds but **not** a membership event: it neither arms the
    /// elastic machinery nor opens a wall-clock window.
    CheckpointCorrupt {
        /// Shard index in `0..ps_shards` whose snapshot is damaged.
        shard: usize,
        /// First iteration boundary whose snapshot write is corrupted
        /// (`>= 1`).
        at_iter: u64,
    },
}

impl FaultSpec {
    /// The fault's class, as carried on trace events.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultSpec::LinkDown { .. } => FaultKind::LinkDown,
            FaultSpec::LinkDegrade { .. } => FaultKind::LinkDegrade,
            FaultSpec::MsgLoss { .. } => FaultKind::MsgLoss,
            FaultSpec::ShardCrash { .. } => FaultKind::ShardCrash,
            FaultSpec::WorkerStall { .. } => FaultKind::WorkerStall,
            FaultSpec::WorkerFail { .. } => FaultKind::WorkerFail,
            FaultSpec::ShardFail { .. } => FaultKind::ShardFail,
            FaultSpec::WorkerJoin { .. } => FaultKind::WorkerJoin,
            FaultSpec::PayloadCorrupt { .. } => FaultKind::PayloadCorrupt,
            FaultSpec::CheckpointCorrupt { .. } => FaultKind::CheckpointCorrupt,
        }
    }

    /// True for the permanent membership specs (iteration-indexed, no
    /// wall-clock window).
    pub fn is_permanent(&self) -> bool {
        self.kind().is_permanent()
    }

    /// The iteration boundary an iteration-indexed spec fires at (the
    /// permanent membership kinds plus `CheckpointCorrupt`); `None` for the
    /// transient window kinds.
    pub fn at_iter(&self) -> Option<u64> {
        match *self {
            FaultSpec::WorkerFail { at_iter, .. }
            | FaultSpec::ShardFail { at_iter, .. }
            | FaultSpec::WorkerJoin { at_iter, .. }
            | FaultSpec::CheckpointCorrupt { at_iter, .. } => Some(at_iter),
            _ => None,
        }
    }

    /// True for the wall-clock-windowed kinds, which runtimes schedule as
    /// `FaultBegin`/`FaultFinish` timer pairs. Iteration-indexed specs
    /// (`at_iter()` is `Some`) fire at BSP boundaries instead and must
    /// never be window-scheduled.
    pub fn is_windowed(&self) -> bool {
        self.at_iter().is_none()
    }

    /// When the fault begins ([`SimTime::ZERO`] for permanent specs, which
    /// are iteration-indexed — see [`FaultSpec::at_iter`]).
    pub fn at(&self) -> SimTime {
        match *self {
            FaultSpec::LinkDown { at, .. }
            | FaultSpec::LinkDegrade { at, .. }
            | FaultSpec::MsgLoss { at, .. }
            | FaultSpec::ShardCrash { at, .. }
            | FaultSpec::WorkerStall { at, .. }
            | FaultSpec::PayloadCorrupt { at, .. } => at,
            FaultSpec::WorkerFail { .. }
            | FaultSpec::ShardFail { .. }
            | FaultSpec::WorkerJoin { .. }
            | FaultSpec::CheckpointCorrupt { .. } => SimTime::ZERO,
        }
    }

    /// When the fault ends (start plus duration, saturating;
    /// [`SimTime::ZERO`] for permanent specs — they never end).
    pub fn until(&self) -> SimTime {
        match *self {
            FaultSpec::LinkDown { at, dur, .. }
            | FaultSpec::LinkDegrade { at, dur, .. }
            | FaultSpec::MsgLoss { at, dur, .. }
            | FaultSpec::WorkerStall { at, dur, .. }
            | FaultSpec::PayloadCorrupt { at, dur, .. } => at + dur,
            FaultSpec::ShardCrash {
                at, restart_after, ..
            } => at + restart_after,
            FaultSpec::WorkerFail { .. }
            | FaultSpec::ShardFail { .. }
            | FaultSpec::WorkerJoin { .. }
            | FaultSpec::CheckpointCorrupt { .. } => SimTime::ZERO,
        }
    }
}

/// A seeded schedule of faults.
///
/// The `seed` drives only fault-local randomness (currently the per-message
/// Bernoulli draws of [`FaultSpec::MsgLoss`]); it is deliberately separate
/// from the simulation's own RNG streams so that adding a fault never
/// perturbs compute jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for fault-local randomness, independent of the sim seed.
    pub seed: u64,
    /// The scheduled faults, in any order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The inert plan: no faults, and runtimes must skip all fault paths.
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            faults: Vec::new(),
        }
    }

    /// A plan with the given faults under the default fault seed.
    pub fn new(faults: Vec<FaultSpec>) -> Self {
        FaultPlan { seed: 7, faults }
    }

    /// True when the plan schedules nothing (the bit-identity fast path).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when the plan contains any permanent membership event
    /// (`WorkerFail` / `ShardFail` / `WorkerJoin`). Runtimes arm their
    /// elastic-membership machinery only when this holds.
    pub fn has_permanent(&self) -> bool {
        self.faults.iter().any(|f| f.is_permanent())
    }

    /// True when the plan kills a shard permanently — this is what arms the
    /// checkpoint/ledger subsystem (snapshots are pointless bookkeeping
    /// when nothing can ever need restoring).
    pub fn has_shard_fail(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, FaultSpec::ShardFail { .. }))
    }

    /// Number of `WorkerJoin` specs: the topology a runtime must provision
    /// is `workers + joined_workers()` worker slots.
    pub fn joined_workers(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f, FaultSpec::WorkerJoin { .. }))
            .count()
    }

    /// The iteration worker `w` permanently fails at, if any.
    pub fn worker_fail_at(&self, w: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            FaultSpec::WorkerFail { worker, at_iter } if worker == w => Some(at_iter),
            _ => None,
        })
    }

    /// The iteration worker `w` joins at, if `w` is a joiner.
    pub fn worker_join_at(&self, w: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            FaultSpec::WorkerJoin { worker, at_iter } if worker == w => Some(at_iter),
            _ => None,
        })
    }

    /// True when the plan injects silent corruption (`PayloadCorrupt` or
    /// `CheckpointCorrupt`). Runtimes use this to arm detection-only paths
    /// that must stay dormant otherwise (e.g. the NaN/Inf gradient guard,
    /// which would livelock on a *legitimately* diverging model).
    pub fn has_corruption(&self) -> bool {
        self.faults.iter().any(|f| {
            matches!(
                f,
                FaultSpec::PayloadCorrupt { .. } | FaultSpec::CheckpointCorrupt { .. }
            )
        })
    }

    /// The iteration boundary at (or after) which shard `s`'s next snapshot
    /// write is corrupted, if the plan schedules one.
    pub fn checkpoint_corrupt_at(&self, s: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            FaultSpec::CheckpointCorrupt { shard, at_iter } if shard == s => Some(at_iter),
            _ => None,
        })
    }

    /// Panic if any fault is internally inconsistent or refers to a node
    /// outside the given cluster shape (`workers` counts the *initial*
    /// members; joiners extend it). Called from config validation.
    pub fn validate(&self, workers: usize, ps_shards: usize) {
        let nodes = workers + ps_shards;
        let mut failed_workers = Vec::new();
        let mut failed_shards = Vec::new();
        let mut joiners = Vec::new();
        let mut corrupt_ckpts = Vec::new();
        for f in &self.faults {
            match *f {
                FaultSpec::LinkDown { node, .. } | FaultSpec::LinkDegrade { node, .. } => {
                    assert!(node < nodes, "fault references missing node {node}");
                }
                FaultSpec::MsgLoss { rate, .. } => {
                    assert!(
                        (0.0..=1.0).contains(&rate),
                        "message loss rate {rate} outside [0, 1]"
                    );
                }
                FaultSpec::ShardCrash { shard, .. } => {
                    assert!(shard < ps_shards, "fault references missing shard {shard}");
                }
                FaultSpec::WorkerStall { worker, .. } => {
                    assert!(worker < workers, "fault references missing worker {worker}");
                }
                FaultSpec::WorkerFail { worker, at_iter } => {
                    assert!(worker < workers, "fault fails missing worker {worker}");
                    assert!(at_iter >= 1, "WorkerFail at_iter must be >= 1");
                    assert!(
                        !failed_workers.contains(&worker),
                        "worker {worker} fails twice"
                    );
                    failed_workers.push(worker);
                }
                FaultSpec::ShardFail { shard, at_iter } => {
                    assert!(shard < ps_shards, "fault fails missing shard {shard}");
                    assert!(at_iter >= 1, "ShardFail at_iter must be >= 1");
                    assert!(!failed_shards.contains(&shard), "shard {shard} fails twice");
                    failed_shards.push(shard);
                }
                FaultSpec::WorkerJoin { worker, at_iter } => {
                    assert!(
                        worker >= workers,
                        "joiner id {worker} collides with an initial worker"
                    );
                    assert!(at_iter >= 1, "WorkerJoin at_iter must be >= 1");
                    assert!(!joiners.contains(&worker), "worker {worker} joins twice");
                    joiners.push(worker);
                }
                FaultSpec::PayloadCorrupt { rate, .. } => {
                    assert!(
                        (0.0..=1.0).contains(&rate),
                        "payload corruption rate {rate} outside [0, 1]"
                    );
                }
                FaultSpec::CheckpointCorrupt { shard, at_iter } => {
                    assert!(shard < ps_shards, "fault corrupts missing shard {shard}");
                    assert!(at_iter >= 1, "CheckpointCorrupt at_iter must be >= 1");
                    assert!(
                        !corrupt_ckpts.contains(&shard),
                        "shard {shard}'s checkpoint corrupted twice"
                    );
                    corrupt_ckpts.push(shard);
                }
            }
            if let FaultSpec::LinkDegrade { factor, .. } = *f {
                assert!(
                    factor > 0.0 && factor < 1.0,
                    "degrade factor {factor} outside (0, 1)"
                );
            }
        }
        assert!(
            failed_workers.len() < workers,
            "every worker fails — no survivor to finish the run"
        );
        assert!(
            failed_shards.len() < ps_shards,
            "every shard fails — nothing left to re-home tensors to"
        );
        // Joiner ids must be dense from `workers` so runtimes can size the
        // topology as `workers + joined_workers()`.
        joiners.sort_unstable();
        for (i, &w) in joiners.iter().enumerate() {
            assert_eq!(w, workers + i, "joiner ids must be dense from {workers}");
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

/// The canonical modular re-home rule the simulator (and its trace
/// consumers) apply when shard `dead` permanently fails: every gradient
/// owned by `dead` moves to `alive[g % alive.len()]`, where `alive` is the
/// ascending list of shards in `0..total_shards` minus `evicted`. One
/// shared function so the engine, the invariant checker and the span
/// collector can never disagree about post-eviction ownership.
///
/// (`evicted` must already contain `dead`.) The threaded runtime instead
/// places tensor extents (parts) with its `ShardMap` and re-balances the
/// parts by load; its checker learns the part → shard table from the map,
/// not from this rule.
pub fn rehome_modular(owner: &mut [usize], total_shards: usize, evicted: &[usize], dead: usize) {
    debug_assert!(evicted.contains(&dead));
    let alive: Vec<usize> = (0..total_shards).filter(|s| !evicted.contains(s)).collect();
    assert!(!alive.is_empty(), "no surviving shard to re-home to");
    for (g, o) in owner.iter_mut().enumerate() {
        if *o == dead {
            *o = alive[g % alive.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        assert!(FaultPlan::empty().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::new(vec![FaultSpec::LinkDown {
            node: 0,
            at: SimTime::ZERO,
            dur: Duration::from_secs(1),
        }])
        .is_empty());
    }

    #[test]
    fn spec_window_accessors() {
        let f = FaultSpec::ShardCrash {
            shard: 1,
            at: SimTime::from_secs_f64(2.0),
            restart_after: Duration::from_secs(3),
        };
        assert_eq!(f.kind(), FaultKind::ShardCrash);
        assert_eq!(f.at(), SimTime::from_secs_f64(2.0));
        assert_eq!(f.until(), SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        FaultPlan::new(vec![
            FaultSpec::LinkDown {
                node: 2,
                at: SimTime::ZERO,
                dur: Duration::from_millis(50),
            },
            FaultSpec::MsgLoss {
                rate: 0.3,
                at: SimTime::ZERO,
                dur: Duration::from_secs(1),
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: SimTime::from_secs_f64(0.1),
                restart_after: Duration::from_millis(80),
            },
            FaultSpec::WorkerStall {
                worker: 1,
                at: SimTime::ZERO,
                dur: Duration::from_millis(10),
            },
        ])
        .validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "missing shard")]
    fn validate_rejects_out_of_range_shard() {
        FaultPlan::new(vec![FaultSpec::ShardCrash {
            shard: 3,
            at: SimTime::ZERO,
            restart_after: Duration::from_millis(1),
        }])
        .validate(2, 1);
    }

    #[test]
    fn permanent_specs_are_iteration_indexed() {
        let f = FaultSpec::WorkerFail {
            worker: 1,
            at_iter: 3,
        };
        assert_eq!(f.kind(), FaultKind::WorkerFail);
        assert!(f.is_permanent());
        assert_eq!(f.at_iter(), Some(3));
        assert_eq!(f.at(), SimTime::ZERO);
        assert_eq!(f.until(), SimTime::ZERO);
        let t = FaultSpec::MsgLoss {
            rate: 0.1,
            at: SimTime::ZERO,
            dur: Duration::from_secs(1),
        };
        assert!(!t.is_permanent());
        assert_eq!(t.at_iter(), None);
    }

    #[test]
    fn plan_permanent_helpers() {
        let plan = FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 0,
                at_iter: 2,
            },
            FaultSpec::ShardFail {
                shard: 1,
                at_iter: 3,
            },
            FaultSpec::WorkerJoin {
                worker: 3,
                at_iter: 4,
            },
        ]);
        plan.validate(3, 2);
        assert!(plan.has_permanent());
        assert!(plan.has_shard_fail());
        assert_eq!(plan.joined_workers(), 1);
        assert_eq!(plan.worker_fail_at(0), Some(2));
        assert_eq!(plan.worker_fail_at(1), None);
        assert_eq!(plan.worker_join_at(3), Some(4));
        assert!(!FaultPlan::empty().has_permanent());
    }

    #[test]
    fn corruption_specs_and_helpers() {
        let plan = FaultPlan::new(vec![
            FaultSpec::PayloadCorrupt {
                rate: 0.2,
                at: SimTime::from_secs_f64(0.5),
                dur: Duration::from_secs(1),
            },
            FaultSpec::CheckpointCorrupt {
                shard: 1,
                at_iter: 3,
            },
        ]);
        plan.validate(2, 2);
        assert!(plan.has_corruption());
        // Corruption is not a membership event: it must not arm the
        // elastic machinery or the checkpoint subsystem by itself.
        assert!(!plan.has_permanent());
        assert!(!plan.has_shard_fail());
        let pc = plan.faults[0];
        assert_eq!(pc.kind(), FaultKind::PayloadCorrupt);
        assert!(pc.is_windowed());
        assert!(!pc.is_permanent());
        assert_eq!(pc.at(), SimTime::from_secs_f64(0.5));
        assert_eq!(pc.until(), SimTime::from_secs_f64(1.5));
        let cc = plan.faults[1];
        assert_eq!(cc.kind(), FaultKind::CheckpointCorrupt);
        assert!(!cc.is_windowed());
        assert!(!cc.is_permanent());
        assert_eq!(cc.at_iter(), Some(3));
        assert_eq!(cc.at(), SimTime::ZERO);
        assert_eq!(cc.until(), SimTime::ZERO);
        assert_eq!(plan.checkpoint_corrupt_at(1), Some(3));
        assert_eq!(plan.checkpoint_corrupt_at(0), None);
        assert!(!FaultPlan::empty().has_corruption());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn validate_rejects_bad_corruption_rate() {
        FaultPlan::new(vec![FaultSpec::PayloadCorrupt {
            rate: 1.5,
            at: SimTime::ZERO,
            dur: Duration::from_millis(1),
        }])
        .validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "corrupts missing shard")]
    fn validate_rejects_corrupting_missing_shard() {
        FaultPlan::new(vec![FaultSpec::CheckpointCorrupt {
            shard: 2,
            at_iter: 1,
        }])
        .validate(2, 2);
    }

    #[test]
    #[should_panic(expected = "no survivor")]
    fn validate_rejects_total_worker_loss() {
        FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 0,
                at_iter: 1,
            },
            FaultSpec::WorkerFail {
                worker: 1,
                at_iter: 2,
            },
        ])
        .validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "nothing left to re-home")]
    fn validate_rejects_total_shard_loss() {
        FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 0,
            at_iter: 1,
        }])
        .validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "collides with an initial worker")]
    fn validate_rejects_joiner_id_collision() {
        FaultPlan::new(vec![FaultSpec::WorkerJoin {
            worker: 1,
            at_iter: 1,
        }])
        .validate(2, 1);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn validate_rejects_sparse_joiner_ids() {
        FaultPlan::new(vec![FaultSpec::WorkerJoin {
            worker: 4,
            at_iter: 1,
        }])
        .validate(2, 1);
    }

    #[test]
    fn rehome_modular_spreads_over_survivors() {
        // 8 gradients over 3 shards (g % 3); shard 1 dies.
        let mut owner: Vec<usize> = (0..8).map(|g| g % 3).collect();
        rehome_modular(&mut owner, 3, &[1], 1);
        for (g, &o) in owner.iter().enumerate() {
            assert_ne!(o, 1, "gradient {g} still on the dead shard");
            if g % 3 != 1 {
                assert_eq!(o, g % 3, "gradient {g} moved off a live shard");
            } else {
                // Survivors are [0, 2]; the modular rule picks g % 2.
                assert_eq!(o, [0, 2][g % 2]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn validate_rejects_bad_degrade_factor() {
        FaultPlan::new(vec![FaultSpec::LinkDegrade {
            node: 0,
            at: SimTime::ZERO,
            factor: 1.5,
            dur: Duration::from_millis(1),
        }])
        .validate(2, 1);
    }
}
