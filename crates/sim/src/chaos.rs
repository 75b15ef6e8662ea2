//! Chaos search: randomized generation and automatic shrinking of
//! [`FaultPlan`]s.
//!
//! PR 3 made faults *data* — a seeded plan replayed bit-for-bit — but the
//! plans themselves were hand-written, so the explored fault space was a
//! handful of cells. This module turns the fault layer into an adversary:
//!
//! * [`ChaosGen`] samples valid plans from a tunable [`ChaosProfile`]
//!   (intensity, kinds mask, horizon). Sampling is driven by the crate's own
//!   [`Xoshiro256StarStar`], so a `(seed, profile)` pair names the exact
//!   sequence of plans forever — a failing plan found in CI reproduces on a
//!   laptop by seed alone.
//! * [`shrink`] minimizes a failing plan by a deterministic greedy descent
//!   (drop specs, narrow windows, weaken severities) while a caller-supplied
//!   predicate keeps failing. The result is the pinned-test reproducer;
//!   [`plan_to_rust`] renders it as copy-pasteable source.
//!
//! An intensity-zero profile is **provably inert**: [`ChaosGen::next_plan`]
//! returns [`FaultPlan::empty`] without touching the RNG, so the generated
//! plan hits the engine's fault-free fast path and the pre-fault-layer
//! goldens hold to the nanosecond.

use crate::fault::{FaultKind, FaultPlan, FaultSpec};
use crate::rng::Xoshiro256StarStar;
use crate::time::{Duration, SimTime};
use std::fmt::Write as _;

/// A bitmask over the ten [`FaultKind`]s, selecting which classes a
/// [`ChaosGen`] may sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(u16);

/// Canonical kind order; bit `i` of a [`KindMask`] is `ORDER[i]`. The five
/// transient kinds keep their historical bits (0..5) so every pre-churn
/// profile — and the seed-pinned plan-stream goldens — are unchanged; the
/// permanent membership kinds occupy bits 5..8 and the silent-corruption
/// kinds bits 8..10.
const ORDER: [FaultKind; 10] = [
    FaultKind::LinkDown,
    FaultKind::LinkDegrade,
    FaultKind::MsgLoss,
    FaultKind::ShardCrash,
    FaultKind::WorkerStall,
    FaultKind::WorkerFail,
    FaultKind::ShardFail,
    FaultKind::WorkerJoin,
    FaultKind::PayloadCorrupt,
    FaultKind::CheckpointCorrupt,
];

impl KindMask {
    /// Every *transient* fault class enabled (the historical full mask —
    /// kept as `ALL` so seed-pinned plan streams from pre-churn profiles
    /// replay unchanged; membership churn is opt-in via
    /// [`KindMask::PERMANENT`] / [`KindMask::EVERYTHING`]).
    pub const ALL: KindMask = KindMask(0b1_1111);
    /// The permanent membership kinds (`WorkerFail`/`ShardFail`/`WorkerJoin`).
    pub const PERMANENT: KindMask = KindMask(0b1110_0000);
    /// Transient and permanent kinds together: the churn-profile mask
    /// (kept at its historical eight kinds so churn plan streams replay
    /// unchanged; silent corruption is opt-in via [`KindMask::CORRUPTION`]).
    pub const EVERYTHING: KindMask = KindMask(0b1111_1111);
    /// The silent-corruption mask: both corruption kinds plus `ShardFail`,
    /// so sampled plans exercise the verified-restore fallback path (a
    /// corrupted snapshot only matters once somebody restores from it).
    pub const CORRUPTION: KindMask = KindMask(0b11_0100_0000);
    /// All ten kinds: transient, membership and corruption faults drawn
    /// into one plan (the mixed-profile mask).
    pub const MIXED: KindMask = KindMask(0b11_1111_1111);
    /// No fault class enabled (useful as a builder origin).
    pub const NONE: KindMask = KindMask(0);

    fn bit(kind: FaultKind) -> u16 {
        1 << ORDER.iter().position(|&k| k == kind).unwrap()
    }

    /// A mask enabling exactly the given kinds.
    pub fn of(kinds: &[FaultKind]) -> Self {
        kinds.iter().fold(Self::NONE, |m, &k| m.with(k))
    }

    /// This mask with `kind` additionally enabled.
    pub fn with(self, kind: FaultKind) -> Self {
        KindMask(self.0 | Self::bit(kind))
    }

    /// True when `kind` is enabled.
    pub fn contains(self, kind: FaultKind) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    /// The enabled kinds in canonical order.
    pub fn kinds(self) -> Vec<FaultKind> {
        ORDER.into_iter().filter(|&k| self.contains(k)).collect()
    }

    /// True when no kind is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for KindMask {
    fn default() -> Self {
        Self::ALL
    }
}

/// Tunable shape of the fault space a [`ChaosGen`] samples from.
///
/// The profile carries the cluster shape (`workers`, `ps_shards`) so every
/// sampled plan passes [`FaultPlan::validate`] by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Scales the expected fault count per plan. `1.0` averages roughly
    /// 2–3 faults; `0.0` (or below) yields [`FaultPlan::empty`] exactly,
    /// with no RNG draws — the provably inert profile.
    pub intensity: f64,
    /// Which fault classes may be sampled.
    pub kinds: KindMask,
    /// Fault start times are drawn uniformly from `[0, horizon)`.
    pub horizon: Duration,
    /// Worker count of the target cluster (for index validity).
    pub workers: usize,
    /// PS shard count of the target cluster (for index validity).
    pub ps_shards: usize,
    /// BSP iteration horizon of the target run. Permanent membership events
    /// are iteration-indexed, so their `at_iter` is derived from the drawn
    /// start time mapped onto `1..iters`. Below 2, permanent kinds are
    /// silently ineligible (there is no iteration boundary to change
    /// membership at), which is why the transient-only [`Self::for_cluster`]
    /// profile leaves this at zero.
    pub iters: u64,
}

impl ChaosProfile {
    /// A profile matching a cluster shape, all transient kinds enabled, unit
    /// intensity. Byte-identical plan streams to the pre-churn generator.
    pub fn for_cluster(workers: usize, ps_shards: usize, horizon: Duration) -> Self {
        Self::of(KindMask::ALL, workers, ps_shards, horizon, 0)
    }

    /// The membership-churn profile: every kind enabled, transient *and*
    /// permanent, against a run of `iters` BSP iterations.
    pub fn churn(workers: usize, ps_shards: usize, horizon: Duration, iters: u64) -> Self {
        Self::of(KindMask::EVERYTHING, workers, ps_shards, horizon, iters)
    }

    /// The silent-corruption profile: payload and checkpoint corruption
    /// plus permanent shard failure (so corrupted snapshots actually get
    /// restored from), against a run of `iters` BSP iterations.
    pub fn corruption(workers: usize, ps_shards: usize, horizon: Duration, iters: u64) -> Self {
        Self::of(KindMask::CORRUPTION, workers, ps_shards, horizon, iters)
    }

    /// The mixed profile: all ten kinds, so one plan can combine transient
    /// windows, membership churn and corruption, against a run of `iters`
    /// BSP iterations.
    pub fn mixed(workers: usize, ps_shards: usize, horizon: Duration, iters: u64) -> Self {
        Self::of(KindMask::MIXED, workers, ps_shards, horizon, iters)
    }

    fn of(
        kinds: KindMask,
        workers: usize,
        ps_shards: usize,
        horizon: Duration,
        iters: u64,
    ) -> Self {
        ChaosProfile {
            intensity: 1.0,
            kinds,
            horizon,
            workers,
            ps_shards,
            iters,
        }
    }
}

/// Probability that a sampled fault *bursts*: it reuses the previous fault's
/// start time (plus a small jitter) instead of drawing a fresh one, producing
/// the overlapping-window pileups that stress retry bookkeeping the most.
const BURST_P: f64 = 0.35;

/// A seeded stream of random [`FaultPlan`]s.
///
/// Two generators constructed with the same seed produce byte-identical plan
/// sequences for the same profiles (pinned by a golden test), which is what
/// lets `repro ext_chaos <seed>` name an entire search by one integer.
#[derive(Debug, Clone)]
pub struct ChaosGen {
    rng: Xoshiro256StarStar,
}

impl ChaosGen {
    /// A generator whose plan stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosGen {
            rng: Xoshiro256StarStar::new(seed ^ 0xC4A0_5CA0),
        }
    }

    /// Sample the next plan from `profile`.
    ///
    /// Guarantees: every plan validates against the profile's cluster shape;
    /// severities stay inside the legal ranges (degrade factor in
    /// `(0.02, 0.95)`, loss rate in `(0.01, 0.35)`); starts fall in
    /// `[0, horizon)`; windows may overlap, and the same shard may crash
    /// repeatedly. Intensity `<= 0` or an empty kinds mask short-circuits to
    /// [`FaultPlan::empty`] without consuming RNG state.
    ///
    /// Permanent membership kinds additionally honor the survivor
    /// constraints from [`FaultPlan::validate`]: at most `workers - 1`
    /// distinct `WorkerFail`s, at most `ps_shards - 1` distinct
    /// `ShardFail`s, and joiner ids assigned densely from `workers`. A draw
    /// that would violate a constraint keeps its consumed RNG state (so the
    /// stream stays a pure function of the seed) but contributes no spec.
    pub fn next_plan(&mut self, profile: &ChaosProfile) -> FaultPlan {
        if profile.intensity <= 0.0 || profile.kinds.is_empty() {
            return FaultPlan::empty();
        }
        let kinds: Vec<FaultKind> = profile
            .kinds
            .kinds()
            .into_iter()
            .filter(|&k| {
                // Iteration-indexed kinds (the permanent trio plus
                // CheckpointCorrupt) need at least one boundary to fire at.
                let iteration_indexed = k.is_permanent() || k == FaultKind::CheckpointCorrupt;
                !iteration_indexed || profile.iters >= 2
            })
            .collect();
        if kinds.is_empty() {
            return FaultPlan::empty();
        }
        let horizon_ns = profile.horizon.as_nanos().max(1);
        // 1..=ceil(4·intensity) faults, uniform: intensity 1.0 averages 2.5.
        let max_faults = (4.0 * profile.intensity).ceil().max(1.0) as u64;
        let n = 1 + self.rng.next_below(max_faults);
        let mut faults = Vec::with_capacity(n as usize);
        let mut prev_at: Option<SimTime> = None;
        // Survivor bookkeeping for the permanent kinds.
        let mut failed_workers: Vec<usize> = Vec::new();
        let mut failed_shards: Vec<usize> = Vec::new();
        let mut corrupt_ckpts: Vec<usize> = Vec::new();
        let mut joins: usize = 0;
        for _ in 0..n {
            let at = match prev_at {
                // A burst piles onto the previous window (±10% of horizon).
                Some(prev) if self.rng.next_f64() < BURST_P => SimTime::from_nanos(
                    prev.as_nanos()
                        .saturating_add(self.rng.next_below(horizon_ns / 10 + 1)),
                ),
                _ => SimTime::from_nanos(self.rng.next_below(horizon_ns)),
            };
            prev_at = Some(at);
            // Windows span 2%..30% of the horizon so faults are long enough
            // to bite but short enough that runs terminate.
            let dur =
                Duration::from_nanos((self.rng.uniform(0.02, 0.30) * horizon_ns as f64) as u64 + 1);
            let kind = kinds[self.rng.next_below(kinds.len() as u64) as usize];
            // Permanent kinds are iteration-indexed: the drawn start time
            // maps onto a boundary in `1..iters` (clamped — bursts may chain
            // past the horizon).
            let at_iter = 1 + at.as_nanos().min(horizon_ns - 1) * profile.iters.saturating_sub(1)
                / horizon_ns;
            faults.push(match kind {
                FaultKind::LinkDown => FaultSpec::LinkDown {
                    node: self
                        .rng
                        .next_below((profile.workers + profile.ps_shards) as u64)
                        as usize,
                    at,
                    dur,
                },
                FaultKind::LinkDegrade => FaultSpec::LinkDegrade {
                    node: self
                        .rng
                        .next_below((profile.workers + profile.ps_shards) as u64)
                        as usize,
                    at,
                    factor: self.rng.uniform(0.02, 0.95),
                    dur,
                },
                FaultKind::MsgLoss => FaultSpec::MsgLoss {
                    rate: self.rng.uniform(0.01, 0.35),
                    at,
                    dur,
                },
                FaultKind::ShardCrash => FaultSpec::ShardCrash {
                    shard: self.rng.next_below(profile.ps_shards as u64) as usize,
                    at,
                    restart_after: dur,
                },
                FaultKind::WorkerStall => FaultSpec::WorkerStall {
                    worker: self.rng.next_below(profile.workers as u64) as usize,
                    at,
                    dur,
                },
                FaultKind::WorkerFail => {
                    let worker = self.rng.next_below(profile.workers as u64) as usize;
                    if failed_workers.contains(&worker)
                        || failed_workers.len() + 1 >= profile.workers
                    {
                        continue; // duplicate or would leave no survivor
                    }
                    failed_workers.push(worker);
                    FaultSpec::WorkerFail { worker, at_iter }
                }
                FaultKind::ShardFail => {
                    let shard = self.rng.next_below(profile.ps_shards as u64) as usize;
                    if failed_shards.contains(&shard)
                        || failed_shards.len() + 1 >= profile.ps_shards
                    {
                        continue; // duplicate or would leave no survivor
                    }
                    failed_shards.push(shard);
                    FaultSpec::ShardFail { shard, at_iter }
                }
                FaultKind::WorkerJoin => {
                    // Joiner ids are assigned densely from `workers` in plan
                    // order, as `FaultPlan::validate` requires.
                    let worker = profile.workers + joins;
                    joins += 1;
                    FaultSpec::WorkerJoin { worker, at_iter }
                }
                FaultKind::PayloadCorrupt => FaultSpec::PayloadCorrupt {
                    rate: self.rng.uniform(0.02, 0.30),
                    at,
                    dur,
                },
                FaultKind::CheckpointCorrupt => {
                    let shard = self.rng.next_below(profile.ps_shards as u64) as usize;
                    if corrupt_ckpts.contains(&shard) {
                        continue; // a shard's snapshot is corrupted at most once
                    }
                    corrupt_ckpts.push(shard);
                    FaultSpec::CheckpointCorrupt { shard, at_iter }
                }
            });
        }
        let plan = FaultPlan {
            seed: self.rng.next_u64(),
            faults,
        };
        if cfg!(debug_assertions) {
            plan.validate(profile.workers, profile.ps_shards);
        }
        plan
    }
}

/// Shrink a failing plan to a minimal one that still fails.
///
/// `still_fails` must return `true` when the candidate plan reproduces the
/// original failure. The descent is greedy and deterministic: repeat
/// (1) drop one spec, (2) halve one spec's window, (3) weaken one spec's
/// severity toward harmless — accepting the first candidate the predicate
/// confirms — until a full cycle accepts nothing. The result never has more
/// specs than the input, never has a longer window per surviving spec, and
/// — because the candidate order is a pure function of the plan — the same
/// input plus the same predicate shrinks to the same output.
///
/// If the input itself does not fail, it is returned unchanged.
pub fn shrink<F>(plan: &FaultPlan, mut still_fails: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut cur = plan.clone();
    if !still_fails(&cur) {
        return cur;
    }
    // The dense-joiner-id base is the smallest joiner id in the *original*
    // plan (= the cluster's worker count, since generated plans are dense);
    // it must be fixed up front — once the lowest joiner is dropped, the
    // minimum over survivors would drift upward.
    let join_base = cur
        .faults
        .iter()
        .filter_map(|f| match f {
            FaultSpec::WorkerJoin { worker, .. } => Some(*worker),
            _ => None,
        })
        .min();
    loop {
        let mut progressed = false;
        // Pass 1: drop one spec at a time (scan right-to-left so removal
        // does not disturb the indices still to be tried this pass).
        let mut i = cur.faults.len();
        while i > 0 {
            i -= 1;
            if cur.faults.len() <= 1 {
                break;
            }
            let mut cand = cur.clone();
            cand.faults.remove(i);
            if let Some(base) = join_base {
                renumber_joins(&mut cand.faults, base);
            }
            if still_fails(&cand) {
                cur = cand;
                progressed = true;
            }
        }
        // Pass 2: halve windows (floor 1 ms so the descent terminates).
        for i in 0..cur.faults.len() {
            if let Some(spec) = halve_window(&cur.faults[i]) {
                let mut cand = cur.clone();
                cand.faults[i] = spec;
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }
        // Pass 3: weaken severities toward harmless.
        for i in 0..cur.faults.len() {
            if let Some(spec) = weaken(&cur.faults[i]) {
                let mut cand = cur.clone();
                cand.faults[i] = spec;
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }
        if !progressed {
            return cur;
        }
    }
}

/// Re-assign `WorkerJoin` ids densely from `base` in plan order after a drop,
/// keeping the shrunk candidate inside [`FaultPlan::validate`]'s
/// dense-joiner-id rule.
fn renumber_joins(faults: &mut [FaultSpec], base: usize) {
    let mut next = base;
    for f in faults.iter_mut() {
        if let FaultSpec::WorkerJoin { worker, .. } = f {
            *worker = next;
            next += 1;
        }
    }
}

/// The spec with its window halved, or `None` once it reaches the 1 ms floor.
/// Permanent membership events have no window: only pass 1 (dropping) can
/// shrink them.
fn halve_window(spec: &FaultSpec) -> Option<FaultSpec> {
    const FLOOR: Duration = Duration::from_millis(1);
    let halved = |d: Duration| (d / 2 >= FLOOR).then_some(d / 2);
    Some(match *spec {
        FaultSpec::LinkDown { node, at, dur } => FaultSpec::LinkDown {
            node,
            at,
            dur: halved(dur)?,
        },
        FaultSpec::LinkDegrade {
            node,
            at,
            factor,
            dur,
        } => FaultSpec::LinkDegrade {
            node,
            at,
            factor,
            dur: halved(dur)?,
        },
        FaultSpec::MsgLoss { rate, at, dur } => FaultSpec::MsgLoss {
            rate,
            at,
            dur: halved(dur)?,
        },
        FaultSpec::ShardCrash {
            shard,
            at,
            restart_after,
        } => FaultSpec::ShardCrash {
            shard,
            at,
            restart_after: halved(restart_after)?,
        },
        FaultSpec::WorkerStall { worker, at, dur } => FaultSpec::WorkerStall {
            worker,
            at,
            dur: halved(dur)?,
        },
        FaultSpec::PayloadCorrupt { rate, at, dur } => FaultSpec::PayloadCorrupt {
            rate,
            at,
            dur: halved(dur)?,
        },
        FaultSpec::WorkerFail { .. }
        | FaultSpec::ShardFail { .. }
        | FaultSpec::WorkerJoin { .. }
        | FaultSpec::CheckpointCorrupt { .. } => {
            return None;
        }
    })
}

/// The spec one step weaker (degrade factor halfway to 1, loss rate halved),
/// or `None` when it is already near-harmless or has no severity knob.
fn weaken(spec: &FaultSpec) -> Option<FaultSpec> {
    match *spec {
        FaultSpec::LinkDegrade {
            node,
            at,
            factor,
            dur,
        } if factor < 0.9 => Some(FaultSpec::LinkDegrade {
            node,
            at,
            factor: (factor + (1.0 - factor) / 2.0).min(0.95),
            dur,
        }),
        FaultSpec::MsgLoss { rate, at, dur } if rate > 0.01 => Some(FaultSpec::MsgLoss {
            rate: rate / 2.0,
            at,
            dur,
        }),
        FaultSpec::PayloadCorrupt { rate, at, dur } if rate > 0.01 => {
            Some(FaultSpec::PayloadCorrupt {
                rate: rate / 2.0,
                at,
                dur,
            })
        }
        _ => None,
    }
}

/// Render a plan as copy-pasteable Rust source for a pinned regression test.
///
/// The output constructs the exact plan (including its fault seed) using only
/// `prophet_sim` public API, so a shrunk chaos reproducer can be committed
/// verbatim.
pub fn plan_to_rust(plan: &FaultPlan) -> String {
    let mut out = String::from("FaultPlan {\n");
    let _ = writeln!(out, "    seed: {:#x},", plan.seed);
    out.push_str("    faults: vec![\n");
    for f in &plan.faults {
        let line = match *f {
            FaultSpec::LinkDown { node, at, dur } => format!(
                "FaultSpec::LinkDown {{ node: {node}, at: SimTime::from_nanos({}), \
                 dur: Duration::from_nanos({}) }}",
                at.as_nanos(),
                dur.as_nanos()
            ),
            FaultSpec::LinkDegrade {
                node,
                at,
                factor,
                dur,
            } => format!(
                "FaultSpec::LinkDegrade {{ node: {node}, at: SimTime::from_nanos({}), \
                 factor: {factor:?}, dur: Duration::from_nanos({}) }}",
                at.as_nanos(),
                dur.as_nanos()
            ),
            FaultSpec::MsgLoss { rate, at, dur } => format!(
                "FaultSpec::MsgLoss {{ rate: {rate:?}, at: SimTime::from_nanos({}), \
                 dur: Duration::from_nanos({}) }}",
                at.as_nanos(),
                dur.as_nanos()
            ),
            FaultSpec::ShardCrash {
                shard,
                at,
                restart_after,
            } => format!(
                "FaultSpec::ShardCrash {{ shard: {shard}, at: SimTime::from_nanos({}), \
                 restart_after: Duration::from_nanos({}) }}",
                at.as_nanos(),
                restart_after.as_nanos()
            ),
            FaultSpec::WorkerStall { worker, at, dur } => format!(
                "FaultSpec::WorkerStall {{ worker: {worker}, at: SimTime::from_nanos({}), \
                 dur: Duration::from_nanos({}) }}",
                at.as_nanos(),
                dur.as_nanos()
            ),
            FaultSpec::WorkerFail { worker, at_iter } => {
                format!("FaultSpec::WorkerFail {{ worker: {worker}, at_iter: {at_iter} }}")
            }
            FaultSpec::ShardFail { shard, at_iter } => {
                format!("FaultSpec::ShardFail {{ shard: {shard}, at_iter: {at_iter} }}")
            }
            FaultSpec::WorkerJoin { worker, at_iter } => {
                format!("FaultSpec::WorkerJoin {{ worker: {worker}, at_iter: {at_iter} }}")
            }
            FaultSpec::PayloadCorrupt { rate, at, dur } => format!(
                "FaultSpec::PayloadCorrupt {{ rate: {rate:?}, at: SimTime::from_nanos({}), \
                 dur: Duration::from_nanos({}) }}",
                at.as_nanos(),
                dur.as_nanos()
            ),
            FaultSpec::CheckpointCorrupt { shard, at_iter } => {
                format!("FaultSpec::CheckpointCorrupt {{ shard: {shard}, at_iter: {at_iter} }}")
            }
        };
        let _ = writeln!(out, "        {line},");
    }
    out.push_str("    ],\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn profile() -> ChaosProfile {
        ChaosProfile::for_cluster(2, 1, Duration::from_millis(500))
    }

    #[test]
    fn zero_intensity_is_the_empty_plan_and_draws_nothing() {
        let mut gen = ChaosGen::new(42);
        let before = gen.clone();
        let mut p = profile();
        p.intensity = 0.0;
        assert_eq!(gen.next_plan(&p), FaultPlan::empty());
        // No RNG state was consumed: the next full-intensity plan matches a
        // generator that never saw the inert profile.
        let mut fresh = before;
        let full = profile();
        assert_eq!(gen.next_plan(&full), fresh.next_plan(&full));
    }

    #[test]
    fn empty_kinds_mask_is_inert_too() {
        let mut gen = ChaosGen::new(1);
        let mut p = profile();
        p.kinds = KindMask::NONE;
        assert_eq!(gen.next_plan(&p), FaultPlan::empty());
    }

    #[test]
    fn same_seed_yields_byte_identical_plan_streams() {
        let mut a = ChaosGen::new(42);
        let mut b = ChaosGen::new(42);
        let p = profile();
        for _ in 0..32 {
            assert_eq!(a.next_plan(&p), b.next_plan(&p));
        }
        assert_ne!(
            ChaosGen::new(42).next_plan(&p),
            ChaosGen::new(43).next_plan(&p),
            "different seeds should diverge"
        );
    }

    #[test]
    fn golden_first_plan_for_seed_42() {
        // Pins the sampling algorithm itself: any change to the draw order
        // or distribution shows up as a diff here, which matters because a
        // CI failure is reported by seed alone.
        let plan = ChaosGen::new(42).next_plan(&profile());
        plan.validate(2, 1);
        assert_eq!(
            format!("{plan:?}"),
            "FaultPlan { seed: 15629422884862220533, faults: [ShardCrash { \
             shard: 0, at: t=0.145393s, restart_after: 53.3834ms }] }"
        );
    }

    #[test]
    fn sampled_plans_are_valid_and_cover_every_kind() {
        let mut gen = ChaosGen::new(7);
        let p = profile();
        let mut seen: HashSet<FaultKind> = HashSet::new();
        for _ in 0..200 {
            let plan = gen.next_plan(&p);
            plan.validate(p.workers, p.ps_shards);
            assert!(!plan.is_empty());
            for f in &plan.faults {
                // Bursts may chain past the horizon, but never past 2x.
                assert!(f.at() < SimTime::ZERO + p.horizon * 2);
                seen.insert(f.kind());
            }
        }
        assert_eq!(seen.len(), 5, "kinds never sampled: {seen:?}");
    }

    #[test]
    fn kinds_mask_is_respected() {
        let mut gen = ChaosGen::new(9);
        let mut p = profile();
        p.kinds = KindMask::of(&[FaultKind::MsgLoss, FaultKind::WorkerStall]);
        for _ in 0..50 {
            for f in &gen.next_plan(&p).faults {
                assert!(
                    matches!(f.kind(), FaultKind::MsgLoss | FaultKind::WorkerStall),
                    "disabled kind sampled: {f:?}"
                );
            }
        }
    }

    #[test]
    fn plans_do_eventually_burst_and_overlap() {
        let mut gen = ChaosGen::new(11);
        let mut p = profile();
        p.intensity = 2.0;
        let overlapping = (0..100)
            .map(|_| gen.next_plan(&p))
            .filter(|plan| {
                plan.faults
                    .iter()
                    .enumerate()
                    .any(|(i, a)| plan.faults[..i].iter().any(|b| a.at() < b.until()))
            })
            .count();
        assert!(overlapping > 10, "only {overlapping} plans overlapped");
    }

    fn crash_plan() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::LinkDown {
                node: 0,
                at: SimTime::from_nanos(1_000_000),
                dur: Duration::from_millis(40),
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: SimTime::from_nanos(2_000_000),
                restart_after: Duration::from_millis(80),
            },
            FaultSpec::MsgLoss {
                rate: 0.4,
                at: SimTime::from_nanos(3_000_000),
                dur: Duration::from_millis(60),
            },
        ])
    }

    #[test]
    fn shrink_drops_irrelevant_specs() {
        // Failure reproduces iff the plan still crashes a shard.
        let fails = |p: &FaultPlan| p.faults.iter().any(|f| f.kind() == FaultKind::ShardCrash);
        let small = shrink(&crash_plan(), fails);
        assert_eq!(small.faults.len(), 1);
        assert_eq!(small.faults[0].kind(), FaultKind::ShardCrash);
        assert!(fails(&small));
    }

    #[test]
    fn shrink_is_deterministic_and_never_grows() {
        let fails = |p: &FaultPlan| p.faults.len() >= 2;
        let a = shrink(&crash_plan(), fails);
        let b = shrink(&crash_plan(), fails);
        assert_eq!(a, b);
        assert!(a.faults.len() <= crash_plan().faults.len());
        assert!(fails(&a));
    }

    #[test]
    fn shrink_narrows_windows_and_weakens_severities() {
        let plan = FaultPlan::new(vec![FaultSpec::MsgLoss {
            rate: 0.4,
            at: SimTime::ZERO,
            dur: Duration::from_millis(64),
        }]);
        // Any MsgLoss at all reproduces: the shrinker should drive both the
        // window and the rate to their floors.
        let small = shrink(&plan, |p| {
            p.faults.iter().any(|f| f.kind() == FaultKind::MsgLoss)
        });
        let FaultSpec::MsgLoss { rate, dur, .. } = small.faults[0] else {
            panic!("kind changed: {small:?}");
        };
        assert!(dur < Duration::from_millis(3), "window not narrowed: {dur}");
        assert!(rate <= 0.01 + 1e-9, "rate not weakened: {rate}");
    }

    #[test]
    fn shrink_returns_non_failing_input_unchanged() {
        let plan = crash_plan();
        assert_eq!(shrink(&plan, |_| false), plan);
    }

    #[test]
    fn plan_to_rust_is_copy_pasteable() {
        let src = plan_to_rust(&crash_plan());
        assert!(src.contains("FaultSpec::ShardCrash { shard: 0"));
        assert!(src.contains("seed: 0x7,"));
        assert!(src.contains("SimTime::from_nanos(1000000)"));
        // One line per fault plus the five wrapper lines.
        assert_eq!(src.lines().count(), 5 + crash_plan().faults.len());
    }

    #[test]
    fn kind_mask_round_trips() {
        assert_eq!(KindMask::ALL.kinds().len(), 5);
        assert!(KindMask::NONE.is_empty());
        let m = KindMask::of(&[FaultKind::LinkDown, FaultKind::ShardCrash]);
        assert!(m.contains(FaultKind::LinkDown));
        assert!(m.contains(FaultKind::ShardCrash));
        assert!(!m.contains(FaultKind::MsgLoss));
        assert_eq!(m.kinds(), vec![FaultKind::LinkDown, FaultKind::ShardCrash]);
    }

    #[test]
    fn permanent_masks_partition_the_kinds() {
        assert_eq!(KindMask::PERMANENT.kinds().len(), 3);
        assert!(KindMask::PERMANENT.kinds().iter().all(|k| k.is_permanent()));
        assert_eq!(KindMask::EVERYTHING.kinds().len(), 8);
        // ALL and PERMANENT are disjoint and union to EVERYTHING.
        for k in KindMask::ALL.kinds() {
            assert!(!KindMask::PERMANENT.contains(k));
            assert!(KindMask::EVERYTHING.contains(k));
        }
        for k in KindMask::PERMANENT.kinds() {
            assert!(!KindMask::ALL.contains(k));
            assert!(KindMask::EVERYTHING.contains(k));
        }
    }

    #[test]
    fn churn_profile_covers_permanent_kinds_within_constraints() {
        let p = ChaosProfile::churn(4, 2, Duration::from_millis(500), 12);
        let mut gen = ChaosGen::new(21);
        let mut seen: HashSet<FaultKind> = HashSet::new();
        for _ in 0..300 {
            let plan = gen.next_plan(&p);
            plan.validate(p.workers, p.ps_shards);
            for f in &plan.faults {
                seen.insert(f.kind());
                if let Some(k) = f.at_iter() {
                    assert!(
                        k >= 1 && k < p.iters,
                        "at_iter {k} outside 1..{}: {f:?}",
                        p.iters
                    );
                }
            }
        }
        assert_eq!(seen.len(), 8, "kinds never sampled: {seen:?}");
    }

    #[test]
    fn mixed_profile_covers_every_kind_within_constraints() {
        let p = ChaosProfile::mixed(4, 2, Duration::from_millis(500), 12);
        assert_eq!(KindMask::MIXED.kinds().len(), 10);
        let mut gen = ChaosGen::new(21);
        let mut seen: HashSet<FaultKind> = HashSet::new();
        for _ in 0..300 {
            let plan = gen.next_plan(&p);
            plan.validate(p.workers, p.ps_shards);
            for f in &plan.faults {
                seen.insert(f.kind());
                if let Some(k) = f.at_iter() {
                    assert!(k >= 1 && k < p.iters, "at_iter {k} outside 1..12: {f:?}");
                }
            }
        }
        assert_eq!(seen.len(), 10, "kinds never sampled: {seen:?}");
    }

    #[test]
    fn churn_with_tiny_iteration_horizon_degrades_to_transient_only() {
        // With fewer than 2 iterations there is no boundary to change
        // membership at, so permanent kinds are ineligible...
        let mut p = ChaosProfile::churn(4, 2, Duration::from_millis(500), 1);
        let mut gen = ChaosGen::new(3);
        for _ in 0..50 {
            for f in &gen.next_plan(&p).faults {
                assert!(!f.is_permanent(), "permanent spec at iters=1: {f:?}");
            }
        }
        // ...and a permanent-only mask becomes fully inert (no RNG draws).
        p.kinds = KindMask::PERMANENT;
        let before = gen.clone();
        assert_eq!(gen.next_plan(&p), FaultPlan::empty());
        p.iters = 12;
        let mut fresh = before;
        assert_eq!(gen.next_plan(&p), fresh.next_plan(&p));
    }

    #[test]
    fn churn_stream_is_unchanged_for_transient_profiles() {
        // The churn extension must not perturb pre-churn plan streams: the
        // seed-42 golden (asserted in `golden_first_plan_for_seed_42`) plus
        // this cross-check that `for_cluster` ignores the new machinery.
        let transient = profile();
        let mut a = ChaosGen::new(42);
        let plan = a.next_plan(&transient);
        assert!(plan.faults.iter().all(|f| !f.is_permanent()));
        assert!(!plan.has_permanent());
    }

    #[test]
    fn corruption_profile_covers_its_kinds_within_constraints() {
        let p = ChaosProfile::corruption(4, 3, Duration::from_millis(500), 12);
        let mut gen = ChaosGen::new(17);
        let mut seen: HashSet<FaultKind> = HashSet::new();
        for _ in 0..300 {
            let plan = gen.next_plan(&p);
            plan.validate(p.workers, p.ps_shards);
            for f in &plan.faults {
                seen.insert(f.kind());
                if let FaultSpec::PayloadCorrupt { rate, .. } = *f {
                    assert!((0.02..=0.30).contains(&rate), "rate out of range: {f:?}");
                }
            }
        }
        assert_eq!(
            seen,
            HashSet::from([
                FaultKind::PayloadCorrupt,
                FaultKind::CheckpointCorrupt,
                FaultKind::ShardFail,
            ]),
            "corruption profile sampled the wrong kinds"
        );
    }

    #[test]
    fn corruption_mask_is_disjoint_from_the_legacy_masks() {
        // The corruption kinds sit above bit 7, so every pre-corruption
        // mask value (and therefore every seed-pinned plan stream) is
        // untouched.
        assert_eq!(KindMask::CORRUPTION.kinds().len(), 3);
        assert!(!KindMask::ALL.contains(FaultKind::PayloadCorrupt));
        assert!(!KindMask::EVERYTHING.contains(FaultKind::PayloadCorrupt));
        assert!(!KindMask::EVERYTHING.contains(FaultKind::CheckpointCorrupt));
        assert!(KindMask::CORRUPTION.contains(FaultKind::ShardFail));
        let round = KindMask::of(&KindMask::CORRUPTION.kinds());
        assert_eq!(round, KindMask::CORRUPTION);
    }

    #[test]
    fn corruption_with_tiny_iteration_horizon_skips_checkpoint_corruption() {
        // Below 2 iterations the iteration-indexed kinds (ShardFail and
        // CheckpointCorrupt) have no boundary to fire at; only the windowed
        // PayloadCorrupt remains eligible.
        let p = ChaosProfile::corruption(4, 3, Duration::from_millis(500), 1);
        let mut gen = ChaosGen::new(5);
        for _ in 0..50 {
            for f in &gen.next_plan(&p).faults {
                assert_eq!(f.kind(), FaultKind::PayloadCorrupt, "ineligible: {f:?}");
            }
        }
    }

    #[test]
    fn shrink_weakens_and_narrows_payload_corruption() {
        let plan = FaultPlan::new(vec![
            FaultSpec::PayloadCorrupt {
                rate: 0.3,
                at: SimTime::ZERO,
                dur: Duration::from_millis(64),
            },
            FaultSpec::CheckpointCorrupt {
                shard: 0,
                at_iter: 4,
            },
        ]);
        let small = shrink(&plan, |p| {
            p.faults
                .iter()
                .any(|f| f.kind() == FaultKind::PayloadCorrupt)
        });
        assert_eq!(small.faults.len(), 1);
        let FaultSpec::PayloadCorrupt { rate, dur, .. } = small.faults[0] else {
            panic!("kind changed: {small:?}");
        };
        assert!(dur < Duration::from_millis(3), "window not narrowed: {dur}");
        assert!(rate <= 0.01 + 1e-9, "rate not weakened: {rate}");
        let src = plan_to_rust(&plan);
        assert!(src.contains("FaultSpec::PayloadCorrupt { rate: 0.3"));
        assert!(src.contains("FaultSpec::CheckpointCorrupt { shard: 0, at_iter: 4 }"));
    }

    #[test]
    fn shrink_renumbers_joiners_after_a_drop() {
        let plan = FaultPlan::new(vec![
            FaultSpec::WorkerJoin {
                worker: 4,
                at_iter: 2,
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: SimTime::from_nanos(2_000_000),
                restart_after: Duration::from_millis(80),
            },
            FaultSpec::WorkerJoin {
                worker: 5,
                at_iter: 6,
            },
        ]);
        plan.validate(4, 1);
        // Failure reproduces iff the *second* join (at_iter 6) survives: the
        // shrinker drops the first join and the crash, and must renumber the
        // survivor's id back down to 4 to stay dense.
        let small = shrink(&plan, |p| {
            p.faults
                .iter()
                .any(|f| matches!(f, FaultSpec::WorkerJoin { at_iter: 6, .. }))
        });
        small.validate(4, 1);
        assert_eq!(small.faults.len(), 1);
        assert!(
            matches!(
                small.faults[0],
                FaultSpec::WorkerJoin {
                    worker: 4,
                    at_iter: 6
                }
            ),
            "joiner not renumbered: {small:?}"
        );
    }

    #[test]
    fn plan_to_rust_renders_permanent_specs() {
        let plan = FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 1,
                at_iter: 3,
            },
            FaultSpec::ShardFail {
                shard: 0,
                at_iter: 5,
            },
            FaultSpec::WorkerJoin {
                worker: 4,
                at_iter: 2,
            },
        ]);
        let src = plan_to_rust(&plan);
        assert!(src.contains("FaultSpec::WorkerFail { worker: 1, at_iter: 3 }"));
        assert!(src.contains("FaultSpec::ShardFail { shard: 0, at_iter: 5 }"));
        assert!(src.contains("FaultSpec::WorkerJoin { worker: 4, at_iter: 2 }"));
        assert_eq!(src.lines().count(), 5 + plan.faults.len());
    }
}
