//! The Prophet scheduler — the paper's contribution, in its online form.
//!
//! Lifecycle (§4.2, Fig. 7):
//!
//! 1. **Profiling phase** (default 50 iterations): the job runs under the
//!    framework's stock FIFO behaviour while the Training Job Profiler
//!    records each gradient's release offset. This is why Fig. 13 shows
//!    Prophet *slightly behind* ByteScheduler in the first seconds.
//! 2. **Planning**: the profile's stepwise blocks give the predicted
//!    generation instants; together with the Network Bandwidth Monitor's
//!    estimate they parameterise the block assembler.
//! 3. **Scheduled phase** — the runtime form of Algorithm 1, expressed as
//!    a **dynamic credit**. Messages go out in strict priority order
//!    (whole tensors, sliced at a cap so a fat tensor never delays what
//!    follows), and the total payload in flight is bounded by a credit
//!    that the predictions size: during backward propagation everything in
//!    flight must drain before **gradient 0's predicted generation**
//!    (Constraint 11 applied where it pays — see DESIGN.md §5), so the
//!    wire is both fully used and free the moment the critical gradient
//!    appears. A tensor that does not fit the remaining budget ships as a
//!    partial slice — Fig. 5's "only two partitions of gradient 1 can be
//!    transmitted before gradient 0 is generated". The credit's steady
//!    level adapts to the regime: deep when the job is communication-
//!    bound (throughput is everything), lean when compute and
//!    communication balance (per-gradient update latency is what the
//!    forward pass actually waits on).
//! 4. **Re-planning**: whenever the monitored bandwidth moves more than
//!    `replan_tolerance` from the estimate in force, deadlines and credits
//!    are re-derived — the paper's answer to dynamic networks.
//!
//! This is exactly the "dynamic gradient block size for each iteration"
//! the paper contrasts with ByteScheduler's static credit (§6.2): the
//! block/credit size is recomputed continuously from the profile and the
//! monitored bandwidth instead of being a tuned constant.
//!
//! The literal offline Algorithm 1 lives in [`crate::plan`]; the runtime
//! here generalises it from whole-tensor start times to credit form, which
//! is what makes it work-conserving under prediction error.

use crate::plan::{prophet_plan, PlanInput, ProphetPlan};
use crate::profiler::{JobProfile, JobProfiler};
use crate::task::{CommScheduler, Dir, TransferTask};
use prophet_dnn::GradientId;
use prophet_net::TcpModel;
use prophet_sim::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Tunables of the Prophet prototype.
#[derive(Debug, Clone)]
pub struct ProphetConfig {
    /// Iterations of profiling before the first plan (paper: 50).
    pub profile_iters: u64,
    /// Relative bandwidth change that triggers a re-plan (e.g. 0.1 = 10 %).
    pub replan_tolerance: f64,
    /// Transport model used for `E(i)` estimates.
    pub tcp: TcpModel,
    /// Bandwidth assumed before the monitor's first report, bytes/sec.
    pub initial_bandwidth_bps: f64,
    /// The in-flight byte ceiling when the iteration is communication-
    /// bound: throughput is everything, so the pipeline runs deep.
    pub base_credit_bytes: u64,
    /// The ceiling when communication and compute are balanced: a lean
    /// pipeline keeps per-gradient update latency low, which is what the
    /// forward pass actually waits on once the wire has spare capacity.
    pub lean_credit_bytes: u64,
    /// Regime threshold on `(total_bytes / bandwidth) / backward_time`:
    /// above it the job is communication-bound (use the base credit),
    /// below it balanced/compute-bound (use the lean credit). Prophet can
    /// pick the regime because — unlike ByteScheduler's static credit —
    /// it holds both the profile and the bandwidth estimate.
    pub comm_ratio_threshold: f64,
    /// Smallest partial slice worth its per-message overhead, bytes.
    pub min_slice_bytes: u64,
    /// Largest single message: tensors bigger than this are sliced so one
    /// fat tensor never delays the completion of what follows it.
    pub max_message_bytes: u64,
    /// Fallback window when jitter has the backward pass running past the
    /// last profiled burst: the credit stays this small so gradient 0
    /// preempts promptly when it finally appears.
    pub forward_horizon: Duration,
    /// Safety factor on gradient 0's predicted generation time: the credit
    /// drains toward `(1 - safety) x c0_predicted`, absorbing run-to-run
    /// compute jitter so the wire is free even when backward finishes a
    /// little early. Costs a short idle when backward runs late.
    pub deadline_safety: f64,
    /// How long the scheduler trusts a bandwidth estimate. If the monitor
    /// goes silent for longer than this (its reports ride the data path, so
    /// a dead link starves them too), the plan's deadlines are anchored to
    /// a world that no longer exists and the scheduler degrades to its
    /// conservative mode until a fresh estimate arrives.
    pub estimate_staleness: Duration,
    /// Consecutive monitor estimates within `replan_tolerance` of each
    /// other required to leave degraded mode: one clean report may just be
    /// a quiet window mid-fault, two in a row means the profile's regime
    /// is back.
    pub recover_updates: u32,
}

impl ProphetConfig {
    /// The paper's defaults on a `bps`-class network.
    pub fn paper_default(bps: f64) -> Self {
        ProphetConfig {
            profile_iters: 50,
            replan_tolerance: 0.10,
            tcp: TcpModel::EC2,
            initial_bandwidth_bps: bps,
            base_credit_bytes: 12 << 20,
            lean_credit_bytes: 4 << 20,
            comm_ratio_threshold: 1.2,
            min_slice_bytes: 256 << 10,
            max_message_bytes: 4 << 20,
            forward_horizon: Duration::from_millis(20),
            deadline_safety: 0.04,
            estimate_staleness: Duration::from_secs(12),
            recover_updates: 2,
        }
    }
}

enum Mode {
    /// Stock FIFO behaviour while the profiler fills its window.
    Profiling,
    /// Scheduled: window-sized blocks during backward, horizon-capped
    /// blocks during forward. Holds the predicted burst instants
    /// (offsets from backward start, ascending, deduplicated).
    Planned { bursts: Vec<Duration> },
}

/// The Prophet scheduler (one per worker).
pub struct ProphetScheduler {
    cfg: ProphetConfig,
    sizes: Vec<u64>,
    /// Sum of `sizes`: the model's bytes, read on every poll.
    total_bytes: u64,
    mode: Mode,
    profiler: JobProfiler,
    profile: Option<JobProfile>,
    bandwidth_bps: f64,
    planned_bandwidth_bps: f64,

    // Per-iteration runtime state.
    iter_start: SimTime,
    /// Ready-but-unsent gradient payload: id → remaining bytes.
    ready: BTreeMap<GradientId, u64>,
    fifo_order: VecDeque<GradientId>, // arrival order, for the profiling mode
    forward_phase: bool,
    push_inflight_bytes: u64,

    // Pull side.
    pull_ready: BTreeMap<GradientId, u64>,
    pull_inflight_bytes: u64,

    // Fault awareness. The plan is only as good as the bandwidth estimate
    // and the profile behind it; when transfers start failing or the
    // monitor goes quiet, predicted deadlines are fiction and the safe
    // fallback is a FIFO-equivalent trickle (ISSUE: graceful degradation).
    degraded: bool,
    stable_updates: u32,
    failures_since_update: u32,
    last_bandwidth_update: Option<SimTime>,
}

impl ProphetScheduler {
    /// Fully online: profile first, then plan.
    pub fn online(sizes: Vec<u64>, cfg: ProphetConfig) -> Self {
        let profiler = JobProfiler::new(sizes.clone(), cfg.profile_iters);
        let bandwidth = cfg.initial_bandwidth_bps;
        ProphetScheduler {
            cfg,
            total_bytes: sizes.iter().sum(),
            sizes,
            mode: Mode::Profiling,
            profiler,
            profile: None,
            bandwidth_bps: bandwidth,
            planned_bandwidth_bps: bandwidth,
            iter_start: SimTime::ZERO,
            ready: BTreeMap::new(),
            fifo_order: VecDeque::new(),
            forward_phase: false,
            push_inflight_bytes: 0,
            pull_ready: BTreeMap::new(),
            pull_inflight_bytes: 0,
            degraded: false,
            stable_updates: 0,
            failures_since_update: 0,
            last_bandwidth_update: None,
        }
    }

    /// Pre-profiled: skip the profiling phase (used when the profile was
    /// collected in an earlier run, and in experiments isolating the
    /// steady-state behaviour).
    pub fn with_profile(sizes: Vec<u64>, profile: JobProfile, cfg: ProphetConfig) -> Self {
        let mut s = Self::online(sizes, cfg);
        s.adopt_profile(profile);
        s
    }

    fn adopt_profile(&mut self, profile: JobProfile) {
        self.profile = Some(profile);
        self.replan();
    }

    fn replan(&mut self) {
        let Some(profile) = &self.profile else { return };
        let mut bursts = profile.snapped_c();
        bursts.sort_unstable();
        bursts.dedup();
        self.planned_bandwidth_bps = self.bandwidth_bps;
        self.mode = Mode::Planned { bursts };
    }

    /// Whether the scheduler has left the profiling phase.
    pub fn is_planned(&self) -> bool {
        matches!(self.mode, Mode::Planned { .. })
    }

    /// Whether the scheduler is running in its degraded, conservatively-
    /// credited mode (transfers failing, or the bandwidth estimate stale).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Enter degraded mode when the bandwidth estimate in force has gone
    /// stale: the monitor's reports ride the same network as the payload,
    /// so a regime break that kills transfers also starves the estimate.
    /// `None` (no report yet) never counts as stale — runtimes without a
    /// monitor keep full Prophet behaviour.
    fn check_staleness(&mut self, now: SimTime) {
        if self.degraded || !self.is_planned() {
            return;
        }
        let Some(at) = self.last_bandwidth_update else {
            return;
        };
        if now.saturating_since(at) > self.cfg.estimate_staleness {
            self.degraded = true;
            self.stable_updates = 0;
        }
    }

    /// The literal offline Algorithm 1 plan for the adopted profile and
    /// current bandwidth estimate (diagnostics/analysis; the runtime uses
    /// the partition-granularity assembler described in the module docs).
    pub fn offline_plan(&self) -> Option<ProphetPlan> {
        let profile = self.profile.as_ref()?;
        Some(prophet_plan(&PlanInput {
            c: profile.snapped_c(),
            s: profile.s.clone(),
            bandwidth_bps: self.bandwidth_bps,
            tcp: self.cfg.tcp,
        }))
    }

    /// The bandwidth estimate currently in force.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bps
    }

    /// The bandwidth the current plan was anchored to.
    pub fn planned_bandwidth(&self) -> f64 {
        self.planned_bandwidth_bps
    }

    /// The steady credit for the current regime (see
    /// [`ProphetConfig::comm_ratio_threshold`]).
    fn regime_credit(&self) -> u64 {
        let total = self.total_bytes;
        let c0 = match &self.mode {
            Mode::Planned { bursts } => bursts.last().copied().unwrap_or(Duration::ZERO),
            Mode::Profiling => Duration::ZERO,
        };
        if c0.is_zero() || self.bandwidth_bps <= 0.0 {
            return self.cfg.base_credit_bytes;
        }
        let comm_s = total as f64 / self.bandwidth_bps;
        let ratio = comm_s / c0.as_secs_f64();
        if ratio > self.cfg.comm_ratio_threshold {
            self.cfg.base_credit_bytes
        } else {
            self.cfg.lean_credit_bytes
        }
    }

    /// The dynamic credit: how many payload bytes may be in flight right
    /// now. In the forward phase (and far from gradient 0's predicted
    /// generation) it is the regime credit; as the prediction approaches,
    /// it shrinks toward zero so the wire is guaranteed free the moment
    /// the critical gradient appears — the paper's "dynamic gradient block
    /// size" against ByteScheduler's static credit.
    fn dynamic_credit(&self, now: SimTime) -> u64 {
        let steady = self.regime_credit();
        match &self.mode {
            Mode::Profiling => u64::MAX, // FIFO path manages itself
            Mode::Planned { bursts } => {
                if self.forward_phase {
                    return steady;
                }
                let offset = now.saturating_since(self.iter_start);
                let deadline = bursts.last().map(|&c0| {
                    Duration::from_secs_f64(c0.as_secs_f64() * (1.0 - self.cfg.deadline_safety))
                });
                let window = match deadline {
                    Some(c0) if c0 > offset => c0 - offset,
                    // Jitter has us past the predicted end of backward,
                    // still waiting for gradient 0: stay small so it
                    // preempts promptly when it lands.
                    _ => self.cfg.forward_horizon,
                };
                let deliverable = (window.as_secs_f64() * self.bandwidth_bps) as u64;
                deliverable.min(steady)
            }
        }
    }

    /// Admit the next message from `queue` under `avail` spare credit:
    /// strict priority order, whole tensors up to the message cap, and a
    /// partial slice (>= min_slice) when the credit runs short — Fig. 5's
    /// "only two partitions of gradient 1 can be transmitted before
    /// gradient 0 is generated".
    fn admit(
        cfg: &ProphetConfig,
        queue: &mut BTreeMap<GradientId, u64>,
        avail: u64,
        dir: Dir,
    ) -> Option<TransferTask> {
        let (&g, rem) = queue.iter_mut().next()?;
        let take = (*rem).min(cfg.max_message_bytes.max(4)).min(avail / 4 * 4);
        if take == 0 {
            return None;
        }
        if take < *rem && take < cfg.min_slice_bytes.max(4) {
            // A sliver is not worth a message; wait for credit to free up.
            return None;
        }
        *rem -= take;
        if *rem == 0 {
            queue.remove(&g);
        }
        Some(TransferTask {
            dir,
            bytes: take,
            pieces: vec![(g, take)],
        })
    }

    fn next_push(&mut self, now: SimTime) -> Option<TransferTask> {
        match &self.mode {
            Mode::Profiling => {
                // Stock FIFO while profiling: blocking whole-tensor sends.
                if self.push_inflight_bytes > 0 {
                    return None;
                }
                let g = self.fifo_order.pop_front()?;
                let bytes = self.ready.remove(&g)?;
                self.push_inflight_bytes += bytes;
                Some(TransferTask::whole(Dir::Push, g, bytes))
            }
            Mode::Planned { .. } if self.degraded => {
                // Degraded: the plan's deadlines are untrustworthy, so fall
                // back to a FIFO-equivalent conservative credit — one capped
                // message in flight at a time, still in priority order. No
                // prediction is consulted, so nothing mispredicts.
                if self.push_inflight_bytes > 0 {
                    return None;
                }
                let avail = self.cfg.max_message_bytes.max(4);
                let task = Self::admit(&self.cfg, &mut self.ready, avail, Dir::Push)?;
                self.push_inflight_bytes += task.bytes;
                Some(task)
            }
            Mode::Planned { .. } => {
                let credit = self.dynamic_credit(now);
                let avail = credit.saturating_sub(self.push_inflight_bytes);
                let task = Self::admit(&self.cfg, &mut self.ready, avail, Dir::Push)?;
                self.push_inflight_bytes += task.bytes;
                Some(task)
            }
        }
    }

    fn next_pull(&mut self, _now: SimTime) -> Option<TransferTask> {
        // Pulls run at the regime credit throughout: parameters aggregate
        // in rough priority order anyway, and the late-backward
        // aggregations are tiny, so the pull queue is naturally shallow by
        // the time parameter 0 lands — deadline-throttling here would only
        // bleed throughput.
        let avail = self
            .regime_credit()
            .saturating_sub(self.pull_inflight_bytes);
        let task = Self::admit(&self.cfg, &mut self.pull_ready, avail, Dir::Pull)?;
        self.pull_inflight_bytes += task.bytes;
        Some(task)
    }
}

impl CommScheduler for ProphetScheduler {
    fn name(&self) -> String {
        "prophet".into()
    }

    fn iteration_begin(&mut self, now: SimTime, _iter: u64) {
        self.iter_start = now;
        self.ready.clear();
        self.fifo_order.clear();
        self.forward_phase = false;
    }

    fn gradient_ready(&mut self, now: SimTime, grad: GradientId) {
        let offset = now.saturating_since(self.iter_start);
        if !self.profiler.is_complete() {
            self.profiler.record(grad, offset);
        }
        self.ready.insert(grad, self.sizes[grad]);
        self.fifo_order.push_back(grad);
        if grad == 0 {
            // Backward propagation is over (§4.1: gradient 0's generation
            // marks the boundary); from here, strict priority order.
            self.forward_phase = true;
        }
    }

    fn param_ready(&mut self, _now: SimTime, grad: GradientId) {
        self.pull_ready.insert(grad, self.sizes[grad]);
    }

    fn next_task(&mut self, now: SimTime) -> Option<TransferTask> {
        self.check_staleness(now);
        if let Some(t) = self.next_push(now) {
            return Some(t);
        }
        self.next_pull(now)
    }

    fn task_done(&mut self, _now: SimTime, task: &TransferTask) {
        match task.dir {
            Dir::Push => {
                self.push_inflight_bytes = self.push_inflight_bytes.saturating_sub(task.bytes)
            }
            Dir::Pull => {
                self.pull_inflight_bytes = self.pull_inflight_bytes.saturating_sub(task.bytes)
            }
        }
    }

    fn iteration_end(&mut self, _now: SimTime, _iter: u64, _iter_time: Duration) {
        if !self.profiler.is_complete() {
            self.profiler.iteration_complete();
            if self.profiler.is_complete() {
                if let Some(profile) = self.profiler.profile() {
                    self.adopt_profile(profile);
                }
            }
        }
    }

    fn bandwidth_update(&mut self, now: SimTime, bps: f64) {
        if !(bps.is_finite() && bps > 0.0) {
            return;
        }
        let prev = self.bandwidth_bps;
        self.bandwidth_bps = bps;
        self.last_bandwidth_update = Some(now);
        if self.failures_since_update > 0 {
            // The estimate's window saw lost or killed transfers: the
            // measured goodput is loss-inflated noise, not a regime. Adopt
            // it as a rough number but do not trust it enough to plan.
            self.failures_since_update = 0;
            self.stable_updates = 0;
            if self.is_planned() {
                self.degraded = true;
            }
            return;
        }
        if self.degraded {
            // Leave degraded mode only once the monitor settles: two
            // consecutive clean estimates agreeing within the re-plan
            // tolerance mean the profile's regime is back in force.
            let rel = (bps - prev).abs() / prev;
            if rel <= self.cfg.replan_tolerance {
                self.stable_updates += 1;
                if self.stable_updates >= self.cfg.recover_updates {
                    self.degraded = false;
                    self.stable_updates = 0;
                    self.replan();
                }
            } else {
                self.stable_updates = 0;
            }
            return;
        }
        if self.is_planned() {
            let rel = (bps - self.planned_bandwidth_bps).abs() / self.planned_bandwidth_bps;
            if rel > self.cfg.replan_tolerance {
                self.replan();
            }
        }
    }

    fn transfer_failed(&mut self, _now: SimTime, _task: &TransferTask) {
        // A killed or lost message means the network has left the regime
        // the plan assumed. The profiling phase is already a blocking FIFO,
        // so there is nothing more conservative to fall back to there.
        self.failures_since_update += 1;
        self.stable_updates = 0;
        if self.is_planned() {
            self.degraded = true;
        }
    }

    fn is_degraded(&self) -> bool {
        ProphetScheduler::is_degraded(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn at(x: u64) -> SimTime {
        SimTime::ZERO + ms(x)
    }

    fn cfg() -> ProphetConfig {
        ProphetConfig {
            profile_iters: 2,
            replan_tolerance: 0.10,
            tcp: TcpModel::IDEAL,
            initial_bandwidth_bps: 1e6, // 1 kB/ms
            base_credit_bytes: 100_000,
            lean_credit_bytes: 100_000,
            comm_ratio_threshold: 0.0,
            min_slice_bytes: 1_000,
            max_message_bytes: 8_000,
            forward_horizon: ms(2),
            deadline_safety: 0.0,
            estimate_staleness: ms(100),
            recover_updates: 2,
        }
    }

    /// Profile: bursts {2,3} at 0 ms, {1} at 10 ms, {0} at 20 ms; 4 kB
    /// tensors -> 4 ms wire time each at 1 MB/s.
    fn profile() -> JobProfile {
        JobProfile {
            c: vec![ms(20), ms(10), ms(0), ms(0)],
            s: vec![4_000; 4],
            blocks: vec![vec![2, 3], vec![1], vec![0]],
            iterations: 50,
        }
    }

    fn planned() -> ProphetScheduler {
        ProphetScheduler::with_profile(vec![4_000; 4], profile(), cfg())
    }

    #[test]
    fn streams_ready_gradients_in_priority_order() {
        let mut s = planned();
        assert!(s.is_planned());
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 3);
        s.gradient_ready(at(0), 2);
        // Credit at t=0: min(base, 20 ms x 1 kB/ms = 20 kB) = 20 kB —
        // both tensors admitted immediately, highest priority first.
        let a = s.next_task(at(0)).unwrap();
        let b = s.next_task(at(0)).unwrap();
        assert_eq!(a.pieces, vec![(2, 4_000)]);
        assert_eq!(b.pieces, vec![(3, 4_000)]);
        assert!(s.next_task(at(0)).is_none(), "queue drained");
    }

    #[test]
    fn credit_shrinks_toward_gradient_zero() {
        // Fat tensors: 40 kB each; the window to gradient 0 at t=0 is
        // 20 ms = 20 kB. Admissions stop once 20 kB are in flight.
        let mut prof = profile();
        prof.s = vec![40_000; 4];
        let mut s = ProphetScheduler::with_profile(vec![40_000; 4], prof, cfg());
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 3);
        s.gradient_ready(at(0), 2);
        let mut inflight = 0u64;
        let mut msgs = Vec::new();
        while let Some(t) = s.next_task(at(0)) {
            inflight += t.bytes;
            msgs.push(t);
        }
        assert!(inflight <= 20_000, "overran the c0 deadline: {inflight}");
        assert!(inflight >= 16_000, "wire under-filled: {inflight}");
        // First admissions serve gradient 2 (highest priority ready),
        // sliced at the 8 kB message cap.
        assert_eq!(msgs[0].pieces[0].0, 2);
        assert!(msgs[0].bytes <= 8_000);
        // As in-flight drains, more credit opens up.
        for t in &msgs {
            s.task_done(at(5), t);
        }
        assert!(s.next_task(at(5)).is_some(), "freed credit must re-admit");
    }

    #[test]
    fn wire_free_at_predicted_gradient_zero() {
        // Just before the predicted c0, remaining credit is a sliver
        // (< min_slice): nothing new is admitted, so everything in flight
        // drains by c0.
        let mut prof = profile();
        prof.s = vec![40_000; 4];
        let mut s = ProphetScheduler::with_profile(vec![40_000; 4], prof, cfg());
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 3);
        s.gradient_ready(at(0), 2);
        while s.next_task(at(0)).is_some() {}
        // 19.5 ms: window 0.5 ms = 500 B < min_slice, and in-flight > 0.
        let late = SimTime::ZERO + Duration::from_micros(19_500);
        assert!(s.next_task(late).is_none());
    }

    #[test]
    fn gradient_zero_preempts_immediately() {
        let mut s = planned();
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 3);
        s.gradient_ready(at(0), 2);
        let a = s.next_task(at(0)).unwrap();
        let b = s.next_task(at(0)).unwrap();
        s.task_done(at(8), &a);
        s.task_done(at(8), &b);
        // Jitter: gradient 0 lands early, gradient 1 right after.
        s.gradient_ready(at(15), 0);
        s.gradient_ready(at(16), 1);
        let next = s.next_task(at(16)).unwrap();
        assert_eq!(next.pieces[0].0, 0, "gradient 0 must lead");
        let after = s.next_task(at(16)).unwrap();
        assert_eq!(after.pieces[0].0, 1);
    }

    #[test]
    fn message_cap_slices_fat_tensors() {
        let mut prof = profile();
        prof.s = vec![4_000, 30_000, 4_000, 4_000];
        let mut s = ProphetScheduler::with_profile(vec![4_000, 30_000, 4_000, 4_000], prof, cfg());
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(20), 0); // forward phase directly
        s.gradient_ready(at(20), 1);
        let mut sizes = Vec::new();
        while let Some(t) = s.next_task(at(20)) {
            assert!(t.bytes <= 8_000, "message over cap: {}", t.bytes);
            sizes.push((t.pieces[0].0, t.bytes));
            s.task_done(at(20), &t);
        }
        assert_eq!(sizes[0], (0, 4_000));
        let total_1: u64 = sizes.iter().filter(|x| x.0 == 1).map(|x| x.1).sum();
        assert_eq!(total_1, 30_000, "tensor 1 fully sliced out");
    }

    #[test]
    fn profiling_mode_is_fifo_and_learns() {
        let mut s = ProphetScheduler::online(vec![4_000; 4], cfg());
        assert!(!s.is_planned());
        let run_iter = |s: &mut ProphetScheduler| {
            s.iteration_begin(at(0), 0);
            let mut order = Vec::new();
            let drive = |s: &mut ProphetScheduler, now: SimTime, order: &mut Vec<usize>| {
                while let Some(t) = s.next_task(now) {
                    order.push(t.pieces[0].0);
                    s.task_done(now, &t);
                }
            };
            s.gradient_ready(at(0), 3);
            s.gradient_ready(at(0), 2);
            drive(s, at(0), &mut order);
            s.gradient_ready(at(10), 1);
            drive(s, at(10), &mut order);
            s.gradient_ready(at(20), 0);
            drive(s, at(20), &mut order);
            s.iteration_end(at(30), 0, ms(30));
            order
        };
        let order = run_iter(&mut s);
        assert_eq!(order, vec![3, 2, 1, 0], "profiling phase must be FIFO");
        assert!(!s.is_planned(), "window of 2 not yet filled");
        run_iter(&mut s);
        assert!(s.is_planned());
        // The adopted profile reproduces the offline Algorithm 1 blocks.
        let plan = s.offline_plan().unwrap();
        assert_eq!(plan.backward_blocks.len(), 2);
        assert_eq!(plan.backward_blocks[0].grads, vec![2, 3]);
        assert_eq!(plan.backward_blocks[1].grads, vec![1]);
    }

    #[test]
    fn pulls_are_priority_ordered_with_dynamic_credit() {
        let mut s = planned();
        s.iteration_begin(at(0), 0);
        s.param_ready(at(0), 2);
        s.param_ready(at(0), 1);
        s.param_ready(at(0), 3);
        let a = s.next_task(at(0)).unwrap();
        assert_eq!(a.dir, Dir::Pull);
        assert_eq!(a.top_priority(), 1);
        // Credit at t=0 is 20 kB: all three 4 kB params admitted.
        let b = s.next_task(at(0)).unwrap();
        let c = s.next_task(at(0)).unwrap();
        assert_eq!(b.top_priority(), 2);
        assert_eq!(c.top_priority(), 3);
        assert!(s.next_task(at(0)).is_none());
    }

    #[test]
    fn pulls_run_at_regime_credit_not_deadline() {
        // Pulls are not deadline-throttled: all 40 kB admitted at once
        // even though the push side's c0 window is only 20 kB.
        let mut prof = profile();
        prof.s = vec![40_000; 4];
        let mut s = ProphetScheduler::with_profile(vec![40_000; 4], prof, cfg());
        s.iteration_begin(at(0), 0);
        s.param_ready(at(0), 2);
        let mut inflight = 0u64;
        while let Some(t) = s.next_task(at(0)) {
            assert_eq!(t.dir, Dir::Pull);
            inflight += t.bytes;
        }
        assert_eq!(inflight, 40_000, "pull should stream at regime credit");
    }

    #[test]
    fn regime_credit_switches_on_comm_ratio() {
        // comm/backward ratio: total 16 kB at 1 MB/s = 16 ms over a 20 ms
        // backward = 0.8. With threshold 0.5 that is comm-bound -> base;
        // with threshold 1.0 it is balanced -> lean.
        let mut c = cfg();
        c.base_credit_bytes = 50_000;
        c.lean_credit_bytes = 7_000;
        c.comm_ratio_threshold = 0.5;
        let deep = ProphetScheduler::with_profile(vec![4_000; 4], profile(), c.clone());
        assert_eq!(deep.regime_credit(), 50_000);
        c.comm_ratio_threshold = 1.0;
        let lean = ProphetScheduler::with_profile(vec![4_000; 4], profile(), c);
        assert_eq!(lean.regime_credit(), 7_000);
    }

    #[test]
    fn replans_on_big_bandwidth_change() {
        let mut s = planned();
        let before = s.offline_plan().unwrap().transfer_times[0];
        s.bandwidth_update(at(0), 2e6); // 2x faster: outside 10 % tolerance
        assert_eq!(s.bandwidth(), 2e6);
        let after = s.offline_plan().unwrap().transfer_times[0];
        assert!(after < before, "plan should adopt the faster bandwidth");
        assert_eq!(s.planned_bandwidth(), 2e6);
        // A small change inside tolerance does not re-anchor the plan.
        s.bandwidth_update(at(1), 2.05e6);
        assert_eq!(s.planned_bandwidth(), 2e6);
    }

    #[test]
    fn ignores_degenerate_bandwidth() {
        let mut s = planned();
        s.bandwidth_update(at(0), 0.0);
        s.bandwidth_update(at(0), f64::NAN);
        assert!(s.is_planned());
        assert_eq!(s.bandwidth(), 1e6);
    }

    #[test]
    fn transfer_failure_degrades_to_blocking_sends() {
        let mut s = planned();
        assert!(!s.is_degraded());
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 3);
        s.gradient_ready(at(0), 2);
        let a = s.next_task(at(0)).unwrap();
        s.transfer_failed(at(1), &a);
        assert!(s.is_degraded());
        // Degraded: nothing new while `a` is still in flight...
        assert!(s.next_task(at(1)).is_none());
        s.task_done(at(2), &a);
        // ...then exactly one capped message at a time, priority order.
        let b = s.next_task(at(2)).unwrap();
        assert_eq!(b.pieces, vec![(3, 4_000)]);
        assert!(s.next_task(at(2)).is_none(), "one in flight at a time");
    }

    #[test]
    fn degraded_mode_recovers_after_stable_estimates() {
        let mut s = planned();
        let t = TransferTask::whole(Dir::Push, 2, 4_000);
        s.transfer_failed(at(0), &t);
        assert!(s.is_degraded());
        // First estimate after a failure window is distrusted outright.
        s.bandwidth_update(at(10), 1e6);
        assert!(s.is_degraded());
        // Two consecutive agreeing clean estimates restore planned mode.
        s.bandwidth_update(at(20), 1.02e6);
        assert!(s.is_degraded(), "one stable update is not enough");
        s.bandwidth_update(at(30), 1.01e6);
        assert!(!s.is_degraded());
        assert_eq!(s.planned_bandwidth(), 1.01e6, "recovery re-plans");
    }

    #[test]
    fn unstable_estimates_keep_the_scheduler_degraded() {
        let mut s = planned();
        let t = TransferTask::whole(Dir::Push, 2, 4_000);
        s.transfer_failed(at(0), &t);
        s.bandwidth_update(at(10), 1e6); // clears the failure window
        s.bandwidth_update(at(20), 1.05e6); // stable #1
        s.bandwidth_update(at(30), 0.5e6); // swing: resets the streak
        assert!(s.is_degraded());
        s.bandwidth_update(at(40), 0.51e6); // stable #1 again
        assert!(s.is_degraded());
        s.bandwidth_update(at(50), 0.52e6); // stable #2 -> recovered
        assert!(!s.is_degraded());
    }

    #[test]
    fn stale_estimate_degrades_and_fresh_reports_recover() {
        let mut s = planned();
        s.bandwidth_update(at(0), 1e6);
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 2);
        // cfg() staleness is 100 ms: at 50 ms the estimate is fresh.
        assert!(s.next_task(at(50)).is_some());
        assert!(!s.is_degraded());
        // At 200 ms the monitor has gone silent past the staleness bound.
        s.gradient_ready(at(200), 3);
        let _ = s.next_task(at(200));
        assert!(s.is_degraded());
        // Two fresh agreeing estimates bring it back.
        s.bandwidth_update(at(210), 1e6);
        s.bandwidth_update(at(220), 1e6);
        assert!(!s.is_degraded());
    }

    #[test]
    fn no_monitor_means_never_stale() {
        let mut s = planned();
        s.iteration_begin(at(0), 0);
        s.gradient_ready(at(0), 2);
        // No bandwidth_update ever delivered: even far in the future the
        // scheduler keeps full planned behaviour (threaded runtime has no
        // monitor wired up).
        assert!(s.next_task(at(1_000_000)).is_some());
        assert!(!s.is_degraded());
    }

    #[test]
    fn failure_during_profiling_does_not_degrade() {
        let mut s = ProphetScheduler::online(vec![4_000; 4], cfg());
        let t = TransferTask::whole(Dir::Push, 2, 4_000);
        s.transfer_failed(at(0), &t);
        assert!(!s.is_degraded(), "profiling FIFO is already conservative");
    }

    #[test]
    fn conserves_bytes_across_an_iteration() {
        let sizes = vec![4_000u64, 20_000, 4_000, 4_000];
        let mut prof = profile();
        prof.s = sizes.clone();
        let mut s = ProphetScheduler::with_profile(sizes.clone(), prof, cfg());
        s.iteration_begin(at(0), 0);
        let mut moved = vec![0u64; 4];
        let drive = |s: &mut ProphetScheduler, now: SimTime, moved: &mut Vec<u64>| {
            while let Some(t) = s.next_task(now) {
                for &(g, b) in &t.pieces {
                    moved[g] += b;
                }
                s.task_done(now, &t);
            }
        };
        s.gradient_ready(at(0), 3);
        s.gradient_ready(at(0), 2);
        drive(&mut s, at(0), &mut moved);
        s.gradient_ready(at(10), 1);
        drive(&mut s, at(10), &mut moved);
        s.gradient_ready(at(20), 0);
        drive(&mut s, at(20), &mut moved);
        assert_eq!(moved, sizes);
    }
}
