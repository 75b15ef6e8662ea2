//! What a cluster run reports — the raw material of every figure.

use prophet_net::NetStats;
use prophet_sim::{Duration, GradSpan, ShardSpan, SimTime, SpanKind};

/// Per-gradient transfer timing for one worker/iteration (Fig. 11's rows),
/// as [`RunResult::transfer_logs`] projects it from the typed spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradTransferLog {
    /// Gradient id.
    pub grad: usize,
    /// When the aggregation layer released it (absolute sim time).
    pub ready: SimTime,
    /// When its first byte was scheduled onto the wire.
    pub push_start: SimTime,
    /// When its push fully arrived at the PS.
    pub push_end: SimTime,
    /// When this worker began pulling the updated parameters.
    pub pull_start: SimTime,
    /// When the updated parameters finished arriving back (pull end).
    pub pull_end: SimTime,
}

impl GradTransferLog {
    /// Wait between release and first transmission — the paper's
    /// per-gradient "wait time" metric (§5.2: Prophet 26 ms avg vs 67 ms).
    pub fn wait(&self) -> Duration {
        self.push_start.saturating_since(self.ready)
    }

    /// Push wire time — the paper's "transmission time" metric.
    pub fn transfer(&self) -> Duration {
        self.push_end.saturating_since(self.push_start)
    }
}

/// Counters the fault-injection layer accumulates during a run. All zero
/// when the [`crate::sim::ClusterConfig::fault_plan`] is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// `RetryAttempt` trace events emitted (one per retried gradient
    /// episode step, coalesced across the slices of one message).
    pub retries: u64,
    /// In-flight flows killed by link failures, shard crashes, or ack
    /// timeouts.
    pub flows_killed: u64,
    /// Messages that completed on the wire but were discarded undelivered
    /// (the `MsgLoss` doomed-tag model).
    pub messages_lost: u64,
    /// Payload bytes re-queued for re-transmission (retries + replays).
    pub retried_bytes: u64,
    /// Bytes that crossed the wire but were thrown away: partial bytes of
    /// killed flows plus full payloads of lost messages.
    pub wasted_bytes: f64,
    /// Replay messages synthesised after a shard crash to re-push
    /// aggregation state the crash wiped.
    pub replays: u64,
    /// `Recovered` trace events emitted (retried gradients that eventually
    /// delivered).
    pub recoveries: u64,
    /// Total bytes transmitted across all nodes, including waste — compare
    /// with a fault-free run to see the retransmission overhead.
    pub wire_bytes: f64,
    /// Frames delivered corrupted and rejected by the receiver's CRC
    /// verify (`PayloadCorrupt`); each one also shows up as a retry and as
    /// wasted bytes.
    pub frames_corrupted: u64,
}

/// Counters the elastic-membership layer accumulates during a run. All
/// zero when the fault plan has no permanent events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticStats {
    /// Membership epochs opened (evictions + shard failures + joins).
    pub epochs: u64,
    /// Workers permanently evicted.
    pub evicted_workers: u64,
    /// Workers admitted mid-run.
    pub joined_workers: u64,
    /// PS shards permanently failed (state re-homed to survivors).
    pub failed_shards: u64,
    /// Checkpoint snapshots taken across all shards.
    pub checkpoints: u64,
    /// Bytes read back from checkpoint + ledger to restore failed shards.
    pub restore_bytes: u64,
    /// Simulated time from each shard failure to its state being served
    /// again by the adopting shards, summed over failures.
    pub recovery_ns: u64,
    /// Scheduler re-plans forced by membership epochs (one per live
    /// worker per epoch).
    pub replans: u64,
    /// Bytes spent bootstrapping joiners (full model pull on admission).
    pub bootstrap_bytes: u64,
    /// Work thrown away at shard failures: partial delivered bytes of
    /// in-flight transfers killed when their shard died for good.
    pub lost_work_bytes: u64,
    /// Checkpoint snapshots written corrupted (`CheckpointCorrupt`).
    pub corrupt_snapshots: u64,
    /// Restores that had to fall back past a corrupted newest snapshot to
    /// an older intact generation.
    pub restore_fallbacks: u64,
    /// Total generations skipped across all fallback restores (a depth-2
    /// fallback read two corrupted snapshots before the intact one).
    pub fallback_depth: u64,
}

/// The cluster engine's own work, as plain counts. Exact per seed — like
/// [`NetStats`] for the network under it — so a test or a later change may
/// name a counter beforehand and assert or claim on it. Always counted;
/// there is no switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Events popped off the pending-event queue, by kind, in the order of
    /// [`ClusterStats::EVENT_KINDS`]. A compute event deferred by a
    /// `WorkerStall` window counts once per pop.
    pub events_popped: [u64; 10],
    /// Most events pending at once.
    pub peak_pending_events: u64,
    /// Scheduler polling rounds (each polls `next_task` until it declines).
    pub pump_calls: u64,
    /// Tasks entered in the in-flight table: those the schedulers issued
    /// plus the replays a shard crash synthesises.
    pub tasks_issued: u64,
    /// Messages put on the wire: one per shard a task spans, plus every
    /// re-send.
    pub messages: u64,
    /// Most tasks in flight at once (the length of the task table).
    pub peak_live_tasks: u64,
    /// Transmission lanes created, one per `(worker, shard, direction)`
    /// ever used.
    pub lanes_created: u64,
    /// Typed events the [`prophet_sim::InvariantChecker`] was fed (0 when
    /// [`crate::sim::ClusterConfig::check_invariants`] is off).
    pub checker_events: u64,
}

impl ClusterStats {
    /// Names of the event kinds counted in
    /// [`ClusterStats::events_popped`], index for index.
    pub const EVENT_KINDS: [&'static str; 10] = [
        "iter_begin",
        "grad_ready",
        "fwd_done",
        "monitor_tick",
        "sample_tick",
        "bandwidth_change",
        "fault_begin",
        "fault_finish",
        "lane_kick",
        "msg_timeout",
    ];

    /// All events popped.
    pub fn events(&self) -> u64 {
        self.events_popped.iter().sum()
    }

    /// Events of the kind named `kind` popped. Panics on a name that is not
    /// one of [`ClusterStats::EVENT_KINDS`] — a misspelt kind must not read
    /// as "none popped".
    pub fn popped(&self, kind: &str) -> u64 {
        let at = Self::EVENT_KINDS.iter().position(|&k| k == kind);
        self.events_popped[at.unwrap_or_else(|| panic!("no event kind named {kind}"))]
    }
}

/// The outcome of [`crate::sim::run_cluster`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy label (from [`prophet_core::SchedulerKind::label`]).
    pub scheduler: String,
    /// Iterations completed by every worker.
    pub iterations: u64,
    /// Wall-clock (simulated) duration of the whole run.
    pub duration: SimTime,
    /// Steady-state training rate in **samples/sec per worker**, measured
    /// after the configured warm-up (the paper reports per-worker rates).
    pub rate: f64,
    /// Training rate including warm-up/profiling (Fig. 13's early phase).
    pub rate_with_warmup: f64,
    /// Worker-0 iteration durations, in order.
    pub iter_times: Vec<Duration>,
    /// Worker-0 GPU utilisation per sample window `(window_start, 0..1)`.
    pub gpu_util: Vec<(SimTime, f64)>,
    /// Time-weighted average GPU utilisation across the post-warmup run.
    pub avg_gpu_util: f64,
    /// Worker-0 uplink+downlink throughput per window, bytes/sec.
    pub net_throughput: Vec<(SimTime, f64)>,
    /// Average of `net_throughput` over the post-warmup run.
    pub avg_net_throughput: f64,
    /// Absolute start time of each worker-0 iteration (§5.2's
    /// forward-propagation start-time analysis).
    pub iter_starts: Vec<SimTime>,
    /// ByteScheduler credit trace `(iteration, credit_bytes)` when the
    /// strategy auto-tunes (Fig. 3(b)).
    pub credit_trace: Vec<(u64, u64)>,
    /// Worker-0 bandwidth-monitor estimates `(time, bytes/sec)`, one per
    /// monitor tick (what Prophet's planner consumed).
    pub bandwidth_estimates: Vec<(SimTime, f64)>,
    /// Worker-0 scheduler degraded-mode flips `(when, entered)`, sampled at
    /// each monitor tick plus once at end of run. Empty for strategies with
    /// no degraded mode; for Prophet the chaos oracle asserts the log ends
    /// `false` (no stuck-degraded) once faults have cleared.
    pub degraded_transitions: Vec<(SimTime, bool)>,
    /// Typed per-`(worker, gradient, iteration)` spans from the event-stream
    /// collector, ordered by `(worker, iter, grad, kind)`: worker 0's on
    /// every run, every worker's when
    /// [`crate::sim::ClusterConfig::typed_trace`] asked for them. The one
    /// timeline record every figure and [`RunResult::transfer_logs`] read.
    pub grad_spans: Vec<GradSpan>,
    /// Fault-injection counters; all zero for a fault-free run.
    pub fault_stats: FaultStats,
    /// Per-shard PS queueing spans (first push arrival → barrier), when
    /// [`crate::sim::ClusterConfig::typed_trace`] asked for them.
    pub shard_spans: Vec<ShardSpan>,
    /// Elastic-membership counters; all zero when the plan has no
    /// permanent events.
    pub elastic: ElasticStats,
    /// The network engine's work counters (fills, rate changes,
    /// completion-index traffic). Exact per seed, like everything else a
    /// run computes; host time is not.
    pub net_stats: NetStats,
    /// The cluster engine's own work counters, beside the network's.
    pub cluster_stats: ClusterStats,
}

impl RunResult {
    /// Worker 0's per-gradient transfer logs, one vec per iteration,
    /// projected from its spans: `QueueWait` gives the release and the first
    /// byte, `Push` the push's first and last byte, `Pull` the pull's.
    pub fn transfer_logs(&self) -> Vec<Vec<GradTransferLog>> {
        let mut logs: Vec<Vec<GradTransferLog>> = Vec::new();
        for s in self.grad_spans.iter().take_while(|s| s.worker == 0) {
            let iter = s.iter as usize;
            if logs.len() <= iter {
                logs.resize_with(iter + 1, Vec::new);
            }
            let row = &mut logs[iter];
            if row.last().is_none_or(|l| l.grad != s.grad) {
                row.push(GradTransferLog {
                    grad: s.grad,
                    ready: SimTime::MAX,
                    push_start: SimTime::MAX,
                    push_end: SimTime::MAX,
                    pull_start: SimTime::MAX,
                    pull_end: SimTime::MAX,
                });
            }
            let log = row.last_mut().expect("pushed above");
            match s.kind {
                SpanKind::QueueWait => (log.ready, log.push_start) = (s.start, s.end),
                SpanKind::Push => (log.push_start, log.push_end) = (s.start, s.end),
                SpanKind::Pull => (log.pull_start, log.pull_end) = (s.start, s.end),
                SpanKind::Aggregate | SpanKind::Compute => {}
            }
        }
        logs
    }

    /// Mean length in ms of worker 0's `kind` spans in iteration `iter`.
    fn mean_span_ms(&self, iter: usize, kind: SpanKind) -> f64 {
        let spans = self.grad_spans.iter().take_while(|s| s.worker == 0);
        let ms = spans.filter(|s| s.iter == iter as u64 && s.kind == kind);
        let (n, sum) = ms.fold((0, 0.0), |(n, sum), s| {
            (n + 1, sum + s.end.saturating_since(s.start).as_millis_f64())
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean per-gradient wait of worker 0 in iteration `iter`.
    pub fn mean_wait_ms(&self, iter: usize) -> f64 {
        self.mean_span_ms(iter, SpanKind::QueueWait)
    }

    /// Mean push wire time of worker 0 in iteration `iter`.
    pub fn mean_transfer_ms(&self, iter: usize) -> f64 {
        self.mean_span_ms(iter, SpanKind::Push)
    }

    /// Iterations completed within `span` of the start of iteration
    /// `from` (§5.2: "in the first 15 seconds Prophet completes 60–74").
    pub fn iterations_within(&self, from: usize, span: Duration) -> usize {
        let t0 = self.iter_starts[from];
        self.iter_starts[from..]
            .iter()
            .take_while(|&&t| t.saturating_since(t0) <= span)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn log_derives_wait_and_transfer() {
        let log = GradTransferLog {
            grad: 30,
            ready: at(10),
            push_start: at(13),
            push_end: at(36),
            pull_start: at(40),
            pull_end: at(60),
        };
        assert_eq!(log.wait(), Duration::from_millis(3));
        assert_eq!(log.transfer(), Duration::from_millis(23));
    }

    fn result_with(iter_starts: Vec<SimTime>) -> RunResult {
        RunResult {
            scheduler: "test".into(),
            iterations: iter_starts.len() as u64,
            duration: *iter_starts.last().unwrap(),
            rate: 0.0,
            rate_with_warmup: 0.0,
            iter_times: vec![],
            gpu_util: vec![],
            avg_gpu_util: 0.0,
            net_throughput: vec![],
            avg_net_throughput: 0.0,
            iter_starts,
            credit_trace: vec![],
            bandwidth_estimates: vec![],
            degraded_transitions: vec![],
            grad_spans: vec![],
            fault_stats: FaultStats::default(),
            shard_spans: vec![],
            elastic: ElasticStats::default(),
            net_stats: Default::default(),
            cluster_stats: Default::default(),
        }
    }

    #[test]
    fn iterations_within_counts_window() {
        let r = result_with(vec![at(0), at(900), at(1800), at(16_000)]);
        assert_eq!(r.iterations_within(0, Duration::from_secs(15)), 3);
        assert_eq!(r.iterations_within(0, Duration::from_secs(20)), 4);
        assert_eq!(r.iterations_within(2, Duration::from_secs(1)), 1);
    }

    #[test]
    fn empty_logs_mean_zero() {
        let r = result_with(vec![at(0)]);
        assert_eq!(r.mean_wait_ms(0), 0.0);
        assert_eq!(r.mean_transfer_ms(0), 0.0);
    }
}
