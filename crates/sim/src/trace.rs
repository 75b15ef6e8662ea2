//! The simulator's one timeline layer: a typed event stream and its sinks.
//!
//! The cluster engine and the network layer emit a single ordered stream of
//! [`TraceEvent`]s into any number of [`TraceSink`]s. Two sinks ship here:
//! [`InvariantChecker`] validates the stream *as it happens* (timeline
//! ordering per gradient, BSP barrier sanity, per-flow byte conservation,
//! clock monotonicity, sentinel-timestamp leaks) and panics at the first bad
//! event with the recent event history attached; [`SpanCollector`] folds the
//! stream into per-`(worker, gradient, iteration)` [`GradSpan`]s (queue-wait,
//! push, aggregate, pull, compute). Those spans are the timeline every
//! figure reads — Fig. 5's and Fig. 11's per-gradient instants, §5.2's wait
//! and transfer means — and what the CSV export and the ASCII Gantt
//! renderer below draw.
//!
//! **The cost of watching** (DESIGN.md §17): nothing on the event path
//! allocates or formats. Both sinks index one dense table type, `IterRows`
//! (rows keyed by iteration, cells by gradient id, released rows recycled),
//! the checker's diagnostic ring keeps the last [`TraceEvent`] *values* and
//! renders them only inside the failure path, and every other lookup is a
//! `Vec` index by worker, shard or gradient. A checker that costs a
//! fraction of the run it watches is one nobody switches off.

use crate::fault::FaultKind;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Typed event stream
// ---------------------------------------------------------------------------

/// One typed simulation event, emitted by the cluster engine and the
/// network layer in event-loop order. Timestamps travel alongside in
/// [`TraceSink::on_event`] so the enum stays `Copy`-cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Worker `worker` begins iteration `iter` (backward pass starts).
    IterBegin {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
    },
    /// Worker `worker` finished every forward tensor of iteration `iter`.
    IterEnd {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
    },
    /// The backward pass released gradient `grad`.
    GradReady {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// First byte of `grad`'s push was scheduled onto the wire.
    PushStart {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// `grad`'s push fully arrived at the PS from this worker.
    PushEnd {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// BSP barrier for `(iter, grad)`: every worker's push has arrived and
    /// the parameters updated. Emitted once per `(iter, grad)`, BSP only.
    Barrier {
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// Worker began pulling `grad`'s updated parameters.
    PullStart {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// Updated parameters for `grad` finished arriving back at the worker.
    PullEnd {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// Forward compute of tensor `grad` started (Eq. 3 gating passed).
    FwdStart {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// Forward compute of tensor `grad` finished.
    FwdEnd {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// The network accepted a flow of `bytes` from node `src` to `dst`.
    FlowStart {
        /// Caller-assigned flow tag.
        tag: u64,
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Requested payload size.
        bytes: u64,
    },
    /// A flow's last byte arrived; `delivered` is what the fluid
    /// integrator actually moved (must equal the request up to rounding).
    FlowEnd {
        /// Caller-assigned flow tag.
        tag: u64,
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Bytes the integrator delivered.
        delivered: f64,
    },
    /// A flow was killed by a fault before completing; `delivered` is the
    /// partial byte count the integrator had moved (those bytes are *not*
    /// counted towards any gradient — only the delivered attempt counts).
    FlowKilled {
        /// Caller-assigned flow tag.
        tag: u64,
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Bytes moved before the kill (discarded by the receiver).
        delivered: f64,
    },
    /// An injected fault became active.
    FaultStart {
        /// The fault class.
        kind: FaultKind,
        /// Affected topology node (shard or worker node index), or
        /// `usize::MAX` for plan-wide faults such as message loss.
        node: usize,
    },
    /// An injected fault cleared (link back up, shard restarted, ...).
    FaultEnd {
        /// The fault class.
        kind: FaultKind,
        /// Affected topology node, matching the [`TraceEvent::FaultStart`].
        node: usize,
    },
    /// A failed transfer of gradient `grad` is being retried; the sender
    /// will re-stamp `PushStart` (or `PullStart`) for the new attempt.
    RetryAttempt {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
        /// 1-based retry number for this `(worker, iter, grad)`.
        attempt: u32,
    },
    /// A previously retried transfer of `grad` finally delivered.
    Recovered {
        /// Worker index.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
        /// Total retries it took (matches the last `RetryAttempt`).
        attempts: u32,
    },
    /// A PS shard restarted and advanced its aggregation epoch (threaded
    /// runtime). Epochs must be strictly increasing per shard.
    EpochAdvance {
        /// Shard index.
        shard: usize,
        /// The new epoch, strictly greater than the shard's previous one.
        epoch: u64,
    },
    /// A worker processed shard `shard`'s restart notice and adopted
    /// `epoch` for that shard (threaded runtime). Must move the worker's
    /// per-shard epoch strictly forward, and never past the newest epoch
    /// that shard announced.
    EpochAck {
        /// Worker index.
        worker: usize,
        /// The restarted shard whose new incarnation is being adopted.
        shard: usize,
        /// The epoch the worker switched to.
        epoch: u64,
    },
    /// A worker received the barrier notification for `grad` stamped with
    /// the PS epoch it was aggregated under (threaded runtime). The stamp
    /// must match the worker's current epoch: a smaller one is a stale
    /// `ParamReady` surviving a crash, a larger one raced past the restart
    /// notice on a supposedly FIFO channel.
    ParamReady {
        /// Worker index.
        worker: usize,
        /// Gradient id.
        grad: usize,
        /// PS epoch the aggregation completed under.
        epoch: u64,
    },
    /// A permanent membership change took effect: a worker was evicted
    /// (`WorkerFail`), a shard failed for good (`ShardFail`), or a new
    /// worker was admitted (`WorkerJoin`). `epoch` is the cluster-wide
    /// membership epoch the change opens — strictly one past the previous.
    MembershipChange {
        /// Membership epoch after the change (first change is epoch 1).
        epoch: u64,
        /// Which permanent fault class drove the change.
        kind: FaultKind,
        /// Worker index (`WorkerFail`/`WorkerJoin`) or shard index
        /// (`ShardFail`).
        node: usize,
        /// Iteration boundary at which the change takes effect.
        iter: u64,
    },
    /// Shard `shard` snapshotted its parameter state covering everything
    /// up to and including iteration `iter`. Checkpoint iterations must be
    /// strictly monotone per shard, and dead shards cannot checkpoint.
    Checkpoint {
        /// Shard index.
        shard: usize,
        /// Last iteration the snapshot covers.
        iter: u64,
    },
    /// Tensor `grad` was re-homed off permanently failed shard `from`
    /// onto surviving shard `to`. Emitted once per moved tensor, before
    /// any barrier that relies on the new placement.
    Rehome {
        /// Gradient id.
        grad: usize,
        /// The failed shard that owned the tensor.
        from: usize,
        /// The surviving shard adopting it.
        to: usize,
    },
    /// A receiver's integrity check (CRC32 + length framing) rejected a
    /// corrupted frame and discarded it. Data frames must be recovered by
    /// retransmission; control frames (ack batches) may instead be
    /// superseded by the barrier notification.
    FrameCorrupt {
        /// Topology node that detected the corruption (the receiver).
        node: usize,
        /// Frame payload bytes discarded.
        bytes: u64,
        /// True when the frame carried gradient/parameter payload (push or
        /// pull), whose loss *requires* a retransmission; false for
        /// control frames such as ack batches.
        data: bool,
    },
    /// The NaN/Inf gradient guard quarantined a poisoned push that passed
    /// its checksum (valid CRC over garbage numbers). The offending slice
    /// never reaches the accumulator; recovery retransmits a clean copy.
    GradQuarantined {
        /// Worker whose push carried the poisoned payload.
        worker: usize,
        /// Iteration number.
        iter: u64,
        /// Gradient id.
        grad: usize,
    },
    /// A restore walked past `depth` corrupted snapshot generation(s) of
    /// permanently failed shard `shard` before finding an intact one, then
    /// replayed the correspondingly longer byte ledger.
    RestoreFallback {
        /// The permanently failed shard whose durable state fell back.
        shard: usize,
        /// Generations skipped (newest-first) to reach an intact snapshot.
        depth: u64,
    },
}

impl TraceEvent {
    /// The worker acting in this event, if one is.
    pub fn worker(&self) -> Option<usize> {
        #[rustfmt::skip]
        let worker = match *self {
            TraceEvent::IterBegin { worker, .. }
            | TraceEvent::IterEnd { worker, .. }
            | TraceEvent::GradReady { worker, .. }
            | TraceEvent::PushStart { worker, .. }
            | TraceEvent::PushEnd { worker, .. }
            | TraceEvent::PullStart { worker, .. }
            | TraceEvent::PullEnd { worker, .. }
            | TraceEvent::FwdStart { worker, .. }
            | TraceEvent::FwdEnd { worker, .. }
            | TraceEvent::RetryAttempt { worker, .. }
            | TraceEvent::Recovered { worker, .. }
            | TraceEvent::EpochAck { worker, .. }
            | TraceEvent::ParamReady { worker, .. } => worker,
            _ => return None,
        };
        Some(worker)
    }
}

/// A consumer of the typed event stream. Sinks are driven strictly in
/// event order; `at` is the simulated instant the event happened.
pub trait TraceSink {
    /// Observe one event.
    fn on_event(&mut self, at: SimTime, ev: &TraceEvent);
}

/// Per-`(worker, iter, grad)` cell shared by the checker and the span
/// collector: the gradient's timestamps, plus (checker only) the number of
/// retries in its open retry episode.
#[derive(Debug, Clone, Copy, Default)]
struct GradTimes {
    ready: Option<SimTime>,
    push_start: Option<SimTime>,
    push_end: Option<SimTime>,
    pull_start: Option<SimTime>,
    pull_end: Option<SimTime>,
    fwd_start: Option<SimTime>,
    fwd_end: Option<SimTime>,
    retries: u32,
}

/// `v[i]`, growing `v` with defaults until the index exists.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// `v[i]`, or the default where `v` never grew that far.
fn peek<T: Copy + Default>(v: &[T], i: usize) -> T {
    v.get(i).copied().unwrap_or_default()
}

/// Iteration-keyed rows of dense cells — the one table both sinks index on
/// every event: `(iter, index) → T`, where a cell never written reads as
/// `T::default()`. Few rows are live at once in the checker (a worker
/// references its current iteration; barrier records reach one iteration
/// back) and the collector's newest row is the one in use, so a lookup
/// scans from the newest row. A released row keeps its storage for the
/// next iteration, which is what makes the steady state allocation-free.
#[derive(Debug, Default)]
struct IterRows<T> {
    live: Vec<(u64, Vec<T>)>,
    spare: Vec<Vec<T>>,
}

impl<T: Copy + Default> IterRows<T> {
    /// Storage for `rows` more rows of `width` cells, so filling them
    /// allocates nothing.
    fn reserve(&mut self, rows: usize, width: usize) {
        self.live.reserve(rows);
        self.spare
            .extend((0..rows).map(|_| Vec::with_capacity(width)));
    }

    fn row(&self, iter: u64) -> Option<&[T]> {
        let hit = self.live.iter().rev().find(|(i, _)| *i == iter);
        hit.map(|(_, row)| row.as_slice())
    }

    fn get(&self, iter: u64, idx: usize) -> T {
        self.row(iter).map_or_else(T::default, |row| peek(row, idx))
    }

    fn cell(&mut self, iter: u64, idx: usize) -> &mut T {
        let at = match self.live.iter().rposition(|(i, _)| *i == iter) {
            Some(at) => at,
            None => {
                let row = self.spare.pop().unwrap_or_default();
                self.live.push((iter, row));
                self.live.len() - 1
            }
        };
        slot(&mut self.live[at].1, idx)
    }

    /// Drop every row whose iteration `dead` selects, keeping its storage.
    fn release(&mut self, dead: impl Fn(u64) -> bool) {
        let spare = &mut self.spare;
        self.live.retain_mut(|(iter, row)| {
            let keep = !dead(*iter);
            if !keep {
                row.clear();
                spare.push(std::mem::take(row));
            }
            keep
        });
    }
}

/// Gradient → shard placement shared by both sinks: the configured rule
/// (`g % shards`, or an explicit table) resolved into a dense table as
/// gradient ids first appear, with `Rehome` moves written over it. An id
/// names the unit a shard owns: a tensor in the simulator, a tensor extent
/// (a part) in the threaded runtime, which replays its worker-side tensor
/// events once per part.
#[derive(Debug, Default)]
struct Placement {
    /// Modulo shard count (`g % shards`), unless `table` is set.
    shards: Option<usize>,
    /// Explicit id → shard table (the threaded runtime's part owners);
    /// overrides the modulo rule.
    table: Option<Vec<usize>>,
    /// Current owner per gradient id seen so far (`None`: no rule covers it).
    owner: Vec<Option<usize>>,
}

impl Placement {
    /// The shard owning `grad`, after re-homes.
    fn shard_of(&mut self, grad: usize) -> Option<usize> {
        for g in self.owner.len()..=grad {
            let configured = match (&self.table, self.shards) {
                (Some(table), _) => table.get(g).copied(),
                (None, shards) => shards.map(|n| g % n),
            };
            self.owner.push(configured);
        }
        self.owner[grad]
    }

    fn rehome(&mut self, grad: usize, to: usize) {
        self.shard_of(grad);
        self.owner[grad] = Some(to);
    }
}

/// Where a worker stands in the elastic membership.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum Member {
    /// In the live membership: barriers expect its push.
    #[default]
    Live,
    /// A joiner announced via [`InvariantChecker::with_joiners`] and not
    /// admitted yet — must be silent until then.
    Pending,
    /// Permanently evicted — must be silent after its eviction.
    Evicted,
}

/// What the checker tracks per PS shard.
#[derive(Debug, Clone, Copy, Default)]
struct ShardState {
    /// Currently crashed.
    down: bool,
    /// Permanently failed.
    dead: bool,
    /// Aggregation epoch (threaded runtime).
    epoch: u64,
    /// Latest checkpoint iteration.
    checkpoint: Option<u64>,
}

/// How many recent events the checker keeps for post-mortem context.
const RING: usize = 24;

/// Validates the event stream as it happens; panics at the first bad event
/// with the recent event history attached, so a broken run dies *at the
/// moment the model goes wrong* instead of at an assertion several
/// simulated seconds later.
///
/// Checks:
/// * clock monotonicity — events may not move backwards in time;
/// * no sentinel timestamps — `SimTime::MAX` (an unset stamp) must never
///   appear in the stream;
/// * per-gradient timeline ordering — `ready ≤ push_start < push_end ≤
///   pull_start ≤ pull_end ≤ fwd_start`, each stamped exactly once per
///   `(worker, iter, grad)`;
/// * BSP barrier sanity — a barrier fires exactly once per `(iter, grad)`,
///   only after every live worker's push arrived (each counted once),
///   while every worker is in that iteration; pulls may not start before
///   their barrier. The **receiver** is the authority on arrivals: only a
///   shard's own crash (`FaultStart{ShardCrash}`) voids what it had staged
///   for its still-open barriers; a sender's retry never does;
/// * per-flow byte conservation — every `FlowEnd` matches a `FlowStart`
///   and delivered what was requested (±1 byte of fluid rounding), and no
///   flow is left dangling at [`InvariantChecker::finish`];
/// * fault/retry sanity — retries number consecutively from 1 per
///   `(worker, iter, grad)` and un-stamp the sender's view of the failed
///   attempt (so the next `PushStart`/`PullStart` re-stamps exactly once
///   per attempt, and a `PushEnd` for the earlier copy may land first), a
///   `Recovered` event must match the retry count, a killed flow closes
///   its `FlowStart` without the byte-conservation check (the partial
///   bytes were discarded), and no BSP barrier may fire for a gradient
///   whose PS shard is down;
/// * epoch protocol (threaded runtime) — shard epochs advance strictly,
///   a worker's `EpochAck` moves its per-shard epoch strictly forward and
///   never past the newest epoch that shard announced, and every
///   `ParamReady` stamp equals the receiving worker's current epoch for
///   the shard owning the gradient (stale deliveries from before a
///   crash, or deliveries racing past the restart notice, both fail);
/// * elastic membership — membership epochs advance by exactly one, an
///   evicted worker is silent after its eviction, a joiner is silent
///   before its admission (and its first iteration is its join
///   iteration), barriers expect exactly the live membership's pushes,
///   no barrier fires for a gradient homed on a permanently failed
///   shard, re-homes move tensors off dead shards onto live ones, and
///   per-shard checkpoint iterations are strictly monotone;
/// * frame integrity — corrupt-frame detections carry a real payload,
///   NaN quarantines name a push the sender actually made, and every
///   corrupted *data* frame is matched by at least one retransmission by
///   the end of the run;
/// * verified restore — a restore fallback names a permanently failed
///   shard and skips at least one generation (depth 0 is not a fallback).
#[derive(Debug, Default)]
pub struct InvariantChecker {
    workers: usize,
    bsp: bool,
    /// Gradient → shard mapping (`g % shards` from
    /// [`InvariantChecker::with_shards`], or the explicit table of
    /// [`InvariantChecker::with_shard_map`]); with neither, the shard-down
    /// barrier check is disabled.
    placement: Placement,
    last_at: Option<SimTime>,
    events_seen: u64,
    /// The last [`RING`] events by value, event `n` in slot `n % RING`:
    /// recording one is a 48-byte store, and only a failure renders them.
    ring: [Option<(SimTime, TraceEvent)>; RING],
    /// Per worker: `(iter, grad)` → timestamps and open retry count, for
    /// the iterations that worker has not ended yet.
    grads: Vec<IterRows<GradTimes>>,
    /// `(iter, grad * workers + worker)` → that worker's push fully
    /// arrived; kept back to the iteration before the newest `IterEnd`.
    arrivals: IterRows<bool>,
    /// `(iter, grad)` → barrier instant, over the same window.
    barriers: IterRows<Option<SimTime>>,
    /// Current iteration of each worker (None before its first IterBegin).
    worker_iter: Vec<Option<u64>>,
    /// `(tag, requested bytes)` of every open flow, ordered by tag. Tags
    /// are issued in increasing order, so a start appends.
    open_flows: VecDeque<(u64, u64)>,
    /// Faults currently active, as `(kind, node)`; a handful at most.
    active_faults: Vec<(FaultKind, usize)>,
    /// Per-shard fault, epoch and checkpoint state.
    shard_state: Vec<ShardState>,
    /// Per-worker, per-shard acked epoch (threaded runtime).
    worker_epoch: Vec<Vec<u64>>,
    /// Where each worker stands in the membership.
    members: Vec<Member>,
    /// Admission iteration of each admitted joiner.
    join_iter: Vec<Option<u64>>,
    /// Cluster-wide membership epoch (0 before any change).
    membership_epoch: u64,
    /// Corrupted *data* frames detected (push/pull payloads and NaN
    /// quarantines) — each one obligates a retransmission somewhere.
    corrupt_data_frames: u64,
    /// Retry events observed (any kind).
    retry_events: u64,
}

impl InvariantChecker {
    /// A checker for a cluster of `workers` workers; `bsp` selects whether
    /// barrier events are expected (BSP) or absent (ASP).
    pub fn new(workers: usize, bsp: bool) -> Self {
        InvariantChecker {
            workers,
            bsp,
            worker_iter: vec![None; workers],
            members: vec![Member::Live; workers],
            join_iter: vec![None; workers],
            // Room for more fault windows than a plan holds open at once,
            // so a fault event does not allocate either.
            active_faults: Vec::with_capacity(RING),
            ..Default::default()
        }
    }

    /// Announce `joiners` additional workers (ids `workers..workers +
    /// joiners`) that will be admitted mid-run via
    /// [`TraceEvent::MembershipChange`]. They must stay silent until then.
    pub fn with_joiners(mut self, joiners: usize) -> Self {
        self.workers += joiners;
        self.worker_iter.resize(self.workers, None);
        self.members.resize(self.workers, Member::Pending);
        self.join_iter.resize(self.workers, None);
        self
    }

    /// Tell the checker the PS shard count so it can refuse barriers for
    /// gradients whose shard is currently down.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.placement.shards = Some(shards);
        self.shard_state.resize(shards, ShardState::default());
        self
    }

    /// Supply the explicit id → shard table the runtime actually used (the
    /// threaded runtime's part owners, one entry per part), replacing the
    /// `g % shards` default of [`with_shards`].
    ///
    /// [`with_shards`]: InvariantChecker::with_shards
    pub fn with_shard_map(mut self, owner: Vec<usize>) -> Self {
        let shards = owner.iter().copied().max().map_or(1, |m| m + 1);
        self.placement.table = Some(owner);
        self.with_shards(shards)
    }

    /// The shard owning gradient `grad` under the configured mapping,
    /// after any re-homes.
    fn shard_of(&mut self, grad: usize) -> usize {
        match (self.placement.shard_of(grad), &self.placement.table) {
            (Some(shard), _) => shard,
            (None, Some(map)) => {
                panic!("gradient {grad} outside the {}-entry shard map", map.len())
            }
            (None, None) => 0,
        }
    }

    /// Number of events observed so far (lets tests assert the checker was
    /// actually wired in, not silently disabled).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// End-of-run check: every flow that started must have ended, and every
    /// corrupted data frame must have driven at least one retransmission
    /// (the frame-integrity rule — detection without recovery means a
    /// gradient silently vanished).
    pub fn finish(&self) {
        if !self.open_flows.is_empty() {
            let tags: Vec<&u64> = self.open_flows.iter().map(|(tag, _)| tag).collect();
            self.fail(format!(
                "{} flow(s) never completed: tags {tags:?}",
                self.open_flows.len()
            ));
        }
        if self.corrupt_data_frames > 0 && self.retry_events == 0 {
            self.fail(format!(
                "{} corrupted data frame(s) detected but no retransmission ever \
                 happened — the dropped payloads were never recovered",
                self.corrupt_data_frames
            ));
        }
    }

    /// The only place the ring is rendered: a check has already failed.
    fn fail(&self, msg: String) -> ! {
        let mut ctx = String::new();
        for n in self.events_seen.saturating_sub(RING as u64)..self.events_seen {
            if let Some((at, ev)) = self.ring[n as usize % RING] {
                let _ = writeln!(ctx, "  t={at} {ev:?}");
            }
        }
        panic!(
            "invariant violated after {} events: {msg}\nrecent events (oldest first):\n{ctx}",
            self.events_seen
        );
    }

    fn cell(&mut self, worker: usize, iter: u64, grad: usize) -> &mut GradTimes {
        slot(&mut self.grads, worker).cell(iter, grad)
    }

    /// Stamp one of the gradient's timestamps; each is stamped once per
    /// attempt.
    fn stamp(
        &mut self,
        (worker, iter, grad): (usize, u64, usize),
        what: &str,
        at: SimTime,
        field: fn(&mut GradTimes) -> &mut Option<SimTime>,
    ) {
        if field(self.cell(worker, iter, grad)).replace(at).is_some() {
            self.fail(format!(
                "gradient {grad} {what} twice (w{worker} iter {iter})"
            ));
        }
    }

    /// Position of `tag` among the open flows, or where it would go.
    fn find_flow(&self, tag: u64) -> Result<usize, usize> {
        self.open_flows.binary_search_by_key(&tag, |&(t, _)| t)
    }

    /// Close flow `tag`, returning the bytes it requested.
    fn close_flow(&mut self, tag: u64) -> Option<u64> {
        let (_, bytes) = self.open_flows.remove(self.find_flow(tag).ok()?)?;
        Some(bytes)
    }

    /// An evicted worker must be silent after its eviction epoch; an
    /// announced joiner must be silent before its admission.
    fn check_live(&self, worker: usize, ev: &TraceEvent) {
        match peek(&self.members, worker) {
            Member::Live => {}
            Member::Evicted => self.fail(format!(
                "evicted worker {worker} emitted {ev:?} after its eviction epoch"
            )),
            Member::Pending => self.fail(format!("worker {worker} emitted {ev:?} before joining")),
        }
    }

    /// Number of workers currently in the live membership.
    fn live_workers(&self) -> usize {
        self.members.iter().filter(|&&m| m == Member::Live).count()
    }
}

impl TraceSink for InvariantChecker {
    fn on_event(&mut self, at: SimTime, ev: &TraceEvent) {
        self.ring[self.events_seen as usize % RING] = Some((at, *ev));
        self.events_seen += 1;

        if at == SimTime::MAX {
            self.fail(format!(
                "sentinel (UNSET) timestamp reached the event stream: {ev:?}"
            ));
        }
        if let Some(last) = self.last_at {
            if at < last {
                self.fail(format!(
                    "clock moved backwards: {at} after {last} on {ev:?}"
                ));
            }
        }
        self.last_at = Some(at);

        if let Some(w) = ev.worker() {
            self.check_live(w, ev);
        }

        match *ev {
            TraceEvent::IterBegin { worker, iter } => {
                let prev = self.worker_iter[worker];
                let ok = match prev {
                    None => iter == 0 || peek(&self.join_iter, worker) == Some(iter),
                    Some(p) => iter == p + 1,
                };
                if !ok {
                    self.fail(format!("worker {worker} began iter {iter} after {prev:?}"));
                }
                self.worker_iter[worker] = Some(iter);
            }
            TraceEvent::IterEnd { worker, iter } => {
                if self.worker_iter[worker] != Some(iter) {
                    self.fail(format!(
                        "worker {worker} ended iter {iter} while in {:?}",
                        self.worker_iter[worker]
                    ));
                }
                // This worker's per-gradient cells for the finished
                // iteration are complete; recycle its row — one worker's
                // row, not a scan of everyone's cells.
                slot(&mut self.grads, worker).release(|i| i == iter);
                if iter > 0 {
                    // Barrier/arrival records two iterations back can no
                    // longer be referenced by anyone.
                    let horizon = iter - 1;
                    self.arrivals.release(|i| i < horizon);
                    self.barriers.release(|i| i < horizon);
                }
            }
            TraceEvent::GradReady { worker, iter, grad } => {
                self.stamp((worker, iter, grad), "ready", at, |c| &mut c.ready);
            }
            TraceEvent::PushStart { worker, iter, grad } => {
                let c = *self.cell(worker, iter, grad);
                match c.ready {
                    None => self.fail(format!(
                        "push of unreleased gradient {grad} (w{worker} iter {iter})"
                    )),
                    Some(r) if at < r => self.fail(format!(
                        "push_start {at} before ready {r} for gradient {grad} (w{worker})"
                    )),
                    _ => {}
                }
                self.stamp((worker, iter, grad), "push started", at, |c| {
                    &mut c.push_start
                });
            }
            TraceEvent::PushEnd { worker, iter, grad } => {
                let c = *self.cell(worker, iter, grad);
                match c.push_start {
                    // Mid-retry the sender's stamp is void while the copy
                    // it gave up on may still arrive.
                    None if c.retries > 0 => {}
                    None => self.fail(format!(
                        "push_end without push_start for gradient {grad} (w{worker})"
                    )),
                    Some(s) if at <= s => self.fail(format!(
                        "push of gradient {grad} took no wire time: start {s}, end {at} (w{worker})"
                    )),
                    _ => {}
                }
                self.stamp((worker, iter, grad), "push ended", at, |c| &mut c.push_end);
                let arrived = self.arrivals.cell(iter, grad * self.workers + worker);
                if std::mem::replace(arrived, true) {
                    self.fail(format!(
                        "push of worker {worker} counted twice for (iter {iter}, grad {grad})"
                    ));
                }
            }
            TraceEvent::Barrier { iter, grad } => {
                if !self.bsp {
                    self.fail(format!(
                        "barrier event in ASP mode (iter {iter}, grad {grad})"
                    ));
                }
                if self.barriers.get(iter, grad).is_some() {
                    self.fail(format!("duplicate barrier for (iter {iter}, grad {grad})"));
                }
                let arrived = self.arrivals.row(iter).map_or(0, |row| {
                    let who = row.iter().skip(grad * self.workers).take(self.workers);
                    who.filter(|&&a| a).count()
                });
                let expected = self.live_workers();
                if arrived != expected {
                    self.fail(format!(
                        "barrier for (iter {iter}, grad {grad}) after {arrived}/{expected} pushes"
                    ));
                }
                if self.placement.shards.is_some() {
                    let shard = self.shard_of(grad);
                    if peek(&self.shard_state, shard).down {
                        self.fail(format!(
                            "barrier for (iter {iter}, grad {grad}) while shard {shard} is down"
                        ));
                    }
                    if peek(&self.shard_state, shard).dead {
                        self.fail(format!(
                            "barrier for (iter {iter}, grad {grad}) on permanently failed shard {shard}"
                        ));
                    }
                }
                for (w, wi) in self.worker_iter.iter().enumerate() {
                    if self.members[w] != Member::Live {
                        continue;
                    }
                    if *wi != Some(iter) {
                        self.fail(format!(
                            "barrier for iter {iter} while worker {w} is in {wi:?}"
                        ));
                    }
                }
                *self.barriers.cell(iter, grad) = Some(at);
            }
            TraceEvent::PullStart { worker, iter, grad } => {
                let c = *self.cell(worker, iter, grad);
                if let Some(e) = c.push_end {
                    if at < e {
                        self.fail(format!(
                            "pull of gradient {grad} started {at}, before its push_end {e} (w{worker})"
                        ));
                    }
                }
                if self.bsp {
                    match self.barriers.get(iter, grad) {
                        None => self.fail(format!(
                            "pull of gradient {grad} before its barrier (w{worker} iter {iter})"
                        )),
                        Some(b) if at < b => self.fail(format!(
                            "pull of gradient {grad} at {at}, before barrier {b} (w{worker})"
                        )),
                        _ => {}
                    }
                }
                self.stamp((worker, iter, grad), "pull started", at, |c| {
                    &mut c.pull_start
                });
            }
            TraceEvent::PullEnd { worker, iter, grad } => {
                let c = *self.cell(worker, iter, grad);
                match c.pull_start {
                    None => self.fail(format!(
                        "pull_end without pull_start for gradient {grad} (w{worker})"
                    )),
                    Some(s) if at < s => self.fail(format!(
                        "pull_end {at} before pull_start {s} for gradient {grad}"
                    )),
                    _ => {}
                }
                self.stamp((worker, iter, grad), "pull ended", at, |c| &mut c.pull_end);
            }
            TraceEvent::FwdStart { worker, iter, grad } => {
                let c = *self.cell(worker, iter, grad);
                match c.pull_end {
                    None => self.fail(format!(
                        "forward of tensor {grad} started before its pull completed (w{worker} iter {iter})"
                    )),
                    Some(p) if at < p => self.fail(format!(
                        "forward of tensor {grad} at {at}, before pull_end {p} (w{worker})"
                    )),
                    _ => {}
                }
                self.cell(worker, iter, grad).fwd_start = Some(at);
            }
            TraceEvent::FwdEnd { worker, iter, grad } => {
                let c = *self.cell(worker, iter, grad);
                match c.fwd_start {
                    None => self.fail(format!(
                        "fwd_end without fwd_start for tensor {grad} (w{worker})"
                    )),
                    Some(s) if at < s => self.fail(format!(
                        "fwd_end {at} before fwd_start {s} for tensor {grad}"
                    )),
                    _ => {}
                }
                self.cell(worker, iter, grad).fwd_end = Some(at);
            }
            TraceEvent::FlowStart { tag, bytes, .. } => match self.find_flow(tag) {
                Ok(_) => self.fail(format!("flow tag {tag} started twice")),
                Err(pos) => self.open_flows.insert(pos, (tag, bytes)),
            },
            TraceEvent::FlowEnd { tag, delivered, .. } => {
                let Some(bytes) = self.close_flow(tag) else {
                    self.fail(format!("completion for unknown flow tag {tag}"))
                };
                // The fluid engine declares a flow done within EPS_BYTES
                // (0.5) of zero remaining; allow that plus integration
                // rounding.
                if (delivered - bytes as f64).abs() > 1.0 {
                    self.fail(format!(
                        "flow {tag} delivered {delivered} of {bytes} requested bytes"
                    ));
                }
            }
            TraceEvent::FlowKilled { tag, delivered, .. } => {
                // A killed flow closes its FlowStart, but the partial
                // delivery is discarded — no byte-conservation check.
                let Some(bytes) = self.close_flow(tag) else {
                    self.fail(format!("kill for unknown flow tag {tag}"))
                };
                if delivered > bytes as f64 + 1.0 {
                    self.fail(format!(
                        "killed flow {tag} had moved {delivered} of only {bytes} bytes"
                    ));
                }
            }
            TraceEvent::FaultStart { kind, node } => {
                if self.active_faults.contains(&(kind, node)) {
                    self.fail(format!("fault {kind:?} on node {node} started twice"));
                }
                self.active_faults.push((kind, node));
                if kind == FaultKind::ShardCrash {
                    slot(&mut self.shard_state, node).down = true;
                    // The crash voids what the shard had staged for its
                    // open barriers; every member must arrive again.
                    let mut arrivals = std::mem::take(&mut self.arrivals);
                    for (iter, row) in &mut arrivals.live {
                        for (grad, who) in row.chunks_mut(self.workers.max(1)).enumerate() {
                            if who.contains(&true)
                                && self.barriers.get(*iter, grad).is_none()
                                && self.shard_of(grad) == node
                            {
                                who.fill(false);
                            }
                        }
                    }
                    self.arrivals = arrivals;
                }
            }
            TraceEvent::FaultEnd { kind, node } => {
                match self.active_faults.iter().position(|&f| f == (kind, node)) {
                    Some(at) => self.active_faults.swap_remove(at),
                    None => self.fail(format!(
                        "fault {kind:?} on node {node} ended without starting"
                    )),
                };
                if kind == FaultKind::ShardCrash {
                    slot(&mut self.shard_state, node).down = false;
                }
            }
            TraceEvent::RetryAttempt {
                worker,
                iter,
                grad,
                attempt,
            } => {
                self.retry_events += 1;
                let mut c = *self.cell(worker, iter, grad);
                let seen = c.retries;
                if attempt != seen + 1 {
                    self.fail(format!(
                        "retry {attempt} of gradient {grad} after {seen} retries (w{worker} iter {iter})"
                    ));
                }
                c.retries = attempt;
                // Un-stamp the failed attempt so the re-send stamps
                // PushStart/PullStart exactly once per attempt. A pull
                // retry is one whose pull had started but not finished;
                // anything else is a push retry — which voids only the
                // sender's stamps, never the receiver's arrival count.
                if c.pull_start.is_some() && c.pull_end.is_none() {
                    c.pull_start = None;
                } else if c.push_start.is_some() && c.pull_end.is_none() {
                    c.push_end = None;
                    c.push_start = None;
                } else {
                    self.fail(format!(
                        "retry of gradient {grad} with no transfer in flight (w{worker} iter {iter})"
                    ));
                }
                *self.cell(worker, iter, grad) = c;
            }
            TraceEvent::Recovered {
                worker,
                iter,
                grad,
                attempts,
            } => {
                let seen = self.cell(worker, iter, grad).retries;
                if seen == 0 || attempts != seen {
                    self.fail(format!(
                        "recovery of gradient {grad} reports {attempts} attempts, saw {seen} (w{worker} iter {iter})"
                    ));
                }
                // Recovery closes the episode: a later, independent failure
                // of the same gradient numbers its retries from 1 again.
                self.cell(worker, iter, grad).retries = 0;
            }
            TraceEvent::EpochAdvance { shard, epoch } => {
                let prev = peek(&self.shard_state, shard).epoch;
                if epoch <= prev {
                    self.fail(format!(
                        "shard {shard} advanced to epoch {epoch}, not past {prev}"
                    ));
                }
                slot(&mut self.shard_state, shard).epoch = epoch;
            }
            TraceEvent::EpochAck {
                worker,
                shard,
                epoch,
            } => {
                let prev = *slot(slot(&mut self.worker_epoch, worker), shard);
                if epoch <= prev {
                    self.fail(format!(
                        "worker {worker} acked shard {shard} epoch {epoch}, not past {prev}"
                    ));
                }
                let announced = peek(&self.shard_state, shard).epoch;
                if epoch > announced {
                    self.fail(format!(
                        "worker {worker} acked shard {shard} epoch {epoch}, never announced \
                         (newest {announced})"
                    ));
                }
                self.worker_epoch[worker][shard] = epoch;
            }
            TraceEvent::ParamReady {
                worker,
                grad,
                epoch,
            } => {
                let shard = self.shard_of(grad);
                let cur = self.worker_epoch.get(worker).map_or(0, |e| peek(e, shard));
                if epoch != cur {
                    self.fail(format!(
                        "param-ready for gradient {grad} stamped epoch {epoch}, \
                         worker {worker} is in epoch {cur} for shard {shard}"
                    ));
                }
            }
            TraceEvent::MembershipChange {
                epoch,
                kind,
                node,
                iter,
            } => {
                if !kind.is_permanent() {
                    self.fail(format!(
                        "membership change driven by transient fault {kind:?}"
                    ));
                }
                if epoch != self.membership_epoch + 1 {
                    self.fail(format!(
                        "membership epoch {epoch} after epoch {} — epochs must advance by one",
                        self.membership_epoch
                    ));
                }
                self.membership_epoch = epoch;
                match kind {
                    FaultKind::WorkerFail => {
                        if self.members.get(node) != Some(&Member::Live) {
                            self.fail(format!("eviction of worker {node}, which is not live"));
                        }
                        self.members[node] = Member::Evicted;
                    }
                    FaultKind::ShardFail => {
                        if std::mem::replace(&mut slot(&mut self.shard_state, node).dead, true) {
                            self.fail(format!("shard {node} permanently failed twice"));
                        }
                    }
                    FaultKind::WorkerJoin => {
                        if self.members.get(node) != Some(&Member::Pending) {
                            self.fail(format!(
                                "worker {node} joined without being announced as a joiner"
                            ));
                        }
                        self.members[node] = Member::Live;
                        self.join_iter[node] = Some(iter);
                    }
                    _ => unreachable!("is_permanent covers exactly these kinds"),
                }
            }
            TraceEvent::Checkpoint { shard, iter } => {
                if peek(&self.shard_state, shard).dead {
                    self.fail(format!("checkpoint from permanently failed shard {shard}"));
                }
                if let Some(prev) = peek(&self.shard_state, shard).checkpoint {
                    if iter <= prev {
                        self.fail(format!(
                            "shard {shard} checkpointed iter {iter} after iter {prev} — \
                             checkpoint iterations must be strictly monotone"
                        ));
                    }
                }
                slot(&mut self.shard_state, shard).checkpoint = Some(iter);
            }
            TraceEvent::Rehome { grad, from, to } => {
                let cur = self.shard_of(grad);
                if cur != from {
                    self.fail(format!(
                        "re-home of gradient {grad} from shard {from}, but it lives on {cur}"
                    ));
                }
                if !peek(&self.shard_state, from).dead {
                    self.fail(format!(
                        "re-home of gradient {grad} off shard {from}, which is still alive"
                    ));
                }
                // A transiently-down adopter is fine — the restore simply
                // waits out the outage — so only permanent death disqualifies
                // a target: re-homing is a pure function of permanent
                // membership (the deterministic recovery contract).
                if peek(&self.shard_state, to).dead {
                    self.fail(format!(
                        "gradient {grad} re-homed to shard {to}, which is permanently dead"
                    ));
                }
                self.placement.rehome(grad, to);
            }
            TraceEvent::FrameCorrupt { node, bytes, data } => {
                if bytes == 0 {
                    self.fail(format!(
                        "zero-byte corrupt frame reported at node {node} — detection \
                         without a payload is meaningless"
                    ));
                }
                if data {
                    self.corrupt_data_frames += 1;
                }
            }
            TraceEvent::GradQuarantined { worker, iter, grad } => {
                // A quarantine is a data-frame detection: the poisoned push
                // passed its CRC but must still be retransmitted.
                self.corrupt_data_frames += 1;
                // The quarantined push belongs to an iteration the sender is
                // (or was) actually in — a quarantine for an iteration the
                // worker never reached means the guard fabricated it.
                if let Some(wi) = self.worker_iter.get(worker).copied().flatten() {
                    if iter > wi {
                        self.fail(format!(
                            "quarantine of gradient {grad} at iter {iter}, but worker \
                             {worker} has only reached iter {wi}"
                        ));
                    }
                } else {
                    self.fail(format!(
                        "quarantine of gradient {grad} from worker {worker}, which \
                         never began an iteration"
                    ));
                }
            }
            TraceEvent::RestoreFallback { shard, depth } => {
                if depth == 0 {
                    self.fail(format!(
                        "restore fallback of depth 0 for shard {shard} — the newest \
                         generation was intact, nothing fell back"
                    ));
                }
                if !peek(&self.shard_state, shard).dead {
                    self.fail(format!(
                        "restore fallback for shard {shard}, which never permanently \
                         failed"
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Typed span collection
// ---------------------------------------------------------------------------

/// What a [`GradSpan`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Release → first byte on the wire (the paper's "wait time").
    QueueWait,
    /// First byte → last byte of the push at the PS ("transmission time").
    Push,
    /// Push arrival → barrier (BSP) or → pull start (ASP): aggregation and
    /// synchronisation delay at the PS.
    Aggregate,
    /// Pull start → parameters fully back at the worker.
    Pull,
    /// Forward compute of the tensor.
    Compute,
}

impl SpanKind {
    /// Stable lower-case name used in CSV exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Push => "push",
            SpanKind::Aggregate => "aggregate",
            SpanKind::Pull => "pull",
            SpanKind::Compute => "compute",
        }
    }
}

/// One typed interval in the life of gradient `grad` of `(worker, iter)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradSpan {
    /// Worker index.
    pub worker: usize,
    /// Iteration number.
    pub iter: u64,
    /// Gradient id.
    pub grad: usize,
    /// What the interval measures.
    pub kind: SpanKind,
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

/// One PS-side queueing interval: first push arrival of `(iter, grad)` at
/// the owning shard → the BSP barrier. This is the shard's aggregation
/// dwell — how long pushes sat queued at the PS before the update applied
/// — the per-shard view the ROADMAP's trace gap called for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpan {
    /// Shard owning the gradient when its barrier fired.
    pub shard: usize,
    /// Iteration number.
    pub iter: u64,
    /// Gradient id.
    pub grad: usize,
    /// First worker push fully arrived at the shard.
    pub start: SimTime,
    /// Barrier instant (aggregation applied).
    pub end: SimTime,
}

/// Folds the typed event stream into [`GradSpan`]s — one span stream per
/// `(worker, gradient, iteration)` — plus per-shard PS queueing
/// [`ShardSpan`]s when a gradient → shard placement was supplied
/// ([`SpanCollector::with_shards`]).
/// The collector keeps what it is fed: the cluster engine feeds it worker
/// 0's events on every run, and every worker's under `typed_trace`.
#[derive(Debug, Default)]
pub struct SpanCollector {
    /// Per worker: `(iter, grad)` → timestamps, kept for the whole run.
    grads: Vec<IterRows<GradTimes>>,
    /// `(iter, grad)` → barrier instant.
    barriers: IterRows<Option<SimTime>>,
    /// Gradient → shard mapping; unconfigured disables shard spans.
    placement: Placement,
    /// `(iter, grad)` → first push arrival at the PS.
    first_arrival: IterRows<Option<SimTime>>,
    shard_spans: Vec<ShardSpan>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable per-shard spans under the `g % shards` placement rule.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.placement.shards = Some(shards);
        self
    }

    /// Size the tables for a run of `workers` × `iters` × `grads` up
    /// front. The collector keeps every cell of the run, so without this
    /// it allocates one row per `(worker, iteration)` as the run reaches
    /// it; with it, collecting allocates nothing.
    pub fn with_capacity(mut self, workers: usize, iters: usize, grads: usize) -> Self {
        self.grads.resize_with(workers, IterRows::default);
        for rows in &mut self.grads {
            rows.reserve(iters, grads);
        }
        self.barriers.reserve(iters, grads);
        self.first_arrival.reserve(iters, grads);
        self.shard_spans.reserve(iters * grads);
        self
    }

    /// Panic unless each of the first `grads` gradients of `(worker, iter)`
    /// has all five transfer instants: release, push start and end, pull
    /// start and end. The cluster engine asks at worker 0's `IterEnd`: the
    /// forward pass only ran because every gradient was pulled, so a
    /// missing instant means a bookkeeping path skipped its event — fail
    /// at collection time rather than hand out a timeline with a hole.
    pub fn assert_complete(&self, worker: usize, iter: u64, grads: usize) {
        let row = self.grads.get(worker).and_then(|rows| rows.row(iter));
        for g in 0..grads {
            let t = row.map_or_else(GradTimes::default, |row| peek(row, g));
            for (field, at) in [
                ("ready", t.ready),
                ("push_start", t.push_start),
                ("push_end", t.push_end),
                ("pull_start", t.pull_start),
                ("pull_end", t.pull_end),
            ] {
                assert!(
                    at.is_some(),
                    "iteration {iter}: gradient {g} of worker {worker} has no \
                     `{field}` at collection"
                );
            }
        }
    }

    /// Assemble the spans observed so far, ordered by
    /// `(worker, iter, grad, kind)`. Intervals whose endpoints were never
    /// both observed are skipped.
    pub fn into_spans(self) -> Vec<GradSpan> {
        self.into_parts().0
    }

    /// Like [`SpanCollector::into_spans`], also returning the per-shard
    /// queueing spans ordered by `(shard, iter, grad)`.
    pub fn into_parts(mut self) -> (Vec<GradSpan>, Vec<ShardSpan>) {
        self.shard_spans.sort_by_key(|s| (s.shard, s.iter, s.grad));
        let mut out = Vec::new();
        for (worker, rows) in self.grads.iter_mut().enumerate() {
            rows.live.sort_by_key(|&(iter, _)| iter);
            for (iter, row) in &rows.live {
                let barriers = self.barriers.row(*iter).unwrap_or_default();
                for (grad, t) in row.iter().enumerate() {
                    let mut push = |kind, start: Option<SimTime>, end: Option<SimTime>| {
                        if let (Some(start), Some(end)) = (start, end) {
                            out.push(GradSpan {
                                worker,
                                iter: *iter,
                                grad,
                                kind,
                                start,
                                end,
                            });
                        }
                    };
                    push(SpanKind::QueueWait, t.ready, t.push_start);
                    push(SpanKind::Push, t.push_start, t.push_end);
                    let agg_end = peek(barriers, grad).or(t.pull_start);
                    push(SpanKind::Aggregate, t.push_end, agg_end);
                    push(SpanKind::Pull, t.pull_start, t.pull_end);
                    push(SpanKind::Compute, t.fwd_start, t.fwd_end);
                }
            }
        }
        (out, self.shard_spans)
    }
}

impl TraceSink for SpanCollector {
    fn on_event(&mut self, at: SimTime, ev: &TraceEvent) {
        let mut set =
            |w: usize, i: u64, g: usize, f: fn(&mut GradTimes) -> &mut Option<SimTime>| {
                *f(slot(&mut self.grads, w).cell(i, g)) = Some(at);
            };
        match *ev {
            TraceEvent::GradReady { worker, iter, grad } => {
                set(worker, iter, grad, |c| &mut c.ready)
            }
            TraceEvent::PushStart { worker, iter, grad } => {
                set(worker, iter, grad, |c| &mut c.push_start)
            }
            TraceEvent::PushEnd { worker, iter, grad } => {
                self.first_arrival.cell(iter, grad).get_or_insert(at);
                set(worker, iter, grad, |c| &mut c.push_end)
            }
            TraceEvent::PullStart { worker, iter, grad } => {
                set(worker, iter, grad, |c| &mut c.pull_start)
            }
            TraceEvent::PullEnd { worker, iter, grad } => {
                set(worker, iter, grad, |c| &mut c.pull_end)
            }
            TraceEvent::FwdStart { worker, iter, grad } => {
                set(worker, iter, grad, |c| &mut c.fwd_start)
            }
            TraceEvent::FwdEnd { worker, iter, grad } => {
                set(worker, iter, grad, |c| &mut c.fwd_end)
            }
            TraceEvent::Barrier { iter, grad } => {
                *self.barriers.cell(iter, grad) = Some(at);
                if let Some(shard) = self.placement.shard_of(grad) {
                    if let Some(start) = self.first_arrival.get(iter, grad) {
                        self.shard_spans.push(ShardSpan {
                            shard,
                            iter,
                            grad,
                            start,
                            end: at,
                        });
                    }
                }
            }
            TraceEvent::Rehome { grad, to, .. } => self.placement.rehome(grad, to),
            _ => {}
        }
    }
}

/// The fill glyph a [`SpanKind`] draws with in the ASCII Gantt.
fn span_glyph(kind: SpanKind) -> u8 {
    match kind {
        SpanKind::QueueWait => b'.',
        SpanKind::Push => b'#',
        SpanKind::Aggregate => b'=',
        SpanKind::Pull => b'<',
        SpanKind::Compute => b'F',
    }
}

/// Render typed [`GradSpan`]s as an ASCII Gantt chart, `width` characters
/// across the observed time range, one row per `(worker, gradient)` lane
/// (lanes in first-appearance order, iterations overlaid left to right).
///
/// Each row shows one tensor's queue-wait/push/aggregate/pull/compute
/// phases — Fig. 5's per-gradient schedule, and what makes a shrunk chaos
/// reproducer diagnosable at a glance (a retry storm shows up as a lane
/// whose push glyphs restart mid-row).
pub fn grad_spans_to_ascii_gantt(spans: &[GradSpan], width: usize) -> String {
    if spans.is_empty() {
        return String::from("(no spans)\n");
    }
    let t0 = spans.iter().map(|s| s.start).min().unwrap();
    let t1 = spans.iter().map(|s| s.end).max().unwrap();
    let range = (t1.saturating_since(t0)).as_secs_f64().max(1e-12);
    let col = |t: SimTime| t.saturating_since(t0).as_secs_f64() / range * width as f64;

    let mut lanes: Vec<(usize, usize)> = Vec::new();
    for s in spans {
        if !lanes.contains(&(s.worker, s.grad)) {
            lanes.push((s.worker, s.grad));
        }
    }
    let names: Vec<String> = lanes.iter().map(|(w, g)| format!("w{w}.g{g}")).collect();
    let name_w = names.iter().map(|n| n.len()).max().unwrap_or(0).max(4);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:name_w$} |{}| {:.3}ms..{:.3}ms",
        "lane",
        "-".repeat(width),
        t0.as_millis_f64(),
        t1.as_millis_f64()
    );
    for (&lane, name) in lanes.iter().zip(&names) {
        let mut row = vec![b' '; width];
        for s in spans.iter().filter(|s| (s.worker, s.grad) == lane) {
            let a = col(s.start) as usize;
            let b = (col(s.end).ceil() as usize).clamp(a + 1, width);
            row[a.min(width - 1)..b].fill(span_glyph(s.kind));
        }
        let _ = writeln!(out, "{:name_w$} |{}|", name, String::from_utf8_lossy(&row));
    }
    let _ = writeln!(
        out,
        "{:name_w$}  legend: .=queue-wait #=push ==aggregate <=pull F=compute",
        ""
    );
    out
}

/// Render per-shard queueing spans as CSV:
/// `shard,iter,grad,start_ms,end_ms,dwell_ms`.
pub fn shard_spans_to_csv(spans: &[ShardSpan]) -> String {
    let mut out = String::from("shard,iter,grad,start_ms,end_ms,dwell_ms\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{:.6},{:.6}",
            s.shard,
            s.iter,
            s.grad,
            s.start.as_millis_f64(),
            s.end.as_millis_f64(),
            s.end.saturating_since(s.start).as_secs_f64() * 1e3
        );
    }
    out
}

/// Render typed spans as CSV: `worker,iter,grad,kind,start_ms,end_ms`.
pub fn spans_to_csv(spans: &[GradSpan]) -> String {
    let mut out = String::from("worker,iter,grad,kind,start_ms,end_ms\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.6}",
            s.worker,
            s.iter,
            s.grad,
            s.kind.as_str(),
            s.start.as_millis_f64(),
            s.end.as_millis_f64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    // ---- typed event stream ---------------------------------------------

    /// One fault-free BSP iteration of `workers` × `grads`, 20 ms long.
    fn bsp_iteration(workers: usize, grads: usize, iter: u64) -> Vec<(SimTime, TraceEvent)> {
        use TraceEvent::*;
        type Stage = fn(usize, u64, usize) -> TraceEvent;
        let before: [(u64, Stage); 3] = [
            (1, |worker, iter, grad| GradReady { worker, iter, grad }),
            (2, |worker, iter, grad| PushStart { worker, iter, grad }),
            (5, |worker, iter, grad| PushEnd { worker, iter, grad }),
        ];
        let after: [(u64, Stage); 4] = [
            (6, |worker, iter, grad| PullStart { worker, iter, grad }),
            (9, |worker, iter, grad| PullEnd { worker, iter, grad }),
            (10, |worker, iter, grad| FwdStart { worker, iter, grad }),
            (12, |worker, iter, grad| FwdEnd { worker, iter, grad }),
        ];
        let t = |ms: u64| at(iter * 20 + ms);
        let mut evs = Vec::new();
        evs.extend((0..workers).map(|worker| (t(0), IterBegin { worker, iter })));
        let run = |evs: &mut Vec<_>, stages: &[(u64, Stage)]| {
            for &(ms, stage) in stages {
                for worker in 0..workers {
                    evs.extend((0..grads).map(|grad| (t(ms), stage(worker, iter, grad))));
                }
            }
        };
        run(&mut evs, &before);
        evs.extend((0..grads).map(|grad| (t(5), Barrier { iter, grad })));
        run(&mut evs, &after);
        evs.extend((0..workers).map(|worker| (t(12), IterEnd { worker, iter })));
        evs
    }

    /// A well-formed single-worker, single-gradient BSP lifecycle: one
    /// iteration, with the push's flow on the wire from t = 2 to t = 5.
    fn lifecycle() -> Vec<(SimTime, TraceEvent)> {
        let (tag, src, dst) = (7, 1, 0);
        let mut evs = bsp_iteration(1, 1, 0);
        let bytes = 1000;
        let start = TraceEvent::FlowStart {
            tag,
            src,
            dst,
            bytes,
        };
        let delivered = 1000.0;
        let end = TraceEvent::FlowEnd {
            tag,
            src,
            dst,
            delivered,
        };
        evs.splice(3..3, [(at(2), start), (at(5), end)]);
        evs
    }

    fn feed(checker: &mut InvariantChecker, evs: &[(SimTime, TraceEvent)]) {
        for &(t, ev) in evs {
            checker.on_event(t, &ev);
        }
    }

    #[test]
    fn checker_accepts_well_formed_stream() {
        let mut c = InvariantChecker::new(1, true);
        feed(&mut c, &lifecycle());
        assert_eq!(c.events_seen(), 12);
        c.finish();
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn checker_rejects_time_reversal() {
        let mut c = InvariantChecker::new(1, true);
        c.on_event(at(5), &TraceEvent::IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(3),
            &TraceEvent::GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn checker_rejects_sentinel_timestamp() {
        let mut c = InvariantChecker::new(1, true);
        c.on_event(SimTime::MAX, &TraceEvent::IterBegin { worker: 0, iter: 0 });
    }

    #[test]
    #[should_panic(expected = "push of unreleased gradient")]
    fn checker_rejects_push_before_ready() {
        let mut c = InvariantChecker::new(1, true);
        c.on_event(at(0), &TraceEvent::IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(1),
            &TraceEvent::PushStart {
                worker: 0,
                iter: 0,
                grad: 3,
            },
        );
    }

    #[test]
    #[should_panic(expected = "took no wire time")]
    fn checker_rejects_zero_width_push() {
        let mut c = InvariantChecker::new(1, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushEnd {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "before its barrier")]
    fn checker_rejects_pull_before_barrier_in_bsp() {
        let mut c = InvariantChecker::new(2, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(at(0), &IterBegin { worker: 1, iter: 0 });
        c.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(4),
            &PushEnd {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        // Worker 1's push never arrived, so no barrier: this pull is illegal.
        c.on_event(
            at(5),
            &PullStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "after 1/2 pushes")]
    fn checker_rejects_early_barrier() {
        let mut c = InvariantChecker::new(2, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(at(0), &IterBegin { worker: 1, iter: 0 });
        c.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(4),
            &PushEnd {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(at(4), &Barrier { iter: 0, grad: 0 });
    }

    #[test]
    #[should_panic(expected = "barrier event in ASP mode")]
    fn checker_rejects_barrier_in_asp() {
        let mut c = InvariantChecker::new(1, false);
        c.on_event(at(0), &TraceEvent::IterBegin { worker: 0, iter: 0 });
        c.on_event(at(1), &TraceEvent::Barrier { iter: 0, grad: 0 });
    }

    #[test]
    #[should_panic(expected = "delivered")]
    fn checker_rejects_byte_loss() {
        let mut c = InvariantChecker::new(1, true);
        use TraceEvent::*;
        c.on_event(
            at(0),
            &FlowStart {
                tag: 1,
                src: 1,
                dst: 0,
                bytes: 1000,
            },
        );
        c.on_event(
            at(3),
            &FlowEnd {
                tag: 1,
                src: 1,
                dst: 0,
                delivered: 990.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "never completed")]
    fn checker_finish_flags_dangling_flow() {
        let mut c = InvariantChecker::new(1, true);
        c.on_event(
            at(0),
            &TraceEvent::FlowStart {
                tag: 9,
                src: 1,
                dst: 0,
                bytes: 10,
            },
        );
        c.finish();
    }

    fn storage<T>(rows: &IterRows<T>) -> usize {
        let cells = rows.live.iter().map(|(_, row)| row.capacity());
        cells.chain(rows.spare.iter().map(Vec::capacity)).sum()
    }

    #[test]
    fn checker_prunes_completed_iterations() {
        // An IterEnd recycles that worker's row and nobody else's: it
        // touches exactly `grads` cells however many workers there are,
        // and the tables hold the same storage after 3 iterations as 200.
        let (workers, grads) = (64, 5);
        let run = |iters: u64| {
            let mut c = InvariantChecker::new(workers, true);
            let held = |c: &InvariantChecker| -> usize {
                let rows = c.grads.iter().flat_map(|rows| &rows.live);
                rows.map(|(_, row)| row.len()).sum()
            };
            for iter in 0..iters {
                for (t, ev) in bsp_iteration(workers, grads, iter) {
                    let before = held(&c);
                    c.on_event(t, &ev);
                    if matches!(ev, TraceEvent::IterEnd { .. }) {
                        assert_eq!(before - held(&c), grads, "cells dropped by {ev:?}");
                    }
                }
            }
            assert!(
                c.grads.iter().all(|rows| rows.live.is_empty()),
                "per-gradient cells not pruned at IterEnd"
            );
            c.grads.iter().map(storage).sum::<usize>() + storage(&c.arrivals) + storage(&c.barriers)
        };
        assert_eq!(run(3), run(200));
    }

    #[test]
    fn span_collector_folds_lifecycle_into_five_kinds() {
        let mut sc = SpanCollector::new();
        for (t, ev) in lifecycle() {
            sc.on_event(t, &ev);
        }
        let spans = sc.into_spans();
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::QueueWait,
                SpanKind::Push,
                SpanKind::Aggregate,
                SpanKind::Pull,
                SpanKind::Compute
            ]
        );
        for s in &spans {
            assert!(s.end >= s.start, "{:?} ends before it starts", s.kind);
            assert_eq!((s.worker, s.iter, s.grad), (0, 0, 0));
        }
        // Aggregate runs push arrival → barrier (both at t=5 here).
        let agg = spans
            .iter()
            .find(|s| s.kind == SpanKind::Aggregate)
            .unwrap();
        assert_eq!((agg.start, agg.end), (at(5), at(5)));
    }

    #[test]
    fn span_collector_skips_incomplete_intervals() {
        let mut sc = SpanCollector::new();
        use TraceEvent::*;
        sc.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        sc.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        // No push_end: only QueueWait is complete.
        let spans = sc.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::QueueWait);
    }

    #[test]
    #[should_panic(expected = "iteration 0: gradient 1 of worker 0 has no `pull_start`")]
    fn span_collector_rejects_a_gradient_missing_an_instant() {
        let mut sc = SpanCollector::new();
        let skipped = TraceEvent::PullStart {
            worker: 0,
            iter: 0,
            grad: 1,
        };
        for (t, ev) in bsp_iteration(1, 3, 0) {
            if ev != skipped {
                sc.on_event(t, &ev);
            }
        }
        sc.assert_complete(0, 0, 3);
    }

    // ---- fault/retry extensions -----------------------------------------

    /// Push of grad 0 fails once mid-flight, retries, then recovers: the
    /// canonical lost-message lifecycle the cluster engine emits.
    fn retry_lifecycle() -> Vec<(SimTime, TraceEvent)> {
        use TraceEvent::*;
        vec![
            (at(0), IterBegin { worker: 0, iter: 0 }),
            (
                at(1),
                GradReady {
                    worker: 0,
                    iter: 0,
                    grad: 0,
                },
            ),
            (
                at(2),
                PushStart {
                    worker: 0,
                    iter: 0,
                    grad: 0,
                },
            ),
            (
                at(2),
                FlowStart {
                    tag: 1,
                    src: 1,
                    dst: 0,
                    bytes: 1000,
                },
            ),
            (
                at(3),
                FaultStart {
                    kind: FaultKind::LinkDown,
                    node: 1,
                },
            ),
            (
                at(3),
                FlowKilled {
                    tag: 1,
                    src: 1,
                    dst: 0,
                    delivered: 400.0,
                },
            ),
            (
                at(3),
                RetryAttempt {
                    worker: 0,
                    iter: 0,
                    grad: 0,
                    attempt: 1,
                },
            ),
            (
                at(8),
                FaultEnd {
                    kind: FaultKind::LinkDown,
                    node: 1,
                },
            ),
            (
                at(9),
                PushStart {
                    worker: 0,
                    iter: 0,
                    grad: 0,
                },
            ),
            (
                at(9),
                FlowStart {
                    tag: 2,
                    src: 1,
                    dst: 0,
                    bytes: 1000,
                },
            ),
            (
                at(12),
                FlowEnd {
                    tag: 2,
                    src: 1,
                    dst: 0,
                    delivered: 1000.0,
                },
            ),
            (
                at(12),
                Recovered {
                    worker: 0,
                    iter: 0,
                    grad: 0,
                    attempts: 1,
                },
            ),
            (
                at(12),
                PushEnd {
                    worker: 0,
                    iter: 0,
                    grad: 0,
                },
            ),
            (at(12), Barrier { iter: 0, grad: 0 }),
        ]
    }

    #[test]
    fn checker_accepts_retry_lifecycle() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        feed(&mut c, &retry_lifecycle());
        c.finish();
    }

    #[test]
    #[should_panic(expected = "after 0 retries")]
    fn checker_rejects_nonconsecutive_retry_numbers() {
        let mut c = InvariantChecker::new(1, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(3),
            &RetryAttempt {
                worker: 0,
                iter: 0,
                grad: 0,
                attempt: 2,
            },
        );
    }

    #[test]
    #[should_panic(expected = "no transfer in flight")]
    fn checker_rejects_retry_of_unstarted_transfer() {
        let mut c = InvariantChecker::new(1, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(3),
            &RetryAttempt {
                worker: 0,
                iter: 0,
                grad: 0,
                attempt: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "while shard 0 is down")]
    fn checker_rejects_barrier_while_shard_down() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        // The crash voids earlier arrivals, so the one that matters here
        // lands while the shard is down.
        c.on_event(
            at(3),
            &FaultStart {
                kind: FaultKind::ShardCrash,
                node: 0,
            },
        );
        c.on_event(
            at(4),
            &PushEnd {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(at(6), &Barrier { iter: 0, grad: 0 });
    }

    #[test]
    #[should_panic(expected = "reports 2 attempts, saw 1")]
    fn checker_rejects_recovery_with_wrong_attempt_count() {
        let mut c = InvariantChecker::new(1, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(
            at(1),
            &GradReady {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(2),
            &PushStart {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        c.on_event(
            at(3),
            &RetryAttempt {
                worker: 0,
                iter: 0,
                grad: 0,
                attempt: 1,
            },
        );
        c.on_event(
            at(4),
            &Recovered {
                worker: 0,
                iter: 0,
                grad: 0,
                attempts: 2,
            },
        );
    }

    #[test]
    #[should_panic(expected = "fault LinkDown on node 1 started twice")]
    fn checker_rejects_duplicate_fault_start() {
        let mut c = InvariantChecker::new(1, true);
        let ev = TraceEvent::FaultStart {
            kind: FaultKind::LinkDown,
            node: 1,
        };
        c.on_event(at(0), &ev);
        c.on_event(at(1), &ev);
    }

    /// Worker 0 of a 1-worker, 1-shard run, its iteration-0 push of
    /// gradient 0 fully arrived (through `t = 4`).
    fn arrived_push() -> Vec<(SimTime, TraceEvent)> {
        use TraceEvent::*;
        let (worker, iter, grad) = (0, 0, 0);
        vec![
            (at(0), IterBegin { worker, iter }),
            (at(1), GradReady { worker, iter, grad }),
            (at(2), PushStart { worker, iter, grad }),
            (at(4), PushEnd { worker, iter, grad }),
        ]
    }

    fn crash(at_ms: u64, start: bool) -> (SimTime, TraceEvent) {
        let (kind, node) = (FaultKind::ShardCrash, 0);
        let ev = if start {
            TraceEvent::FaultStart { kind, node }
        } else {
            TraceEvent::FaultEnd { kind, node }
        };
        (at(at_ms), ev)
    }

    #[test]
    fn shard_crash_voids_arrivals_so_barrier_waits_for_replay() {
        // A push that fully arrived, then was wiped by its shard's crash
        // and replayed: the barrier fires only after the replay lands.
        use TraceEvent::*;
        let (worker, iter, grad) = (0, 0, 0);
        let mut evs = arrived_push();
        evs.push(crash(5, true));
        evs.extend([
            (
                at(5),
                RetryAttempt {
                    worker,
                    iter,
                    grad,
                    attempt: 1,
                },
            ),
            crash(9, false),
            (at(10), PushStart { worker, iter, grad }),
            (at(12), PushEnd { worker, iter, grad }),
            (
                at(12),
                Recovered {
                    worker,
                    iter,
                    grad,
                    attempts: 1,
                },
            ),
            (at(12), Barrier { iter, grad }),
        ]);
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        feed(&mut c, &evs);
        c.finish();
    }

    #[test]
    #[should_panic(expected = "after 0/1 pushes")]
    fn barrier_on_arrivals_a_crash_wiped_is_rejected() {
        let mut evs = arrived_push();
        evs.extend([crash(5, true), crash(9, false)]);
        evs.push((at(10), TraceEvent::Barrier { iter: 0, grad: 0 }));
        feed(&mut InvariantChecker::new(1, true).with_shards(1), &evs);
    }

    #[test]
    fn sender_retry_never_voids_a_staged_arrival() {
        // A spurious ack timeout: the sender opens a retry for a push the
        // shard already staged and counted. The shard drops the re-send as
        // a duplicate and closes the barrier on its own count — legal.
        use TraceEvent::*;
        let (worker, iter, grad) = (0, 0, 0);
        let mut evs = arrived_push();
        evs.extend([
            (
                at(5),
                RetryAttempt {
                    worker,
                    iter,
                    grad,
                    attempt: 1,
                },
            ),
            (at(5), PushStart { worker, iter, grad }),
            (at(6), Barrier { iter, grad }),
            (
                at(7),
                Recovered {
                    worker,
                    iter,
                    grad,
                    attempts: 1,
                },
            ),
            (at(8), PullStart { worker, iter, grad }),
        ]);
        feed(&mut InvariantChecker::new(1, true).with_shards(1), &evs);
    }

    #[test]
    #[should_panic(expected = "counted twice")]
    fn a_push_counted_twice_is_rejected() {
        // The sender's retry un-stamps its own view, so only the arrival
        // set can catch a receiver that stages the re-send as new.
        use TraceEvent::*;
        let (worker, iter, grad) = (0, 0, 0);
        let mut evs = arrived_push();
        evs.extend([
            (
                at(5),
                RetryAttempt {
                    worker,
                    iter,
                    grad,
                    attempt: 1,
                },
            ),
            (at(5), PushStart { worker, iter, grad }),
            (at(6), PushEnd { worker, iter, grad }),
        ]);
        feed(&mut InvariantChecker::new(1, true).with_shards(1), &evs);
    }

    #[test]
    fn typed_spans_csv_shape() {
        let spans = vec![GradSpan {
            worker: 1,
            iter: 2,
            grad: 30,
            kind: SpanKind::Push,
            start: at(4),
            end: at(9),
        }];
        let csv = spans_to_csv(&spans);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "worker,iter,grad,kind,start_ms,end_ms"
        );
        assert_eq!(lines.next().unwrap(), "1,2,30,push,4.000000,9.000000");
        assert!(lines.next().is_none());
    }

    // ---- epoch protocol (threaded runtime) ------------------------------

    #[test]
    fn checker_accepts_epoch_protocol() {
        let mut c = InvariantChecker::new(2, true).with_shards(1);
        use TraceEvent::*;
        feed(
            &mut c,
            &[
                // Pre-crash delivery under the initial epoch.
                (
                    at(0),
                    ParamReady {
                        worker: 0,
                        grad: 0,
                        epoch: 0,
                    },
                ),
                (at(1), EpochAdvance { shard: 0, epoch: 1 }),
                // Worker 1 still processes an epoch-0 delivery that was
                // queued before the crash — legal until it acks.
                (
                    at(2),
                    ParamReady {
                        worker: 1,
                        grad: 0,
                        epoch: 0,
                    },
                ),
                (
                    at(3),
                    EpochAck {
                        worker: 0,
                        shard: 0,
                        epoch: 1,
                    },
                ),
                (
                    at(3),
                    EpochAck {
                        worker: 1,
                        shard: 0,
                        epoch: 1,
                    },
                ),
                (
                    at(4),
                    ParamReady {
                        worker: 0,
                        grad: 1,
                        epoch: 1,
                    },
                ),
            ],
        );
        c.finish();
    }

    #[test]
    #[should_panic(expected = "stamped epoch 0")]
    fn checker_rejects_stale_param_ready() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        use TraceEvent::*;
        c.on_event(at(0), &EpochAdvance { shard: 0, epoch: 1 });
        c.on_event(
            at(1),
            &EpochAck {
                worker: 0,
                shard: 0,
                epoch: 1,
            },
        );
        c.on_event(
            at(2),
            &ParamReady {
                worker: 0,
                grad: 3,
                epoch: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "advanced to epoch 1, not past 1")]
    fn checker_rejects_nonmonotone_epoch_advance() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        let ev = TraceEvent::EpochAdvance { shard: 0, epoch: 1 };
        c.on_event(at(0), &ev);
        c.on_event(at(1), &ev);
    }

    #[test]
    #[should_panic(expected = "never announced")]
    fn checker_rejects_ack_of_unannounced_epoch() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        c.on_event(
            at(0),
            &TraceEvent::EpochAck {
                worker: 0,
                shard: 0,
                epoch: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "stamped epoch 1")]
    fn checker_rejects_param_ready_from_the_future() {
        // A ParamReady stamped with an epoch the worker has not acked yet
        // means it overtook the ShardRestarted notice on a FIFO channel.
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        c.on_event(at(0), &TraceEvent::EpochAdvance { shard: 0, epoch: 1 });
        c.on_event(
            at(1),
            &TraceEvent::ParamReady {
                worker: 0,
                grad: 0,
                epoch: 1,
            },
        );
    }

    #[test]
    fn epochs_are_tracked_per_shard() {
        // Shard 1 restarting must not disturb deliveries from shard 0:
        // with the explicit map, gradient 0 (shard 0) stays on epoch 0
        // while gradient 1 (shard 1) moves to epoch 1.
        let mut c = InvariantChecker::new(1, true).with_shard_map(vec![0, 1]);
        use TraceEvent::*;
        c.on_event(at(0), &EpochAdvance { shard: 1, epoch: 1 });
        c.on_event(
            at(1),
            &EpochAck {
                worker: 0,
                shard: 1,
                epoch: 1,
            },
        );
        c.on_event(
            at(2),
            &ParamReady {
                worker: 0,
                grad: 0,
                epoch: 0,
            },
        );
        c.on_event(
            at(3),
            &ParamReady {
                worker: 0,
                grad: 1,
                epoch: 1,
            },
        );
        c.finish();
    }

    #[test]
    #[should_panic(expected = "in epoch 0 for shard 1")]
    fn shard_map_routes_param_ready_to_owning_shard() {
        // Gradient 1 belongs to shard 1 under the map; an epoch-1 stamp
        // is from the future because the worker never acked shard 1.
        let mut c = InvariantChecker::new(1, true).with_shard_map(vec![0, 1]);
        c.on_event(at(0), &TraceEvent::EpochAdvance { shard: 1, epoch: 1 });
        c.on_event(
            at(1),
            &TraceEvent::ParamReady {
                worker: 0,
                grad: 1,
                epoch: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "acked shard 1 epoch 1, never announced")]
    fn ack_checks_the_announcing_shard() {
        // Shard 0 announced epoch 1; acking *shard 1* at epoch 1 is bogus.
        let mut c = InvariantChecker::new(1, true).with_shards(2);
        c.on_event(at(0), &TraceEvent::EpochAdvance { shard: 0, epoch: 1 });
        c.on_event(
            at(1),
            &TraceEvent::EpochAck {
                worker: 0,
                shard: 1,
                epoch: 1,
            },
        );
    }

    // ---- per-gradient Gantt ---------------------------------------------

    #[test]
    fn grad_gantt_renders_lanes_and_glyphs() {
        let spans = vec![
            GradSpan {
                worker: 0,
                iter: 0,
                grad: 0,
                kind: SpanKind::Push,
                start: at(0),
                end: at(50),
            },
            GradSpan {
                worker: 0,
                iter: 0,
                grad: 1,
                kind: SpanKind::Pull,
                start: at(50),
                end: at(100),
            },
            GradSpan {
                worker: 1,
                iter: 0,
                grad: 0,
                kind: SpanKind::Compute,
                start: at(25),
                end: at(75),
            },
        ];
        let g = grad_spans_to_ascii_gantt(&spans, 20);
        assert!(g.contains("w0.g0"), "{g}");
        assert!(g.contains("w0.g1"), "{g}");
        assert!(g.contains("w1.g0"), "{g}");
        assert!(g.contains('#'), "{g}");
        assert!(g.contains('<'), "{g}");
        assert!(g.contains('F'), "{g}");
        assert!(g.contains("legend"), "{g}");
        assert!(g.contains("0.000ms..100.000ms"), "{g}");
    }

    #[test]
    fn grad_gantt_empty() {
        assert_eq!(grad_spans_to_ascii_gantt(&[], 10), "(no spans)\n");
    }

    // ---- elastic membership ---------------------------------------------

    #[test]
    fn checker_accepts_membership_lifecycle() {
        // Evict worker 0 at iter 1, fail shard 0 with a re-home, admit a
        // joiner: epochs advance by one and every rule stays satisfied.
        let mut c = InvariantChecker::new(2, true)
            .with_shards(2)
            .with_joiners(1);
        use TraceEvent::*;
        feed(
            &mut c,
            &[
                (
                    at(0),
                    MembershipChange {
                        epoch: 1,
                        kind: FaultKind::WorkerFail,
                        node: 0,
                        iter: 1,
                    },
                ),
                (
                    at(1),
                    MembershipChange {
                        epoch: 2,
                        kind: FaultKind::ShardFail,
                        node: 0,
                        iter: 1,
                    },
                ),
                (
                    at(1),
                    Rehome {
                        grad: 0,
                        from: 0,
                        to: 1,
                    },
                ),
                (
                    at(2),
                    MembershipChange {
                        epoch: 3,
                        kind: FaultKind::WorkerJoin,
                        node: 2,
                        iter: 1,
                    },
                ),
                (at(3), Checkpoint { shard: 1, iter: 1 }),
                (at(4), Checkpoint { shard: 1, iter: 3 }),
                // The joiner's first iteration is its join iteration.
                (at(5), IterBegin { worker: 2, iter: 1 }),
            ],
        );
        c.finish();
    }

    #[test]
    #[should_panic(expected = "epochs must advance by one")]
    fn checker_rejects_skipped_membership_epoch() {
        let mut c = InvariantChecker::new(2, true);
        c.on_event(
            at(0),
            &TraceEvent::MembershipChange {
                epoch: 2,
                kind: FaultKind::WorkerFail,
                node: 0,
                iter: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "evicted worker 1 emitted")]
    fn checker_rejects_evicted_worker_activity() {
        let mut c = InvariantChecker::new(2, true);
        use TraceEvent::*;
        c.on_event(at(0), &IterBegin { worker: 0, iter: 0 });
        c.on_event(at(0), &IterBegin { worker: 1, iter: 0 });
        c.on_event(
            at(1),
            &MembershipChange {
                epoch: 1,
                kind: FaultKind::WorkerFail,
                node: 1,
                iter: 1,
            },
        );
        c.on_event(
            at(2),
            &GradReady {
                worker: 1,
                iter: 1,
                grad: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "before joining")]
    fn checker_rejects_pending_joiner_activity() {
        let mut c = InvariantChecker::new(1, true).with_joiners(1);
        c.on_event(at(0), &TraceEvent::IterBegin { worker: 1, iter: 0 });
    }

    #[test]
    #[should_panic(expected = "checkpoint iterations must be strictly monotone")]
    fn checker_rejects_nonmonotone_checkpoint() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        c.on_event(at(0), &TraceEvent::Checkpoint { shard: 0, iter: 2 });
        c.on_event(at(1), &TraceEvent::Checkpoint { shard: 0, iter: 2 });
    }

    #[test]
    #[should_panic(expected = "on permanently failed shard 0")]
    fn checker_rejects_barrier_on_failed_shard() {
        let mut c = InvariantChecker::new(1, true).with_shards(1);
        use TraceEvent::*;
        feed(
            &mut c,
            &[
                (at(0), IterBegin { worker: 0, iter: 0 }),
                (
                    at(1),
                    GradReady {
                        worker: 0,
                        iter: 0,
                        grad: 0,
                    },
                ),
                (
                    at(2),
                    PushStart {
                        worker: 0,
                        iter: 0,
                        grad: 0,
                    },
                ),
                (
                    at(4),
                    PushEnd {
                        worker: 0,
                        iter: 0,
                        grad: 0,
                    },
                ),
                (
                    at(5),
                    MembershipChange {
                        epoch: 1,
                        kind: FaultKind::ShardFail,
                        node: 0,
                        iter: 1,
                    },
                ),
                // No re-home happened: the barrier still targets shard 0.
                (at(6), Barrier { iter: 0, grad: 0 }),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "which is still alive")]
    fn checker_rejects_rehome_off_live_shard() {
        let mut c = InvariantChecker::new(1, true).with_shards(2);
        c.on_event(
            at(0),
            &TraceEvent::Rehome {
                grad: 0,
                from: 0,
                to: 1,
            },
        );
    }

    #[test]
    fn barrier_counts_only_live_membership_after_eviction() {
        // Two workers; worker 1 evicted at iter 1. The iter-1 barrier
        // fires off worker 0's push alone.
        let mut c = InvariantChecker::new(2, true).with_shards(1);
        use TraceEvent::*;
        let full_iter = |iter: u64, workers: &[usize]| {
            let mut evs = Vec::new();
            let base = at(iter * 100);
            for &w in workers {
                evs.push((base, IterBegin { worker: w, iter }));
            }
            let phase = |evs: &mut Vec<(SimTime, TraceEvent)>,
                         ms: u64,
                         mk: &dyn Fn(usize) -> TraceEvent| {
                for &w in workers {
                    evs.push((base + Duration::from_millis(ms), mk(w)));
                }
            };
            phase(&mut evs, 1, &|w| GradReady {
                worker: w,
                iter,
                grad: 0,
            });
            phase(&mut evs, 2, &|w| PushStart {
                worker: w,
                iter,
                grad: 0,
            });
            phase(&mut evs, 4, &|w| PushEnd {
                worker: w,
                iter,
                grad: 0,
            });
            evs.push((base + Duration::from_millis(5), Barrier { iter, grad: 0 }));
            phase(&mut evs, 6, &|w| PullStart {
                worker: w,
                iter,
                grad: 0,
            });
            phase(&mut evs, 8, &|w| PullEnd {
                worker: w,
                iter,
                grad: 0,
            });
            phase(&mut evs, 9, &|w| FwdStart {
                worker: w,
                iter,
                grad: 0,
            });
            phase(&mut evs, 10, &|w| FwdEnd {
                worker: w,
                iter,
                grad: 0,
            });
            phase(&mut evs, 10, &|w| IterEnd { worker: w, iter });
            evs
        };
        feed(&mut c, &full_iter(0, &[0, 1]));
        c.on_event(
            at(50),
            &TraceEvent::MembershipChange {
                epoch: 1,
                kind: FaultKind::WorkerFail,
                node: 1,
                iter: 1,
            },
        );
        feed(&mut c, &full_iter(1, &[0]));
        c.finish();
    }

    #[test]
    fn span_collector_emits_shard_spans() {
        let mut sc = SpanCollector::new().with_shards(1);
        for (t, ev) in lifecycle() {
            sc.on_event(t, &ev);
        }
        let (grad_spans, shard_spans) = sc.into_parts();
        assert_eq!(grad_spans.len(), 5);
        assert_eq!(
            shard_spans,
            vec![ShardSpan {
                shard: 0,
                iter: 0,
                grad: 0,
                start: at(5),
                end: at(5),
            }]
        );
    }

    #[test]
    fn shard_spans_follow_rehomes() {
        let mut sc = SpanCollector::new().with_shards(1);
        use TraceEvent::*;
        sc.on_event(
            at(0),
            &Rehome {
                grad: 0,
                from: 0,
                to: 1,
            },
        );
        sc.on_event(
            at(1),
            &PushEnd {
                worker: 0,
                iter: 0,
                grad: 0,
            },
        );
        sc.on_event(at(2), &Barrier { iter: 0, grad: 0 });
        let (_, shard_spans) = sc.into_parts();
        assert_eq!(shard_spans.len(), 1);
        assert_eq!(shard_spans[0].shard, 1);
    }

    #[test]
    fn shard_spans_csv_shape() {
        let spans = vec![ShardSpan {
            shard: 1,
            iter: 2,
            grad: 30,
            start: at(4),
            end: at(9),
        }];
        let csv = shard_spans_to_csv(&spans);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "shard,iter,grad,start_ms,end_ms,dwell_ms"
        );
        assert_eq!(lines.next().unwrap(), "1,2,30,4.000000,9.000000,5.000000");
        assert!(lines.next().is_none());
    }
}
