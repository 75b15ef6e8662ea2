//! The BSP training-cluster engine.
//!
//! One event queue drives everything: per-worker backward passes release
//! gradients (the stepwise schedule from `prophet-dnn` with per-iteration
//! jitter), the worker's `CommScheduler` turns releases into wire messages,
//! the fluid network carries them, the PS aggregates per-gradient BSP
//! barriers, updated parameters flow back, and the forward pass consumes
//! them strictly in priority order (the paper's Eq. 3 gating).
//!
//! Everything stochastic derives from the config seed; two runs of the same
//! config produce identical results (asserted by the integration tests).

use super::config::{ClusterConfig, SyncMode};
use super::metrics::{ClusterStats, ElasticStats, FaultStats, GradTransferLog, RunResult};
use crate::protocol::{
    Arrival, Barriers, CheckpointSchedule, GenChain, Generation, Membership, Outbox, Windows,
};
use prophet_core::{CommScheduler, Dir, TransferTask, Transport};
use prophet_net::{
    BandwidthMonitor, FlowEnd, KilledFlow, NetEvent, Network, NodeId, NodeSpec, Topology,
};
use prophet_sim::{
    rehome_modular, Duration, EventQueue, FaultKind, InvariantChecker, RateSeries, SimTime,
    SpanCollector, TimeWeighted, TraceEvent, TraceRecorder, TraceSink, Xoshiro256StarStar,
};
use std::collections::VecDeque;

/// Index of a [`Lane`] in [`Lanes::slab`].
type LaneId = u32;
/// Index of a live [`InFlightTask`] in [`Tasks::slots`].
type TaskId = u32;

/// A queued event. Workers, gradients and lanes are named by `u32` index
/// so a variant is at most 16 bytes and a queue entry 32 (pinned by
/// `tests::event_stays_small`): the pending-event heap is the one
/// structure every event is sifted through.
#[derive(Debug)]
enum Ev {
    /// Worker `w` begins an iteration (backward pass starts).
    IterBegin { w: u32 },
    /// Worker `w` releases gradient `grad` in its current iteration.
    GradReady { w: u32, grad: u32 },
    /// Worker `w` finishes the forward compute of tensor `grad`.
    FwdDone { w: u32, grad: u32 },
    /// The network predicted a state change at this instant. The handler
    /// is empty because every event dispatch drains the network first;
    /// this event only guarantees the loop wakes up in time.
    NetWake,
    /// Bandwidth-monitor publication.
    MonitorTick,
    /// Metrics sampling window boundary.
    SampleTick,
    /// Scheduled capacity change (dynamic-network experiments).
    BandwidthChange { bps: f64 },
    /// Fault window `idx` of the plan opens.
    FaultBegin { idx: u32 },
    /// Fault window `idx` of the plan closes (link restored, shard restarted).
    FaultFinish { idx: u32 },
    /// A lane's retry backoff expired; try to start its next message.
    LaneKick { lane: LaneId },
    /// Ack timeout for the message `lane` sent as flow `tag`. Live exactly
    /// while that lane's current message still carries the tag.
    MsgTimeout { lane: LaneId, tag: u64 },
}

impl Ev {
    /// Index of this event's kind in [`ClusterStats::events_popped`]
    /// (named by [`ClusterStats::EVENT_KINDS`]).
    fn kind(&self) -> usize {
        match self {
            Ev::IterBegin { .. } => 0,
            Ev::GradReady { .. } => 1,
            Ev::FwdDone { .. } => 2,
            Ev::NetWake => 3,
            Ev::MonitorTick => 4,
            Ev::SampleTick => 5,
            Ev::BandwidthChange { .. } => 6,
            Ev::FaultBegin { .. } => 7,
            Ev::FaultFinish { .. } => 8,
            Ev::LaneKick { .. } => 9,
            Ev::MsgTimeout { .. } => 10,
        }
    }
}

/// A scheduler-issued message in flight, possibly split across PS shards.
struct InFlightTask {
    worker: usize,
    iter: u64,
    task: TransferTask,
    started: SimTime,
    subflows_remaining: usize,
    /// A shard-crash replay: re-pushes aggregation bytes the crash wiped,
    /// bypassing the scheduler (which already saw `task_done` for them).
    replay: bool,
}

/// The live scheduler tasks, addressed by slot. A task's id is the slot it
/// sits in from launch to completion; retired slots are reused last-freed
/// first, so the table is as long as the most tasks that were ever live at
/// once and a lookup is an index. Only a task's own messages hold its id
/// and the last of them retires it, so a reused slot is never reached
/// through a stale id. Nothing orders by, or reports, a task id.
#[derive(Default)]
struct Tasks {
    slots: Vec<Option<InFlightTask>>,
    free: Vec<TaskId>,
    /// Tasks ever entered.
    issued: u64,
}

impl Tasks {
    fn insert(&mut self, task: InFlightTask) -> TaskId {
        self.issued += 1;
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(task);
                id
            }
            None => {
                self.slots.push(Some(task));
                (self.slots.len() - 1) as TaskId
            }
        }
    }

    fn get_mut(&mut self, id: TaskId) -> &mut InFlightTask {
        self.slots[id as usize]
            .as_mut()
            .expect("message names a retired task")
    }

    fn remove(&mut self, id: TaskId) -> InFlightTask {
        self.free.push(id);
        self.slots[id as usize]
            .take()
            .expect("message names a retired task")
    }
}

/// One message queued on a transmission lane (the lane knows its
/// endpoints and direction).
struct QueuedMsg {
    tag: u64,
    bytes: u64,
    /// Owning scheduler task.
    task: TaskId,
    /// The `(gradient, bytes)` pieces this message carries on its shard —
    /// read on the retry paths only. The buffer is drawn from, and goes
    /// back to, [`Cluster::piece_pool`].
    pieces: Vec<(usize, u64)>,
    /// Failed sends so far; drives the backoff (0 = original send).
    attempt: u32,
    /// The loss or corruption window this send drew a hit in, if any.
    /// Either way it completes on the wire; a lost message's delivery is
    /// then discarded, a corrupt one fails the receiver's integrity check
    /// and is retransmitted via the NACK path (the same fail-and-requeue
    /// machinery as a loss, but detected — and counted — at delivery).
    fate: Option<FaultKind>,
}

/// One retained snapshot generation of a shard's durable state, in the
/// simulator's byte-cost model. The live (newest) generation's `seg_bytes`
/// grows one owned-tensor ledger entry per closed barrier until the next
/// checkpoint opens a fresh generation.
#[derive(Debug, Clone, Copy)]
struct SimGen {
    /// Snapshot bytes (the shard's owned parameters at write time).
    snap_bytes: u64,
    /// Ledger-segment bytes appended after this snapshot and before the
    /// next one.
    seg_bytes: u64,
    /// Written corrupt under a `CheckpointCorrupt` spec; detected only
    /// when a restore verifies the generation.
    corrupt: bool,
}

impl SimGen {
    fn new(snap_bytes: u64, corrupt: bool) -> Self {
        SimGen {
            snap_bytes,
            seg_bytes: 0,
            corrupt,
        }
    }
}

impl Generation for SimGen {
    fn intact(&self) -> bool {
        !self.corrupt
    }

    fn restore_bytes(&self) -> u64 {
        self.snap_bytes + self.seg_bytes
    }

    fn absorb_ledger(&mut self, newer: Self) {
        self.seg_bytes += newer.seg_bytes;
    }
}

/// A transmission lane: one persistent connection per `(worker, shard,
/// direction)`. Messages serialise — once on the wire, a message cannot be
/// preempted, which is the physical fact the paper's whole scheduling
/// problem rests on ("low-priority gradients cannot preempt high-priority
/// gradients in the network transfer"). Back-to-back messages on a
/// recently-active lane are *warm* (no setup, no slow-start: the
/// connection's window is already open) unless the worker's strategy uses
/// a blocking transport (P3), which pays the full cost every message.
struct Lane {
    worker: u32,
    shard: u32,
    dir: Dir,
    ever_used: bool,
    /// The message currently on the wire; the lane is busy while it is
    /// `Some`.
    current: Option<QueuedMsg>,
    queue: VecDeque<QueuedMsg>,
    last_end: SimTime,
    /// Retry backoff: no new message may start before this instant.
    blocked_until: SimTime,
}

/// The lanes in use, addressed by [`LaneId`] (DESIGN.md §18).
///
/// A lane is created by the first message queued on it and never removed,
/// so its id — its position in `slab` — is stable and an event may carry
/// it. Memory follows the lanes *in use*, not `workers × shards`: a cell
/// with co-located shards touches only the shards that own a tensor.
struct Lanes {
    slab: Vec<Lane>,
    /// Per worker, that worker's lanes as `(sort key, id)` ascending by
    /// key — `(shard, dir)` order. Finding a lane from a message's
    /// endpoints is a search of this short row; walking every lane in
    /// `(worker, shard, dir)` order is walking the rows.
    by_worker: Vec<Vec<(u32, LaneId)>>,
}

impl Lanes {
    fn new(workers: usize) -> Self {
        Lanes {
            slab: Vec::new(),
            by_worker: vec![Vec::new(); workers],
        }
    }

    /// Row sort key: shard major, push before pull.
    fn sort_key(shard: usize, dir: Dir) -> u32 {
        (shard as u32) << 1 | matches!(dir, Dir::Pull) as u32
    }

    fn find(&self, w: usize, shard: usize, dir: Dir) -> Option<LaneId> {
        let row = &self.by_worker[w];
        let at = row.binary_search_by_key(&Self::sort_key(shard, dir), |&(k, _)| k);
        at.ok().map(|at| row[at].1)
    }

    /// The lane `(w, shard, dir)`, created on first use.
    fn get_or_create(&mut self, w: usize, shard: usize, dir: Dir) -> LaneId {
        let key = Self::sort_key(shard, dir);
        let row = &mut self.by_worker[w];
        let at = match row.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => return row[at].1,
            Err(at) => at,
        };
        let id = self.slab.len() as LaneId;
        row.insert(at, (key, id));
        self.slab.push(Lane {
            worker: w as u32,
            shard: shard as u32,
            dir,
            ever_used: false,
            current: None,
            queue: VecDeque::new(),
            last_end: SimTime::ZERO,
            blocked_until: SimTime::ZERO,
        });
        id
    }

    /// The lanes with an endpoint at `node` (shards occupy the low node
    /// indices, workers follow), in `(worker, shard, dir)` order. Fault
    /// paths only: once per window or permanent failure, not per message.
    fn touching(&self, node: usize, shards: usize) -> Vec<LaneId> {
        if node >= shards {
            return self.by_worker[node - shards]
                .iter()
                .map(|&(_, id)| id)
                .collect();
        }
        let (lo, hi) = (
            Self::sort_key(node, Dir::Push),
            Self::sort_key(node, Dir::Pull),
        );
        let mut out = Vec::new();
        for row in &self.by_worker {
            let at = row.partition_point(|&(k, _)| k < lo);
            let of_node = row[at..].iter().take_while(|&&(k, _)| k <= hi);
            out.extend(of_node.map(|&(_, id)| id));
        }
        out
    }
}

struct WorkerRt {
    node: NodeId,
    sched: Box<dyn CommScheduler>,
    rng: Xoshiro256StarStar,
    iter: u64,
    iters_done: u64,
    backward_done: bool,
    fwd_next: usize,
    fwd_busy: bool,
    pulled: Vec<bool>,
    pull_bytes: Vec<u64>,
    gpu: TimeWeighted,
    monitor: BandwidthMonitor,
    // Aggregate uplink goodput accounting: bytes delivered and wire-busy
    // time since the last monitor tick. `bytes / busy` is the achieved
    // wire rate regardless of how many messages shared it — the estimate
    // the schedulers need for sizing (per-message goodput under self-
    // pipelining would understate it by the concurrency factor).
    push_active: usize,
    busy_start: SimTime,
    busy_accum: Duration,
    bytes_accum: f64,
    /// Transfer failures since the last monitor tick (fault plans only):
    /// with failures and no measured goodput the monitor publishes
    /// nothing, so schedulers can see the estimate go stale.
    failures_since_tick: u32,
    iter_start: SimTime,
    /// This iteration's gradient releases as `(instant, position in the
    /// generation schedule, gradient)`, ascending. Only the next one is in
    /// the event queue ([`Cluster::queue_next_release`]).
    releases: Vec<(SimTime, u32, u32)>,
    /// How many of `releases` have been queued so far.
    releases_queued: usize,
    /// First of the sequence numbers reserved for `releases`.
    release_seq0: u64,
    // Per-gradient timing logs for the current iteration.
    ready_at: Vec<SimTime>,
    push_start: Vec<SimTime>,
    push_end: Vec<SimTime>,
    pull_start: Vec<SimTime>,
    pull_end: Vec<SimTime>,
    /// Retry episodes of this worker's transfers (the flows *are* the
    /// acks here, so the tracked-send half stays empty).
    outbox: Outbox,
}

struct Cluster {
    cfg: ClusterConfig,
    total_iters: u64,
    queue: EventQueue<Ev>,
    net: Network,
    workers: Vec<WorkerRt>,
    /// The BSP barrier ledger: aggregation progress per `(iteration,
    /// gradient)`, in bytes, and which evictions have fired.
    barriers: Barriers,
    // In-flight state is addressed by index, never hashed (DESIGN.md §18):
    // a completion finds its lane from its endpoints, the lane's current
    // message names its task.
    tasks: Tasks,
    /// Serialising transmission lanes, one per `(worker, shard, dir)` in
    /// use.
    lanes: Lanes,
    next_flow_tag: u64,
    sizes: Vec<u64>,
    fwd_times: Vec<Duration>,
    /// Instants with an outstanding `Ev::NetWake`, ascending. `arm_net`
    /// schedules a wake only when the network's next event moves *earlier*
    /// than every outstanding wake; without this, every handled event
    /// spawns a fresh no-op wake chain and the queue drowns in duplicates
    /// (tens of millions of `NetWake`s for a few thousand flows at scale).
    net_wakes: VecDeque<SimTime>,

    // Fault-injection state. All of it is inert when the plan is empty:
    // no fault event is enqueued, no RNG drawn, no timeout scheduled —
    // the run is bit-identical to a build without this layer.
    /// The plan's transient windows. The per-node fields below cache its
    /// answers between `FaultBegin`/`FaultFinish` events, which refresh
    /// them through the one query.
    windows: Windows,
    node_down: Vec<bool>,
    node_degrade: Vec<f64>,
    node_base_bps: Vec<f64>,
    stall_until: Vec<SimTime>,
    /// Active windows per `(kind, trace node)`. Chaos plans overlap windows
    /// of the same kind on the same node (bursts, repeated crashes); the
    /// trace contract is one `FaultStart`/`FaultEnd` pair per episode, so
    /// starts are emitted on 0→1 and ends on 1→0 of this count. A handful
    /// of entries at most, searched linearly.
    fault_active: Vec<(FaultKind, usize, u32)>,
    fault_rng: Xoshiro256StarStar,
    fault_stats: FaultStats,

    // Elastic-membership state (permanent faults). Inert when the plan has
    // no permanent events: the timetable answers statically, no boundary
    // event ever fires, and the owner table is the classic `g % ps_shards`
    // mapping.
    /// Who takes part in which iteration and who owns which tensor then.
    mem: Membership,
    /// Shard deaths / admissions of `mem` already fired (both lists are in
    /// firing order).
    deaths_fired: usize,
    joins_fired: usize,
    /// Gradient → owning shard. Starts as `g % ps_shards`; `ShardFail`
    /// re-homes the dead shard's tensors onto survivors.
    owner: Vec<usize>,
    /// Joiner slots whose admission has fired.
    joined: Vec<bool>,
    /// Shards that failed permanently.
    shard_dead: Vec<bool>,
    /// Adopting shards replaying a dead shard's checkpoint + ledger may
    /// not start new transfers before this instant.
    shard_blocked_until: Vec<SimTime>,
    /// Cluster-wide membership epoch (bumped once per permanent event).
    membership_epoch: u64,
    /// Per-shard retained snapshot generations. Checkpointing is armed —
    /// the vector non-empty — only when the plan contains a `ShardFail`;
    /// unarmed runs do zero checkpoint work, keeping them bit-identical to
    /// pre-elastic builds. Each chain starts from the implicit iteration-0
    /// checkpoint (the shard's owned parameters); `take_checkpoint` pushes
    /// new generations.
    ckpt_gens: Vec<GenChain<SimGen>>,
    /// Per-shard cadence and one-shot `CheckpointCorrupt` (empty when
    /// unarmed).
    ckpt_sched: Vec<CheckpointSchedule>,
    elastic: ElasticStats,

    // Typed event stream sinks (the cross-stack trace/invariant layer).
    checker: Option<InvariantChecker>,
    span_sink: Option<SpanCollector>,
    /// Net-ledger entries drained but not yet forwarded to the sinks
    /// (kept so flow events interleave with cluster events in time order).
    pending_net: VecDeque<(SimTime, NetEvent)>,

    // Metrics.
    trace: TraceRecorder,
    gpu_series: Vec<(SimTime, f64)>,
    net_series: RateSeries,
    last_net_bytes: f64,
    iter_times: Vec<Duration>,
    iter_starts: Vec<SimTime>,
    transfer_logs: Vec<Vec<GradTransferLog>>,
    credit_trace: Vec<(u64, u64)>,
    bandwidth_estimates: Vec<(SimTime, f64)>,
    /// Worker 0's scheduler degraded-mode flips, sampled each monitor tick
    /// (`(when, entered)`); empty for strategies without a degraded mode.
    degraded_transitions: Vec<(SimTime, bool)>,
    warmup_end_time: Option<SimTime>,
    post_warmup_gpu: TimeWeighted,
    stats: ClusterStats,
    /// Reusable buffer for [`Cluster::launch`]'s per-shard split.
    shard_groups: Vec<ShardGroup>,
    /// Emptied `pieces` buffers of delivered messages, handed to the next
    /// ones: in steady state a message allocates nothing.
    piece_pool: Vec<Vec<(usize, u64)>>,
}

const UNSET: SimTime = SimTime::MAX;

/// The part of a message bound for one shard: `(shard, total bytes,
/// (gradient, bytes) pieces)`.
type ShardGroup = (usize, u64, Vec<(usize, u64)>);

/// Parameter bytes each of `shards` shards owns under `owner`.
fn owned_bytes(owner: &[usize], sizes: &[u64], shards: usize) -> Vec<u64> {
    let mut owned = vec![0u64; shards];
    for (g, &o) in owner.iter().enumerate() {
        owned[o] += sizes[g];
    }
    owned
}

impl Cluster {
    fn new(mut cfg: ClusterConfig, total_iters: u64) -> Self {
        cfg.validate();
        // Bake the link-adapted ack timeout in once so every consultation
        // of `cfg.retry` below sees the same deadline (no-op when the plan
        // is empty).
        cfg.retry = cfg.effective_retry();
        let shards = cfg.ps_shards;
        let n = cfg.job.num_gradients();
        // The modular re-home rule over survivors: a pure function of the
        // permanent membership.
        let mem = Membership::new(
            &cfg.fault_plan,
            cfg.workers,
            total_iters,
            (0..n).map(|g| g % shards).collect(),
            |owner, dead_so_far, dead| rehome_modular(owner, shards, dead_so_far, dead),
        );
        // `WorkerJoin` slots are provisioned up front (dense ids above the
        // initial membership) but stay silent until their admission fires.
        let total_workers = mem.total_workers();
        let joiners = total_workers - cfg.workers;
        let mut topo = Topology::new();
        for _ in 0..shards {
            topo.add_node(NodeSpec::symmetric(cfg.ps_bps));
        }
        for w in 0..total_workers {
            topo.add_node(NodeSpec::symmetric(cfg.worker_bandwidth(w)));
        }
        let mut net = Network::new(topo, cfg.tcp);
        let checker = cfg.check_invariants.then(|| {
            InvariantChecker::new(cfg.workers, cfg.sync == SyncMode::Bsp)
                .with_shards(shards)
                .with_joiners(joiners)
        });
        let span_sink = cfg.typed_trace.then(|| {
            let grads = cfg.job.num_gradients();
            SpanCollector::new().with_shards(shards).with_capacity(
                total_workers,
                total_iters as usize,
                grads,
            )
        });
        if checker.is_some() || span_sink.is_some() {
            net.record_events(true);
        }
        let master = Xoshiro256StarStar::new(cfg.seed);
        let workers: Vec<WorkerRt> = (0..total_workers)
            .map(|w| WorkerRt {
                node: NodeId(shards + w),
                sched: cfg.scheduler.build(&cfg.job),
                rng: master.substream(w as u64 + 1),
                iter: 0,
                iters_done: 0,
                backward_done: false,
                fwd_next: 0,
                fwd_busy: false,
                pulled: vec![false; n],
                pull_bytes: vec![0; n],
                gpu: TimeWeighted::new(SimTime::ZERO, 0.0),
                monitor: BandwidthMonitor::new(0.3, cfg.monitor_period),
                push_active: 0,
                busy_start: SimTime::ZERO,
                busy_accum: Duration::ZERO,
                bytes_accum: 0.0,
                failures_since_tick: 0,
                iter_start: SimTime::ZERO,
                releases: Vec::with_capacity(n),
                releases_queued: 0,
                release_seq0: 0,
                ready_at: vec![UNSET; n],
                push_start: vec![UNSET; n],
                push_end: vec![UNSET; n],
                pull_start: vec![UNSET; n],
                pull_end: vec![UNSET; n],
                outbox: Outbox::default(),
            })
            .collect();
        let sizes = cfg.job.sizes();
        let fwd_times = cfg.job.fwd_times().to_vec();
        let trace = if cfg.trace {
            TraceRecorder::enabled()
        } else {
            TraceRecorder::disabled()
        };
        let sample_window = cfg.sample_window;
        let nodes = shards + total_workers;
        let node_base_bps: Vec<f64> = (0..nodes)
            .map(|n| {
                if n < shards {
                    cfg.ps_bps
                } else {
                    cfg.worker_bandwidth(n - shards)
                }
            })
            .collect();
        // Fault-local randomness (MsgLoss Bernoulli draws) comes from its
        // own substream so adding faults never perturbs compute jitter.
        let fault_rng = master.substream(u64::MAX ^ cfg.fault_plan.seed);
        let stall_until = vec![SimTime::ZERO; total_workers];
        let owner = mem.owner_at(0).to_vec();
        // The initial parameters are an implicit iteration-0 checkpoint:
        // a shard failing before the first periodic snapshot restores the
        // full owned state plus the ledger accrued since time zero.
        let armed_shards = if cfg.fault_plan.has_shard_fail() {
            shards
        } else {
            0
        };
        let ckpt_gens = owned_bytes(&owner, &sizes, shards)
            .into_iter()
            .take(armed_shards)
            .map(|snap_bytes| {
                GenChain::new(SimGen::new(snap_bytes, false), cfg.checkpoint_retention)
            })
            .collect();
        let ckpt_sched = (0..armed_shards)
            .map(|s| CheckpointSchedule::new(&cfg.fault_plan, s, cfg.checkpoint_period))
            .collect();
        Cluster {
            windows: Windows::new(&cfg.fault_plan, shards),
            mem,
            deaths_fired: 0,
            joins_fired: 0,
            owner,
            joined: vec![false; total_workers],
            shard_dead: vec![false; shards],
            shard_blocked_until: vec![SimTime::ZERO; shards],
            membership_epoch: 0,
            ckpt_gens,
            ckpt_sched,
            elastic: ElasticStats::default(),
            node_down: vec![false; nodes],
            node_degrade: vec![1.0; nodes],
            node_base_bps,
            stall_until,
            fault_active: Vec::new(),
            fault_rng,
            fault_stats: FaultStats::default(),
            cfg,
            total_iters,
            queue: EventQueue::new(),
            net,
            workers,
            barriers: Barriers::new(total_workers, sizes.clone()),
            tasks: Tasks::default(),
            lanes: Lanes::new(total_workers),
            next_flow_tag: 0,
            sizes,
            fwd_times,
            net_wakes: VecDeque::new(),
            checker,
            span_sink,
            pending_net: VecDeque::new(),
            trace,
            gpu_series: Vec::new(),
            net_series: RateSeries::new(SimTime::ZERO, sample_window),
            last_net_bytes: 0.0,
            iter_times: Vec::new(),
            iter_starts: Vec::new(),
            transfer_logs: Vec::new(),
            credit_trace: Vec::new(),
            bandwidth_estimates: Vec::new(),
            degraded_transitions: Vec::new(),
            warmup_end_time: None,
            post_warmup_gpu: TimeWeighted::new(SimTime::ZERO, 0.0),
            stats: ClusterStats::default(),
            shard_groups: Vec::new(),
            piece_pool: Vec::new(),
        }
    }

    fn num_grads(&self) -> usize {
        self.sizes.len()
    }

    // ---- elastic membership ---------------------------------------------

    /// Is worker `w` a joiner slot whose admission has not fired yet?
    fn awaiting_admission(&self, w: usize) -> bool {
        w >= self.cfg.workers && !self.joined[w]
    }

    /// Is worker `w` currently a live participant (admitted, not evicted)?
    fn participating(&self, w: usize) -> bool {
        !self.barriers.has_left(w) && !self.awaiting_admission(w)
    }

    /// Has worker `w` nothing left to contribute? Evicted workers are done
    /// at their fail iteration; a joiner whose admission has not fired yet
    /// blocks nobody (if the run ends before its join iteration is ever
    /// begun, it simply never existed).
    fn worker_done(&self, w: usize) -> bool {
        !self.participating(w) || self.workers[w].iters_done >= self.total_iters
    }

    // ---- typed event stream ---------------------------------------------

    fn sinks_active(&self) -> bool {
        self.checker.is_some() || self.span_sink.is_some()
    }

    /// Feed one typed event to every attached sink.
    fn emit(&mut self, at: SimTime, ev: TraceEvent) {
        if let Some(c) = self.checker.as_mut() {
            c.on_event(at, &ev);
        }
        if let Some(s) = self.span_sink.as_mut() {
            s.on_event(at, &ev);
        }
    }

    /// Forward net-ledger entries with timestamps `<= t` to the sinks. The
    /// ledger is chronological, so holding back later entries keeps flow
    /// events interleaved with cluster events in global time order (a
    /// completion handled at `t1` must see its PushEnd emitted before a
    /// FlowEnd that happened at `t2 > t1` is forwarded).
    fn forward_net_events_up_to(&mut self, t: SimTime) {
        if !self.sinks_active() {
            return;
        }
        self.pending_net.extend(self.net.drain_events());
        while let Some(&(at, ev)) = self.pending_net.front() {
            if at > t {
                break;
            }
            self.pending_net.pop_front();
            let typed = match ev {
                NetEvent::FlowStart {
                    tag,
                    src,
                    dst,
                    bytes,
                } => TraceEvent::FlowStart {
                    tag,
                    src: src.0,
                    dst: dst.0,
                    bytes,
                },
                NetEvent::FlowEnd {
                    tag,
                    src,
                    dst,
                    delivered,
                } => TraceEvent::FlowEnd {
                    tag,
                    src: src.0,
                    dst: dst.0,
                    delivered,
                },
                NetEvent::FlowKilled {
                    tag,
                    src,
                    dst,
                    delivered,
                } => TraceEvent::FlowKilled {
                    tag,
                    src: src.0,
                    dst: dst.0,
                    delivered,
                },
            };
            self.emit(at, typed);
        }
    }

    fn run(mut self) -> RunResult {
        // Joiner slots have no iteration zero: their first IterBegin is
        // scheduled by their admission.
        for w in 0..self.cfg.workers as u32 {
            self.queue.schedule(SimTime::ZERO, Ev::IterBegin { w });
        }
        self.queue
            .schedule(SimTime::ZERO + self.cfg.monitor_period, Ev::MonitorTick);
        self.queue
            .schedule(SimTime::ZERO + self.cfg.sample_window, Ev::SampleTick);
        for &(at, bps) in &self.cfg.bandwidth_schedule {
            self.queue
                .schedule(SimTime::ZERO + at, Ev::BandwidthChange { bps });
        }
        // Only the transient windows run on timers; iteration-indexed specs
        // fire at the BSP boundary they name.
        for (idx, win) in self.windows.all().iter().enumerate() {
            let (at, until) = (SimTime::from_nanos(win.start), SimTime::from_nanos(win.end));
            let idx = idx as u32;
            self.queue.schedule(at, Ev::FaultBegin { idx });
            self.queue.schedule(until, Ev::FaultFinish { idx });
        }

        while let Some((now, ev)) = self.queue.pop() {
            let pending = self.queue.len() as u64 + 1;
            self.stats.peak_pending_events = self.stats.peak_pending_events.max(pending);
            self.stats.events_popped[ev.kind()] += 1;
            // Bring the network to `now` first so every handler sees a
            // fully-settled wire (completions are handled before anything
            // else that happens at this instant).
            self.drain_net(now);
            // The newest queued release popped (for the first time: a copy
            // deferred by a stall is no longer the newest): queue the next.
            if let Ev::GradReady { w, grad } = ev {
                let wk = &self.workers[w as usize];
                if wk.releases[wk.releases_queued - 1].2 == grad {
                    self.queue_next_release(w as usize);
                }
            }
            match ev {
                // A stalled worker's compute events are deferred to the end
                // of the stall window (fault plans only).
                Ev::IterBegin { w } | Ev::GradReady { w, .. } | Ev::FwdDone { w, .. }
                    if self.stalled(now, w as usize) =>
                {
                    self.queue.schedule(self.stall_until[w as usize], ev);
                }
                Ev::IterBegin { w } => self.on_iter_begin(now, w as usize),
                Ev::GradReady { w, grad } => self.on_grad_ready(now, w as usize, grad as usize),
                Ev::FwdDone { w, grad } => self.on_fwd_done(now, w as usize, grad as usize),
                // drain_net already did the work; retire the wake so
                // arm_net knows this instant is no longer covered.
                Ev::NetWake => {
                    debug_assert_eq!(self.net_wakes.front(), Some(&now), "wake ledger drifted");
                    self.net_wakes.pop_front();
                }
                Ev::MonitorTick => self.on_monitor_tick(now),
                Ev::SampleTick => self.on_sample_tick(now),
                Ev::BandwidthChange { bps } => self.on_bandwidth_change(now, bps),
                Ev::FaultBegin { idx } => self.on_fault_begin(now, idx as usize),
                Ev::FaultFinish { idx } => self.on_fault_finish(now, idx as usize),
                Ev::LaneKick { lane } => {
                    self.kick_lane(now, lane);
                    self.forward_net_events_up_to(now);
                }
                Ev::MsgTimeout { lane, tag } => self.on_msg_timeout(now, lane, tag),
            }
            // Re-arm only once this instant's event burst is exhausted.
            // While more events sit at `now`, the network's next-event time
            // is still in flux (each handler may start or finish flows), and
            // asking for it would force the engine to resolve its deferred
            // re-fills once per event instead of once per instant. The last
            // event at `now` always falls through to `arm_net`, so the wake
            // for the true next network event is never missed.
            if self.queue.peek_time().is_none_or(|t| t > now) {
                self.arm_net();
            }
            if self.finished() && self.net.active_flows() == 0 {
                // Drop the periodic ticks (and any leftover fault-layer
                // timers — they would only spin the clock) so the loop
                // terminates. Pending NetWakes go too: with no flow in
                // flight they are by definition stale (armed for
                // predictions that kills or rate changes superseded), and
                // popping them would inflate the run's reported duration
                // past the last real event.
                self.queue.retain(|e| {
                    !matches!(
                        e,
                        Ev::MonitorTick
                            | Ev::SampleTick
                            | Ev::MsgTimeout { .. }
                            | Ev::LaneKick { .. }
                            | Ev::FaultBegin { .. }
                            | Ev::FaultFinish { .. }
                            | Ev::NetWake
                    )
                });
                self.net_wakes.clear();
            }
        }
        // Flush any net-ledger stragglers, then run the end-of-run audit
        // (dangling flows) before the results are assembled.
        let end = self.queue.now();
        self.forward_net_events_up_to(end);
        if let Some(c) = self.checker.as_ref() {
            c.finish();
        }
        self.finish()
    }

    fn finished(&self) -> bool {
        (0..self.workers.len()).all(|w| self.worker_done(w))
    }

    // ---- event handlers -------------------------------------------------

    fn on_iter_begin(&mut self, now: SimTime, w: usize) {
        let iter = self.workers[w].iters_done;
        // Permanent shard failures and admissions fire when the *first*
        // worker begins their iteration — an instant at which every
        // barrier of the previous iteration has closed, so no aggregation
        // state is in flight on the failing shard.
        self.fire_boundary_events(now, iter);
        {
            let wk = &mut self.workers[w];
            wk.iter = iter;
            wk.backward_done = false;
            wk.fwd_next = 0;
            wk.fwd_busy = false;
            wk.pulled.iter_mut().for_each(|p| *p = false);
            wk.pull_bytes.iter_mut().for_each(|b| *b = 0);
            wk.ready_at.iter_mut().for_each(|t| *t = UNSET);
            wk.push_start.iter_mut().for_each(|t| *t = UNSET);
            wk.push_end.iter_mut().for_each(|t| *t = UNSET);
            wk.pull_start.iter_mut().for_each(|t| *t = UNSET);
            wk.pull_end.iter_mut().for_each(|t| *t = UNSET);
            wk.iter_start = now;
            wk.gpu.set(now, 1.0); // backward compute starts immediately
            wk.sched.iteration_begin(now, iter);
            wk.outbox.begin_iter(iter);
        }
        self.emit(now, TraceEvent::IterBegin { worker: w, iter });
        if w == 0 {
            self.iter_starts.push(now);
            if self.iter_starts.len() as u64 == self.cfg.warmup_iters + 1 {
                self.warmup_end_time = Some(now);
                self.post_warmup_gpu = TimeWeighted::new(now, 1.0);
            }
        }
        // Schedule this iteration's gradient releases with a per-iteration
        // multiplicative jitter (order-preserving), scaled by the worker's
        // compute speed (straggler modelling).
        let factor =
            self.workers[w].rng.jitter(self.cfg.compute_jitter, 0.7) / self.cfg.compute_scale(w);
        let events = self.cfg.job.generation_events();
        let wk = &mut self.workers[w];
        wk.releases.clear();
        wk.releases.extend(events.iter().enumerate().map(|(i, e)| {
            let jittered = Duration::from_secs_f64(e.ready_at.as_secs_f64() * factor);
            (now + jittered, i as u32, e.id as u32)
        }));
        // The schedule is usually, not always, ascending in `ready_at`
        // (VGG19's large d2h copies overtake each other); the chain below
        // needs the order the queue would pop them in.
        wk.releases.sort_unstable();
        wk.releases_queued = 0;
        // One sequence number per release, in schedule order — the numbers
        // queueing them all right now would take.
        wk.release_seq0 = self.queue.reserve(events.len() as u64);
        self.queue_next_release(w);
        if w == 0 {
            self.post_warmup_gpu_set(now, 1.0);
        }
    }

    /// Queue worker `w`'s next gradient release, if any is left. Called at
    /// `IterBegin` and whenever the newest queued release pops, so one
    /// release per worker is pending instead of the whole backward pass —
    /// in the order, and under the sequence numbers, queueing them all at
    /// `IterBegin` would give (`EventQueue::schedule_reserved` has the
    /// argument).
    fn queue_next_release(&mut self, w: usize) {
        let wk = &mut self.workers[w];
        let Some(&(at, pos, grad)) = wk.releases.get(wk.releases_queued) else {
            return;
        };
        wk.releases_queued += 1;
        let seq = wk.release_seq0 + pos as u64;
        let w = w as u32;
        self.queue
            .schedule_reserved(at, seq, Ev::GradReady { w, grad });
    }

    fn on_grad_ready(&mut self, now: SimTime, w: usize, grad: usize) {
        let iter = self.workers[w].iter;
        debug_assert_eq!(self.workers[w].ready_at[grad], UNSET, "stale GradReady");
        self.workers[w].ready_at[grad] = now;
        self.emit(
            now,
            TraceEvent::GradReady {
                worker: w,
                iter,
                grad,
            },
        );
        self.workers[w].sched.gradient_ready(now, grad);
        if grad == 0 {
            // Backward compute over; GPU idles until forward can start.
            let iter_start = self.workers[w].iter_start;
            self.workers[w].backward_done = true;
            self.workers[w].gpu.set(now, 0.0);
            if w == 0 {
                self.post_warmup_gpu_set(now, 0.0);
                self.trace
                    .record("w0.gpu", "b", iter as i64, iter_start, now);
            }
        }
        self.try_start_forward(now, w);
        self.pump(now, w);
    }

    fn on_fwd_done(&mut self, now: SimTime, w: usize, grad: usize) {
        let iter = self.workers[w].iter;
        debug_assert_eq!(self.workers[w].fwd_next, grad, "stale FwdDone");
        let n = self.num_grads();
        let iteration_over = {
            let wk = &mut self.workers[w];
            wk.fwd_busy = false;
            wk.fwd_next = grad + 1;
            wk.gpu.set(now, 0.0);
            wk.fwd_next >= n
        };
        self.emit(
            now,
            TraceEvent::FwdEnd {
                worker: w,
                iter,
                grad,
            },
        );
        if w == 0 {
            self.post_warmup_gpu_set(now, 0.0);
        }
        if iteration_over {
            let (iter_time, credit) = {
                let wk = &mut self.workers[w];
                let t = now.saturating_since(wk.iter_start);
                wk.sched.iteration_end(now, iter, t);
                wk.iters_done += 1;
                (t, wk.sched.credit())
            };
            self.emit(now, TraceEvent::IterEnd { worker: w, iter });
            if w == 0 {
                self.iter_times.push(iter_time);
                if let Some(c) = credit {
                    self.credit_trace.push((iter, c));
                }
                // Snapshot this iteration's transfer log. The forward pass
                // only ran because every gradient was pulled, so a surviving
                // UNSET sentinel here means a bookkeeping path was skipped —
                // fail at collection time rather than poisoning the logs.
                let wk = &self.workers[0];
                let logs: Vec<GradTransferLog> = (0..n)
                    .map(|g| {
                        for (field, t) in [
                            ("ready", wk.ready_at[g]),
                            ("push_start", wk.push_start[g]),
                            ("push_end", wk.push_end[g]),
                            ("pull_start", wk.pull_start[g]),
                            ("pull_end", wk.pull_end[g]),
                        ] {
                            assert_ne!(
                                t, UNSET,
                                "iteration {iter}: gradient {g} has UNSET `{field}` \
                                 at transfer-log collection"
                            );
                        }
                        GradTransferLog {
                            grad: g,
                            ready: wk.ready_at[g],
                            push_start: wk.push_start[g],
                            push_end: wk.push_end[g],
                            pull_start: wk.pull_start[g],
                            pull_end: wk.pull_end[g],
                        }
                    })
                    .collect();
                self.transfer_logs.push(logs);
            }
            let done_now = self.workers[w].iters_done;
            if self.mem.leaves_at(w) == Some(done_now) {
                // This was the worker's last iteration: it leaves at the
                // boundary (no in-flight state — its transfers all
                // completed for the forward pass to have run).
                self.evict_worker(now, w);
            } else if done_now < self.total_iters {
                let next = now + self.cfg.job.gpu.iter_overhead;
                self.queue.schedule(next, Ev::IterBegin { w: w as u32 });
            }
        } else {
            self.try_start_forward(now, w);
        }
    }

    fn try_start_forward(&mut self, now: SimTime, w: usize) {
        let n = self.num_grads();
        let (can_start, next) = {
            let wk = &self.workers[w];
            let next = wk.fwd_next;
            (
                wk.backward_done && !wk.fwd_busy && next < n && wk.pulled[next],
                next,
            )
        };
        if !can_start {
            return;
        }
        let jitter =
            self.workers[w].rng.jitter(self.cfg.compute_jitter, 0.7) / self.cfg.compute_scale(w);
        let dur = Duration::from_secs_f64(self.fwd_times[next].as_secs_f64() * jitter);
        let iter = self.workers[w].iter;
        {
            let wk = &mut self.workers[w];
            wk.fwd_busy = true;
            wk.gpu.set(now, 1.0);
        }
        self.emit(
            now,
            TraceEvent::FwdStart {
                worker: w,
                iter,
                grad: next,
            },
        );
        if w == 0 {
            self.post_warmup_gpu_set(now, 1.0);
            self.trace
                .record("w0.gpu", "f", next as i64, now, now + dur);
        }
        let (w, grad) = (w as u32, next as u32);
        self.queue.schedule(now + dur, Ev::FwdDone { w, grad });
    }

    /// Reconfigure every NIC to `bps` (the PS shards included, so the
    /// whole fabric shifts together, like an EC2 bandwidth-tier change).
    fn on_bandwidth_change(&mut self, now: SimTime, bps: f64) {
        let nodes = self.cfg.ps_shards + self.workers.len();
        for n in 0..nodes {
            // Any active degradation multiplies the new base capacity
            // (×1.0 fault-free, which is bit-identical to the plain value).
            self.node_base_bps[n] = bps;
            let spec = NodeSpec::symmetric(bps * self.node_degrade[n]);
            // drain_net ran at the top of the event loop, so no completion
            // can be pending at `now`.
            let done = self.net.set_node_spec(now, NodeId(n), spec);
            debug_assert!(done.is_empty());
        }
    }

    fn on_monitor_tick(&mut self, now: SimTime) {
        for w in 0..self.workers.len() {
            // Evicted workers and not-yet-admitted joiners have no
            // scheduler to feed (and nothing to measure).
            if !self.participating(w) {
                continue;
            }
            // Aggregate achieved uplink rate since the last tick: bytes
            // delivered over wire-busy time. Prophet sizes its blocks so
            // transfers *complete* within generation windows, which needs
            // the contended wire rate — neither the uncontended ceiling
            // nor per-message goodput (depressed by self-pipelining).
            let est = {
                let wk = &mut self.workers[w];
                let mut busy = wk.busy_accum;
                if wk.push_active > 0 {
                    busy += now.saturating_since(wk.busy_start);
                    wk.busy_start = now;
                }
                let est = if busy > Duration::from_millis(5) && wk.bytes_accum > 0.0 {
                    Some(wk.bytes_accum / busy.as_secs_f64())
                } else {
                    None
                };
                wk.busy_accum = Duration::ZERO;
                wk.bytes_accum = 0.0;
                est
            };
            let fails = std::mem::take(&mut self.workers[w].failures_since_tick);
            // With transfer failures this period and no measured goodput
            // there is nothing honest to publish: stay silent so Prophet's
            // staleness detector sees the gap. Fault-free, `fails` is
            // always 0 and this branch never taken.
            if est.is_none() && fails > 0 {
                self.pump(now, w);
                continue;
            }
            let est = est.unwrap_or_else(|| self.cfg.worker_bandwidth(w));
            self.workers[w].sched.bandwidth_update(now, est);
            if w == 0 {
                self.bandwidth_estimates.push((now, est));
            }
            self.pump(now, w);
        }
        // Sample worker 0's degraded flag after the updates above so the
        // transition log reflects what this tick's estimate caused. Only
        // flips are recorded; strategies without a degraded mode (the
        // default `is_degraded` is `false`) log nothing.
        let degraded = self.workers[0].sched.is_degraded();
        if degraded
            != self
                .degraded_transitions
                .last()
                .map(|&(_, d)| d)
                .unwrap_or(false)
        {
            self.degraded_transitions.push((now, degraded));
        }
        self.queue
            .schedule(now + self.cfg.monitor_period, Ev::MonitorTick);
    }

    fn on_sample_tick(&mut self, now: SimTime) {
        let (window_start, util) = self.workers[0].gpu.sample_window(now);
        self.gpu_series.push((window_start, util));
        // Worker-0 NIC volume (both directions) this window.
        let node = self.workers[0].node;
        let total = self.net.tx_bytes(node) + self.net.rx_bytes(node);
        let delta = total - self.last_net_bytes;
        self.last_net_bytes = total;
        self.net_series.record(now, delta);
        self.queue
            .schedule(now + self.cfg.sample_window, Ev::SampleTick);
    }

    fn post_warmup_gpu_set(&mut self, now: SimTime, v: f64) {
        if self.warmup_end_time.is_some() {
            self.post_warmup_gpu.set(now, v);
        }
    }

    // ---- scheduler ↔ network glue ---------------------------------------

    /// Poll worker `w`'s scheduler until it stops issuing tasks.
    fn pump(&mut self, now: SimTime, w: usize) {
        self.stats.pump_calls += 1;
        while let Some(task) = self.workers[w].sched.next_task(now) {
            self.launch(now, w, task);
        }
    }

    /// Put a scheduler task on the wire, splitting it per PS shard.
    fn launch(&mut self, now: SimTime, w: usize, task: TransferTask) {
        let iter = self.workers[w].iter;
        // First-byte bookkeeping for the push logs, plus wire-busy
        // accounting for the bandwidth estimator.
        if task.dir == Dir::Push {
            let wk = &mut self.workers[w];
            if wk.push_active == 0 {
                wk.busy_start = now;
            }
            wk.push_active += 1;
        }
        for &(g, _) in &task.pieces {
            self.stamp_start(now, w, iter, g, task.dir);
        }
        let mut by_shard = std::mem::take(&mut self.shard_groups);
        self.group_by_owner(&task.pieces, &mut by_shard);
        if by_shard.is_empty() {
            // A zero-piece task is a scheduler bug; fail loudly in debug.
            debug_assert!(false, "scheduler issued an empty task");
            self.shard_groups = by_shard;
            return;
        }
        let dir = task.dir;
        let task_id = self.tasks.insert(InFlightTask {
            worker: w,
            iter,
            task,
            started: now,
            subflows_remaining: by_shard.len(),
            replay: false,
        });
        for (shard, bytes, pieces) in by_shard.drain(..) {
            let lane = self.lanes.get_or_create(w, shard, dir);
            self.enqueue(lane, task_id, bytes, pieces, 0);
            self.kick_lane(now, lane);
        }
        self.shard_groups = by_shard;
        // Flows started on idle lanes appended to the net ledger at `now`;
        // hand them to the sinks while the instant is still current.
        self.forward_net_events_up_to(now);
    }

    /// The first byte of `(w, iter, g)`'s transfer hits the wire — for the
    /// first time, or again after a failed attempt voided the stamp (it
    /// stays void exactly until the re-send): stamp its start.
    fn stamp_start(&mut self, now: SimTime, w: usize, iter: u64, g: usize, dir: Dir) {
        let wk = &mut self.workers[w];
        let (worker, grad) = (w, g);
        let (start, ev) = match dir {
            Dir::Push => (
                &mut wk.push_start[g],
                TraceEvent::PushStart { worker, iter, grad },
            ),
            Dir::Pull => (
                &mut wk.pull_start[g],
                TraceEvent::PullStart { worker, iter, grad },
            ),
        };
        if *start == UNSET {
            *start = now;
            wk.outbox.restamp(iter, g, dir);
            self.emit(now, ev);
        }
    }

    /// Group `pieces` by owning shard into `groups`, in first-seen order.
    /// The per-group piece lists are recycled buffers.
    fn group_by_owner(&mut self, pieces: &[(usize, u64)], groups: &mut Vec<ShardGroup>) {
        groups.clear();
        for &(g, b) in pieces {
            let shard = self.owner[g];
            match groups.iter_mut().find(|(s, _, _)| *s == shard) {
                Some((_, bytes, pieces)) => {
                    *bytes += b;
                    pieces.push((g, b));
                }
                None => {
                    let mut pieces = self.piece_pool.pop().unwrap_or_default();
                    pieces.push((g, b));
                    groups.push((shard, b, pieces));
                }
            }
        }
    }

    /// Give a retired message's `pieces` buffer to the next message.
    fn recycle(&mut self, mut pieces: Vec<(usize, u64)>) {
        pieces.clear();
        self.piece_pool.push(pieces);
    }

    /// Queue one message of task `task` at the back of `lane` under a fresh
    /// flow tag.
    fn enqueue(
        &mut self,
        lane: LaneId,
        task: TaskId,
        bytes: u64,
        pieces: Vec<(usize, u64)>,
        attempt: u32,
    ) {
        let tag = self.next_flow_tag;
        self.next_flow_tag += 1;
        self.lanes.slab[lane as usize].queue.push_back(QueuedMsg {
            tag,
            bytes,
            task,
            pieces,
            attempt,
            fate: None,
        });
    }

    /// Start the next queued message on a lane if it is idle, past any
    /// retry backoff, and both endpoints are up.
    fn kick_lane(&mut self, now: SimTime, id: LaneId) {
        let faults = self.has_faults();
        let lane = &mut self.lanes.slab[id as usize];
        if lane.current.is_some() {
            return;
        }
        let (w, shard, dir) = (lane.worker as usize, lane.shard as usize, lane.dir);
        if faults {
            if now < lane.blocked_until {
                return; // backing off; a LaneKick is already scheduled
            }
            if self.node_down[self.cfg.ps_shards + w] || self.node_down[shard] {
                return; // endpoint down; kicked again on restore
            }
            // An adopting shard replaying a dead shard's checkpoint +
            // ledger serves nothing until the restore completes. The
            // kick is self-rescheduling (idempotent: a duplicate kick
            // finds the lane busy or empty and does nothing).
            let sb = self.shard_blocked_until[shard];
            if now < sb {
                self.queue.schedule(sb, Ev::LaneKick { lane: id });
                return;
            }
        }
        let Some(mut msg) = lane.queue.pop_front() else {
            return;
        };
        let warm = self.workers[w].sched.transport() == Transport::Pipelined
            && lane.ever_used
            && now.saturating_since(lane.last_end) <= self.cfg.warm_timeout;
        lane.ever_used = true;
        if faults {
            let rng = &mut self.fault_rng;
            msg.fate = self.windows.send_fate(now.as_nanos(), |_| rng.next_f64());
            self.fault_stats.messages_lost += (msg.fate == Some(FaultKind::MsgLoss)) as u64;
            // Re-stamp pieces whose start a failed attempt voided.
            if msg.attempt > 0 {
                let iter = self.tasks.get_mut(msg.task).iter;
                for &(g, _) in &msg.pieces {
                    self.stamp_start(now, w, iter, g, dir);
                }
            }
            // Every send is covered by an ack timeout; a stale timeout
            // (the message delivered or was re-tagged) is a no-op.
            let timeout = Ev::MsgTimeout {
                lane: id,
                tag: msg.tag,
            };
            self.queue.schedule(now + self.cfg.retry.timeout, timeout);
        }
        let (worker, shard) = (self.workers[w].node, NodeId(shard));
        let (src, dst) = match dir {
            Dir::Push => (worker, shard),
            Dir::Pull => (shard, worker),
        };
        self.stats.messages += 1;
        self.net
            .start_flow_with_warmth(now, src, dst, msg.bytes, msg.tag, warm);
        self.lanes.slab[id as usize].current = Some(msg);
    }

    /// Advance the network to `now` and process completions.
    fn drain_net(&mut self, now: SimTime) {
        let ends = self.net.advance_to(now);
        for end in ends {
            // Forward flow events up to this completion's instant first, so
            // the sinks see FlowEnd before the PushEnd/PullEnd it causes.
            self.forward_net_events_up_to(end.finished);
            self.handle_flow_end(end);
            // Lanes kicked while handling may have started new flows at
            // exactly this instant; flush those before moving on.
            self.forward_net_events_up_to(end.finished);
        }
        self.forward_net_events_up_to(now);
    }

    /// The lane a flow between `src` and `dst` runs on: shards occupy the
    /// low node indices and workers follow, so the endpoints alone say
    /// which `(worker, shard, direction)` it is.
    fn lane_of_flow(&self, src: NodeId, dst: NodeId) -> LaneId {
        let shards = self.cfg.ps_shards;
        let (w, shard, dir) = if src.0 < shards {
            (dst.0 - shards, src.0, Dir::Pull)
        } else {
            (src.0 - shards, dst.0, Dir::Push)
        };
        self.lanes
            .find(w, shard, dir)
            .expect("flow between endpoints no lane joins")
    }

    fn handle_flow_end(&mut self, end: FlowEnd) {
        // Release the lane this message occupied and start the next.
        let id = self.lane_of_flow(end.src, end.dst);
        let lane = &mut self.lanes.slab[id as usize];
        lane.last_end = end.finished;
        let m = lane
            .current
            .take()
            .expect("completion on a lane with nothing on the wire");
        debug_assert_eq!(m.tag, end.tag);
        if m.fate.is_some() {
            // The bytes crossed the wire, but the loss window ate the
            // message or it arrived damaged: deliver nothing and retry the
            // send — for a corrupt frame after the receiver's CRC verify
            // rejected it at delivery time, an attributable detection.
            self.fault_stats.wasted_bytes += m.bytes as f64;
            if m.fate == Some(FaultKind::PayloadCorrupt) {
                self.fault_stats.frames_corrupted += 1;
                let (node, bytes) = (end.dst.0, m.bytes);
                let data = true;
                self.emit(end.finished, TraceEvent::FrameCorrupt { node, bytes, data });
            }
            self.fail_message(end.finished, id, m);
            return;
        }
        self.kick_lane(end.finished, id);
        self.recycle(m.pieces);
        let inflight = self.tasks.get_mut(m.task);
        inflight.subflows_remaining -= 1;
        if inflight.subflows_remaining == 0 {
            let inflight = self.tasks.remove(m.task);
            self.on_task_complete(end.finished, inflight);
        }
    }

    fn on_task_complete(&mut self, now: SimTime, inflight: InFlightTask) {
        let w = inflight.worker;
        let iter = inflight.iter;
        if inflight.replay {
            // A crash replay bypasses the scheduler: the strategy already
            // got `task_done` when the original delivery completed — only
            // the PS-side aggregation state is being reconstructed.
            for &(g, b) in &inflight.task.pieces {
                self.on_push_bytes(now, w, iter, g, b);
            }
            self.pump(now, w);
            return;
        }
        self.workers[w].sched.task_done(now, &inflight.task);
        match inflight.task.dir {
            Dir::Push => {
                // Observe pure wire time: the fixed per-message setup is
                // modelled separately by TcpModel, so leaving it in the
                // sample would double-count it when the scheduler turns
                // the estimate back into transfer times.
                let elapsed = now.saturating_since(inflight.started);
                let setup = Duration::from_secs_f64(self.cfg.tcp.setup_s);
                let wire = elapsed.saturating_sub(setup);
                {
                    let wk = &mut self.workers[w];
                    wk.monitor
                        .observe(now, inflight.task.bytes, wire.max(Duration::from_nanos(1)));
                    wk.bytes_accum += inflight.task.bytes as f64;
                    wk.push_active = wk.push_active.saturating_sub(1);
                    if wk.push_active == 0 {
                        wk.busy_accum += now.saturating_since(wk.busy_start);
                    }
                }
                if w == 0 && self.trace.is_enabled() {
                    let label = format!("p{}", inflight.task.top_priority());
                    self.trace.record(
                        "w0.up",
                        &label,
                        inflight.task.top_priority() as i64,
                        inflight.started,
                        now,
                    );
                }
                for &(g, b) in &inflight.task.pieces {
                    self.on_push_bytes(now, w, iter, g, b);
                }
            }
            Dir::Pull => {
                if w == 0 && self.trace.is_enabled() {
                    let label = format!("q{}", inflight.task.top_priority());
                    self.trace.record(
                        "w0.down",
                        &label,
                        inflight.task.top_priority() as i64,
                        inflight.started,
                        now,
                    );
                }
                for &(g, b) in &inflight.task.pieces {
                    self.on_pull_bytes(now, w, g, b);
                }
            }
        }
        self.pump(now, w);
    }

    fn on_push_bytes(&mut self, now: SimTime, w: usize, iter: u64, g: usize, b: u64) {
        let arrival = self.barriers.arrive(&self.mem, iter, g, w, None, b);
        let Arrival::WorkerDone { closes } = arrival else {
            return;
        };
        if w == 0 {
            self.workers[0].push_end[g] = now;
        }
        self.close_retry_episode(now, w, iter, g);
        self.emit(
            now,
            TraceEvent::PushEnd {
                worker: w,
                iter,
                grad: g,
            },
        );
        match self.cfg.sync {
            SyncMode::Asp => {
                // Asynchronous: this worker's gradient is applied on
                // arrival; it pulls the fresh parameters immediately,
                // waiting for nobody.
                if closes {
                    self.barriers.close(iter, g, self.num_grads());
                }
                self.workers[w].sched.param_ready(now, g);
                self.pump(now, w);
            }
            // A barrier the survivors satisfied may still wait on an eviction
            // (`Membership::may_close`) a stall pushed past their sprint
            // ahead; `evict_worker` closes it the instant the epoch opens.
            SyncMode::Bsp if closes => self.complete_barrier(now, iter, g),
            SyncMode::Bsp => {}
        }
    }

    /// BSP barrier for `(iter, g)` reached: parameters updated, every
    /// member of the iteration may pull.
    fn complete_barrier(&mut self, now: SimTime, iter: u64, g: usize) {
        let iteration_closed = self.barriers.close(iter, g, self.num_grads());
        self.emit(now, TraceEvent::Barrier { iter, grad: g });
        if !self.ckpt_gens.is_empty() {
            // The tensor's bytes append to its owning shard's
            // post-checkpoint ledger; the iteration's last barrier triggers
            // the snapshot round.
            self.ckpt_gens[self.owner[g]].newest_mut().seg_bytes += self.sizes[g];
            if iteration_closed {
                self.take_checkpoint(now, iter);
            }
        }
        for w2 in 0..self.workers.len() {
            if !self.mem.is_member(w2, iter) {
                continue;
            }
            debug_assert_eq!(
                self.workers[w2].iter, iter,
                "update completed while worker {w2} is in another iteration"
            );
            self.workers[w2].sched.param_ready(now, g);
            self.pump(now, w2);
        }
    }

    fn on_pull_bytes(&mut self, now: SimTime, w: usize, g: usize, b: u64) {
        let complete = {
            let wk = &mut self.workers[w];
            wk.pull_bytes[g] += b;
            debug_assert!(wk.pull_bytes[g] <= self.sizes[g], "over-pulled {g}");
            wk.pull_bytes[g] == self.sizes[g]
        };
        if complete {
            let iter = {
                let wk = &mut self.workers[w];
                wk.pulled[g] = true;
                wk.pull_end[g] = now;
                wk.iter
            };
            self.close_retry_episode(now, w, iter, g);
            self.emit(
                now,
                TraceEvent::PullEnd {
                    worker: w,
                    iter,
                    grad: g,
                },
            );
            self.try_start_forward(now, w);
        }
    }

    /// Make sure a wake-up is queued for the network's next event.
    ///
    /// A wake is scheduled only when that instant moves *earlier* than
    /// every outstanding wake (`net_wakes` is ascending, so the front is
    /// the earliest). Any later outstanding wake still fires, drains
    /// nothing, and re-arms — wakes are pure no-ops for simulation state,
    /// so deduplication cannot change a run, it only stops every handled
    /// event from spawning one more wake chain (which used to bury the
    /// queue in tens of millions of duplicates at high worker counts).
    fn arm_net(&mut self) {
        if let Some(t) = self.net.next_event_time() {
            if self.net_wakes.front().is_none_or(|&f| t < f) {
                debug_assert!(t >= self.queue.now(), "armed a wake in the past");
                self.queue.schedule(t, Ev::NetWake);
                self.net_wakes.push_front(t);
            }
        }
    }

    // ---- fault injection -------------------------------------------------

    fn has_faults(&self) -> bool {
        !self.cfg.fault_plan.is_empty()
    }

    /// Is worker `w`'s compute inside an active `WorkerStall` window?
    fn stalled(&self, now: SimTime, w: usize) -> bool {
        self.has_faults() && now < self.stall_until[w]
    }

    /// Re-derive the cached state `kind` windows drive on `node` from the
    /// one [`Windows`] query — called when such a window opens or closes,
    /// so overlapping windows can neither stack past the worst one nor
    /// un-fault a node another window still covers. Returns whether `node`
    /// is up (link kinds only).
    fn refresh_fault_state(&mut self, now: SimTime, kind: FaultKind, node: usize) -> bool {
        let ns = now.as_nanos();
        let worst = self.windows.worst_at(kind, &[node], ns);
        let until = self.windows.active_until(kind, &[node], ns);
        let until = until.map_or(SimTime::ZERO, SimTime::from_nanos);
        match kind {
            FaultKind::LinkDown | FaultKind::ShardCrash => {
                // A transient window closing must never resurrect a node a
                // permanent `ShardFail` already killed for good.
                let perma_dead = node < self.cfg.ps_shards && self.shard_dead[node];
                let down = |k| self.windows.active_until(k, &[node], ns).is_some();
                self.node_down[node] =
                    perma_dead || down(FaultKind::LinkDown) || down(FaultKind::ShardCrash);
                return !self.node_down[node];
            }
            FaultKind::LinkDegrade => {
                self.node_degrade[node] = worst.unwrap_or(1.0);
                self.apply_node_cap(now, node);
            }
            // Asked per send (`Windows::send_fate`); nothing to cache.
            FaultKind::MsgLoss | FaultKind::PayloadCorrupt => {}
            FaultKind::WorkerStall => self.stall_until[node - self.cfg.ps_shards] = until,
            _ => unreachable!("iteration-indexed faults are never window-scheduled"),
        }
        false
    }

    /// The open-window count of `(kind, node)`, entered at zero if absent.
    fn fault_count(&mut self, kind: FaultKind, node: usize) -> &mut u32 {
        let known = self
            .fault_active
            .iter()
            .position(|f| (f.0, f.1) == (kind, node));
        let at = known.unwrap_or_else(|| {
            self.fault_active.push((kind, node, 0));
            self.fault_active.len() - 1
        });
        &mut self.fault_active[at].2
    }

    fn on_fault_begin(&mut self, now: SimTime, idx: usize) {
        let win = self.windows.all()[idx];
        let count = self.fault_count(win.kind, win.node);
        *count += 1;
        if *count == 1 {
            self.emit(
                now,
                TraceEvent::FaultStart {
                    kind: win.kind,
                    node: win.node,
                },
            );
        }
        self.refresh_fault_state(now, win.kind, win.node);
        if matches!(win.kind, FaultKind::LinkDown | FaultKind::ShardCrash) {
            let kills = self.net.kill_flows_touching(now, NodeId(win.node));
            self.fail_flows(now, kills);
            if win.kind == FaultKind::ShardCrash {
                self.wipe_shard_state(now, win.node);
            }
        }
    }

    fn on_fault_finish(&mut self, now: SimTime, idx: usize) {
        let win = self.windows.all()[idx];
        let count = self.fault_count(win.kind, win.node);
        debug_assert!(*count > 0, "fault finished without starting");
        *count -= 1;
        // The trace pair closes when the last same-(kind, node) window does;
        // node state restores only once *no* window (of any kind) still
        // holds it down.
        let last = *count == 0;
        let up = self.refresh_fault_state(now, win.kind, win.node);
        // Connections do not survive an outage: every lane touching the
        // node comes back *cold* (full setup + slow-start on the next
        // message).
        let restored = if up {
            self.lanes.touching(win.node, self.cfg.ps_shards)
        } else {
            Vec::new()
        };
        for &id in &restored {
            self.lanes.slab[id as usize].ever_used = false;
        }
        if last {
            self.emit(
                now,
                TraceEvent::FaultEnd {
                    kind: win.kind,
                    node: win.node,
                },
            );
        }
        for id in restored {
            self.kick_lane(now, id);
        }
        if up {
            self.forward_net_events_up_to(now);
        }
    }

    /// Re-apply a node's capacity (base × degradation factor).
    fn apply_node_cap(&mut self, now: SimTime, node: usize) {
        let spec = NodeSpec::symmetric(self.node_base_bps[node] * self.node_degrade[node]);
        let done = self.net.set_node_spec(now, NodeId(node), spec);
        debug_assert!(done.is_empty());
    }

    fn on_msg_timeout(&mut self, now: SimTime, lane: LaneId, tag: u64) {
        let on_wire = self.lanes.slab[lane as usize].current.as_ref();
        if on_wire.is_none_or(|m| m.tag != tag) {
            return; // delivered, or already retried under a fresh tag
        }
        if let Some(kf) = self.net.kill_flow(now, tag) {
            self.fail_flows(now, Some(kf));
        }
    }

    /// Handle flows the network just killed: close their lanes, void the
    /// affected gradients' stamps, and queue the messages for re-send.
    fn fail_flows(&mut self, now: SimTime, kills: impl IntoIterator<Item = KilledFlow>) {
        // Ledger first: sinks must see each FlowKilled before the
        // RetryAttempt it causes.
        self.forward_net_events_up_to(now);
        for kf in kills {
            self.fault_stats.flows_killed += 1;
            self.fault_stats.wasted_bytes += kf.delivered;
            let id = self.lane_of_flow(kf.src, kf.dst);
            let lane = &mut self.lanes.slab[id as usize];
            lane.last_end = now;
            let msg = lane
                .current
                .take()
                .expect("killed flow had no current message");
            debug_assert_eq!(msg.tag, kf.tag);
            self.fail_message(now, id, msg);
        }
    }

    /// Re-queue a failed message under a fresh tag with one more attempt,
    /// back its lane off, and void the stamps of the gradients it carried.
    fn fail_message(&mut self, now: SimTime, id: LaneId, mut msg: QueuedMsg) {
        self.void_message(now, id, &mut msg);
        msg.tag = self.next_flow_tag;
        self.next_flow_tag += 1;
        let delay = self.cfg.retry.delay(msg.attempt);
        let until = now + delay;
        let lane = &mut self.lanes.slab[id as usize];
        lane.queue.push_front(msg);
        if until > lane.blocked_until {
            lane.blocked_until = until;
        }
        self.queue.schedule(until, Ev::LaneKick { lane: id });
    }

    /// A message failed in flight on lane `id`: count one more attempt
    /// against it, its worker and its scheduler, and open a retry step for
    /// every gradient it carried. The caller re-queues it under a fresh
    /// flow tag (which is what makes any outstanding ack timeout stale).
    fn void_message(&mut self, now: SimTime, id: LaneId, msg: &mut QueuedMsg) {
        let lane = &self.lanes.slab[id as usize];
        let (w, dir) = (lane.worker as usize, lane.dir);
        msg.attempt += 1;
        msg.fate = None;
        self.fault_stats.retried_bytes += msg.bytes;
        self.workers[w].failures_since_tick += 1;
        let inflight = self.tasks.get_mut(msg.task);
        let iter = inflight.iter;
        self.workers[w].sched.transfer_failed(now, &inflight.task);
        for &(g, _) in &msg.pieces {
            self.note_retry(now, w, iter, g, dir);
        }
    }

    /// `(w, iter, g)` finally delivered: close its retry episode, if one is
    /// open.
    fn close_retry_episode(&mut self, now: SimTime, w: usize, iter: u64, g: usize) {
        if let Some(attempts) = self.workers[w].outbox.delivered(iter, g) {
            self.fault_stats.recoveries += 1;
            self.emit(
                now,
                TraceEvent::Recovered {
                    worker: w,
                    iter,
                    grad: g,
                    attempts,
                },
            );
        }
    }

    /// Record one retry step for `(w, iter, g)` and void its stamps so the
    /// re-send re-stamps them. Coalesced: while the gradient is already
    /// awaiting a re-stamp, further failures join the episode silently.
    fn note_retry(&mut self, now: SimTime, w: usize, iter: u64, g: usize, dir: Dir) {
        let wk = &mut self.workers[w];
        let Some(attempt) = wk.outbox.fail(iter, g, dir) else {
            return;
        };
        match dir {
            Dir::Push => {
                wk.push_start[g] = UNSET;
                wk.push_end[g] = UNSET;
            }
            Dir::Pull => wk.pull_start[g] = UNSET,
        }
        self.fault_stats.retries += 1;
        self.emit(
            now,
            TraceEvent::RetryAttempt {
                worker: w,
                iter,
                grad: g,
                attempt,
            },
        );
    }

    /// A crashed shard loses its in-memory aggregation state: every
    /// worker's already-delivered bytes for gradients on that shard must
    /// be pushed again. Completed pushes are voided (the checker un-counts
    /// their barrier arrivals) and replay messages are synthesised outside
    /// the schedulers, which already saw `task_done` for those bytes.
    fn wipe_shard_state(&mut self, now: SimTime, shard: usize) {
        let owner = &self.owner;
        for (iter, g, w, b) in self.barriers.wipe(|g| owner[g] == shard) {
            self.fault_stats.replays += 1;
            self.fault_stats.retried_bytes += b;
            self.workers[w].failures_since_tick += 1;
            let task = TransferTask::slice(Dir::Push, g, b);
            self.workers[w].sched.transfer_failed(now, &task);
            self.note_retry(now, w, iter, g, Dir::Push);
            let task_id = self.tasks.insert(InFlightTask {
                worker: w,
                iter,
                task,
                started: now,
                subflows_remaining: 1,
                replay: true,
            });
            let lane = self.lanes.get_or_create(w, shard, Dir::Push);
            let mut pieces = self.piece_pool.pop().unwrap_or_default();
            pieces.push((g, b));
            self.enqueue(lane, task_id, b, pieces, 1);
            // No kick — the shard is down; restart kicks the lanes.
        }
    }

    // ---- elastic membership machinery ------------------------------------

    /// Fire every not-yet-fired permanent boundary event with
    /// `at_iter <= iter`: shard failures first, then admissions, each in
    /// node-id order — a fixed order, so runs are deterministic.
    fn fire_boundary_events(&mut self, now: SimTime, iter: u64) {
        while let Some(death) = self.mem.shard_deaths().get(self.deaths_fired) {
            if death.at_iter > iter {
                break;
            }
            let (s, at_iter, owner) = (death.shard, death.at_iter, death.owner.clone());
            self.deaths_fired += 1;
            self.fail_shard(now, s, at_iter, owner);
        }
        while let Some(&(at_iter, w)) = self.mem.joins().get(self.joins_fired) {
            if at_iter > iter {
                break;
            }
            self.joins_fired += 1;
            self.admit_worker(now, w, at_iter);
        }
    }

    /// Open a membership epoch: emit the change and force every surviving
    /// scheduler to re-plan against the new membership. The taint makes
    /// the next failure-free monitor period the first with an honest
    /// estimate, so Prophet's staleness detector routes the gap through
    /// its degraded mode (the paper's §4.2 stale-profile story).
    fn open_epoch(&mut self, now: SimTime, kind: FaultKind, node: usize, iter: u64) {
        self.membership_epoch += 1;
        self.elastic.epochs += 1;
        self.emit(
            now,
            TraceEvent::MembershipChange {
                epoch: self.membership_epoch,
                kind,
                node,
                iter,
            },
        );
        for w2 in 0..self.workers.len() {
            if !self.participating(w2) {
                continue;
            }
            self.workers[w2].failures_since_tick += 1;
            self.elastic.replans += 1;
        }
    }

    /// Worker `w` leaves for good at the boundary of its fail iteration.
    /// Boundary semantics mean no in-flight state: its final iteration's
    /// transfers all completed for the forward pass to have finished.
    fn evict_worker(&mut self, now: SimTime, w: usize) {
        let at_iter = self.mem.leaves_at(w).expect("eviction without a fail spec");
        // Barriers the departed worker was the last missing member of
        // close right now — after the epoch opens; the worker is gone
        // before it does.
        let closable = self.barriers.leave(&self.mem, w);
        self.elastic.evicted_workers += 1;
        self.open_epoch(now, FaultKind::WorkerFail, w, at_iter);
        for (iter, g) in closable {
            self.complete_barrier(now, iter, g);
        }
    }

    /// Worker `j` joins at the boundary of iteration `k`: it bootstraps by
    /// pulling the full model (modelled as a provisioning delay at the
    /// joiner's NIC rate, off the training fabric), then runs iterations
    /// `k..` as a full barrier member.
    fn admit_worker(&mut self, now: SimTime, j: usize, k: u64) {
        self.joined[j] = true;
        {
            let wk = &mut self.workers[j];
            wk.iters_done = k;
            wk.iter = k;
        }
        self.elastic.joined_workers += 1;
        self.open_epoch(now, FaultKind::WorkerJoin, j, k);
        let model: u64 = self.sizes.iter().sum();
        self.elastic.bootstrap_bytes += model;
        let delay = Duration::from_secs_f64(model as f64 / self.cfg.worker_bandwidth(j));
        self.queue
            .schedule(now + delay, Ev::IterBegin { w: j as u32 });
    }

    /// Shard `s` dies for good at the boundary of iteration `at_iter`: its
    /// tensors re-home to survivors per `next_owner`, which rebuild the
    /// adopted state from the last checkpoint plus the post-checkpoint byte
    /// ledger before serving anything new.
    fn fail_shard(&mut self, now: SimTime, s: usize, at_iter: u64, next_owner: Vec<usize>) {
        self.shard_dead[s] = true;
        self.node_down[s] = true;
        self.elastic.failed_shards += 1;
        self.open_epoch(now, FaultKind::ShardFail, s, at_iter);
        // The boundary trigger guarantees no open aggregation state on the
        // dead shard: every barrier of the previous iteration closed before
        // any worker could begin this one. Anything else is a bug worth
        // dying loudly over (the alternative is a silent hang).
        let owner = &self.owner;
        assert!(
            self.barriers.wipe(|g| owner[g] == s).is_empty(),
            "open aggregation state on permanently failed shard {s}"
        );
        // Kill whatever is still on the wire touching the dead shard
        // (stragglers' previous-iteration pulls, pending replays). The
        // partial deliveries are work lost to the failure.
        let kills = self.net.kill_flows_touching(now, NodeId(s));
        self.forward_net_events_up_to(now);
        for kf in &kills {
            self.fault_stats.flows_killed += 1;
            self.fault_stats.wasted_bytes += kf.delivered;
            self.elastic.lost_work_bytes += kf.delivered as u64;
            // The killed message stays the lane's `current` until the
            // re-route below takes it: every one of these lanes ends at `s`.
            let id = self.lane_of_flow(kf.src, kf.dst);
            self.lanes.slab[id as usize].last_end = now;
        }
        // Re-home the dead shard's tensors onto the timetable's next table.
        let from = std::mem::replace(&mut self.owner, next_owner);
        let mut adopters: Vec<usize> = Vec::new();
        for (g, &prev) in from.iter().enumerate() {
            if prev == self.owner[g] {
                continue;
            }
            self.emit(
                now,
                TraceEvent::Rehome {
                    grad: g,
                    from: prev,
                    to: self.owner[g],
                },
            );
            if !adopters.contains(&self.owner[g]) {
                adopters.push(self.owner[g]);
            }
        }
        // Restore cost: walk the dead shard's generations newest-first,
        // paying for every snapshot read until the checksum verifies, then
        // replay every ledger segment from the intact generation forward —
        // all read back at the PS NIC rate; the adopters serve nothing new
        // until it completes. With no corruption the walk stops at the
        // newest generation and the cost collapses to the classic
        // `snapshot + ledger`, which is what keeps the exact-ns fault
        // goldens byte-for-byte unchanged.
        let fb = self.ckpt_gens[s]
            .fallback()
            .expect("no intact checkpoint generation for failed shard");
        if fb.depth > 0 {
            self.elastic.restore_fallbacks += 1;
            self.elastic.fallback_depth += fb.depth;
            self.emit(
                now,
                TraceEvent::RestoreFallback {
                    shard: s,
                    depth: fb.depth,
                },
            );
        }
        self.elastic.restore_bytes += fb.bytes;
        let delay = Duration::from_secs_f64(fb.bytes as f64 / self.cfg.ps_bps);
        self.elastic.recovery_ns += delay.as_nanos();
        let until = now + delay;
        for &a in &adopters {
            if until > self.shard_blocked_until[a] {
                self.shard_blocked_until[a] = until;
            }
        }
        // Re-route every message parked on a lane to the dead shard onto
        // its gradient's new owner — fail-fast, zero backoff: there is no
        // outage to outwait. (Re-routing creates lanes, so the walk is over
        // a list taken first.)
        for id in self.lanes.touching(s, self.cfg.ps_shards) {
            let lane = &mut self.lanes.slab[id as usize];
            let mut msgs: Vec<QueuedMsg> = lane.current.take().into_iter().collect();
            msgs.extend(lane.queue.drain(..));
            for msg in msgs {
                self.reroute_message(now, id, msg);
            }
        }
        self.forward_net_events_up_to(now);
    }

    /// Re-queue a message bound for a dead shard onto its pieces' new
    /// owners under fresh tags. The episode counts as a retry (stamps
    /// voided, scheduler told) but the backoff is the fail-fast zero of
    /// [`prophet_net::RetryPolicy::delay_to`]: backing off against a peer
    /// that is never coming back would burn the whole capped-exponential
    /// schedule per message for nothing.
    fn reroute_message(&mut self, now: SimTime, from: LaneId, mut msg: QueuedMsg) {
        self.void_message(now, from, &mut msg);
        debug_assert_eq!(
            self.cfg.retry.delay_to(msg.attempt, true),
            Duration::ZERO,
            "fail-fast re-route must not back off"
        );
        // Split the payload by the pieces' adopters (the modular re-home
        // maps one dead shard onto one survivor, but stay general). One
        // message becomes `groups.len()`, so the owning task's outstanding
        // subflow count grows by the difference.
        let mut groups = Vec::new();
        self.group_by_owner(&msg.pieces, &mut groups);
        self.tasks.get_mut(msg.task).subflows_remaining += groups.len() - 1;
        let lane = &self.lanes.slab[from as usize];
        let (w, dir) = (lane.worker as usize, lane.dir);
        for (a, bytes, pieces) in groups {
            let to = self.lanes.get_or_create(w, a, dir);
            self.enqueue(to, msg.task, bytes, pieces, msg.attempt);
            self.kick_lane(now, to);
        }
        self.recycle(msg.pieces);
    }

    /// Iteration `iter` closed: snapshot every surviving shard whose cadence
    /// is due, opening a fresh ledger segment.
    fn take_checkpoint(&mut self, now: SimTime, iter: u64) {
        let owned = owned_bytes(&self.owner, &self.sizes, self.cfg.ps_shards);
        for (s, &bytes) in owned.iter().enumerate() {
            if self.shard_dead[s] || !self.ckpt_sched[s].due(iter) {
                continue;
            }
            let corrupt = self.ckpt_sched[s].poisons(iter);
            self.ckpt_sched[s].round_written(iter);
            self.elastic.corrupt_snapshots += corrupt as u64;
            self.ckpt_gens[s].push(SimGen::new(bytes, corrupt));
            self.elastic.checkpoints += 1;
            self.emit(now, TraceEvent::Checkpoint { shard: s, iter });
        }
    }

    // ---- results ---------------------------------------------------------

    fn finish(mut self) -> RunResult {
        let end = self.queue.now();
        let batch = self.cfg.job.batch as f64;
        let warmup = self.cfg.warmup_iters as usize;
        let n_iters = self.iter_times.len();
        let rate = if n_iters > warmup {
            let steady: Duration = self.iter_times[warmup..]
                .iter()
                .fold(Duration::ZERO, |a, &b| a + b);
            (n_iters - warmup) as f64 * batch / steady.as_secs_f64()
        } else {
            0.0
        };
        let total: Duration = self.iter_times.iter().fold(Duration::ZERO, |a, &b| a + b);
        let rate_with_warmup = if total.is_zero() {
            0.0
        } else {
            n_iters as f64 * batch / total.as_secs_f64()
        };
        let avg_gpu_util = if self.warmup_end_time.is_some() {
            self.post_warmup_gpu.average(end)
        } else {
            0.0
        };
        let net_throughput = self.net_series.samples().to_vec();
        let post_warmup_net: Vec<f64> = net_throughput
            .iter()
            .filter(|(t, _)| Some(*t) >= self.warmup_end_time)
            .map(|&(_, v)| v)
            .collect();
        let avg_net_throughput = if post_warmup_net.is_empty() {
            0.0
        } else {
            post_warmup_net.iter().sum::<f64>() / post_warmup_net.len() as f64
        };
        let (grad_spans, shard_spans) = self
            .span_sink
            .take()
            .map(SpanCollector::into_parts)
            .unwrap_or_default();
        // Every retry episode must have closed with a delivery; a leftover
        // entry means a gradient was dropped on the floor.
        debug_assert!(
            self.workers.iter().all(|wk| wk.outbox.is_quiet()),
            "unrecovered retry episodes at end of run"
        );
        let mut fault_stats = self.fault_stats.clone();
        fault_stats.wire_bytes = (0..self.cfg.ps_shards + self.workers.len())
            .map(|n| self.net.tx_bytes(NodeId(n)))
            .sum();
        // Close the degraded-mode log with the end-of-run state so short
        // runs (fewer than one monitor period) still report it and the
        // oracle's stuck-degraded check sees the final word.
        let final_degraded = self.workers[0].sched.is_degraded();
        let last_logged = self
            .degraded_transitions
            .last()
            .map(|&(_, d)| d)
            .unwrap_or(false);
        if final_degraded != last_logged {
            self.degraded_transitions.push((end, final_degraded));
        }
        RunResult {
            scheduler: self.cfg.scheduler.label().to_string(),
            iterations: self.total_iters,
            duration: end,
            rate,
            rate_with_warmup,
            iter_times: self.iter_times,
            gpu_util: self.gpu_series,
            avg_gpu_util,
            net_throughput,
            avg_net_throughput,
            transfer_logs: self.transfer_logs,
            iter_starts: self.iter_starts,
            trace: self.trace,
            credit_trace: self.credit_trace,
            bandwidth_estimates: self.bandwidth_estimates,
            degraded_transitions: self.degraded_transitions,
            grad_spans,
            fault_stats,
            shard_spans,
            elastic: self.elastic,
            net_stats: self.net.stats(),
            cluster_stats: ClusterStats {
                tasks_issued: self.tasks.issued,
                peak_live_tasks: self.tasks.slots.len() as u64,
                lanes_created: self.lanes.slab.len() as u64,
                checker_events: self.checker.as_ref().map_or(0, |c| c.events_seen()),
                ..self.stats
            },
        }
    }
}

/// Simulate `iters` BSP iterations of `cfg` and report the metrics.
///
/// # Panics
///
/// On bad input — `iters == 0`, or a configuration
/// [`ClusterConfig::validate`] rejects — before anything runs. A panic from
/// inside the run is a broken engine invariant (or, with
/// [`ClusterConfig::check_invariants`], a violation the checker caught).
pub fn run_cluster(cfg: &ClusterConfig, iters: u64) -> RunResult {
    assert!(iters > 0, "zero iterations");
    Cluster::new(cfg.clone(), iters).run()
}

/// [`run_cluster`] with the fluid network in full-resolve mode (every
/// re-allocation re-solves every connected component): the oracle
/// `tests/integration_incremental_golden.rs` holds the incremental engine
/// bit-identical to. A test hook, not a deployment choice.
#[doc(hidden)]
pub fn run_cluster_full_resolve(cfg: &ClusterConfig, iters: u64) -> RunResult {
    assert!(iters > 0, "zero iterations");
    let mut cluster = Cluster::new(cfg.clone(), iters);
    cluster.net.set_full_resolve(true);
    cluster.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_core::{ProphetConfig, SchedulerKind};
    use prophet_dnn::TrainingJob;

    fn base(scheduler: SchedulerKind) -> ClusterConfig {
        ClusterConfig::paper_cell(2, 10.0, TrainingJob::paper_setup("resnet18", 16), scheduler)
    }

    #[test]
    fn fifo_cluster_completes_iterations() {
        let r = run_cluster(&base(SchedulerKind::Fifo), 6);
        assert_eq!(r.iterations, 6);
        assert_eq!(r.iter_times.len(), 6);
        assert!(r.rate > 0.0, "rate {}", r.rate);
        assert!(r.duration > SimTime::ZERO);
    }

    #[test]
    fn rate_below_compute_ceiling() {
        let cfg = base(SchedulerKind::Fifo);
        let ceiling = cfg.job.compute_rate_ceiling();
        let r = run_cluster(&cfg, 6);
        // (small tolerance: compute jitter can make short windows beat
        // the nominal ceiling)
        assert!(
            r.rate <= ceiling * 1.08,
            "rate {} exceeds compute ceiling {}",
            r.rate,
            ceiling
        );
    }

    #[test]
    fn all_schedulers_complete() {
        for kind in SchedulerKind::paper_lineup(1.25e9) {
            let label = kind.label();
            let r = run_cluster(&base(kind), 4);
            assert_eq!(r.iter_times.len(), 4, "{label}");
            assert!(r.rate > 0.0, "{label}: zero rate");
        }
    }

    #[test]
    fn prophet_oracle_completes() {
        let kind = SchedulerKind::ProphetOracle(ProphetConfig::paper_default(1.25e9));
        let r = run_cluster(&base(kind), 4);
        assert_eq!(r.iter_times.len(), 4);
        assert!(r.rate > 0.0);
    }

    #[test]
    fn completion_index_traffic_follows_fills_not_rate_changes() {
        // A 32 × 32 oracle cell: every worker talks to every shard, so the
        // flow graph is a few large components whose every fill re-rates
        // many members. The completion index must see one entry per fill,
        // not one per re-rated flow — and the counts are exact per seed.
        let kind = SchedulerKind::ProphetOracle(ProphetConfig::paper_default(1.25e9));
        let mut cfg =
            ClusterConfig::paper_cell(32, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
        cfg.ps_shards = 32;
        cfg.warmup_iters = 1;
        let s = run_cluster(&cfg, 2).net_stats;
        assert!(s.completions > 0 && s.refills > 0, "{s:?}");
        assert!(s.rate_changes > 4 * s.refills, "cell too tame: {s:?}");
        assert!(s.index_pushes <= s.refills + s.completions, "{s:?}");
        assert!(s.index_stale_pops <= s.refills, "{s:?}");
        assert_eq!(s, run_cluster(&cfg, 2).net_stats, "counts must repeat");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = base(SchedulerKind::Fifo);
        let a = run_cluster(&cfg, 4);
        let b = run_cluster(&cfg, 4);
        assert_eq!(a.iter_times, b.iter_times);
        assert_eq!(a.duration, b.duration);
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let c = run_cluster(&cfg2, 4);
        assert_ne!(a.iter_times, c.iter_times, "seed had no effect");
    }

    #[test]
    fn event_stays_small() {
        // 16-byte events make 32-byte queue entries (time + sequence
        // number + event); a `usize` triple or a tuple key in one variant
        // would grow every entry the heap sifts.
        assert!(
            std::mem::size_of::<Ev>() <= 16,
            "{}",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn lanes_are_found_by_endpoints_and_walked_in_key_order() {
        let mut lanes = Lanes::new(3);
        // Created out of key order, as messages would create them.
        let keys = [
            (2, 1, Dir::Pull),
            (0, 1, Dir::Push),
            (2, 0, Dir::Push),
            (0, 0, Dir::Pull),
            (2, 1, Dir::Push),
            (0, 1, Dir::Pull),
        ];
        let ids: Vec<LaneId> = keys
            .iter()
            .map(|&(w, s, d)| lanes.get_or_create(w, s, d))
            .collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5], "ids are creation order");
        for (&(w, s, d), &id) in keys.iter().zip(&ids) {
            assert_eq!(lanes.find(w, s, d), Some(id));
            assert_eq!(lanes.get_or_create(w, s, d), id, "no second lane");
            let lane = &lanes.slab[id as usize];
            assert_eq!((lane.worker, lane.shard, lane.dir), (w as u32, s as u32, d));
        }
        assert_eq!(lanes.find(1, 0, Dir::Push), None);
        assert_eq!(lanes.find(0, 0, Dir::Push), None);
        assert_eq!(lanes.slab.len(), 6);
        // Two shards, so nodes 0–1 are shards and 2–4 the workers.
        let touching = |node| lanes.touching(node, 2);
        assert_eq!(
            touching(1),
            [1, 5, 4, 0],
            "shard 1: (w0 push, w0 pull, w2 push, w2 pull)"
        );
        assert_eq!(touching(0), [3, 2]);
        assert_eq!(
            touching(2),
            [3, 1, 5],
            "worker 0: (s0 pull, s1 push, s1 pull)"
        );
        assert_eq!(touching(3), [] as [LaneId; 0]);
        assert_eq!(touching(4), [2, 4, 0]);
    }

    #[test]
    fn task_slots_are_reused_last_freed_first() {
        let task = |worker| InFlightTask {
            worker,
            iter: 0,
            task: TransferTask::whole(Dir::Push, 0, 1),
            started: SimTime::ZERO,
            subflows_remaining: 1,
            replay: false,
        };
        let mut tasks = Tasks::default();
        let ids: Vec<TaskId> = (0..3).map(|w| tasks.insert(task(w))).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(tasks.remove(0).worker, 0);
        assert_eq!(tasks.remove(2).worker, 2);
        assert_eq!(tasks.insert(task(7)), 2);
        assert_eq!(tasks.insert(task(8)), 0);
        assert_eq!(tasks.insert(task(9)), 3);
        assert_eq!(tasks.get_mut(2).worker, 7);
        tasks.get_mut(1).subflows_remaining = 5;
        assert_eq!(tasks.get_mut(1).subflows_remaining, 5);
        assert_eq!(tasks.slots.len(), 4, "as long as the most ever live");
    }

    #[test]
    #[should_panic(expected = "message names a retired task")]
    fn a_retired_task_id_is_a_broken_invariant() {
        let mut tasks = Tasks::default();
        let id = tasks.insert(InFlightTask {
            worker: 0,
            iter: 0,
            task: TransferTask::whole(Dir::Push, 0, 1),
            started: SimTime::ZERO,
            subflows_remaining: 1,
            replay: false,
        });
        tasks.remove(id);
        tasks.get_mut(id);
    }

    #[test]
    fn cluster_stats_are_exact_and_add_up() {
        let cfg = base(SchedulerKind::Fifo);
        let (iters, n) = (4u64, cfg.job.num_gradients() as u64);
        let s = run_cluster(&cfg, iters).cluster_stats;
        assert_eq!(
            s,
            run_cluster(&cfg, iters).cluster_stats,
            "counts must repeat"
        );
        let worker_iters = cfg.workers as u64 * iters;
        assert_eq!(s.popped("iter_begin"), worker_iters);
        assert_eq!(s.popped("grad_ready"), worker_iters * n);
        assert_eq!(s.popped("fwd_done"), worker_iters * n);
        assert_eq!(
            s.popped("lane_kick") + s.popped("msg_timeout"),
            0,
            "fault-free"
        );
        assert_eq!(s.events(), s.events_popped.iter().sum::<u64>());
        // FIFO: one whole-tensor push and one pull per gradient, one shard,
        // so one message per task and two lanes per worker.
        assert_eq!(s.tasks_issued, worker_iters * n * 2);
        assert_eq!(s.messages, s.tasks_issued);
        assert_eq!(s.lanes_created, cfg.workers as u64 * 2);
        assert!(s.pump_calls >= s.tasks_issued / 2, "{s:?}");
        assert!(s.peak_live_tasks >= 1 && s.peak_live_tasks <= cfg.workers as u64 * n * 2);
        // One release per worker pending, not the whole backward pass.
        assert!(s.peak_pending_events < n, "{s:?}");
        assert_eq!(s.checker_events > 0, cfg.check_invariants);
    }

    #[test]
    fn transfer_logs_are_complete_and_ordered() {
        let r = run_cluster(&base(SchedulerKind::Fifo), 3);
        for logs in &r.transfer_logs {
            for log in logs {
                assert_ne!(log.ready, SimTime::MAX, "gradient {} never ready", log.grad);
                assert_ne!(log.push_start, SimTime::MAX);
                assert_ne!(log.push_end, SimTime::MAX);
                assert_ne!(log.pull_end, SimTime::MAX);
                assert!(log.ready <= log.push_start);
                assert!(log.push_start < log.push_end);
                assert!(log.push_end <= log.pull_end);
            }
        }
    }

    #[test]
    fn gpu_utilisation_is_sampled_and_bounded() {
        let r = run_cluster(&base(SchedulerKind::Fifo), 5);
        assert!(!r.gpu_util.is_empty());
        for &(_, u) in &r.gpu_util {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "util {u}");
        }
        assert!(r.avg_gpu_util > 0.2, "avg util {}", r.avg_gpu_util);
    }

    #[test]
    fn net_series_sees_traffic() {
        let r = run_cluster(&base(SchedulerKind::Fifo), 4);
        let peak = r
            .net_throughput
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(peak > 1e6, "peak throughput {peak}");
    }

    #[test]
    fn slower_network_slower_training() {
        let job = || TrainingJob::paper_setup("resnet50", 32);
        let fast = ClusterConfig::paper_cell(2, 10.0, job(), SchedulerKind::Fifo);
        let slow = ClusterConfig::paper_cell(2, 1.0, job(), SchedulerKind::Fifo);
        let rf = run_cluster(&fast, 5);
        let rs = run_cluster(&slow, 5);
        assert!(rf.rate > rs.rate * 1.3, "10G {} vs 1G {}", rf.rate, rs.rate);
    }

    #[test]
    fn heterogeneous_worker_slows_everyone() {
        let job = || TrainingJob::paper_setup("resnet50", 32);
        let uniform = ClusterConfig::paper_cell(3, 10.0, job(), SchedulerKind::Fifo);
        let mut hetero = uniform.clone();
        hetero.worker_bps_overrides.push((1, 62.5e6)); // 500 Mbps
        let ru = run_cluster(&uniform, 4);
        let rh = run_cluster(&hetero, 4);
        assert!(
            rh.rate < ru.rate * 0.8,
            "hetero {} vs uniform {}",
            rh.rate,
            ru.rate
        );
    }

    #[test]
    fn sharded_ps_speeds_up_large_clusters() {
        // Workers pushing ResNet50-sized gradients through one under-
        // provisioned PS NIC (3 Gb/s vs the workers' 10 Gb/s) saturate it;
        // sharding the PS (BytePS-style co-location) relieves the
        // bottleneck because each shard brings its own NIC. A credit-based
        // scheduler is used so several tensors are in flight concurrently —
        // serialized whole-tensor pushes hit one shard at a time and cannot
        // benefit.
        let job = || TrainingJob::paper_setup("resnet50", 64);
        let mut single = ClusterConfig::paper_cell(
            4,
            10.0,
            job(),
            SchedulerKind::ByteScheduler(Default::default()),
        );
        single.ps_bps = 3e9 / 8.0;
        single.compute_jitter = 0.0;
        single.warmup_iters = 1;
        let mut sharded = single.clone();
        sharded.ps_shards = 4;
        let r1 = run_cluster(&single, 3);
        let r6 = run_cluster(&sharded, 3);
        assert!(
            r6.rate > r1.rate,
            "sharded {} vs single {}",
            r6.rate,
            r1.rate
        );
    }

    #[test]
    fn credit_trace_only_for_autotuner() {
        use prophet_core::{AutoTuneConfig, ByteSchedulerConfig};
        let fixed = run_cluster(
            &base(SchedulerKind::ByteScheduler(ByteSchedulerConfig::default())),
            3,
        );
        assert!(!fixed.credit_trace.is_empty()); // fixed credit still reported
        assert!(fixed.credit_trace.iter().all(|&(_, c)| c == 12 << 20));
        let tuned_cfg = ByteSchedulerConfig {
            autotune: Some(AutoTuneConfig {
                interval_iters: 1,
                ..AutoTuneConfig::default()
            }),
            ..ByteSchedulerConfig::default()
        };
        let tuned = run_cluster(&base(SchedulerKind::ByteScheduler(tuned_cfg)), 8);
        let credits: Vec<u64> = tuned.credit_trace.iter().map(|&(_, c)| c).collect();
        let distinct: std::collections::BTreeSet<u64> = credits.iter().copied().collect();
        assert!(distinct.len() > 1, "tuner never moved: {credits:?}");
    }

    #[test]
    fn trace_records_gpu_and_network_lanes() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.trace = true;
        let r = run_cluster(&cfg, 2);
        assert!(r.trace.lane("w0.gpu").count() > 0);
        assert!(r.trace.lane("w0.up").count() > 0);
        assert!(r.trace.lane("w0.down").count() > 0);
    }

    // ---- fault injection -------------------------------------------------

    use prophet_sim::{FaultPlan, FaultSpec};

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(v)
    }

    #[test]
    fn fault_free_run_has_zero_fault_stats() {
        let r = run_cluster(&base(SchedulerKind::Fifo), 3);
        assert_eq!(r.fault_stats.retries, 0);
        assert_eq!(r.fault_stats.flows_killed, 0);
        assert_eq!(r.fault_stats.messages_lost, 0);
        assert_eq!(r.fault_stats.replays, 0);
        assert_eq!(r.fault_stats.recoveries, 0);
        assert!(r.fault_stats.wire_bytes > 0.0);
    }

    #[test]
    fn link_down_kills_retries_and_recovers() {
        let mut cfg = base(SchedulerKind::Fifo);
        // Worker 1's node (shards=1, so node index 2) loses its links in
        // the middle of iteration 0's push phase.
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDown {
            node: 2,
            at: ms(30),
            dur: Duration::from_millis(60),
        }]);
        let r = run_cluster(&cfg, 3);
        assert_eq!(r.iter_times.len(), 3, "run did not complete");
        assert!(r.fault_stats.flows_killed > 0, "{:?}", r.fault_stats);
        assert!(r.fault_stats.retries > 0, "{:?}", r.fault_stats);
        assert!(
            r.fault_stats.recoveries > 0 && r.fault_stats.recoveries <= r.fault_stats.retries,
            "every retried gradient must eventually deliver: {:?}",
            r.fault_stats
        );
        // Same plan, same seed: bit-identical outcome.
        let r2 = run_cluster(&cfg, 3);
        assert_eq!(r.iter_times, r2.iter_times);
        assert_eq!(r.duration, r2.duration);
        assert_eq!(r.fault_stats, r2.fault_stats);
        // The engine's own counters repeat too, and show the retry
        // machinery: every failure armed a kick, and the re-sends went out
        // on the lanes the first sends made. (The 5 s ack timeouts outlive
        // this run; they are dropped at the end, never popped.)
        let s = r.cluster_stats;
        assert_eq!(s, r2.cluster_stats);
        assert!(s.popped("lane_kick") >= r.fault_stats.flows_killed, "{s:?}");
        assert_eq!(s.popped("msg_timeout"), 0);
        assert_eq!(s.messages, s.tasks_issued + r.fault_stats.flows_killed);
        assert_eq!(s.lanes_created, cfg.workers as u64 * 2);
    }

    #[test]
    fn link_degrade_slows_training_but_completes() {
        let mut healthy = base(SchedulerKind::Fifo);
        healthy.compute_jitter = 0.0;
        let mut degraded = healthy.clone();
        degraded.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDegrade {
            node: 0, // the PS NIC: every transfer shares the pain
            at: ms(10),
            factor: 0.15,
            dur: Duration::from_millis(400),
        }]);
        let rh = run_cluster(&healthy, 3);
        let rd = run_cluster(&degraded, 3);
        assert_eq!(rd.iter_times.len(), 3);
        assert!(
            rd.duration > rh.duration,
            "degraded {:?} should be slower than healthy {:?}",
            rd.duration,
            rh.duration
        );
    }

    #[test]
    fn overlapping_same_kind_windows_pair_their_trace_events() {
        // Chaos-search reproducer (seed 42, shrunk): a burst piles a second
        // WorkerStall onto an active one, and a shard crashes again inside
        // its own restart window. Each used to emit a second `FaultStart`
        // for an already-open (kind, node) pair — an instant checker panic —
        // and the first window's end un-faulted the node while the second
        // window still held it.
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.check_invariants = true;
        cfg.fault_plan = FaultPlan::new(vec![
            FaultSpec::WorkerStall {
                worker: 1,
                at: SimTime::from_nanos(119_362_926),
                dur: Duration::from_nanos(13_154_060),
            },
            FaultSpec::WorkerStall {
                worker: 1,
                at: SimTime::from_nanos(130_681_165),
                dur: Duration::from_nanos(1_693_936),
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: ms(150),
                restart_after: Duration::from_millis(60),
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: ms(170),
                restart_after: Duration::from_millis(10),
            },
        ]);
        let r = run_cluster(&cfg, 3);
        assert_eq!(r.iter_times.len(), 3, "run did not complete");
    }

    #[test]
    fn overlapping_degrades_stack_worst_wins_and_unwind() {
        // Two overlapping degrade windows on the PS: while both are active
        // the deeper factor applies; when the deep one ends first, the link
        // must restore to the shallow factor, not to full bandwidth.
        let mut shallow = base(SchedulerKind::Fifo);
        shallow.compute_jitter = 0.0;
        let mut both = shallow.clone();
        shallow.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDegrade {
            node: 0,
            at: ms(10),
            factor: 0.5,
            dur: Duration::from_millis(400),
        }]);
        both.fault_plan = FaultPlan::new(vec![
            FaultSpec::LinkDegrade {
                node: 0,
                at: ms(10),
                factor: 0.5,
                dur: Duration::from_millis(400),
            },
            FaultSpec::LinkDegrade {
                node: 0,
                at: ms(20),
                factor: 0.1,
                dur: Duration::from_millis(100),
            },
        ]);
        let rs = run_cluster(&shallow, 3);
        let rb = run_cluster(&both, 3);
        assert_eq!(rb.iter_times.len(), 3);
        assert!(
            rb.duration > rs.duration,
            "the nested deep window must cost extra time: {:?} vs {:?}",
            rb.duration,
            rs.duration
        );
    }

    #[test]
    fn msg_loss_dooms_messages_deterministically() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::MsgLoss {
            rate: 0.25,
            at: ms(0),
            dur: Duration::from_millis(250),
        }]);
        let r = run_cluster(&cfg, 3);
        assert_eq!(r.iter_times.len(), 3);
        assert!(r.fault_stats.messages_lost > 0, "{:?}", r.fault_stats);
        assert!(
            r.fault_stats.recoveries > 0 && r.fault_stats.recoveries <= r.fault_stats.retries,
            "{:?}",
            r.fault_stats
        );
        let r2 = run_cluster(&cfg, 3);
        assert_eq!(r.fault_stats, r2.fault_stats);
        assert_eq!(r.duration, r2.duration);
        // A different plan seed redraws the losses.
        let mut cfg3 = cfg.clone();
        cfg3.fault_plan.seed ^= 0xDEAD;
        let r3 = run_cluster(&cfg3, 3);
        assert_ne!(
            (r.duration, r.fault_stats.messages_lost),
            (r3.duration, r3.fault_stats.messages_lost),
            "plan seed had no effect"
        );
    }

    #[test]
    fn shard_crash_replays_wiped_aggregation_state() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::ShardCrash {
            shard: 0,
            at: ms(40),
            restart_after: Duration::from_millis(50),
        }]);
        let r = run_cluster(&cfg, 3);
        assert_eq!(r.iter_times.len(), 3, "run did not complete");
        assert!(
            r.fault_stats.replays > 0 || r.fault_stats.flows_killed > 0,
            "crash mid-push neither killed nor wiped anything: {:?}",
            r.fault_stats
        );
        assert!(
            r.fault_stats.recoveries > 0 && r.fault_stats.recoveries <= r.fault_stats.retries,
            "{:?}",
            r.fault_stats
        );
        let r2 = run_cluster(&cfg, 3);
        assert_eq!(r.iter_times, r2.iter_times);
        assert_eq!(r.fault_stats, r2.fault_stats);
    }

    #[test]
    fn worker_stall_delays_the_bsp_barrier() {
        let mut healthy = base(SchedulerKind::Fifo);
        healthy.compute_jitter = 0.0;
        let mut stalled = healthy.clone();
        stalled.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerStall {
            worker: 1,
            at: ms(20),
            dur: Duration::from_millis(150),
        }]);
        let rh = run_cluster(&healthy, 3);
        let rs = run_cluster(&stalled, 3);
        assert_eq!(rs.iter_times.len(), 3);
        assert!(
            rs.duration > rh.duration,
            "stall {:?} vs healthy {:?}",
            rs.duration,
            rh.duration
        );
    }

    #[test]
    fn faults_hold_across_the_scheduler_lineup() {
        // Every strategy must survive a kill-retry cycle plus a shard
        // crash with the invariant checker attached (debug builds).
        for kind in SchedulerKind::paper_lineup(1.25e9) {
            let label = kind.label();
            let mut cfg = base(kind);
            cfg.fault_plan = FaultPlan::new(vec![
                FaultSpec::LinkDown {
                    node: 2,
                    at: ms(25),
                    dur: Duration::from_millis(40),
                },
                FaultSpec::ShardCrash {
                    shard: 0,
                    at: ms(160),
                    restart_after: Duration::from_millis(40),
                },
            ]);
            let r = run_cluster(&cfg, 3);
            assert_eq!(r.iter_times.len(), 3, "{label}: incomplete run");
            assert!(
                r.fault_stats.recoveries <= r.fault_stats.retries,
                "{label}: dropped gradient: {:?}",
                r.fault_stats
            );
            assert!(
                r.fault_stats.retries == 0 || r.fault_stats.recoveries > 0,
                "{label}: retried but never recovered: {:?}",
                r.fault_stats
            );
        }
    }

    #[test]
    fn prophet_degrades_and_recovers_under_faults() {
        let mut cfg = base(SchedulerKind::Prophet(ProphetConfig::paper_default(1.25e9)));
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDown {
            node: 2,
            at: ms(400),
            dur: Duration::from_millis(80),
        }]);
        // Enough iterations that profiling finishes before the fault and
        // training continues long after it.
        let r = run_cluster(&cfg, 8);
        assert_eq!(r.iter_times.len(), 8);
        assert!(
            r.fault_stats.recoveries > 0 && r.fault_stats.recoveries <= r.fault_stats.retries,
            "{:?}",
            r.fault_stats
        );
    }

    // ---- elastic membership ------------------------------------------------

    #[test]
    fn worker_fail_evicts_at_the_boundary_and_survivors_finish() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.workers = 3;
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerFail {
            worker: 2,
            at_iter: 3,
        }]);
        let r = run_cluster(&cfg, 6);
        assert_eq!(r.iter_times.len(), 6, "worker 0 must finish all iterations");
        assert_eq!(r.elastic.evicted_workers, 1);
        assert_eq!(r.elastic.epochs, 1);
        assert!(r.elastic.replans >= 2, "{:?}", r.elastic);
        // Checkpoints stay unarmed without a ShardFail in the plan.
        assert_eq!(r.elastic.checkpoints, 0);
    }

    #[test]
    fn barrier_defers_until_a_stalled_workers_eviction_fires() {
        // The race the `pending_worker_fail` gate closes: worker 2 leaves at
        // iteration 3, but a compute stall delays its *final* forward pass —
        // the event that fires the eviction — while the survivors sprint
        // ahead and satisfy the shrunken iteration-3 barriers first. Closing
        // those barriers before the WorkerFail epoch opens would put Barrier
        // ahead of MembershipChange in the trace, which the invariant
        // checker rejects (arrived != live). With the gate, the barriers
        // defer to `evict_worker`'s sweep and the run completes clean.
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.workers = 3;
        cfg.check_invariants = true;
        cfg.fault_plan = FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 2,
                at_iter: 3,
            },
            // The window sits over worker 2's final iteration (iterations
            // are ~192 ms apart in this cell): its iteration-2 pushes are
            // already on the wire, so the survivors' iteration-3 barriers
            // fill while the eviction trigger is still stalled. Without
            // the gate this panics the checker ("barrier for iter 3 after
            // 2/3 pushes").
            FaultSpec::WorkerStall {
                worker: 2,
                at: SimTime::ZERO + Duration::from_millis(480),
                dur: Duration::from_secs(1),
            },
        ]);
        let r = run_cluster(&cfg, 6);
        assert_eq!(r.iter_times.len(), 6);
        assert_eq!(r.elastic.evicted_workers, 1);
    }

    #[test]
    fn worker_join_admits_at_its_iteration_and_finishes() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerJoin {
            worker: 2,
            at_iter: 2,
        }]);
        let r = run_cluster(&cfg, 5);
        assert_eq!(r.iter_times.len(), 5);
        assert_eq!(r.elastic.joined_workers, 1);
        let model: u64 = cfg.job.sizes().iter().sum();
        assert_eq!(r.elastic.bootstrap_bytes, model);
    }

    #[test]
    fn shard_fail_rehomes_restores_and_finishes() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.ps_shards = 2;
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 1,
            at_iter: 2,
        }]);
        let r = run_cluster(&cfg, 6);
        assert_eq!(r.iter_times.len(), 6);
        assert_eq!(r.elastic.failed_shards, 1);
        assert!(
            r.elastic.restore_bytes > 0 && r.elastic.recovery_ns > 0,
            "{:?}",
            r.elastic
        );
        // Period 4 with the failure at iter 2: the surviving shard still
        // snapshots at iterations 3 (now owning everything).
        assert!(r.elastic.checkpoints >= 1, "{:?}", r.elastic);
    }

    #[test]
    fn shard_fail_reroutes_fail_fast_without_burning_the_backoff_schedule() {
        // The hazard delay_to() closes: re-routed messages backing off
        // against the dead shard would stall seconds per message. With
        // fail-fast the churn run must stay within a modest factor of the
        // fault-free run — far under a single 5 s ack timeout.
        let clean = run_cluster(
            &{
                let mut c = base(SchedulerKind::Fifo);
                c.ps_shards = 2;
                c
            },
            6,
        );
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.ps_shards = 2;
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 1,
            at_iter: 2,
        }]);
        let r = run_cluster(&cfg, 6);
        let slowdown = r.duration.saturating_since(clean.duration);
        assert!(
            slowdown < cfg.retry.timeout,
            "recovery cost {:?} at least one full ack timeout — fail-fast broken",
            slowdown
        );
    }

    #[test]
    fn churn_combo_holds_across_the_scheduler_lineup() {
        for kind in SchedulerKind::paper_lineup(1.25e9) {
            let label = kind.label();
            let mut cfg =
                ClusterConfig::paper_cell(3, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
            cfg.ps_shards = 2;
            cfg.fault_plan = FaultPlan::new(vec![
                FaultSpec::WorkerFail {
                    worker: 1,
                    at_iter: 4,
                },
                FaultSpec::ShardFail {
                    shard: 0,
                    at_iter: 2,
                },
                FaultSpec::WorkerJoin {
                    worker: 3,
                    at_iter: 3,
                },
            ]);
            let r = run_cluster(&cfg, 6);
            assert_eq!(r.iter_times.len(), 6, "{label}");
            assert_eq!(r.elastic.epochs, 3, "{label}: {:?}", r.elastic);
            assert_eq!(
                (
                    r.elastic.evicted_workers,
                    r.elastic.failed_shards,
                    r.elastic.joined_workers
                ),
                (1, 1, 1),
                "{label}"
            );
        }
    }

    #[test]
    fn permanent_plans_are_deterministic() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.workers = 3;
        cfg.ps_shards = 2;
        cfg.fault_plan = FaultPlan::new(vec![
            FaultSpec::ShardFail {
                shard: 1,
                at_iter: 2,
            },
            FaultSpec::WorkerFail {
                worker: 2,
                at_iter: 3,
            },
        ]);
        let a = run_cluster(&cfg, 5);
        let b = run_cluster(&cfg, 5);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.iter_times, b.iter_times);
        assert_eq!(a.elastic, b.elastic);
    }

    #[test]
    fn elastic_runs_emit_shard_spans_and_membership_trace() {
        let mut cfg = base(SchedulerKind::Fifo);
        cfg.ps_shards = 2;
        cfg.typed_trace = true;
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 0,
            at_iter: 2,
        }]);
        let r = run_cluster(&cfg, 4);
        assert!(!r.shard_spans.is_empty());
        // After the failure every span must sit on the surviving shard.
        let fail_iter_spans: Vec<_> = r.shard_spans.iter().filter(|s| s.iter >= 2).collect();
        assert!(!fail_iter_spans.is_empty());
        assert!(
            fail_iter_spans.iter().all(|s| s.shard == 1),
            "spans on the dead shard after its failure"
        );
    }
}
