//! The threaded BSP runtime: worker threads + sharded PS + link emulation.
//!
//! # Sharded, zero-copy data path
//!
//! The parameter tensors are partitioned across `ps_shards` PS threads by a
//! contiguous, size-balanced [`ShardMap`]; each shard owns its own
//! aggregation state, optimiser slice, crash schedule, and epoch, and every
//! worker holds one channel per shard. The hot path allocates nothing in
//! steady state:
//!
//! * a worker's backward stores each layer's gradients straight into **one
//!   pooled push buffer per layer**, little-endian and checksummed as they
//!   are written — there is no separate gradient buffer or encode pass —
//!   and every push payload, original or retransmission, is a zero-copy
//!   [`Bytes`] slice into it, recycled next iteration ([`super::pool`]);
//! * a shard stages incoming slices **as the wire bytes themselves** and
//!   closes a barrier in one blocked pass ([`super::fold`]): fold in fixed
//!   worker order (so results stay bit-identical to the single-shard and
//!   single-process runs), mean, optimiser step and pull re-encode per
//!   block;
//! * push acks coalesce into one [`ToWorker::PushAcks`] batch per
//!   (worker, inbox drain);
//! * pull replies are encoded once per parameter update and served as
//!   shared slices of that one buffer to every worker.
//!
//! # Fault parity with the discrete-event cluster
//!
//! The same [`FaultPlan`] type that drives the simulator's fault layer
//! drives this runtime, with fault times interpreted as **real-time offsets
//! from run start** and node `s < ps_shards` meaning PS shard `s`, node
//! `ps_shards + w` meaning worker `w`. What an arrival, a barrier, a retry
//! and a crash *mean* is [`crate::protocol`]'s (`Barriers` on each shard,
//! a `Worker` core with its `Outbox` on each worker — the rules the
//! simulator runs); this file keeps the effects:
//!
//! * `ShardCrash` — the named shard wipes its barrier ledger and staged
//!   payloads at the scheduled instant (parameters and optimiser state
//!   persist, like a durable store), sleeps out `restart_after`, bumps its
//!   epoch, and broadcasts [`ToWorker::ShardRestarted`]. Other shards keep
//!   serving.
//! * `MsgLoss` — a push drawn lost (per-worker substream of the plan seed)
//!   pays the link but never reaches its shard. Shards ack every accepted
//!   slice (batched into [`ToWorker::PushAcks`]); a slice whose ack misses
//!   the [`RetryPolicy`] timeout is re-sent, its next deadline stretched by
//!   the exponential backoff.
//! * `WorkerStall` — the worker sleeps through the scheduled window before
//!   its compute phase.
//! * `LinkDegrade` — the [`Link`] emulator scales its drain rate by the
//!   window's factor (no-op when `link_bps` is `None`: an unlimited link
//!   stays unlimited).
//! * `LinkDown` — the link emulator holds every send charged during the
//!   outage window until it closes. (The simulator instead kills in-flight
//!   flows and replays them; freezing is the threaded approximation — same
//!   bytes, no mid-message kill.)
//!
//! Only `ShardCrash` and `WorkerStall` emit `FaultStart`/`FaultEnd` trace
//! events here (they have one unambiguous owner thread); link and loss
//! windows act silently through the link and the doom draws.
//!
//! # Overlapping a worker's compute with its link
//!
//! Backward runs one layer at a time ([`Mlp::backward_step`]): a layer's
//! gradients are stored into their push frame, released to the scheduler
//! and pushed while the layers below it are still being differentiated —
//! the stepwise release pattern the simulator and Prophet's profiler
//! assume. Sends are paid ahead, not slept on: a send charges its bytes to
//! the worker's [`Link`] and is handed over when due, and the worker
//! computes in between, blocking only when it has nothing else to do. A
//! pull is charged when it is requested, and the next pull task is
//! requested before the current one is applied, so the link carries one
//! while the worker applies the other.
//!
//! # Tracing without a global lock
//!
//! Each thread appends trace events to its **own** buffer, stamped with a
//! ticket from one shared atomic counter. Causality flows through channel
//! sends, and atomic read-modify-writes on one counter are totally ordered
//! consistently with happens-before, so sorting the merged buffers by
//! ticket at join reproduces exactly the causal total order the old
//! single-mutex log produced — with zero lock traffic on the hot path.

use super::checkpoint::{DurableCopy, DurableStore, OptState};
use super::fold::{self, StagedSlice};
use super::pool::ArenaPool;
use super::wire::{
    acks_checksum, check_push, crc32, encode_f32_into_crc, fused_crc_apply, FrameHeader,
    FrameWriter, PushCheck, ToPs, ToWorker,
};
use crate::protocol::{
    Arrival, Barriers, CheckpointSchedule, Membership, Slice, Step, Window, Windows, Worker,
};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use prophet_core::{CommScheduler, Dir, SchedulerKind, ShardMap, TransferTask};
use prophet_minidnn::{Dataset, GradSink, Mlp};
use prophet_net::RetryPolicy;
use prophet_sim::{
    Duration as SimDuration, FaultKind, FaultPlan, InvariantChecker, SimTime, TraceEvent,
    TraceSink, Xoshiro256StarStar,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};

/// Which optimiser the PS runs (each shard owns the optimiser state for
/// its tensors, like MXNet's KVStore).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PsOptimizer {
    /// SGD with classical momentum.
    Sgd {
        /// Momentum coefficient μ (0 = plain SGD).
        momentum: f32,
    },
    /// Adam with canonical β/ε defaults.
    Adam,
}

/// Std-dev of the Gaussian blobs ([`Dataset::blobs`]) every threaded run
/// trains on.
pub const DATASET_NOISE: f64 = 0.8;

/// Configuration of a threaded training run.
#[derive(Clone)]
pub struct ThreadedConfig {
    /// Worker threads.
    pub workers: usize,
    /// PS shard threads the parameter tensors are partitioned across
    /// (contiguous, size-balanced; clamped to the tensor count for tiny
    /// models). `1` reproduces the classic single-PS topology.
    pub ps_shards: usize,
    /// MLP layer widths, input first, classes last.
    pub widths: Vec<usize>,
    /// Dataset size; features/classes come from `widths`, the blob noise is
    /// [`DATASET_NOISE`].
    pub samples: usize,
    /// Dataset/model seed (single seed keeps runs reproducible).
    pub seed: u64,
    /// Global batch per iteration, split evenly across workers. Must be a
    /// multiple of `workers` (keeps shard means exactly averageable).
    pub global_batch: usize,
    /// BSP iterations to run.
    pub iterations: u64,
    /// Learning rate.
    pub lr: f32,
    /// PS-side optimiser (lives on the PS, like MXNet's KVStore optimiser).
    pub optimizer: PsOptimizer,
    /// The communication strategy each worker runs.
    pub scheduler: SchedulerKind,
    /// Emulated per-worker link bandwidth, bytes/sec (`None` = unlimited).
    pub link_bps: Option<f64>,
    /// Collect the typed event stream and run the cross-stack
    /// [`InvariantChecker`] over it after the run (panics on violation).
    pub check_invariants: bool,
    /// Fault schedule, sharing the simulator's [`FaultPlan`] type. Times
    /// are real-time offsets from run start; node `s < ps_shards` is PS
    /// shard `s`, node `ps_shards + w` is worker `w`. An empty plan leaves
    /// every fault path dormant. How the plan is read — which windows are
    /// active, who is a member of which iteration, which checkpoint
    /// generation a restore starts from — is [`crate::protocol`]'s, the
    /// same rules the simulator runs; `ShardCrash` is the one crash path.
    pub fault_plan: FaultPlan,
    /// Ack-timeout/backoff policy for push slices whose ack never arrives
    /// (only consulted when the plan is non-empty).
    pub retry: RetryPolicy,
    /// Checkpoint cadence in iterations: each shard snapshots its tensors
    /// into the durable store after iterations `period-1, 2·period-1, …`
    /// ([`crate::protocol::CheckpointSchedule`]).
    /// Only consulted when the fault plan kills a shard permanently (the
    /// store stays dormant otherwise — see [`FaultPlan::has_shard_fail`]).
    pub checkpoint_period: u64,
    /// Verified snapshot generations the durable store retains per tensor
    /// (its GC horizon). A `CheckpointCorrupt` fault can poison the newest
    /// generation, so restores fall back to older ones; GC keeps the last
    /// `checkpoint_retention` — never collecting the only intact one — and
    /// collects the rest ([`crate::protocol::GenChain`]). Must be ≥ 1.
    pub checkpoint_retention: usize,
}

impl ThreadedConfig {
    /// A small default problem that trains in well under a second.
    pub fn small(workers: usize, scheduler: SchedulerKind) -> Self {
        ThreadedConfig {
            workers,
            ps_shards: 1,
            widths: vec![8, 24, 4],
            samples: 256,
            seed: 77,
            global_batch: 64,
            iterations: 20,
            lr: 0.1,
            optimizer: PsOptimizer::Sgd { momentum: 0.9 },
            scheduler,
            link_bps: None,
            check_invariants: true,
            fault_plan: FaultPlan::empty(),
            retry: RetryPolicy::paper_default(),
            checkpoint_period: 4,
            checkpoint_retention: 2,
        }
    }
}

/// What a threaded run produces.
#[derive(Debug, Clone)]
pub struct ThreadedResult {
    /// Mean worker loss per iteration.
    pub losses: Vec<f32>,
    /// Final parameters, one vec per tensor (PS copy, global tensor order).
    pub final_params: Vec<Vec<f32>>,
    /// Training-set accuracy of the final model.
    pub accuracy: f64,
    /// Total gradient payload pushed by all workers, bytes (including any
    /// crash-recovery or loss-recovery retransmissions).
    pub bytes_pushed: u64,
    /// Real wall-clock time of the run.
    pub wall: std::time::Duration,
    /// Typed events validated by the invariant checker (0 when
    /// [`ThreadedConfig::check_invariants`] is off).
    pub events_checked: u64,
    /// `RetryAttempt` events in the run's event log — gradients re-pushed
    /// after an injected shard restart or a lost-message ack timeout.
    pub retries: u64,
    /// Push messages eaten by `MsgLoss` windows (they paid the link but
    /// never reached a shard).
    pub messages_lost: u64,
    /// Wire buffers served by a fresh heap allocation, summed over every
    /// worker's per-layer gradient pools and every shard pull cache (one
    /// per worker per layer, plus one per tensor). Flat in the iteration
    /// count when the zero-copy recycling works (the steady-state hot path
    /// allocates nothing); see [`ThreadedResult::arena_recycles`].
    pub arena_allocs: u64,
    /// Wire buffers served from recycled storage. Scales with iterations
    /// in steady state.
    pub arena_recycles: u64,
    /// [`ToWorker::PushAcks`] batches flushed by all shards (each batch
    /// acknowledges every slice accepted from one worker since the last
    /// flush).
    pub ack_batches: u64,
    /// Membership epochs opened during the run (evictions + permanent
    /// shard failures + admissions). Zero when the plan has no permanent
    /// events.
    pub membership_epochs: u64,
    /// Bytes read back from the durable store (snapshot + ledger replay)
    /// to re-home tensors off permanently failed shards.
    pub restore_bytes: u64,
    /// Frames rejected by a receiver's verify: CRC/length mismatches on
    /// push, pull, and ack frames, summed across workers and shards
    /// (`PayloadCorrupt` detections).
    pub corrupt_frames_detected: u64,
    /// Push slices quarantined by the shards' NaN/Inf gradient guard (the
    /// payload passed its CRC but carried non-finite values).
    pub nan_quarantined: u64,
    /// Payload bytes retransmitted in response to [`ToWorker::PushNack`]
    /// (targeted per-slice retransmits, re-sliced from the clean buffer).
    pub nack_retransmit_bytes: u64,
    /// Restores that fell back past ≥ 1 corrupted snapshot generation.
    pub restore_fallbacks: u64,
    /// Total corrupted generations skipped across all fallback restores.
    pub fallback_depth: u64,
    /// Per-shard hot-path attribution, indexed by shard id. Always
    /// collected: the spans are a handful of monotonic-clock reads per
    /// message against iterations that move megabytes.
    pub shard_phases: Vec<ShardPhases>,
    /// Worker-side attribution, summed across all worker threads.
    pub worker_phases: WorkerPhases,
}

/// Where one PS shard's serve loop spent its time, in nanoseconds summed
/// over the run. The spans partition the loop body (plus `idle_ns` for
/// blocked receives), so regressions show up as a shifted profile rather
/// than a bare wall-clock delta — every perf claim in DESIGN.md §15 is
/// backed by these counters as emitted into `BENCH_threaded.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPhases {
    /// Receive-time frame verify + NaN/Inf guard on push payloads (zero
    /// when verification is deferred to the barrier fold).
    pub verify_ns: u64,
    /// Barrier pass, fold stage: staged wire slices → the mean-gradient
    /// block, including the streamed CRC check and the mean scaling.
    pub accumulate_ns: u64,
    /// Barrier pass, optimiser stage: the step of each block, plus its
    /// durable-ledger copy when the store is armed.
    pub optimizer_ns: u64,
    /// Pull-frame encode + frame checksum: the barrier pass's encode stage,
    /// cold encodes, and serving windows of the cached frame.
    pub encode_ns: u64,
    /// Ack-batch assembly and flush.
    pub ack_ns: u64,
    /// Barrier-completion scans (one per `Leave` notice).
    pub sweep_ns: u64,
    /// Blocked in `recv` with an empty inbox, or waiting for the
    /// cache-residency gate before a large fold or encode.
    pub idle_ns: u64,
    /// Barriers closed.
    pub barriers: u64,
    /// Messages served.
    pub msgs: u64,
    /// Bytes the barrier fold walked: every staged payload byte, once. The
    /// mean-gradient block it folds into stays in L1 and is not counted.
    pub fold_bytes: u64,
    /// Bytes the optimiser step walked: the parameters and every
    /// per-parameter state vector, each read and written once.
    pub optimizer_bytes: u64,
    /// Bytes the pull-frame encode walked: the frame written (the barrier
    /// pass reads the parameters it just stepped, still in L1), plus the
    /// parameters read by a cold encode.
    pub encode_bytes: u64,
}

/// Where the worker threads spent their time, summed across workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerPhases {
    /// Forward/backward compute (incl. batch assembly), which stores each
    /// gradient straight into its push frame.
    pub compute_ns: u64,
    /// Push-frame bookkeeping around the backward steps: buffer checkout,
    /// closing the last tensor's checksum, freezing the frame.
    pub encode_ns: u64,
    /// Pull-reply verify + apply into parameter storage.
    pub apply_ns: u64,
    /// Blocked waiting on PS messages with nothing left to come due and
    /// nothing left to drain on the link (sleeping out a send's due
    /// instant is the link's time, not a wait), or waiting for the
    /// cache-residency gate before compute or a large apply.
    pub wait_ns: u64,
    /// Gradient bytes the backward pass walked: each gradient written
    /// once, into its push frame (rows are built in an L1 scratch row).
    pub store_bytes: u64,
    /// Bytes the push-frame checksum read: each gradient once.
    pub encode_bytes: u64,
    /// Bytes the pull apply walked: the reply payload read and the
    /// parameters written.
    pub apply_bytes: u64,
}

/// How far a message may run ahead of its link: a send is due once no
/// more than this much of the link's charged time is left to drain.
const BURST_NS: u64 = 200_000;

/// One worker's emulated link, a token bucket paid ahead instead of slept
/// on. A send *charges* its bytes and is handed over when it is *due*: the
/// instant a sender blocking on the bucket would have been let go. Pushes
/// and pulls share the one budget, as they share a NIC. The plan's link
/// windows freeze it (`LinkDown`) or scale its drain rate (`LinkDegrade`).
struct Link {
    bps: Option<f64>,
    /// When everything charged so far has drained (ns since run start). A
    /// charge drains from `max(free_at, then)`: idle time is never banked.
    free_at: u64,
    /// When the latest charge fell due. The next one is priced as of then
    /// at the earliest — when a blocking sender would have made it.
    due: u64,
    windows: Arc<Windows>,
    /// The nodes whose link windows hit this sender: its own, plus every
    /// PS shard's, whose links all of the worker's transfers traverse.
    nodes: Vec<usize>,
}

impl Link {
    /// The link of worker `w` in a `shards`-shard topology.
    fn new(bps: Option<f64>, windows: Arc<Windows>, w: usize, shards: usize) -> Self {
        Link {
            bps,
            free_at: 0,
            due: 0,
            windows,
            nodes: (0..shards).chain([shards + w]).collect(),
        }
    }

    /// Charge `bytes` sent at `now` and return when the message is due
    /// (both ns since run start).
    fn charge(&mut self, bytes: u64, now: u64) -> u64 {
        // An unlimited link with no fault windows has nothing to meter;
        // this is every send on the fault-free unthrottled hot path.
        if self.bps.is_none() && self.windows.is_empty() {
            return now;
        }
        let mut at = now.max(self.due);
        // Freeze through any active outage window, even on an unlimited
        // link (an outage is absolute).
        while let Some(end) = self
            .windows
            .active_until(FaultKind::LinkDown, &self.nodes, at)
        {
            at = end;
        }
        if let Some(bps) = self.bps {
            // Degrade windows scale the drain rate; the factor at charge
            // time prices the whole message (windows are not integrated
            // across).
            let factor = self
                .windows
                .worst_at(FaultKind::LinkDegrade, &self.nodes, at)
                .unwrap_or(1.0);
            let cost = (bytes as f64 / (bps * factor) * 1e9) as u64;
            self.free_at = self.free_at.max(at) + cost;
            at = at.max(self.free_at.saturating_sub(BURST_NS));
        }
        self.due = at;
        at
    }

    /// When everything charged so far is due and drained: a sender blocked
    /// before then is waiting on its link, not on its peers.
    fn busy_until(&self) -> u64 {
        self.due.max(self.free_at)
    }
}

/// Nanoseconds since run start — the clock [`Windows`] is ticked with.
fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn now_since(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// One trace event with its global causal ticket and wall-clock timestamp.
type TimedEvent = (u64, SimTime, TraceEvent);

/// Factory for per-thread trace buffers sharing one ticket counter.
#[derive(Clone)]
struct EventLog {
    seq: Option<Arc<AtomicU64>>,
    epoch: Instant,
}

impl EventLog {
    fn new(enabled: bool, epoch: Instant) -> Self {
        EventLog {
            seq: enabled.then(|| Arc::new(AtomicU64::new(0))),
            epoch,
        }
    }

    fn thread_log(&self) -> ThreadLog {
        ThreadLog {
            seq: self.seq.clone(),
            epoch: self.epoch,
            events: Vec::new(),
        }
    }
}

/// A thread-private trace buffer. `emit` takes a ticket from the shared
/// counter (a relaxed fetch-add: RMWs on one atomic are totally ordered
/// consistently with the happens-before edges the channels create) and
/// appends locally — no lock, no contention. Buffers are merged and
/// ticket-sorted at join.
struct ThreadLog {
    seq: Option<Arc<AtomicU64>>,
    epoch: Instant,
    events: Vec<TimedEvent>,
}

impl ThreadLog {
    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        let Some(seq) = &self.seq else { return };
        let ticket = seq.fetch_add(1, Ordering::Relaxed);
        self.events.push((ticket, now_since(self.epoch), ev));
    }

    fn into_events(self) -> Vec<TimedEvent> {
        self.events
    }
}

/// Merge per-thread buffers into ticket order, replay through the invariant
/// checker, and return `(events_checked, retries)`. Ticket order is the
/// causal total order; a timestamp that reads behind its ticket
/// predecessor (two threads racing between ticket draw and clock read —
/// only possible for causally unrelated events) is bumped to stay
/// nondecreasing.
fn check_events(
    mut events: Vec<TimedEvent>,
    workers: usize,
    joiners: usize,
    owner: &[usize],
) -> (u64, u64) {
    events.sort_unstable_by_key(|&(ticket, _, _)| ticket);
    let mut checker = InvariantChecker::new(workers, true)
        .with_joiners(joiners)
        .with_shard_map(owner.to_vec());
    let mut last = SimTime::ZERO;
    let mut retries = 0u64;
    for (_, t, ev) in &events {
        let at = if *t <= last {
            last + SimDuration::from_nanos(1)
        } else {
            *t
        };
        last = at;
        if matches!(ev, TraceEvent::RetryAttempt { .. }) {
            retries += 1;
        }
        checker.on_event(at, ev);
    }
    checker.finish();
    (checker.events_seen(), retries)
}

// ---------------------------------------------------------------------------
// Elastic membership
// ---------------------------------------------------------------------------

/// The cluster-wide membership epoch counter. Every permanent change —
/// eviction, shard death, admission — opens the next epoch by calling
/// [`MembershipClock::open`], which increments the counter and emits the
/// [`TraceEvent::MembershipChange`] *while holding the lock*, so the trace
/// tickets of membership changes are drawn in epoch order and the checker's
/// "epochs advance exactly +1" rule holds no matter which threads race.
struct MembershipClock {
    epoch: Mutex<u64>,
}

impl MembershipClock {
    fn new() -> Self {
        MembershipClock {
            epoch: Mutex::new(0),
        }
    }

    /// Open the next membership epoch for a permanent change at `node`
    /// effective from iteration `iter`, and emit its trace event.
    fn open(&self, tlog: &mut ThreadLog, kind: FaultKind, node: usize, iter: u64) {
        let mut e = self.epoch.lock().unwrap();
        *e += 1;
        tlog.emit(TraceEvent::MembershipChange {
            epoch: *e,
            kind,
            node,
            iter,
        });
    }

    fn epochs_opened(&self) -> u64 {
        *self.epoch.lock().unwrap()
    }
}

/// A worker's sending side: its gradient payloads, the link they are
/// charged to, the loss and corruption draws every push makes, and the
/// [`Worker`] core whose outbox's tracked sends drive retransmissions.
struct Uplink {
    /// Whether any fault machinery is live (empty plan = all paths dormant,
    /// and the worker blocks on `recv` exactly as the fault-free build).
    active: bool,
    windows: Arc<Windows>,
    link: Link,
    /// Pushes charged to the link and not yet handed over, in charge order
    /// (which is due order).
    queue: VecDeque<Queued>,
    /// This iteration's gradient frames, one frozen buffer per backward
    /// step (last layer first), each from its own pool so steady state
    /// reuses one allocation per layer. Push payloads — originals and
    /// retransmissions alike — are zero-copy windows into them.
    bufs: Vec<Option<Bytes>>,
    pools: Vec<ArenaPool>,
    /// `(backward step, byte offset in its buffer)` of every tensor.
    grad_at: Vec<(usize, usize)>,
    /// Whole-tensor payload CRC of every tensor, streamed during its
    /// encode — a whole-tensor push (the common case) frames without
    /// re-reading its payload.
    grad_crc: Vec<u32>,
    /// Loss doom draws.
    rng: Xoshiro256StarStar,
    corrupt: CorruptInjector,
    /// Tampered in-flight copies come from their own pool so the gradient
    /// pools' counters stay an exact function of the fault-free data path
    /// (mirrors the shard-side `tamper_pool`; dormant without corruption).
    tamper_pool: ArenaPool,
    retry: RetryPolicy,
    /// This iteration's issued and landed elements, first-byte stamps and
    /// retry episodes.
    core: Worker,
    messages_lost: u64,
    bytes_pushed: u64,
}

/// A backward step's push frame while the backward writes it: each
/// gradient row lands in the step's pooled buffer as it is finished —
/// little-endian, written once — and each tensor's whole-payload frame
/// checksum streams from the same bytes while they are L1-hot. No gradient
/// buffer exists besides the frame.
struct StepFrame<'a> {
    up: &'a mut Uplink,
    buf: BytesMut,
    writer: FrameWriter,
    /// The tensor being stored.
    open: Option<usize>,
    step: usize,
}

impl StepFrame<'_> {
    /// Close the open tensor's checksum.
    fn close(&mut self) {
        if let Some(g) = self.open.take() {
            self.up.grad_crc[g] = self.writer.finish(&mut self.buf);
        }
    }

    /// Freeze the frame: push payloads are windows of it from now on.
    fn seal(mut self) {
        self.close();
        self.up.bufs[self.step] = Some(self.buf.freeze());
    }
}

impl GradSink for StepFrame<'_> {
    fn store(&mut self, id: usize, vals: &[f32]) {
        if self.open != Some(id) {
            self.close();
            self.up.grad_at[id] = (self.step, self.buf.len());
            self.open = Some(id);
        }
        self.writer.push(vals, &mut self.buf);
    }
}

/// One push slice charged to the link, awaiting its hand-over.
struct Queued {
    due: u64,
    grad: usize,
    offset_elems: usize,
    len_elems: usize,
    /// Extra ack-timeout slack (a retransmission's backoff).
    stretch: SimDuration,
    /// The scheduler task this slice completes, reported done at its
    /// hand-over.
    task: Option<TransferTask>,
}

impl Uplink {
    /// The uplink of worker `w` in a `shards`-shard topology, for a model
    /// of tensors of `tensor_elems` elements, differentiated one layer per
    /// backward step.
    fn new(
        w: usize,
        shards: usize,
        cfg: &ThreadedConfig,
        windows: Arc<Windows>,
        tensor_elems: &[usize],
    ) -> Self {
        let plan = &cfg.fault_plan;
        let (tensors, steps) = (tensor_elems.len(), cfg.widths.len() - 1);
        Uplink {
            active: !plan.is_empty(),
            link: Link::new(cfg.link_bps, Arc::clone(&windows), w, shards),
            queue: VecDeque::new(),
            bufs: vec![None; steps],
            pools: (0..steps).map(|_| ArenaPool::new()).collect(),
            grad_at: vec![(0, 0); tensors],
            grad_crc: vec![0; tensors],
            // Loss draws come from a per-worker substream of the *plan*
            // seed, so two workers never share a doom sequence.
            rng: Xoshiro256StarStar::new(plan.seed ^ 0x7EA1_FA17).substream(w as u64),
            corrupt: CorruptInjector::new(plan, Arc::clone(&windows), (shards + w) as u64),
            tamper_pool: ArenaPool::new(),
            windows,
            retry: cfg.retry,
            core: Worker::new(tensor_elems.iter().map(|&e| e as u64).collect()),
            messages_lost: 0,
            bytes_pushed: 0,
        }
    }

    /// Return the previous iteration's gradient buffers to their pools:
    /// its barriers released every staged window of them.
    fn recycle(&mut self) {
        debug_assert!(self.queue.is_empty(), "a push outlived its iteration");
        for (pool, buf) in self.pools.iter_mut().zip(&mut self.bufs) {
            if let Some(b) = buf.take() {
                pool.recycle(b);
            }
        }
    }

    /// Open backward step `step`'s push frame, `bytes` long: the step's
    /// pooled buffer, for the backward to store its gradients into.
    fn frame(&mut self, step: usize, bytes: usize) -> StepFrame<'_> {
        StepFrame {
            buf: self.pools[step].checkout(bytes),
            writer: FrameWriter::new(),
            open: None,
            step,
            up: self,
        }
    }

    /// Charge one push slice to the link and queue it for hand-over.
    fn charge_push(
        &mut self,
        now: u64,
        grad: usize,
        offset_elems: usize,
        len_elems: usize,
        stretch: SimDuration,
    ) {
        let due = self.link.charge((len_elems * 4) as u64, now);
        self.queue.push_back(Queued {
            due,
            grad,
            offset_elems,
            len_elems,
            stretch,
            task: None,
        });
    }

    /// Hand one charged slice over: draw its fate against the loss and
    /// corruption windows, transmit it (unless lost) to the current
    /// incarnation of its shard, and track it in the outbox with an ack
    /// deadline `stretch` past the policy's timeout, counted from now. The
    /// *set* of damaged messages depends on real-time scheduling (windows
    /// are wall-clock); what is computed stays bit-identical because every
    /// failure is retried and aggregation is order-independent per worker.
    fn hand_over(&mut self, ctx: &IterCtx<'_>, q: &Queued) {
        let (grad, offset_elems, len_elems) = (q.grad, q.offset_elems, q.len_elems);
        self.bytes_pushed += (len_elems * 4) as u64;
        let shard = ctx.owner[grad];
        let slice = Slice {
            iter: ctx.iter,
            tensor: grad,
            offset: offset_elems as u64,
            len: len_elems as u64,
            epoch: ctx.ps_epochs[shard].get(),
        };
        let now = ns_since(ctx.epoch);
        let fate = self.windows.send_fate(now, |kind| match kind {
            FaultKind::MsgLoss => self.rng.next_f64(),
            _ => self.corrupt.rng.next_f64(),
        });
        if fate == Some(FaultKind::MsgLoss) {
            self.messages_lost += 1;
        } else {
            let (step, at) = self.grad_at[grad];
            let lo = at + offset_elems * 4;
            let buf = self.bufs[step]
                .as_ref()
                .expect("push before its layer's backward");
            let clean = buf.slice(lo..lo + len_elems * 4);
            // Damage lands on a pooled copy: the clean window stays
            // pristine for any later retransmission.
            let (data, frame) = if fate.is_some() {
                let style = self.corrupt.style(true);
                self.corrupt.tamper(style, &clean, &mut self.tamper_pool)
            } else if offset_elems == 0 && len_elems == ctx.tensor_elems[grad] {
                let (len, crc) = ((len_elems * 4) as u32, self.grad_crc[grad]);
                (clean, FrameHeader { len, crc })
            } else {
                let frame = FrameHeader::for_payload(&clean);
                (clean, frame)
            };
            let worker = ctx.w;
            let push = ToPs::Push {
                worker,
                slice,
                data,
                frame,
            };
            ctx.txs[shard].send(push).expect("ps shard hung up");
        }
        if self.active {
            let deadline = now + (self.retry.timeout + q.stretch).as_nanos();
            self.core.outbox.sent(slice, deadline);
        }
    }

    /// When the next charged push falls due.
    fn next_due(&self) -> Option<u64> {
        self.queue.front().map(|q| q.due)
    }

    /// The next charged push, if it is due by `now`.
    fn take_due(&mut self, now: u64) -> Option<Queued> {
        if self.next_due()? <= now {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Sleep out any `WorkerStall` window covering this instant (chained:
    /// sleeping into an overlapping later window extends the stall).
    /// `node` is this worker's trace node id (`shards + w`).
    fn stall_if_scheduled(&self, node: usize, start: Instant, log: &mut ThreadLog) {
        let mut stalled = false;
        loop {
            let now_ns = ns_since(start);
            let stall = self
                .windows
                .active_until(FaultKind::WorkerStall, &[node], now_ns);
            let Some(end_ns) = stall else { break };
            if !stalled {
                stalled = true;
                log.emit(TraceEvent::FaultStart {
                    kind: FaultKind::WorkerStall,
                    node,
                });
            }
            std::thread::sleep(StdDuration::from_nanos(end_ns - now_ns));
        }
        if stalled {
            log.emit(TraceEvent::FaultEnd {
                kind: FaultKind::WorkerStall,
                node,
            });
        }
    }
}

/// Styles of in-flight damage the corruption injector inflicts.
#[derive(Clone, Copy)]
enum Tamper {
    /// Flip one bit of one payload byte — caught by the CRC verify.
    BitFlip,
    /// Drop the last four bytes — caught by the length check.
    Truncate,
    /// Overwrite one `f32` with NaN and re-frame over the tampered bytes:
    /// models corruption *before* checksumming (bad DMA, bad host RAM),
    /// which only the shard's NaN/Inf gradient guard can catch.
    NanPoison,
}

/// Per-node corruption injector. Draws against the plan's `PayloadCorrupt`
/// windows whether an outgoing data frame is damaged in flight and applies
/// the damage to a pooled *copy*, leaving the clean source bytes untouched
/// — a NACKed slice retransmits bit-exactly from the original buffer window.
///
/// Like the loss doom draws, corruption draws come from a dedicated
/// substream of the plan seed (tagged by topology node), so adding a
/// corruption window never perturbs any other random stream.
struct CorruptInjector {
    windows: Arc<Windows>,
    rng: Xoshiro256StarStar,
}

impl CorruptInjector {
    fn new(plan: &FaultPlan, windows: Arc<Windows>, node: u64) -> Self {
        CorruptInjector {
            windows,
            rng: Xoshiro256StarStar::new(plan.seed ^ 0xB17F_11B5).substream(node),
        }
    }

    /// Bernoulli corruption draw for a data frame sent now, and the style
    /// of damage if drawn (pull replies and ack batches; a push draws its
    /// whole fate through [`Windows::send_fate`]).
    fn draw(&mut self, start: Instant, nan_ok: bool) -> Option<Tamper> {
        let hit = self
            .windows
            .hit(FaultKind::PayloadCorrupt, ns_since(start), || {
                self.rng.next_f64()
            });
        hit.then(|| self.style(nan_ok))
    }

    /// Draw the style of damage for a frame the corruption window hit.
    /// `nan_ok` admits [`Tamper::NanPoison`]: NaN poisoning models a
    /// gradient-value hazard, so only push payloads draw it — pulls and
    /// acks damage the frame, never the semantics.
    fn style(&mut self, nan_ok: bool) -> Tamper {
        let styles: &[Tamper] = if nan_ok {
            &[Tamper::BitFlip, Tamper::Truncate, Tamper::NanPoison]
        } else {
            &[Tamper::BitFlip, Tamper::Truncate]
        };
        styles[(self.rng.next_u64() % styles.len() as u64) as usize]
    }

    /// Damage a pooled copy of `clean` per `style`, returning the wire
    /// bytes to send and the frame header the receiver will verify them
    /// against. For flips and truncation the header describes the clean
    /// payload (in-flight damage: the receiver's verify fails); for NaN
    /// poison it is recomputed over the tampered bytes (pre-checksum
    /// damage: the CRC passes and only the NaN guard can object).
    fn tamper(
        &mut self,
        style: Tamper,
        clean: &Bytes,
        pool: &mut ArenaPool,
    ) -> (Bytes, FrameHeader) {
        let frame = FrameHeader::for_payload(clean);
        let mut copy = pool.checkout_from(clean);
        if copy.is_empty() {
            return (copy.freeze(), frame);
        }
        match style {
            Tamper::BitFlip => {
                let i = (self.rng.next_u64() % copy.len() as u64) as usize;
                let bit = self.rng.next_u64() % 8;
                copy[i] ^= 1u8 << bit;
                (copy.freeze(), frame)
            }
            Tamper::Truncate => {
                let keep = copy.len().saturating_sub(4);
                copy.truncate(keep);
                (copy.freeze(), frame)
            }
            Tamper::NanPoison => {
                let slot = (self.rng.next_u64() % (copy.len() / 4) as u64) as usize * 4;
                copy[slot..slot + 4].copy_from_slice(&f32::NAN.to_le_bytes());
                let frame = FrameHeader::for_payload(&copy);
                (copy.freeze(), frame)
            }
        }
    }
}

/// What a worker thread hands back at join.
struct WorkerOut {
    /// Per-iteration losses for iterations `from..from + losses.len()`.
    losses: Vec<f32>,
    /// First iteration this worker participated in (0 unless a joiner).
    from: u64,
    bytes_pushed: u64,
    messages_lost: u64,
    events: Vec<TimedEvent>,
    arena_allocs: u64,
    arena_recycles: u64,
    /// Frames this worker rejected: corrupt pull payloads + corrupt ack
    /// batches.
    corrupt_frames: u64,
    /// Bytes retransmitted in response to shard NACKs.
    nack_bytes: u64,
    phases: WorkerPhases,
}

/// What a shard thread hands back at join.
struct ShardOut {
    /// `(tensor id, final parameters)` for every tensor this shard owns in
    /// the final membership epoch — adopted tensors included, tensors it
    /// lost to its own death excluded.
    params: Vec<(usize, Vec<f32>)>,
    events: Vec<TimedEvent>,
    pull_allocs: u64,
    pull_recycles: u64,
    ack_batches: u64,
    restore_bytes: u64,
    /// Push frames this shard rejected at the CRC/length verify.
    corrupt_frames: u64,
    /// Push frames this shard quarantined at the NaN/Inf guard.
    nan_quarantined: u64,
    /// Restores that fell back past a corrupted newest generation.
    restore_fallbacks: u64,
    /// Corrupted generations skipped across those fallbacks.
    fallback_depth: u64,
    phases: ShardPhases,
}

/// Run BSP data-parallel training per `cfg` and return the outcome.
///
/// Panics if `global_batch` is not a multiple of `workers` (unequal shards
/// would break the shard-mean ≡ batch-mean identity the PS relies on), or
/// if the fault plan references nodes outside the `ps_shards`/`workers`
/// topology.
pub fn run_threaded_training(cfg: &ThreadedConfig) -> ThreadedResult {
    assert!(cfg.workers >= 1);
    assert!(cfg.ps_shards >= 1, "need at least one PS shard");
    assert!(cfg.checkpoint_period >= 1, "checkpoint period must be >= 1");
    assert!(
        cfg.checkpoint_retention >= 1,
        "checkpoint retention must be >= 1"
    );
    assert!(
        cfg.global_batch % cfg.workers == 0,
        "global batch {} not divisible by {} workers",
        cfg.global_batch,
        cfg.workers
    );
    let features = *cfg.widths.first().expect("empty widths");
    let classes = *cfg.widths.last().expect("empty widths");
    let start = Instant::now();

    let dataset = Arc::new(Dataset::blobs(
        cfg.samples,
        features,
        classes,
        DATASET_NOISE,
        cfg.seed,
    ));
    // The one initialisation draw of the run (a Box–Muller per weight):
    // every worker starts from a copy of it, and it evaluates the result.
    let mut model = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
    let tensor_elems: Arc<Vec<usize>> = Arc::new(model.tensor_sizes());
    let sizes_bytes: Arc<Vec<u64>> = Arc::new(tensor_elems.iter().map(|&n| n as u64 * 4).collect());
    let n_tensors = tensor_elems.len();
    let map = Arc::new(ShardMap::balanced(&sizes_bytes, cfg.ps_shards));
    let shards = map.shards();
    cfg.fault_plan.validate(cfg.workers, shards);
    // One shared config per run: worker and shard threads borrow through
    // the Arc instead of deep-cloning scheduler/plan state per thread.
    let cfg = Arc::new(cfg.clone());

    // The membership timetable: who participates in which iteration and
    // who owns which tensor when — a pure function of the fault plan. A
    // dead shard's tensors re-home by load onto the survivors.
    let mut rebalanced = ShardMap::clone(&map);
    let mem = Arc::new(Membership::new(
        &cfg.fault_plan,
        cfg.workers,
        cfg.iterations,
        map.owner_table().to_vec(),
        |owner, _, dead| {
            rebalanced.rebalance_evict(dead);
            owner.copy_from_slice(rebalanced.owner_table());
        },
    ));
    let windows = Arc::new(Windows::new(&cfg.fault_plan, shards));
    let clock = Arc::new(MembershipClock::new());
    // Arm the durable store only when some shard actually dies mid-run;
    // otherwise every checkpoint/ledger call is a dormant no-op.
    let armed = !mem.shard_deaths().is_empty();
    // The durable store's initial snapshot is only materialised when a
    // shard death actually arms it.
    let store_init: Vec<Vec<f32>> = if armed {
        model.param_slices().iter().map(|s| s.to_vec()).collect()
    } else {
        Vec::new()
    };
    let store = Arc::new(DurableStore::new(
        armed,
        &store_init,
        cfg.optimizer,
        cfg.lr,
        cfg.checkpoint_retention,
    ));

    // Channels: one worker→shard channel per shard, one shard→worker
    // channel per worker (every shard holds a sender clone; joiners get a
    // channel like everyone else).
    let mut shard_txs: Vec<Sender<ToPs>> = Vec::new();
    let mut shard_rxs: Vec<Option<Receiver<ToPs>>> = Vec::new();
    for _ in 0..shards {
        let (tx, rx) = unbounded::<ToPs>();
        shard_txs.push(tx);
        shard_rxs.push(Some(rx));
    }
    let mut worker_txs: Vec<Sender<ToWorker>> = Vec::new();
    let mut worker_rxs: Vec<Option<Receiver<ToWorker>>> = Vec::new();
    for _ in 0..mem.total_workers() {
        let (tx, rx) = unbounded::<ToWorker>();
        worker_txs.push(tx);
        worker_rxs.push(Some(rx));
    }

    let log = EventLog::new(cfg.check_invariants, start);

    // One gate shared by every worker AND every shard: compute sections,
    // barrier folds, and pull encodes are all multi-megabyte walks, and on
    // an oversubscribed host any two of them time-slicing against each
    // other thrash the same cache.
    let gate = Arc::new(ComputeGate::new(
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));

    // ---- PS shard threads ------------------------------------------------
    let mut shard_handles = Vec::new();
    for (s, rx_slot) in shard_rxs.iter_mut().enumerate() {
        // Everything this shard will EVER own: initial members plus
        // tensors adopted at later membership epochs. Adopted slots start
        // empty and materialise from the durable store on first touch.
        let mut ever = Vec::new();
        let mut owned_from = Vec::new();
        let mut adopted_from = Vec::new();
        let mut init: Vec<Vec<f32>> = Vec::new();
        let owner_epochs = mem.owner_epochs();
        for g in 0..n_tensors {
            for (idx, &(k, table)) in owner_epochs.iter().enumerate() {
                if table[g] == s {
                    ever.push(g);
                    owned_from.push(k);
                    adopted_from.push(if idx == 0 {
                        usize::MAX
                    } else {
                        owner_epochs[idx - 1].1[g]
                    });
                    init.push(if idx == 0 {
                        model.param_slices()[g].to_vec()
                    } else {
                        Vec::new()
                    });
                    break;
                }
            }
        }
        let cfg = Arc::clone(&cfg);
        let mem = Arc::clone(&mem);
        let windows = Arc::clone(&windows);
        let clock = Arc::clone(&clock);
        let store = Arc::clone(&store);
        let tensor_elems = Arc::clone(&tensor_elems);
        let rx = rx_slot.take().unwrap();
        let worker_txs = worker_txs.clone();
        let tlog = log.thread_log();
        let gate = Arc::clone(&gate);
        shard_handles.push(std::thread::spawn(move || {
            ShardRt::new(
                s,
                &cfg,
                mem,
                windows,
                clock,
                store,
                ever,
                owned_from,
                adopted_from,
                tensor_elems,
                init,
                worker_txs,
                gate,
                start,
                tlog,
            )
            .run(rx)
        }));
    }
    drop(worker_txs); // shard threads hold the live sender clones

    // ---- worker threads ---------------------------------------------------
    let mut handles = Vec::new();
    for (w, rx_slot) in worker_rxs.iter_mut().enumerate() {
        let cfg = Arc::clone(&cfg);
        let dataset = Arc::clone(&dataset);
        let tensor_elems = Arc::clone(&tensor_elems);
        let sizes_bytes = Arc::clone(&sizes_bytes);
        let mem = Arc::clone(&mem);
        let windows = Arc::clone(&windows);
        let clock = Arc::clone(&clock);
        let gate = Arc::clone(&gate);
        let rx = rx_slot.take().unwrap();
        let txs = shard_txs.clone();
        let tlog = log.thread_log();
        let model = model.clone();
        handles.push(std::thread::spawn(move || {
            worker_thread(
                w,
                cfg,
                model,
                dataset,
                tensor_elems,
                sizes_bytes,
                mem,
                windows,
                clock,
                gate,
                txs,
                rx,
                start,
                tlog,
            )
        }));
    }
    drop(shard_txs); // shards see disconnect once every worker is done

    let mut losses_acc = vec![0.0f32; cfg.iterations as usize];
    let mut bytes_pushed = 0u64;
    let mut messages_lost = 0u64;
    let mut arena_allocs = 0u64;
    let mut arena_recycles = 0u64;
    let mut ack_batches = 0u64;
    let mut restore_bytes = 0u64;
    let mut corrupt_frames_detected = 0u64;
    let mut nan_quarantined = 0u64;
    let mut nack_retransmit_bytes = 0u64;
    let mut restore_fallbacks = 0u64;
    let mut fallback_depth = 0u64;
    let mut shard_phases: Vec<ShardPhases> = Vec::new();
    let mut worker_phases = WorkerPhases::default();
    let mut events: Vec<TimedEvent> = Vec::new();
    for h in handles {
        let out = h.join().expect("worker panicked");
        for (j, l) in out.losses.iter().enumerate() {
            let i = out.from + j as u64;
            losses_acc[i as usize] += l / mem.expected(i) as f32;
        }
        bytes_pushed += out.bytes_pushed;
        messages_lost += out.messages_lost;
        arena_allocs += out.arena_allocs;
        arena_recycles += out.arena_recycles;
        corrupt_frames_detected += out.corrupt_frames;
        nack_retransmit_bytes += out.nack_bytes;
        worker_phases.compute_ns += out.phases.compute_ns;
        worker_phases.encode_ns += out.phases.encode_ns;
        worker_phases.apply_ns += out.phases.apply_ns;
        worker_phases.wait_ns += out.phases.wait_ns;
        worker_phases.store_bytes += out.phases.store_bytes;
        worker_phases.encode_bytes += out.phases.encode_bytes;
        worker_phases.apply_bytes += out.phases.apply_bytes;
        events.extend(out.events);
    }
    let mut final_params: Vec<Vec<f32>> = vec![Vec::new(); n_tensors];
    for h in shard_handles {
        let out = h.join().expect("shard panicked");
        for (g, p) in out.params {
            debug_assert!(final_params[g].is_empty(), "tensor {g} returned twice");
            final_params[g] = p;
        }
        arena_allocs += out.pull_allocs;
        arena_recycles += out.pull_recycles;
        ack_batches += out.ack_batches;
        restore_bytes += out.restore_bytes;
        corrupt_frames_detected += out.corrupt_frames;
        nan_quarantined += out.nan_quarantined;
        restore_fallbacks += out.restore_fallbacks;
        fallback_depth += out.fallback_depth;
        shard_phases.push(out.phases);
        events.extend(out.events);
    }
    for (g, p) in final_params.iter().enumerate() {
        assert!(!p.is_empty(), "no shard owned tensor {g} at the end");
    }

    // Evaluate the final model on the training set.
    for (id, p) in final_params.iter().enumerate() {
        model.set_param(id, p);
    }
    let (x, labels) = dataset.batch(0, dataset.len());
    let accuracy = model.accuracy(&x, &labels);

    let (events_checked, retries) = if cfg.check_invariants {
        check_events(
            events,
            cfg.workers,
            cfg.fault_plan.joined_workers(),
            map.owner_table(),
        )
    } else {
        (0, 0)
    };

    ThreadedResult {
        losses: losses_acc,
        final_params,
        accuracy,
        bytes_pushed,
        wall: start.elapsed(),
        events_checked,
        retries,
        messages_lost,
        arena_allocs,
        arena_recycles,
        ack_batches,
        membership_epochs: clock.epochs_opened(),
        restore_bytes,
        corrupt_frames_detected,
        nan_quarantined,
        nack_retransmit_bytes,
        restore_fallbacks,
        fallback_depth,
        shard_phases,
        worker_phases,
    }
}

/// Per-gradient pull-reply cache: parameters are encoded once per update
/// and every pull (any worker, any slice) is served as a shared window of
/// that one buffer. `spare` is the reclaimed storage awaiting re-encode.
struct PullCache {
    wire: Option<Bytes>,
    spare: Option<BytesMut>,
    /// The last served window's `(offset_elems, len_elems)` frame header:
    /// in steady state every worker pulls the same whole-tensor window, so
    /// the reply checksum is computed once per update, not once per pull.
    frame: Option<(usize, usize, FrameHeader)>,
}

const ACK_FLUSH_CAP: usize = 64;

/// A pull request waiting for its tensor to reach `min_done` (a joiner's
/// bootstrap pull racing the barriers it depends on).
#[derive(Clone, Copy)]
struct DeferredPull {
    worker: usize,
    grad: usize,
    offset_elems: usize,
    len_elems: usize,
    min_done: u64,
}

/// One parameter-server shard: aggregation barriers for its member tensors,
/// optimiser steps, batched acks, cached pull service — plus the elastic
/// lifecycle (permanent death, tensor adoption from the durable store,
/// membership-aware barriers).
///
/// Barriers finish **inline** in the push handler the moment the last
/// slice lands. The only other completion enabler is a departing worker's
/// [`ToPs::Leave`] notice (a fully-arrived barrier may be gated on it so
/// its trace event follows the eviction epoch), so the full completion
/// sweep runs only when a `Leave` arrives — not after every message.
struct ShardRt {
    s: usize,
    mem: Arc<Membership>,
    clock: Arc<MembershipClock>,
    store: Arc<DurableStore>,
    tensor_elems: Arc<Vec<usize>>,
    /// Sorted global ids of every tensor this shard ever owns (initial
    /// members + adoptions).
    ever: Vec<usize>,
    /// First iteration each local tensor is owned from (0 for initial).
    owned_from: Vec<u64>,
    /// For adopted locals, the dead shard the tensor re-homed off
    /// (`usize::MAX` for initial members).
    adopted_from: Vec<usize>,
    /// The iteration this shard permanently dies at, when the plan kills
    /// it before the run ends.
    die_at: Option<u64>,
    dead: bool,
    /// This shard's time-triggered `ShardCrash` windows, earliest first.
    crashes: Vec<Window>,
    /// Parameters per local tensor; adopted slots are empty until restored.
    params: Vec<Vec<f32>>,
    /// Per-tensor optimiser state; `None` until an adopted slot restores.
    opts: Vec<Option<OptState>>,
    restored: Vec<bool>,
    /// The barrier ledger of the local tensors, in elements: what arrived,
    /// what may close, what a crash voids. Closed barriers survive
    /// crashes, like the applied updates.
    barriers: Barriers,
    /// The payload slices behind the ledger's open barriers, per local
    /// tensor and worker. BSP admits one open barrier per tensor at a time.
    staged: Vec<Vec<Vec<StagedSlice>>>,
    pull: Vec<PullCache>,
    deferred: Vec<DeferredPull>,
    pending: Vec<Vec<Slice>>,
    pending_total: usize,
    ack_batches: u64,
    pull_allocs: u64,
    pull_recycles: u64,
    restore_bytes: u64,
    /// This shard's corruption injector (node id `s`): damages outgoing
    /// pull replies and ack batches per the plan's `PayloadCorrupt`
    /// windows.
    corrupt: CorruptInjector,
    /// Scratch pool for tampered payload copies (the cached pull encoding
    /// must stay clean for the retransmission to serve from).
    tamper_pool: ArenaPool,
    corrupt_frames: u64,
    nan_quarantined: u64,
    /// Pre-check push frames at receive time — frame verify, then the
    /// NaN/Inf gradient guard — armed only under a corruption plan, where a
    /// damaged frame must NACK before the barrier (and only there: a
    /// legitimately diverging model must not loop forever in quarantine).
    /// Without corruption windows nothing between the sender's arena and
    /// this shard can damage a payload, and the CRC check that rides the
    /// barrier fold's traversal is the only one.
    eager_verify: bool,
    /// Queue and flush push acks (armed only when the plan is non-empty:
    /// workers consult acks only when their fault machinery is live, so an
    /// empty plan makes every ack pure overhead).
    acks_enabled: bool,
    /// Checkpoint cadence and the one-shot `CheckpointCorrupt`.
    ckpt: CheckpointSchedule,
    restore_fallbacks: u64,
    fallback_depth: u64,
    cur_epoch: u64,
    worker_txs: Vec<Sender<ToWorker>>,
    /// Shared with the workers: barrier folds and pull encodes walk the
    /// same multi-megabyte scale as a compute section and take the same
    /// cache-residency token.
    gate: Arc<ComputeGate>,
    start: Instant,
    tlog: ThreadLog,
    phases: ShardPhases,
}

impl ShardRt {
    #[allow(clippy::too_many_arguments)]
    fn new(
        s: usize,
        cfg: &ThreadedConfig,
        mem: Arc<Membership>,
        windows: Arc<Windows>,
        clock: Arc<MembershipClock>,
        store: Arc<DurableStore>,
        ever: Vec<usize>,
        owned_from: Vec<u64>,
        adopted_from: Vec<usize>,
        tensor_elems: Arc<Vec<usize>>,
        params: Vec<Vec<f32>>,
        worker_txs: Vec<Sender<ToWorker>>,
        gate: Arc<ComputeGate>,
        start: Instant,
        tlog: ThreadLog,
    ) -> Self {
        let n_local = ever.len();
        debug_assert_eq!(params.len(), n_local);
        let opts: Vec<Option<OptState>> = ever
            .iter()
            .zip(&owned_from)
            .map(|(&g, &from)| {
                (from == 0).then(|| OptState::fresh(cfg.optimizer, cfg.lr, tensor_elems[g]))
            })
            .collect();
        let restored: Vec<bool> = owned_from.iter().map(|&from| from == 0).collect();
        let staged = vec![vec![Vec::new(); mem.total_workers()]; n_local];
        let sizes = ever.iter().map(|&g| tensor_elems[g] as u64).collect();
        let pull = (0..n_local)
            .map(|_| PullCache {
                wire: None,
                spare: None,
                frame: None,
            })
            .collect();
        let crashes = windows.schedule(FaultKind::ShardCrash, &[s]);
        let corrupt = CorruptInjector::new(&cfg.fault_plan, windows, s as u64);
        let eager_verify = cfg.fault_plan.has_corruption();
        let acks_enabled = !cfg.fault_plan.is_empty();
        let ckpt = CheckpointSchedule::new(&cfg.fault_plan, s, cfg.checkpoint_period);
        let die_at = mem.shard_dies_at(s);
        ShardRt {
            s,
            pending: vec![Vec::new(); mem.total_workers()],
            barriers: Barriers::new(mem.total_workers(), sizes),
            corrupt,
            tamper_pool: ArenaPool::new(),
            corrupt_frames: 0,
            nan_quarantined: 0,
            eager_verify,
            acks_enabled,
            ckpt,
            restore_fallbacks: 0,
            fallback_depth: 0,
            mem,
            clock,
            store,
            tensor_elems,
            ever,
            owned_from,
            adopted_from,
            die_at,
            dead: false,
            crashes,
            params,
            opts,
            restored,
            staged,
            pull,
            deferred: Vec::new(),
            pending_total: 0,
            ack_batches: 0,
            pull_allocs: 0,
            pull_recycles: 0,
            restore_bytes: 0,
            cur_epoch: 0,
            worker_txs,
            gate,
            start,
            tlog,
            phases: ShardPhases::default(),
        }
    }

    /// Local slot index of an ever-owned tensor (`ever` is sorted).
    fn local(&self, g: usize) -> usize {
        self.ever
            .binary_search(&g)
            .unwrap_or_else(|_| panic!("tensor {g} never owned by shard {}", self.s))
    }

    /// Number of locals owned during iteration `iter` — the barrier count
    /// that closes the iteration on this shard.
    fn owned_count_at(&self, iter: u64) -> usize {
        self.owned_from.iter().filter(|&&from| from <= iter).count()
    }

    /// Materialise an adopted tensor from the durable store: bit-exact
    /// snapshot + ledger replay, then announce the re-home.
    fn ensure_restored(&mut self, l: usize) {
        if self.restored[l] {
            return;
        }
        let g = self.ever[l];
        let r = self.store.restore(g);
        self.params[l] = r.params;
        self.opts[l] = Some(r.opt);
        self.barriers.adopt(l, r.upto);
        self.restored[l] = true;
        self.restore_bytes += r.bytes;
        if r.depth > 0 {
            // The newest snapshot generation(s) failed verification; we
            // fell back to an older intact one and replayed a longer
            // ledger suffix.
            self.restore_fallbacks += 1;
            self.fallback_depth += r.depth;
            self.tlog.emit(TraceEvent::RestoreFallback {
                shard: self.adopted_from[l],
                depth: r.depth,
            });
        }
        self.tlog.emit(TraceEvent::Rehome {
            grad: g,
            from: self.adopted_from[l],
            to: self.s,
        });
        self.drain_deferred();
    }

    /// Injected crash-restart: the shard loses its aggregation RAM
    /// (parameters/optimiser state persist, like the durable store), stays
    /// down for `downtime`, comes back with a new epoch, and tells every
    /// worker to re-push its unacknowledged gradients.
    fn crash_restart(&mut self, downtime: StdDuration) {
        self.cur_epoch += 1;
        self.tlog.emit(TraceEvent::FaultStart {
            kind: FaultKind::ShardCrash,
            node: self.s,
        });
        for (_, l, worker, _) in self.barriers.wipe(|_| true) {
            // Drops the staged arena references.
            self.staged[l][worker].clear();
        }
        if !downtime.is_zero() {
            std::thread::sleep(downtime);
        }
        self.tlog.emit(TraceEvent::FaultEnd {
            kind: FaultKind::ShardCrash,
            node: self.s,
        });
        self.tlog.emit(TraceEvent::EpochAdvance {
            shard: self.s,
            epoch: self.cur_epoch,
        });
        for tx in &self.worker_txs {
            // A worker that already left the membership (or finished) is
            // entitled to be gone.
            let _ = tx.send(ToWorker::ShardRestarted {
                shard: self.s,
                epoch: self.cur_epoch,
            });
        }
    }

    /// Queue a push ack for the next batch flush — a no-op when the plan
    /// is empty (no worker consults acks, so none are produced).
    fn queue_ack(&mut self, worker: usize, ack: Slice) {
        if !self.acks_enabled {
            return;
        }
        self.pending[worker].push(ack);
        self.pending_total += 1;
    }

    /// `ack` is the slice as the sender tracks it — what it SAID it sent,
    /// not what arrived: a truncated payload must ack/nack that ledger
    /// entry, or the retry path can never match it up.
    fn on_push(&mut self, worker: usize, ack: Slice, data: Bytes, frame: FrameHeader) {
        if ack.epoch != self.cur_epoch {
            // A pre-crash push that raced the restart broadcast.
            return;
        }
        let (iter, grad) = (ack.iter, ack.tensor);
        let l = self.local(grad);
        if self.barriers.is_stale(iter, l) {
            // Late duplicate of a completed barrier: re-ack only, without
            // verifying — the barrier already folded an intact copy.
            self.queue_ack(worker, ack);
            return;
        }
        // Every pre-death barrier closed before the death epoch opened, so
        // any non-duplicate push reaching a dead shard was mis-routed.
        assert!(
            !self.dead,
            "push for (iter {iter}, grad {grad}) reached shard {} after its death",
            self.s
        );
        let t_verify = Instant::now();
        if self.eager_verify {
            // Nothing corrupt is ever staged: a rejected slice is nacked
            // and the worker retransmits it from its clean buffer.
            let rejected = match check_push(&data, &frame) {
                PushCheck::Corrupt => {
                    // Checksum or length mismatch: damaged in flight.
                    self.corrupt_frames += 1;
                    let (node, bytes) = (self.s, frame.len as u64);
                    Some(TraceEvent::FrameCorrupt {
                        node,
                        bytes,
                        data: true,
                    })
                }
                PushCheck::NonFinite => {
                    // The frame checksummed clean but carries non-finite
                    // values: memory corruption upstream of checksumming.
                    self.nan_quarantined += 1;
                    Some(TraceEvent::GradQuarantined { worker, iter, grad })
                }
                PushCheck::Intact => None,
            };
            if let Some(ev) = rejected {
                self.phases.verify_ns += t_verify.elapsed().as_nanos() as u64;
                self.tlog.emit(ev);
                let _ = self.worker_txs[worker].send(ToWorker::PushNack { nack: ack });
                return;
            }
        } else {
            // Admission is O(1) — the payload is not read here at all. No
            // fault kind in a corruption-free plan can damage bytes in
            // flight, so a length mismatch here would be a runtime bug,
            // not an injected fault.
            assert_eq!(
                data.len(),
                frame.len as usize,
                "push payload length disagrees with its frame without a corruption plan"
            );
        }
        self.phases.verify_ns += t_verify.elapsed().as_nanos() as u64;
        self.ensure_restored(l);
        assert!(
            self.barriers
                .closed_through(l)
                .is_none_or(|d| iter == d + 1),
            "push for tensor {grad} skipped the BSP barrier"
        );
        let arrival = self
            .barriers
            .arrive(&self.mem, iter, l, worker, Some(ack.offset), ack.len);
        // A duplicate (a retransmission raced the ack) is acknowledged and
        // dropped like everything else the ledger did not refuse.
        self.queue_ack(worker, ack);
        if matches!(arrival, Arrival::Staged | Arrival::WorkerDone { .. }) {
            // Zero-copy staging: the wire slice itself is the staged
            // gradient; nothing is decoded until the barrier.
            self.staged[l][worker].push((ack.offset as usize, data, frame.crc));
        }
        if let Arrival::WorkerDone { closes } = arrival {
            self.tlog.emit(TraceEvent::PushEnd { worker, iter, grad });
            if closes {
                self.finish_barrier(l, iter);
            }
        }
    }

    /// The BSP barrier for local tensor `l` is complete: fold the staged
    /// wire slices in fixed worker order (bit-identical to the
    /// single-shard and single-process sums), step the optimiser and
    /// re-encode the pull frame in one [`fold::barrier_pass`], record the
    /// update in the durable ledger, run the iteration-close bookkeeping
    /// (checkpoint cadence, this shard's own death), and notify the
    /// iteration's members.
    fn finish_barrier(&mut self, l: usize, iter: u64) {
        let g = self.ever[l];
        let size = self.tensor_elems[g];
        // The pass runs under the cache-residency gate: it walks every
        // staged payload plus the parameters, optimiser state and pull
        // frame, and interleaving it with another thread's compute or
        // fold re-fetches all of it from DRAM. Released before the
        // ParamReady broadcast — the rare cold pull in `drain_deferred`
        // takes its own token inside `serve_pull` (the gate is not
        // reentrant). The wait lands in `idle_ns`, keeping the pass's
        // spans pure work.
        let gated = size * 4 >= GATE_MIN_BYTES;
        if gated {
            let t_gate = Instant::now();
            self.gate.acquire();
            self.phases.idle_ns += t_gate.elapsed().as_nanos() as u64;
        }
        // The cached pull encoding goes stale with this update: reclaim
        // its storage (every member applied its windows before pushing the
        // gradients this barrier closes) and let the pass re-encode into
        // it, block by block, while the optimiser's writes are L1-hot.
        // Every worker pulls every update, so the encode is never wasted.
        self.pull[l].frame = None;
        if let Some(b) = self.pull[l].wire.take() {
            if let Ok(m) = b.try_into_mut() {
                self.pull[l].spare = Some(m);
            }
        }
        let mut pull = self.pull_buffer(l);
        let armed = self.store.armed();
        let checkpoint_due = armed && self.ckpt.due(iter);
        let mut mean = armed.then(|| DurableCopy::with_capacity(size));
        let mut snapshot = checkpoint_due.then(|| DurableCopy::with_capacity(size));
        let opt = self.opts[l].as_mut().expect("barrier on unrestored tensor");
        let crc = fold::barrier_pass(
            fold::Barrier {
                staged: &mut self.staged[l],
                inv: 1.0 / self.mem.expected(iter) as f32,
                params: &mut self.params[l],
                opt,
                mean: mean.as_mut(),
                snapshot: snapshot.as_mut(),
                pull: &mut pull,
            },
            &mut self.phases,
        );
        if let Some(mean) = mean {
            self.store.note_update(g, iter, mean);
        }
        self.phases.barriers += 1;
        let iteration_closed = self.barriers.close(iter, l, self.owned_count_at(iter));
        self.cache_pull(l, pull, crc);
        self.tlog.emit(TraceEvent::Barrier { iter, grad: g });
        if let Some(snapshot) = snapshot {
            // A scheduled CheckpointCorrupt poisons every snapshot written
            // in its cadence round (the whole generation is damaged,
            // matching the sim's model).
            self.store.checkpoint(
                g,
                iter,
                snapshot,
                self.opts[l].as_ref().expect("barrier on unrestored tensor"),
                self.ckpt.poisons(iter),
            );
        }
        if iteration_closed {
            if checkpoint_due {
                self.ckpt.round_written(iter);
                self.tlog.emit(TraceEvent::Checkpoint {
                    shard: self.s,
                    iter,
                });
            }
            if self.die_at == Some(iter + 1) {
                // This was the shard's last iteration. Open the death
                // epoch BEFORE broadcasting the final ParamReady: no
                // worker can start iteration `iter + 1` without that
                // delivery, so every adopter-side event — re-homes,
                // adopted barriers — is causally (hence ticket-) after
                // the MembershipChange.
                self.clock
                    .open(&mut self.tlog, FaultKind::ShardFail, self.s, iter + 1);
                self.dead = true;
            }
        }
        if gated {
            self.gate.release();
        }
        for &w in self.mem.members(iter) {
            // An iteration member cannot exit before receiving every one
            // of its ParamReady deliveries.
            self.worker_txs[w]
                .send(ToWorker::ParamReady {
                    grad: g,
                    epoch: self.cur_epoch,
                })
                .expect("member hung up before barrier");
        }
        self.drain_deferred();
    }

    fn on_pull(
        &mut self,
        worker: usize,
        grad: usize,
        offset_elems: usize,
        len_elems: usize,
        min_done: Option<u64>,
    ) {
        let l = self.local(grad);
        match min_done {
            // An ordinary pull is causally behind the ParamReady that made
            // the tensor current — serve immediately.
            None => self.serve_pull(worker, grad, offset_elems, len_elems),
            Some(m) => {
                if self.restored[l] && self.barriers.closed_through(l).is_some_and(|d| d >= m) {
                    self.serve_pull(worker, grad, offset_elems, len_elems);
                } else {
                    self.deferred.push(DeferredPull {
                        worker,
                        grad,
                        offset_elems,
                        len_elems,
                        min_done: m,
                    });
                }
            }
        }
    }

    /// Serve any deferred pull whose tensor has caught up.
    fn drain_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            let d = self.deferred[i];
            let l = self.local(d.grad);
            if self.restored[l]
                && self
                    .barriers
                    .closed_through(l)
                    .is_some_and(|x| x >= d.min_done)
            {
                self.deferred.remove(i);
                self.serve_pull(d.worker, d.grad, d.offset_elems, d.len_elems);
            } else {
                i += 1;
            }
        }
    }

    /// Storage for local tensor `l`'s next pull frame: the reclaimed
    /// previous encoding when its windows have all been dropped, a counted
    /// fresh allocation otherwise.
    fn pull_buffer(&mut self, l: usize) -> BytesMut {
        match self.pull[l].spare.take() {
            Some(mut m) => {
                m.clear();
                self.pull_recycles += 1;
                m
            }
            None => {
                self.pull_allocs += 1;
                BytesMut::with_capacity(self.tensor_elems[self.ever[l]] * 4)
            }
        }
    }

    /// Cache `buf`, local tensor `l`'s whole-tensor pull frame with
    /// checksum `crc`: every pull until the next update is a zero-copy
    /// window of it.
    fn cache_pull(&mut self, l: usize, buf: BytesMut, crc: u32) {
        let wire = buf.freeze();
        let frame = FrameHeader {
            len: wire.len() as u32,
            crc,
        };
        self.pull[l].frame = Some((0, self.tensor_elems[self.ever[l]], frame));
        self.pull[l].wire = Some(wire);
    }

    fn serve_pull(&mut self, worker: usize, grad: usize, offset_elems: usize, len_elems: usize) {
        let l = self.local(grad);
        debug_assert!(self.restored[l], "serving an unrestored tensor");
        if self.pull[l].wire.is_none() {
            // Cold pull — bootstrap, or a tensor adopted/restored since
            // its last local barrier (steady-state pulls hit the cache
            // refreshed by `finish_barrier`). A large encode walks the
            // full parameter vector, so it runs under the cache-residency
            // gate (the wait lands in `idle_ns`, keeping the encode span
            // pure work).
            let gated = self.tensor_elems[grad] * 4 >= GATE_MIN_BYTES;
            if gated {
                let t_gate = Instant::now();
                self.gate.acquire();
                self.phases.idle_ns += t_gate.elapsed().as_nanos() as u64;
            }
            let t_fill = Instant::now();
            let mut buf = self.pull_buffer(l);
            let crc = encode_f32_into_crc(&self.params[l], &mut buf);
            self.phases.encode_ns += t_fill.elapsed().as_nanos() as u64;
            self.phases.encode_bytes += 2 * buf.len() as u64;
            self.cache_pull(l, buf, crc);
            if gated {
                self.gate.release();
            }
        }
        let t_encode = Instant::now();
        let clean = {
            let wire = self.pull[l].wire.as_ref().unwrap();
            wire.slice(offset_elems * 4..(offset_elems + len_elems) * 4)
        };
        // Pull replies can be bit-flipped or truncated in flight but never
        // NaN-poisoned: parameters travel checksummed, so memory-corrupt
        // values would be caught as a frame mismatch anyway and the guard
        // lives on the push path.
        let (data, frame) = match self.corrupt.draw(self.start, false) {
            Some(style) => self.corrupt.tamper(style, &clean, &mut self.tamper_pool),
            None => {
                let frame = match self.pull[l].frame {
                    Some((o, n, f)) if (o, n) == (offset_elems, len_elems) => f,
                    _ => {
                        let f = FrameHeader::for_payload(&clean);
                        self.pull[l].frame = Some((offset_elems, len_elems, f));
                        f
                    }
                };
                (clean, frame)
            }
        };
        self.phases.encode_ns += t_encode.elapsed().as_nanos() as u64;
        self.worker_txs[worker]
            .send(ToWorker::PullData {
                grad,
                offset_elems,
                data,
                frame,
            })
            .expect("worker hung up mid-pull");
    }

    /// Flush the coalesced ack batches, one [`ToWorker::PushAcks`] per
    /// worker with pending acks, each carrying a batch checksum. The
    /// corruption injector may damage the checksum in flight; the worker
    /// detects the mismatch and extends its retry deadlines instead of
    /// trusting the batch.
    fn flush_acks(&mut self) {
        if self.pending_total == 0 {
            return;
        }
        let t_ack = Instant::now();
        for w in 0..self.pending.len() {
            if self.pending[w].is_empty() {
                continue;
            }
            self.ack_batches += 1;
            let acks = std::mem::take(&mut self.pending[w]);
            let mut crc = acks_checksum(&acks);
            if self.corrupt.draw(self.start, false).is_some() {
                crc ^= 0xA5A5_A5A5;
            }
            // A worker that already exited only misses acks it no longer
            // needs.
            let _ = self.worker_txs[w].send(ToWorker::PushAcks { acks, crc });
        }
        self.pending_total = 0;
        self.phases.ack_ns += t_ack.elapsed().as_nanos() as u64;
    }

    /// The serve loop: drain the inbox, apply each message (barriers
    /// complete inline in the push handler), flush acks at the cap or
    /// when idle.
    fn run(mut self, rx: Receiver<ToPs>) -> ShardOut {
        let mut next_crash = 0usize;

        'serve: loop {
            // Drain the inbox without blocking; acks flush the moment it
            // runs dry (one batch per worker per drain), and only then do
            // we block. Poll (instead of block) only while a scheduled
            // crash is still pending, so an idle channel cannot postpone
            // it.
            let msg = match rx.try_recv() {
                Ok(m) => Some(m),
                Err(TryRecvError::Empty) => {
                    self.flush_acks();
                    let t_idle = Instant::now();
                    let got = if let Some(crash) = self.crashes.get(next_crash) {
                        // Block no longer than the next scheduled crash —
                        // an idle channel must not postpone it.
                        let wait = StdDuration::from_nanos(
                            crash.start.saturating_sub(ns_since(self.start)).max(1),
                        );
                        match rx.recv_timeout(wait) {
                            Ok(m) => Some(m),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => {
                                self.phases.idle_ns += t_idle.elapsed().as_nanos() as u64;
                                break 'serve;
                            }
                        }
                    } else {
                        match rx.recv() {
                            Ok(m) => Some(m),
                            Err(_) => {
                                self.phases.idle_ns += t_idle.elapsed().as_nanos() as u64;
                                break 'serve;
                            }
                        }
                    };
                    self.phases.idle_ns += t_idle.elapsed().as_nanos() as u64;
                    got
                }
                Err(TryRecvError::Disconnected) => break 'serve,
            };
            if let Some(&crash) = self.crashes.get(next_crash) {
                if ns_since(self.start) >= crash.start {
                    next_crash += 1;
                    self.crash_restart(StdDuration::from_nanos(crash.end - crash.start));
                }
            }
            let Some(msg) = msg else { continue };
            self.phases.msgs += 1;
            match msg {
                ToPs::Push {
                    worker,
                    slice,
                    data,
                    frame,
                } => self.on_push(worker, slice, data, frame),
                ToPs::PullReq {
                    worker,
                    grad,
                    offset_elems,
                    len_elems,
                    min_done,
                } => self.on_pull(worker, grad, offset_elems, len_elems, min_done),
                ToPs::Leave { worker } => {
                    // A Leave can unblock fully-arrived barriers gated on
                    // the eviction epoch — the one completion enabler the
                    // inline push-path check cannot see, and the only
                    // event that still pays for a full sweep.
                    let t_sweep = Instant::now();
                    for (iter, l) in self.barriers.leave(&self.mem, worker) {
                        self.finish_barrier(l, iter);
                    }
                    self.phases.sweep_ns += t_sweep.elapsed().as_nanos() as u64;
                }
            }
            if self.pending_total >= ACK_FLUSH_CAP {
                self.flush_acks();
            }
        }
        // Workers are gone; remaining acks are moot but flushed for the
        // count.
        self.flush_acks();
        assert!(
            self.deferred.is_empty(),
            "shard {} exited with {} unserved deferred pull(s)",
            self.s,
            self.deferred.len()
        );
        // Hand back exactly the tensors this shard owns in the final
        // membership epoch: adopted ones included, lost ones excluded.
        let final_owner = self.mem.owner_at(u64::MAX).to_vec();
        let mut out_params = Vec::new();
        for l in 0..self.ever.len() {
            let g = self.ever[l];
            if final_owner[g] == self.s {
                debug_assert!(self.restored[l], "final owner never restored tensor {g}");
                out_params.push((g, std::mem::take(&mut self.params[l])));
            }
        }
        ShardOut {
            params: out_params,
            events: self.tlog.into_events(),
            pull_allocs: self.pull_allocs,
            pull_recycles: self.pull_recycles,
            ack_batches: self.ack_batches,
            restore_bytes: self.restore_bytes,
            corrupt_frames: self.corrupt_frames,
            nan_quarantined: self.nan_quarantined,
            restore_fallbacks: self.restore_fallbacks,
            fallback_depth: self.fallback_depth,
            phases: self.phases,
        }
    }
}

/// Borrowed context threaded through [`pump`].
struct IterCtx<'a> {
    w: usize,
    iter: u64,
    epoch: Instant,
    /// Tensor sizes in elements (to recognise whole-tensor slices).
    tensor_elems: &'a [usize],
    txs: &'a [Sender<ToPs>],
    /// Tensor → shard owner table in force for this iteration (membership
    /// epochs re-home tensors between iterations, never within one).
    owner: &'a [usize],
    /// Current incarnation per shard; updated mid-iteration when a
    /// [`ToWorker::ShardRestarted`] arrives.
    ps_epochs: &'a [Cell<u64>],
}

/// The pull task on the wire: requested, charged, and landing once every
/// reply is in and its bytes are due.
struct PullTask {
    task: TransferTask,
    /// Replies still to arrive intact.
    awaiting: usize,
    /// When its last charged byte is due.
    due: u64,
}

/// A worker's pull lookahead: the pull task on the wire and the one issued
/// behind it.
#[derive(Default)]
struct Transfers {
    pull: Option<PullTask>,
    /// A pull task issued while another was on the wire; requested when
    /// that one lands (issuing pauses until then).
    next_pull: Option<TransferTask>,
    /// Intact replies of the pull on the wire, `(grad, offset_elems, data,
    /// frame)`, held until it lands.
    replies: Vec<(usize, usize, Bytes, FrameHeader)>,
}

impl Transfers {
    /// Request `task`'s windows and charge their bytes to the link: the
    /// shards serve pulls from an encoding cached at barrier time, so the
    /// link paces the replies from now.
    fn request(
        &mut self,
        ctx: &IterCtx<'_>,
        task: TransferTask,
        up: &mut Uplink,
        tlog: &mut ThreadLog,
    ) {
        let now = ns_since(ctx.epoch);
        let mut due = now;
        for &(g, b) in &task.pieces {
            let len_elems = (b / 4) as usize;
            let (offset, stamp) = up.core.issue(Dir::Pull, g, len_elems as u64);
            if stamp {
                tlog.emit(TraceEvent::PullStart {
                    worker: ctx.w,
                    iter: ctx.iter,
                    grad: g,
                });
            }
            ctx.txs[ctx.owner[g]]
                .send(ToPs::PullReq {
                    worker: ctx.w,
                    grad: g,
                    offset_elems: offset as usize,
                    len_elems,
                    min_done: None,
                })
                .expect("ps shard hung up");
            due = up.link.charge(b, now);
        }
        let awaiting = task.pieces.len();
        self.pull = Some(PullTask {
            task,
            awaiting,
            due,
        });
    }
}

/// Carry out what the outbox asked for: trace each retry step, re-stamp
/// the push start a failed attempt voided, and charge each slice again —
/// its retransmission re-slices the layer buffer, copying nothing.
/// `backoff` stretches the re-sent slices' next ack deadline by the
/// policy's exponential delay (the timeout path; the simulator backs the
/// lane off instead).
fn redo(ctx: &IterCtx<'_>, up: &mut Uplink, tlog: &mut ThreadLog, steps: Vec<Step>, backoff: bool) {
    let (worker, iter) = (ctx.w, ctx.iter);
    for step in steps {
        match step {
            Step::Retry { tensor, attempt } => tlog.emit(TraceEvent::RetryAttempt {
                worker,
                iter,
                grad: tensor,
                attempt,
            }),
            Step::Resend(s, attempt) => {
                let grad = s.tensor;
                if up.core.outbox.restamp(iter, grad, Dir::Push) {
                    tlog.emit(TraceEvent::PushStart { worker, iter, grad });
                }
                let stretch = up.retry.delay(if backoff { attempt } else { 0 });
                let (off, len) = (s.offset as usize, s.len as usize);
                up.charge_push(ns_since(ctx.epoch), grad, off, len, stretch);
            }
        }
    }
}

/// Land a pull reply in the model — one apply for every plan: the wire
/// bytes decode straight into parameter tensor `grad` from element
/// `offset_elems`, with the frame CRC streamed in the same pass. A reply
/// that got past the receive-time verify and still mismatches is genuine
/// memory corruption. Returns the elements landed.
fn apply_reply(
    model: &mut Mlp,
    grad: usize,
    offset_elems: usize,
    data: &[u8],
    frame: FrameHeader,
) -> usize {
    let len_elems = data.len() / 4;
    let dst = &mut model.param_slice_mut(grad)[offset_elems..offset_elems + len_elems];
    let got = crc32::finish(fused_crc_apply(crc32::begin(), data, dst));
    assert_eq!(
        got, frame.crc,
        "pull reply fails the frame CRC it was admitted under — genuine memory corruption"
    );
    len_elems
}

/// Move everything that can move without waiting: issue tasks until the
/// scheduler pauses, hand over every charged push that is due, and go
/// round again while a hand-over completes a task (which may free the
/// scheduler's next). A push task is charged slice by slice and completes
/// at its last slice's hand-over. A pull task is requested at once when no
/// other pull is on the wire, and otherwise waits as `next_pull`, pausing
/// issue until it goes out.
fn pump(
    ctx: &IterCtx<'_>,
    sched: &mut Box<dyn CommScheduler>,
    tr: &mut Transfers,
    up: &mut Uplink,
    tlog: &mut ThreadLog,
) {
    loop {
        while tr.next_pull.is_none() {
            let Some(task) = sched.next_task(now_since(ctx.epoch)) else {
                break;
            };
            match task.dir {
                Dir::Push => {
                    let now = ns_since(ctx.epoch);
                    for &(g, b) in &task.pieces {
                        let elems = (b / 4) as usize;
                        let (off, stamp) = up.core.issue(Dir::Push, g, elems as u64);
                        if stamp {
                            tlog.emit(TraceEvent::PushStart {
                                worker: ctx.w,
                                iter: ctx.iter,
                                grad: g,
                            });
                        }
                        up.charge_push(now, g, off as usize, elems, SimDuration::ZERO);
                    }
                    let last = up.queue.back_mut().expect("push task without pieces");
                    last.task = Some(task);
                }
                Dir::Pull if tr.pull.is_none() => tr.request(ctx, task, up, tlog),
                Dir::Pull => tr.next_pull = Some(task),
            }
        }
        let now = ns_since(ctx.epoch);
        let mut freed = false;
        while let Some(q) = up.take_due(now) {
            up.hand_over(ctx, &q);
            if let Some(task) = q.task {
                sched.task_done(now_since(ctx.epoch), &task);
                freed = true;
            }
        }
        if !freed {
            return;
        }
    }
}

/// A counting semaphore bounding how many large memory traversals run
/// simultaneously across the whole runtime: worker compute sections
/// (whose backward writes the push frames), shard barrier passes, cold
/// shard pull encodes, and worker pull applies. Permits equal the host's available
/// parallelism, so on a machine with at least one core per thread the
/// gate never blocks. On an oversubscribed host it stops the OS from
/// time-slicing several multi-megabyte walks against each other: each
/// section's working set (weights, push frames, payloads, parameters) spans
/// megabytes, and round-robin preemption forces a full re-fetch of that
/// set from DRAM every slice. Admitting only as many walks as there are
/// cores keeps each one cache-resident to completion — the BSP barrier
/// serialises iteration progress anyway, so ordering the walks costs no
/// parallelism the hardware actually has.
///
/// Deadlock-freedom: a permit is only ever held across straight-line
/// memory work and non-blocking hand-offs (a worker's between-layer
/// [`pump`] sends on unbounded channels) — never across a channel receive,
/// a sleep or another acquire, and never while trying
/// to take a lock that another permit-holder could be blocked on (the
/// durable store's lock is taken either under the gate or by lock-only
/// sections that don't wait on the gate). Every holder therefore runs to
/// release without depending on another thread's progress.
struct ComputeGate {
    permits: Mutex<usize>,
    cv: Condvar,
}

/// Traversals below this size skip the gate: a few-KiB bias apply fits in
/// L1 whatever else runs, and the acquire/wake round-trip would cost more
/// than the walk itself.
const GATE_MIN_BYTES: usize = 1 << 20;

impl ComputeGate {
    fn new(permits: usize) -> Self {
        ComputeGate {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = self.permits.lock().unwrap();
        while *p == 0 {
            p = self.cv.wait(p).unwrap();
        }
        *p -= 1;
    }

    fn release(&self) {
        *self.permits.lock().unwrap() += 1;
        self.cv.notify_one();
    }
}

/// One worker: compute shard gradients, release them layer by layer,
/// backward-first, to the scheduler, move bytes as the scheduler dictates,
/// pull updates, repeat. All per-iteration state (gradient buffers,
/// counters, queues) lives outside the iteration loop and is reset, not
/// reallocated.
///
/// Elastic lifecycle: a worker the plan evicts runs `[0, fail_at)`, opens
/// its eviction epoch, broadcasts [`ToPs::Leave`] and exits; a joiner stays
/// silent until it has bootstrapped the end-of-`join_at - 1` model via
/// `min_done` pulls, opens its join epoch, then runs `[join_at,
/// iterations)` like any member.
#[allow(clippy::too_many_arguments)]
fn worker_thread(
    w: usize,
    cfg: Arc<ThreadedConfig>,
    mut model: Mlp,
    dataset: Arc<Dataset>,
    tensor_elems: Arc<Vec<usize>>,
    sizes_bytes: Arc<Vec<u64>>,
    mem: Arc<Membership>,
    windows: Arc<Windows>,
    clock: Arc<MembershipClock>,
    gate: Arc<ComputeGate>,
    txs: Vec<Sender<ToPs>>,
    rx: Receiver<ToWorker>,
    epoch: Instant,
    mut tlog: ThreadLog,
) -> WorkerOut {
    let n = tensor_elems.len();
    let shards = txs.len();
    let node = shards + w; // this worker's trace/fault node id
    let is_joiner = w >= cfg.workers;
    let (my_from, my_until) = mem.span(w);
    if my_from >= my_until {
        // A joiner scheduled past the horizon: never admitted, forever
        // silent (its announced epoch simply never opens).
        return WorkerOut {
            losses: Vec::new(),
            from: my_from,
            bytes_pushed: 0,
            messages_lost: 0,
            events: tlog.into_events(),
            arena_allocs: 0,
            arena_recycles: 0,
            corrupt_frames: 0,
            nack_bytes: 0,
            phases: WorkerPhases::default(),
        };
    }
    let evicted = mem.leaves_at(w).is_some();
    let mut sched: Box<dyn CommScheduler> =
        cfg.scheduler.build_from_sizes(sizes_bytes.as_ref().clone());
    let mut up = Uplink::new(w, shards, &cfg, windows, &tensor_elems);
    let mut losses = Vec::with_capacity((my_until - my_from) as usize);
    let mut corrupt_frames = 0u64;
    let mut nack_bytes = 0u64;
    let mut phases = WorkerPhases::default();
    let ps_epochs: Vec<Cell<u64>> = (0..shards).map(|_| Cell::new(0)).collect();

    if is_joiner {
        // Bootstrap: fetch the end-of-`my_from - 1` model, one deferred
        // whole-tensor pull per tensor, routed by the owner table in force
        // at admission. The shards reply only once each tensor reflects
        // every update through `my_from - 1`, so completing this loop
        // proves every pre-admission barrier closed — which is exactly
        // what lets the join epoch open *after* them in ticket order.
        // Nothing here is traced: a worker outside the membership is
        // silent by contract.
        let owner = mem.owner_at(my_from);
        let request = |grad: usize| {
            let (len_elems, min_done) = (tensor_elems[grad], Some(my_from - 1));
            let req = ToPs::PullReq {
                worker: w,
                grad,
                offset_elems: 0,
                len_elems,
                min_done,
            };
            txs[owner[grad]]
                .send(req)
                .expect("ps shard hung up at bootstrap");
        };
        (0..n).for_each(request);
        let mut deferred_acks: Vec<(usize, u64)> = Vec::new();
        let mut got = 0usize;
        while got < n {
            match rx.recv().expect("ps hung up during bootstrap") {
                ToWorker::PullData {
                    grad,
                    offset_elems: _,
                    data,
                    frame,
                } => {
                    // A deferred reply is served only once its barriers
                    // close, so it is charged when it arrives — and with
                    // nothing else to do, the joiner sleeps until it is due.
                    let now = ns_since(epoch);
                    let due = up.link.charge(data.len() as u64, now);
                    std::thread::sleep(StdDuration::from_nanos(due - now));
                    if !frame.verify(&data) {
                        // Damaged bootstrap reply: re-request the whole
                        // tensor. Counted but not traced — a worker
                        // outside the membership is silent by contract.
                        corrupt_frames += 1;
                        request(grad);
                        continue;
                    }
                    apply_reply(&mut model, grad, 0, &data, frame);
                    got += 1;
                }
                ToWorker::ShardRestarted { shard, epoch: e } => {
                    // Observe the new incarnation silently; announce the
                    // ack once admitted (below).
                    ps_epochs[shard].set(e);
                    deferred_acks.push((shard, e));
                }
                // Pre-admission ParamReady/ack batches concern barriers
                // this worker is not part of.
                _ => {}
            }
        }
        clock.open(&mut tlog, FaultKind::WorkerJoin, w, my_from);
        for (shard, e) in deferred_acks {
            tlog.emit(TraceEvent::EpochAck {
                worker: w,
                shard,
                epoch: e,
            });
        }
    }

    let mut tr = Transfers::default();
    // Verify pull replies at receive only under a corruption plan; without
    // one the frame CRC is checked inside the fused decode-into-parameters
    // pass instead of costing its own traversal.
    let eager_pull = cfg.fault_plan.has_corruption();

    // Data windows use the *initial* worker count and this worker's
    // absolute id: each worker's stream of batches is a pure function of
    // (w, iter), unchanged by who else is in the membership.
    let per_worker = cfg.global_batch / cfg.workers;
    for iter in my_from..my_until {
        let owner = mem.owner_at(iter);
        let t_begin = now_since(epoch);
        tlog.emit(TraceEvent::IterBegin { worker: w, iter });
        sched.iteration_begin(t_begin, iter);
        if up.active {
            up.stall_if_scheduled(node, epoch, &mut tlog);
        }
        up.core.begin_iter(iter);
        up.recycle();
        let ctx = IterCtx {
            w,
            iter,
            epoch,
            tensor_elems: tensor_elems.as_slice(),
            txs: &txs,
            owner,
            ps_epochs: &ps_epochs,
        };

        // This iteration's shard: a rotating window over the dataset.
        let lo = ((iter as usize * cfg.global_batch) + w * per_worker) % dataset.len();
        let hi = (lo + per_worker).min(dataset.len());
        // Run compute + encode under the parallelism gate: time spent
        // waiting for a permit is contention, not compute, so it lands in
        // the wait span.
        let t_gate = Instant::now();
        gate.acquire();
        let mut t_compute = Instant::now();
        phases.wait_ns += t_compute.duration_since(t_gate).as_nanos() as u64;
        let (x, labels) = dataset.batch(lo, hi.max(lo + 1));
        let (loss, mut pass) = model.forward_loss(&x, &labels);
        losses.push(loss);
        // Backward one layer at a time: the backward stores the layer's
        // gradients straight into its push frame, then they are released
        // last tensor first, and the link takes them while the layers below
        // are differentiated. Between layers the worker only hands over
        // what is due — it never blocks holding the gate.
        let mut step = 0;
        while let Some(ids) = model.next_tensors(&pass) {
            let step_bytes: usize = ids.clone().map(|g| tensor_elems[g] * 4).sum();
            let t_open = Instant::now();
            phases.compute_ns += t_open.duration_since(t_compute).as_nanos() as u64;
            let mut frame = up.frame(step, step_bytes);
            let t_backward = Instant::now();
            model.backward_step(&mut pass, &mut frame);
            let t_seal = Instant::now();
            frame.seal();
            phases.compute_ns += t_seal.duration_since(t_backward).as_nanos() as u64;
            phases.encode_ns +=
                (t_backward.duration_since(t_open) + t_seal.elapsed()).as_nanos() as u64;
            phases.store_bytes += step_bytes as u64;
            phases.encode_bytes += step_bytes as u64;
            step += 1;
            for g in ids.rev() {
                tlog.emit(TraceEvent::GradReady {
                    worker: w,
                    iter,
                    grad: g,
                });
                sched.gradient_ready(now_since(epoch), g);
            }
            pump(&ctx, &mut sched, &mut tr, &mut up, &mut tlog);
            t_compute = Instant::now();
        }
        gate.release();

        // Communication: move what can move; land the pull on the wire
        // once its replies are in and its bytes are due — requesting the
        // next before applying this one, so the link carries one while the
        // worker applies the other; otherwise block until a message, the
        // next due instant, or (with live fault machinery) the earliest ack
        // deadline, so retransmissions fire even when the shards have gone
        // quiet — the very situation a lost message creates. With nothing
        // charged and no tracked slices, every event that can unblock this
        // loop arrives as a message, so the receive blocks outright.
        while !up.core.all_landed() {
            pump(&ctx, &mut sched, &mut tr, &mut up, &mut tlog);
            let now = ns_since(epoch);
            let landing = tr.pull.as_ref().filter(|p| p.awaiting == 0).map(|p| p.due);
            if let Some(landed) = tr.pull.take_if(|p| p.awaiting == 0 && p.due <= now) {
                let landed = landed.task;
                sched.task_done(now_since(epoch), &landed);
                if let Some(next) = tr.next_pull.take() {
                    tr.request(&ctx, next, &mut up, &mut tlog);
                }
                pump(&ctx, &mut sched, &mut tr, &mut up, &mut tlog);
                for (grad, offset_elems, data, frame) in tr.replies.drain(..) {
                    // A large apply walks the payload plus the parameter
                    // slice — gate it like any other big traversal. The
                    // wait lands in `wait_ns`, keeping the apply span pure
                    // work.
                    let gated = data.len() >= GATE_MIN_BYTES;
                    if gated {
                        let t_gate = Instant::now();
                        gate.acquire();
                        phases.wait_ns += t_gate.elapsed().as_nanos() as u64;
                    }
                    let t_apply = Instant::now();
                    let len_elems = apply_reply(&mut model, grad, offset_elems, &data, frame);
                    if gated {
                        gate.release();
                    }
                    phases.apply_ns += t_apply.elapsed().as_nanos() as u64;
                    phases.apply_bytes += 2 * data.len() as u64;
                    if let Some(done) = up.core.land(grad, len_elems as u64) {
                        if let Some(attempts) = done.recovered {
                            tlog.emit(TraceEvent::Recovered {
                                worker: w,
                                iter,
                                grad,
                                attempts,
                            });
                        }
                        tlog.emit(TraceEvent::PullEnd {
                            worker: w,
                            iter,
                            grad,
                        });
                    }
                }
                continue;
            }
            let pacing = up.next_due().into_iter().chain(landing).min();
            let mut wake = pacing;
            if up.active {
                let ack = match up.core.outbox.next_deadline() {
                    Some(d) => d.max(now + 50_000),
                    None => now + 20_000_000,
                };
                wake = Some(wake.map_or(ack, |w| w.min(ack)));
            }
            let msg = match wake {
                Some(at) => {
                    match rx.recv_timeout(StdDuration::from_nanos(at.saturating_sub(now))) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => panic!("ps hung up mid-iteration"),
                    }
                }
                None => Some(rx.recv().expect("ps hung up mid-iteration")),
            };
            // Sleeping out a due instant is the link's time, as is blocking
            // while it still drains charged bytes; only the rest is a wait
            // on the shards.
            if pacing.is_none() {
                phases.wait_ns += ns_since(epoch).saturating_sub(now.max(up.link.busy_until()));
            }
            match msg {
                None => {}
                Some(ToWorker::ParamReady { grad, epoch: pe }) => {
                    tlog.emit(TraceEvent::ParamReady {
                        worker: w,
                        grad,
                        epoch: pe,
                    });
                    // The barrier proves every slice arrived, whatever acks
                    // are still behind this message in the channel — and
                    // that any retransmission of it still queued is moot.
                    if let Some(attempts) = up.core.outbox.delivered(iter, grad) {
                        tlog.emit(TraceEvent::Recovered {
                            worker: w,
                            iter,
                            grad,
                            attempts,
                        });
                    }
                    up.queue.retain(|q| {
                        debug_assert!(
                            q.grad != grad || q.task.is_none(),
                            "an original push outlived its barrier"
                        );
                        q.grad != grad
                    });
                    sched.param_ready(now_since(epoch), grad);
                }
                Some(ToWorker::PushAcks { acks, crc }) => {
                    if acks_checksum(&acks) != crc {
                        // The batch checksum fails: any ack in it may be
                        // forged, so trust none. The slices it covered are
                        // already folded (ParamReady supersedes them) or
                        // will retransmit once a full timeout has passed.
                        corrupt_frames += 1;
                        tlog.emit(TraceEvent::FrameCorrupt {
                            node,
                            bytes: (acks.len() * 40) as u64,
                            data: false,
                        });
                        up.core
                            .outbox
                            .acks_untrusted(ns_since(epoch) + up.retry.timeout.as_nanos());
                    } else {
                        for a in &acks {
                            up.core.outbox.acked(*a);
                        }
                    }
                }
                Some(ToWorker::PushNack { nack }) => {
                    // The shard detected a damaged or quarantined push
                    // slice. Retransmit it from the clean layer buffer —
                    // unless the outbox no longer tracks it (a previous
                    // iteration, or the barrier closed over an intact
                    // duplicate).
                    let steps = up.core.outbox.nacked(nack);
                    nack_bytes += if steps.is_empty() { 0 } else { nack.len * 4 };
                    redo(&ctx, &mut up, &mut tlog, steps, false);
                }
                Some(ToWorker::PullData {
                    grad,
                    offset_elems,
                    data,
                    frame,
                }) => {
                    let pull = tr.pull.as_mut().expect("pull data without request");
                    if eager_pull && !frame.verify(&data) {
                        // Damaged parameter slice: nothing lands in the
                        // model. Re-request exactly this window; the
                        // shard's cached encoding serves it bit-exactly,
                        // and the link carries it again.
                        corrupt_frames += 1;
                        tlog.emit(TraceEvent::FrameCorrupt {
                            node,
                            bytes: frame.len as u64,
                            data: true,
                        });
                        if let Some(attempt) = up.core.outbox.fail(iter, grad, Dir::Pull) {
                            tlog.emit(TraceEvent::RetryAttempt {
                                worker: w,
                                iter,
                                grad,
                                attempt,
                            });
                        }
                        if up.core.outbox.restamp(iter, grad, Dir::Pull) {
                            tlog.emit(TraceEvent::PullStart {
                                worker: w,
                                iter,
                                grad,
                            });
                        }
                        txs[owner[grad]]
                            .send(ToPs::PullReq {
                                worker: w,
                                grad,
                                offset_elems,
                                len_elems: frame.len as usize / 4,
                                min_done: None,
                            })
                            .expect("ps shard hung up mid-pull-retry");
                        pull.due = up.link.charge(frame.len as u64, ns_since(epoch));
                    } else {
                        pull.awaiting -= 1;
                        tr.replies.push((grad, offset_elems, data, frame));
                    }
                }
                Some(ToWorker::ShardRestarted { shard, epoch: e }) => {
                    // One shard lost its aggregation state. Re-push every
                    // slice addressed to IT that no barrier has settled —
                    // acknowledged or not — to the new incarnation. The
                    // scheduler is NOT consulted — it already accounted for
                    // these bytes; this is transport-level recovery.
                    ps_epochs[shard].set(e);
                    tlog.emit(TraceEvent::EpochAck {
                        worker: w,
                        shard,
                        epoch: e,
                    });
                    let steps = up.core.outbox.restarted(|g| owner[g] == shard);
                    redo(&ctx, &mut up, &mut tlog, steps, false);
                }
            }
            if up.active {
                let steps = up.core.outbox.tick(ns_since(epoch));
                redo(&ctx, &mut up, &mut tlog, steps, true);
            }
        }
        let t_end = now_since(epoch);
        tlog.emit(TraceEvent::IterEnd { worker: w, iter });
        sched.iteration_end(t_end, iter, t_end.saturating_since(t_begin));
    }
    if evicted {
        // This worker's last iteration is behind it: open the eviction
        // epoch, then tell every shard — barriers for iterations beyond
        // `my_until - 1` are gated on these Leave notices, which is what
        // orders them after the MembershipChange.
        clock.open(&mut tlog, FaultKind::WorkerFail, w, my_until);
        for tx in &txs {
            // A shard may already have exited if every surviving worker
            // finished first.
            let _ = tx.send(ToPs::Leave { worker: w });
        }
    }
    let (arena_allocs, arena_recycles) = up
        .pools
        .iter()
        .fold((0, 0), |(a, r), p| (a + p.allocated, r + p.recycled));
    WorkerOut {
        losses,
        from: my_from,
        bytes_pushed: up.bytes_pushed,
        messages_lost: up.messages_lost,
        events: tlog.into_events(),
        arena_allocs,
        arena_recycles,
        corrupt_frames,
        nack_bytes,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim::{Duration, FaultSpec};

    /// Worker 0's link in a 1-shard topology under `faults`.
    fn link(bps: Option<f64>, faults: Vec<FaultSpec>) -> Link {
        let windows = Arc::new(Windows::new(&FaultPlan::new(faults), 1));
        Link::new(bps, windows, 0, 1)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn rate_limiter_unlimited_is_instant() {
        let mut l = link(None, Vec::new());
        assert_eq!(l.charge(100_000_000, 5), 5);
        assert_eq!(l.charge(100_000_000, 7), 7);
    }

    #[test]
    fn rate_limiter_throttles() {
        // 1 MB at 10 MB/s drains in 100 ms; the message is due a burst
        // allowance before that.
        let mut l = link(Some(10e6), Vec::new());
        assert_eq!(l.charge(1_000_000, 0), 100 * MS - BURST_NS);
        // Charged ahead, the next message queues behind the first: one
        // budget, whoever charges it (a push or a pull).
        assert_eq!(l.charge(1_000_000, 0), 200 * MS - BURST_NS);
        // A tiny message inside the burst allowance is due at once.
        let mut l = link(Some(10e6), Vec::new());
        assert_eq!(l.charge(1_000, 3 * MS), 3 * MS);
    }

    #[test]
    fn rate_limiter_never_banks_idle_time() {
        let mut l = link(Some(10e6), Vec::new());
        l.charge(1_000_000, 0);
        // The link drained at 100 ms and idled until 500 ms: the next
        // message still takes its full 100 ms.
        assert_eq!(l.charge(1_000_000, 500 * MS), 600 * MS - BURST_NS);
    }

    #[test]
    fn rate_limiter_degrade_window_scales_rate() {
        // 500 KB at 10 MB/s is 50 ms clean; a 0.25 factor makes it 200 ms.
        let mut l = link(
            Some(10e6),
            vec![FaultSpec::LinkDegrade {
                node: 1, // worker 0's own link
                at: SimTime::ZERO,
                factor: 0.25,
                dur: Duration::from_secs(3600),
            }],
        );
        assert_eq!(l.charge(500_000, 0), 200 * MS - BURST_NS);
    }

    #[test]
    fn rate_limiter_outage_window_freezes_sender() {
        let down = |bps| {
            link(
                bps,
                vec![FaultSpec::LinkDown {
                    node: 0, // the PS link: down for the first 60 ms
                    at: SimTime::ZERO,
                    dur: Duration::from_millis(60),
                }],
            )
        };
        // Even an unlimited link freezes: an outage is absolute.
        assert_eq!(down(None).charge(4, 0), 60 * MS);
        // A metered send drains from the window's end.
        assert_eq!(down(Some(10e6)).charge(1_000_000, 0), 160 * MS - BURST_NS);
        // A send charged ahead is priced as of its predecessor's due
        // instant: one due after the window sees none of it.
        let mut l = down(Some(10e6));
        assert_eq!(l.charge(1_000_000, 60 * MS), 160 * MS - BURST_NS);
        assert_eq!(l.charge(1_000, 0), 160 * MS - BURST_NS + 100_000);
    }

    #[test]
    fn empty_plan_leaves_fault_machinery_dormant() {
        let cfg = ThreadedConfig::small(1, SchedulerKind::Fifo);
        let f = Uplink::new(0, 1, &cfg, Arc::new(Windows::default()), &[1; 4]);
        assert!(!f.active, "inactive faults must not track sends");
        let fate = f
            .windows
            .send_fate(0, |_| panic!("drew against an empty plan"));
        assert_eq!(fate, None);
        assert_eq!(f.core.outbox.next_deadline(), None);
    }

    /// Every bytes-walked counter of a small fault-free FIFO run (whole
    /// payloads, SGD with momentum, 32 sample rows per worker) equals its
    /// closed form in model bytes M: a worker writes each gradient once
    /// and checksums it once, whatever its batch; a barrier set walks
    /// (W + 5)·M — W payloads, parameters and velocity read and written,
    /// the pull frame written.
    #[test]
    fn bytes_walked_match_their_closed_forms() {
        let cfg = ThreadedConfig {
            ps_shards: 2,
            iterations: 6,
            ..ThreadedConfig::small(2, SchedulerKind::Fifo)
        };
        let r = run_threaded_training(&cfg);
        let m: u64 = Mlp::new(&cfg.widths, 0)
            .tensor_sizes()
            .iter()
            .map(|&n| n as u64 * 4)
            .sum();
        let (w, iters) = (cfg.workers as u64, cfg.iterations);
        let wp = r.worker_phases;
        assert_eq!(wp.store_bytes, iters * w * m);
        assert_eq!(wp.encode_bytes, iters * w * m);
        assert_eq!(wp.apply_bytes, iters * w * 2 * m);
        let shards = |f: fn(&ShardPhases) -> u64| r.shard_phases.iter().map(f).sum::<u64>();
        assert_eq!(shards(|p| p.fold_bytes), iters * w * m);
        assert_eq!(shards(|p| p.optimizer_bytes), iters * 4 * m);
        assert_eq!(shards(|p| p.encode_bytes), iters * m);
    }

    /// The backward stores a Dense layer's gradients into the step's push
    /// frame with the bytes, offsets and per-tensor CRCs that zeroing the
    /// gradients, accumulating `xᵀ·dy` and `Σrows dy` into them and
    /// encoding them produced: at batch 1 and batch > 1, with zero inputs
    /// (rows the product skips), negative-zero products, and rows longer
    /// than the writer's block.
    #[test]
    fn store_backward_matches_accumulate_then_encode() {
        use prophet_minidnn::{Dense, Layer, Tensor};
        let cfg = ThreadedConfig::small(1, SchedulerKind::Fifo);
        for (rows, input, output) in [(1, 4, 3), (1, 5, 2100), (3, 4, 3), (3, 6, 2100)] {
            let mut rng = Xoshiro256StarStar::new(9);
            let mut layer = Dense::new(input, output, &mut rng);
            // Every third input is zero; the rest alternate sign.
            let x: Vec<f32> = (0..rows * input)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i as f32 - 4.5) * 0.25
                    }
                })
                .collect();
            let x = Tensor::from_vec(rows, input, x);
            // Signed zeros in dy make ±0 products.
            let dy: Vec<f32> = (0..rows * output)
                .map(|i| match i % 4 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => (i as f32).sin(),
                })
                .collect();
            let dy = Tensor::from_vec(rows, output, dy);
            let _ = layer.forward(&x);
            let mut up = Uplink::new(0, 1, &cfg, Arc::new(Windows::default()), &[1; 2]);
            let mut frame = up.frame(0, (input + 1) * output * 4);
            let _ = layer.backward(&dy, &mut frame);
            frame.seal();

            let mut dw = Tensor::zeros(input, output);
            x.t_matmul_acc(&dy, &mut dw);
            let mut db = Tensor::zeros(1, output);
            db.axpy(1.0, &dy.sum_rows());
            let mut want = BytesMut::new();
            let crc_w = encode_f32_into_crc(&dw.data, &mut want);
            let crc_b = encode_f32_into_crc(&db.data, &mut want);
            let what = format!("batch {rows}, {input} x {output}");
            assert_eq!(&up.bufs[0].as_ref().unwrap()[..], &want[..], "{what}");
            assert_eq!(up.grad_crc, [crc_w, crc_b], "{what}");
            assert_eq!(up.grad_at, [(0, 0), (0, input * output * 4)], "{what}");
        }
    }

    #[test]
    fn thread_logs_merge_in_ticket_order() {
        let epoch = Instant::now();
        let log = EventLog::new(true, epoch);
        let mut a = log.thread_log();
        let mut b = log.thread_log();
        a.emit(TraceEvent::IterBegin { worker: 0, iter: 0 });
        b.emit(TraceEvent::IterBegin { worker: 1, iter: 0 });
        a.emit(TraceEvent::IterEnd { worker: 0, iter: 0 });
        let mut merged = a.into_events();
        merged.extend(b.into_events());
        merged.sort_unstable_by_key(|&(t, _, _)| t);
        let tickets: Vec<u64> = merged.iter().map(|&(t, _, _)| t).collect();
        assert_eq!(tickets, vec![0, 1, 2]);
        assert!(matches!(
            merged[1].2,
            TraceEvent::IterBegin { worker: 1, .. }
        ));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::new(false, Instant::now());
        let mut t = log.thread_log();
        t.emit(TraceEvent::IterBegin { worker: 0, iter: 0 });
        assert!(t.into_events().is_empty());
    }
}
