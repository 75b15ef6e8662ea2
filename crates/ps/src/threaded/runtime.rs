//! The threaded BSP runtime: worker threads + sharded PS + link emulation.
//!
//! # Step machines and one serve loop
//!
//! A worker ([`super::worker`]) and a PS shard ([`super::shard`]) are step
//! machines: each takes one input — a message, or a wake-up at an instant
//! it asked for (or at its inbox running dry) — reads time only from the
//! `now` it is handed, and answers [`Next`]. [`serve`] is the one loop that
//! drives both: it owns every receive, every sleep and the only clock
//! reading a transition sees. Both are built on the spawning thread from
//! one [`Run`], and [`run_threads`] fails the run with the first panic of
//! any thread (DESIGN.md §16 "Drivers").
//!
//! # Sharded, zero-copy data path
//!
//! The parameter tensors are partitioned across `ps_shards` PS threads by a
//! [`ShardMap`] that cuts the model's flat element range into near-equal
//! contiguous extents, so a tensor straddling a cut is split into one
//! *part* per shard. Everything per owner is per part — barriers, staged
//! payloads, optimiser state, pull frames, durable snapshots, re-homes —
//! while everything the worker schedules stays per tensor: a worker cuts
//! each push slice and pull request at the part boundaries and routes each
//! piece to its part's owner. Each shard owns its own crash schedule and
//! epoch, and every worker holds one channel per shard. The hot path
//! allocates nothing in steady state:
//!
//! * a worker's backward stores each layer's gradients straight into **one
//!   pooled push buffer per layer**, little-endian and checksummed per
//!   part as they are written — there is no separate gradient buffer or
//!   encode pass —
//!   and every push payload, original or retransmission, is a zero-copy
//!   [`Bytes`](bytes::Bytes) slice into it, recycled next iteration
//!   ([`super::pool`]);
//! * a shard stages incoming slices **as the wire bytes themselves** and
//!   closes a barrier in one blocked pass ([`super::fold`]): fold in fixed
//!   worker order (so results stay bit-identical to the single-shard and
//!   single-process runs), mean, and the optimiser step of the pull
//!   frame in place per block;
//! * push acks coalesce into one [`ToWorker::PushAcks`] batch per
//!   (worker, inbox drain);
//! * the pull frame is the part's parameters, served as shared slices of
//!   that one buffer to every worker.
//!
//! # Fault parity with the discrete-event cluster
//!
//! The same [`FaultPlan`] type that drives the simulator's fault layer
//! drives this runtime, with fault times interpreted as **real-time offsets
//! from run start** and node `s < ps_shards` meaning PS shard `s`, node
//! `ps_shards + w` meaning worker `w`. What an arrival, a barrier, a retry
//! and a crash *mean* is [`crate::protocol`]'s (`Barriers` on each shard,
//! a `Worker` core with its `Outbox` on each worker — the rules the
//! simulator runs); the machines keep the effects:
//!
//! * `ShardCrash` — the named shard wipes its barrier ledger and staged
//!   payloads at the scheduled instant (parameters and optimiser state
//!   persist, like a durable store), pauses until the window closes, bumps
//!   its epoch, and broadcasts [`ToWorker::ShardRestarted`]. Other shards
//!   keep serving.
//! * `MsgLoss` — a push drawn lost (per-worker substream of the plan seed)
//!   pays the link but never reaches its shard. Shards ack every accepted
//!   slice (batched into [`ToWorker::PushAcks`]); a slice whose ack misses
//!   the [`RetryPolicy`] timeout is re-sent, its next deadline stretched by
//!   the exponential backoff.
//! * `WorkerStall` — the worker pauses through the scheduled window before
//!   its compute phase.
//! * `LinkDegrade` — the link emulator ([`super::transport`]) scales its
//!   drain rate by the window's factor (no-op when `link_bps` is `None`: an
//!   unlimited link stays unlimited).
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
//! the worker's link and is handed over when due, and the worker computes
//! in between, blocking only when it has nothing else to do. A pull is
//! charged when it is requested, and the next pull task is requested
//! before the current one lands. A landed pull is not applied: its replies
//! are kept as zero-copy windows of the shards' pull frames, which the
//! next forward and backward read in place ([`super::pulled`]).
//!
//! # Tracing without a global lock
//!
//! Each thread appends trace events to its **own** buffer, stamped with a
//! ticket from one shared atomic counter. Causality flows through channel
//! sends, and atomic read-modify-writes on one counter are totally ordered
//! consistently with happens-before, so sorting the merged buffers by
//! ticket at join reproduces exactly the causal total order the old
//! single-mutex log produced — with zero lock traffic on the hot path.

use super::checkpoint::DurableStore;
use super::pulled::{self, Pulled};
use super::shard::ShardMachine;
use super::wire::{ToPs, ToWorker};
use super::worker::WorkerMachine;
use crate::protocol::{Membership, Windows, CHECKPOINT_RETENTION};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use prophet_core::shard::Part;
use prophet_core::{SchedulerKind, ShardMap};
use prophet_minidnn::{Dataset, Mlp};
use prophet_net::RetryPolicy;
use prophet_sim::{
    Duration as SimDuration, FaultKind, FaultPlan, InvariantChecker, SimTime, TraceEvent, TraceSink,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};

/// Std-dev of the Gaussian blobs ([`Dataset::blobs`]) every threaded run
/// trains on.
pub const DATASET_NOISE: f64 = 0.8;

/// Momentum coefficient μ of the SGD every shard runs on its parts (the
/// optimiser lives on the PS, like MXNet's KVStore optimiser).
pub const PS_MOMENTUM: f32 = 0.9;

/// Configuration of a threaded training run.
#[derive(Clone)]
pub struct ThreadedConfig {
    /// Worker threads.
    pub workers: usize,
    /// PS shard threads the parameter tensors are partitioned across: the
    /// model's elements, laid end to end, are cut into this many
    /// contiguous near-equal extents. Must not exceed the model's element
    /// count. `1` reproduces the classic single-PS topology.
    pub ps_shards: usize,
    /// MLP layer widths, input first, classes last; each at least 1.
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
            scheduler,
            link_bps: None,
            check_invariants: true,
            fault_plan: FaultPlan::empty(),
            retry: RetryPolicy::paper_default(),
        }
    }
}

/// What a threaded run produces.
#[derive(Debug, Clone, Default)]
pub struct ThreadedResult {
    /// Mean worker loss per iteration.
    pub losses: Vec<f32>,
    /// Final parameters, one vec per tensor (PS copy, global tensor order).
    pub final_params: Vec<Vec<f32>>,
    /// Total gradient payload pushed by all workers, bytes (including any
    /// crash-recovery or loss-recovery retransmissions).
    pub bytes_pushed: u64,
    /// Real wall-clock time of the run.
    pub wall: std::time::Duration,
    /// The part of [`ThreadedResult::wall`] spent before any machine ran:
    /// the dataset, the initial-weight draw, its one encode into the
    /// initial frames and the machines.
    pub setup: std::time::Duration,
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
    /// worker's per-layer gradient pools and every shard pull frame (one
    /// per worker per layer, plus one per part). Flat in the iteration
    /// count when the zero-copy recycling works (the steady-state hot path
    /// allocates nothing); see [`ThreadedResult::arena_recycles`].
    pub arena_allocs: u64,
    /// Wire buffers served from recycled storage, a pull frame stepped in
    /// place included. Scales with iterations in steady state.
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
    /// to re-home parts off permanently failed shards.
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

impl ThreadedResult {
    /// Add one machine's share of the run's counters.
    pub(super) fn add_counters(&mut self, m: &ThreadedResult) {
        self.bytes_pushed += m.bytes_pushed;
        self.messages_lost += m.messages_lost;
        self.arena_allocs += m.arena_allocs;
        self.arena_recycles += m.arena_recycles;
        self.ack_batches += m.ack_batches;
        self.restore_bytes += m.restore_bytes;
        self.corrupt_frames_detected += m.corrupt_frames_detected;
        self.nan_quarantined += m.nan_quarantined;
        self.nack_retransmit_bytes += m.nack_retransmit_bytes;
        self.restore_fallbacks += m.restore_fallbacks;
        self.fallback_depth += m.fallback_depth;
    }
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
    /// Pull-frame checksum and encode: the barrier pass's frame CRC (or
    /// fresh frame write), and serving windows of the frame.
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
    /// Bytes the pull-frame encode walked: none when a barrier steps the
    /// frame in place (its CRC reads each block just stepped, in L1), the
    /// fresh frame written otherwise, and a restore's read and write.
    pub encode_bytes: u64,
    /// Push payload bytes received, every slice counted as it arrives
    /// (retransmissions, duplicates and rejected frames included). In a
    /// fault-free run it is exactly `iterations × workers × 4 ×` the
    /// shard's [`ShardMap::load`]: the load the placement put on it.
    pub push_bytes: u64,
}

/// Where the worker threads spent their time, summed across workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerPhases {
    /// Forward/backward compute (incl. batch assembly), which stores each
    /// gradient straight into its push frame.
    pub compute_ns: u64,
    /// Push-frame bookkeeping around the backward steps: buffer checkout,
    /// closing the last part's checksum, freezing the frame.
    pub encode_ns: u64,
    /// Landing pull replies: each intact reply is kept, zero-copy, as the
    /// parameters the next forward and backward read in place.
    pub apply_ns: u64,
    /// Blocked waiting on PS messages with nothing left to come due and
    /// nothing left to drain on the link (sleeping out a send's due
    /// instant is the link's time, not a wait), or waiting for the
    /// cache-residency gate before compute.
    pub wait_ns: u64,
    /// Gradient bytes the backward pass walked: each gradient written
    /// once, into its push frame (rows are built in an L1 scratch row).
    pub store_bytes: u64,
    /// Bytes the push-frame checksum read: each gradient once.
    pub encode_bytes: u64,
    /// Parameter bytes assembled into a scratch row because no one pull
    /// window held the row as aligned `f32`s: rows straddling a part cut
    /// or a sliced pull's window edge. Every other row is read in place.
    pub apply_bytes: u64,
    /// Parameter bytes the forward and backward read from pull windows —
    /// in iteration 0, from the initial frames: every weight and bias row
    /// in the forward, and the weight rows of every layer but the first
    /// in the backward (`dy · wᵀ`).
    pub param_read_bytes: u64,
}

/// One trace event with its global causal ticket and timestamp.
pub(super) type TimedEvent = (u64, SimTime, TraceEvent);

/// A thread-private trace buffer; its clones share one ticket counter.
/// `emit` takes a ticket from the shared counter (a relaxed fetch-add: RMWs
/// on one atomic are totally ordered consistently with the happens-before
/// edges the channels create) and appends locally — no lock, no
/// contention. Events carry the instant of the step that emits them
/// ([`ThreadLog::at`]). Buffers are merged and ticket-sorted at join.
#[derive(Clone)]
pub(super) struct ThreadLog {
    seq: Option<Arc<AtomicU64>>,
    now: u64,
    events: Vec<TimedEvent>,
}

impl ThreadLog {
    /// An empty log, recording nothing unless `enabled`.
    fn new(enabled: bool) -> Self {
        let seq = enabled.then(|| Arc::new(AtomicU64::new(0)));
        ThreadLog {
            seq,
            now: 0,
            events: Vec::new(),
        }
    }

    /// Stamp the events that follow with `now` (ns since run start).
    pub(super) fn at(&mut self, now: u64) {
        self.now = now;
    }

    #[inline]
    pub(super) fn emit(&mut self, ev: TraceEvent) {
        let Some(seq) = &self.seq else { return };
        let (ticket, at) = (seq.fetch_add(1, Ordering::Relaxed), self.now);
        self.events.push((ticket, SimTime::from_nanos(at), ev));
    }

    pub(super) fn take_events(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The tensor a worker-side event names. The rest of the stream's
/// gradient ids name parts: the shard-side `PushEnd`, `Barrier`, `Rehome`
/// and `GradQuarantined`, and the `ParamReady` a shard's notice carries.
fn tensor_of(ev: &mut TraceEvent) -> Option<&mut usize> {
    match ev {
        TraceEvent::GradReady { grad, .. }
        | TraceEvent::PushStart { grad, .. }
        | TraceEvent::PullStart { grad, .. }
        | TraceEvent::PullEnd { grad, .. }
        | TraceEvent::RetryAttempt { grad, .. }
        | TraceEvent::Recovered { grad, .. } => Some(grad),
        _ => None,
    }
}

/// Merge per-thread buffers into ticket order, replay through the invariant
/// checker, and return `(events_checked, retries)`. Ticket order is the
/// causal total order; a stamp that reads behind its ticket predecessor's
/// (each event carries its step's `now`, read before its ticket is drawn)
/// is bumped 1 ns past it, so stamps strictly increase.
///
/// The checker's unit of aggregation is the part, first owned per `map`'s
/// table: a worker-side event about a tensor is replayed once for each of
/// its parts, so the checker sees the one-part-per-tensor stream the
/// simulator emits.
fn check_events(
    mut events: Vec<TimedEvent>,
    workers: usize,
    joiners: usize,
    map: &ShardMap,
) -> (u64, u64) {
    events.sort_unstable_by_key(|&(ticket, _, _)| ticket);
    let mut checker = InvariantChecker::new(workers, true)
        .with_joiners(joiners)
        .with_shard_map(map.owner_table().to_vec());
    let mut last = SimTime::ZERO;
    let mut retries = 0u64;
    for (_, t, mut ev) in events {
        let at = t.max(last + SimDuration::from_nanos(1));
        last = at;
        if matches!(ev, TraceEvent::RetryAttempt { .. }) {
            retries += 1;
        }
        match tensor_of(&mut ev).copied() {
            Some(g) => {
                for p in map.parts_of(g) {
                    *tensor_of(&mut ev).expect("names a tensor") = p;
                    checker.on_event(at, &ev);
                }
            }
            None => checker.on_event(at, &ev),
        }
    }
    checker.finish();
    (checker.events_seen(), retries)
}

/// A counting semaphore bounding how many large memory traversals run
/// simultaneously across the whole runtime: worker compute steps (whose
/// backward writes the push frames) and shard barrier passes. Permits
/// equal the host's available parallelism, so on a machine with at least
/// one core per thread the gate never blocks. On an oversubscribed host
/// it stops the OS from time-slicing several multi-megabyte walks against
/// each other: each section's working set (weights, push frames,
/// payloads, parameters) spans megabytes, and round-robin preemption
/// forces a full re-fetch of that set from DRAM every slice. Admitting
/// only as many walks as there are cores keeps each one cache-resident to
/// completion — the BSP barrier serialises iteration progress anyway, so
/// ordering the walks costs no parallelism the hardware actually has.
///
/// Deadlock-freedom: a permit is only ever held across straight-line
/// memory work inside one step of one machine — never across a step's
/// return (so never across a receive or a sleep), never across another
/// acquire, and never while trying to take a lock that another
/// permit-holder could be blocked on (the durable store's lock is taken
/// either under the gate or by lock-only sections that don't wait on the
/// gate). Every holder therefore runs to release without depending on
/// another thread's progress.
pub(super) struct ComputeGate {
    permits: Mutex<usize>,
    cv: Condvar,
}

/// Traversals below this size skip the gate: a few-KiB bias part fits in
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

    pub(super) fn acquire(&self) {
        let mut p = self.permits.lock().unwrap();
        while *p == 0 {
            p = self.cv.wait(p).unwrap();
        }
        *p -= 1;
    }

    pub(super) fn release(&self) {
        *self.permits.lock().unwrap() += 1;
        self.cv.notify_one();
    }

    /// Take a permit for a walk of `bytes` if it is large enough to gate,
    /// adding the wait to `waited`; true when one was taken.
    pub(super) fn enter(&self, bytes: usize, waited: &mut u64) -> bool {
        if bytes < GATE_MIN_BYTES {
            return false;
        }
        let t = Instant::now();
        self.acquire();
        *waited += t.elapsed().as_nanos() as u64;
        true
    }
}

/// What every machine of one run shares, built once on the spawning
/// thread.
pub(super) struct Run {
    pub(super) cfg: ThreadedConfig,
    pub(super) dataset: Dataset,
    /// Tensor sizes in elements, global order.
    pub(super) tensor_elems: Vec<usize>,
    /// The parts the tensors are cut into, with their initial owners.
    pub(super) map: ShardMap,
    /// The membership timetable: who participates in which iteration and
    /// who owns which part when — a pure function of the fault plan.
    pub(super) mem: Membership,
    /// The plan's transient windows, in ns since run start.
    pub(super) windows: Arc<Windows>,
    /// The cluster-wide membership epoch counter: see [`Run::open_epoch`].
    epochs: Mutex<u64>,
    pub(super) store: DurableStore,
    /// One gate shared by every worker AND every shard: compute steps,
    /// barrier folds, and pull encodes are all multi-megabyte walks, and on
    /// an oversubscribed host any two of them time-slicing against each
    /// other thrash the same cache.
    pub(super) gate: ComputeGate,
}

impl Run {
    /// Open the next membership epoch for a permanent change — eviction,
    /// shard death, admission — at `node` effective from iteration `iter`,
    /// and emit its [`TraceEvent::MembershipChange`] *while holding the
    /// lock*, so the trace tickets of membership changes are drawn in epoch
    /// order and the checker's "epochs advance exactly +1" rule holds no
    /// matter which threads race.
    pub(super) fn open_epoch(&self, tlog: &mut ThreadLog, kind: FaultKind, node: usize, iter: u64) {
        let mut epoch = self
            .epochs
            .lock()
            .expect("a thread panicked opening an epoch");
        *epoch += 1;
        tlog.emit(TraceEvent::MembershipChange {
            epoch: *epoch,
            kind,
            node,
            iter,
        });
    }
}

/// What a machine asks its serve loop for next. Instants are ns since run
/// start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Next {
    /// Hand over the next message, or a wake-up at this instant if none
    /// comes first (`None`: block until one does).
    Recv(Option<u64>),
    /// Hand over a wake-up at this instant, receiving nothing before it.
    Pause(u64),
    /// The machine has finished.
    Done,
}

/// The serve loop of one machine: the one place a threaded run receives,
/// sleeps, or reads the clock a transition sees. `step` takes the next
/// message — `None` for a wake-up, or for the inbox running dry since the
/// machine's last message (so a shard flushes its acks before blocking) —
/// and the instant it is handed at. Returns that instant once the machine
/// answers [`Next::Done`] or its inbox hangs up while it waits to receive.
pub(super) fn serve<M>(
    rx: &Receiver<M>,
    start: Instant,
    mut step: impl FnMut(Option<M>, u64) -> Next,
) -> u64 {
    let clock = || start.elapsed().as_nanos() as u64;
    let mut next = step(None, clock());
    // Whether the machine has heard of the dry inbox since its last message.
    let mut dry = false;
    loop {
        let msg = match next {
            Next::Done => return clock(),
            Next::Pause(until) => {
                let now = clock();
                if until > now {
                    std::thread::sleep(StdDuration::from_nanos(until - now));
                }
                None
            }
            Next::Recv(until) => match rx.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) if !dry => {
                    dry = true;
                    None
                }
                Err(TryRecvError::Empty) => {
                    let got = match until {
                        Some(at) => {
                            rx.recv_timeout(StdDuration::from_nanos(at.saturating_sub(clock())))
                        }
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    match got {
                        Ok(msg) => Some(msg),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return clock(),
                    }
                }
                Err(TryRecvError::Disconnected) => return clock(),
            },
        };
        dry &= msg.is_none();
        next = step(msg, clock());
    }
}

/// Run `f` on each state on a thread of its own and hand the states back,
/// in order, once every thread has ended — or resume the first panic the
/// moment its thread ends, with that thread's own payload, instead of
/// leaving its peers blocked on channels nobody will feed. Each thread
/// reports its end from a drop guard, so unwinding reports too.
pub(super) fn run_threads<S: Send + 'static>(
    states: Vec<S>,
    f: impl FnOnce(&mut S) + Send + Copy + 'static,
) -> Vec<S> {
    let (done_tx, done_rx) = unbounded();
    let spawn = |(i, state)| {
        let done = Finished(i, Sender::clone(&done_tx));
        Some(std::thread::spawn(move || {
            let mut state = state;
            // Dropped before `state`: a thread reports its end while it
            // still holds its channel ends, so a peer that fails on their
            // hang-up reports after it.
            let _done = done;
            f(&mut state);
            state
        }))
    };
    let mut handles: Vec<_> = states.into_iter().enumerate().map(spawn).collect();
    drop(done_tx);
    let mut states: Vec<_> = handles.iter().map(|_| None).collect();
    for i in done_rx.iter() {
        match handles[i].take().expect("a thread reported twice").join() {
            Ok(state) => states[i] = Some(state),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    let reported = |state: Option<S>| state.expect("a thread never reported");
    states.into_iter().map(reported).collect()
}

/// Reports thread `.0` finished when dropped.
struct Finished(usize, Sender<usize>);

impl Drop for Finished {
    fn drop(&mut self) {
        let _ = self.1.send(self.0);
    }
}

/// One machine of a run, with its inbox.
pub(super) enum Machine {
    Worker(Box<WorkerMachine>, Receiver<ToWorker>),
    Shard(Box<ShardMachine>, Receiver<ToPs>),
}

impl Machine {
    /// Drive the machine with [`serve`] until it finishes or its inbox
    /// hangs up.
    fn drive(&mut self, start: Instant) {
        match self {
            Machine::Worker(m, rx) => {
                serve(rx, start, |msg, now| m.step(msg, now));
            }
            Machine::Shard(m, rx) => {
                let end = serve(rx, start, |msg, now| m.step(msg, now));
                m.idle_until(end);
            }
        }
    }
}

/// Build every machine of a run per `cfg` on the calling thread — shards
/// first, then workers — with the [`Run`] they share. The model is drawn
/// once; every initial member starts from the same frames of it.
///
/// Panics if `global_batch` is zero or not a multiple of `workers` (unequal
/// shards would break the shard-mean ≡ batch-mean identity the PS relies
/// on), if `samples` is zero, if a layer width is zero, if the model has
/// fewer elements than `ps_shards`, if `link_bps` is set but not a positive
/// finite rate, or if the fault plan references nodes outside the
/// `ps_shards`/`workers` topology.
pub(super) fn build(cfg: &ThreadedConfig) -> (Arc<Run>, Vec<Machine>) {
    assert!(cfg.workers >= 1);
    assert!(cfg.ps_shards >= 1, "need at least one PS shard");
    // A zero-width layer has empty tensors, which own no element and so
    // no part: nothing would ever serve them.
    assert!(
        cfg.widths.iter().all(|&w| w >= 1),
        "every layer width must be >= 1, got {:?}",
        cfg.widths
    );
    // A zero rate prices a send at `u64::MAX` ns and overflows the link's
    // clock; a negative or NaN one casts to a free, unlimited link.
    assert!(
        cfg.link_bps.is_none_or(|b| b.is_finite() && b > 0.0),
        "link bandwidth must be positive and finite"
    );
    assert!(cfg.samples >= 1, "need at least one sample");
    assert!(cfg.global_batch >= 1, "global batch must be >= 1");
    assert!(
        cfg.global_batch.is_multiple_of(cfg.workers),
        "global batch {} not divisible by {} workers",
        cfg.global_batch,
        cfg.workers
    );
    let features = *cfg.widths.first().expect("empty widths");
    let classes = *cfg.widths.last().expect("empty widths");
    let dataset = Dataset::blobs(cfg.samples, features, classes, DATASET_NOISE, cfg.seed);
    // The one initialisation draw of the run (a Box–Muller per weight).
    let model = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
    let tensor_elems = model.tensor_sizes();
    let sizes: Vec<u64> = tensor_elems.iter().map(|&n| n as u64).collect();
    let map = ShardMap::balanced(&sizes, cfg.ps_shards);
    let shards = cfg.ps_shards;
    cfg.fault_plan.validate(cfg.workers, shards);
    // A dead shard's parts re-home by load onto the survivors.
    let mut rebalanced = map.clone();
    let mem = Membership::new(
        &cfg.fault_plan,
        cfg.workers,
        cfg.iterations,
        map.owner_table().to_vec(),
        |owner, _, dead| {
            rebalanced.rebalance_evict(dead);
            owner.copy_from_slice(rebalanced.owner_table());
        },
    );
    // Arm the durable store only when some shard actually dies mid-run;
    // otherwise every checkpoint/ledger call is a dormant no-op and its
    // initial snapshot is never materialised.
    let armed = !mem.shard_deaths().is_empty();
    let params = model.param_slices();
    let part = |p: &Part| &params[p.tensor][p.lo as usize..p.hi as usize];
    let parts: Vec<&[f32]> = map.parts().iter().map(part).collect();
    let store = DurableStore::new(armed, &parts, cfg.lr, CHECKPOINT_RETENTION);
    let frames: Vec<_> = parts.iter().map(|p| pulled::frame(p)).collect();
    let initial = Pulled::initial(&map, &frames);
    let run = Arc::new(Run {
        cfg: cfg.clone(),
        dataset,
        tensor_elems,
        map,
        mem,
        windows: Arc::new(Windows::new(&cfg.fault_plan, shards)),
        epochs: Mutex::new(0),
        store,
        gate: ComputeGate::new(std::thread::available_parallelism().map_or(1, |p| p.get())),
    });
    // One inbox per shard and one per worker, joiners included; every
    // shard holds a sender to every worker, and every worker one to every
    // shard.
    let log = ThreadLog::new(cfg.check_invariants);
    let (shard_txs, shard_rxs): (Vec<Sender<ToPs>>, Vec<_>) =
        (0..shards).map(|_| unbounded()).unzip();
    let (worker_txs, worker_rxs): (Vec<Sender<ToWorker>>, Vec<_>) =
        (0..run.mem.total_workers()).map(|_| unbounded()).unzip();
    let shards = shard_rxs.into_iter().enumerate().map(|(s, rx)| {
        let txs = worker_txs.clone();
        let m = ShardMachine::new(s, Arc::clone(&run), &frames, txs, log.clone());
        Machine::Shard(Box::new(m), rx)
    });
    let mut machines: Vec<Machine> = shards.collect();
    // A joiner starts from no window: it bootstraps.
    let none = Pulled::new(run.tensor_elems.len());
    for (w, rx) in worker_rxs.into_iter().enumerate() {
        let pulled = (if w < cfg.workers { &initial } else { &none }).clone();
        let m = WorkerMachine::new(w, Arc::clone(&run), pulled, shard_txs.clone(), log.clone());
        machines.push(Machine::Worker(Box::new(m), rx));
    }
    (run, machines)
}

/// Fold the finished machines into the run's result, in the order given —
/// the loss sums are `f32`, so the order is part of the answer — then
/// check the merged trace.
fn finish(run: &Run, machines: Vec<Machine>, start: Instant) -> ThreadedResult {
    let cfg = &run.cfg;
    let mut r = ThreadedResult {
        losses: vec![0.0; cfg.iterations as usize],
        final_params: vec![Vec::new(); run.tensor_elems.len()],
        ..ThreadedResult::default()
    };
    let mut events = Vec::new();
    let mut parts = vec![None; run.map.parts().len()];
    for m in machines {
        match m {
            Machine::Worker(m, _) => m.finish(&mut r, &mut events),
            Machine::Shard(m, _) => m.finish(&mut r, &mut parts, &mut events),
        }
    }
    // A tensor's parts tile it in part-id order.
    for (part, frame) in run.map.parts().iter().zip(parts) {
        let frame = frame.unwrap_or_else(|| {
            let (g, lo, hi) = (part.tensor, part.lo, part.hi);
            panic!("no shard owned elements {lo}..{hi} of tensor {g} at the end")
        });
        let values = frame
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()));
        r.final_params[part.tensor].extend(values);
    }
    if cfg.check_invariants {
        let joiners = cfg.fault_plan.joined_workers();
        (r.events_checked, r.retries) = check_events(events, cfg.workers, joiners, &run.map);
    }
    r.membership_epochs = *run
        .epochs
        .lock()
        .expect("a thread panicked opening an epoch");
    r.wall = start.elapsed();
    r
}

/// Run BSP data-parallel training per `cfg` and return the outcome: build
/// the machines (`build`'s panics apply), serve each on a thread of its
/// own, and fail with the first of their panics, if any.
pub fn run_threaded_training(cfg: &ThreadedConfig) -> ThreadedResult {
    let start = Instant::now();
    let (run, machines) = build(cfg);
    let setup = start.elapsed();
    let machines = run_threads(machines, move |m| m.drive(start));
    ThreadedResult {
        setup,
        ..finish(&run, machines, start)
    }
}

#[cfg(test)]
mod tests {
    use super::super::transport::{Link, BURST_NS};
    use super::super::wire::{encode_f32, encode_f32_into_crc};
    use super::super::worker::Uplink;
    use super::*;
    use bytes::BytesMut;
    use prophet_sim::{Duration, FaultSpec, Xoshiro256StarStar};

    /// Worker 0's link in a 1-shard topology under `faults`.
    fn link(bps: Option<f64>, faults: Vec<FaultSpec>) -> Link {
        let windows = Arc::new(Windows::new(&FaultPlan::new(faults), 1));
        Link::new(bps, windows, 0, 1)
    }

    const MS: u64 = 1_000_000;

    /// [`build`] of a small config with `edit` applied.
    fn build_with(edit: impl FnOnce(&mut ThreadedConfig)) {
        let mut cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
        edit(&mut cfg);
        build(&cfg);
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be positive and finite")]
    fn a_zero_link_rate_is_rejected() {
        build_with(|c| c.link_bps = Some(0.0));
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be positive and finite")]
    fn a_negative_link_rate_is_rejected() {
        build_with(|c| c.link_bps = Some(-1e6));
    }

    #[test]
    #[should_panic(expected = "link bandwidth must be positive and finite")]
    fn a_nan_link_rate_is_rejected() {
        build_with(|c| c.link_bps = Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn an_empty_dataset_is_rejected() {
        build_with(|c| c.samples = 0);
    }

    #[test]
    #[should_panic(expected = "global batch must be >= 1")]
    fn an_empty_batch_is_rejected() {
        build_with(|c| c.global_batch = 0);
    }

    #[test]
    #[should_panic(expected = "every layer width must be >= 1, got [8, 0, 4]")]
    fn a_zero_width_layer_is_rejected() {
        build_with(|c| c.widths = vec![8, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot cut a model of 4 elements into 5 shards")]
    fn more_shards_than_elements_is_rejected() {
        build_with(|c| {
            c.widths = vec![1, 2];
            c.ps_shards = 5;
        });
    }

    /// The exact per-shard load on `threaded_mem`'s shape (512-2048-2048-
    /// 512-10, 2 shards), counted as push bytes received: whole tensors
    /// put 20.98 MB on shard 0 and 4.23 MB on shard 1; cut by extent,
    /// each shard receives half the model, to the element.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-tier: a 25 MB model")]
    fn push_bytes_split_threaded_mem_in_half() {
        let cfg = ThreadedConfig {
            ps_shards: 2,
            widths: vec![512, 2048, 2048, 512, 10],
            samples: 16,
            global_batch: 2,
            iterations: 1,
            check_invariants: false,
            ..ThreadedConfig::small(2, SchedulerKind::Fifo)
        };
        let r = run_threaded_training(&cfg);
        let model_bytes = 4 * 6_301_194;
        let per_worker: Vec<u64> = r.shard_phases.iter().map(|p| p.push_bytes / 2).collect();
        assert_eq!(per_worker.iter().sum::<u64>(), model_bytes);
        let (lo, hi) = (
            per_worker[0].min(per_worker[1]),
            per_worker[0].max(per_worker[1]),
        );
        assert!(
            hi - lo <= 4,
            "shards receive {per_worker:?} bytes per worker-iteration"
        );
    }

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
        let map = ShardMap::balanced(&[1; 4], 1);
        let f = Uplink::new(0, &cfg, Arc::new(Windows::default()), &map, &[1; 4]);
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
    /// (W + 4)·M — W payloads, and the parameters (the pull frame, stepped
    /// in place) and velocity read and written; and each shard receives W
    /// times its load per iteration. Every iteration, the first included,
    /// a worker reads its parameters from frame windows in place: every
    /// row in the forward, the weight rows of every layer but the first
    /// again in the backward, and it assembles only the rows a part cut
    /// splits.
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
        let sizes: Vec<u64> = Mlp::new(&cfg.widths, 0)
            .tensor_sizes()
            .iter()
            .map(|&n| n as u64)
            .collect();
        let map = ShardMap::balanced(&sizes, cfg.ps_shards);
        // Whether a part cut falls strictly inside row `k` of tensor `t`.
        let split = |t: usize, k: usize, width: usize| {
            let (lo, hi) = ((k * width) as u64, ((k + 1) * width) as u64);
            map.parts_of(t)
                .any(|p| (lo + 1..hi).contains(&map.parts()[p].lo))
        };
        let (mut read, mut assembled) = (0, 0);
        for (l, pair) in cfg.widths.windows(2).enumerate() {
            let (input, output) = (pair[0], pair[1]);
            let (weight, bias) = (2 * l, 2 * l + 1);
            let passes = if l == 0 { 1 } else { 2 };
            read += 4 * (passes * input * output + output) as u64;
            let cut_rows = (0..input).filter(|&k| split(weight, k, output)).count();
            let cut_bias = usize::from(split(bias, 0, output));
            assembled += 4 * (passes * cut_rows + cut_bias) as u64 * output as u64;
        }
        assert!(assembled > 0, "no part cut splits a row");
        assert_eq!(wp.param_read_bytes, iters * w * read);
        assert_eq!(wp.apply_bytes, iters * w * assembled);
        let shards = |f: fn(&ShardPhases) -> u64| r.shard_phases.iter().map(f).sum::<u64>();
        assert_eq!(shards(|p| p.fold_bytes), iters * w * m);
        assert_eq!(shards(|p| p.optimizer_bytes), iters * 4 * m);
        assert_eq!(shards(|p| p.encode_bytes), 0);
        // Each shard receives exactly the load the placement gave it.
        for (s, p) in r.shard_phases.iter().enumerate() {
            assert_eq!(p.push_bytes, iters * w * 4 * map.load(s), "shard {s}");
        }
    }

    /// The backward stores a Dense layer's gradients into the step's push
    /// frame with the bytes, offsets and per-part CRCs that zeroing the
    /// gradients, accumulating `xᵀ·dy` and `Σrows dy` into them and
    /// encoding them produced: at batch 1 and batch > 1, with zero inputs
    /// (rows the product skips), negative-zero products, rows longer than
    /// the writer's block, and the tensors whole or cut mid-row into parts.
    #[test]
    fn store_backward_matches_accumulate_then_encode() {
        use prophet_minidnn::{Dense, Layer, Tensor};
        let cfg = ThreadedConfig::small(1, SchedulerKind::Fifo);
        for (rows, input, output) in [(1, 4, 3), (1, 5, 2100), (3, 4, 3), (3, 6, 2100)] {
            let mut rng = Xoshiro256StarStar::new(9);
            let [w, b] = Dense::init(input, output, &mut rng);
            let mut layer = Dense::new(input, output);
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
            let _ = layer.forward(&x, &mut [&w, &b]);
            let mut dw = Tensor::zeros(input, output);
            x.t_matmul_acc(&dy, &mut dw);
            let mut db = Tensor::zeros(1, output);
            db.axpy(1.0, &dy.sum_rows());
            let mut want = BytesMut::new();
            let crc_w = encode_f32_into_crc(&dw.data, &mut want);
            let crc_b = encode_f32_into_crc(&db.data, &mut want);
            let elems = [input * output, output];
            for shards in [1, 2, 3] {
                let map = ShardMap::balanced(&elems.map(|n| n as u64), shards);
                let windows = Arc::new(Windows::default());
                let mut up = Uplink::new(0, &cfg, windows, &map, &elems);
                let mut frame = up.frame(&map, 0, want.len());
                let _ = layer.backward(&dy, &mut frame, &mut [&w, &b]);
                frame.seal();
                let what = format!("batch {rows}, {input} x {output}, {shards} shards");
                assert_eq!(&up.bufs[0].as_ref().unwrap()[..], &want[..], "{what}");
                assert_eq!(up.grad_at, [(0, 0), (0, elems[0] * 4)], "{what}");
                let part_crc = map.parts().iter().map(|p| {
                    let at = if p.tensor == 0 { 0 } else { elems[0] };
                    let bytes = &want[(at + p.lo as usize) * 4..(at + p.hi as usize) * 4];
                    super::super::wire::crc32::checksum(bytes)
                });
                assert_eq!(up.part_crc, part_crc.collect::<Vec<_>>(), "{what}");
                if shards == 1 {
                    assert_eq!(up.part_crc, [crc_w, crc_b], "{what}");
                }
            }
        }
    }

    /// `build` keeps no parameter in any worker, and encodes the drawn
    /// model once: every initial member holds each part's initial frame
    /// as the one shared allocation, and a joiner holds none.
    #[test]
    fn build_hands_every_member_the_one_initial_frame_per_part() {
        let cfg = ThreadedConfig {
            ps_shards: 2,
            fault_plan: FaultPlan::new(vec![FaultSpec::WorkerJoin {
                worker: 2,
                at_iter: 3,
            }]),
            ..ThreadedConfig::small(2, SchedulerKind::Fifo)
        };
        let (run, machines) = build(&cfg);
        let workers: Vec<&WorkerMachine> = machines
            .iter()
            .filter_map(|m| match m {
                Machine::Worker(m, _) => Some(&**m),
                Machine::Shard(..) => None,
            })
            .collect();
        let drawn = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
        let params = drawn.param_slices();
        assert!(run.map.parts().len() > params.len(), "no tensor is cut");
        // Every part's `(tensor, first element, frame)`, in part order.
        let part = |p: &Part| {
            let (lo, hi) = (p.lo as usize, p.hi as usize);
            (p.tensor, lo, encode_f32(&params[p.tensor][lo..hi]))
        };
        let want: Vec<_> = run.map.parts().iter().map(part).collect();
        let windows = |m: &WorkerMachine| {
            let mut all = Vec::new();
            for t in 0..params.len() {
                all.extend(m.pulled.frames(t).map(|(lo, d)| (t, lo, d.clone())));
            }
            all
        };
        let ptrs = |m| -> Vec<_> { windows(m).iter().map(|(.., d)| d.as_ptr()).collect() };
        let (members, joiner) = workers.split_at(cfg.workers);
        assert_eq!((members.len(), joiner.len()), (2, 1));
        for m in &workers {
            let held = m.model.param_slices();
            assert!(held.is_empty(), "a worker holds parameters");
        }
        for m in members {
            assert_eq!(windows(m), want, "one window per drawn part");
            assert_eq!(ptrs(m), ptrs(members[0]), "a copy, not the one frame");
        }
        assert!(windows(joiner[0]).is_empty(), "a joiner holds a window");
    }

    #[test]
    fn thread_logs_merge_in_ticket_order() {
        let log = ThreadLog::new(true);
        let mut a = log.clone();
        let mut b = log.clone();
        a.emit(TraceEvent::IterBegin { worker: 0, iter: 0 });
        b.emit(TraceEvent::IterBegin { worker: 1, iter: 0 });
        a.emit(TraceEvent::IterEnd { worker: 0, iter: 0 });
        let mut merged = a.take_events();
        merged.extend(b.take_events());
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
        let mut t = ThreadLog::new(false);
        t.emit(TraceEvent::IterBegin { worker: 0, iter: 0 });
        assert!(t.take_events().is_empty());
    }

    /// A panic in one thread fails the join at once, with that thread's
    /// own message, while another thread still blocks on a channel nobody
    /// feeds.
    #[test]
    fn a_panicked_thread_fails_the_join_at_once() {
        let (feed, starved) = unbounded::<()>();
        let t = Instant::now();
        let panic = std::panic::catch_unwind(|| {
            run_threads(vec![Some(starved), None], |rx| match rx {
                Some(rx) => drop(rx.recv()),
                None => panic!("shard 1 gave up"),
            })
        })
        .expect_err("the join returned without the panic");
        assert!(t.elapsed() < StdDuration::from_secs(1), "{:?}", t.elapsed());
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"shard 1 gave up"));
        drop(feed); // lets the starved thread go
    }

    /// One turn of a machine at `now`: every message its inbox holds while
    /// it asks to receive, then one wake-up — a pause's end, or its inbox
    /// found dry.
    fn turn<M>(
        next: &mut Next,
        rx: &Receiver<M>,
        now: u64,
        mut step: impl FnMut(Option<M>, u64) -> Next,
    ) {
        while let Next::Recv(_) = next {
            let Ok(msg) = rx.try_recv() else { break };
            *next = step(Some(msg), now);
        }
        match *next {
            Next::Done => {}
            Next::Pause(until) if until > now => {}
            _ => *next = step(None, now),
        }
    }

    /// Every machine of `cfg` stepped from this thread, each inbox drained
    /// with `try_recv` in a fixed order, on a counter for a clock.
    fn step_by_hand(cfg: &ThreadedConfig) -> ThreadedResult {
        let (run, mut machines) = build(cfg);
        let mut next = vec![Next::Pause(0); machines.len()];
        let working = |machines: &[Machine], next: &[Next]| {
            let mut workers = machines.iter().zip(next);
            workers.any(|(m, n)| matches!(m, Machine::Worker(..)) && *n != Next::Done)
        };
        let mut now = 0;
        while working(&machines, &next) {
            for (m, next) in machines.iter_mut().zip(&mut next) {
                match m {
                    Machine::Worker(m, rx) => turn(next, rx, now, |msg, t| m.step(msg, t)),
                    Machine::Shard(m, rx) => turn(next, rx, now, |msg, t| m.step(msg, t)),
                }
            }
            now += 1;
            assert!(now < 100_000, "the machines stopped moving");
        }
        finish(&run, machines, Instant::now())
    }

    /// No transition blocks or reads the wall clock: the machines of a
    /// two-worker, two-shard run stepped from one thread compute what the
    /// threaded run computes, bit for bit, under each of the line-up's
    /// schedulers (and pass the invariant checker on the way).
    #[test]
    fn machines_stepped_on_one_thread_compute_the_threaded_answer() {
        for kind in SchedulerKind::paper_lineup(1e9) {
            let cfg = ThreadedConfig {
                ps_shards: 2,
                ..ThreadedConfig::small(2, kind)
            };
            let by_hand = step_by_hand(&cfg);
            let threaded = run_threaded_training(&cfg);
            let bits = |r: &ThreadedResult| {
                let params = r.final_params.iter().flatten().map(|v| v.to_bits());
                let losses = r.losses.iter().map(|v| v.to_bits());
                params.chain(losses).collect::<Vec<u32>>()
            };
            assert_eq!(bits(&by_hand), bits(&threaded), "{:?}", cfg.scheduler);
            assert!(by_hand.events_checked > 0);
        }
    }
}
