//! One worker as a step machine: it takes one message or wake-up at a time,
//! with the instant it is handed, and answers what its serve loop does
//! next ([`Next`]). Compute, the communication rules and the joiner's
//! bootstrap are phases of the one machine.
//!
//! The worker's model is the network's shape only: it holds no parameter.
//! Its parameters are frames it was handed — the drawn model's initial
//! frames for iteration 0, the pull replies after that — each kept as a
//! zero-copy window, whose rows the forward and backward read in place
//! ([`super::pulled`]); nothing decodes a frame into a private copy. A
//! layer's windows are dropped at the end of its backward step, before
//! its gradients are pushed, and the rest when the worker's span ends.

use super::pool::ArenaPool;
use super::pulled::Pulled;
use super::runtime::{
    Next, Run, ThreadLog, ThreadedConfig, ThreadedResult, TimedEvent, WorkerPhases,
};
use super::transport::{CorruptInjector, Link};
use super::wire::{acks_checksum, FrameHeader, FrameWriter, ToPs, ToWorker};
use crate::protocol::{Slice, Step, Windows, Worker};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Sender;
use prophet_core::{CommScheduler, Dir, ShardMap, TransferTask};
use prophet_minidnn::{Backward, GradSink, Mlp};
use prophet_net::RetryPolicy;
use prophet_sim::{Duration as SimDuration, FaultKind, SimTime, TraceEvent, Xoshiro256StarStar};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// A worker's sending side: its gradient payloads, the link they are
/// charged to, the loss and corruption draws every push makes, and the
/// [`Worker`] core whose outbox's tracked sends drive retransmissions.
pub(super) struct Uplink {
    /// Whether any fault machinery is live (empty plan = all paths dormant,
    /// and the worker blocks on `recv` exactly as the fault-free build).
    pub(super) active: bool,
    pub(super) windows: Arc<Windows>,
    link: Link,
    /// Pushes charged to the link and not yet handed over, in charge order
    /// (which is due order).
    queue: VecDeque<Queued>,
    /// This iteration's gradient frames, one frozen buffer per backward
    /// step (last layer first), each from its own pool so steady state
    /// reuses one allocation per layer. Push payloads — originals and
    /// retransmissions alike — are zero-copy windows into them.
    pub(super) bufs: Vec<Option<Bytes>>,
    pools: Vec<ArenaPool>,
    /// `(backward step, byte offset in its buffer)` of every tensor.
    pub(super) grad_at: Vec<(usize, usize)>,
    /// Whole-part payload CRC of every part, streamed during its tensor's
    /// store — a whole-part push (the common case) frames without
    /// re-reading its payload.
    pub(super) part_crc: Vec<u32>,
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
    pub(super) core: Worker,
}

/// A backward step's push frame while the backward writes it: each
/// gradient row lands in the step's pooled buffer as it is finished —
/// little-endian, written once — and each part's whole-payload frame
/// checksum streams from the same bytes while they are L1-hot, closing at
/// each part boundary. No gradient buffer exists besides the frame.
pub(super) struct StepFrame<'a> {
    up: &'a mut Uplink,
    /// The parts the tensors are cut into: where the checksums close.
    map: &'a ShardMap,
    buf: BytesMut,
    writer: FrameWriter,
    /// The tensor being stored, the part its next element falls in, and
    /// the tensor elements stored so far.
    open: Option<(usize, usize, u64)>,
    step: usize,
}

impl StepFrame<'_> {
    /// Close the open part's checksum.
    fn close(&mut self) {
        if let Some((_, p, _)) = self.open.take() {
            self.up.part_crc[p] = self.writer.finish(&mut self.buf);
        }
    }

    /// Freeze the frame: push payloads are windows of it from now on.
    pub(super) fn seal(mut self) {
        self.close();
        self.up.bufs[self.step] = Some(self.buf.freeze());
    }
}

impl GradSink for StepFrame<'_> {
    fn store(&mut self, id: usize, mut vals: &[f32]) {
        if self.open.is_none_or(|(g, _, _)| g != id) {
            self.close();
            self.up.grad_at[id] = (self.step, self.buf.len());
            self.open = Some((id, self.map.parts_of(id).start, 0));
        }
        let (_, p, at) = self.open.as_mut().expect("opened above");
        loop {
            let room = (self.map.parts()[*p].hi - *at) as usize;
            let (now, rest) = vals.split_at(room.min(vals.len()));
            self.writer.push(now, &mut self.buf);
            *at += now.len() as u64;
            if rest.is_empty() {
                return;
            }
            // The part is whole and the tensor goes on: close its checksum.
            self.up.part_crc[*p] = self.writer.finish(&mut self.buf);
            *p += 1;
            vals = rest;
        }
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
    /// The uplink of worker `w` to the shards of `map`, for a model of
    /// tensors of `tensor_elems` elements, differentiated one layer per
    /// backward step.
    pub(super) fn new(
        w: usize,
        cfg: &ThreadedConfig,
        windows: Arc<Windows>,
        map: &ShardMap,
        tensor_elems: &[usize],
    ) -> Self {
        let plan = &cfg.fault_plan;
        let (tensors, steps, shards) = (tensor_elems.len(), cfg.widths.len() - 1, map.shards());
        Uplink {
            active: !plan.is_empty(),
            link: Link::new(cfg.link_bps, Arc::clone(&windows), w, shards),
            queue: VecDeque::new(),
            bufs: vec![None; steps],
            pools: (0..steps).map(|_| ArenaPool::new()).collect(),
            grad_at: vec![(0, 0); tensors],
            part_crc: vec![0; map.parts().len()],
            // Loss draws come from a per-worker substream of the *plan*
            // seed, so two workers never share a doom sequence.
            rng: Xoshiro256StarStar::new(plan.seed ^ 0x7EA1_FA17).substream(w as u64),
            corrupt: CorruptInjector::new(plan, Arc::clone(&windows), (shards + w) as u64),
            tamper_pool: ArenaPool::new(),
            windows,
            retry: cfg.retry,
            core: Worker::new(tensor_elems.iter().map(|&e| e as u64).collect()),
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
    /// pooled buffer, for the backward to store its gradients into, its
    /// checksums closing at `map`'s part boundaries.
    pub(super) fn frame<'a>(
        &'a mut self,
        map: &'a ShardMap,
        step: usize,
        bytes: usize,
    ) -> StepFrame<'a> {
        StepFrame {
            map,
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

/// A pull reply: `(grad, offset_elems, data, frame)`.
type Reply = (usize, usize, Bytes, FrameHeader);

/// Where a worker is in its life.
enum Phase {
    /// Not stepped yet.
    Start,
    /// A joiner fetching the end-of-`from - 1` model: the parts `left` to
    /// land, the `(shard, epoch)` restarts seen meanwhile (acknowledged
    /// once admitted), and the reply, `(grad, offset_elems, data, frame)`,
    /// waiting for its bytes to fall `due`.
    Bootstrap {
        left: usize,
        acks: Vec<(usize, u64)>,
        due: Option<Reply>,
    },
    /// Sleeping out a `WorkerStall` window before the compute.
    Stalled,
    /// Computing: the backward pass, its next push frame, and the tensors
    /// the previous step differentiated, released at the next one.
    Compute {
        pass: Backward,
        step: usize,
        ready: Range<usize>,
    },
    /// Moving bytes until every pull has landed.
    Comm,
    Done,
}

/// One worker: compute shard gradients, release them layer by layer,
/// backward-first, to the scheduler, move bytes as the scheduler dictates,
/// pull updates, repeat. All per-iteration state (gradient buffers,
/// counters, queues) is reset, not reallocated.
///
/// Elastic lifecycle: a worker the plan evicts runs `[0, fail_at)`, opens
/// its eviction epoch, broadcasts [`ToPs::Leave`] and finishes; a joiner
/// stays silent until it has bootstrapped the end-of-`join_at - 1` model
/// via `min_done` pulls, opens its join epoch, then runs `[join_at,
/// iterations)` like any member.
pub(super) struct WorkerMachine {
    w: usize,
    run: Arc<Run>,
    pub(super) model: Mlp,
    sched: Box<dyn CommScheduler>,
    up: Uplink,
    txs: Vec<Sender<ToPs>>,
    phase: Phase,
    /// The iteration in progress, in this worker's span `[from, until)`.
    iter: u64,
    from: u64,
    until: u64,
    /// When the iteration in progress began.
    t_begin: u64,
    /// Current incarnation per shard; updated mid-iteration when a
    /// [`ToWorker::ShardRestarted`] arrives.
    ps_epochs: Vec<u64>,
    /// The pull lookahead: the pull task on the wire, a pull task issued
    /// while it was (requested when it lands; issuing pauses until then),
    /// and the wire one's intact replies, held until it lands.
    pull: Option<PullTask>,
    next_pull: Option<TransferTask>,
    replies: Vec<Reply>,
    /// Per tensor, its parts whose barrier this iteration has closed: the
    /// tensor's parameters may be pulled once all of them have.
    parts_ready: Vec<usize>,
    /// The landed frames, which the next forward and backward read as the
    /// parameters.
    pub(super) pulled: Pulled,
    /// Verify pull replies at receive — only under a corruption plan;
    /// without one the frame CRC is checked as the forward first reads
    /// each window instead of costing its own traversal.
    eager_pull: bool,
    /// Since when the worker has waited on a receive with nothing due.
    waiting: Option<u64>,
    losses: Vec<f32>,
    tlog: ThreadLog,
    phases: WorkerPhases,
    /// This worker's share of the run's counters (bytes pushed, messages
    /// lost, rejected frames, NACK retransmissions).
    out: ThreadedResult,
}

impl WorkerMachine {
    /// Worker `w` of `run`, starting from the windows `pulled` and
    /// sending on `txs` (one channel per shard).
    pub(super) fn new(
        w: usize,
        run: Arc<Run>,
        pulled: Pulled,
        txs: Vec<Sender<ToPs>>,
        tlog: ThreadLog,
    ) -> Self {
        let cfg = &run.cfg;
        let (from, until) = run.mem.span(w);
        let sizes = run.tensor_elems.iter().map(|&n| n as u64 * 4).collect();
        let windows = Arc::clone(&run.windows);
        WorkerMachine {
            w,
            model: Mlp::shape(&cfg.widths),
            sched: cfg.scheduler.build_from_sizes(sizes),
            up: Uplink::new(w, cfg, windows, &run.map, &run.tensor_elems),
            ps_epochs: vec![0; txs.len()],
            txs,
            phase: Phase::Start,
            iter: from,
            from,
            until,
            t_begin: 0,
            pull: None,
            next_pull: None,
            replies: Vec::new(),
            parts_ready: vec![0; run.tensor_elems.len()],
            pulled,
            eager_pull: cfg.fault_plan.has_corruption(),
            waiting: None,
            losses: Vec::with_capacity(until.saturating_sub(from) as usize),
            tlog,
            phases: WorkerPhases::default(),
            out: ThreadedResult::default(),
            run,
        }
    }

    /// This worker's trace and fault node id.
    fn node(&self) -> usize {
        self.ps_epochs.len() + self.w
    }

    /// Take one input — a message, or `None` for a wake-up or an inbox
    /// found dry — at `now`.
    pub(super) fn step(&mut self, msg: Option<ToWorker>, now: u64) -> Next {
        self.tlog.at(now);
        let phase = std::mem::replace(&mut self.phase, Phase::Comm);
        debug_assert!(
            msg.is_none() || matches!(phase, Phase::Bootstrap { .. } | Phase::Comm),
            "a message reached a worker that asked for none"
        );
        match phase {
            Phase::Start if self.from >= self.until => {
                // A joiner scheduled past the horizon: never admitted,
                // forever silent (its announced epoch simply never opens).
                self.done()
            }
            Phase::Start if self.w < self.run.cfg.workers => self.begin_iter(now),
            Phase::Start => {
                // Bootstrap: fetch the end-of-`from - 1` model, one
                // deferred whole-part pull per part, routed by the owner
                // table in force at admission. The shards reply only once
                // each part reflects every update through `from - 1`, so
                // completing the fetch proves every pre-admission barrier
                // closed — which is exactly what lets the join epoch open
                // *after* them in ticket order. Nothing here is traced: a
                // worker outside the membership is silent by contract.
                let n = self.run.map.parts().len();
                (0..n).for_each(|p| self.request_bootstrap(p));
                self.bootstrap(n, Vec::new(), None, None, now)
            }
            Phase::Bootstrap { left, acks, due } => self.bootstrap(left, acks, due, msg, now),
            Phase::Stalled => self.stall(now, true),
            Phase::Compute { pass, step, ready } => {
                let (worker, iter, t) = (self.w, self.iter, SimTime::from_nanos(now));
                for grad in ready.rev() {
                    self.tlog.emit(TraceEvent::GradReady { worker, iter, grad });
                    self.sched.gradient_ready(t, grad);
                }
                self.pump(now);
                if self.model.next_tensors(&pass).is_some() {
                    self.backward(Some(pass), step, now)
                } else {
                    self.advance(now)
                }
            }
            Phase::Comm => {
                if let Some(since) = self.waiting.take() {
                    // Sleeping out a due instant is the link's time, as is
                    // blocking while it still drains charged bytes; only
                    // the rest is a wait on the shards.
                    let link = self.up.link.busy_until();
                    self.phases.wait_ns += now.saturating_sub(since.max(link));
                }
                if let Some(msg) = msg {
                    self.on_message(msg, now);
                }
                if self.up.active {
                    let steps = self.up.core.outbox.tick(now);
                    self.redo(steps, true, now);
                }
                self.advance(now)
            }
            Phase::Done => unreachable!("worker {} stepped after finishing", self.w),
        }
    }

    /// Ask for `len_elems` of `grad` from `offset_elems`, one request per
    /// part the extent touches, each to that part's owner this iteration
    /// and served once it reflects every update through `min_done`
    /// (`None`: at once). Returns the requests made: one reply each.
    fn pull_req(
        &self,
        grad: usize,
        offset_elems: usize,
        len_elems: usize,
        min_done: Option<u64>,
    ) -> usize {
        let owner = self.run.mem.owner_at(self.iter);
        let pieces = self
            .run
            .map
            .split(grad, offset_elems as u64, len_elems as u64);
        let mut n = 0;
        for (p, lo, len) in pieces {
            let req = ToPs::PullReq {
                worker: self.w,
                grad,
                offset_elems: lo as usize,
                len_elems: len as usize,
                min_done,
            };
            self.txs[owner[p]].send(req).expect("ps shard hung up");
            n += 1;
        }
        n
    }

    /// Ask for the whole of part `p` as of the end of iteration `from - 1`.
    fn request_bootstrap(&self, p: usize) {
        let part = self.run.map.parts()[p];
        let (lo, len) = (part.lo as usize, part.elems() as usize);
        self.pull_req(part.tensor, lo, len, Some(self.from - 1));
    }

    /// The joiner's bootstrap phase. A deferred reply is served only once
    /// its barriers close, so it is charged when it arrives — and with
    /// nothing else to do, the joiner pauses until it is due.
    fn bootstrap(
        &mut self,
        mut left: usize,
        mut acks: Vec<(usize, u64)>,
        due: Option<Reply>,
        msg: Option<ToWorker>,
        now: u64,
    ) -> Next {
        if let Some((grad, offset_elems, data, frame)) = due {
            if frame.verify(&data) {
                self.pulled.land(grad, offset_elems, data, frame);
                left -= 1;
            } else {
                // Damaged bootstrap reply: re-request the whole part.
                // Counted but not traced.
                self.out.corrupt_frames_detected += 1;
                self.request_bootstrap(self.run.map.part_at(grad, offset_elems as u64));
            }
        }
        match msg {
            Some(ToWorker::PullData {
                grad,
                offset_elems,
                data,
                frame,
            }) => {
                let at = self.up.link.charge(data.len() as u64, now);
                let due = Some((grad, offset_elems, data, frame));
                self.phase = Phase::Bootstrap { left, acks, due };
                return Next::Pause(at);
            }
            Some(ToWorker::ShardRestarted { shard, epoch }) => {
                // Observe the new incarnation silently; acknowledge it
                // once admitted.
                self.ps_epochs[shard] = epoch;
                acks.push((shard, epoch));
            }
            // Pre-admission ParamReady/ack batches concern barriers this
            // worker is not part of.
            _ => {}
        }
        if left > 0 {
            let due = None;
            self.phase = Phase::Bootstrap { left, acks, due };
            return Next::Recv(None);
        }
        let (kind, worker, from) = (FaultKind::WorkerJoin, self.w, self.from);
        self.run.open_epoch(&mut self.tlog, kind, worker, from);
        for (shard, epoch) in acks {
            self.tlog.emit(TraceEvent::EpochAck {
                worker,
                shard,
                epoch,
            });
        }
        self.begin_iter(now)
    }

    fn begin_iter(&mut self, now: u64) -> Next {
        let (worker, iter) = (self.w, self.iter);
        self.t_begin = now;
        self.tlog.emit(TraceEvent::IterBegin { worker, iter });
        self.sched.iteration_begin(SimTime::from_nanos(now), iter);
        self.stall(now, false)
    }

    /// Pause through any `WorkerStall` window covering `now` (chained:
    /// waking into an overlapping later window extends the stall), then
    /// compute.
    /// `stalled`: this wake ends a stall already traced as begun.
    fn stall(&mut self, now: u64, stalled: bool) -> Next {
        let (kind, node) = (FaultKind::WorkerStall, self.node());
        if let Some(end) = self.up.windows.active_until(kind, &[node], now) {
            if !stalled {
                self.tlog.emit(TraceEvent::FaultStart { kind, node });
            }
            self.phase = Phase::Stalled;
            return Next::Pause(end);
        }
        if stalled {
            self.tlog.emit(TraceEvent::FaultEnd { kind, node });
        }
        self.up.core.begin_iter(self.iter);
        self.parts_ready.fill(0);
        self.up.recycle();
        self.backward(None, 0, now)
    }

    /// This iteration's batch — a rotating window over the dataset — through
    /// the forward and the loss. Windows use the *initial* worker count and
    /// this worker's absolute id: each worker's stream of batches is a pure
    /// function of `(w, iter)`, unchanged by who else is a member.
    fn forward(&mut self) -> Backward {
        let (cfg, data) = (&self.run.cfg, &self.run.dataset);
        let per_worker = cfg.global_batch / cfg.workers;
        let lo = ((self.iter as usize * cfg.global_batch) + self.w * per_worker) % data.len();
        let hi = (lo + per_worker).min(data.len());
        let (x, labels) = data.batch(lo, hi.max(lo + 1));
        let (loss, pass) = self.model.forward_loss(&x, &labels, Some(&mut self.pulled));
        self.losses.push(loss);
        pass
    }

    /// One compute step under the parallelism gate: the forward when `pass`
    /// is `None`, then the next backward layer, which stores its gradients
    /// straight into their push frame. They are released at the next step,
    /// stamped with the instant this one returned, and the link takes them
    /// while the layers below are differentiated. The step is the last to
    /// read the layer's pull windows, so they are dropped here, before the
    /// gradients that close their frames' next barrier are pushed. Time
    /// spent waiting for a permit is contention, not compute, so it lands
    /// in the wait span.
    fn backward(&mut self, pass: Option<Backward>, step: usize, now: u64) -> Next {
        let t_gate = Instant::now();
        self.run.gate.acquire();
        let t_compute = Instant::now();
        self.phases.wait_ns += t_compute.duration_since(t_gate).as_nanos() as u64;
        let mut pass = pass.unwrap_or_else(|| self.forward());
        let ids = self.model.next_tensors(&pass).expect("pass spent");
        let step_bytes: usize = ids.clone().map(|g| self.run.tensor_elems[g] * 4).sum();
        let t_open = Instant::now();
        let mut frame = self.up.frame(&self.run.map, step, step_bytes);
        let t_backward = Instant::now();
        self.model
            .backward_step(&mut pass, &mut frame, Some(&mut self.pulled));
        let t_seal = Instant::now();
        frame.seal();
        let t_sealed = Instant::now();
        self.pulled.release(ids.clone());
        self.run.gate.release();
        let span = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        self.phases.compute_ns += span(t_compute, t_open) + span(t_backward, t_seal);
        self.phases.encode_ns += span(t_open, t_backward) + span(t_seal, t_sealed);
        self.phases.store_bytes += step_bytes as u64;
        self.phases.encode_bytes += step_bytes as u64;
        self.phase = Phase::Compute {
            pass,
            step: step + 1,
            ready: ids,
        };
        Next::Pause(now)
    }

    /// Move what can move, then answer. The pull on the wire lands once its
    /// replies are in and its bytes are due — requesting the next before
    /// landing this one. Otherwise receive until the next due instant or (with
    /// live fault machinery) the earliest ack deadline, so retransmissions
    /// fire even when the shards have gone quiet — the very situation a
    /// lost message creates. With nothing charged and no tracked slices,
    /// every event that can move this worker arrives as a message, so the
    /// receive blocks outright.
    fn advance(&mut self, now: u64) -> Next {
        if self.up.core.all_landed() {
            return self.end_iter(now);
        }
        self.pump(now);
        let landing = self.pull.as_ref().filter(|p| p.awaiting == 0);
        if landing.is_some_and(|p| p.due <= now) {
            self.land(now);
            // Carry on at once, on a fresh reading of the clock.
            return Next::Pause(now);
        }
        let landing = landing.map(|p| p.due);
        let pacing = self.up.next_due().into_iter().chain(landing).min();
        let mut wake = pacing;
        if self.up.active {
            let ack = match self.up.core.outbox.next_deadline() {
                Some(d) => d.max(now + 50_000),
                None => now + 20_000_000,
            };
            wake = Some(wake.map_or(ack, |w| w.min(ack)));
        }
        if pacing.is_none() {
            self.waiting = Some(now);
        }
        Next::Recv(wake)
    }

    /// The pull on the wire has landed: report it, put the next one on the
    /// wire, and keep its replies as the parameters the next forward reads.
    fn land(&mut self, now: u64) {
        let t = SimTime::from_nanos(now);
        let landed = self.pull.take().expect("landing without a pull").task;
        self.sched.task_done(t, &landed);
        if let Some(next) = self.next_pull.take() {
            self.request(next, now);
        }
        self.pump(now);
        let (worker, iter) = (self.w, self.iter);
        let mut replies = std::mem::take(&mut self.replies);
        for (grad, offset_elems, data, frame) in replies.drain(..) {
            let t_land = Instant::now();
            let len_elems = data.len() / 4;
            self.pulled.land(grad, offset_elems, data, frame);
            self.phases.apply_ns += t_land.elapsed().as_nanos() as u64;
            if let Some(done) = self.up.core.land(grad, len_elems as u64) {
                if let Some(attempts) = done.recovered {
                    self.tlog.emit(TraceEvent::Recovered {
                        worker,
                        iter,
                        grad,
                        attempts,
                    });
                }
                self.tlog.emit(TraceEvent::PullEnd { worker, iter, grad });
            }
        }
        self.replies = replies;
    }

    fn end_iter(&mut self, now: u64) -> Next {
        let (worker, iter, t) = (self.w, self.iter, SimTime::from_nanos(now));
        self.tlog.emit(TraceEvent::IterEnd { worker, iter });
        let took = t.saturating_since(SimTime::from_nanos(self.t_begin));
        self.sched.iteration_end(t, iter, took);
        self.iter += 1;
        if self.iter < self.until {
            return self.begin_iter(now);
        }
        // Nothing reads the last pull: let go of its frames, so an evicted
        // worker pins none of them past the barrier that reclaims them.
        self.pulled.release(0..self.run.tensor_elems.len());
        if self.run.mem.leaves_at(self.w).is_some() {
            // This worker's last iteration is behind it: open the eviction
            // epoch, then tell every shard — barriers for iterations beyond
            // `until - 1` are gated on these Leave notices, which is what
            // orders them after the MembershipChange.
            let (kind, until) = (FaultKind::WorkerFail, self.until);
            self.run.open_epoch(&mut self.tlog, kind, worker, until);
            for tx in &self.txs {
                // A shard may already have exited if every surviving
                // worker finished first.
                let _ = tx.send(ToPs::Leave { worker });
            }
        }
        self.done()
    }

    /// Finish, letting go of the shards' inboxes: they hang up once every
    /// worker has.
    fn done(&mut self) -> Next {
        self.txs.clear();
        self.phase = Phase::Done;
        Next::Done
    }

    fn on_message(&mut self, msg: ToWorker, now: u64) {
        let (worker, iter, node) = (self.w, self.iter, self.node());
        match msg {
            ToWorker::ParamReady { part, epoch } => {
                self.tlog.emit(TraceEvent::ParamReady {
                    worker,
                    grad: part,
                    epoch,
                });
                // The barrier proves every slice of the part arrived,
                // whatever acks are still behind this message in the
                // channel — and that any retransmission of it still queued
                // is moot.
                let p = self.run.map.parts()[part];
                let (grad, lo, hi) = (p.tensor, p.lo, p.hi);
                self.up.core.outbox.settled(iter, grad, lo, hi);
                self.up.queue.retain(|q| {
                    let inside = q.grad == grad && (lo..hi).contains(&(q.offset_elems as u64));
                    debug_assert!(
                        !inside || q.task.is_none(),
                        "an original push outlived its barrier"
                    );
                    !inside
                });
                self.parts_ready[grad] += 1;
                if self.parts_ready[grad] < self.run.map.parts_of(grad).len() {
                    return;
                }
                // Every part of the tensor is in: it is delivered.
                if let Some(attempts) = self.up.core.outbox.delivered(iter, grad) {
                    self.tlog.emit(TraceEvent::Recovered {
                        worker,
                        iter,
                        grad,
                        attempts,
                    });
                }
                self.sched.param_ready(SimTime::from_nanos(now), grad);
            }
            ToWorker::PushAcks { acks, crc } => {
                if acks_checksum(&acks) != crc {
                    // The batch checksum fails: any ack in it may be
                    // forged, so trust none. The slices it covered are
                    // already folded (ParamReady supersedes them) or will
                    // retransmit once a full timeout has passed.
                    self.out.corrupt_frames_detected += 1;
                    self.tlog.emit(TraceEvent::FrameCorrupt {
                        node,
                        bytes: (acks.len() * 40) as u64,
                        data: false,
                    });
                    let until = now + self.up.retry.timeout.as_nanos();
                    self.up.core.outbox.acks_untrusted(until);
                } else {
                    for a in &acks {
                        self.up.core.outbox.acked(*a);
                    }
                }
            }
            ToWorker::PushNack { nack } => {
                // The shard detected a damaged or quarantined push slice.
                // Retransmit it from the clean layer buffer — unless the
                // outbox no longer tracks it (a previous iteration, or the
                // barrier closed over an intact duplicate).
                let steps = self.up.core.outbox.nacked(nack);
                self.out.nack_retransmit_bytes += if steps.is_empty() { 0 } else { nack.len * 4 };
                self.redo(steps, false, now);
            }
            ToWorker::PullData {
                grad,
                offset_elems,
                data,
                frame,
            } => {
                let pull = self.pull.as_mut().expect("pull data without request");
                if !self.eager_pull || frame.verify(&data) {
                    pull.awaiting -= 1;
                    self.replies.push((grad, offset_elems, data, frame));
                    return;
                }
                // Damaged parameter slice: nothing lands in the model.
                // Re-request exactly this window; the shard's cached
                // encoding serves it bit-exactly, and the link carries it
                // again.
                pull.due = self.up.link.charge(frame.len as u64, now);
                self.out.corrupt_frames_detected += 1;
                self.tlog.emit(TraceEvent::FrameCorrupt {
                    node,
                    bytes: frame.len as u64,
                    data: true,
                });
                if let Some(attempt) = self.up.core.outbox.fail(iter, grad, Dir::Pull) {
                    self.tlog.emit(TraceEvent::RetryAttempt {
                        worker,
                        iter,
                        grad,
                        attempt,
                    });
                }
                if self.up.core.outbox.restamp(iter, grad, Dir::Pull) {
                    self.tlog.emit(TraceEvent::PullStart { worker, iter, grad });
                }
                self.pull_req(grad, offset_elems, frame.len as usize / 4, None);
            }
            ToWorker::ShardRestarted { shard, epoch } => {
                // One shard lost its aggregation state. Re-push every slice
                // addressed to IT that no barrier has settled —
                // acknowledged or not — to the new incarnation: slice by
                // slice, so a split tensor re-sends only the restarted
                // shard's part. The scheduler is NOT consulted — it
                // already accounted for these bytes; this is
                // transport-level recovery.
                self.ps_epochs[shard] = epoch;
                self.tlog.emit(TraceEvent::EpochAck {
                    worker,
                    shard,
                    epoch,
                });
                let (owner, map) = (self.run.mem.owner_at(iter), &self.run.map);
                let lost = |s: &Slice| owner[map.part_at(s.tensor, s.offset)] == shard;
                let steps = self.up.core.outbox.restarted(lost);
                self.redo(steps, false, now);
            }
        }
    }

    /// Move everything that can move without waiting: issue tasks until the
    /// scheduler pauses, hand over every charged push that is due, and go
    /// round again while a hand-over completes a task (which may free the
    /// scheduler's next). A push task is charged slice by slice and
    /// completes at its last slice's hand-over. A pull task is requested at
    /// once when no other pull is on the wire, and otherwise waits as
    /// `next_pull`, pausing issue until it goes out.
    fn pump(&mut self, now: u64) {
        let t = SimTime::from_nanos(now);
        loop {
            while self.next_pull.is_none() {
                let Some(task) = self.sched.next_task(t) else {
                    break;
                };
                match task.dir {
                    Dir::Push => {
                        let (worker, iter) = (self.w, self.iter);
                        for &(grad, b) in &task.pieces {
                            let elems = (b / 4) as usize;
                            let (off, stamp) = self.up.core.issue(Dir::Push, grad, elems as u64);
                            if stamp {
                                self.tlog.emit(TraceEvent::PushStart { worker, iter, grad });
                            }
                            let off = off as usize;
                            let stretch = SimDuration::ZERO;
                            self.up.charge_push(now, grad, off, elems, stretch);
                        }
                        let last = self.up.queue.back_mut().expect("push task without pieces");
                        last.task = Some(task);
                    }
                    Dir::Pull if self.pull.is_none() => self.request(task, now),
                    Dir::Pull => self.next_pull = Some(task),
                }
            }
            let mut freed = false;
            while let Some(q) = self.up.take_due(now) {
                self.hand_over(&q, now);
                if let Some(task) = q.task {
                    self.sched.task_done(t, &task);
                    freed = true;
                }
            }
            if !freed {
                return;
            }
        }
    }

    /// Request `task`'s windows and charge their bytes to the link: the
    /// shards serve pulls from an encoding cached at barrier time, so the
    /// link paces the replies from now.
    fn request(&mut self, task: TransferTask, now: u64) {
        let (worker, iter, mut due) = (self.w, self.iter, now);
        let mut awaiting = 0;
        for &(grad, b) in &task.pieces {
            let len_elems = (b / 4) as usize;
            let (offset, stamp) = self.up.core.issue(Dir::Pull, grad, len_elems as u64);
            if stamp {
                self.tlog.emit(TraceEvent::PullStart { worker, iter, grad });
            }
            awaiting += self.pull_req(grad, offset as usize, len_elems, None);
            due = self.up.link.charge(b, now);
        }
        self.pull = Some(PullTask {
            task,
            awaiting,
            due,
        });
    }

    /// Hand one charged slice over at `now`, cut at the part boundaries:
    /// for each piece, draw its fate against the loss and corruption
    /// windows, transmit it (unless lost) to the current incarnation of its
    /// part's shard, and track it in the outbox with an ack deadline
    /// `stretch` past the policy's timeout, counted from now. The *set* of
    /// damaged messages depends on real-time scheduling (windows are
    /// wall-clock); what is computed stays bit-identical because every
    /// failure is retried and aggregation is order-independent per worker.
    fn hand_over(&mut self, q: &Queued, now: u64) {
        let (up, run) = (&mut self.up, &self.run);
        let grad = q.grad;
        self.out.bytes_pushed += (q.len_elems * 4) as u64;
        let owner = run.mem.owner_at(self.iter);
        let pieces = run
            .map
            .split(grad, q.offset_elems as u64, q.len_elems as u64);
        for (p, offset, len) in pieces {
            let shard = owner[p];
            let slice = Slice {
                iter: self.iter,
                tensor: grad,
                offset,
                len,
                epoch: self.ps_epochs[shard],
            };
            let fate = up.windows.send_fate(now, |kind| match kind {
                FaultKind::MsgLoss => up.rng.next_f64(),
                _ => up.corrupt.rng.next_f64(),
            });
            if fate == Some(FaultKind::MsgLoss) {
                self.out.messages_lost += 1;
            } else {
                let (step, at) = up.grad_at[grad];
                let lo = at + offset as usize * 4;
                let buf = up.bufs[step]
                    .as_ref()
                    .expect("push before its layer's backward");
                let clean = buf.slice(lo..lo + len as usize * 4);
                // Damage lands on a pooled copy: the clean window stays
                // pristine for any later retransmission.
                let part = run.map.parts()[p];
                let (data, frame) = if fate.is_some() {
                    let style = up.corrupt.style(true);
                    up.corrupt.tamper(style, &clean, &mut up.tamper_pool)
                } else if (offset, len) == (part.lo, part.elems()) {
                    let (len, crc) = (clean.len() as u32, up.part_crc[p]);
                    (clean, FrameHeader { len, crc })
                } else {
                    let frame = FrameHeader::for_payload(&clean);
                    (clean, frame)
                };
                let push = ToPs::Push {
                    worker: self.w,
                    slice,
                    data,
                    frame,
                };
                self.txs[shard].send(push).expect("ps shard hung up");
            }
            if up.active {
                let deadline = now + (up.retry.timeout + q.stretch).as_nanos();
                up.core.outbox.sent(slice, deadline);
            }
        }
    }

    /// Carry out what the outbox asked for: trace each retry step, re-stamp
    /// the push start a failed attempt voided, and charge each slice again —
    /// its retransmission re-slices the layer buffer, copying nothing.
    /// `backoff` stretches the re-sent slices' next ack deadline by the
    /// policy's exponential delay (the timeout path; the simulator backs the
    /// lane off instead).
    fn redo(&mut self, steps: Vec<Step>, backoff: bool, now: u64) {
        let (worker, iter) = (self.w, self.iter);
        for step in steps {
            match step {
                Step::Retry { tensor, attempt } => self.tlog.emit(TraceEvent::RetryAttempt {
                    worker,
                    iter,
                    grad: tensor,
                    attempt,
                }),
                Step::Resend(s, attempt) => {
                    let grad = s.tensor;
                    if self.up.core.outbox.restamp(iter, grad, Dir::Push) {
                        self.tlog.emit(TraceEvent::PushStart { worker, iter, grad });
                    }
                    let stretch = self.up.retry.delay(if backoff { attempt } else { 0 });
                    let (off, len) = (s.offset as usize, s.len as usize);
                    self.up.charge_push(now, grad, off, len, stretch);
                }
            }
        }
    }

    /// Fold this finished worker's losses, counters, phase spans and trace
    /// into the run's result. Panics if its serve loop returned before it
    /// finished: the shards hung up mid-iteration.
    pub(super) fn finish(mut self, r: &mut ThreadedResult, events: &mut Vec<TimedEvent>) {
        assert!(
            matches!(self.phase, Phase::Done),
            "worker {}: ps hung up mid-iteration",
            self.w
        );
        for (j, l) in self.losses.iter().enumerate() {
            let i = self.from + j as u64;
            r.losses[i as usize] += l / self.run.mem.expected(i) as f32;
        }
        for pool in &self.up.pools {
            self.out.arena_allocs += pool.allocated;
            self.out.arena_recycles += pool.recycled;
        }
        r.add_counters(&self.out);
        let (sum, p) = (&mut r.worker_phases, self.phases);
        sum.compute_ns += p.compute_ns;
        sum.encode_ns += p.encode_ns;
        sum.apply_ns += p.apply_ns;
        sum.wait_ns += p.wait_ns;
        sum.store_bytes += p.store_bytes;
        sum.encode_bytes += p.encode_bytes;
        sum.apply_bytes += self.pulled.assembled_bytes;
        sum.param_read_bytes += self.pulled.read_bytes;
        events.extend(self.tlog.take_events());
    }
}

#[cfg(test)]
mod tests {
    use super::super::runtime::{build, Machine};
    use super::*;
    use prophet_core::SchedulerKind;
    use prophet_sim::{Duration, FaultPlan, FaultSpec};

    const MS: u64 = 1_000_000;

    /// Two overlapping `WorkerStall` windows are one stall: one
    /// `FaultStart`, one `FaultEnd`, and the worker pauses until the later
    /// window closes — on a hand-fed clock, with nothing slept.
    #[test]
    fn overlapping_stalls_pause_once_until_the_later_end() {
        let stall = |at: u64, dur: u64| FaultSpec::WorkerStall {
            worker: 0,
            at: SimTime::from_nanos(at * MS),
            dur: Duration::from_millis(dur),
        };
        let cfg = ThreadedConfig {
            fault_plan: FaultPlan::new(vec![stall(1, 4), stall(3, 6)]),
            ..ThreadedConfig::small(1, SchedulerKind::Fifo)
        };
        let (_, mut machines) = build(&cfg);
        let Machine::Worker(m, _) = &mut machines[1] else {
            panic!("one shard, then one worker")
        };
        assert_eq!(m.step(None, MS), Next::Pause(5 * MS));
        assert_eq!(m.step(None, 5 * MS), Next::Pause(9 * MS));
        // Out of the stall: the first compute step runs and returns at once.
        assert_eq!(m.step(None, 9 * MS), Next::Pause(9 * MS));
        let events = m.tlog.take_events();
        let faults: Vec<_> = events
            .into_iter()
            .filter_map(|(_, at, ev)| match ev {
                TraceEvent::FaultStart { kind, node } => Some(("start", kind, node, at)),
                TraceEvent::FaultEnd { kind, node } => Some(("end", kind, node, at)),
                _ => None,
            })
            .collect();
        let (kind, node) = (FaultKind::WorkerStall, 1);
        let at = |ms| SimTime::from_nanos(ms * MS);
        assert_eq!(
            faults,
            [("start", kind, node, at(1)), ("end", kind, node, at(9))]
        );
    }
}
