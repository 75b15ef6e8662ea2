//! One parameter-server shard as a step machine: it takes one message or
//! wake-up at a time, with the instant it is handed, and answers what its
//! serve loop does next ([`Next`]).

use super::checkpoint::DurableCopy;
use super::fold::{self, StagedSlice};
use super::pool::ArenaPool;
use super::runtime::{Next, Run, ShardPhases, ThreadLog, ThreadedResult, TimedEvent, PS_MOMENTUM};
use super::transport::CorruptInjector;
use super::wire::{
    acks_checksum, check_push, encode_f32_into_crc, FrameHeader, PushCheck, ToPs, ToWorker,
};
use crate::protocol::{Arrival, Barriers, CheckpointSchedule, Slice, Window};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Sender;
use prophet_minidnn::{Mlp, Sgd};
use prophet_sim::{FaultKind, TraceEvent};
use std::sync::Arc;
use std::time::Instant;

/// Per-part pull-reply cache: parameters are encoded once per update and
/// every pull (any worker, any slice) is served as a shared window of that
/// one buffer. `spare` is the reclaimed storage awaiting re-encode.
#[derive(Default)]
struct PullCache {
    wire: Option<Bytes>,
    spare: Option<BytesMut>,
    /// The last served window's `(offset_elems, len_elems)` frame header,
    /// offsets relative to the part: in steady state every worker pulls
    /// the same whole-part window, so the reply checksum is computed once
    /// per update, not once per pull.
    frame: Option<(usize, usize, FrameHeader)>,
}

/// One part a shard ever owns: an initial member, or one adopted at a
/// later membership epoch.
struct Local {
    /// Its part id, and the elements `[lo, lo + len)` of its tensor it
    /// covers.
    p: usize,
    lo: usize,
    len: usize,
    /// First iteration it is owned from (0 for an initial member).
    from: u64,
    /// For an adopted part, the dead shard it re-homed off (`usize::MAX`
    /// for an initial member).
    adopted_from: usize,
    /// Parameters and optimiser state: empty and `None` until an adopted
    /// part is restored. The part's own `Sgd` (stepped as tensor 0) is
    /// bit-identical to one per tensor, its velocity being per element,
    /// and it travels with the part to an adopting shard.
    params: Vec<f32>,
    opt: Option<Sgd>,
    /// The payload slices behind its open barrier, per worker, offsets
    /// relative to the part. BSP admits one open barrier per part at a
    /// time.
    staged: Vec<Vec<StagedSlice>>,
    pull: PullCache,
}

const ACK_FLUSH_CAP: usize = 64;

/// A pull request waiting for its part to reach `min_done` (a joiner's
/// bootstrap pull racing the barriers it depends on).
#[derive(Clone, Copy)]
struct DeferredPull {
    worker: usize,
    grad: usize,
    offset_elems: usize,
    len_elems: usize,
    min_done: u64,
}

/// One parameter-server shard: aggregation barriers for its member parts,
/// optimiser steps, batched acks, cached pull service — plus the elastic
/// lifecycle (permanent death, part adoption from the durable store,
/// membership-aware barriers). Every per-owner structure is per part: a
/// tensor split across shards is, on each, just a shorter tensor.
///
/// Barriers finish **inline** in the push handler the moment the last
/// slice lands. The only other completion enabler is a departing worker's
/// [`ToPs::Leave`] notice (a fully-arrived barrier may be gated on it so
/// its trace event follows the eviction epoch), so the full completion
/// sweep runs only when a `Leave` arrives — not after every message.
pub(super) struct ShardMachine {
    s: usize,
    run: Arc<Run>,
    /// Every part this shard ever owns, sorted by part id.
    locals: Vec<Local>,
    /// The iteration this shard permanently dies at, when the plan kills
    /// it before the run ends.
    die_at: Option<u64>,
    dead: bool,
    /// This shard's time-triggered `ShardCrash` windows, earliest first,
    /// and how many of them have struck.
    crashes: Vec<Window>,
    crashed: usize,
    /// Down for a crash's downtime, holding the message it was handed when
    /// the crash struck; served once the shard is back.
    down: Option<Option<ToPs>>,
    /// The barrier ledger of the local parts, in elements: what arrived,
    /// what may close, what a crash voids. Closed barriers survive
    /// crashes, like the applied updates.
    barriers: Barriers,
    deferred: Vec<DeferredPull>,
    pending: Vec<Vec<Slice>>,
    pending_total: usize,
    /// This shard's corruption injector (node id `s`): damages outgoing
    /// pull replies and ack batches per the plan's `PayloadCorrupt`
    /// windows.
    corrupt: CorruptInjector,
    /// Scratch pool for tampered payload copies (the cached pull encoding
    /// must stay clean for the retransmission to serve from).
    tamper_pool: ArenaPool,
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
    cur_epoch: u64,
    worker_txs: Vec<Sender<ToWorker>>,
    /// The instant of the step being taken (ns since run start).
    now: u64,
    /// Since when the shard has waited on an inbox it found dry.
    idle_since: Option<u64>,
    tlog: ThreadLog,
    phases: ShardPhases,
    /// This shard's share of the run's counters (pull-cache buffers,
    /// ack batches, restores, rejected frames).
    out: ThreadedResult,
}

impl ShardMachine {
    /// Shard `s` of `run`, serving the parts it ever owns: initial members
    /// start from `model`'s parameters, adopted ones materialise from the
    /// durable store on first touch.
    pub(super) fn new(
        s: usize,
        run: Arc<Run>,
        model: &Mlp,
        worker_txs: Vec<Sender<ToWorker>>,
        tlog: ThreadLog,
    ) -> Self {
        let (cfg, mem) = (&run.cfg, &run.mem);
        let (owner_epochs, workers) = (mem.owner_epochs(), mem.total_workers());
        let parts = run.map.parts().iter().enumerate();
        let locals: Vec<Local> = parts
            .filter_map(|(p, part)| {
                let idx = owner_epochs.iter().position(|(_, table)| table[p] == s)?;
                let (g, lo, hi) = (part.tensor, part.lo as usize, part.hi as usize);
                let initial = idx == 0;
                Some(Local {
                    p,
                    lo,
                    len: hi - lo,
                    from: owner_epochs[idx].0,
                    adopted_from: idx
                        .checked_sub(1)
                        .map_or(usize::MAX, |i| owner_epochs[i].1[p]),
                    params: if initial {
                        model.param_slices()[g][lo..hi].to_vec()
                    } else {
                        Vec::new()
                    },
                    opt: initial.then(|| Sgd::new(cfg.lr, PS_MOMENTUM, &[hi - lo])),
                    staged: vec![Vec::new(); workers],
                    pull: PullCache::default(),
                })
            })
            .collect();
        let sizes = locals.iter().map(|t| t.len as u64);
        ShardMachine {
            s,
            pending: vec![Vec::new(); workers],
            barriers: Barriers::new(workers, sizes.collect()),
            locals,
            corrupt: CorruptInjector::new(&cfg.fault_plan, Arc::clone(&run.windows), s as u64),
            tamper_pool: ArenaPool::new(),
            eager_verify: cfg.fault_plan.has_corruption(),
            acks_enabled: !cfg.fault_plan.is_empty(),
            ckpt: CheckpointSchedule::new(&cfg.fault_plan, s, cfg.checkpoint_period),
            die_at: mem.shard_dies_at(s),
            dead: false,
            crashes: run.windows.schedule(FaultKind::ShardCrash, &[s]),
            crashed: 0,
            down: None,
            deferred: Vec::new(),
            pending_total: 0,
            cur_epoch: 0,
            worker_txs,
            now: 0,
            idle_since: None,
            tlog,
            phases: ShardPhases::default(),
            out: ThreadedResult::default(),
            run,
        }
    }

    /// Take one input — a message, or `None` for a wake-up or an inbox
    /// found dry — at `now`. Acks flush the moment the inbox runs dry, or
    /// at [`ACK_FLUSH_CAP`]; the shard receives no later than its next
    /// scheduled crash, so an idle channel cannot postpone it.
    pub(super) fn step(&mut self, msg: Option<ToPs>, now: u64) -> Next {
        self.now = now;
        self.tlog.at(now);
        self.idle_until(now);
        let msg = match self.down.take() {
            Some(held) => {
                self.restart();
                held
            }
            None => match self.crashes.get(self.crashed) {
                Some(crash) if now >= crash.start => {
                    self.down = Some(msg);
                    return Next::Pause(self.crash());
                }
                _ => msg,
            },
        };
        match msg {
            Some(msg) => {
                self.phases.msgs += 1;
                self.on_message(msg);
                if self.pending_total >= ACK_FLUSH_CAP {
                    self.flush_acks();
                }
            }
            None => {
                self.flush_acks();
                self.idle_since = Some(now);
            }
        }
        Next::Recv(self.crashes.get(self.crashed).map(|c| c.start))
    }

    fn on_message(&mut self, msg: ToPs) {
        match msg {
            ToPs::Push {
                worker,
                slice,
                data,
                frame,
            } => self.on_push(worker, slice, data, frame),
            // An ordinary pull is causally behind the ParamReady that made
            // the tensor current — serve it at once.
            ToPs::PullReq {
                worker,
                grad,
                offset_elems,
                len_elems,
                min_done: None,
            } => self.serve_pull(worker, grad, offset_elems, len_elems),
            ToPs::PullReq {
                worker,
                grad,
                offset_elems,
                len_elems,
                min_done: Some(min_done),
            } => {
                self.deferred.push(DeferredPull {
                    worker,
                    grad,
                    offset_elems,
                    len_elems,
                    min_done,
                });
                self.drain_deferred();
            }
            ToPs::Leave { worker } => {
                // A Leave can unblock fully-arrived barriers gated on the
                // eviction epoch — the one completion enabler the inline
                // push-path check cannot see, and the only event that
                // still pays for a full sweep.
                let t_sweep = Instant::now();
                for (iter, l) in self.barriers.leave(&self.run.mem, worker) {
                    self.finish_barrier(l, iter);
                }
                self.phases.sweep_ns += t_sweep.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Local slot index of the ever-owned part holding element `elem` of
    /// tensor `g`.
    fn local(&self, g: usize, elem: usize) -> usize {
        let p = self.run.map.part_at(g, elem as u64);
        self.locals
            .binary_search_by_key(&p, |t| t.p)
            .unwrap_or_else(|_| panic!("part {p} of tensor {g} never owned by shard {}", self.s))
    }

    /// Number of locals owned during iteration `iter` — the barrier count
    /// that closes the iteration on this shard.
    fn owned_count_at(&self, iter: u64) -> usize {
        self.locals.iter().filter(|t| t.from <= iter).count()
    }

    /// Materialise an adopted part from the durable store: bit-exact
    /// snapshot + ledger replay, then announce the re-home.
    fn ensure_restored(&mut self, l: usize) {
        let t = &mut self.locals[l];
        if t.opt.is_some() {
            return;
        }
        let (p, from) = (t.p, t.adopted_from);
        let r = self.run.store.restore(p);
        (t.params, t.opt) = (r.params, Some(r.opt));
        self.barriers.adopt(l, r.upto);
        self.out.restore_bytes += r.bytes;
        if r.depth > 0 {
            // The newest snapshot generation(s) failed verification; we
            // fell back to an older intact one and replayed a longer
            // ledger suffix.
            self.out.restore_fallbacks += 1;
            self.out.fallback_depth += r.depth;
            self.tlog.emit(TraceEvent::RestoreFallback {
                shard: from,
                depth: r.depth,
            });
        }
        self.tlog.emit(TraceEvent::Rehome {
            grad: p,
            from,
            to: self.s,
        });
        self.drain_deferred();
    }

    /// The next scheduled crash strikes: the shard loses its aggregation
    /// RAM (parameters/optimiser state persist, like the durable store) and
    /// opens its next epoch. Returns the window's end, when it restarts.
    fn crash(&mut self) -> u64 {
        self.crashed += 1;
        self.cur_epoch += 1;
        let (kind, node) = (FaultKind::ShardCrash, self.s);
        self.tlog.emit(TraceEvent::FaultStart { kind, node });
        for (_, l, worker, _) in self.barriers.wipe(|_| true) {
            // Drops the staged arena references.
            self.locals[l].staged[worker].clear();
        }
        self.crashes[self.crashed - 1].end
    }

    /// Back from a crash: announce the new epoch and tell every worker to
    /// re-push its unacknowledged gradients.
    fn restart(&mut self) {
        let (kind, shard, epoch) = (FaultKind::ShardCrash, self.s, self.cur_epoch);
        self.tlog.emit(TraceEvent::FaultEnd { kind, node: shard });
        self.tlog.emit(TraceEvent::EpochAdvance { shard, epoch });
        for tx in &self.worker_txs {
            // A worker that already left the membership (or finished) is
            // entitled to be gone.
            let _ = tx.send(ToWorker::ShardRestarted { shard, epoch });
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
        self.phases.push_bytes += data.len() as u64;
        if ack.epoch != self.cur_epoch {
            // A pre-crash push that raced the restart broadcast.
            return;
        }
        let iter = ack.iter;
        let l = self.local(ack.tensor, ack.offset as usize);
        let (grad, offset) = (self.locals[l].p, ack.offset as usize - self.locals[l].lo);
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
            "push for (iter {iter}, part {grad}) reached shard {} after its death",
            self.s
        );
        let t_verify = Instant::now();
        if self.eager_verify {
            // Nothing corrupt is ever staged: a rejected slice is nacked
            // and the worker retransmits it from its clean buffer.
            let rejected = match check_push(&data, &frame) {
                PushCheck::Corrupt => {
                    // Checksum or length mismatch: damaged in flight.
                    self.out.corrupt_frames_detected += 1;
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
                    self.out.nan_quarantined += 1;
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
            "push for part {grad} skipped the BSP barrier"
        );
        let arrival =
            self.barriers
                .arrive(&self.run.mem, iter, l, worker, Some(offset as u64), ack.len);
        // A duplicate (a retransmission raced the ack) is acknowledged and
        // dropped like everything else the ledger did not refuse.
        self.queue_ack(worker, ack);
        if matches!(arrival, Arrival::Staged | Arrival::WorkerDone { .. }) {
            // Zero-copy staging: the wire slice itself is the staged
            // gradient; nothing is decoded until the barrier.
            let staged = &mut self.locals[l].staged[worker];
            staged.push((offset, data, frame.crc));
        }
        if let Arrival::WorkerDone { closes } = arrival {
            self.tlog.emit(TraceEvent::PushEnd { worker, iter, grad });
            if closes {
                self.finish_barrier(l, iter);
            }
        }
    }

    /// The BSP barrier for local part `l` is complete: fold the staged
    /// wire slices in fixed worker order (bit-identical to the
    /// single-shard and single-process sums), step the optimiser and
    /// re-encode the pull frame in one [`fold::barrier_pass`], record the
    /// update in the durable ledger, run the iteration-close bookkeeping
    /// (checkpoint cadence, this shard's own death), and notify the
    /// iteration's members.
    fn finish_barrier(&mut self, l: usize, iter: u64) {
        let (p, size) = (self.locals[l].p, self.locals[l].len);
        // The pass runs under the cache-residency gate: it walks every
        // staged payload plus the parameters, optimiser state and pull
        // frame, and interleaving it with another thread's compute or
        // fold re-fetches all of it from DRAM. Released before the
        // ParamReady broadcast — the rare cold pull in `drain_deferred`
        // takes its own token inside `serve_pull` (the gate is not
        // reentrant). The wait lands in `idle_ns`, keeping the pass's
        // spans pure work.
        let gated = self.run.gate.enter(size * 4, &mut self.phases.idle_ns);
        // The cached pull encoding goes stale with this update: reclaim
        // its storage (every member applied its windows before pushing the
        // gradients this barrier closes) and let the pass re-encode into
        // it, block by block, while the optimiser's writes are L1-hot.
        // Every worker pulls every update, so the encode is never wasted.
        let cache = &mut self.locals[l].pull;
        cache.frame = None;
        if let Some(b) = cache.wire.take() {
            cache.spare = b.try_into_mut().ok();
        }
        let mut pull = self.pull_buffer(l);
        let store = &self.run.store;
        let checkpoint_due = store.armed() && self.ckpt.due(iter);
        let mut mean = store.armed().then(|| DurableCopy::with_capacity(size));
        let mut snapshot = checkpoint_due.then(|| DurableCopy::with_capacity(size));
        let t = &mut self.locals[l];
        let crc = fold::barrier_pass(
            fold::Barrier {
                staged: &mut t.staged,
                inv: 1.0 / self.run.mem.expected(iter) as f32,
                params: &mut t.params,
                opt: t.opt.as_mut().expect("barrier on unrestored part"),
                mean: mean.as_mut(),
                snapshot: snapshot.as_mut(),
                pull: &mut pull,
            },
            &mut self.phases,
        );
        if let Some(mean) = mean {
            store.note_update(p, iter, mean);
        }
        self.phases.barriers += 1;
        let iteration_closed = self.barriers.close(iter, l, self.owned_count_at(iter));
        self.cache_pull(l, pull, crc);
        self.tlog.emit(TraceEvent::Barrier { iter, grad: p });
        if let Some(snapshot) = snapshot {
            // A scheduled CheckpointCorrupt poisons every snapshot written
            // in its cadence round (the whole generation is damaged,
            // matching the sim's model).
            self.run.store.checkpoint(
                p,
                iter,
                snapshot,
                self.locals[l]
                    .opt
                    .as_ref()
                    .expect("barrier on unrestored part"),
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
                let kind = FaultKind::ShardFail;
                self.run.open_epoch(&mut self.tlog, kind, self.s, iter + 1);
                self.dead = true;
            }
        }
        if gated {
            self.run.gate.release();
        }
        for &w in self.run.mem.members(iter) {
            // An iteration member cannot exit before receiving every one
            // of its ParamReady deliveries.
            self.worker_txs[w]
                .send(ToWorker::ParamReady {
                    part: p,
                    epoch: self.cur_epoch,
                })
                .expect("member hung up before barrier");
        }
        self.drain_deferred();
    }

    /// Serve any deferred pull whose part has caught up.
    fn drain_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            let d = self.deferred[i];
            let l = self.local(d.grad, d.offset_elems);
            if self.locals[l].opt.is_some()
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

    /// Storage for local part `l`'s next pull frame: the reclaimed
    /// previous encoding when its windows have all been dropped, a counted
    /// fresh allocation otherwise.
    fn pull_buffer(&mut self, l: usize) -> BytesMut {
        match self.locals[l].pull.spare.take() {
            Some(mut m) => {
                m.clear();
                self.out.arena_recycles += 1;
                m
            }
            None => {
                self.out.arena_allocs += 1;
                BytesMut::with_capacity(self.locals[l].len * 4)
            }
        }
    }

    /// Cache `buf`, local part `l`'s whole-part pull frame with checksum
    /// `crc`: every pull until the next update is a zero-copy window of it.
    fn cache_pull(&mut self, l: usize, buf: BytesMut, crc: u32) {
        let wire = buf.freeze();
        let frame = FrameHeader {
            len: wire.len() as u32,
            crc,
        };
        let t = &mut self.locals[l];
        t.pull.frame = Some((0, t.len, frame));
        t.pull.wire = Some(wire);
    }

    /// Reply to a pull of `len_elems` of tensor `grad` from `offset_elems`,
    /// an extent inside one local part.
    fn serve_pull(&mut self, worker: usize, grad: usize, offset_elems: usize, len_elems: usize) {
        let l = self.local(grad, offset_elems);
        debug_assert!(self.locals[l].opt.is_some(), "serving an unrestored part");
        let at = offset_elems - self.locals[l].lo;
        if self.locals[l].pull.wire.is_none() {
            // Cold pull — bootstrap, or a part adopted/restored since its
            // last local barrier (steady-state pulls hit the cache
            // refreshed by `finish_barrier`). A large encode walks the
            // full parameter vector, so it runs under the cache-residency
            // gate (the wait lands in `idle_ns`, keeping the encode span
            // pure work).
            let bytes = self.locals[l].len * 4;
            let gated = self.run.gate.enter(bytes, &mut self.phases.idle_ns);
            let t_fill = Instant::now();
            let mut buf = self.pull_buffer(l);
            let crc = encode_f32_into_crc(&self.locals[l].params, &mut buf);
            self.phases.encode_ns += t_fill.elapsed().as_nanos() as u64;
            self.phases.encode_bytes += 2 * buf.len() as u64;
            self.cache_pull(l, buf, crc);
            if gated {
                self.run.gate.release();
            }
        }
        let t_encode = Instant::now();
        let clean = {
            let wire = self.locals[l].pull.wire.as_ref().expect("encoded above");
            wire.slice(at * 4..(at + len_elems) * 4)
        };
        // Pull replies can be bit-flipped or truncated in flight but never
        // NaN-poisoned: parameters travel checksummed, so memory-corrupt
        // values would be caught as a frame mismatch anyway and the guard
        // lives on the push path.
        let (data, frame) = match self.corrupt.draw(self.now, false) {
            Some(style) => self.corrupt.tamper(style, &clean, &mut self.tamper_pool),
            None => {
                let cached = &mut self.locals[l].pull.frame;
                let frame = match *cached {
                    Some((o, n, f)) if (o, n) == (at, len_elems) => f,
                    _ => {
                        let f = FrameHeader::for_payload(&clean);
                        *cached = Some((at, len_elems, f));
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
            self.out.ack_batches += 1;
            let acks = std::mem::take(&mut self.pending[w]);
            let mut crc = acks_checksum(&acks);
            if self.corrupt.draw(self.now, false).is_some() {
                crc ^= 0xA5A5_A5A5;
            }
            // A worker that already exited only misses acks it no longer
            // needs.
            let _ = self.worker_txs[w].send(ToWorker::PushAcks { acks, crc });
        }
        self.pending_total = 0;
        self.phases.ack_ns += t_ack.elapsed().as_nanos() as u64;
    }

    /// Count the wait on a dry inbox that ended at `now` as idle.
    pub(super) fn idle_until(&mut self, now: u64) {
        if let Some(since) = self.idle_since.take() {
            self.phases.idle_ns += now.saturating_sub(since);
        }
    }

    /// The workers are gone: flush the remaining acks for the count, then
    /// hand over in `parts` exactly the parts this shard owns in the final
    /// membership epoch — adopted ones included, lost ones excluded — and
    /// fold its counters, phase spans and trace into the run's result.
    pub(super) fn finish(
        mut self,
        r: &mut ThreadedResult,
        parts: &mut [Option<Vec<f32>>],
        events: &mut Vec<TimedEvent>,
    ) {
        self.flush_acks();
        assert!(
            self.deferred.is_empty(),
            "shard {} exited with {} unserved deferred pull(s)",
            self.s,
            self.deferred.len()
        );
        let final_owner = self.run.mem.owner_at(u64::MAX);
        for t in self
            .locals
            .into_iter()
            .filter(|t| final_owner[t.p] == self.s)
        {
            let p = t.p;
            debug_assert!(t.opt.is_some(), "final owner never restored part {p}");
            debug_assert!(parts[p].is_none(), "part {p} returned twice");
            parts[p] = Some(t.params);
        }
        r.add_counters(&self.out);
        r.shard_phases.push(self.phases);
        events.extend(self.tlog.take_events());
    }
}

#[cfg(test)]
mod tests {
    use super::super::runtime::{build, Machine, ThreadedConfig};
    use super::*;
    use prophet_core::SchedulerKind;
    use prophet_sim::{Duration, FaultPlan, FaultSpec, SimTime};

    const MS: u64 = 1_000_000;

    /// A `ShardCrash` window makes the shard pause until its end, bump its
    /// epoch and broadcast `ShardRestarted` once — on a hand-fed clock, with
    /// nothing slept.
    #[test]
    fn a_crash_pauses_until_its_end_then_restarts_once() {
        let cfg = ThreadedConfig {
            fault_plan: FaultPlan::new(vec![FaultSpec::ShardCrash {
                shard: 0,
                at: SimTime::from_nanos(2 * MS),
                restart_after: Duration::from_millis(3),
            }]),
            ..ThreadedConfig::small(2, SchedulerKind::Fifo)
        };
        let (_, mut machines) = build(&cfg);
        let [Machine::Shard(s, _), workers @ ..] = &mut machines[..] else {
            panic!("one shard, then the workers")
        };
        // Idle before the crash, it receives no later than the crash.
        assert_eq!(s.step(None, 0), Next::Recv(Some(2 * MS)));
        assert_eq!(s.step(None, 2 * MS), Next::Pause(5 * MS));
        assert_eq!(s.cur_epoch, 1);
        assert_eq!(s.step(None, 5 * MS), Next::Recv(None));
        let events: Vec<_> = s.tlog.take_events().into_iter().map(|e| e.2).collect();
        let (kind, node) = (FaultKind::ShardCrash, 0);
        assert_eq!(
            events,
            [
                TraceEvent::FaultStart { kind, node },
                TraceEvent::FaultEnd { kind, node },
                TraceEvent::EpochAdvance { shard: 0, epoch: 1 },
            ]
        );
        for m in workers {
            let Machine::Worker(_, rx) = m else {
                panic!("a second shard")
            };
            let got: Vec<_> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
            assert!(
                matches!(got[..], [ToWorker::ShardRestarted { shard: 0, epoch: 1 }]),
                "{} messages",
                got.len()
            );
        }
    }
}
