//! Protocol rules, written once (DESIGN.md "Protocol rules (one place)").
//!
//! Both engines execute the same [`FaultPlan`]; this module owns the
//! decisions they used to hand-write separately, as pure functions of the
//! plan and of plain numbers — `u64` nanoseconds and iteration indices in,
//! answers and transitions out. No clock, no channel, no trace emission, no
//! configuration struct: the simulator ticks it with virtual time, the
//! threaded runtime with wall-clock offsets, and each keeps only its own
//! side effects (killing flows, sleeping, drawing RNG, tampering bytes).
//!
//! * [`Windows`] — which transient fault windows are active on a node, and
//!   the worst of them.
//! * [`Membership`] — who takes part in iteration `i`, who owns which
//!   tensor then, and whether a barrier may close.
//! * [`GenChain`] + [`CheckpointSchedule`] — when a snapshot is written,
//!   which one is poisoned, which generations are retained, and which one a
//!   restore falls back to.
//! * [`Barriers`] + [`Outbox`] — delivery: when an arrival counts, when a
//!   barrier and an iteration close, what a crash voids and who replays it,
//!   how retry episodes number; [`Windows::send_fate`] is the per-send
//!   loss-then-corruption draw.
//! * [`Worker`] — one worker's transfers: where an issued extent starts,
//!   when a first byte is stamped, when a pull completes, and when a layer
//!   may run forward.

use prophet_core::Dir;
use prophet_sim::{FaultKind, FaultPlan, FaultSpec};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Transient fault windows
// ---------------------------------------------------------------------------

/// The node id of the cluster-wide kinds (`MsgLoss`, `PayloadCorrupt`),
/// which hit every link alike — also the node their trace events carry.
pub const CLUSTER: usize = usize::MAX;

/// One transient fault window, half-open `[start, end)` in nanoseconds
/// since run start: live at its begin instant, already over at its end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// The fault class.
    pub kind: FaultKind,
    /// Topology node the window sits on (shard `s` is node `s`, worker `w`
    /// is node `shards + w`), or [`CLUSTER`].
    pub node: usize,
    /// First nanosecond the window covers.
    pub start: u64,
    /// First nanosecond it no longer covers.
    pub end: u64,
    /// `LinkDegrade`'s capacity factor, `MsgLoss`/`PayloadCorrupt`'s rate;
    /// `0.0` for the kinds that are simply on or off.
    pub severity: f64,
}

/// Every transient window of a plan, extracted once, in plan order.
///
/// Overlapping windows of one kind stack as **worst wins**: the effective
/// severity is the worst among the windows active right now, and the fault
/// lasts until the last of them closes — so a shorter window ending inside
/// a longer one can never un-fault the node.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    all: Vec<Window>,
}

impl Windows {
    /// Extract the windowed specs of `plan` for a `shards`-shard topology.
    /// Iteration-indexed specs are [`Membership`]'s and
    /// [`CheckpointSchedule`]'s business and are skipped.
    pub fn new(plan: &FaultPlan, shards: usize) -> Self {
        let all =
            plan.faults
                .iter()
                .filter(|f| f.is_windowed())
                .map(|f| {
                    let (node, severity) = match *f {
                        FaultSpec::LinkDown { node, .. } => (node, 0.0),
                        FaultSpec::LinkDegrade { node, factor, .. } => (node, factor),
                        FaultSpec::MsgLoss { rate, .. }
                        | FaultSpec::PayloadCorrupt { rate, .. } => (CLUSTER, rate),
                        FaultSpec::ShardCrash { shard, .. } => (shard, 0.0),
                        FaultSpec::WorkerStall { worker, .. } => (shards + worker, 0.0),
                        _ => unreachable!("is_windowed admitted an iteration-indexed spec"),
                    };
                    Window {
                        kind: f.kind(),
                        node,
                        start: f.at().as_nanos(),
                        end: f.until().as_nanos(),
                        severity,
                    }
                })
                .collect();
        Windows { all }
    }

    /// No window at all: every query answers `None`.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Every window, in plan order (the order drivers schedule them in).
    pub fn all(&self) -> &[Window] {
        &self.all
    }

    /// The `kind` windows on any of `nodes`, earliest first.
    pub fn schedule(&self, kind: FaultKind, nodes: &[usize]) -> Vec<Window> {
        let mut out: Vec<Window> = self.on(kind, nodes).copied().collect();
        out.sort_by_key(|w| (w.start, w.end));
        out
    }

    fn on<'a>(&'a self, kind: FaultKind, nodes: &'a [usize]) -> impl Iterator<Item = &'a Window> {
        self.all
            .iter()
            .filter(move |w| w.kind == kind && nodes.contains(&w.node))
    }

    fn active<'a>(
        &'a self,
        kind: FaultKind,
        nodes: &'a [usize],
        now: u64,
    ) -> impl Iterator<Item = &'a Window> {
        self.on(kind, nodes)
            .filter(move |w| w.start <= now && now < w.end)
    }

    /// The worst severity among the `kind` windows on `nodes` active at
    /// `now` — the lowest `LinkDegrade` factor, the highest loss or
    /// corruption rate — or `None` when none is active.
    pub fn worst_at(&self, kind: FaultKind, nodes: &[usize], now: u64) -> Option<f64> {
        self.active(kind, nodes, now)
            .map(|w| w.severity)
            .reduce(|a, b| match kind {
                FaultKind::LinkDegrade => a.min(b),
                _ => a.max(b),
            })
    }

    /// When the last `kind` window on `nodes` active at `now` closes, or
    /// `None` when none is active.
    pub fn active_until(&self, kind: FaultKind, nodes: &[usize], now: u64) -> Option<u64> {
        self.active(kind, nodes, now).map(|w| w.end).max()
    }
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

/// One permanent shard death and the owner table in force after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDeath {
    /// First iteration the shard does not serve.
    pub at_iter: u64,
    /// The shard that dies.
    pub shard: usize,
    /// Owners once this death (and every earlier one) is applied.
    pub owner: Vec<usize>,
}

/// The run's membership timetable: a pure function of the plan, so two
/// runs — or two engines — under one plan walk the identical sequence of
/// members, barrier sizes and owner tables.
///
/// A worker is a member of exactly the iterations `[from, until)`: `0` or
/// its `WorkerJoin` iteration, to its `WorkerFail` iteration or the end of
/// the run. Events at `at_iter >= iterations` never take effect (the run
/// ends first) and are dropped here. With no permanent event in the plan
/// every query is the static answer, computed without a table.
#[derive(Debug, Clone)]
pub struct Membership {
    iterations: u64,
    /// `[from, until)` per worker slot, initial workers first, then joiners.
    spans: Vec<(u64, u64)>,
    /// Ids `0..initial` — the member list of every iteration of a static run.
    initial: Vec<usize>,
    /// Member ids per iteration, ascending; empty for a static run.
    members_at: Vec<Vec<usize>>,
    /// `(worker, until)` of every mid-run eviction.
    leaves: Vec<(usize, u64)>,
    /// `(at_iter, worker)` of every mid-run admission, in firing order.
    joins: Vec<(u64, usize)>,
    owner0: Vec<usize>,
    /// Mid-run shard deaths in firing order: by boundary, then shard id.
    deaths: Vec<ShardDeath>,
}

impl Membership {
    /// Build the timetable for `workers` initial workers over `iterations`
    /// iterations. `owner0` is the initial owner table, one entry per unit
    /// of placement: a tensor in the simulator, a part
    /// ([`prophet_core::shard::Part`]) in the threaded runtime;
    /// `rehome(owner, dead_so_far, dead)` applies the engine's re-home rule
    /// for one death (`dead_so_far` already contains `dead`).
    pub fn new(
        plan: &FaultPlan,
        workers: usize,
        iterations: u64,
        owner0: Vec<usize>,
        mut rehome: impl FnMut(&mut [usize], &[usize], usize),
    ) -> Self {
        let total = workers + plan.joined_workers();
        let spans: Vec<(u64, u64)> = (0..total)
            .map(|w| {
                let from = if w < workers {
                    0
                } else {
                    plan.worker_join_at(w).expect("joiner without a join spec")
                };
                let until = plan.worker_fail_at(w).unwrap_or(iterations);
                (from.min(iterations), until.min(iterations))
            })
            .collect();
        let members_at = if plan.has_permanent() {
            (0..iterations)
                .map(|i| (0..total).filter(|&w| in_span(spans[w], i)).collect())
                .collect()
        } else {
            Vec::new()
        };
        let leaves = (0..total)
            .filter(|&w| spans[w].1 < iterations)
            .map(|w| (w, spans[w].1))
            .collect();
        let mut joins: Vec<(u64, usize)> = (workers..total)
            .filter(|&w| spans[w].0 < iterations)
            .map(|w| (spans[w].0, w))
            .collect();
        joins.sort_unstable();
        let mut dying: Vec<(u64, usize)> = plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                FaultSpec::ShardFail { shard, at_iter } if at_iter < iterations => {
                    Some((at_iter, shard))
                }
                _ => None,
            })
            .collect();
        dying.sort_unstable();
        let mut owner = owner0.clone();
        let mut dead = Vec::new();
        let deaths = dying
            .into_iter()
            .map(|(at_iter, shard)| {
                dead.push(shard);
                rehome(&mut owner, &dead, shard);
                ShardDeath {
                    at_iter,
                    shard,
                    owner: owner.clone(),
                }
            })
            .collect();
        Membership {
            iterations,
            spans,
            initial: (0..workers).collect(),
            members_at,
            leaves,
            joins,
            owner0,
            deaths,
        }
    }

    /// Worker slots to provision: initial workers plus joiners.
    pub fn total_workers(&self) -> usize {
        self.spans.len()
    }

    /// The iterations `[from, until)` worker `w` takes part in (empty for a
    /// joiner scheduled past the end of the run).
    pub fn span(&self, w: usize) -> (u64, u64) {
        self.spans[w]
    }

    /// The boundary worker `w` is evicted at, if it leaves mid-run.
    pub fn leaves_at(&self, w: usize) -> Option<u64> {
        Some(self.spans[w].1).filter(|&k| k < self.iterations)
    }

    /// Does worker `w` take part in iteration `iter`?
    pub fn is_member(&self, w: usize, iter: u64) -> bool {
        in_span(self.spans[w], iter)
    }

    /// The member ids of iteration `iter`, ascending.
    pub fn members(&self, iter: u64) -> &[usize] {
        match self.members_at.get(iter as usize) {
            Some(m) => m,
            None => &self.initial,
        }
    }

    /// BSP barrier size of iteration `iter`.
    pub fn expected(&self, iter: u64) -> usize {
        self.members(iter).len()
    }

    /// May a barrier of iteration `iter` that `arrived` members have
    /// pushed to close? All of them must have arrived, and every worker
    /// evicted at or before `iter` must already be `gone` (its eviction
    /// epoch is open), so the barrier lands after that epoch in any trace.
    pub fn may_close(&self, iter: u64, arrived: usize, gone: &[bool]) -> bool {
        arrived == self.expected(iter) && self.leaves.iter().all(|&(w, k)| k > iter || gone[w])
    }

    /// Mid-run admissions `(at_iter, worker)`, in firing order.
    pub fn joins(&self) -> &[(u64, usize)] {
        &self.joins
    }

    /// Mid-run shard deaths, in firing order.
    pub fn shard_deaths(&self) -> &[ShardDeath] {
        &self.deaths
    }

    /// The boundary shard `s` dies at, if it dies mid-run.
    pub fn shard_dies_at(&self, s: usize) -> Option<u64> {
        self.deaths.iter().find(|d| d.shard == s).map(|d| d.at_iter)
    }

    /// `(first_iter, owner table)` per owner epoch: the initial table, then
    /// one per distinct death boundary. Deaths sharing a boundary fold into
    /// one epoch, so across epochs a unit re-homes in a single hop onto a
    /// shard that survives the boundary.
    pub fn owner_epochs(&self) -> Vec<(u64, &[usize])> {
        let mut out = vec![(0, self.owner0.as_slice())];
        for d in &self.deaths {
            if out.last().is_some_and(|&(k, _)| k == d.at_iter) {
                out.pop();
            }
            out.push((d.at_iter, &d.owner));
        }
        out
    }

    /// Owner table in force during iteration `iter`.
    pub fn owner_at(&self, iter: u64) -> &[usize] {
        self.deaths
            .iter()
            .rev()
            .find(|d| d.at_iter <= iter)
            .map_or(&self.owner0, |d| &d.owner)
    }
}

fn in_span((from, until): (u64, u64), iter: u64) -> bool {
    from <= iter && iter < until
}

// ---------------------------------------------------------------------------
// Checkpoint generations
// ---------------------------------------------------------------------------

/// Checkpoint cadence of both engines, in iterations: a shard snapshots
/// its parameter state after iterations 3, 7, 11, … (the initial
/// parameters are an implicit iteration-0 checkpoint). Only a run whose
/// fault plan kills a shard permanently checkpoints at all: an unarmed run
/// does no checkpoint work.
pub const CHECKPOINT_PERIOD: u64 = 4;

/// Snapshot generations both engines retain per shard (simulator) or per
/// part (threaded durable store): the GC horizon a [`GenChain`] trims to.
/// A `CheckpointCorrupt` fault can poison the newest generation, so a
/// restore may fall back one generation past it.
pub const CHECKPOINT_RETENTION: usize = 2;

/// The per-shard checkpoint cadence and its one-shot `CheckpointCorrupt`.
#[derive(Debug, Clone)]
pub struct CheckpointSchedule {
    corrupt_at: Option<u64>,
    corrupt_done: bool,
}

impl CheckpointSchedule {
    /// The schedule of shard `shard` under `plan`, snapshotting every
    /// [`CHECKPOINT_PERIOD`] iterations.
    pub fn new(plan: &FaultPlan, shard: usize) -> Self {
        CheckpointSchedule {
            corrupt_at: plan.checkpoint_corrupt_at(shard),
            corrupt_done: false,
        }
    }

    /// Is a snapshot covering through `iter` due once `iter` completes?
    pub fn due(&self, iter: u64) -> bool {
        (iter + 1).is_multiple_of(CHECKPOINT_PERIOD)
    }

    /// Is the snapshot round covering through `iter` — written at boundary
    /// `iter + 1` — the first at or after the scheduled corruption, i.e.
    /// the one written damaged?
    pub fn poisons(&self, iter: u64) -> bool {
        !self.corrupt_done && self.corrupt_at.is_some_and(|k| iter + 1 >= k)
    }

    /// The round covering through `iter` is fully written: if it was the
    /// poisoned one the corruption has fired, and it fires only once — so
    /// the next-older generation stays intact for the fallback.
    pub fn round_written(&mut self, iter: u64) {
        self.corrupt_done |= self.poisons(iter);
    }
}

/// What a [`GenChain`] needs to know about the generations it retains.
pub trait Generation {
    /// Scrub: is the snapshot still what was written?
    fn intact(&self) -> bool;
    /// Bytes a restore reads back from this generation: its snapshot plus
    /// its ledger segment (the updates applied after it, before the next).
    fn restore_bytes(&self) -> u64;
    /// Take over the ledger segment of `newer`, the collected generation
    /// that directly followed this one.
    fn absorb_ledger(&mut self, newer: Self);
}

/// Where a restore starts, and what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fallback {
    /// Index of the newest intact generation; replay runs from its ledger
    /// segment through the newest one's.
    pub intact: usize,
    /// Corrupt generations newer than it, walked and rejected first.
    pub depth: u64,
    /// Bytes read back: every generation walked, plus every segment
    /// replayed.
    pub bytes: u64,
}

/// One tensor's (or shard's) retained snapshot generations, oldest first.
/// Never empty: it starts from the initial model, and GC never collects
/// the only intact generation.
#[derive(Debug, Clone)]
pub struct GenChain<G> {
    gens: Vec<G>,
    retention: usize,
}

impl<G: Generation> GenChain<G> {
    /// A chain holding `initial`, keeping `retention >= 1` generations.
    pub fn new(initial: G, retention: usize) -> Self {
        assert!(retention >= 1, "checkpoint retention must be >= 1");
        GenChain {
            gens: vec![initial],
            retention,
        }
    }

    /// The retained generations, oldest first.
    pub fn gens(&self) -> &[G] {
        &self.gens
    }

    /// The newest generation, whose ledger segment is still growing.
    pub fn newest_mut(&mut self) -> &mut G {
        self.gens.last_mut().expect("a chain is never empty")
    }

    /// Append a generation, then trim back to the retention bound: oldest
    /// first while more than one intact generation remains, then corrupt
    /// ones, never the last intact one. A collected corrupt generation's
    /// ledger segment merges into its older neighbour, which now needs
    /// those entries for replay.
    pub fn push(&mut self, gen: G) {
        self.gens.push(gen);
        if self.gens.len() <= self.retention {
            return;
        }
        let mut ok: Vec<bool> = self.gens.iter().map(G::intact).collect();
        while self.gens.len() > self.retention {
            let i = if ok.iter().filter(|&&o| o).count() > 1 {
                0
            } else {
                ok.iter()
                    .position(|&o| !o)
                    .expect("two generations, at most one of them intact")
            };
            let collected = self.gens.remove(i);
            if !ok.remove(i) && i > 0 {
                self.gens[i - 1].absorb_ledger(collected);
            }
        }
    }

    /// Walk the generations newest-first to the newest intact one.
    pub fn fallback(&self) -> Option<Fallback> {
        let intact = self.gens.iter().rposition(G::intact)?;
        let walked = &self.gens[intact..];
        Some(Fallback {
            intact,
            depth: walked.len() as u64 - 1,
            bytes: walked.iter().map(G::restore_bytes).sum(),
        })
    }
}

// ---------------------------------------------------------------------------
// Delivery: push → barrier → pull, written once
// ---------------------------------------------------------------------------

impl Windows {
    /// One Bernoulli draw against the cluster-wide `kind` window active at
    /// `now`. `draw`, the host's RNG, is consulted only inside a window
    /// with a positive rate, so plans without the kind leave it untouched.
    pub fn hit(&self, kind: FaultKind, now: u64, draw: impl FnOnce() -> f64) -> bool {
        let rate = self.worst_at(kind, &[CLUSTER], now);
        rate.is_some_and(|r| r > 0.0 && draw() < r)
    }

    /// The fault, if any, that hits a send at `now`, in the per-send draw
    /// order: loss first (it pays the wire and is never acknowledged),
    /// corruption only for survivors (the receiver's verify rejects them).
    pub fn send_fate(&self, now: u64, mut draw: impl FnMut(FaultKind) -> f64) -> Option<FaultKind> {
        let kinds = [FaultKind::MsgLoss, FaultKind::PayloadCorrupt];
        kinds.into_iter().find(|&k| self.hit(k, now, || draw(k)))
    }
}

/// What became of one extent arriving at a [`Barriers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Its barrier already closed: acknowledge and drop.
    Stale,
    /// Already staged (a re-send raced its ack): acknowledge and drop.
    Duplicate,
    /// Staged; the worker's contribution is still incomplete.
    Staged,
    /// Staged, and the worker's contribution is now whole; `closes` says
    /// the barrier [may close](Membership::may_close) right now.
    WorkerDone {
        #[allow(missing_docs)]
        closes: bool,
    },
}

/// A contribution [`Barriers::wipe`] voided, as `(iter, tensor, worker,
/// extent)`: `worker` must push `extent` of `(iter, tensor)` again.
pub type Replay = (u64, usize, usize, u64);

/// One open barrier: per worker the staged `(offset, len)` extents
/// (adjacent ones merged, so in-order delivery keeps a single entry).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Slot {
    have: Vec<Vec<(u64, u64)>>,
    done: usize,
}

/// The receive side of delivery: the BSP barrier ledger of one aggregation
/// domain (the whole cluster in the simulator, one shard in the runtime).
/// Extents are unit-agnostic — bytes there, elements here. Only this side
/// can void an arrival ([`Barriers::wipe`]); a sender's retry never does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Barriers {
    /// Full extent of each tensor.
    sizes: Vec<u64>,
    open: BTreeMap<(u64, usize), Slot>,
    closed_through: Vec<Option<u64>>,
    /// `(iter, barriers closed in it)`: under BSP one iteration closes at a
    /// time.
    closing: (u64, usize),
    gone: Vec<bool>,
}

impl Barriers {
    /// A ledger for `workers` worker slots and tensors of these extents.
    pub fn new(workers: usize, sizes: Vec<u64>) -> Self {
        Barriers {
            open: BTreeMap::new(),
            closed_through: vec![None; sizes.len()],
            sizes,
            closing: (0, 0),
            gone: vec![false; workers],
        }
    }

    /// `worker` delivered `[offset, offset + len)` of `tensor` for iteration
    /// `iter`. `offset` is `None` on a transport that delivers in order and
    /// exactly once (the simulator's flows): the extent then directly
    /// follows what is staged.
    pub fn arrive(
        &mut self,
        mem: &Membership,
        iter: u64,
        tensor: usize,
        worker: usize,
        offset: Option<u64>,
        len: u64,
    ) -> Arrival {
        if self.is_stale(iter, tensor) {
            return Arrival::Stale;
        }
        let slot = self.open.entry((iter, tensor)).or_default();
        slot.have.resize_with(self.gone.len(), Vec::new);
        let have = &mut slot.have[worker];
        let offset = offset.unwrap_or_else(|| have.last().map_or(0, |&(o, l)| o + l));
        if have
            .iter()
            .any(|&(o, l)| o <= offset && offset + len <= o + l)
        {
            return Arrival::Duplicate;
        }
        match have.last_mut() {
            Some(last) if last.0 + last.1 == offset => last.1 += len,
            _ => have.push((offset, len)),
        }
        let got: u64 = have.iter().map(|&(_, l)| l).sum();
        let size = self.sizes[tensor];
        assert!(got <= size, "worker {worker} over-pushed tensor {tensor}");
        if got < size {
            return Arrival::Staged;
        }
        slot.done += 1;
        let closes = mem.may_close(iter, slot.done, &self.gone);
        Arrival::WorkerDone { closes }
    }

    /// `worker`'s eviction fired: the barriers that may close now, in
    /// `(iter, tensor)` order.
    pub fn leave(&mut self, mem: &Membership, worker: usize) -> Vec<(u64, usize)> {
        self.gone[worker] = true;
        let ready =
            |(&(iter, _), s): &(&(u64, usize), &Slot)| mem.may_close(iter, s.done, &self.gone);
        self.open.iter().filter(ready).map(|(&k, _)| k).collect()
    }

    /// Has `worker`'s eviction fired?
    pub fn has_left(&self, worker: usize) -> bool {
        self.gone[worker]
    }

    /// The barrier `(iter, tensor)` closes. Returns whether that closes the
    /// iteration: it was the last of the `of` barriers `iter` has here.
    pub fn close(&mut self, iter: u64, tensor: usize, of: usize) -> bool {
        let slot = self.open.remove(&(iter, tensor));
        slot.expect("closing a barrier nothing arrived at");
        self.closed_through[tensor] = self.closed_through[tensor].max(Some(iter));
        if self.closing.0 != iter {
            self.closing = (iter, 0);
        }
        self.closing.1 += 1;
        self.closing.1 == of
    }

    /// Has the barrier `(iter, tensor)` already closed? What still arrives
    /// for it duplicates a contribution it folded.
    pub fn is_stale(&self, iter: u64, tensor: usize) -> bool {
        self.closed_through[tensor] >= Some(iter)
    }

    /// The newest closed barrier of `tensor`.
    pub fn closed_through(&self, tensor: usize) -> Option<u64> {
        self.closed_through[tensor]
    }

    /// `tensor` was adopted already reflecting every update through `upto`.
    pub fn adopt(&mut self, tensor: usize, upto: Option<u64>) {
        self.closed_through[tensor] = upto;
    }

    /// A crash lost the open barriers of the tensors `lost` selects: one
    /// [`Replay`] per non-empty contribution, in `(iter, tensor, worker)`
    /// order. Closed barriers (applied updates) survive.
    pub fn wipe(&mut self, lost: impl Fn(usize) -> bool) -> Vec<Replay> {
        let mut out = Vec::new();
        self.open.retain(|&(iter, tensor), slot| {
            if !lost(tensor) {
                return true;
            }
            for (worker, have) in slot.have.iter().enumerate() {
                let extent: u64 = have.iter().map(|&(_, l)| l).sum();
                if extent > 0 {
                    out.push((iter, tensor, worker, extent));
                }
            }
            false
        });
        out
    }
}

/// One tracked send: `[offset, offset + len)` of `(iter, tensor)`, addressed
/// to incarnation `epoch` of the tensor's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub struct Slice {
    pub iter: u64,
    pub tensor: usize,
    pub offset: u64,
    pub len: u64,
    pub epoch: u64,
}

/// What an [`Outbox`] asks its host to do, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A retry step opened for `tensor`, the `attempt`-th of its episode
    /// (consecutive from 1): trace it.
    #[allow(missing_docs)]
    Retry { tensor: usize, attempt: u32 },
    /// Send the slice again, to its shard's current incarnation, and report
    /// it [`Outbox::sent`]; its episode stands at the given attempt.
    Resend(Slice, u32),
}

/// The send side of delivery, one per [`Worker`]: the tracked-send ledger and
/// the retry **episode** of each `(iter, tensor)` — opened by its first
/// failure, numbered consecutively, closed by its delivery. The simulator,
/// where delivery is the ack, drives only the episode half.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Outbox {
    /// `(slice, ack deadline)`; an acknowledged slice never times out
    /// (`u64::MAX`) but stays tracked until delivery — a crash can void it.
    ledger: Vec<(Slice, u64)>,
    /// Per open episode: its attempts so far and, per [`Dir`], whether a
    /// failure voided the start stamp and no re-send has re-stamped it yet.
    episodes: BTreeMap<(u64, usize), (u32, [bool; 2])>,
}

impl Outbox {
    /// A transfer of `(iter, tensor)` failed. Returns the retry attempt to
    /// trace — or `None` while the tensor still awaits its re-stamp, when
    /// further failures join the open step silently.
    pub fn fail(&mut self, iter: u64, tensor: usize, dir: Dir) -> Option<u32> {
        let (n, void) = self.episodes.entry((iter, tensor)).or_default();
        if std::mem::replace(&mut void[dir as usize], true) {
            return None;
        }
        *n += 1;
        Some(*n)
    }

    /// A (re-)send of `(iter, tensor)` hits the wire: does its start need
    /// stamping again because a failure voided it?
    pub fn restamp(&mut self, iter: u64, tensor: usize, dir: Dir) -> bool {
        let episode = self.episodes.get_mut(&(iter, tensor));
        episode.is_some_and(|(_, void)| std::mem::take(&mut void[dir as usize]))
    }

    /// `(iter, tensor)` was delivered (its barrier closed, or its pull
    /// completed): its tracked sends are settled, and an open episode
    /// closes with the attempts it took.
    pub fn delivered(&mut self, iter: u64, tensor: usize) -> Option<u32> {
        self.ledger
            .retain(|(s, _)| (s.iter, s.tensor) != (iter, tensor));
        self.episodes.remove(&(iter, tensor)).map(|(n, _)| n)
    }

    /// The barrier over elements `[lo, hi)` of `(iter, tensor)` closed: the
    /// tracked sends inside it are settled. The episode stays open until
    /// the whole tensor is [`delivered`](Outbox::delivered).
    pub fn settled(&mut self, iter: u64, tensor: usize, lo: u64, hi: u64) {
        let inside =
            |s: &Slice| (s.iter, s.tensor) == (iter, tensor) && (lo..hi).contains(&s.offset);
        self.ledger.retain(|(s, _)| !inside(s));
    }

    /// Iteration `iter` begins: everything older is settled by the
    /// barriers that let the previous iteration finish.
    pub fn begin_iter(&mut self, iter: u64) {
        self.ledger.clear();
        self.episodes.retain(|&(i, _), _| i >= iter);
    }

    /// No episode is open (every retried transfer was delivered).
    pub fn is_quiet(&self) -> bool {
        self.episodes.is_empty()
    }

    /// `slice` went out; unacknowledged by `deadline`, it is sent again.
    pub fn sent(&mut self, slice: Slice, deadline: u64) {
        self.ledger.push((slice, deadline));
    }

    /// The receiver acknowledged `slice`.
    pub fn acked(&mut self, slice: Slice) {
        let acked = self.ledger.iter_mut().filter(|(s, _)| *s == slice);
        acked.for_each(|(_, deadline)| *deadline = u64::MAX);
    }

    /// An ack batch failed its checksum: trust none of it, and let the
    /// timeout, not before `deadline`, drive recovery.
    pub fn acks_untrusted(&mut self, deadline: u64) {
        let waiting = self.ledger.iter_mut().filter(|(_, d)| *d != u64::MAX);
        waiting.for_each(|(_, d)| *d = (*d).max(deadline));
    }

    /// The earliest instant [`Outbox::tick`] has work.
    pub fn next_deadline(&self) -> Option<u64> {
        let waiting = self.ledger.iter().filter(|(_, d)| *d != u64::MAX);
        waiting.map(|&(_, d)| d).min()
    }

    /// Retry every slice whose ack deadline has passed.
    pub fn tick(&mut self, now: u64) -> Vec<Step> {
        self.retry(|_, deadline| deadline <= now)
    }

    /// The receiver rejected `slice` (damaged in flight): retry it, unless
    /// it is settled or an intact copy was acknowledged meanwhile.
    pub fn nacked(&mut self, slice: Slice) -> Vec<Step> {
        self.retry(|s, deadline| *s == slice && deadline != u64::MAX)
    }

    /// The shard of the slices `lost` selects crash-restarted, voiding
    /// every undelivered contribution, acknowledged or not: retry them all.
    /// The predicate sees each slice, not only its tensor: a tensor split
    /// across shards re-sends only the part the restarted shard owns.
    pub fn restarted(&mut self, lost: impl Fn(&Slice) -> bool) -> Vec<Step> {
        self.retry(|s, _| lost(s))
    }

    /// Stop tracking the sends `failed` selects and ask for each again, one
    /// retry step per affected tensor (its slices coalesce, as the sim's
    /// per-message retries do). A tick with nothing due allocates nothing.
    fn retry(&mut self, failed: impl Fn(&Slice, u64) -> bool) -> Vec<Step> {
        let mut again = Vec::new();
        self.ledger.retain(|&(s, deadline)| {
            let fails = failed(&s, deadline);
            again.extend(fails.then_some(s));
            !fails
        });
        let mut steps = Vec::new();
        for s in again {
            if let Some(attempt) = self.fail(s.iter, s.tensor, Dir::Push) {
                let tensor = s.tensor;
                steps.push(Step::Retry { tensor, attempt });
            }
            steps.push(Step::Resend(s, self.episodes[&(s.iter, s.tensor)].0));
        }
        steps
    }
}

// ---------------------------------------------------------------------------
// The worker: issue → land → forward, written once
// ---------------------------------------------------------------------------

/// A tensor's pull landed whole ([`Worker::land`]): trace `PullEnd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullDone {
    /// The attempts of the retry episode the landing closed, if one was
    /// open: trace `Recovered` before `PullEnd`.
    pub recovered: Option<u32>,
}

/// One worker's transfers in its current iteration, and the rules that
/// decide which of its transfer events happen: how much of each tensor is
/// issued and landed, the first-byte stamp once per attempt, the retry
/// episodes of its [`Outbox`], a pull completing, and the per-layer forward
/// gate. Extents are unit-agnostic, like [`Barriers`]'s. The state is
/// dense, sized at construction and reset in place per iteration.
#[derive(Debug, Clone)]
pub struct Worker {
    /// Tracked sends and retry episodes. The host reports a failure
    /// (`fail`), a re-send reaching the wire (`restamp`) and a push's
    /// delivery (`delivered`) where its transport sees them; a pull's
    /// delivery is [`Worker::land`]'s.
    pub outbox: Outbox,
    iter: u64,
    sizes: Vec<u64>,
    /// Extent of each tensor issued this iteration, per [`Dir`].
    issued: [Vec<u64>; 2],
    /// Extent of each tensor's pull landed this iteration.
    landed: Vec<u64>,
}

impl Worker {
    /// A worker moving tensors of these extents.
    pub fn new(sizes: Vec<u64>) -> Self {
        let n = sizes.len();
        Worker {
            outbox: Outbox::default(),
            iter: 0,
            issued: [vec![0; n], vec![0; n]],
            landed: vec![0; n],
            sizes,
        }
    }

    /// Iteration `iter` begins: nothing of it is issued or landed yet, and
    /// the episodes of older iterations are settled.
    pub fn begin_iter(&mut self, iter: u64) {
        self.iter = iter;
        self.issued.iter_mut().for_each(|v| v.fill(0));
        self.landed.fill(0);
        self.outbox.begin_iter(iter);
    }

    /// `len` more of tensor `g` goes out in direction `dir`. Returns the
    /// offset the extent starts at, and whether its first byte is stamped:
    /// it is the tensor's first extent this iteration, or the first to
    /// reach the wire since a failure voided the stamp.
    pub fn issue(&mut self, dir: Dir, g: usize, len: u64) -> (u64, bool) {
        let issued = &mut self.issued[dir as usize][g];
        let offset = *issued;
        *issued += len;
        debug_assert!(*issued <= self.sizes[g], "over-issued tensor {g}");
        let voided = self.outbox.restamp(self.iter, g, dir);
        (offset, offset == 0 || voided)
    }

    /// `len` of tensor `g`'s pull landed. Once the tensor is whole its
    /// episode closes and its layer may run forward. Landing more than the
    /// tensor holds panics.
    pub fn land(&mut self, g: usize, len: u64) -> Option<PullDone> {
        self.landed[g] += len;
        assert!(self.landed[g] <= self.sizes[g], "over-pulled tensor {g}");
        if self.landed[g] < self.sizes[g] {
            return None;
        }
        let recovered = self.outbox.delivered(self.iter, g);
        Some(PullDone { recovered })
    }

    /// May forward layer `k` run? Its parameters have landed whole.
    pub fn forward_ready(&self, k: usize) -> bool {
        self.landed[k] == self.sizes[k]
    }

    /// Has every tensor's pull landed whole?
    pub fn all_landed(&self) -> bool {
        self.landed == self.sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim::{rehome_modular, Duration, SimTime};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(v)
    }

    /// The nodes whose link windows hit worker `w`: every shard plus its own.
    fn link_nodes(w: usize, shards: usize) -> Vec<usize> {
        (0..shards).chain([shards + w]).collect()
    }

    fn link_windows(win: &Windows, w: usize, shards: usize) -> usize {
        let nodes = link_nodes(w, shards);
        win.schedule(FaultKind::LinkDown, &nodes).len()
            + win.schedule(FaultKind::LinkDegrade, &nodes).len()
    }

    #[test]
    fn link_windows_map_topology_nodes() {
        let plan = FaultPlan::new(vec![
            FaultSpec::LinkDown {
                node: 0, // PS shard 0: hits every worker
                at: ms(10),
                dur: Duration::from_millis(5),
            },
            FaultSpec::LinkDegrade {
                node: 2, // worker 1 (1-shard topology)
                at: ms(10),
                factor: 0.5,
                dur: Duration::from_millis(5),
            },
        ]);
        let win = Windows::new(&plan, 1);
        assert_eq!(link_windows(&win, 0, 1), 1);
        assert_eq!(link_windows(&win, 1, 1), 2);
    }

    #[test]
    fn link_windows_respect_shard_count() {
        // In a 2-shard topology node 1 is PS shard 1 (shared by everyone)
        // and node 2 is worker 0, not worker 1.
        let plan = FaultPlan::new(vec![
            FaultSpec::LinkDown {
                node: 1,
                at: ms(10),
                dur: Duration::from_millis(5),
            },
            FaultSpec::LinkDegrade {
                node: 2,
                at: ms(10),
                factor: 0.5,
                dur: Duration::from_millis(5),
            },
        ]);
        let win = Windows::new(&plan, 2);
        assert_eq!(link_windows(&win, 0, 2), 2);
        assert_eq!(link_windows(&win, 1, 2), 1);
    }

    #[test]
    fn loss_is_cluster_wide_and_stalls_are_per_worker() {
        let plan = FaultPlan::new(vec![
            FaultSpec::MsgLoss {
                rate: 0.5,
                at: ms(1),
                dur: Duration::from_millis(2),
            },
            FaultSpec::WorkerStall {
                worker: 1,
                at: ms(1),
                dur: Duration::from_millis(2),
            },
            // Iteration-indexed specs open no window.
            FaultSpec::WorkerFail {
                worker: 0,
                at_iter: 2,
            },
        ]);
        let win = Windows::new(&plan, 1);
        assert_eq!(win.all().len(), 2);
        let t = ms(2).as_nanos();
        assert_eq!(win.worst_at(FaultKind::MsgLoss, &[CLUSTER], t), Some(0.5));
        assert_eq!(win.active_until(FaultKind::WorkerStall, &[1], t), None);
        assert_eq!(
            win.active_until(FaultKind::WorkerStall, &[2], t),
            Some(ms(3).as_nanos())
        );
        assert!(Windows::new(&FaultPlan::empty(), 1).is_empty());
    }

    #[test]
    fn outage_and_degrade_windows_are_half_open() {
        let plan = FaultPlan::new(vec![
            FaultSpec::LinkDown {
                node: 0,
                at: SimTime::ZERO,
                dur: Duration::from_millis(60),
            },
            FaultSpec::LinkDegrade {
                node: 1,
                at: ms(10),
                factor: 0.25,
                dur: Duration::from_millis(20),
            },
        ]);
        let win = Windows::new(&plan, 1);
        let nodes = link_nodes(0, 1);
        let end = ms(60).as_nanos();
        assert_eq!(
            win.active_until(FaultKind::LinkDown, &nodes, 0),
            Some(end),
            "live at its begin instant"
        );
        assert_eq!(
            win.active_until(FaultKind::LinkDown, &nodes, end - 1),
            Some(end)
        );
        assert_eq!(
            win.active_until(FaultKind::LinkDown, &nodes, end),
            None,
            "over at its end instant"
        );
        let at = |t| win.worst_at(FaultKind::LinkDegrade, &nodes, ms(t).as_nanos());
        assert_eq!(
            (at(9), at(10), at(29), at(30)),
            (None, Some(0.25), Some(0.25), None)
        );
    }

    #[test]
    fn overlapping_degrades_stack_worst_wins_and_unwind() {
        // While both windows are active the deeper factor applies; when the
        // deep one ends first the link restores to the shallow factor, not
        // to full bandwidth.
        let plan = FaultPlan::new(vec![
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
        let win = Windows::new(&plan, 1);
        let at = |t| win.worst_at(FaultKind::LinkDegrade, &[0], ms(t).as_nanos());
        assert_eq!(at(15), Some(0.5));
        assert_eq!(at(50), Some(0.1));
        assert_eq!(at(120), Some(0.5), "must unwind to the shallow window");
        assert_eq!(at(410), None);
    }

    #[test]
    fn checkpoint_schedule_cadence_and_one_shot_poison() {
        let plan = FaultPlan::new(vec![FaultSpec::CheckpointCorrupt {
            shard: 1,
            at_iter: 5,
        }]);
        let mut sched = CheckpointSchedule::new(&plan, 1);
        let due: Vec<u64> = (0..12).filter(|&i| sched.due(i)).collect();
        assert_eq!(due, vec![3, 7, 11]);
        // The round covering through 3 is written at boundary 4 < 5: clean.
        assert!(!sched.poisons(3));
        sched.round_written(3);
        // Boundary 8 is the first at or after 5 — every snapshot of that
        // round is damaged, and only that round.
        assert!(sched.poisons(7));
        assert!(sched.poisons(7), "the whole round, not its first tensor");
        sched.round_written(7);
        assert!(!sched.poisons(11));
        assert!(!CheckpointSchedule::new(&plan, 0).poisons(7));
    }

    // ---- delivery ----------------------------------------------------------

    /// The timetable of `workers` workers over 6 iterations under `faults`.
    fn timetable(workers: usize, faults: Vec<FaultSpec>) -> Membership {
        Membership::new(
            &FaultPlan::new(faults),
            workers,
            6,
            vec![0, 0],
            |_, _, _| {},
        )
    }

    /// `worker` delivers `[offset, offset + len)` of a size-8 tensor.
    fn arrive(
        b: &mut Barriers,
        mem: &Membership,
        at: (u64, usize),
        w: usize,
        ext: (u64, u64),
    ) -> Arrival {
        b.arrive(mem, at.0, at.1, w, Some(ext.0), ext.1)
    }

    const DONE: Arrival = Arrival::WorkerDone { closes: false };
    const CLOSES: Arrival = Arrival::WorkerDone { closes: true };

    #[test]
    fn send_fate_draws_loss_first_and_corruption_only_for_survivors() {
        let window = |loss: f64, corrupt: f64| {
            let (at, dur) = (ms(1), Duration::from_millis(2));
            Windows::new(
                &FaultPlan::new(vec![
                    FaultSpec::MsgLoss {
                        rate: loss,
                        at,
                        dur,
                    },
                    FaultSpec::PayloadCorrupt {
                        rate: corrupt,
                        at,
                        dur,
                    },
                ]),
                1,
            )
        };
        let inside = ms(2).as_nanos();
        let fate = |win: &Windows, now: u64, draws: &[f64]| {
            let mut asked = Vec::new();
            let mut draws = draws.iter();
            let fate = win.send_fate(now, |kind| {
                asked.push(kind);
                *draws.next().expect("drew more often than the rule allows")
            });
            (fate, asked)
        };
        let both = window(0.5, 0.5);
        use FaultKind::{MsgLoss, PayloadCorrupt};
        assert_eq!(fate(&both, inside, &[0.4]), (Some(MsgLoss), vec![MsgLoss]));
        assert_eq!(
            fate(&both, inside, &[0.6, 0.4]),
            (Some(PayloadCorrupt), vec![MsgLoss, PayloadCorrupt])
        );
        assert_eq!(
            fate(&both, inside, &[0.6, 0.6]),
            (None, vec![MsgLoss, PayloadCorrupt])
        );
        // Outside every window, and inside a rate-0 one, the host's RNG is
        // never consulted: plans without a kind leave its stream untouched.
        assert_eq!(fate(&both, ms(3).as_nanos(), &[]), (None, vec![]));
        assert_eq!(fate(&window(0.0, 0.0), inside, &[]), (None, vec![]));
        assert_eq!(
            fate(&window(0.0, 1.0), inside, &[0.9]),
            (Some(PayloadCorrupt), vec![PayloadCorrupt])
        );
    }

    #[test]
    fn barrier_stages_dedups_and_closes_once_every_member_is_whole() {
        let mem = timetable(2, vec![]);
        let mut b = Barriers::new(2, vec![8; 2]);
        let at = (0, 1);
        assert_eq!(arrive(&mut b, &mem, at, 0, (0, 4)), Arrival::Staged);
        // A re-send that raced its ack, whole or as part of a merged run.
        assert_eq!(arrive(&mut b, &mem, at, 0, (0, 4)), Arrival::Duplicate);
        // Out of order: the tail before the gap is filled.
        assert_eq!(arrive(&mut b, &mem, at, 1, (6, 2)), Arrival::Staged);
        assert_eq!(arrive(&mut b, &mem, at, 1, (0, 6)), DONE);
        assert_eq!(arrive(&mut b, &mem, at, 1, (6, 2)), Arrival::Duplicate);
        assert_eq!(arrive(&mut b, &mem, at, 0, (4, 4)), CLOSES);
        assert_eq!(arrive(&mut b, &mem, at, 0, (2, 2)), Arrival::Duplicate);
        assert!(!b.is_stale(0, 1));
        // Two tensors here: the iteration closes with the second barrier.
        assert!(!b.close(0, 1, 2));
        assert_eq!(b.closed_through(1), Some(0));
        assert_eq!(arrive(&mut b, &mem, at, 0, (4, 4)), Arrival::Stale);
        assert_eq!(arrive(&mut b, &mem, (1, 1), 0, (0, 4)), Arrival::Staged);
        for w in 0..2 {
            b.arrive(&mem, 0, 0, w, None, 8);
        }
        assert!(b.close(0, 0, 2), "the iteration's last barrier");
        // `None`: each extent directly follows what is staged.
        assert_eq!(b.arrive(&mem, 1, 0, 0, None, 3), Arrival::Staged);
        assert_eq!(b.arrive(&mem, 1, 0, 0, None, 5), DONE);
    }

    #[test]
    #[should_panic(expected = "worker 1 over-pushed tensor 0")]
    fn over_push_is_a_bug_not_an_arrival() {
        let mem = timetable(2, vec![]);
        let mut b = Barriers::new(2, vec![8]);
        arrive(&mut b, &mem, (0, 0), 1, (0, 6));
        arrive(&mut b, &mem, (0, 0), 1, (6, 4));
    }

    #[test]
    fn shard_crash_replays_wiped_aggregation_state() {
        // Tensor 0 sits on the crashing shard, tensor 1 elsewhere.
        let mem = timetable(3, vec![]);
        let mut b = Barriers::new(3, vec![8; 2]);
        for w in 0..3 {
            arrive(&mut b, &mem, (0, 1), w, (0, 8));
        }
        arrive(&mut b, &mem, (0, 0), 0, (0, 8)); // whole
        arrive(&mut b, &mem, (0, 0), 2, (0, 2)); // partial, with a gap
        arrive(&mut b, &mem, (0, 0), 2, (4, 1));
        b.close(0, 1, 2);
        let replays = b.wipe(|tensor| tensor == 0);
        assert_eq!(replays, vec![(0, 0, 0, 8), (0, 0, 2, 3)]);
        assert!(b.wipe(|_| true).is_empty(), "closed barriers survive");
        assert_eq!(b.closed_through(1), Some(0));
        // The replay re-stages from nothing: what was a duplicate is fresh.
        assert_eq!(arrive(&mut b, &mem, (0, 0), 2, (0, 2)), Arrival::Staged);
        assert_eq!(arrive(&mut b, &mem, (0, 0), 0, (0, 8)), DONE);
    }

    #[test]
    fn barrier_defers_until_a_stalled_workers_eviction_fires() {
        // Worker 2 leaves at boundary 3. The survivors sprint ahead and
        // fill the shrunken iteration-3 barriers before its eviction fires:
        // they may not close yet — and close in key order once it does.
        let mem = timetable(
            3,
            vec![FaultSpec::WorkerFail {
                worker: 2,
                at_iter: 3,
            }],
        );
        let mut b = Barriers::new(3, vec![8; 2]);
        for tensor in [1, 0] {
            assert_eq!(arrive(&mut b, &mem, (3, tensor), 0, (0, 8)), DONE);
            assert_eq!(arrive(&mut b, &mem, (3, tensor), 1, (0, 8)), DONE, "gated");
        }
        assert_eq!(
            arrive(&mut b, &mem, (2, 0), 0, (0, 8)),
            DONE,
            "still a member"
        );
        assert!(!b.has_left(2));
        assert_eq!(b.leave(&mem, 2), vec![(3, 0), (3, 1)]);
        assert!(b.has_left(2));
        // With the eviction fired, a later barrier closes inline.
        b.close(3, 0, 2);
        b.close(3, 1, 2);
        b.adopt(0, Some(3));
        arrive(&mut b, &mem, (4, 0), 0, (0, 8));
        assert_eq!(arrive(&mut b, &mem, (4, 0), 1, (0, 8)), CLOSES);
    }

    fn slice(iter: u64, tensor: usize, offset: u64) -> Slice {
        Slice {
            iter,
            tensor,
            offset,
            len: 4,
            epoch: 0,
        }
    }

    #[test]
    fn retry_episodes_number_consecutively_and_coalesce_until_restamped() {
        let mut o = Outbox::default();
        assert_eq!(o.fail(0, 3, Dir::Push), Some(1));
        assert_eq!(o.fail(0, 3, Dir::Push), None, "joins the open step");
        assert!(o.restamp(0, 3, Dir::Push));
        assert!(!o.restamp(0, 3, Dir::Push), "stamped once per attempt");
        assert_eq!(o.fail(0, 3, Dir::Push), Some(2));
        assert_eq!(o.fail(0, 5, Dir::Push), Some(1), "episodes are per tensor");
        assert!(!o.is_quiet());
        assert_eq!(o.delivered(0, 3), Some(2));
        assert_eq!(o.delivered(0, 3), None, "no Recovered without an episode");
        // The pull of the same tensor is a fresh episode.
        assert_eq!(o.fail(0, 3, Dir::Pull), Some(1));
        assert_eq!(o.delivered(0, 3), Some(1));
        o.begin_iter(1);
        assert!(o.is_quiet(), "tensor 5's episode went with its iteration");
    }

    #[test]
    fn ledger_resends_on_timeout_nack_and_restart_until_delivered() {
        use Step::{Resend, Retry};
        let mut o = Outbox::default();
        let (a, b, c) = (slice(0, 0, 0), slice(0, 0, 4), slice(0, 1, 0));
        o.sent(a, 10);
        o.sent(b, 12);
        o.sent(c, 30);
        assert_eq!(o.next_deadline(), Some(10));
        assert!(o.tick(9).is_empty());
        // Both slices of tensor 0 are due: one retry step, two re-sends.
        let retry0 = |attempt| Retry { tensor: 0, attempt };
        assert_eq!(o.tick(12), vec![retry0(1), Resend(a, 1), Resend(b, 1)]);
        assert_eq!(
            o.next_deadline(),
            Some(30),
            "re-sends are tracked when sent"
        );
        o.restamp(0, 0, Dir::Push);
        o.sent(a, 40);
        o.sent(b, 40);
        // An acknowledged slice never times out and ignores a stray nack …
        o.acked(a);
        assert!(o.nacked(a).is_empty());
        assert_eq!(o.nacked(b), vec![retry0(2), Resend(b, 2)]);
        o.restamp(0, 0, Dir::Push);
        o.sent(b, 50);
        // … an untrusted ack batch only pushes deadlines out …
        o.acks_untrusted(45);
        assert_eq!(o.next_deadline(), Some(45));
        assert!(o.tick(44).is_empty());
        // … but a restart of tensor 0's shard voids it too. Tensor 1 lives
        // elsewhere.
        let steps = o.restarted(|s| s.tensor == 0);
        assert_eq!(steps, vec![retry0(3), Resend(a, 3), Resend(b, 3)]);
        assert_eq!(o.delivered(0, 0), Some(3));
        assert_eq!(o.next_deadline(), Some(45), "tensor 1 is still tracked");
        assert_eq!(o.delivered(0, 1), None);
        assert_eq!(o.next_deadline(), None);
    }

    /// A generation in the simulator's shape, tagged so the model below can
    /// tell which ones survive.
    #[derive(Debug, Clone)]
    struct TestGen {
        id: usize,
        corrupt: bool,
        snap: u64,
        seg: u64,
    }

    impl Generation for TestGen {
        fn intact(&self) -> bool {
            !self.corrupt
        }
        fn restore_bytes(&self) -> u64 {
            self.snap + self.seg
        }
        fn absorb_ledger(&mut self, newer: Self) {
            self.seg += newer.seg;
        }
    }

    /// An arbitrary plan of permanent events over `workers` × `shards`.
    fn membership_plan(
        workers: usize,
        shards: usize,
        fails: &[(usize, u64)],
        joins: &[u64],
        deaths: &[(usize, u64)],
    ) -> FaultPlan {
        let mut faults = Vec::new();
        let mut failed = Vec::new();
        for &(w, k) in fails {
            let w = w % workers;
            if !failed.contains(&w) && failed.len() + 1 < workers {
                failed.push(w);
                faults.push(FaultSpec::WorkerFail {
                    worker: w,
                    at_iter: k,
                });
            }
        }
        for (j, &k) in joins.iter().enumerate() {
            faults.push(FaultSpec::WorkerJoin {
                worker: workers + j,
                at_iter: k,
            });
        }
        let mut dead = Vec::new();
        for &(s, k) in deaths {
            let s = s % shards;
            if !dead.contains(&s) && dead.len() + 1 < shards {
                dead.push(s);
                faults.push(FaultSpec::ShardFail {
                    shard: s,
                    at_iter: k,
                });
            }
        }
        let plan = FaultPlan::new(faults);
        plan.validate(workers, shards);
        plan
    }

    proptest! {
        /// Windows are half-open, and a shorter window closing inside a
        /// longer one never un-faults the node or improves its severity.
        #[test]
        fn windows_are_half_open_and_worst_wins(
            spans in prop::collection::vec((0u64..1_000, 1u64..500, 1u32..100), 1..6),
        ) {
            let plan = FaultPlan::new(
                spans
                    .iter()
                    .map(|&(at, dur, pct)| FaultSpec::LinkDegrade {
                        node: 0,
                        at: SimTime::from_nanos(at),
                        factor: pct as f64 / 100.0,
                        dur: Duration::from_nanos(dur),
                    })
                    .collect(),
            );
            let win = Windows::new(&plan, 1);
            let until = |t| win.active_until(FaultKind::LinkDegrade, &[0], t);
            let worst = |t| win.worst_at(FaultKind::LinkDegrade, &[0], t);
            for w in win.all() {
                prop_assert!(until(w.start) >= Some(w.end));
                prop_assert!(until(w.end - 1) >= Some(w.end));
                prop_assert_ne!(until(w.end), Some(w.end));
                prop_assert_eq!(until(w.end).is_some(), worst(w.end).is_some());
                for short in win.all() {
                    if w.start <= short.start && short.end < w.end {
                        // `short` just closed inside `w`.
                        prop_assert!(until(short.end) >= Some(w.end));
                        prop_assert!(worst(short.end).is_some_and(|f| f <= w.severity));
                    }
                }
            }
        }

        /// The member list, the barrier size and the per-worker spans agree;
        /// a closable barrier stays closable as further evictions fire; and
        /// no owner table in force names a shard that is already dead.
        #[test]
        fn membership_is_consistent_and_close_is_monotone(
            workers in 1usize..5,
            shards in 1usize..4,
            iterations in 1u64..9,
            fails in prop::collection::vec((0usize..8, 1u64..10), 0..3),
            joins in prop::collection::vec(1u64..10, 0..3),
            deaths in prop::collection::vec((0usize..8, 1u64..10), 0..3),
            gone_bits in 0u32..256,
        ) {
            let plan = membership_plan(workers, shards, &fails, &joins, &deaths);
            let tensors = 7;
            let mem = Membership::new(
                &plan,
                workers,
                iterations,
                (0..tensors).map(|g| g % shards).collect(),
                |owner, dead_so_far, dead| rehome_modular(owner, shards, dead_so_far, dead),
            );
            let total = mem.total_workers();
            prop_assert_eq!(total, workers + joins.len());
            let gone: Vec<bool> = (0..total).map(|w| gone_bits >> w & 1 == 1).collect();
            for i in 0..iterations {
                let members = mem.members(i);
                prop_assert_eq!(members.len(), mem.expected(i));
                prop_assert!(mem.expected(i) >= 1, "iteration {} has no member", i);
                for w in 0..total {
                    prop_assert_eq!(members.contains(&w), mem.is_member(w, i));
                    let (from, until) = mem.span(w);
                    prop_assert_eq!(mem.is_member(w, i), from <= i && i < until);
                }
                prop_assert!(!mem.may_close(i, mem.expected(i) - 1, &vec![true; total]));
                if mem.may_close(i, mem.expected(i), &gone) {
                    for w in 0..total {
                        let mut more = gone.clone();
                        more[w] = true;
                        prop_assert!(mem.may_close(i, mem.expected(i), &more));
                    }
                }
                // Closable exactly when every eviction at or before `i` fired.
                let settled = (0..total).all(|w| mem.leaves_at(w).is_none_or(|k| k > i || gone[w]));
                prop_assert_eq!(mem.may_close(i, mem.expected(i), &gone), settled);
                for &o in mem.owner_at(i) {
                    prop_assert!(mem.shard_dies_at(o).is_none_or(|k| k > i));
                }
            }
            if !plan.has_permanent() {
                prop_assert_eq!(mem.members(0), (0..workers).collect::<Vec<_>>());
                prop_assert!(mem.shard_deaths().is_empty() && mem.joins().is_empty());
            }
            // Owner epochs: one per distinct boundary, each the table in
            // force from that boundary on.
            let epochs = mem.owner_epochs();
            prop_assert!(epochs.windows(2).all(|p| p[0].0 < p[1].0));
            for &(k, table) in &epochs {
                prop_assert_eq!(table, mem.owner_at(k));
            }
        }

        /// GC keeps the chain within its retention without ever dropping
        /// the only intact generation; the fallback picks the newest intact
        /// one, `depth` counts the corrupt ones newer than it, and the bytes
        /// it replays are exactly the ledger appended since that generation
        /// was written — merges of collected corrupt generations lose none.
        #[test]
        fn gen_chain_gc_and_fallback(
            retention in 1usize..4,
            ops in prop::collection::vec((0u8..2, 0u64..50, 1u64..20), 1..24),
        ) {
            let mut chain = GenChain::new(
                TestGen { id: 0, corrupt: false, snap: 5, seg: 0 },
                retention,
            );
            // Total ledger bytes appended before generation `id` was pushed.
            let mut ledger_at_push = vec![0u64];
            let mut ledger_total = 0u64;
            for (i, &(corrupt, ledger, snap)) in ops.iter().enumerate() {
                let corrupt = corrupt == 1;
                chain.newest_mut().seg += ledger;
                ledger_total += ledger;
                ledger_at_push.push(ledger_total);
                chain.push(TestGen { id: i + 1, corrupt, snap, seg: 0 });

                let gens = chain.gens();
                prop_assert!(gens.len() <= retention);
                prop_assert!(gens.windows(2).all(|p| p[0].id < p[1].id));
                let fb = chain.fallback().expect("the only intact generation was collected");
                let chosen = &gens[fb.intact];
                prop_assert!(chosen.intact());
                let newer = &gens[fb.intact + 1..];
                prop_assert!(newer.iter().all(|g| g.corrupt));
                prop_assert_eq!(fb.depth, newer.len() as u64);
                let snaps: u64 = gens[fb.intact..].iter().map(|g| g.snap).sum();
                prop_assert_eq!(fb.bytes - snaps, ledger_total - ledger_at_push[chosen.id]);
            }
        }

        /// `Barriers` is order-insensitive across workers: whatever order
        /// the same slices arrive in — with or without a mid-way wipe —
        /// the same barriers close and the same contributions are replayed.
        #[test]
        fn barriers_are_insensitive_to_arrival_order(
            workers in 1usize..5,
            pieces in 1u64..4,
            order in prop::collection::vec(0u64..1_000_000, 48..49),
            wipe_after in prop::option::of(0usize..40),
        ) {
            let mem = timetable(workers, vec![]);
            // Every worker's pieces of both tensors, tagged for shuffling.
            let mut sends = Vec::new();
            for w in 0..workers {
                for tensor in 0..2 {
                    for p in 0..pieces {
                        sends.push((w, tensor, p));
                    }
                }
            }
            let run = |order: &[(usize, usize, u64)]| {
                let mut b = Barriers::new(workers, vec![pieces; 2]);
                let mut closed = BTreeSet::new();
                let mut replays = Vec::new();
                for (i, &(w, tensor, p)) in order.iter().enumerate() {
                    if wipe_after == Some(i) {
                        replays = b.wipe(|_| true);
                    }
                    let arrival = b.arrive(&mem, 0, tensor, w, Some(p), 1);
                    if arrival == CLOSES {
                        b.close(0, tensor, 2);
                        closed.insert(tensor);
                    }
                }
                replays.sort();
                (closed, replays)
            };
            let mut shuffled: Vec<_> = sends.iter().copied().zip(&order).collect();
            shuffled.sort_by_key(|&(_, key)| *key);
            let shuffled: Vec<_> = shuffled.into_iter().map(|(s, _)| s).collect();
            // Without a wipe everything closes; with one, a permutation of
            // the *prefix* must not change what is replayed.
            let cut = wipe_after.map_or(0, |i| i.min(sends.len()));
            let mut mixed = shuffled.clone();
            mixed[..cut].reverse();
            let (closed, replays) = run(&shuffled);
            prop_assert_eq!(run(&mixed), (closed.clone(), replays));
            if wipe_after.is_none() {
                prop_assert_eq!(closed.len(), 2);
                prop_assert_eq!(run(&sends).0.len(), 2);
            }
        }

        /// Under any interleaving of failures, re-stamps, deliveries and
        /// ledger traffic, an `Outbox` never reports a recovery without an
        /// open episode, never repeats or skips an attempt number within
        /// one, and reports exactly the attempts it opened.
        #[test]
        fn outbox_episodes_are_well_numbered(
            ops in prop::collection::vec((0u8..8, 0usize..3, 0u64..3), 1..80),
        ) {
            let mut o = Outbox::default();
            // The checker's view: retries seen per open episode.
            let mut seen: BTreeMap<usize, u32> = BTreeMap::new();
            let mut now = 0u64;
            let trace = |steps: Vec<Step>, seen: &mut BTreeMap<usize, u32>| {
                for step in steps {
                    match step {
                        Step::Retry { tensor, attempt } => {
                            let n = seen.entry(tensor).or_insert(0);
                            prop_assert_eq!(attempt, *n + 1);
                            *n = attempt;
                        }
                        Step::Resend(s, attempt) => {
                            prop_assert_eq!(seen.get(&s.tensor), Some(&attempt));
                        }
                    }
                }
                Ok(())
            };
            for (op, tensor, offset) in ops {
                now += 1;
                let s = Slice { iter: 0, tensor, offset, len: 1, epoch: 0 };
                match op {
                    0 => o.sent(s, now + offset),
                    1 => o.acked(s),
                    2 => trace(o.nacked(s), &mut seen)?,
                    3 => trace(o.tick(now), &mut seen)?,
                    4 => trace(o.restarted(|s| s.tensor == tensor), &mut seen)?,
                    5 => {
                        o.restamp(0, tensor, Dir::Push);
                    }
                    6 => {
                        if let Some(attempt) = o.fail(0, tensor, Dir::Pull) {
                            let n = seen.entry(tensor).or_insert(0);
                            prop_assert_eq!(attempt, *n + 1);
                            *n = attempt;
                        }
                    }
                    _ => prop_assert_eq!(o.delivered(0, tensor), seen.remove(&tensor)),
                }
                prop_assert_eq!(o.is_quiet(), seen.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "over-pulled tensor 1")]
    fn landing_more_than_a_tensor_holds_panics() {
        let mut w = Worker::new(vec![2, 3]);
        w.begin_iter(0);
        assert_eq!(w.land(1, 2), None);
        w.land(1, 2);
    }

    /// The checker's view of one [`Worker`] iteration: what a trace
    /// consumer may expect, built from the trace contract alone.
    #[derive(Default)]
    struct WorkerModel {
        /// Per `Dir`, per tensor: issued extent, and whether the next
        /// extent to reach the wire must carry a stamp.
        issued: [Vec<u64>; 2],
        awaiting: [Vec<bool>; 2],
        stamps: [Vec<u32>; 2],
        landed: Vec<u64>,
        pull_ends: Vec<u32>,
        pushed_home: Vec<bool>,
        /// Attempts of each tensor's open retry episode.
        open: Vec<Option<u32>>,
        /// Failed `(dir, tensor)` transfers awaiting their re-send.
        resends: Vec<(Dir, usize)>,
    }

    impl WorkerModel {
        fn new(n: usize) -> Self {
            WorkerModel {
                issued: [vec![0; n], vec![0; n]],
                awaiting: [vec![true; n], vec![true; n]],
                stamps: [vec![0; n], vec![0; n]],
                landed: vec![0; n],
                pull_ends: vec![0; n],
                pushed_home: vec![false; n],
                open: vec![None; n],
                resends: Vec::new(),
            }
        }

        /// An extent of `(dir, g)` reached the wire with this `stamp`: it
        /// is stamped exactly when its attempt has no stamp yet.
        fn on_wire(&mut self, dir: Dir, g: usize, stamp: bool) -> Result<(), TestCaseError> {
            let d = dir as usize;
            prop_assert_eq!(stamp, self.awaiting[d][g], "stamp of {:?} {}", dir, g);
            self.awaiting[d][g] = false;
            self.stamps[d][g] += stamp as u32;
            Ok(())
        }

        /// `fail` answered `got`: a step opens exactly when the attempt
        /// was stamped, numbered one past the episode's last.
        fn on_fail(&mut self, dir: Dir, g: usize, got: Option<u32>) -> Result<(), TestCaseError> {
            let d = dir as usize;
            prop_assert_eq!(got.is_some(), !self.awaiting[d][g]);
            if let Some(attempt) = got {
                prop_assert_eq!(attempt, self.open[g].unwrap_or(0) + 1);
                self.open[g] = Some(attempt);
                self.awaiting[d][g] = true;
            }
            Ok(())
        }

        /// A delivery reported `recovered`: exactly the open episode's
        /// attempts, if one was open. Closing it settles its void stamps.
        fn on_delivered(&mut self, g: usize, recovered: Option<u32>) -> Result<(), TestCaseError> {
            prop_assert_eq!(recovered, self.open[g].take());
            if recovered.is_some() {
                for d in 0..2 {
                    self.awaiting[d][g] &= self.issued[d][g] == 0;
                }
            }
            Ok(())
        }
    }

    proptest! {
        /// Under arbitrary interleavings of issue, landing, failure,
        /// re-send, shard crash-restart and iteration boundaries, a
        /// `Worker` stamps each attempt exactly once (and nothing that
        /// never reached the wire), ends each tensor's pull once when its
        /// extents add up, reports a recovery exactly when an episode was
        /// open with consecutive attempts, and opens the forward gate
        /// monotonically within an iteration, shut again at its boundary.
        #[test]
        fn worker_stamps_lands_and_gates_by_the_trace_contract(
            sizes in prop::collection::vec(1u64..4, 1..4),
            ops in prop::collection::vec((0u8..8, 0usize..4, 1u64..3, 0u8..2), 1..120),
        ) {
            let n = sizes.len();
            let mut w = Worker::new(sizes.clone());
            let mut m = WorkerModel::new(n);
            let mut iter = 0;
            w.begin_iter(iter);
            for (op, g, len, d) in ops {
                let g = g % n;
                let dir = if d == 0 { Dir::Push } else { Dir::Pull };
                let ready: Vec<bool> = (0..n).map(|k| w.forward_ready(k)).collect();
                match op {
                    // New extents reach the wire; a push is tracked.
                    0 | 1 => {
                        let dir = if op == 0 { Dir::Push } else { Dir::Pull };
                        let left = sizes[g] - m.issued[dir as usize][g];
                        let len = len.min(left);
                        if len > 0 {
                            let (offset, stamp) = w.issue(dir, g, len);
                            prop_assert_eq!(offset, m.issued[dir as usize][g]);
                            m.issued[dir as usize][g] += len;
                            m.on_wire(dir, g, stamp)?;
                            if dir == Dir::Push {
                                let slice = Slice { iter, tensor: g, offset, len, epoch: 0 };
                                w.outbox.sent(slice, u64::MAX - 1);
                            }
                        }
                    }
                    // A transfer on the wire fails; its re-send waits.
                    2 if m.issued[dir as usize][g] > 0 => {
                        let got = w.outbox.fail(iter, g, dir);
                        m.on_fail(dir, g, got)?;
                        m.resends.push((dir, g));
                    }
                    // The oldest failed transfer is sent again.
                    3 if !m.resends.is_empty() => {
                        let (dir, g) = m.resends.remove(0);
                        let stamp = w.outbox.restamp(iter, g, dir);
                        m.on_wire(dir, g, stamp)?;
                    }
                    // Pulled extents land.
                    4 => {
                        let len = len.min(m.issued[1][g] - m.landed[g]);
                        if len > 0 {
                            m.landed[g] += len;
                            let done = w.land(g, len);
                            prop_assert_eq!(done.is_some(), m.landed[g] == sizes[g]);
                            if let Some(done) = done {
                                m.pull_ends[g] += 1;
                                m.on_delivered(g, done.recovered)?;
                            }
                        }
                    }
                    // A whole push is delivered, once.
                    5 if m.issued[0][g] == sizes[g] && !m.pushed_home[g] => {
                        m.pushed_home[g] = true;
                        let recovered = w.outbox.delivered(iter, g);
                        m.on_delivered(g, recovered)?;
                    }
                    // The shard of tensor `g` crash-restarts: every
                    // undelivered push of it is retried.
                    6 => {
                        for step in w.outbox.restarted(|s| s.tensor == g) {
                            match step {
                                Step::Retry { tensor, attempt } => {
                                    m.on_fail(Dir::Push, tensor, Some(attempt))?;
                                }
                                Step::Resend(s, attempt) => {
                                    prop_assert!(m.awaiting[0][s.tensor]);
                                    prop_assert_eq!(Some(attempt), m.open[s.tensor]);
                                    w.outbox.sent(s, u64::MAX - 1);
                                    m.resends.push((Dir::Push, s.tensor));
                                }
                            }
                        }
                    }
                    // The iteration ends.
                    7 => {
                        for d in 0..2 {
                            let unsent = m.issued[d].iter().zip(&m.stamps[d]);
                            prop_assert!(unsent.filter(|&(&i, _)| i == 0).all(|(_, &s)| s == 0));
                        }
                        let whole = m.landed.iter().zip(&sizes).map(|(l, s)| (l == s) as u32);
                        prop_assert_eq!(m.pull_ends.clone(), whole.collect::<Vec<_>>());
                        iter += 1;
                        w.begin_iter(iter);
                        m = WorkerModel::new(n);
                        for k in 0..n {
                            prop_assert!(!w.forward_ready(k));
                        }
                        continue;
                    }
                    _ => {}
                }
                for k in 0..n {
                    prop_assert_eq!(w.forward_ready(k), m.landed[k] == sizes[k]);
                    prop_assert!(w.forward_ready(k) || !ready[k], "gate {} shut again", k);
                }
                prop_assert_eq!(w.all_landed(), (0..n).all(|k| m.landed[k] == sizes[k]));
                prop_assert_eq!(w.outbox.is_quiet(), m.open.iter().all(Option::is_none));
            }
        }
    }
}
