//! Bounded model check of the delivery protocol (DESIGN.md §16 "Delivery").
//!
//! `protocol::Delivery` is pure, so its safety and liveness can be
//! *enumerated* instead of sampled: this test composes one [`Outbox`] per
//! worker and one [`Barriers`] per shard with per-channel FIFO queues (what
//! the runtime's channels give) and explores, depth-first with
//! visited-state hashing, every interleaving of message deliveries and
//! iteration boundaries plus every placement of up to two faults out of
//!
//! * drop a push (`MsgLoss`),
//! * corrupt a push (the shard NACKs it),
//! * corrupt an ack (the worker distrusts it),
//! * delay acks past the deadline (a spurious timeout re-send),
//! * crash-and-wipe a shard,
//! * evict a worker at the iteration boundary (a `WorkerFail` in the plan),
//!
//! for 2 workers × 2 shards × 2 tensors × 2 iterations, to a fixed point.
//!
//! Checked on every transition — **safety**: no barrier closes with a
//! member's extent missing or counted twice, and nothing is accepted into a
//! closed barrier; **extent conservation**: every unit that reaches a shard
//! is staged once, or dropped as a `Duplicate` of a staged unit, as `Stale`
//! for a closed barrier, or as addressed to a dead incarnation, and every
//! contribution a wipe voids is sent again by its worker; retry attempts
//! number consecutively and `Recovered` matches them. Checked on every
//! terminal state — **liveness**: a state with no enabled transition has
//! every worker finished and every ledger settled.
//!
//! Symmetry: tensor `t` lives on shard `t` and every worker pushes both, so
//! swapping the shards (with their tensors) maps runs onto runs, and so
//! does swapping the workers when the plan evicts neither. Every run is the
//! mirror image of one whose *first* fault sits on shard 0 (and worker 0),
//! so only those first placements are explored; the second fault is free.
//!
//! Time is abstract: every ack deadline is "now", so `tick` re-sends
//! whatever is unacknowledged. A timeout is free when the system is
//! otherwise quiescent (time passing is then the only thing that can
//! happen) and a counted fault when it races messages still in flight.

use prophet_core::Dir;
use prophet_ps::protocol::{Arrival, Barriers, Membership, Outbox, Slice, Step};
use prophet_sim::{FaultPlan, FaultSpec};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const WORKERS: usize = 2;
const SHARDS: usize = 2;
const TENSORS: usize = 2;
const ITERS: u64 = 2;

/// Tensor `t` lives on shard `t`: one barrier per shard per iteration.
fn owner(tensor: usize) -> usize {
    tensor % SHARDS
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Msg {
    Push {
        worker: usize,
        slice: Slice,
        corrupt: bool,
    },
    Ack {
        slice: Slice,
        corrupt: bool,
    },
    Nack(Slice),
    /// The runtime's `ParamReady`: the barrier closed.
    Closed {
        iter: u64,
        tensor: usize,
    },
    Restarted {
        shard: usize,
        epoch: u64,
    },
    Leave(usize),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Worker {
    iter: u64,
    until: u64,
    closed: [bool; TENSORS],
    /// Newest incarnation of each shard this worker knows.
    epochs: [u64; SHARDS],
    outbox: Outbox,
    /// Retry attempts traced per open episode — the checker's rule.
    traced: BTreeMap<(u64, usize), u32>,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Shard {
    epoch: u64,
    barriers: Barriers,
    /// Ground truth: offsets staged per open `(iter, tensor)` per worker
    /// since the last wipe.
    staged: BTreeMap<(u64, usize), [BTreeSet<u64>; WORKERS]>,
    closed: BTreeSet<(u64, usize)>,
    /// Per worker, the extents a wipe voided that its next restart notice
    /// must see re-sent: `(epoch of the notice, extent)`.
    owed: [Vec<(u64, u64)>; WORKERS],
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    workers: [Worker; WORKERS],
    shards: [Shard; SHARDS],
    /// FIFO per `(sender, receiver)` node pair; shards are nodes
    /// `0..SHARDS`, workers follow.
    channels: BTreeMap<(usize, usize), VecDeque<Msg>>,
    faults_left: u8,
}

#[derive(Clone, Copy, Debug)]
enum Move {
    Deliver(usize, usize),
    /// Worker crosses the iteration boundary and pushes the next
    /// iteration's slices (as the runtime's `drive` does before it first
    /// blocks on its inbox).
    Advance(usize),
    /// Free timeout of a quiescent system, or (counted) a spurious one.
    Tick(usize, bool),
    DropPush(usize, usize),
    CorruptHead(usize, usize),
    Crash(usize),
}

struct Model {
    slices: u64,
    mem: Membership,
    /// The fault budget a run starts with.
    budget: u8,
    /// The plan evicts nobody: the workers are interchangeable.
    workers_alike: bool,
}

impl Model {
    fn initial(&self, faults: u8) -> State {
        let worker = |w| Worker {
            iter: 0,
            until: self.mem.span(w).1,
            closed: [false; TENSORS],
            epochs: [0; SHARDS],
            outbox: Outbox::default(),
            traced: BTreeMap::new(),
        };
        let shard = || Shard {
            epoch: 0,
            barriers: Barriers::new(WORKERS, vec![self.slices; TENSORS]),
            staged: BTreeMap::new(),
            closed: BTreeSet::new(),
            owed: Default::default(),
        };
        let mut root = State {
            workers: [worker(0), worker(1)],
            shards: [shard(), shard()],
            channels: BTreeMap::new(),
            faults_left: faults,
        };
        (0..WORKERS).for_each(|w| self.push_iteration(&mut root, w));
        root
    }

    /// Worker `w` pushes every slice of its current iteration.
    fn push_iteration(&self, s: &mut State, w: usize) {
        for tensor in 0..TENSORS {
            for offset in 0..self.slices {
                let wk = &s.workers[w];
                let (iter, epoch) = (wk.iter, wk.epochs[owner(tensor)]);
                let len = 1;
                self.push(
                    s,
                    w,
                    Slice {
                        iter,
                        tensor,
                        offset,
                        len,
                        epoch,
                    },
                );
            }
        }
    }

    /// May a fault touch `worker` / `shard` now? Anything after the first
    /// fault; the first only in its canonical placement (see "Symmetry").
    fn placeable(&self, s: &State, worker: Option<usize>, shard: Option<usize>) -> bool {
        let first = s.faults_left == self.budget;
        let canonical =
            shard.is_none_or(|sh| sh == 0) && worker.is_none_or(|w| w == 0 || !self.workers_alike);
        s.faults_left > 0 && (!first || canonical)
    }

    fn moves(&self, s: &State) -> Vec<Move> {
        let mut out = Vec::new();
        for (&(from, to), q) in &s.channels {
            let Some(head) = q.front() else { continue };
            out.push(Move::Deliver(from, to));
            let (shard, worker) = (from.min(to), from.max(to) - SHARDS);
            if self.placeable(s, Some(worker), Some(shard)) {
                match head {
                    Msg::Push { corrupt: false, .. } => {
                        out.push(Move::DropPush(from, to));
                        out.push(Move::CorruptHead(from, to));
                    }
                    Msg::Ack { corrupt: false, .. } => out.push(Move::CorruptHead(from, to)),
                    _ => {}
                }
            }
        }
        for (w, wk) in s.workers.iter().enumerate() {
            if wk.iter < wk.until && wk.closed.iter().all(|&c| c) {
                out.push(Move::Advance(w));
            }
        }
        let quiescent = out.is_empty();
        for (w, wk) in s.workers.iter().enumerate() {
            let spurious = !quiescent && self.placeable(s, Some(w), None);
            if wk.outbox.next_deadline().is_some() && (quiescent || spurious) {
                out.push(Move::Tick(w, !quiescent));
            }
        }
        let crashable = |&shard: &usize| self.placeable(s, None, Some(shard));
        out.extend((0..SHARDS).filter(crashable).map(Move::Crash));
        out
    }

    fn apply(&self, s: &mut State, mv: Move) {
        match mv {
            Move::Deliver(from, to) => {
                let msg = s
                    .channels
                    .get_mut(&(from, to))
                    .unwrap()
                    .pop_front()
                    .unwrap();
                if to < SHARDS {
                    self.shard_receives(s, to, msg);
                } else {
                    self.worker_receives(s, to - SHARDS, msg);
                }
            }
            Move::Advance(w) => {
                let wk = &mut s.workers[w];
                assert!(wk.outbox.is_quiet(), "episode left open across a boundary");
                wk.iter += 1;
                wk.closed = [false; TENSORS];
                wk.outbox.begin_iter(wk.iter);
                if wk.iter < wk.until {
                    self.push_iteration(s, w);
                } else if wk.until < ITERS {
                    for shard in 0..SHARDS {
                        send(s, SHARDS + w, shard, Msg::Leave(w));
                    }
                }
            }
            Move::Tick(w, counted) => {
                s.faults_left -= counted as u8;
                let steps = s.workers[w].outbox.tick(0);
                assert!(!steps.is_empty(), "a due deadline produced no re-send");
                self.redo(s, w, steps);
            }
            Move::DropPush(from, to) => {
                s.faults_left -= 1;
                s.channels.get_mut(&(from, to)).unwrap().pop_front();
            }
            Move::CorruptHead(from, to) => {
                s.faults_left -= 1;
                match s.channels.get_mut(&(from, to)).unwrap().front_mut() {
                    Some(Msg::Push { corrupt, .. } | Msg::Ack { corrupt, .. }) => *corrupt = true,
                    other => panic!("nothing to corrupt at the head: {other:?}"),
                }
            }
            Move::Crash(shard) => {
                s.faults_left -= 1;
                let sh = &mut s.shards[shard];
                sh.epoch += 1;
                let epoch = sh.epoch;
                // Conservation: the machine's replay list is exactly what
                // the ground truth says was staged.
                let mut truth = Vec::new();
                for (&(iter, tensor), per_worker) in &sh.staged {
                    for (worker, offsets) in per_worker.iter().enumerate() {
                        if !offsets.is_empty() {
                            truth.push((iter, tensor, worker, offsets.len() as u64));
                        }
                    }
                }
                let replays = sh.barriers.wipe(|_| true);
                assert_eq!(replays, truth, "wipe lists what was staged");
                for (_, _, worker, extent) in replays {
                    sh.owed[worker].push((epoch, extent));
                }
                sh.staged.clear();
                for w in 0..WORKERS {
                    send(s, shard, SHARDS + w, Msg::Restarted { shard, epoch });
                }
            }
        }
    }

    /// Track `slice` and put it on the wire.
    fn push(&self, s: &mut State, worker: usize, slice: Slice) {
        s.workers[worker].outbox.sent(slice, 0);
        let msg = Msg::Push {
            worker,
            slice,
            corrupt: false,
        };
        send(s, SHARDS + worker, owner(slice.tensor), msg);
    }

    /// Carry out an outbox's steps as the runtime's `redo` does, holding
    /// them to the trace checker's retry-numbering rule. Returns the
    /// extent re-sent.
    fn redo(&self, s: &mut State, w: usize, steps: Vec<Step>) -> u64 {
        let mut resent = 0;
        for step in steps {
            match step {
                Step::Retry { tensor, attempt } => {
                    let wk = &mut s.workers[w];
                    let seen = wk.traced.entry((wk.iter, tensor)).or_insert(0);
                    assert_eq!(attempt, *seen + 1, "retry attempts are consecutive");
                    *seen = attempt;
                }
                Step::Resend(slice, attempt) => {
                    let wk = &mut s.workers[w];
                    assert_eq!(slice.iter, wk.iter, "re-send of a settled iteration");
                    assert_eq!(wk.traced.get(&(slice.iter, slice.tensor)), Some(&attempt));
                    wk.outbox.restamp(slice.iter, slice.tensor, Dir::Push);
                    let epoch = wk.epochs[owner(slice.tensor)];
                    self.push(s, w, Slice { epoch, ..slice });
                    resent += slice.len;
                }
            }
        }
        resent
    }

    fn worker_receives(&self, s: &mut State, w: usize, msg: Msg) {
        let wk = &mut s.workers[w];
        if wk.iter >= wk.until {
            return; // gone: the runtime's thread has exited
        }
        match msg {
            Msg::Ack { corrupt: true, .. } => wk.outbox.acks_untrusted(0),
            Msg::Ack { slice, .. } => wk.outbox.acked(slice),
            Msg::Nack(slice) => {
                let steps = wk.outbox.nacked(slice);
                self.redo(s, w, steps);
            }
            Msg::Closed { iter, tensor } => {
                assert_eq!(iter, wk.iter, "barrier notice from another iteration");
                assert!(!wk.closed[tensor], "barrier closed twice");
                wk.closed[tensor] = true;
                let recovered = wk.outbox.delivered(iter, tensor);
                assert_eq!(recovered, wk.traced.remove(&(iter, tensor)), "Recovered");
            }
            Msg::Restarted { shard, epoch } => {
                assert!(epoch > wk.epochs[shard], "restart notices arrive in order");
                wk.epochs[shard] = epoch;
                let steps = wk.outbox.restarted(|s| owner(s.tensor) == shard);
                let resent = self.redo(s, w, steps);
                // Conservation: what the wipe voided is sent again.
                let owed = &mut s.shards[shard].owed[w];
                let due: u64 = owed.iter().filter(|o| o.0 <= epoch).map(|o| o.1).sum();
                owed.retain(|o| o.0 > epoch);
                assert!(resent >= due, "wipe voided {due}, worker re-sent {resent}");
            }
            Msg::Push { .. } | Msg::Leave(_) => unreachable!("not addressed to a worker"),
        }
    }

    fn shard_receives(&self, s: &mut State, sh: usize, msg: Msg) {
        match msg {
            Msg::Push {
                worker,
                slice,
                corrupt,
            } => {
                let shard = &mut s.shards[sh];
                if slice.epoch != shard.epoch {
                    assert!(slice.epoch < shard.epoch, "push from the future");
                    return; // addressed to a dead incarnation
                }
                let key = (slice.iter, slice.tensor);
                if shard.barriers.is_stale(slice.iter, slice.tensor) {
                    assert!(shard.closed.contains(&key), "stale, but never closed");
                    return send(s, sh, SHARDS + worker, ack(slice));
                }
                if corrupt {
                    return send(s, sh, SHARDS + worker, Msg::Nack(slice));
                }
                assert!(
                    !shard.closed.contains(&key),
                    "accepted into a closed barrier"
                );
                let arrival = shard.barriers.arrive(
                    &self.mem,
                    slice.iter,
                    slice.tensor,
                    worker,
                    Some(slice.offset),
                    slice.len,
                );
                let staged = &mut shard.staged.entry(key).or_default()[worker];
                match arrival {
                    Arrival::Stale => panic!("is_stale and arrive disagree"),
                    Arrival::Duplicate => {
                        assert!(staged.contains(&slice.offset), "fresh unit dropped")
                    }
                    Arrival::Staged | Arrival::WorkerDone { .. } => {
                        assert!(staged.insert(slice.offset), "unit staged twice");
                        let whole = staged.len() as u64 == self.slices;
                        let done = matches!(arrival, Arrival::WorkerDone { .. });
                        assert_eq!(done, whole, "worker-done is extent-complete");
                    }
                }
                send(s, sh, SHARDS + worker, ack(slice));
                if let Arrival::WorkerDone { closes: true } = arrival {
                    self.close(s, sh, slice.iter, slice.tensor);
                }
            }
            Msg::Leave(worker) => {
                for (iter, tensor) in s.shards[sh].barriers.leave(&self.mem, worker) {
                    self.close(s, sh, iter, tensor);
                }
            }
            _ => unreachable!("not addressed to a shard"),
        }
    }

    /// Safety at the moment a barrier closes: exactly the iteration's
    /// members contributed, each its whole extent, each unit once.
    fn close(&self, s: &mut State, sh: usize, iter: u64, tensor: usize) {
        let shard = &mut s.shards[sh];
        let staged = shard.staged.remove(&(iter, tensor)).unwrap_or_default();
        for (w, offsets) in staged.iter().enumerate() {
            let want = if self.mem.is_member(w, iter) {
                self.slices
            } else {
                0
            };
            assert_eq!(
                offsets.len() as u64,
                want,
                "barrier ({iter}, {tensor}) closed on {offsets:?} from worker {w}"
            );
        }
        for w in 0..WORKERS {
            let evicted = self.mem.leaves_at(w).is_some_and(|k| k <= iter);
            assert!(
                !evicted || shard.barriers.has_left(w),
                "barrier ({iter}, {tensor}) closed ahead of worker {w}'s eviction notice"
            );
        }
        assert!(shard.closed.insert((iter, tensor)), "barrier closed twice");
        let iteration_closed = shard.barriers.close(iter, tensor, 1);
        assert!(iteration_closed, "one barrier per shard per iteration");
        for &w in self.mem.members(iter) {
            send(s, sh, SHARDS + w, Msg::Closed { iter, tensor });
        }
    }

    /// Liveness, checked where nothing more can happen.
    fn check_terminal(&self, s: &State) {
        for (w, wk) in s.workers.iter().enumerate() {
            assert_eq!(wk.iter, wk.until, "deadlock: worker {w} stuck mid-run");
            assert!(wk.outbox.is_quiet() && wk.outbox.next_deadline().is_none());
        }
        for (sh, shard) in s.shards.iter().enumerate() {
            assert!(
                shard.staged.is_empty(),
                "shard {sh} ended with open barriers"
            );
            assert_eq!(
                shard.closed.len() as u64,
                ITERS,
                "shard {sh} missed a barrier"
            );
            assert!(
                shard.owed.iter().all(Vec::is_empty),
                "a wipe was never replayed"
            );
        }
    }
}

fn ack(slice: Slice) -> Msg {
    let corrupt = false;
    Msg::Ack { slice, corrupt }
}

fn send(s: &mut State, from: usize, to: usize, msg: Msg) {
    s.channels.entry((from, to)).or_default().push_back(msg);
}

/// A multiply-rotate word hasher (the `FxHash` recipe): the derived `Hash`
/// of a state is thousands of small integer writes, which SipHash makes the
/// dominant cost of a debug-build exploration.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint(s: &State) -> u64 {
    let mut h = WordHasher::default();
    s.hash(&mut h);
    h.finish()
}

/// Explore every reachable state of one scenario; returns
/// `(states, terminal states)`.
fn explore(slices: u64, evict: Option<usize>, faults: u8) -> (usize, usize) {
    let plan = FaultPlan::new(
        evict
            .map(|worker| FaultSpec::WorkerFail { worker, at_iter: 1 })
            .into_iter()
            .collect(),
    );
    let owner0 = (0..TENSORS).map(owner).collect();
    let mem = Membership::new(&plan, WORKERS, ITERS, owner0, |_, _, _| {});
    let model = Model {
        slices,
        mem,
        budget: faults,
        workers_alike: evict.is_none(),
    };
    let root = model.initial(faults);
    let mut seen: HashSet<u64, BuildHasherDefault<WordHasher>> = HashSet::default();
    seen.insert(fingerprint(&root));
    let mut stack = vec![root];
    let mut terminals = 0;
    while let Some(state) = stack.pop() {
        let moves = model.moves(&state);
        if moves.is_empty() {
            model.check_terminal(&state);
            terminals += 1;
        }
        for mv in moves {
            let mut next = state.clone();
            model.apply(&mut next, mv);
            // Drained channels are no state.
            next.channels.retain(|_, q| !q.is_empty());
            if seen.insert(fingerprint(&next)) {
                stack.push(next);
            }
        }
    }
    (seen.len(), terminals)
}

/// Every placement of up to `faults` faults: an eviction in the plan spends
/// one of them.
fn enumerate(slices: u64, faults: u8) {
    let t0 = std::time::Instant::now();
    let mut total = 0;
    for (evict, faults) in [(None, faults), (Some(0), faults - 1), (Some(1), faults - 1)] {
        let (states, terminals) = explore(slices, evict, faults);
        assert!(terminals > 0, "no run ever finished");
        println!(
            "delivery_model: {slices} slice(s)/tensor, evict {evict:?}, {faults} more fault(s): \
             {states} states, {terminals} terminal, 0 violations"
        );
        total += states;
    }
    println!(
        "delivery_model: fixed point after {total} states in {:.1?}",
        t0.elapsed()
    );
}

/// The tier-1 bound: whole-tensor pushes, every single and double fault
/// placement. ~385 k states; ~17 s in a debug build, ~2 s in release.
#[test]
fn whole_tensor_pushes_to_a_fixed_point() {
    enumerate(1, 2);
}

/// The next bound up: two slices per tensor, so contributions are staged
/// piecewise, arrive with gaps and are wiped half-built. ~14.8 M states,
/// ~2 min in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-tier: ~14.8 M states")]
fn sliced_pushes_to_a_fixed_point() {
    enumerate(2, 2);
}
