//! The cost-of-watching contract (DESIGN.md §17), pinned with a count and
//! not a clock: once their tables have reached steady size, neither
//! typed-event sink makes a single heap allocation per event — not on a
//! fault-free stream, and not on a chaos stream with kills, retries, shard
//! crashes, corrupt frames, an eviction, a permanent shard failure and its
//! re-homes. Steady size takes [`WARM_ITERS`] iterations, not one: the
//! checker keeps barrier and arrival records one iteration back, so its
//! window holds three rows before the first one is recycled.
//!
//! The streams are scripted here and recorded into a `Vec` before counting
//! starts (the cluster engine owns its sinks, so a test cannot tap its
//! stream); the checker itself vouches that they are well-formed. A joiner
//! is left out on purpose: its first iteration is that worker's own
//! warm-up, when its row is allocated once.

use prophet::sim::{FaultKind, InvariantChecker, SimTime, SpanCollector, TraceEvent, TraceSink};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const WORKERS: usize = 4;
const SHARDS: usize = 2;
const GRADS: usize = 6;
const ITERS: u64 = 12;
/// Fault-free iterations replayed before counting starts.
const WARM_ITERS: u64 = 3;

/// A scripted BSP run: every event 1 µs after the last.
struct Script {
    now: u64,
    next_tag: u64,
    /// Live workers, and the current owner of each gradient.
    workers: Vec<usize>,
    owner: Vec<usize>,
    dead_shards: Vec<usize>,
    evs: Vec<(SimTime, TraceEvent)>,
}

impl Script {
    fn new() -> Self {
        Script {
            now: 0,
            next_tag: 0,
            workers: (0..WORKERS).collect(),
            owner: (0..GRADS).map(|g| g % SHARDS).collect(),
            dead_shards: Vec::new(),
            evs: Vec::new(),
        }
    }

    fn emit(&mut self, ev: TraceEvent) {
        self.now += 1_000;
        self.evs.push((SimTime(self.now), ev));
    }

    fn flow_start(&mut self, src: usize, dst: usize) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        let bytes = 4096;
        self.emit(TraceEvent::FlowStart {
            tag,
            src,
            dst,
            bytes,
        });
        tag
    }

    fn flow_end(&mut self, tag: u64) {
        let (src, dst, delivered) = (0, 0, 4096.0);
        self.emit(TraceEvent::FlowEnd {
            tag,
            src,
            dst,
            delivered,
        });
    }

    /// One iteration. With `chaos`, three gradients go wrong in it: the
    /// first worker's push of gradient 0 is killed by a link fault and
    /// retried, gradient 1's shard crashes with every arrival staged (all
    /// members replay), and the first worker's pull of gradient 2 arrives
    /// corrupted and is pulled again.
    fn iteration(&mut self, iter: u64, chaos: bool) {
        use TraceEvent::*;
        let workers = self.workers.clone();
        let first = workers[0];
        for &worker in &workers {
            self.emit(IterBegin { worker, iter });
        }
        for grad in (0..GRADS).rev() {
            let shard = self.owner[grad];
            let mut tags = Vec::new();
            for &worker in &workers {
                self.emit(GradReady { worker, iter, grad });
                self.emit(PushStart { worker, iter, grad });
                tags.push(self.flow_start(SHARDS + worker, shard));
            }
            if chaos && grad == 0 {
                let (kind, node, worker) = (FaultKind::LinkDown, SHARDS + first, first);
                self.emit(FaultStart { kind, node });
                self.emit(FlowKilled {
                    tag: tags[0],
                    src: node,
                    dst: shard,
                    delivered: 100.0,
                });
                self.emit(RetryAttempt {
                    worker,
                    iter,
                    grad,
                    attempt: 1,
                });
                self.emit(FaultEnd { kind, node });
                self.emit(PushStart { worker, iter, grad });
                tags[0] = self.flow_start(node, shard);
            }
            for (&worker, &tag) in workers.iter().zip(&tags) {
                self.flow_end(tag);
                self.emit(PushEnd { worker, iter, grad });
            }
            if chaos && grad == 0 {
                self.emit(Recovered {
                    worker: first,
                    iter,
                    grad,
                    attempts: 1,
                });
            }
            if chaos && grad == 1 {
                let (kind, node) = (FaultKind::ShardCrash, shard);
                self.emit(FaultStart { kind, node });
                for &worker in &workers {
                    self.emit(RetryAttempt {
                        worker,
                        iter,
                        grad,
                        attempt: 1,
                    });
                }
                self.emit(FaultEnd { kind, node });
                for &worker in &workers {
                    self.emit(PushStart { worker, iter, grad });
                    let tag = self.flow_start(SHARDS + worker, shard);
                    self.flow_end(tag);
                    self.emit(PushEnd { worker, iter, grad });
                    self.emit(Recovered {
                        worker,
                        iter,
                        grad,
                        attempts: 1,
                    });
                }
            }
            self.emit(Barrier { iter, grad });
            for (slot, &worker) in workers.iter().enumerate() {
                self.emit(PullStart { worker, iter, grad });
                tags[slot] = self.flow_start(shard, SHARDS + worker);
            }
            for (&worker, &tag) in workers.iter().zip(&tags) {
                self.flow_end(tag);
                if chaos && grad == 2 && worker == first {
                    self.emit(FrameCorrupt {
                        node: SHARDS + worker,
                        bytes: 4096,
                        data: true,
                    });
                    self.emit(RetryAttempt {
                        worker,
                        iter,
                        grad,
                        attempt: 1,
                    });
                    self.emit(PullStart { worker, iter, grad });
                    let again = self.flow_start(shard, SHARDS + worker);
                    self.flow_end(again);
                    self.emit(PullEnd { worker, iter, grad });
                    self.emit(Recovered {
                        worker,
                        iter,
                        grad,
                        attempts: 1,
                    });
                } else {
                    self.emit(PullEnd { worker, iter, grad });
                }
            }
        }
        for grad in 0..GRADS {
            for &worker in &workers {
                self.emit(FwdStart { worker, iter, grad });
                self.emit(FwdEnd { worker, iter, grad });
            }
        }
        for shard in 0..SHARDS {
            if !self.dead_shards.contains(&shard) {
                self.emit(Checkpoint { shard, iter });
            }
        }
        for &worker in &workers {
            self.emit(IterEnd { worker, iter });
        }
    }

    /// Evict the last live worker at the boundary before `iter`.
    fn evict(&mut self, epoch: u64, iter: u64) {
        let node = self.workers.pop().expect("a worker to evict");
        let kind = FaultKind::WorkerFail;
        self.emit(TraceEvent::MembershipChange {
            epoch,
            kind,
            node,
            iter,
        });
    }

    /// Fail shard `from` for good at the boundary before `iter`; its
    /// tensors fall back one snapshot generation and re-home onto `to`.
    fn fail_shard(&mut self, epoch: u64, iter: u64, from: usize, to: usize) {
        self.dead_shards.push(from);
        self.emit(TraceEvent::MembershipChange {
            epoch,
            kind: FaultKind::ShardFail,
            node: from,
            iter,
        });
        self.emit(TraceEvent::RestoreFallback {
            shard: from,
            depth: 1,
        });
        for grad in 0..GRADS {
            if self.owner[grad] == from {
                self.owner[grad] = to;
                self.emit(TraceEvent::Rehome { grad, from, to });
            }
        }
    }
}

/// Replay `evs` through both sinks, the first `warm` events uncounted, and
/// return the allocations each sink made over the rest plus the spans
/// collected (so a sink that did nothing cannot pass).
fn replay(evs: &[(SimTime, TraceEvent)], warm: usize) -> (u64, u64, usize) {
    let mut checker = InvariantChecker::new(WORKERS, true).with_shards(SHARDS);
    let mut spans =
        SpanCollector::new()
            .with_shards(SHARDS)
            .with_capacity(WORKERS, ITERS as usize, GRADS);
    let (warm, steady) = evs.split_at(warm);
    for (at, ev) in warm {
        checker.on_event(*at, ev);
        spans.on_event(*at, ev);
    }
    let counted = |sink: &mut dyn TraceSink| {
        let feed = || steady.iter().for_each(|(at, ev)| sink.on_event(*at, ev));
        counting_alloc::counted(feed).1
    };
    let by_checker = counted(&mut checker);
    let by_spans = counted(&mut spans);
    checker.finish();
    assert_eq!(checker.events_seen(), evs.len() as u64);
    (by_checker, by_spans, spans.into_spans().len())
}

#[test]
fn fault_free_stream_allocates_nothing_per_event() {
    let mut s = Script::new();
    (0..WARM_ITERS).for_each(|iter| s.iteration(iter, false));
    let warm = s.evs.len();
    for iter in WARM_ITERS..ITERS {
        s.iteration(iter, false);
    }
    let (by_checker, by_spans, spans) = replay(&s.evs, warm);
    assert_eq!(spans, WORKERS * GRADS * 5 * ITERS as usize);
    let steady = s.evs.len() - warm;
    assert_eq!(by_checker, 0, "checker allocations over {steady} events");
    assert_eq!(by_spans, 0, "collector allocations over {steady} events");
}

#[test]
fn chaos_stream_allocates_nothing_per_event() {
    let mut s = Script::new();
    (0..WARM_ITERS).for_each(|iter| s.iteration(iter, false));
    let warm = s.evs.len();
    for iter in WARM_ITERS..ITERS {
        match iter {
            4 => s.evict(1, iter),
            8 => s.fail_shard(2, iter, 1, 0),
            _ => {}
        }
        s.iteration(iter, true);
    }
    let (by_checker, by_spans, spans) = replay(&s.evs, warm);
    // Iterations 0–3 ran four workers, 4–11 three.
    assert_eq!(spans, (4 * 4 + 8 * 3) * GRADS * 5);
    let steady = s.evs.len() - warm;
    assert_eq!(by_checker, 0, "checker allocations over {steady} events");
    assert_eq!(by_spans, 0, "collector allocations over {steady} events");
}
