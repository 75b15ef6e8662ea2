//! Every rule of the [`InvariantChecker`] still fires, with the same words.
//!
//! One table, one row per reachable `fail(...)` site: the shortest stream
//! that trips it and the message it must carry. Each row is checked against
//! the *whole* panic payload — header, event count and the ring of recent
//! events — as the original checker produced it, re-derived here by its
//! original method (render every event with `format!("t={at} {ev:?}")` as
//! it arrives, keep the last 24). Each row runs twice: as written, and
//! behind 30 filler events so the ring has wrapped. The file uses only the
//! public API, so it passes unchanged on the checker it was derived from.
//!
//! Six sites are not in the table because no stream reaches them: the
//! "`{at}` before `{earlier stamp}`" arms of `PushStart`, `PullStart`
//! (twice), `PullEnd`, `FwdStart` and `FwdEnd` compare against a stamp
//! taken from an earlier event, and the clock-monotonicity check, which
//! runs first, has already rejected any event older than its predecessor.

use prophet_sim::TraceEvent::*;
use prophet_sim::{FaultKind, InvariantChecker, SimTime, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Stream = Vec<(SimTime, TraceEvent)>;

fn ms(n: u64) -> SimTime {
    SimTime(n * 1_000_000)
}

/// The payload as the string-ring checker built it.
fn reference(evs: &Stream, msg: &str) -> String {
    let mut ring: VecDeque<String> = VecDeque::new();
    for (at, ev) in evs {
        if ring.len() == 24 {
            ring.pop_front();
        }
        ring.push_back(format!("t={at} {ev:?}"));
    }
    let mut ctx = String::new();
    for line in &ring {
        let _ = writeln!(ctx, "  {line}");
    }
    format!(
        "invariant violated after {} events: {msg}\nrecent events (oldest first):\n{ctx}",
        evs.len()
    )
}

/// Feed `evs`, then `finish`; the panic this must raise, as text.
fn payload(mut checker: InvariantChecker, evs: &Stream) -> String {
    let run = AssertUnwindSafe(|| {
        for (at, ev) in evs {
            checker.on_event(*at, ev);
        }
        checker.finish();
    });
    let panic = catch_unwind(run).expect_err("the stream should have tripped a rule");
    let text = panic.downcast_ref::<String>().expect("a formatted panic");
    text.clone()
}

// Shorthand for the per-gradient events of worker 0, iteration 0.
const W: usize = 0;
const I: u64 = 0;
fn begin(worker: usize, iter: u64) -> TraceEvent {
    IterBegin { worker, iter }
}
fn ready(worker: usize, grad: usize) -> TraceEvent {
    GradReady {
        worker,
        iter: I,
        grad,
    }
}
fn push(worker: usize, grad: usize) -> TraceEvent {
    PushStart {
        worker,
        iter: I,
        grad,
    }
}
fn pushed(worker: usize, grad: usize) -> TraceEvent {
    PushEnd {
        worker,
        iter: I,
        grad,
    }
}
fn barrier(grad: usize) -> TraceEvent {
    Barrier { iter: I, grad }
}
fn pull(grad: usize) -> TraceEvent {
    PullStart {
        worker: W,
        iter: I,
        grad,
    }
}
fn pulled(grad: usize) -> TraceEvent {
    PullEnd {
        worker: W,
        iter: I,
        grad,
    }
}
fn flow(tag: u64, bytes: u64) -> TraceEvent {
    let (src, dst) = (1, 0);
    FlowStart {
        tag,
        src,
        dst,
        bytes,
    }
}
fn retry(attempt: u32) -> TraceEvent {
    RetryAttempt {
        worker: W,
        iter: I,
        grad: 0,
        attempt,
    }
}
fn fault(kind: FaultKind, node: usize) -> TraceEvent {
    FaultStart { kind, node }
}
fn member(epoch: u64, kind: FaultKind, node: usize) -> TraceEvent {
    MembershipChange {
        epoch,
        kind,
        node,
        iter: 0,
    }
}
fn advance(shard: usize, epoch: u64) -> TraceEvent {
    EpochAdvance { shard, epoch }
}
fn ack(shard: usize, epoch: u64) -> TraceEvent {
    EpochAck {
        worker: W,
        shard,
        epoch,
    }
}
fn checkpoint(shard: usize, iter: u64) -> TraceEvent {
    Checkpoint { shard, iter }
}
fn rehome(from: usize, to: usize) -> TraceEvent {
    Rehome { grad: 0, from, to }
}

/// `(message, checker, events)`; events are stamped 1 ms apart from t = 0
/// unless a row overrides a stamp.
fn table() -> Vec<(&'static str, InvariantChecker, Stream)> {
    use FaultKind::*;
    let bsp = |workers| InvariantChecker::new(workers, true);
    let asp = || InvariantChecker::new(1, false);
    let at = |evs: Vec<TraceEvent>| -> Stream {
        let stamps = (0..).map(ms);
        stamps.zip(evs).collect()
    };
    let arrived = || vec![begin(0, 0), ready(0, 0), push(0, 0), pushed(0, 0)];
    let with = |mut evs: Vec<TraceEvent>, more: &[TraceEvent]| {
        evs.extend_from_slice(more);
        at(evs)
    };
    let (kill, frame) = (
        |tag, delivered| FlowKilled {
            tag,
            src: 1,
            dst: 0,
            delivered,
        },
        |node, bytes, data| FrameCorrupt { node, bytes, data },
    );
    vec![
        // finish()
        ("1 flow(s) never completed: tags [9]", bsp(1), at(vec![flow(9, 10)])),
        (
            "1 corrupted data frame(s) detected but no retransmission ever happened \
             — the dropped payloads were never recovered",
            bsp(1),
            at(vec![frame(1, 8, true)]),
        ),
        // liveness, clock
        (
            "evicted worker 1 emitted IterBegin { worker: 1, iter: 0 } after its eviction epoch",
            bsp(2),
            at(vec![member(1, WorkerFail, 1), begin(1, 0)]),
        ),
        (
            "worker 1 emitted IterBegin { worker: 1, iter: 0 } before joining",
            bsp(1).with_joiners(1),
            at(vec![begin(1, 0)]),
        ),
        (
            "sentinel (UNSET) timestamp reached the event stream: IterBegin { worker: 0, iter: 0 }",
            bsp(1),
            vec![(SimTime::MAX, begin(0, 0))],
        ),
        (
            "clock moved backwards: 0.003000s after 0.005000s on GradReady { worker: 0, iter: 0, grad: 0 }",
            bsp(1),
            vec![(ms(5), begin(0, 0)), (ms(3), ready(0, 0))],
        ),
        // iteration bracketing
        ("worker 0 began iter 2 after None", bsp(1), at(vec![begin(0, 2)])),
        (
            "worker 0 ended iter 1 while in Some(0)",
            bsp(1),
            at(vec![begin(0, 0), IterEnd { worker: 0, iter: 1 }]),
        ),
        // per-gradient timeline
        ("gradient 0 ready twice (w0 iter 0)", bsp(1), at(vec![ready(0, 0), ready(0, 0)])),
        ("push of unreleased gradient 3 (w0 iter 0)", bsp(1), at(vec![push(0, 3)])),
        (
            "gradient 0 push started twice (w0 iter 0)",
            bsp(1),
            at(vec![ready(0, 0), push(0, 0), push(0, 0)]),
        ),
        ("push_end without push_start for gradient 0 (w0)", bsp(1), at(vec![pushed(0, 0)])),
        (
            "push of gradient 0 took no wire time: start 0.002000s, end 0.002000s (w0)",
            bsp(1),
            vec![(ms(1), ready(0, 0)), (ms(2), push(0, 0)), (ms(2), pushed(0, 0))],
        ),
        (
            "gradient 0 push ended twice (w0 iter 0)",
            bsp(1),
            with(arrived(), &[pushed(0, 0)]),
        ),
        (
            "push of worker 0 counted twice for (iter 0, grad 0)",
            bsp(1),
            with(arrived(), &[retry(1), push(0, 0), pushed(0, 0)]),
        ),
        // barriers
        ("barrier event in ASP mode (iter 0, grad 0)", asp(), at(vec![barrier(0)])),
        (
            "duplicate barrier for (iter 0, grad 0)",
            bsp(1),
            with(arrived(), &[barrier(0), barrier(0)]),
        ),
        (
            "barrier for (iter 0, grad 0) after 1/2 pushes",
            bsp(2),
            with(arrived(), &[begin(1, 0), barrier(0)]),
        ),
        (
            "barrier for (iter 0, grad 0) while shard 0 is down",
            bsp(1).with_shards(1),
            at(vec![begin(0, 0), ready(0, 0), push(0, 0), fault(ShardCrash, 0), pushed(0, 0), barrier(0)]),
        ),
        (
            "barrier for (iter 0, grad 0) on permanently failed shard 0",
            bsp(1).with_shards(2),
            with(vec![member(1, ShardFail, 0)], &[&arrived()[..], &[barrier(0)]].concat()),
        ),
        (
            "barrier for iter 0 while worker 1 is in None",
            bsp(2),
            with(arrived(), &[ready(1, 0), push(1, 0), pushed(1, 0), barrier(0)]),
        ),
        // pulls and forward
        (
            "pull of gradient 0 before its barrier (w0 iter 0)",
            bsp(1),
            with(arrived(), &[pull(0)]),
        ),
        ("gradient 0 pull started twice (w0 iter 0)", asp(), at(vec![pull(0), pull(0)])),
        ("pull_end without pull_start for gradient 0 (w0)", bsp(1), at(vec![pulled(0)])),
        (
            "gradient 0 pull ended twice (w0 iter 0)",
            asp(),
            at(vec![pull(0), pulled(0), pulled(0)]),
        ),
        (
            "forward of tensor 0 started before its pull completed (w0 iter 0)",
            bsp(1),
            at(vec![FwdStart { worker: W, iter: I, grad: 0 }]),
        ),
        (
            "fwd_end without fwd_start for tensor 0 (w0)",
            bsp(1),
            at(vec![FwdEnd { worker: W, iter: I, grad: 0 }]),
        ),
        // flows
        ("flow tag 7 started twice", bsp(1), at(vec![flow(7, 10), flow(7, 10)])),
        (
            "completion for unknown flow tag 7",
            bsp(1),
            at(vec![FlowEnd { tag: 7, src: 1, dst: 0, delivered: 10.0 }]),
        ),
        (
            "flow 1 delivered 990 of 1000 requested bytes",
            bsp(1),
            at(vec![flow(1, 1000), FlowEnd { tag: 1, src: 1, dst: 0, delivered: 990.0 }]),
        ),
        ("kill for unknown flow tag 7", bsp(1), at(vec![kill(7, 0.0)])),
        (
            "killed flow 1 had moved 2000 of only 1000 bytes",
            bsp(1),
            at(vec![flow(1, 1000), kill(1, 2000.0)]),
        ),
        // faults and retries
        (
            "fault LinkDown on node 1 started twice",
            bsp(1),
            at(vec![fault(LinkDown, 1), fault(LinkDown, 1)]),
        ),
        (
            "fault LinkDown on node 1 ended without starting",
            bsp(1),
            at(vec![FaultEnd { kind: LinkDown, node: 1 }]),
        ),
        (
            "retry 2 of gradient 0 after 0 retries (w0 iter 0)",
            bsp(1),
            at(vec![ready(0, 0), push(0, 0), retry(2)]),
        ),
        (
            "retry of gradient 0 with no transfer in flight (w0 iter 0)",
            bsp(1),
            at(vec![retry(1)]),
        ),
        (
            "recovery of gradient 0 reports 2 attempts, saw 1 (w0 iter 0)",
            bsp(1),
            at(vec![ready(0, 0), push(0, 0), retry(1), Recovered { worker: W, iter: I, grad: 0, attempts: 2 }]),
        ),
        // epoch protocol
        (
            "shard 0 advanced to epoch 1, not past 1",
            bsp(1),
            at(vec![advance(0, 1), advance(0, 1)]),
        ),
        (
            "worker 0 acked shard 0 epoch 1, not past 1",
            bsp(1),
            at(vec![advance(0, 1), ack(0, 1), ack(0, 1)]),
        ),
        (
            "worker 0 acked shard 1 epoch 1, never announced (newest 0)",
            bsp(1),
            at(vec![advance(0, 1), ack(1, 1)]),
        ),
        (
            "param-ready for gradient 0 stamped epoch 1, worker 0 is in epoch 0 for shard 0",
            bsp(1),
            at(vec![ParamReady { worker: W, grad: 0, epoch: 1 }]),
        ),
        // membership
        (
            "membership change driven by transient fault LinkDown",
            bsp(1),
            at(vec![member(1, LinkDown, 0)]),
        ),
        (
            "membership epoch 2 after epoch 0 — epochs must advance by one",
            bsp(1),
            at(vec![member(2, WorkerFail, 0)]),
        ),
        (
            "eviction of worker 5, which is not live",
            bsp(2),
            at(vec![member(1, WorkerFail, 5)]),
        ),
        (
            "shard 0 permanently failed twice",
            bsp(1),
            at(vec![member(1, ShardFail, 0), member(2, ShardFail, 0)]),
        ),
        (
            "worker 1 joined without being announced as a joiner",
            bsp(2),
            at(vec![member(1, WorkerJoin, 1)]),
        ),
        (
            "checkpoint from permanently failed shard 0",
            bsp(1),
            at(vec![member(1, ShardFail, 0), checkpoint(0, 1)]),
        ),
        (
            "shard 0 checkpointed iter 3 after iter 3 — checkpoint iterations must be strictly monotone",
            bsp(1),
            at(vec![checkpoint(0, 3), checkpoint(0, 3)]),
        ),
        (
            "re-home of gradient 0 from shard 1, but it lives on 0",
            bsp(1).with_shards(2),
            at(vec![rehome(1, 0)]),
        ),
        (
            "re-home of gradient 0 off shard 0, which is still alive",
            bsp(1).with_shards(2),
            at(vec![rehome(0, 1)]),
        ),
        (
            "gradient 0 re-homed to shard 1, which is permanently dead",
            bsp(1).with_shards(3),
            at(vec![member(1, ShardFail, 0), member(2, ShardFail, 1), rehome(0, 1)]),
        ),
        // integrity and restore
        (
            "zero-byte corrupt frame reported at node 2 — detection without a payload is meaningless",
            bsp(1),
            at(vec![frame(2, 0, false)]),
        ),
        (
            "quarantine of gradient 0 at iter 3, but worker 0 has only reached iter 0",
            bsp(1),
            at(vec![begin(0, 0), GradQuarantined { worker: 0, iter: 3, grad: 0 }]),
        ),
        (
            "quarantine of gradient 0 from worker 0, which never began an iteration",
            bsp(1),
            at(vec![GradQuarantined { worker: 0, iter: 0, grad: 0 }]),
        ),
        (
            "restore fallback of depth 0 for shard 0 — the newest generation was intact, nothing fell back",
            bsp(1),
            at(vec![RestoreFallback { shard: 0, depth: 0 }]),
        ),
        (
            "restore fallback for shard 0, which never permanently failed",
            bsp(1),
            at(vec![RestoreFallback { shard: 0, depth: 1 }]),
        ),
    ]
}

#[test]
fn every_rule_fires_with_the_original_payload() {
    std::panic::set_hook(Box::new(|_| {})); // 112 expected panics: keep stderr readable
    let rows = table().len();
    assert_eq!(rows, 56, "one row per reachable fail site");
    // Control frames are stateless to the checker: 30 of them fill and wrap
    // the 24-slot ring without changing any verdict.
    let filler = (
        ms(0),
        FrameCorrupt {
            node: 9,
            bytes: 1,
            data: false,
        },
    );
    for wrapped in [false, true] {
        for (msg, checker, evs) in table() {
            let mut stream: Stream = vec![filler; if wrapped { 30 } else { 0 }];
            stream.extend(evs);
            assert_eq!(
                payload(checker, &stream),
                reference(&stream, msg),
                "payload for {msg:?} (ring wrapped: {wrapped})"
            );
        }
    }
    let _ = std::panic::take_hook();
}
