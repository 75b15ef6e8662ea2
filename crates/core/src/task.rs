//! The scheduler ↔ engine contract, mirroring BytePS's core interfaces.
//!
//! BytePS exposes two hooks to a scheduling strategy: `getTask` (the engine
//! asks "what should go on the wire next?") and `reportFinish` (a transfer
//! completed). The Prophet prototype plugs into exactly those (§4.2,
//! Fig. 7). [`CommScheduler`] is the Rust form of that contract; both the
//! discrete-event cluster in `prophet-ps::sim` and the real threaded
//! runtime in `prophet-ps::threaded` drive the *same* trait objects.
//!
//! A [`TransferTask`] is whatever the strategy decided to put on the wire
//! as one message: a whole tensor (FIFO), a fixed-size slice of one tensor
//! (P3, ByteScheduler), or an assembled multi-gradient *block* (Prophet).
//! The engine only needs the byte count and, on completion, which gradients
//! the payload advanced — the `pieces` list.

use prophet_dnn::GradientId;
use prophet_sim::{Duration, SimTime};

/// Transfer direction relative to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Worker → PS (gradients).
    Push,
    /// PS → worker (updated parameters).
    Pull,
}

/// How a strategy's transport issues messages on its (persistent,
/// serialising) connections.
///
/// The paper's P3 critique hinges on this: P3 "relies on the blocking call
/// of the TCP protocol" — every partition waits for the previous one's
/// acknowledgement, paying connection/synchronisation overhead per message.
/// MXNet, ByteScheduler, and Prophet keep requests pipelined on warm
/// connections, so consecutive messages flow back-to-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Requests stream back-to-back on a warm connection; per-message
    /// overhead is only paid after the connection has gone idle.
    Pipelined,
    /// Every message waits for the previous acknowledgement: full
    /// per-message synchronisation cost (P3).
    Blocking,
}

/// One wire message as decided by a scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTask {
    /// Direction of the message.
    pub dir: Dir,
    /// Total payload bytes.
    pub bytes: u64,
    /// Constituent `(gradient, bytes)` pieces. A whole-tensor task has one
    /// piece covering the tensor; a P3 partition has one partial piece; a
    /// Prophet block lists every member tensor in full.
    pub pieces: Vec<(GradientId, u64)>,
}

impl TransferTask {
    /// A task carrying one whole tensor.
    pub fn whole(dir: Dir, grad: GradientId, bytes: u64) -> Self {
        TransferTask {
            dir,
            bytes,
            pieces: vec![(grad, bytes)],
        }
    }

    /// A task carrying a partial slice of one tensor.
    pub fn slice(dir: Dir, grad: GradientId, bytes: u64) -> Self {
        Self::whole(dir, grad, bytes)
    }

    /// A task carrying several whole tensors as one message (a Prophet
    /// *gradient block*).
    pub fn block(dir: Dir, pieces: Vec<(GradientId, u64)>) -> Self {
        let bytes = pieces.iter().map(|&(_, b)| b).sum();
        TransferTask { dir, bytes, pieces }
    }

    /// The highest-priority (lowest-id) gradient this task advances.
    pub fn top_priority(&self) -> GradientId {
        self.pieces
            .iter()
            .map(|&(g, _)| g)
            .min()
            .expect("empty task")
    }
}

/// The strategy interface both runtimes drive. One instance per worker.
///
/// Engine protocol, per worker:
/// 1. `iteration_begin` at the start of every backward pass;
/// 2. `gradient_ready` whenever the aggregation layer releases a gradient
///    (push side), `param_ready` whenever the PS finishes aggregating a
///    gradient and its updated parameters may be fetched (pull side);
/// 3. after every state change, `next_task` is polled repeatedly until it
///    returns `None`, and each returned task is put on the wire;
/// 4. `task_done` when a task's last byte arrives; then poll again;
/// 5. `iteration_end` after the worker's last pull of the iteration;
/// 6. `bandwidth_update` whenever the bandwidth monitor publishes a new
///    estimate (Prophet re-plans; others ignore it).
///
/// Implementations own all ordering/pacing decisions; the engine never
/// reorders what `next_task` hands it.
pub trait CommScheduler: Send {
    /// A gradient's payload became available to push at `now`.
    fn gradient_ready(&mut self, now: SimTime, grad: GradientId);

    /// Updated parameters for `grad` became available to pull at `now`.
    fn param_ready(&mut self, now: SimTime, grad: GradientId);

    /// The next message to put on the wire, or `None` to stay idle (either
    /// nothing is queued or the strategy is pacing itself).
    fn next_task(&mut self, now: SimTime) -> Option<TransferTask>;

    /// A task previously returned by `next_task` finished at `now`.
    fn task_done(&mut self, now: SimTime, task: &TransferTask);

    /// A new iteration's backward pass is starting.
    fn iteration_begin(&mut self, _now: SimTime, _iter: u64) {}

    /// The iteration completed in `iter_time` (auto-tuners learn from this).
    fn iteration_end(&mut self, _now: SimTime, _iter: u64, _iter_time: Duration) {}

    /// The bandwidth monitor published a fresh estimate.
    fn bandwidth_update(&mut self, _now: SimTime, _bps: f64) {}

    /// A message carrying (part of) `task` was lost or killed and the
    /// engine's transport layer is retrying it. `task_done` still fires
    /// exactly once, when the eventual attempt delivers — this hook only
    /// tells strategies that the network has stopped behaving as predicted
    /// (Prophet drops into its degraded, conservatively-credited mode).
    fn transfer_failed(&mut self, _now: SimTime, _task: &TransferTask) {}

    /// Current credit size, for strategies that have one (telemetry for
    /// the Fig. 3(b) credit-trace plot). `None` for credit-less strategies.
    fn credit(&self) -> Option<u64> {
        None
    }

    /// True while the strategy has fallen back to a conservative mode
    /// because the network left its predicted regime. Only Prophet has such
    /// a mode; everything else is never degraded. The engine samples this
    /// each monitor tick so the chaos oracle can assert degraded mode both
    /// enters under sustained faults and exits afterwards.
    fn is_degraded(&self) -> bool {
        false
    }

    /// How this strategy's transport behaves (see [`Transport`]).
    fn transport(&self) -> Transport {
        Transport::Pipelined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_task_has_single_full_piece() {
        let t = TransferTask::whole(Dir::Push, 3, 1000);
        assert_eq!(t.bytes, 1000);
        assert_eq!(t.pieces, vec![(3, 1000)]);
        assert_eq!(t.top_priority(), 3);
    }

    #[test]
    fn block_sums_pieces() {
        let t = TransferTask::block(Dir::Push, vec![(5, 100), (6, 200), (7, 300)]);
        assert_eq!(t.bytes, 600);
        assert_eq!(t.top_priority(), 5);
    }

    #[test]
    #[should_panic(expected = "empty task")]
    fn empty_task_priority_panics() {
        TransferTask::block(Dir::Push, vec![]).top_priority();
    }
}
