//! The default-MXNet baseline: FIFO whole-tensor transfers.
//!
//! Gradients go on the wire in the order the KVStore releases them, one
//! whole tensor per message, one message in flight per direction. No
//! preemption: a huge low-priority tensor (VGG's fc1) blocks gradient 0
//! behind it — the behaviour Fig. 5's top row and Fig. 2's idle valleys
//! illustrate.

use crate::task::{CommScheduler, Dir, TransferTask};
use prophet_dnn::GradientId;
use prophet_sim::SimTime;
use std::collections::VecDeque;

/// FIFO whole-tensor scheduler (one per worker).
pub struct FifoScheduler {
    sizes: Vec<u64>,
    push_queue: VecDeque<GradientId>,
    pull_queue: VecDeque<GradientId>,
    push_busy: bool,
    pull_busy: bool,
}

impl FifoScheduler {
    /// `sizes[i]` = wire bytes of gradient `i`.
    pub fn new(sizes: Vec<u64>) -> Self {
        FifoScheduler {
            sizes,
            push_queue: VecDeque::new(),
            pull_queue: VecDeque::new(),
            push_busy: false,
            pull_busy: false,
        }
    }
}

impl CommScheduler for FifoScheduler {
    fn gradient_ready(&mut self, _now: SimTime, grad: GradientId) {
        self.push_queue.push_back(grad);
    }

    fn param_ready(&mut self, _now: SimTime, grad: GradientId) {
        self.pull_queue.push_back(grad);
    }

    fn next_task(&mut self, _now: SimTime) -> Option<TransferTask> {
        if !self.push_busy {
            if let Some(g) = self.push_queue.pop_front() {
                self.push_busy = true;
                return Some(TransferTask::whole(Dir::Push, g, self.sizes[g]));
            }
        }
        if !self.pull_busy {
            if let Some(g) = self.pull_queue.pop_front() {
                self.pull_busy = true;
                return Some(TransferTask::whole(Dir::Pull, g, self.sizes[g]));
            }
        }
        None
    }

    fn task_done(&mut self, _now: SimTime, task: &TransferTask) {
        match task.dir {
            Dir::Push => self.push_busy = false,
            Dir::Pull => self.pull_busy = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn transfers_in_arrival_order() {
        let mut s = FifoScheduler::new(vec![10, 20, 30]);
        // Backward order: 2, 1, 0.
        s.gradient_ready(t0(), 2);
        s.gradient_ready(t0(), 1);
        s.gradient_ready(t0(), 0);
        let t = s.next_task(t0()).unwrap();
        assert_eq!(t.pieces, vec![(2, 30)]);
        // Only one push in flight.
        assert!(s.next_task(t0()).is_none());
        s.task_done(t0(), &t);
        assert_eq!(s.next_task(t0()).unwrap().pieces, vec![(1, 20)]);
    }

    #[test]
    fn no_preemption_by_priority() {
        let mut s = FifoScheduler::new(vec![10, 20_000_000]);
        s.gradient_ready(t0(), 1); // huge, low priority
        let big = s.next_task(t0()).unwrap();
        s.gradient_ready(t0(), 0); // gradient 0 arrives while busy
        assert!(s.next_task(t0()).is_none(), "FIFO must not preempt");
        s.task_done(t0(), &big);
        assert_eq!(s.next_task(t0()).unwrap().top_priority(), 0);
    }

    #[test]
    fn push_and_pull_are_concurrent() {
        let mut s = FifoScheduler::new(vec![10, 20]);
        s.gradient_ready(t0(), 1);
        s.param_ready(t0(), 0);
        let a = s.next_task(t0()).unwrap();
        let b = s.next_task(t0()).unwrap();
        assert_eq!(a.dir, Dir::Push);
        assert_eq!(b.dir, Dir::Pull);
        assert!(s.next_task(t0()).is_none());
    }

    #[test]
    fn pull_order_is_arrival_order() {
        let mut s = FifoScheduler::new(vec![10, 20, 30]);
        s.param_ready(t0(), 1);
        s.param_ready(t0(), 0);
        let t = s.next_task(t0()).unwrap();
        assert_eq!(t.pieces[0].0, 1);
    }
}
