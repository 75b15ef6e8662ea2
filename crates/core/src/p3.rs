//! P3 (Priority-based Parameter Propagation, Jayarajan et al., MLSys'19),
//! reimplemented from its published description as the paper's first
//! baseline.
//!
//! Every tensor is sliced into fixed-size partitions; partitions are
//! transferred strictly by priority (lowest gradient id first), one at a
//! time per direction — P3 rides the framework's blocking send, which is
//! exactly why the paper finds it under-utilises the pipe (each small
//! partition pays the full per-message setup + slow-start cost, Fig. 3(a))
//! while achieving fine-grained preemption.

use crate::task::{CommScheduler, Dir, TransferTask};
use prophet_dnn::GradientId;
use prophet_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending partition: priority = (gradient id, offset) ascending.
type Part = Reverse<(GradientId, u64, u64)>; // (grad, offset, bytes)

/// The P3 baseline (one per worker).
pub struct P3Scheduler {
    sizes: Vec<u64>,
    partition_bytes: u64,
    push_heap: BinaryHeap<Part>,
    pull_heap: BinaryHeap<Part>,
    push_busy: bool,
    pull_busy: bool,
}

impl P3Scheduler {
    /// `sizes[i]` = wire bytes of gradient `i`; `partition_bytes` = the
    /// slice size (the paper's evaluation sets 4 MB, §5.1).
    pub fn new(sizes: Vec<u64>, partition_bytes: u64) -> Self {
        assert!(partition_bytes > 0, "zero partition size");
        P3Scheduler {
            sizes,
            partition_bytes,
            push_heap: BinaryHeap::new(),
            pull_heap: BinaryHeap::new(),
            push_busy: false,
            pull_busy: false,
        }
    }

    /// The paper's configuration: 4 MB partitions.
    pub fn paper_default(sizes: Vec<u64>) -> Self {
        Self::new(sizes, 4 << 20)
    }

    fn enqueue(heap: &mut BinaryHeap<Part>, grad: GradientId, size: u64, part: u64) {
        let mut off = 0;
        while off < size {
            let b = part.min(size - off);
            heap.push(Reverse((grad, off, b)));
            off += b;
        }
        if size == 0 {
            heap.push(Reverse((grad, 0, 0)));
        }
    }
}

impl CommScheduler for P3Scheduler {
    fn gradient_ready(&mut self, _now: SimTime, grad: GradientId) {
        Self::enqueue(
            &mut self.push_heap,
            grad,
            self.sizes[grad],
            self.partition_bytes,
        );
    }

    fn param_ready(&mut self, _now: SimTime, grad: GradientId) {
        Self::enqueue(
            &mut self.pull_heap,
            grad,
            self.sizes[grad],
            self.partition_bytes,
        );
    }

    fn next_task(&mut self, _now: SimTime) -> Option<TransferTask> {
        if !self.push_busy {
            if let Some(Reverse((g, _off, b))) = self.push_heap.pop() {
                self.push_busy = true;
                return Some(TransferTask::slice(Dir::Push, g, b));
            }
        }
        if !self.pull_busy {
            if let Some(Reverse((g, _off, b))) = self.pull_heap.pop() {
                self.pull_busy = true;
                return Some(TransferTask::slice(Dir::Pull, g, b));
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

    fn transport(&self) -> crate::task::Transport {
        // P3 rides the framework's blocking send: every partition pays the
        // full per-message synchronisation cost (§2.2, §6.1).
        crate::task::Transport::Blocking
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn slices_into_partitions() {
        let mut s = P3Scheduler::new(vec![10_000_000], 4_000_000);
        s.gradient_ready(t0(), 0);
        let mut total = 0;
        let mut parts = 0;
        while let Some(t) = s.next_task(t0()) {
            total += t.bytes;
            parts += 1;
            s.task_done(t0(), &t);
        }
        assert_eq!(total, 10_000_000);
        assert_eq!(parts, 3); // 4 MB + 4 MB + 2 MB
    }

    #[test]
    fn higher_priority_preempts_between_partitions() {
        let mut s = P3Scheduler::new(vec![100, 12_000_000], 4_000_000);
        s.gradient_ready(t0(), 1);
        let first = s.next_task(t0()).unwrap();
        assert_eq!(first.top_priority(), 1);
        // Gradient 0 arrives mid-transfer: it must go next, ahead of the
        // remaining partitions of gradient 1.
        s.gradient_ready(t0(), 0);
        s.task_done(t0(), &first);
        let next = s.next_task(t0()).unwrap();
        assert_eq!(next.top_priority(), 0);
    }

    #[test]
    fn one_partition_in_flight_per_direction() {
        let mut s = P3Scheduler::new(vec![10_000_000, 10_000_000], 1_000_000);
        s.gradient_ready(t0(), 0);
        s.param_ready(t0(), 1);
        let a = s.next_task(t0()).unwrap();
        let b = s.next_task(t0()).unwrap();
        assert_ne!(a.dir, b.dir);
        assert!(s.next_task(t0()).is_none());
    }

    #[test]
    fn partitions_of_same_tensor_in_offset_order() {
        let mut s = P3Scheduler::new(vec![9_000_000], 4_000_000);
        s.gradient_ready(t0(), 0);
        let mut sizes = Vec::new();
        while let Some(t) = s.next_task(t0()) {
            sizes.push(t.bytes);
            s.task_done(t0(), &t);
        }
        assert_eq!(sizes, vec![4_000_000, 4_000_000, 1_000_000]);
    }

    #[test]
    fn zero_sized_tensor_still_flows() {
        let mut s = P3Scheduler::new(vec![0], 4_000_000);
        s.gradient_ready(t0(), 0);
        let t = s.next_task(t0()).unwrap();
        assert_eq!(t.bytes, 0);
        assert_eq!(t.top_priority(), 0);
    }

    #[test]
    #[should_panic(expected = "zero partition size")]
    fn rejects_zero_partition() {
        P3Scheduler::new(vec![100], 0);
    }
}
