//! The pending-event set.
//!
//! A thin wrapper around [`BinaryHeap`] that orders events by `(time, seq)`
//! where `seq` is a monotone insertion counter. The tie-break makes the
//! simulation **deterministic**: two events scheduled for the same instant
//! fire in the order they were scheduled, independent of heap internals.
//!
//! Events are caller-defined payloads (`E`), typically an enum — no trait
//! objects, no per-event allocation beyond what the payload itself owns.
//! Cancellation is handled by *generation stamping* at the caller (standard
//! DES practice: re-validating an event on pop is cheaper and simpler than
//! removing it from the heap), but a [`EventQueue::retain`] escape hatch is
//! provided for tests.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest (time, seq).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic pending-event set keyed by simulated time.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Panics in debug builds if `at` is in the past — scheduling backwards
    /// in time is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {:?} < {:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Set aside the next `n` sequence numbers and return the first: the
    /// numbers `n` consecutive [`EventQueue::schedule`] calls would take
    /// now. See [`EventQueue::schedule_reserved`].
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedule `event` at `at` under a sequence number obtained from
    /// [`EventQueue::reserve`].
    ///
    /// This lets a caller that knows a whole batch of future events up
    /// front keep only the *next* one in the heap, without changing the
    /// order anything pops in. The argument: let the batch's entries be
    /// `e_1 < e_2 < … < e_n` by `(time, seq)` key — the order the heap
    /// would pop them in had they all been scheduled at reservation time —
    /// and let the caller queue `e_1` at once and `e_{k+1}` when `e_k` pops,
    /// before the next `pop`. An entry the heap does not hold yet, `e_j`
    /// with `j > k + 1`, has a key above `e_{k+1}`'s, which the heap does
    /// hold; so the minimum over the heap's entries equals the minimum over
    /// the entries of the fully-loaded heap, at every pop. Same minima, same
    /// pop sequence; and since the batch took its `n` numbers when it was
    /// reserved, every other event gets the number it would have got. The
    /// caller's side of the bargain is to chain in ascending `(time, seq)`
    /// order — sort the batch, do not assume it — which also keeps each
    /// lazily queued entry at or after the instant it is queued at.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(at >= self.now, "reserved event in the past");
        debug_assert!(seq < self.next_seq, "sequence number was never reserved");
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Pop the earliest pending event and advance the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event heap went backwards");
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Move the clock to `t` without popping anything: an instant that only
    /// the caller's other event source (a network's predicted completion,
    /// say) has. Panics if `t` is before the clock or after the earliest
    /// pending event — either would let a later pop run time backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "clock moved backwards: {t:?} < {:?}",
            self.now
        );
        assert!(
            self.peek_time().is_none_or(|next| t <= next),
            "clock moved past the earliest pending event"
        );
        self.now = t;
    }

    /// Timestamp of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events for which `keep` returns false.
    ///
    /// O(n log n); intended for tests and teardown, not the hot loop — use
    /// generation stamping for routine cancellation.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        let entries: Vec<Entry<E>> = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries.into_iter().filter(|e| keep(&e.event)).collect();
    }

    /// Remove every pending event, leaving the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(7));
    }

    #[test]
    fn advance_moves_the_clock_up_to_the_next_event() {
        let mut q = EventQueue::new();
        q.advance_to(t(3));
        assert_eq!(q.now(), t(3));
        q.schedule(t(8), "a");
        q.advance_to(t(8));
        q.advance_to(t(8));
        assert_eq!(q.pop(), Some((t(8), "a")));
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn advance_never_moves_backwards() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(t(5));
        q.advance_to(t(4));
    }

    #[test]
    #[should_panic(expected = "past the earliest pending event")]
    fn advance_never_passes_the_next_event() {
        let mut q = EventQueue::new();
        q.schedule(t(5), ());
        q.advance_to(t(6));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(t(9), ());
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(5), 2);
    }

    #[test]
    fn retain_filters_events() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(i), i);
        }
        q.retain(|&e| e % 2 == 0);
        assert_eq!(q.len(), 5);
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn lazily_chained_batches_pop_like_eager_ones() {
        // Three interleaved batches with ties inside and across them, plus
        // ordinary events scheduled while they drain: queueing only each
        // batch's next entry must pop exactly what queueing it whole does.
        let batches: [&[u64]; 3] = [&[5, 5, 9, 20], &[5, 7, 9, 9, 30], &[1, 20, 20]];
        let mut eager = EventQueue::new();
        let mut lazy = EventQueue::new();
        let mut next: Vec<(u64, usize)> = Vec::new(); // per batch: (first seq, queued so far)
        for (b, times) in batches.iter().enumerate() {
            for (i, &ms) in times.iter().enumerate() {
                eager.schedule(t(ms), (b, i));
            }
            let first = lazy.reserve(times.len() as u64);
            lazy.schedule_reserved(t(times[0]), first, (b, 0));
            next.push((first, 1));
            // An ordinary event between reservations takes the same number.
            eager.schedule(t(9), (9, b));
            lazy.schedule(t(9), (9, b));
        }
        loop {
            let (e, l) = (eager.pop(), lazy.pop());
            assert_eq!(e, l);
            let Some((now, (b, i))) = l else { break };
            if b < batches.len() {
                let (first, queued) = &mut next[b];
                if let Some(&ms) = batches[b].get(*queued) {
                    lazy.schedule_reserved(t(ms), *first + *queued as u64, (b, *queued));
                    *queued += 1;
                }
                // Handlers schedule follow-ups; both queues number them alike.
                if i == 1 {
                    eager.schedule(now, (8, b));
                    lazy.schedule(now, (8, b));
                }
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10u64);
        q.schedule(t(30), 30);
        let (now, e) = q.pop().unwrap();
        assert_eq!(e, 10);
        // Schedule relative to the new now.
        q.schedule(now + Duration::from_millis(10), 20);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }
}
