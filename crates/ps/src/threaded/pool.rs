//! Pooled, reference-counted wire buffers: the allocation recycler behind
//! the zero-copy push and pull paths.
//!
//! A worker serialises each layer's gradients into **one buffer** per layer
//! ([`bytes::BytesMut`] → frozen [`bytes::Bytes`], one pool per layer) and
//! every push payload — original or retransmission — is a zero-copy
//! [`Bytes::slice`] window into it. A PS shard likewise encodes each parameter tensor once per update
//! and serves every pull from slices of that one buffer. When the last
//! outstanding reference drops, [`Bytes::try_into_mut`] reclaims the
//! storage without copying and the next checkout reuses it, so the
//! steady-state hot path performs **zero** heap allocations; the
//! `allocated`/`recycled` counters make that property assertable from
//! tests (`ThreadedResult::arena_allocs` stays flat while
//! `arena_recycles` scales with iterations).
//!
//! A buffer whose references have *not* all dropped yet (a push still
//! sitting in a crashed shard's inbox, a pull reply in flight) is parked
//! rather than leaked: every later checkout retries parked buffers before
//! allocating fresh storage.

use bytes::{Bytes, BytesMut};

/// A recycler for frozen wire buffers. See the module docs for the
/// ownership protocol.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    /// Reclaimed storage, cleared and ready for checkout.
    spare: Vec<BytesMut>,
    /// Returned buffers that still have outstanding references; retried on
    /// every checkout.
    parked: Vec<Bytes>,
    /// Checkouts served by a fresh heap allocation.
    pub allocated: u64,
    /// Checkouts served from reclaimed storage.
    pub recycled: u64,
}

impl ArenaPool {
    pub fn new() -> Self {
        ArenaPool::default()
    }

    /// Return a frozen buffer to the pool. Reclaims the storage when this
    /// is the last reference, parks it for a later retry otherwise.
    pub fn recycle(&mut self, buf: Bytes) {
        match buf.try_into_mut() {
            Ok(m) => self.spare.push(m),
            Err(b) => self.parked.push(b),
        }
    }

    /// An empty buffer with at least `cap` capacity: reclaimed storage when
    /// any is (or has become) available, a counted fresh allocation
    /// otherwise.
    pub fn checkout(&mut self, cap: usize) -> BytesMut {
        // Parked buffers first: their stragglers may have dropped by now.
        let mut i = 0;
        while i < self.parked.len() {
            let candidate = std::mem::replace(&mut self.parked[i], Bytes::new());
            match candidate.try_into_mut() {
                Ok(m) => {
                    self.parked.swap_remove(i);
                    self.spare.push(m);
                }
                Err(b) => {
                    self.parked[i] = b;
                    i += 1;
                }
            }
        }
        match self.spare.pop() {
            Some(mut m) => {
                m.clear();
                m.reserve(cap);
                self.recycled += 1;
                m
            }
            None => {
                self.allocated += 1;
                BytesMut::with_capacity(cap)
            }
        }
    }

    /// Checkout pre-filled with a copy of `src` — the corruption
    /// injector's scratch: it tampers a pooled *copy* of a payload so the
    /// clean arena slice stays untouched for a bit-exact retransmit.
    pub fn checkout_from(&mut self, src: &[u8]) -> BytesMut {
        let mut m = self.checkout(src.len());
        m.extend_from_slice(src);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn steady_state_reuses_one_allocation() {
        let mut pool = ArenaPool::new();
        for _ in 0..10 {
            let mut buf = pool.checkout(64);
            buf.put_u64_le(7);
            let frozen = buf.freeze();
            let copy = frozen.slice(..);
            drop(copy); // all references gone before recycle
            pool.recycle(frozen);
        }
        assert_eq!(pool.allocated, 1);
        assert_eq!(pool.recycled, 9);
    }

    #[test]
    fn shared_buffer_parks_then_reclaims() {
        let mut pool = ArenaPool::new();
        let buf = pool.checkout(16).freeze();
        let straggler = buf.slice(..);
        pool.recycle(buf);
        // Straggler alive: checkout cannot reclaim, must allocate.
        let second = pool.checkout(16);
        assert_eq!(pool.allocated, 2);
        drop(straggler);
        drop(second);
        // Straggler gone: the parked buffer is reclaimed.
        let _third = pool.checkout(16);
        assert_eq!(pool.allocated, 2);
        assert_eq!(pool.recycled, 1);
    }

    #[test]
    fn checkout_grows_reclaimed_storage_to_fit() {
        let mut pool = ArenaPool::new();
        let small = pool.checkout(8).freeze();
        pool.recycle(small);
        let big = pool.checkout(1024);
        assert!(big.is_empty());
        assert_eq!(pool.recycled, 1, "growth is a reserve, not a new arena");
    }
}
