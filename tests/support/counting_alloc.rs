//! A counting global allocator for the "counted, not timed" tests
//! (`checker_alloc`, `cluster_alloc`). Included by path; each test crate
//! installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and re-allocations) made by this thread. Per thread, so
    /// the harness and the crate's other tests do not leak into a count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

fn count() {
    // `try_with`: an allocation during thread teardown has nothing to count into.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return its result with the allocations this thread made
/// meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}
