//! A counting global allocator for the traced binary.
//!
//! `gridbench-trace` installs [`CountingAlloc`] as its
//! `#[global_allocator]`; `gridbench` (the end-to-end numbers) does not,
//! so the e2e run pays nothing for it. Tallies are thread-local: the
//! server thread's allocations per request and the replay thread's
//! allocations per decode are read separately, with no shared counter to
//! contend on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: safe to touch from inside
    // the allocator, including during thread start-up and teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting calls and bytes per thread.
pub struct CountingAlloc;

fn tally(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its TLS is
    // gone; those few allocations go uncounted rather than aborting.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the tallies touch only thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocation calls, bytes requested)` made by the calling thread so
/// far. Both stay 0 when [`CountingAlloc`] is not the global allocator.
pub fn thread_tally() -> (u64, u64) {
    (
        ALLOCS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}
