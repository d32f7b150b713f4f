//! A counting global allocator: allocations and requested bytes, counted
//! per thread so a layer call's counts are exactly the allocations its
//! calling thread made. Counting is off until [`enable`]: only the traced
//! run pays for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` initialisation and a `Copy` payload: no lazy init and no
    // destructor, so the allocator can touch it at any point of a
    // thread's life without recursing into itself.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // ord: Relaxed — an on/off switch that publishes no other data.
    if ON.load(Ordering::Relaxed) {
        let _ = COUNTS.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting side effect touches only a thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting (process-wide switch; counts stay per thread).
pub fn enable() {
    // ord: Relaxed — see `note`.
    ON.store(true, Ordering::Relaxed);
}

/// This thread's `(allocations, bytes requested)` so far.
pub fn snapshot() -> (u64, u64) {
    COUNTS.with(Cell::get)
}
