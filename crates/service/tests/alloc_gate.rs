//! Allocation gate for the served report path: answering `check` on an
//! unchanged 2000-binding document, into a session buffer already grown
//! by an earlier answer, allocates a small constant number of times —
//! not per binding. The count is deterministic, so unlike a timer it
//! holds on any host.
//!
//! This binary installs a counting global allocator. Counts are kept per
//! thread, so tests running side by side do not see each other's
//! allocations.

use freezeml_core::Options;
use freezeml_service::{handle_line, EngineSel, GenProgram, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // `const` initialisation and a `Copy` payload: no lazy init and no
    // destructor, so the allocator can touch it at any point of a
    // thread's life without recursing into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting side effect touches only a thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (reallocations included) this thread makes inside `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The gate: a constant, far below one allocation per binding.
const MAX_ALLOCS: u64 = 64;

#[test]
fn a_warm_check_answer_allocates_a_constant_number_of_times() {
    const N: usize = 2000;
    let mut svc = Service::new(ServiceConfig {
        opts: Options::default(),
        engine: EngineSel::Uf,
        workers: 1,
    });
    svc.open("m", &GenProgram::generate(N, 0).text())
        .expect("generated program parses");
    let line = r#"{"cmd":"check","doc":"m"}"#;
    let mut out = String::new();
    // The first answer grows the buffer, as a session's first report does.
    handle_line(&mut svc, line, &mut out);
    let first = out.clone();
    out.clear();
    let n = allocations(|| handle_line(&mut svc, line, &mut out));
    assert_eq!(out, first, "the same document answers the same bytes");
    assert_eq!(
        out.matches("\"status\":\"ok\"").count(),
        N,
        "every binding is in the answer"
    );
    assert!(
        n < MAX_ALLOCS,
        "answering `check` on {N} bindings made {n} allocations (gate: < {MAX_ALLOCS})"
    );
}
