//! A counting global allocator for the `cay bench` hot-path numbers.
//!
//! Enabled by the `count-allocs` feature, which also installs it as
//! the process's global allocator: every allocation and reallocation anywhere in the process
//! bumps a relaxed atomic, so a bench region reads the counter before
//! and after its loop and reports allocations per packet (or per
//! trial). The counter is process-global — measured regions must
//! subtract a baseline taken immediately before the loop, and numbers
//! from multi-threaded regions include every thread's allocations.
//!
//! Deallocation is deliberately not counted: the hot-path budget is
//! about how often the forward path *enters* the allocator, and a
//! `dealloc` always pairs with a counted `alloc`/`realloc`.

// `GlobalAlloc` cannot be implemented without `unsafe`; this
// implementation only forwards to `System` with the caller's own
// contract, adding a relaxed counter bump.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// The system allocator, with an allocation-call counter in front.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim under the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation and reallocation calls since process start.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
