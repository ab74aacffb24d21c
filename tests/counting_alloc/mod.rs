//! The counting allocator shared by the allocation-pinning tests
//! (`alloc_free.rs`, `alloc_hit_path.rs`, `alloc_first_sight.rs`). Each of
//! those files installs it as its `#[global_allocator]` and holds a single
//! `#[test]`: the counter is process-global, and a concurrently running
//! sibling test would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with an allocation counter (deallocations are not
/// counted: returning warm buffers is free, acquiring new ones is not).
pub struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Allocations made by the process so far.
pub fn allocations() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
