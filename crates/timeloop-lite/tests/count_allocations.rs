//! `Traffic::count` allocates nothing on its success path: the optimizer's
//! rescore loop counts every tile combination that clears its footprint
//! prefilter, hundreds of thousands per layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use timeloop_lite::problem::{conv2d, matmul};
use timeloop_lite::{Mapping, Traffic};

thread_local! {
    /// Allocations made by this thread; tests run on parallel threads.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn counting_a_valid_mapping_allocates_nothing() {
    let conv = conv2d("t", 2, 8, 4, 6, 6, 3, 3, 2);
    let mut tiled = Mapping::untiled(&conv);
    tiled.register_factors = vec![1, 2, 2, 3, 1, 3, 1];
    tiled.pe_temporal_factors = vec![1, 2, 1, 1, 3, 1, 2];
    tiled.spatial_factors = vec![2, 1, 2, 1, 1, 2, 1];
    tiled.outer_factors = vec![1, 2, 1, 1, 1, 1, 3];
    tiled.pe_temporal_perm = vec![6, 5, 4, 3, 2, 1, 0];
    tiled.outer_perm = vec![2, 0, 6, 1, 5, 3, 4];
    let mm = matmul(16, 12, 8);
    for (prob, mapping) in [
        (&conv, tiled),
        (&conv, Mapping::untiled(&conv)),
        (&mm, Mapping::untiled(&mm)),
    ] {
        let (traffic, allocations) = allocations_during(|| Traffic::count(prob, &mapping));
        assert!(traffic.is_ok(), "{mapping:?}");
        assert_eq!(allocations, 0, "{mapping:?}");
    }
}
