//! Heap allocations of the build + compile path: a work counter that does
//! not move with machine load (ROADMAP aim 1).
//!
//! One pass of `build` + `compile_program` over the 141 (program, flow)
//! pairs the repo benchmark's `compile_only` workload runs, at quick size,
//! under a counting global allocator. The binary holds this one test so
//! nothing else allocates while it counts. Before names were resolved once
//! (one registered context per thread, structural CSE keys) the pass cost
//! 165,357 + 76,952 = 242,309 allocations, 283 of every build being its
//! fresh context. The build half repeats exactly; the compile half moves by
//! a handful with the iteration order of a `RandomState` map in the
//! pipeline, which is why the assertion is a ceiling and not an equality.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::all_workloads;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::runtime::compile_program;

/// Calls to `alloc` and `realloc` so far, process-wide.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned; the counter is a statistic that guards
// no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Asserted ceiling for one pass; the measured count is about 5% below it.
const BUDGET: u64 = 175_000;

#[test]
fn build_and_compile_stay_within_the_allocation_budget() {
    let (mut build, mut compile) = (0, 0);
    for w in all_workloads() {
        for kind in FlowKind::all() {
            if kind == FlowKind::AdaptiveCpp && w.acpp_fails {
                continue;
            }
            let start = ALLOCATIONS.load(Ordering::Relaxed);
            let app = (w.build)(quick_size(&w));
            let built = ALLOCATIONS.load(Ordering::Relaxed);
            let program = compile_program(kind, app.module);
            let compiled = ALLOCATIONS.load(Ordering::Relaxed);
            program.unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
            build += built - start;
            compile += compiled - built;
        }
    }
    let total = build + compile;
    println!(
        "alloc_budget: build {build} + compile {compile} = {total} allocations (budget {BUDGET})"
    );
    assert!(total <= BUDGET, "{total} allocations, budget {BUDGET}");
}
