//! Heap allocations of the build + compile path: a work counter that does
//! not move with machine load (ROADMAP aim 1).
//!
//! One pass of `build` + `compile_program` over the 141 (program, flow)
//! pairs the repo benchmark's `compile_only` workload runs, at quick size,
//! under a counting global allocator. The binary holds this one test so
//! nothing else allocates while it counts. Before names were resolved once
//! (one registered context per thread, structural CSE keys) the pass cost
//! 165,357 + 76,952 = 242,309 allocations, 283 of every build being its
//! fresh context; emitting one host function per distinct command group
//! instead of one per submission took it from 165,389 to about 109,200.
//! Building computes no host reference since each validator computes its
//! own when called: build 78,625 → 78,189, compile 30,257, total 108,446.
//! Generating seeded inputs when a run uploads them — a builder hands the
//! runtime one boxed recipe per input instead of a drawn `Vec` and its
//! copy — took build to 77,887 (compile 30,257, total 108,144).
//! Borrowing in the IR core — attribute keys interned from borrowed
//! names, results and block arguments as ranges of one id table, operands
//! and uses inline, the verifier's scope table reused per thread — and
//! building zero-filled outputs without their zeros took build to 44,933
//! and compile to 19,879 (total 64,812).
//! Interning string and symbol attributes in the context, building an
//! op's attribute list once at its exact length (from an array where the
//! builder passes one), finding an existing type by its borrowed parts
//! and walking CSE over the live op lists took build to 23,478 and
//! compile to 12,146 (total 35,624).
//! The compile half used to move by a handful from run to run, with the
//! iteration order of `RandomState` maps in the analyses and passes and
//! with where CSE's table, which hashes result types by address, deleted
//! keys. Those maps are the context's `FxHashMap`s now and the CSE table
//! deletes no key (compile 12,338 → 12,397), and the DPC++ and AdaptiveCpp
//! pipelines drop the host functions before their first pass: the count
//! is the same on every run, so the assertion is an equality.

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

/// Allocations of one pass, exactly.
const BUDGET: u64 = 35_883;

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
    assert_eq!(total, BUDGET, "allocations of one build + compile pass");
}
