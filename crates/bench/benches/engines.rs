//! Criterion benchmarks of the two simulator engines: wall-clock time to
//! execute representative workloads (GEMM for the matmul shape, jacobi for
//! a stencil) under the tree-walk reference interpreter vs the pre-decoded
//! plan executor, and the plan executor's scaling over worker threads.
//! This is the host-side cost of *simulating*, not the simulated cycles —
//! the quantity the plan engine and the work-group thread pool exist to
//! shrink.

use criterion::{criterion_group, criterion_main, Criterion};
use sycl_mlir_benchsuite::run_workload_on;
use sycl_mlir_core::FlowKind;
use sycl_mlir_sim::{Device, Engine};

fn workload(name: &str) -> (sycl_mlir_benchsuite::WorkloadSpec, i64) {
    let spec = sycl_mlir_benchsuite::all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .expect("workload registered");
    // Sizes must stay multiples of the work-group geometry.
    let size = if name == "GEMM" { 32 } else { spec.scaled_size };
    (spec, size)
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for name in ["GEMM", "jacobi"] {
        let (spec, size) = workload(name);
        for engine in [Engine::TreeWalk, Engine::Plan] {
            let device = Device::with_engine(engine);
            group.bench_function(format!("{name}/{}", engine.name()), |b| {
                b.iter(|| {
                    let (r, _) = run_workload_on(&spec, size, FlowKind::SyclMlir, &device)
                        .expect("workload runs");
                    assert!(r.valid);
                    r.cycles
                })
            });
        }
    }
    group.finish();
}

/// The fuse axis: the plan engine with the decoder's peephole fusion
/// off and on (sequential, so the delta is pure per-instruction
/// dispatch).
fn bench_fuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuse");
    group.sample_size(10);
    for name in ["GEMM", "jacobi"] {
        let (spec, size) = workload(name);
        for (fuse, label) in [(false, "off"), (true, "on")] {
            let device = Device::with_engine(Engine::Plan).threads(1).fuse(fuse);
            group.bench_function(format!("{name}/fuse-{label}"), |b| {
                b.iter(|| {
                    let (r, _) = run_workload_on(&spec, size, FlowKind::SyclMlir, &device)
                        .expect("workload runs");
                    assert!(r.valid);
                    r.cycles
                })
            });
        }
    }
    group.finish();
}

/// The threads axis: the plan engine's work-group pool at 1/2/4/8 workers.
/// Results are bit-identical across the axis (asserted differentially in
/// `tests/differential.rs`); only wall time moves.
fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads");
    group.sample_size(10);
    for name in ["GEMM", "jacobi"] {
        let (spec, size) = workload(name);
        for threads in [1_usize, 2, 4, 8] {
            let device = Device::with_engine(Engine::Plan).threads(threads);
            group.bench_function(format!("{name}/plan-t{threads}"), |b| {
                b.iter(|| {
                    let (r, _) = run_workload_on(&spec, size, FlowKind::SyclMlir, &device)
                        .expect("workload runs");
                    assert!(r.valid);
                    r.cycles
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_fuse, bench_threads);
criterion_main!(benches);
