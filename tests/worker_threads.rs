//! A graph run's extra workers live for that run only: once
//! `Device::launch_graph` has returned — cleanly, or by re-throwing a
//! host closure's panic — no `sim-worker` thread is left in the process,
//! and the same device runs the next graph.
//!
//! One `#[test]` in a binary of its own: the thread list of the process
//! is what is inspected, so nothing else may be running graphs in it.

#![cfg(target_os = "linux")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::sim::{
    AccessorVal, BatchLaunch, DataVec, Device, Engine, HostNode, LaunchDag, MemoryPool,
    NdRangeSpec, RtValue, SharedPool,
};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

const LEN: i64 = 64;

/// Names of the process's threads that start with `sim-worker`.
fn worker_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists the threads");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("sim-worker"))
        .collect()
}

/// `pthread_join` returns when the kernel has cleared the thread's tid,
/// a moment before its `/proc` entry goes: give that moment a bound. A
/// parked worker stays for good, so the bound only decides how long the
/// failure takes.
fn assert_no_worker_threads(when: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let left = worker_threads();
        if left.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{when}: worker threads outlive their graph run: {left:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn no_worker_thread_outlives_its_graph_run() {
    // a[g] = a[g] + 1.0
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let sig = KernelSig::new("inc", 1, true).accessor(ctx.f32_type(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let f32t = b.ctx().f32_type();
        let one = arith::constant_float(b, 1.0, f32t);
        let s = arith::addf(b, v, one);
        sdev::store_via_id(b, s, args[0], &[gid]);
    });
    let m = kb.finish();
    let dev = m
        .lookup_symbol(m.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let inc = m.lookup_symbol(dev, "inc").expect("kernel symbol");

    let mut pool = MemoryPool::new();
    let ma = pool.alloc(DataVec::F32(vec![0.0; LEN as usize]));
    let acc = RtValue::Accessor(AccessorVal {
        mem: ma,
        range: [LEN, 1, 1],
        offset: [0, 0, 0],
        rank: 1,
        constant: false,
    });
    // Eight work-groups: a `threads=4` run enlists all four workers.
    let kernel = || BatchLaunch::kernel(inc, vec![acc], NdRangeSpec::d1(LEN, 8));
    let device = Device::with_engine(Engine::Plan).threads(4);
    assert_no_worker_threads("before any run");

    device
        .launch_graph(&m, &[kernel()], &LaunchDag::independent(1), &mut pool)
        .expect("a clean run");
    assert_no_worker_threads("after a clean run");

    let boom = HostNode::new(|_: &SharedPool<'_>| panic!("boom"));
    let batch = [kernel(), BatchLaunch::host_node(boom), kernel()];
    let payload = catch_unwind(AssertUnwindSafe(|| {
        device.launch_graph(&m, &batch, &LaunchDag::chain(3), &mut pool)
    }))
    .expect_err("the closure's panic is re-thrown on the launching thread");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    assert_no_worker_threads("after a re-thrown host panic");

    device
        .launch_graph(&m, &[kernel()], &LaunchDag::independent(1), &mut pool)
        .expect("the same device runs the next graph");
    assert_no_worker_threads("after the next run");
    // Launch 2 of the panicking graph did not run: a run stops at its
    // failure, a re-thrown panic included.
    assert_eq!(pool.read(ma), DataVec::F32(vec![3.0; LEN as usize]));
}
