//! A typed launch. Both engines check a launch's arguments against the
//! classes of its kernel's parameters before any of its work-groups runs,
//! and a value the kernel computes has the class its type says.

use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::dialects::func::{build_func, build_return};
use sycl_mlir_repro::frontend::full_context;
use sycl_mlir_repro::ir::{Builder, Module, OpId, Type, ValueId};
use sycl_mlir_repro::sim::plan::{Class, Ty};
use sycl_mlir_repro::sim::{
    AccessorVal, ArgFault, BatchLaunch, DataVec, Device, Engine, LaunchDag, MemId, MemoryPool,
    NdRangeSpec, RtValue, SimError,
};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

/// Elements per buffer, one per work-item.
const N: i64 = 16;

/// The tree walk, then the plan engine on one worker and on four.
fn devices() -> [(&'static str, Device); 3] {
    [
        ("tree", Device::with_engine(Engine::TreeWalk)),
        (
            "plan, 1 thread",
            Device::with_engine(Engine::Plan).threads(1),
        ),
        (
            "plan, 4 threads",
            Device::with_engine(Engine::Plan).threads(4),
        ),
    ]
}

/// The kernel `k(a: accessor<f32>, extra.., nd_item<1>)` whose work-item
/// stores `body(a[gid], extra..)` to `a[gid]`.
fn kernel(
    extra: &[Type],
    body: impl FnOnce(&mut Builder<'_>, ValueId, &[ValueId]) -> ValueId,
) -> (Module, OpId) {
    let c = full_context();
    let mut m = Module::new(&c);
    let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
    let params = [vec![acc], extra.to_vec(), vec![nd_item_type(&c, 1)]].concat();
    let top = m.top();
    let (func, entry) = build_func(&mut m, top, "k", &params, &[]);
    sdev::mark_kernel(&mut m, func);
    let args = m.block_args(entry).to_vec();
    let (a, item) = (args[0], args[args.len() - 1]);
    let mut b = Builder::at_end(&mut m, entry);
    let gid = sdev::global_id(&mut b, item, 0);
    let v = sdev::load_via_id(&mut b, a, &[gid]);
    let out = body(&mut b, v, &args[1..args.len() - 1]);
    sdev::store_via_id(&mut b, out, a, &[gid]);
    build_return(&mut b, &[]);
    (m, func)
}

/// A rank-1 accessor over all of buffer `mem`.
fn accessor(mem: MemId) -> RtValue {
    RtValue::Accessor(AccessorVal {
        mem,
        range: [N, 1, 1],
        offset: [0, 0, 0],
        rank: 1,
        constant: false,
    })
}

fn floats(v: f32) -> DataVec {
    DataVec::F32(vec![v; N as usize])
}

/// Three launches of `a[gid] *= k` in a chain, the middle one mistyped:
/// an `i64` where the kernel takes `f32`, an accessor over an `i32`
/// buffer where it takes `accessor<f32>`, one argument too few. Each
/// engine refuses the middle launch at its work-group 0 with the same
/// typed fault; the launch before it completes and the one after it
/// never starts.
#[test]
fn a_mistyped_launch_fails_at_its_work_group_0_in_both_engines() {
    let f32t = full_context().f32_type();
    let (m, k) = kernel(&[f32t], |b, v, extra| arith::mulf(b, v, extra[0]));
    type Mistyped = fn(MemId, MemId) -> Vec<RtValue>;
    let acc_of = |class| Ty::of(Class::Acc, class);
    let cases: [(Mistyped, ArgFault, &str); 3] = [
        (
            |f32s, _| vec![accessor(f32s), RtValue::Int(2)],
            ArgFault::Class {
                index: 1,
                expected: Class::Float.into(),
                given: Some(Class::Int.into()),
            },
            "argument 1: the kernel takes a float, given an integer",
        ),
        (
            |_, i32s| vec![accessor(i32s), RtValue::F32(2.0)],
            ArgFault::Class {
                index: 0,
                expected: acc_of(Class::Float),
                given: Some(acc_of(Class::Int)),
            },
            "argument 0: the kernel takes an accessor of floats, given an accessor of integers",
        ),
        (
            |f32s, _| vec![accessor(f32s)],
            ArgFault::Count {
                expected: 2,
                given: 1,
            },
            "kernel expects 2 arguments, got 1",
        ),
    ];
    for (mistyped, fault, text) in cases {
        for (engine, device) in devices() {
            let mut pool = MemoryPool::new();
            let [before, middle, after] = [(); 3].map(|()| pool.alloc(floats(1.0)));
            let ints = pool.alloc(DataVec::I32(vec![1; N as usize]));
            let nd = NdRangeSpec::d1(N, 4);
            let scaled = |mem| vec![accessor(mem), RtValue::F32(3.0)];
            let batch = [
                BatchLaunch::kernel(k, scaled(before), nd),
                BatchLaunch::kernel(k, mistyped(middle, ints), nd),
                BatchLaunch::kernel(k, scaled(after), nd),
            ];
            let error = device
                .launch_graph(&m, &batch, &LaunchDag::chain(3), &mut pool)
                .expect_err("the middle launch is refused");
            let at = Some((1, 0));
            assert_eq!(error, SimError::Argument { fault, at }, "{engine}");
            assert_eq!(
                error.message(),
                format!("{text} (launch 1, work-group 0)"),
                "{engine}"
            );
            let images = [before, middle, after, ints].map(|mem| pool.read(mem));
            let untouched = [floats(1.0), floats(1.0), DataVec::I32(vec![1; N as usize])];
            assert_eq!(
                images[0],
                floats(3.0),
                "{engine}: the launch before completes"
            );
            assert_eq!(images[1..], untouched, "{engine}: no group after it runs");
        }
    }
}

/// `arith.addf(llvm.undef : f32, x)` adds the zero of `f32`, under both
/// engines: an undefined value takes its own type's zero, not the
/// integer 0.
#[test]
fn an_undefined_f32_is_the_f32_zero_in_both_engines() {
    let (m, k) = kernel(&[], |b, v, _| {
        let f32t = b.ctx().f32_type();
        let undef = b.build_value("llvm.undef", &[], f32t.clone(), vec![]);
        let two = arith::constant_float(b, 2.0, f32t);
        let twice = arith::mulf(b, v, two);
        arith::addf(b, undef, twice)
    });
    for (engine, device) in devices() {
        let mut pool = MemoryPool::new();
        let a = pool.alloc(DataVec::F32((0..N).map(|i| i as f32 + 0.5).collect()));
        device
            .launch(&m, k, &[accessor(a)], NdRangeSpec::d1(N, 4), &mut pool)
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        let want = DataVec::F32((0..N).map(|i| 2.0 * i as f32 + 1.0).collect());
        assert_eq!(pool.read(a), want, "{engine}");
    }
}
