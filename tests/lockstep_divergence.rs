//! The plan engine runs a sub-group's work-items in lockstep: one dispatch
//! per instruction for all the lanes that share a frame stack and a `pc`.
//! This suite holds it to the serial reference (`--engine=tree`, one
//! work-item at a time) where lanes do **not** stay together: kernels
//! whose lanes branch apart, loop different numbers of times, meet again
//! at barriers, or fail. Each kernel is built through the frontend and
//! the host-IR generator, compiled under two flows, and run under every
//! geometry × sub-group size below; outputs, every `ExecStats` field,
//! cycles, and — where the kernel fails — the error's text and position
//! must be bit-identical to the tree walk's, on one worker and on four.

use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::{arith, memref, scf};
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::ir::{Builder, ValueId};
use sycl_mlir_repro::runtime::{
    compile_program, exec, hostgen::generate_host_ir, BufferId, Queue, SyclRuntime,
};
use sycl_mlir_repro::sim::{CostModel, Device, Engine, ExecStats, KernelFault, SimError};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

/// A launch geometry: global and local range, rank 1 or 2.
#[derive(Clone, Copy, Debug)]
struct Geom {
    global: &'static [i64],
    local: &'static [i64],
}

impl Geom {
    fn items(self) -> i64 {
        self.global.iter().product()
    }

    fn group(self) -> i64 {
        self.local.iter().product()
    }
}

/// One full sub-group per work-group; one full and one partial (24 = 16 +
/// 8); and the suite's 2-D tile.
const GEOMS: [Geom; 3] = [
    Geom {
        global: &[32],
        local: &[16],
    },
    Geom {
        global: &[48],
        local: &[24],
    },
    Geom {
        global: &[8, 8],
        local: &[4, 4],
    },
];

/// The cost model's default, one lane per sub-group (which *is* serial
/// item order), half and double.
const SUBGROUP_SIZES: [usize; 4] = [16, 1, 8, 32];

/// The item's linear local and global ids.
fn linear_ids(b: &mut Builder<'_>, item: ValueId, geom: Geom) -> (ValueId, ValueId) {
    let mut lid = sdev::local_id(b, item, 0);
    let mut gid = sdev::global_id(b, item, 0);
    for d in 1..geom.local.len() {
        let (l, g) = (
            arith::constant_index(b, geom.local[d]),
            arith::constant_index(b, geom.global[d]),
        );
        let (li, gi) = (
            sdev::local_id(b, item, d as u32),
            sdev::global_id(b, item, d as u32),
        );
        let (ls, gs) = (arith::muli(b, lid, l), arith::muli(b, gid, g));
        lid = arith::addi(b, ls, li);
        gid = arith::addi(b, gs, gi);
    }
    (lid, gid)
}

/// `input[(gid + k) % items]`.
fn load_shifted(
    b: &mut Builder<'_>,
    input: ValueId,
    gid: ValueId,
    k: ValueId,
    geom: Geom,
) -> ValueId {
    let n = arith::constant_index(b, geom.items());
    let at = arith::addi(b, gid, k);
    let at = arith::remsi(b, at, n);
    sdev::load_via_id(b, input, &[at])
}

/// `cond ? then() : 0.0`.
fn if_else_zero(
    b: &mut Builder<'_>,
    cond: ValueId,
    then: impl FnOnce(&mut Builder<'_>) -> ValueId,
) -> ValueId {
    let f32t = b.ctx().f32_type();
    let op = scf::build_if(
        b,
        cond,
        std::slice::from_ref(&f32t),
        |inner| vec![then(inner)],
        |inner| {
            let f32t = inner.ctx().f32_type();
            vec![arith::constant_float(inner, 0.0, f32t)]
        },
    );
    b.module().op_result(op, 0)
}

/// `lid % 3 == 0`.
fn every_third(b: &mut Builder<'_>, lid: ValueId) -> ValueId {
    let (three, zero) = (arith::constant_index(b, 3), arith::constant_index(b, 0));
    let m = arith::remsi(b, lid, three);
    arith::cmpi(b, "eq", m, zero)
}

/// `for k in 0..trips (acc = 0.0) { acc += body(k) }`, yielding `acc`.
fn sum_loop(
    b: &mut Builder<'_>,
    trips: ValueId,
    body: impl FnOnce(&mut Builder<'_>, ValueId) -> ValueId,
) -> ValueId {
    let f32t = b.ctx().f32_type();
    let (zero, one) = (arith::constant_index(b, 0), arith::constant_index(b, 1));
    let init = arith::constant_float(b, 0.0, f32t);
    let op = scf::build_for(b, zero, trips, one, &[init], |inner, k, acc| {
        let v = body(inner, k);
        vec![arith::addf(inner, acc[0], v)]
    });
    b.module().op_result(op, 0)
}

/// The kernels of the suite that run to completion; `divergent`,
/// `barrier_loop` and `two_faults` fail. All are over `(input f32, idx i32, out f32)`.
const COMPLETING: [&str; 5] = ["mod3_loop", "late_join", "trips", "lane0_store", "ladder"];

/// The joint module: the suite's kernels for `geom`, and the host IR of
/// `q`.
fn build_module(geom: Geom, rt: &SyclRuntime, q: &Queue) -> sycl_mlir_repro::ir::Module {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let rank = geom.local.len() as u32;
    let sig = |name: &str| {
        KernelSig::new(name, rank, true)
            .accessor(ctx.f32_type(), 1, AccessMode::Read)
            .accessor(ctx.i32_type(), 1, AccessMode::Read)
            .accessor(ctx.f32_type(), 1, AccessMode::Write)
    };

    // An `if (lid % 3 == 0)` around a global load inside a loop: the group
    // splits at the first iteration and the halves run the loop apart.
    kb.add_kernel(&sig("mod3_loop"), |b, args, item| {
        let (lid, gid) = linear_ids(b, item, geom);
        let four = arith::constant_index(b, 4);
        let acc = sum_loop(b, four, |b, k| {
            let third = every_third(b, lid);
            if_else_zero(b, third, |b| load_shifted(b, args[0], gid, k, geom))
        });
        sdev::store_via_id(b, acc, args[2], &[gid]);
    });

    // The same, with a barrier per iteration — the halves merge again —
    // and every lane loading from the third iteration on: lanes reach the
    // one load site in one dispatch at different instance numbers.
    kb.add_kernel(&sig("late_join"), |b, args, item| {
        let (lid, gid) = linear_ids(b, item, geom);
        let g = sdev::get_group(b, item);
        let four = arith::constant_index(b, 4);
        let acc = sum_loop(b, four, |b, k| {
            let third = every_third(b, lid);
            let two = arith::constant_index(b, 2);
            let late = arith::cmpi(b, "sge", k, two);
            let cond = b.build_value("arith.ori", &[third, late], b.ctx().i1_type(), vec![]);
            let v = if_else_zero(b, cond, |b| load_shifted(b, args[0], gid, k, geom));
            sdev::group_barrier(b, g);
            v
        });
        sdev::store_via_id(b, acc, args[2], &[gid]);
    });

    // Per-lane trip counts out of the index buffer (0..=4, so some lanes
    // never enter the loop).
    kb.add_kernel(&sig("trips"), |b, args, item| {
        let (_, gid) = linear_ids(b, item, geom);
        let raw = sdev::load_via_id(b, args[1], &[gid]);
        let index_ty = b.ctx().index_type();
        let trips = arith::index_cast(b, raw, index_ty);
        let acc = sum_loop(b, trips, |b, k| load_shifted(b, args[0], gid, k, geom));
        sdev::store_via_id(b, acc, args[2], &[gid]);
    });

    // Lane 0 alone stores to local memory; after the barrier all read it.
    kb.add_kernel(&sig("lane0_store"), |b, args, item| {
        let (lid, gid) = linear_ids(b, item, geom);
        let g = sdev::get_group(b, item);
        let f32t = b.ctx().f32_type();
        let tile = sdev::local_alloca(b, f32t, &[1]);
        let zero = arith::constant_index(b, 0);
        let first = arith::cmpi(b, "eq", lid, zero);
        scf::build_if(
            b,
            first,
            &[],
            |b| {
                let v = sdev::load_via_id(b, args[0], &[gid]);
                memref::store(b, v, tile, &[zero]);
                vec![]
            },
            |_| vec![],
        );
        sdev::group_barrier(b, g);
        let v = memref::load(b, tile, &[zero]);
        sdev::store_via_id(b, v, args[2], &[gid]);
    });

    // The reduction ladder `if (lid < s)` down to `s = 1`: every rung
    // splits the sub-group that straddles `s`, every barrier merges it.
    kb.add_kernel(&sig("ladder"), |b, args, item| {
        let (lid, gid) = linear_ids(b, item, geom);
        let g = sdev::get_group(b, item);
        let f32t = b.ctx().f32_type();
        let size = geom.group();
        let tile = sdev::local_alloca(b, f32t, &[size]);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        memref::store(b, v, tile, &[lid]);
        sdev::group_barrier(b, g);
        let mut stride = (size as u64).next_power_of_two() as i64 / 2;
        while stride >= 1 {
            let s = arith::constant_index(b, stride);
            let n = arith::constant_index(b, size);
            let partner = arith::addi(b, lid, s);
            let low = arith::cmpi(b, "slt", lid, s);
            let inside = arith::cmpi(b, "slt", partner, n);
            let active = b.build_value("arith.andi", &[low, inside], b.ctx().i1_type(), vec![]);
            scf::build_if(
                b,
                active,
                &[],
                |b| {
                    let lo = memref::load(b, tile, &[lid]);
                    let hi = memref::load(b, tile, &[partner]);
                    let sum = arith::addf(b, lo, hi);
                    memref::store(b, sum, tile, &[lid]);
                    vec![]
                },
                |_| vec![],
            );
            sdev::group_barrier(b, g);
            stride /= 2;
        }
        let zero = arith::constant_index(b, 0);
        let total = memref::load(b, tile, &[zero]);
        sdev::store_via_id(b, total, args[2], &[gid]);
    });

    // A divergent barrier: the even lanes wait, the odd ones finish.
    kb.add_kernel(&sig("divergent"), |b, _args, item| {
        let (lid, _) = linear_ids(b, item, geom);
        let g = sdev::get_group(b, item);
        let (two, zero) = (arith::constant_index(b, 2), arith::constant_index(b, 0));
        let m = arith::remsi(b, lid, two);
        let even = arith::cmpi(b, "eq", m, zero);
        scf::build_if(
            b,
            even,
            &[],
            |b| {
                sdev::group_barrier(b, g);
                vec![]
            },
            |_| vec![],
        );
    });

    // A barrier in a loop of `lid` trips: lane 0 never enters the loop
    // and finishes while the others wait at the barrier.
    kb.add_kernel(&sig("barrier_loop"), |b, _args, item| {
        let (lid, _) = linear_ids(b, item, geom);
        let g = sdev::get_group(b, item);
        let (zero, one) = (arith::constant_index(b, 0), arith::constant_index(b, 1));
        scf::build_for(b, zero, lid, one, &[], |b, _, _| {
            sdev::group_barrier(b, g);
            vec![]
        });
    });

    // Two lanes fail at different instructions, the higher lane at the
    // earlier one: lane 5 loads out of bounds first in lockstep order,
    // lane 2 divides by zero later — and is the first to fail in item
    // order, so its error is the launch's.
    kb.add_kernel(&sig("two_faults"), |b, args, item| {
        let (lid, gid) = linear_ids(b, item, geom);
        let five = arith::constant_index(b, 5);
        let is5 = arith::cmpi(b, "eq", lid, five);
        let v = if_else_zero(b, is5, |b| {
            let far = arith::constant_index(b, geom.items() + 1000);
            sdev::load_via_id(b, args[0], &[far])
        });
        sdev::store_via_id(b, v, args[2], &[gid]);
        let (two, zero) = (arith::constant_index(b, 2), arith::constant_index(b, 0));
        let d = arith::subi(b, lid, two);
        let q = arith::divsi(b, gid, d);
        // Keep the quotient live: it picks what the lane stores next.
        let negative = arith::cmpi(b, "slt", q, zero);
        let k = arith::select(b, negative, zero, q);
        let w = load_shifted(b, args[0], gid, k, geom);
        sdev::store_via_id(b, w, args[2], &[gid]);
    });

    generate_host_ir(kb.module(), rt, q);
    kb.finish()
}

/// Fresh buffers for `geom`: the input, per-item trip counts, the output.
fn runtime(geom: Geom) -> SyclRuntime {
    let n = geom.items();
    let mut rt = SyclRuntime::new();
    rt.buffer_f32((0..n).map(|i| 0.5 + i as f32 * 0.25).collect(), &[n]);
    rt.buffer_i32((0..n).map(|i| (i % 5) as i32).collect(), &[n]);
    rt.buffer_f32(vec![-1.0; n as usize], &[n]);
    rt
}

/// Everything one run shows: per kernel its statistics and launch/JIT
/// cycles, the report's cycle total, the output buffer — or the error.
type Observation = Result<(Vec<(String, ExecStats, u64, u64)>, u64, Vec<u32>), SimError>;

fn observe(
    program: &mut sycl_mlir_repro::runtime::Program,
    geom: Geom,
    q: &Queue,
    device: &Device,
) -> Observation {
    let mut rt = runtime(geom);
    let report = exec::run(program, &mut rt, q, device)?;
    let rows = report
        .kernel_runs
        .iter()
        .map(|k| {
            (
                k.kernel.clone(),
                k.stats.clone(),
                k.launch_cycles.to_bits(),
                k.jit_cycles.to_bits(),
            )
        })
        .collect();
    let out = rt.read_f32(BufferId(2)).iter().map(|x| x.to_bits());
    Ok((rows, report.measured_cycles().to_bits(), out.collect()))
}

/// Run `kernel` under every geometry, flow and sub-group size, on the
/// tree walk and on the plan engine with one worker and four; returns the
/// tree walk's observations.
fn check(kernel: &str) -> Vec<Observation> {
    let mut seen = Vec::new();
    for geom in GEOMS {
        let mut q = Queue::new();
        q.submit(|h| {
            h.accessor(BufferId(0), AccessMode::Read);
            h.accessor(BufferId(1), AccessMode::Read);
            h.accessor(BufferId(2), AccessMode::Write);
            h.parallel_for_nd(kernel, geom.global, geom.local);
        });
        for flow in [FlowKind::Dpcpp, FlowKind::SyclMlir] {
            let module = build_module(geom, &runtime(geom), &q);
            let mut program = compile_program(flow, module).expect("compiles");
            for subgroup_size in SUBGROUP_SIZES {
                let device = |engine, threads| {
                    let cost = CostModel {
                        subgroup_size,
                        ..CostModel::default()
                    };
                    Device::with_cost(cost).engine(engine).threads(threads)
                };
                let tree = observe(&mut program, geom, &q, &device(Engine::TreeWalk, 1));
                for threads in [1, 4] {
                    let plan = observe(&mut program, geom, &q, &device(Engine::Plan, threads));
                    assert_eq!(
                        tree, plan,
                        "{kernel}, {geom:?}, {flow:?}, sub-groups of {subgroup_size}, \
                         {threads} worker(s): the plan engine diverges from the tree walk"
                    );
                }
                seen.push(tree);
            }
        }
    }
    seen
}

/// The kernels that complete: identical everywhere, and the output was
/// written.
#[test]
fn divergent_lanes_match_the_serial_reference() {
    for kernel in COMPLETING {
        for run in check(kernel) {
            let (rows, _, out) = run.unwrap_or_else(|e| panic!("{kernel} failed: {e}"));
            assert_eq!(rows.len(), 1);
            assert!(out.iter().all(|&bits| f32::from_bits(bits) >= 0.0));
        }
    }
}

/// A divergent barrier — the even lanes' under an `scf.if`, or every lane
/// but 0 in a loop of `lid` trips — reads the same bytes under every
/// configuration of a geometry: work-group 0's, with the same census.
#[test]
fn a_divergent_barrier_reads_the_same() {
    for kernel in ["divergent", "barrier_loop"] {
        let runs = check(kernel);
        for (geom, runs) in GEOMS.iter().zip(runs.chunks(runs.len() / GEOMS.len())) {
            let g = geom.group();
            // The odd lanes finish past the `if`; lane 0 alone skips the loop.
            let f = if kernel == "divergent" { g / 2 } else { 1 };
            let expected = format!(
                "simulation error: divergent barrier: {} work-items wait at a barrier \
                 while {f} finished (work-group [0, 0, 0]) (launch 0, work-group 0)",
                g - f
            );
            for run in runs {
                let e = run.as_ref().expect_err("a divergent barrier");
                assert_eq!(e.to_string(), expected, "{kernel}, {geom:?}");
            }
        }
    }
}

/// Two failing lanes: the error of the one that fails first in item order.
#[test]
fn the_lower_lanes_error_wins() {
    for run in check("two_faults") {
        let e = run.expect_err("a division by zero");
        assert_eq!(
            e.to_string(),
            "simulation error: division by zero (launch 0, work-group 0)"
        );
        assert_eq!(
            e,
            SimError::Kernel {
                fault: KernelFault::DivisionByZero,
                at: Some((0, 0)),
            }
        );
    }
}

/// The increment of an `scf.for` that passes `i64::MAX` ends the loop (it
/// used to panic in debug builds and wrap, re-entering the loop, in
/// release builds): two iterations — at `MAX - 5` and `MAX - 2` — under
/// both engines.
#[test]
fn a_loop_increment_past_i64_max_ends_the_loop() {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let sig = KernelSig::new("near_max", 1, true).accessor(ctx.f32_type(), 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let (lb, ub) = (
            arith::constant_index(b, i64::MAX - 5),
            arith::constant_index(b, i64::MAX - 1),
        );
        let (step, f32t) = (arith::constant_index(b, 3), b.ctx().f32_type());
        let init = arith::constant_float(b, 0.0, f32t.clone());
        let op = scf::build_for(b, lb, ub, step, &[init], |b, _, acc| {
            let one = arith::constant_float(b, 1.0, f32t);
            vec![arith::addf(b, acc[0], one)]
        });
        let trips = b.module().op_result(op, 0);
        sdev::store_via_id(b, trips, args[0], &[gid]);
    });
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(BufferId(0), AccessMode::Write);
        h.parallel_for_nd("near_max", &[16], &[16]);
    });
    let fresh = || {
        let mut rt = SyclRuntime::new();
        rt.buffer_f32(vec![-1.0; 16], &[16]);
        rt
    };
    generate_host_ir(kb.module(), &fresh(), &q);
    let mut program = compile_program(FlowKind::Dpcpp, kb.finish()).expect("compiles");
    for engine in [Engine::TreeWalk, Engine::Plan] {
        let mut rt = fresh();
        exec::run(&mut program, &mut rt, &q, &Device::with_engine(engine))
            .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        assert_eq!(rt.read_f32(BufferId(0)), [2.0; 16], "{engine:?}");
    }
}

/// The audit setting has teeth: under it a work-group's sub-groups, and
/// the two halves of a split, run in the opposite order — shown by a
/// kernel that *does* depend on item order between barriers (every item
/// of a group stores its local id to the group's one slot, once on a
/// uniform path and once down the two sides of an `if`). The suites that
/// run under audit (`tests/differential.rs`, `tests/plan_fuzz.rs`) would
/// catch such a kernel; none of the benchsuite's is one.
#[test]
fn the_audit_runs_sub_groups_and_split_halves_in_the_opposite_order() {
    use sycl_mlir_repro::sim::plan::audit_on_this_thread;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let sig = KernelSig::new("last_writer", 1, true).accessor(ctx.f32_type(), 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let (lid, group) = (sdev::local_id(b, item, 0), sdev::group_id(b, item, 0));
        let (zero, one, two) = (
            arith::constant_index(b, 0),
            arith::constant_index(b, 1),
            arith::constant_index(b, 2),
        );
        let i = arith::index_cast(b, lid, b.ctx().i32_type());
        let v = arith::sitofp(b, i, b.ctx().f32_type());
        let slot = arith::muli(b, group, two);
        sdev::store_via_id(b, v, args[0], &[slot]);
        let split = arith::addi(b, slot, one);
        let m = arith::remsi(b, lid, two);
        let even = arith::cmpi(b, "eq", m, zero);
        scf::build_if(
            b,
            even,
            &[],
            |b| {
                sdev::store_via_id(b, v, args[0], &[split]);
                vec![]
            },
            |b| {
                sdev::store_via_id(b, v, args[0], &[split]);
                vec![]
            },
        );
    });
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(BufferId(0), AccessMode::Write);
        h.parallel_for_nd("last_writer", &[48], &[24]);
    });
    let fresh = || {
        let mut rt = SyclRuntime::new();
        rt.buffer_f32(vec![-1.0; 4], &[4]);
        rt
    };
    generate_host_ir(kb.module(), &fresh(), &q);
    let mut program = compile_program(FlowKind::Dpcpp, kb.finish()).expect("compiles");
    let mut run = |engine| {
        let mut rt = fresh();
        exec::run(&mut program, &mut rt, &q, &Device::with_engine(engine)).expect("runs");
        rt.read_f32(BufferId(0)).to_vec()
    };
    // Item order: the last item of a group writes last, on either path.
    assert_eq!(run(Engine::TreeWalk), [23.0, 23.0, 23.0, 23.0]);
    // Lockstep: sub-group by sub-group, and after a split the lanes that
    // fall through (the even ones) before those that jump.
    assert_eq!(run(Engine::Plan), [23.0, 23.0, 23.0, 23.0]);
    audit_on_this_thread(true);
    let audited = run(Engine::Plan);
    audit_on_this_thread(false);
    // Under audit: the second sub-group (lanes 16..24) before the first,
    // the odd lanes before the even.
    assert_eq!(audited, [15.0, 14.0, 15.0, 14.0]);
}
