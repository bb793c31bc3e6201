//! The uniformity analysis (§V-C, Listing 2) against *real compiled
//! kernels* — every barrier of the registered workloads must come out
//! statically uniform under every flow, while an `scf.if`-guarded barrier
//! under a work-item-id condition must be flagged divergent. The analysis
//! is the compiler's (loop internalization asks it whether a barrier may
//! be inserted); the simulator does not consult it, and finds a barrier
//! that work-items reach divergently at run time.

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::analysis::uniformity::UniformityAnalysis;
use sycl_mlir_repro::benchsuite::all_workloads;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::{arith, scf};
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::ir::{Module, OpId, WalkControl};
use sycl_mlir_repro::runtime::compile_program;
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;
use sycl_mlir_repro::sycl::DEVICE_MODULE_SYM;

/// All `sycl.group.barrier` ops inside `func`, in walk order.
fn barriers_in(m: &Module, func: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    m.walk(func, &mut |op| {
        if m.op_is(op, "sycl.group.barrier") {
            out.push(op);
        }
        WalkControl::Advance
    });
    out
}

/// Every barrier of every registered workload, under every flow at quick
/// size, sits in uniform control flow: the reduction ladders branch on
/// *loop counters and constants*, never on work-item ids. The analysis
/// runs over the whole device module ([`UniformityAnalysis::compute_module`]),
/// so a barrier in a callee counts, with its parameters joined over the
/// call sites.
#[test]
fn every_workload_barrier_is_uniform_under_every_flow() {
    let mut barriers_seen = 0_usize;
    for w in all_workloads() {
        for flow in FlowKind::all() {
            let app = (w.build)(quick_size(&w));
            let program = compile_program(flow, app.module)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, flow.name()));
            let m = &program.module;
            let device_mod = m
                .lookup_symbol(m.top(), DEVICE_MODULE_SYM)
                .expect("device module");
            let ua = UniformityAnalysis::compute_module(m, device_mod);
            for f in m.funcs_in(device_mod) {
                for b in barriers_in(m, f) {
                    barriers_seen += 1;
                    assert!(
                        !ua.is_divergent_at(m, b, f),
                        "{} [{}]: a barrier was flagged divergent",
                        w.name,
                        flow.name()
                    );
                }
            }
        }
    }
    assert_eq!(barriers_seen, 46, "barriers in the suite's device modules");
}

/// A barrier guarded by `scf.if (global_id == 0)` is the §V-C deadlock
/// shape: only one work-item reaches it. The analysis must flag the
/// barrier's position divergent — this is exactly what keeps loop
/// internalization from inserting a barrier under such a guard.
#[test]
fn id_guarded_barrier_is_divergent() {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let sig = KernelSig::new("guarded", 1, true).accessor(ctx.f32_type(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let zero = arith::constant_index(b, 0);
        let cond = arith::cmpi(b, "eq", i, zero);
        scf::build_if(
            b,
            cond,
            &[],
            |inner| {
                let g = sdev::get_group(inner, item);
                sdev::group_barrier(inner, g);
                vec![]
            },
            |_| vec![],
        );
        let v = sdev::load_via_id(b, args[0], &[i]);
        sdev::store_via_id(b, v, args[0], &[i]);
    });
    let device = kb.device_module();
    let m = kb.module();
    let kernel = m
        .funcs_in(device)
        .into_iter()
        .find(|&f| sdev::is_kernel(m, f))
        .expect("kernel built");
    let ua = UniformityAnalysis::compute(m, kernel);
    let barriers = barriers_in(m, kernel);
    assert_eq!(barriers.len(), 1);
    assert!(
        ua.is_divergent_at(m, barriers[0], kernel),
        "an id-guarded barrier must be flagged divergent"
    );

    // The unguarded twin of the same kernel stays uniform — the flag is
    // the guard's doing, not a blanket answer.
    let mut kb = KernelModuleBuilder::new(&ctx);
    let sig =
        KernelSig::new("unguarded", 1, true).accessor(ctx.f32_type(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let g = sdev::get_group(b, item);
        sdev::group_barrier(b, g);
        let v = sdev::load_via_id(b, args[0], &[i]);
        sdev::store_via_id(b, v, args[0], &[i]);
    });
    let device = kb.device_module();
    let m = kb.module();
    let kernel = m
        .funcs_in(device)
        .into_iter()
        .find(|&f| sdev::is_kernel(m, f))
        .expect("kernel built");
    let ua = UniformityAnalysis::compute(m, kernel);
    let barriers = barriers_in(m, kernel);
    assert_eq!(barriers.len(), 1);
    assert!(
        !ua.is_divergent_at(m, barriers[0], kernel),
        "a top-level barrier must not be flagged divergent"
    );
}
