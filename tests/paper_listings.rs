//! Integration tests reproducing every listing of the paper as an
//! executable assertion (see DESIGN.md's per-experiment index).

use sycl_mlir_repro::analysis::{
    MemoryAccessAnalysis, ReachingDefinitions, Uniformity, UniformityAnalysis,
};
use sycl_mlir_repro::dialects::{affine, arith, func, memref, scf};
use sycl_mlir_repro::frontend::full_context;
use sycl_mlir_repro::ir::Pass;
use sycl_mlir_repro::ir::{Attribute, Builder, Module, OpId, WalkControl};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::{accessor_type, item_type, nd_item_type, AccessMode, Target};
use sycl_mlir_repro::transform::DetectReductionPass;

/// Listing 1: `{MODS: a, PMODS: b}` for the load of `%ptr1` after the
/// two-armed store.
#[test]
fn listing1_reaching_definitions() {
    let ctx = full_context();
    let mut m = Module::new(&ctx);
    let memt = ctx.memref_type(ctx.i32_type(), &[]);
    let top = m.top();
    let (f, entry) = func::build_func(
        &mut m,
        top,
        "foo",
        &[
            ctx.i1_type(),
            ctx.i32_type(),
            ctx.i32_type(),
            memt.clone(),
            memt,
        ],
        &[],
    );
    let cond = m.block_arg(entry, 0);
    let v1 = m.block_arg(entry, 1);
    let v2 = m.block_arg(entry, 2);
    let ptr1 = m.block_arg(entry, 3);
    let ptr2 = m.block_arg(entry, 4);
    let load = {
        let mut b = Builder::at_end(&mut m, entry);
        scf::build_if(
            &mut b,
            cond,
            &[],
            |inner| {
                let s = memref::store(inner, v1, ptr1, &[]);
                inner
                    .module()
                    .set_attr(s, "tag", Attribute::Str("a".into()));
                vec![]
            },
            |inner| {
                let s = memref::store(inner, v2, ptr2, &[]);
                inner
                    .module()
                    .set_attr(s, "tag", Attribute::Str("b".into()));
                vec![]
            },
        );
        let l = memref::load(&mut b, ptr1, &[]);
        func::build_return(&mut b, &[]);
        b.module().def_op(l).unwrap()
    };
    sycl_mlir_repro::ir::verify(&m).unwrap();

    let rd = ReachingDefinitions::compute(&m, f);
    let defs = rd.defs_for_load(&m, load);
    let tag = |op: OpId| {
        m.attr(op, "tag")
            .and_then(|a| a.as_str())
            .unwrap()
            .to_string()
    };
    assert_eq!(
        defs.mods().into_iter().map(tag).collect::<Vec<_>>(),
        vec!["a"]
    );
    let tag2 = |op: OpId| {
        m.attr(op, "tag")
            .and_then(|a| a.as_str())
            .unwrap()
            .to_string()
    };
    assert_eq!(
        defs.pmods().into_iter().map(tag2).collect::<Vec<_>>(),
        vec!["b"]
    );
}

/// Listing 2: `%cond`, `%load` and `%cond1` are all non-uniform.
#[test]
fn listing2_uniformity() {
    let ctx = full_context();
    let mut m = Module::new(&ctx);
    let nd2 = nd_item_type(&ctx, 2);
    let top = m.top();
    let (f, entry) = func::build_func(&mut m, top, "non_uniform", &[nd2, ctx.index_type()], &[]);
    sdev::mark_kernel(&mut m, f);
    let item = m.block_arg(entry, 0);
    let idx = m.block_arg(entry, 1);
    let (cond, load, cond1) = {
        let mut b = Builder::at_end(&mut m, entry);
        let i64t = b.ctx().i64_type();
        let alloca = memref::alloca(&mut b, i64t.clone(), &[10]);
        let gid = sdev::global_id(&mut b, item, 0);
        let zero = arith::constant_index(&mut b, 0);
        let cond = arith::cmpi(&mut b, "sgt", gid, zero);
        let c1 = arith::constant_int(&mut b, 1, i64t.clone());
        let c2 = arith::constant_int(&mut b, 2, i64t.clone());
        scf::build_if(
            &mut b,
            cond,
            &[],
            |inner| {
                memref::store(inner, c1, alloca, &[idx]);
                vec![]
            },
            |inner| {
                memref::store(inner, c2, alloca, &[idx]);
                vec![]
            },
        );
        let load = memref::load(&mut b, alloca, &[idx]);
        let zero64 = arith::constant_int(&mut b, 0, i64t);
        let cond1 = arith::cmpi(&mut b, "sgt", load, zero64);
        func::build_return(&mut b, &[]);
        (cond, load, cond1)
    };
    let ua = UniformityAnalysis::compute(&m, f);
    assert_eq!(ua.value(cond), Uniformity::NonUniform);
    assert_eq!(ua.value(load), Uniformity::NonUniform);
    assert_eq!(ua.value(cond1), Uniformity::NonUniform);
}

/// Listing 3: the access matrix and offset vector of §V-D.
#[test]
fn listing3_access_matrix() {
    let ctx = full_context();
    let mut m = Module::new(&ctx);
    let acc3 = accessor_type(&ctx, ctx.f32_type(), 3, AccessMode::Read, Target::Global);
    let item2 = item_type(&ctx, 2);
    let top = m.top();
    let (f, entry) = func::build_func(&mut m, top, "mem_acc", &[acc3, item2], &[]);
    sdev::mark_kernel(&mut m, f);
    let acc = m.block_arg(entry, 0);
    let item = m.block_arg(entry, 1);
    {
        let mut b = Builder::at_end(&mut m, entry);
        let gid_x = sdev::item_get_id(&mut b, item, 0);
        let gid_y = sdev::item_get_id(&mut b, item, 1);
        let zero = arith::constant_index(&mut b, 0);
        let n = arith::constant_index(&mut b, 64);
        let one = arith::constant_index(&mut b, 1);
        affine::build_affine_for(&mut b, zero, n, one, &[], |inner, i, _| {
            let c1 = arith::constant_index(inner, 1);
            let c2 = arith::constant_index(inner, 2);
            let add1 = arith::addi(inner, gid_x, c1);
            let mul1 = arith::muli(inner, i, c2);
            let add1a = arith::addi(inner, mul1, c2);
            let add1b = arith::addi(inner, add1a, gid_y);
            let id = sdev::make_id(inner, &[add1, mul1, add1b]);
            let view = sdev::subscript(inner, acc, id);
            let z = arith::constant_index(inner, 0);
            affine::load(inner, view, &[z]);
            vec![]
        });
        func::build_return(&mut b, &[]);
    }
    let maa = MemoryAccessAnalysis::analyze(&m, f);
    assert_eq!(maa.accesses.len(), 1);
    let a = &maa.accesses[0];
    // The exact matrix and offsets printed in §V-D.
    assert_eq!(a.matrix, vec![vec![1, 0, 0], vec![0, 0, 2], vec![0, 1, 2]]);
    assert_eq!(a.offsets, vec![1, 0, 2]);
}

/// Listings 4 → 5: the reduction rewrite produces the `iter_args` loop and
/// leaves exactly one load and one store of the reduced element.
#[test]
fn listing4_to_listing5_reduction() {
    let ctx = full_context();
    let mut m = Module::new(&ctx);
    let f32t = ctx.f32_type();
    let mem1 = ctx.memref_type(f32t.clone(), &[1]);
    let memd = ctx.memref_type(f32t, &[-1]);
    let top = m.top();
    let (f, entry) = func::build_func(
        &mut m,
        top,
        "reduction",
        &[mem1, memd, ctx.index_type(), ctx.index_type()],
        &[],
    );
    sycl_mlir_repro::sycl::facts::BUFFER_IDS.set(&mut m, f, vec![0, 1, -1, -1]);
    let ptr = m.block_arg(entry, 0);
    let other = m.block_arg(entry, 1);
    let lb = m.block_arg(entry, 2);
    let ub = m.block_arg(entry, 3);
    {
        let mut b = Builder::at_end(&mut m, entry);
        let one = arith::constant_index(&mut b, 1);
        let zero = arith::constant_index(&mut b, 0);
        affine::build_affine_for(&mut b, lb, ub, one, &[], |inner, iv, _| {
            let val = affine::load(inner, ptr, &[zero]);
            let o = affine::load(inner, other, &[iv]);
            let res = arith::addf(inner, val, o);
            affine::store(inner, res, ptr, &[zero]);
            vec![]
        });
        func::build_return(&mut b, &[]);
    }
    let mut pass = DetectReductionPass::default();
    assert!(pass.run(&mut m).unwrap());
    assert_eq!(pass.rewritten, 1);
    sycl_mlir_repro::ir::verify(&m).unwrap();

    // Listing 5 shape: loop carries one scalar; the element is loaded once
    // before and stored once after.
    let mut loops = Vec::new();
    m.walk(m.top(), &mut |op| {
        if m.op_is(op, "affine.for") {
            loops.push(op);
        }
        WalkControl::Advance
    });
    assert_eq!(loops.len(), 1);
    assert_eq!(m.op_results(loops[0]).len(), 1, "one iter_args result");
    let mut stores_in_loop = 0;
    m.walk(loops[0], &mut |op| {
        if m.op_is(op, "affine.store") {
            stores_in_loop += 1;
        }
        WalkControl::Advance
    });
    assert_eq!(stores_in_loop, 0, "no store left inside the loop");
}

/// Listings 6 → 7 and 8 → 9 combined: the GEMM application compiled by the
/// full SYCL-MLIR flow shows the raised host ops and the internalized
/// kernel with its two barriers.
#[test]
fn listing6_to_9_full_flow() {
    let spec = sycl_mlir_repro::benchsuite::all_workloads()
        .into_iter()
        .find(|w| w.name == "GEMM")
        .expect("GEMM registered");
    let app = (spec.build)(32);
    let mut module = app.module;
    let flow = sycl_mlir_repro::core::Flow::new(sycl_mlir_repro::core::FlowKind::SyclMlir);
    flow.compile(&mut module).expect("pipeline runs");

    let text = sycl_mlir_repro::ir::print_module(&module);
    // Listing 9: raised host ops.
    assert!(text.contains("sycl.host.constructor"), "{text}");
    assert!(text.contains("sycl.host.schedule_kernel"), "{text}");
    assert!(
        !text.contains("llvm.call"),
        "no un-raised runtime calls left"
    );
    // Listing 7: two barriers and two local tiles in the kernel.
    assert_eq!(text.matches("sycl.group.barrier").count(), 2, "{text}");
    assert_eq!(text.matches("sycl.local.alloca").count(), 2, "{text}");
}

/// §VIII: Gramschmidt's candidate loop sits in a divergent region and is
/// not internalized; Correlation/Covariance expose 5 and 4 reduction
/// opportunities.
#[test]
fn section8_optimization_counts() {
    use sycl_mlir_repro::transform::{
        DeadArgumentEliminationPass, HostDeviceConstantPropagationPass, LicmPass,
        LoopInternalizationPass, RaiseHostPass,
    };
    let counts = |name: &str| {
        let spec = sycl_mlir_repro::benchsuite::all_workloads()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("{name} registered"));
        let app = (spec.build)(32);
        let mut m = app.module;
        RaiseHostPass::default().run(&mut m).unwrap();
        HostDeviceConstantPropagationPass::default()
            .run(&mut m)
            .unwrap();
        sycl_mlir_repro::transform::CanonicalizePass
            .run(&mut m)
            .unwrap();
        sycl_mlir_repro::transform::CsePass.run(&mut m).unwrap();
        LicmPass::new(true).run(&mut m).unwrap();
        let mut red = DetectReductionPass::default();
        red.run(&mut m).unwrap();
        let mut int = LoopInternalizationPass::default();
        int.run(&mut m).unwrap();
        let _ = DeadArgumentEliminationPass::default().run(&mut m);
        (red.rewritten, int.stats.clone())
    };

    let (red, int) = counts("Correlation");
    assert_eq!(
        red, 5,
        "Correlation has five reduction opportunities (§VIII)"
    );
    assert_eq!(
        int.internalized_loops, 0,
        "correlation loops sit in divergent regions"
    );

    let (red, _) = counts("Covariance");
    assert_eq!(
        red, 4,
        "Covariance has four reduction opportunities (§VIII)"
    );

    let (_, int) = counts("Gramschmidt");
    assert!(
        int.skipped_divergent >= 1,
        "Gramschmidt candidate skipped for divergence (§VIII)"
    );
    assert_eq!(int.internalized_loops, 0);

    let (_, int) = counts("GEMM");
    assert_eq!(int.prefetched_refs, 2, "GEMM prefetches two refs (§VIII)");

    let (_, int) = counts("SYR2K");
    assert_eq!(int.prefetched_refs, 4, "SYR2K prefetches four refs (§VIII)");
}
