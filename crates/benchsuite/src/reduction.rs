//! The `reduction` category: tree reduction, segmented scan and a
//! work-group-local dot product — the collective-style access patterns of
//! §VIII that the original three categories leave uncovered. All four
//! workloads drive work-group local memory and barriers through the
//! frontend; the dynamic-nd-range variant derives its launch extents from
//! the data size at submission time, so a tail launch with zero
//! work-groups sits in the middle of the dependency chain (the empty
//! nd-range path).

use crate::util::*;
use crate::{App, Category, ValidateFn, WorkloadSpec};
use sycl_mlir_dialects::{arith, memref, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::{hostgen::generate_host_ir, Queue, SyclRuntime};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// Work-group size shared by the whole family (powers of two so the tree
/// strides stay exact).
const WG: i64 = 16;

/// All reduction/scan workloads.
pub fn workloads() -> Vec<WorkloadSpec> {
    fn spec(name: &'static str, paper: i64, scaled: i64, build: fn(i64) -> App) -> WorkloadSpec {
        WorkloadSpec {
            name,
            category: Category::Reduction,
            paper_size: paper,
            scaled_size: scaled,
            acpp_fails: false,
            in_figure: true,
            build,
        }
    }
    vec![
        spec("TreeReduce (float32)", 1 << 20, 4096, tree_reduce),
        spec("SegScan (float32)", 1 << 20, 4096, seg_scan),
        spec("DotProd (WG-local)", 1 << 20, 4096, dot_wg),
        spec("TreeReduce (dyn nd-range)", 1 << 20, 4096, tree_reduce_dyn),
    ]
}

/// Round `n` up to a whole number of work-groups (≥ one group).
fn whole_groups(n: i64) -> i64 {
    ((n.max(1) + WG - 1) / WG) * WG
}

/// Emit the in-tile tree-reduction ladder: `log2(WG)` halving strides,
/// each a guarded accumulate followed by a *uniform* work-group barrier.
fn build_tree_ladder(
    b: &mut sycl_mlir_ir::Builder<'_>,
    tile: sycl_mlir_ir::ValueId,
    lid: sycl_mlir_ir::ValueId,
    group: sycl_mlir_ir::ValueId,
) {
    let mut stride = WG / 2;
    while stride >= 1 {
        let s = arith::constant_index(b, stride);
        let active = arith::cmpi(b, "slt", lid, s);
        scf::build_if(
            b,
            active,
            &[],
            |inner| {
                let lo = memref::load(inner, tile, &[lid]);
                let partner = arith::addi(inner, lid, s);
                let hi = memref::load(inner, tile, &[partner]);
                let sum = arith::addf(inner, lo, hi);
                memref::store(inner, sum, tile, &[lid]);
                vec![]
            },
            |_| vec![],
        );
        sdev::group_barrier(b, group);
        stride /= 2;
    }
}

// ----------------------------------------------------------------------
// TreeReduce: partial[g] = sum of input[g*WG .. (g+1)*WG) via a local
// tile and halving-stride barrier ladder.
// ----------------------------------------------------------------------

fn tree_reduce(n: i64) -> App {
    let n = whole_groups(n);
    let groups = n / WG;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("tree_reduce", 1, true)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let lid = sdev::local_id(b, item, 0);
        let grp = sdev::group_id(b, item, 0);
        let f32t = b.ctx().f32_type();
        let tile = sdev::local_alloca(b, f32t, &[WG]);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        memref::store(b, v, tile, &[lid]);
        let g = sdev::get_group(b, item);
        sdev::group_barrier(b, g);
        build_tree_ladder(b, tile, lid, g);
        let zero = arith::constant_index(b, 0);
        let leader = arith::cmpi(b, "eq", lid, zero);
        scf::build_if(
            b,
            leader,
            &[],
            |inner| {
                let z = arith::constant_index(inner, 0);
                let total = memref::load(inner, tile, &[z]);
                sdev::store_via_id(inner, total, args[1], &[grp]);
                vec![]
            },
            |_| vec![],
        );
    });

    let mut rng_ = rng(61);
    let mut rt = SyclRuntime::new();
    let data = rand_f32(&mut rng_, n as usize);
    let input = rt.buffer_f32(data.clone(), &[n]);
    let partial = rt.buffer_f32(vec![0.0; groups as usize], &[groups]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(input, AccessMode::Read)
            .accessor(partial, AccessMode::Write);
        h.parallel_for_nd("tree_reduce", &[n], &[WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let want: Vec<f32> = (0..groups as usize)
            .map(|g| data[g * WG as usize..(g + 1) * WG as usize].iter().sum())
            .collect();
        check_f32("tree_reduce", rt.read_f32(partial), &want, 1e-4)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// SegScan: inclusive prefix sum within each WG-sized segment — every item
// publishes to the tile, barriers, then folds tile[0..=lid].
// ----------------------------------------------------------------------

fn seg_scan(n: i64) -> App {
    let n = whole_groups(n);
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("seg_scan", 1, true)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let lid = sdev::local_id(b, item, 0);
        let f32t = b.ctx().f32_type();
        let tile = sdev::local_alloca(b, f32t.clone(), &[WG]);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        memref::store(b, v, tile, &[lid]);
        let g = sdev::get_group(b, item);
        sdev::group_barrier(b, g);
        let zero = arith::constant_index(b, 0);
        let one = arith::constant_index(b, 1);
        let end = arith::addi(b, lid, one);
        let zf = arith::constant_float(b, 0.0, f32t);
        let fold = scf::build_for(b, zero, end, one, &[zf], |inner, j, iters| {
            let e = memref::load(inner, tile, &[j]);
            let s = arith::addf(inner, iters[0], e);
            vec![s]
        });
        let prefix = b.module().op_result(fold, 0);
        sdev::store_via_id(b, prefix, args[1], &[gid]);
    });

    let mut rng_ = rng(62);
    let mut rt = SyclRuntime::new();
    let data = rand_f32(&mut rng_, n as usize);
    let input = rt.buffer_f32(data.clone(), &[n]);
    let out = rt.buffer_f32(vec![0.0; n as usize], &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(input, AccessMode::Read)
            .accessor(out, AccessMode::Write);
        h.parallel_for_nd("seg_scan", &[n], &[WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let mut want = vec![0.0_f32; n as usize];
        for seg in 0..(n / WG) as usize {
            let mut acc = 0.0_f32;
            for k in 0..WG as usize {
                acc += data[seg * WG as usize + k];
                want[seg * WG as usize + k] = acc;
            }
        }
        check_f32("seg_scan", rt.read_f32(out), &want, 1e-4)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// DotProd: per-group dot-product partials — the multiply feeds the tile,
// the leader folds after the barrier.
// ----------------------------------------------------------------------

fn dot_wg(n: i64) -> App {
    let n = whole_groups(n);
    let groups = n / WG;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("dot_wg", 1, true)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let lid = sdev::local_id(b, item, 0);
        let grp = sdev::group_id(b, item, 0);
        let f32t = b.ctx().f32_type();
        let tile = sdev::local_alloca(b, f32t.clone(), &[WG]);
        let a = sdev::load_via_id(b, args[0], &[gid]);
        let x = sdev::load_via_id(b, args[1], &[gid]);
        let p = arith::mulf(b, a, x);
        memref::store(b, p, tile, &[lid]);
        let g = sdev::get_group(b, item);
        sdev::group_barrier(b, g);
        let zero = arith::constant_index(b, 0);
        let leader = arith::cmpi(b, "eq", lid, zero);
        scf::build_if(
            b,
            leader,
            &[],
            |inner| {
                let z = arith::constant_index(inner, 0);
                let wg = arith::constant_index(inner, WG);
                let one = arith::constant_index(inner, 1);
                let zf = arith::constant_float(inner, 0.0, inner.ctx().f32_type());
                let fold = scf::build_for(inner, z, wg, one, &[zf], |l, j, iters| {
                    let e = memref::load(l, tile, &[j]);
                    let s = arith::addf(l, iters[0], e);
                    vec![s]
                });
                let total = inner.module().op_result(fold, 0);
                sdev::store_via_id(inner, total, args[2], &[grp]);
                vec![]
            },
            |_| vec![],
        );
    });

    let mut rng_ = rng(63);
    let mut rt = SyclRuntime::new();
    let av = rand_f32(&mut rng_, n as usize);
    let a = rt.buffer_f32(av.clone(), &[n]);
    let xv = rand_f32(&mut rng_, n as usize);
    let x = rt.buffer_f32(xv.clone(), &[n]);
    let partial = rt.buffer_f32(vec![0.0; groups as usize], &[groups]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(x, AccessMode::Read)
            .accessor(partial, AccessMode::Write);
        h.parallel_for_nd("dot_wg", &[n], &[WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let want: Vec<f32> = (0..groups as usize)
            .map(|g| {
                (0..WG as usize)
                    .map(|k| av[g * WG as usize + k] * xv[g * WG as usize + k])
                    .sum()
            })
            .collect();
        check_f32("dot_wg", rt.read_f32(partial), &want, 1e-4)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// TreeReduce (dyn nd-range): launch extents computed from the data size
// at submission time — a bulk nd-launch over the whole-group prefix and a
// tail launch over the remainder. For group-aligned sizes the tail has
// zero work-groups, so an empty launch sits inside the dependency chain.
// ----------------------------------------------------------------------

fn tree_reduce_dyn(n: i64) -> App {
    let n = n.max(1);
    let bulk = n - n % WG;
    let tail = n % WG;
    let groups = bulk / WG;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let bulk_sig = KernelSig::new("dyn_bulk", 1, true)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Write);
    kb.add_kernel(&bulk_sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let lid = sdev::local_id(b, item, 0);
        let grp = sdev::group_id(b, item, 0);
        let f32t = b.ctx().f32_type();
        let tile = sdev::local_alloca(b, f32t, &[WG]);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        memref::store(b, v, tile, &[lid]);
        let g = sdev::get_group(b, item);
        sdev::group_barrier(b, g);
        build_tree_ladder(b, tile, lid, g);
        let zero = arith::constant_index(b, 0);
        let leader = arith::cmpi(b, "eq", lid, zero);
        scf::build_if(
            b,
            leader,
            &[],
            |inner| {
                let z = arith::constant_index(inner, 0);
                let total = memref::load(inner, tile, &[z]);
                sdev::store_via_id(inner, total, args[1], &[grp]);
                vec![]
            },
            |_| vec![],
        );
    });
    // Tail pass-through: one partial per leftover element, placed after
    // the bulk groups' partials.
    let tail_sig = KernelSig::new("dyn_tail", 1, false)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write)
        .scalar(ctx.i64_type())
        .scalar(ctx.i64_type());
    kb.add_kernel(&tail_sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let index_ty = b.ctx().index_type();
        let off = arith::index_cast(b, args[2], index_ty.clone());
        let base = arith::index_cast(b, args[3], index_ty);
        let src = arith::addi(b, off, gid);
        let dst = arith::addi(b, base, gid);
        let v = sdev::load_via_id(b, args[0], &[src]);
        sdev::store_via_id(b, v, args[1], &[dst]);
    });

    let mut rng_ = rng(64);
    let mut rt = SyclRuntime::new();
    let data = rand_f32(&mut rng_, n as usize);
    let input = rt.buffer_f32(data.clone(), &[n]);
    let plen = groups + tail;
    let partial = rt.buffer_f32(vec![0.0; plen as usize], &[plen]);
    let mut q = Queue::new();
    if bulk > 0 {
        q.submit(|h| {
            h.accessor(input, AccessMode::Read)
                .accessor(partial, AccessMode::Write);
            h.parallel_for_nd("dyn_bulk", &[bulk], &[WG]);
        });
    }
    // Submitted unconditionally: for aligned sizes this is the zero-group
    // launch the scheduler must retire eagerly.
    q.submit(|h| {
        h.accessor(input, AccessMode::Read)
            .accessor(partial, AccessMode::Write)
            .scalar_i64(bulk)
            .scalar_i64(groups);
        h.parallel_for("dyn_tail", &[tail]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let mut want: Vec<f32> = (0..groups as usize)
            .map(|g| data[g * WG as usize..(g + 1) * WG as usize].iter().sum())
            .collect();
        want.extend_from_slice(&data[bulk as usize..]);
        check_f32("tree_reduce_dyn", rt.read_f32(partial), &want, 1e-4)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}
